//! Privacy accounting across many releases.
//!
//! The paper's `AbstractDP` makes composition a typeclass law; production
//! systems additionally need a *ledger* that tracks spending across a
//! session and converts the running total into the `(ε, δ)` guarantee a
//! policy is stated in. This module provides both:
//!
//! - [`Ledger`]: a labelled additive ledger for any [`AbstractDp`] notion
//!   (what AWS-style deployments meter against a budget);
//! - [`RdpAccountant`]: a Rényi accountant over a grid of orders — the
//!   "moments accountant" composition that motivates Rényi DP as an
//!   `AbstractDP` instance: summing `D_α` curves across releases and
//!   optimizing the order at conversion time gives strictly better `ε(δ)`
//!   than converting each release separately.
//!
//! # The exact carrier and the rounding-direction contract
//!
//! Both accountants meter in the [`Budget`] carrier [`Dyadic`]: **exact**
//! accounting on the power-of-two lattice with shift-only normalization —
//! the charge path performs *no gcd at all* (pinned by a
//! `gcd_call_count` test), unlike a `Rat`-backed meter which pays a
//! reduction per composition.
//!
//! `f64` parameters cross into the carrier under a conservative rounding
//! contract, fixed once here and relied on everywhere:
//!
//! - **charges round up** ([`Budget::charge_from_f64`]): a recorded cost
//!   is never less than the real one, so the exact meter never
//!   under-counts spending;
//! - **budgets round down** ([`Budget::budget_from_f64`]): the enforced
//!   allowance is never more than the stated one, so the exact meter never
//!   over-grants;
//! - the acceptance check is **strict**: there is no float rounding to
//!   forgive, so one lattice quantum over the budget is refused.
//!
//! Consequently a ledger is sound by construction: it admits a release
//! only if the rounded-up cost fits the rounded-down allowance exactly.
//!
//! ## Example: metering a session exactly
//!
//! ```
//! use sampcert_core::{Dyadic, Ledger, PureDp};
//!
//! // A budget of ε = 1, enforced exactly: charges are ε = 1/8 each, which
//! // is dyadic, so nothing is lost in conversion and the ninth release is
//! // refused with exact arithmetic (no tolerance, no drift).
//! let mut ledger: Ledger<PureDp> = Ledger::new(1.0);
//! for i in 0..8 {
//!     ledger.charge(format!("q{i}"), 0.125).unwrap();
//! }
//! assert_eq!(ledger.spent_exact(), &Dyadic::from(1u64));
//! assert_eq!(ledger.remaining_exact(), Dyadic::zero());
//! let err = ledger.charge("one-more", 0.125).unwrap_err();
//! // The rejection reports the *exact* requested/remaining quantities and
//! // names the carrier that refused.
//! assert_eq!(
//!     err.to_string(),
//!     "privacy budget exceeded: requested 0.125, remaining 0 [carrier: dyadic]"
//! );
//! ```

use crate::abstract_dp::AbstractDp;
use crate::budget::Budget;
use sampcert_arith::Dyadic;
use std::marker::PhantomData;

/// A labelled privacy ledger for notion `D`, metering exactly in carrier
/// `B` (see the module-level docs above).
///
/// # Examples
///
/// ```
/// use sampcert_core::{Ledger, PureDp};
///
/// let mut ledger: Ledger<PureDp> = Ledger::new(1.0); // ε budget
/// ledger.charge("histogram", 0.5).unwrap();
/// ledger.charge("count", 0.25).unwrap();
/// assert!(ledger.charge("another-histogram", 0.5).is_err()); // over budget
/// assert_eq!(ledger.spent(), 0.75);
/// ```
#[derive(Debug, Clone)]
pub struct Ledger<D: AbstractDp, B: Budget = Dyadic> {
    budget: B,
    entries: Vec<(String, B)>,
    /// Cached composed total of `entries`, maintained incrementally so
    /// that `charge`/`spent` are O(1) instead of re-folding the whole
    /// history (which made an n-release session O(n²)). Invariant: equals
    /// the left fold of `entries` under `B::compose::<D>` exactly.
    spent: B,
    _notion: PhantomData<D>,
}

/// Error returned when a charge would exceed the ledger's budget.
///
/// Reports the **exact** requested/remaining values (rendered as exact
/// finite decimals by [`Dyadic`]'s `Display`) instead of a lossy `f64`
/// cast.
///
/// The rendered message names the budget **carrier** and, for rejections
/// raised by a [`BudgetRegistry`](crate::BudgetRegistry), the
/// **principal** whose allowance refused:
///
/// ```text
/// privacy budget exceeded: requested 0.5, remaining 0.25 [carrier: dyadic]
/// privacy budget exceeded: requested 0.5, remaining 0 [carrier: dyadic, principal: 42]
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetExceeded<B = Dyadic> {
    /// The attempted charge.
    pub requested: B,
    /// Remaining budget at the time of the attempt.
    pub remaining: B,
    /// Name of the budget carrier the refusing accountant meters in
    /// ([`Budget::NAME`]).
    pub carrier: &'static str,
    /// The principal whose per-user allowance refused the charge, when the
    /// refusal came from a [`BudgetRegistry`](crate::BudgetRegistry);
    /// `None` for global (non-per-principal) accountants.
    pub principal: Option<u64>,
}

impl<B: Budget> BudgetExceeded<B> {
    /// A refusal stamped with `B`'s carrier name.
    pub fn new(requested: B, remaining: B) -> Self {
        BudgetExceeded {
            requested,
            remaining,
            carrier: B::NAME,
            principal: None,
        }
    }

    /// Returns this refusal attributed to a principal's per-user
    /// allowance.
    pub fn for_principal(mut self, principal: u64) -> Self {
        self.principal = Some(principal);
        self
    }
}

impl<B: std::fmt::Display> std::fmt::Display for BudgetExceeded<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "privacy budget exceeded: requested {}, remaining {} [carrier: {}",
            self.requested, self.remaining, self.carrier
        )?;
        if let Some(principal) = self.principal {
            write!(f, ", principal: {principal}")?;
        }
        write!(f, "]")
    }
}

impl<B: std::fmt::Display + std::fmt::Debug> std::error::Error for BudgetExceeded<B> {}

impl<D: AbstractDp, B: Budget> Ledger<D, B> {
    /// Creates a ledger with a total budget, converted into the carrier
    /// with **downward** rounding (the conservative direction for an
    /// allowance; exact whenever `budget` is representable).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is negative or not finite.
    pub fn new(budget: f64) -> Self {
        assert!(budget.is_finite() && budget >= 0.0, "invalid budget");
        Ledger::with_budget(B::budget_from_f64(budget))
    }

    /// Creates a ledger from a budget already in the carrier — the
    /// lossless entry point for exact budgets.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is not a valid budget quantity.
    pub fn with_budget(budget: B) -> Self {
        assert!(budget.is_valid(), "invalid budget");
        Ledger {
            budget,
            entries: Vec::new(),
            spent: B::zero(),
            _notion: PhantomData,
        }
    }

    /// Records a release costing `gamma`, refusing charges that would
    /// exceed the budget (the release should then not be executed).
    ///
    /// The charge crosses into the carrier with **upward** rounding
    /// (conservative for spending).
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] when over budget; the ledger is
    /// unchanged in that case.
    pub fn charge(
        &mut self,
        label: impl Into<String>,
        gamma: f64,
    ) -> Result<(), BudgetExceeded<B>> {
        assert!(gamma.is_finite() && gamma >= 0.0, "invalid charge");
        self.charge_exact(label, B::charge_from_f64(gamma))
    }

    /// Records a release whose cost is already in the carrier (no
    /// conversion, no rounding).
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] when over budget; the ledger is
    /// unchanged in that case.
    pub fn charge_exact(
        &mut self,
        label: impl Into<String>,
        gamma: B,
    ) -> Result<(), BudgetExceeded<B>> {
        assert!(gamma.is_valid(), "invalid charge");
        let new_spent = B::compose::<D>(&self.spent, &gamma);
        if B::exceeds(&new_spent, &self.budget) {
            return Err(BudgetExceeded::new(
                gamma,
                self.budget.saturating_sub(&self.spent),
            ));
        }
        self.entries.push((label.into(), gamma));
        self.spent = new_spent;
        Ok(())
    }

    /// Whether [`charge_exact`](Self::charge_exact) of `gamma` would be
    /// admitted right now — the same comparison, without recording
    /// anything (the session's admission probe).
    pub(crate) fn admits(&self, gamma: &B) -> bool {
        !B::exceeds(&B::compose::<D>(&self.spent, gamma), &self.budget)
    }

    /// Records a batch of `count` releases, each costing `gamma_each`,
    /// under one label — a batched [`Session`](crate::Session) serve calls
    /// it before any of the `count` answers is drawn. The batch is composed in
    /// O(1) via [`Budget::compose_n`] and recorded as a single entry
    /// holding the composed total, so charging a million-draw batch costs
    /// the same as charging one release. The vectorized total equals
    /// `count` sequential [`charge`](Self::charge) calls *exactly*.
    /// All-or-nothing: either the whole batch fits in the budget or the
    /// ledger is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] (with `requested` set to the composed
    /// batch total) when the batch would overrun the budget.
    pub fn charge_batch(
        &mut self,
        label: impl Into<String>,
        gamma_each: f64,
        count: u64,
    ) -> Result<(), BudgetExceeded<B>> {
        assert!(
            gamma_each.is_finite() && gamma_each >= 0.0,
            "invalid charge"
        );
        self.charge_batch_exact(label, B::charge_from_f64(gamma_each), count)
    }

    /// [`charge_batch`](Self::charge_batch) with the per-release cost
    /// already in the carrier.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] when the batch would overrun the budget.
    pub fn charge_batch_exact(
        &mut self,
        label: impl Into<String>,
        gamma_each: B,
        count: u64,
    ) -> Result<(), BudgetExceeded<B>> {
        assert!(gamma_each.is_valid(), "invalid charge");
        self.charge_exact(label, B::compose_n::<D>(&gamma_each, count))
    }

    /// Total spent so far (composed additively, per `AbstractDP`),
    /// approximated as `f64` for reporting.
    ///
    /// O(1): the composed total is maintained incrementally by
    /// [`charge`](Self::charge)/[`charge_batch`](Self::charge_batch).
    pub fn spent(&self) -> f64 {
        self.spent.to_f64()
    }

    /// Total spent so far, in the carrier (exact).
    pub fn spent_exact(&self) -> &B {
        &self.spent
    }

    /// Remaining budget, approximated as `f64` for reporting.
    pub fn remaining(&self) -> f64 {
        self.remaining_exact().to_f64()
    }

    /// Remaining budget in the carrier: `max(budget − spent, 0)`.
    pub fn remaining_exact(&self) -> B {
        self.budget.saturating_sub(&self.spent)
    }

    /// The recorded entries, in charge order.
    pub fn entries(&self) -> &[(String, B)] {
        &self.entries
    }

    /// The `(ε, δ)` guarantee implied by the current spending.
    pub fn approx_dp(&self, delta: f64) -> f64 {
        D::to_app_dp(self.spent(), delta)
    }
}

/// A Rényi accountant: tracks `ε(α) ≥ D_α` for a grid of orders and
/// converts to `(ε, δ)`-DP by optimizing the order.
///
/// The per-order totals accumulate exactly in the [`Budget`] carrier,
/// with each per-release increment rounded **up** on conversion so the
/// stored curve always dominates the real one.
///
/// # Examples
///
/// ```
/// use sampcert_core::RdpAccountant;
///
/// let mut acct = RdpAccountant::with_default_orders();
/// for _ in 0..32 {
///     acct.add_gaussian(8.0); // 32 releases, σ/Δ = 8
/// }
/// let (eps, _alpha) = acct.epsilon(1e-6);
/// // Converting each release separately and summing would exceed ε = 20;
/// // accounting in RDP and converting once lands under 4.
/// assert!(eps < 4.0, "eps = {eps}");
/// ```
#[derive(Debug, Clone)]
pub struct RdpAccountant<B: Budget = Dyadic> {
    orders: Vec<f64>,
    eps: Vec<B>,
}

impl RdpAccountant {
    /// An accountant over the given Rényi orders (all must exceed 1).
    ///
    /// # Panics
    ///
    /// Panics if `orders` is empty or contains an order ≤ 1.
    pub fn new(orders: Vec<f64>) -> Self {
        RdpAccountant::with_orders(orders)
    }

    /// The conventional order grid (1.25 … 512, log-spaced plus small
    /// integer orders).
    pub fn with_default_orders() -> Self {
        RdpAccountant::with_orders(RdpAccountant::default_order_grid())
    }

    /// The conventional order grid used by
    /// [`with_default_orders`](Self::with_default_orders) (orders are
    /// always `f64`).
    pub fn default_order_grid() -> Vec<f64> {
        let mut orders: Vec<f64> = vec![1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0];
        let mut a = 12.0;
        while a <= 512.0 {
            orders.push(a);
            a *= 1.5;
        }
        orders
    }
}

impl<B: Budget> RdpAccountant<B> {
    /// An accountant over the given Rényi orders (all must exceed 1).
    ///
    /// # Panics
    ///
    /// Panics if `orders` is empty or contains an order ≤ 1.
    pub fn with_orders(orders: Vec<f64>) -> Self {
        assert!(!orders.is_empty(), "no Renyi orders");
        assert!(
            orders.iter().all(|a| *a > 1.0),
            "Renyi orders must exceed 1"
        );
        let n = orders.len();
        RdpAccountant {
            orders,
            eps: std::iter::repeat_with(B::zero).take(n).collect(),
        }
    }

    /// Adds a release described by an arbitrary RDP curve `α ↦ ε(α)`,
    /// converting each per-order increment into the carrier in the
    /// **charge direction** (round up).
    pub fn add_curve(&mut self, curve: impl Fn(f64) -> f64) {
        for (e, a) in self.eps.iter_mut().zip(&self.orders) {
            *e = e.add(&B::charge_from_f64(curve(*a)));
        }
    }

    /// Adds a Gaussian release with noise-to-sensitivity ratio `σ/Δ`:
    /// `D_α ≤ α/(2(σ/Δ)²)`.
    ///
    /// # Panics
    ///
    /// Panics if the ratio is not strictly positive.
    pub fn add_gaussian(&mut self, sigma_over_sensitivity: f64) {
        assert!(sigma_over_sensitivity > 0.0, "invalid noise ratio");
        let s2 = sigma_over_sensitivity * sigma_over_sensitivity;
        self.add_curve(|a| a / (2.0 * s2));
    }

    /// Adds `count` i.i.d. Gaussian releases at ratio `σ/Δ` in one pass:
    /// per-order RDP is additive, so the batch charge is the per-release
    /// charge scaled by `count` — O(grid) total, where `count` repeated
    /// [`add_gaussian`](Self::add_gaussian) calls cost O(count·grid).
    /// Equal to the repeated calls exactly.
    ///
    /// # Panics
    ///
    /// Panics if the ratio is not strictly positive.
    pub fn add_gaussian_n(&mut self, sigma_over_sensitivity: f64, count: u64) {
        assert!(sigma_over_sensitivity > 0.0, "invalid noise ratio");
        let s2 = sigma_over_sensitivity * sigma_over_sensitivity;
        self.add_curve_n(|a| a / (2.0 * s2), count);
    }

    /// Adds a pure ε-DP release: `D_α ≤ min(ε, α·ε²/2)` (Bun–Steinke read
    /// at order α, capped by `D_∞`).
    pub fn add_pure(&mut self, eps: f64) {
        assert!(eps.is_finite() && eps >= 0.0, "invalid epsilon");
        self.add_curve(|a| eps.min(a * eps * eps / 2.0));
    }

    /// Adds `count` i.i.d. pure ε-DP releases in one O(grid) pass; the
    /// vectorized form of `count` [`add_pure`](Self::add_pure) calls
    /// (each release's per-order charge is the same, so the batch is a
    /// single scale, exactly).
    pub fn add_pure_n(&mut self, eps: f64, count: u64) {
        assert!(eps.is_finite() && eps >= 0.0, "invalid epsilon");
        self.add_curve_n(|a| eps.min(a * eps * eps / 2.0), count);
    }

    /// Vectorized [`add_curve`](Self::add_curve): adds `count` releases of
    /// the same curve by scaling each converted per-order charge.
    pub fn add_curve_n(&mut self, curve: impl Fn(f64) -> f64, count: u64) {
        for (e, a) in self.eps.iter_mut().zip(&self.orders) {
            *e = e.add(&B::charge_from_f64(curve(*a)).scale(count));
        }
    }

    /// The accumulated RDP curve as `(order, ε)` pairs (ε approximated as
    /// `f64` for reporting; see [`curve_exact`](Self::curve_exact)).
    pub fn curve(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.orders
            .iter()
            .copied()
            .zip(self.eps.iter().map(Budget::to_f64))
    }

    /// The accumulated RDP curve with the totals in the carrier.
    pub fn curve_exact(&self) -> impl Iterator<Item = (f64, &B)> + '_ {
        self.orders.iter().copied().zip(self.eps.iter())
    }

    /// Converts to `(ε, δ)`-DP, returning the `ε` and the optimizing
    /// order: `ε = min_α [ε(α) + ln(1/δ)/(α−1)]`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is outside `(0, 1)`.
    pub fn epsilon(&self, delta: f64) -> (f64, f64) {
        assert!(delta > 0.0 && delta < 1.0, "delta outside (0,1)");
        let l = (1.0 / delta).ln();
        self.curve()
            .map(|(a, e)| (e + l / (a - 1.0), a))
            .min_by(|x, y| x.0.total_cmp(&y.0))
            .expect("nonempty order grid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_dp::{PureDp, Zcdp};

    #[test]
    fn ledger_tracks_and_enforces() {
        let mut ledger: Ledger<Zcdp> = Ledger::new(0.5);
        ledger.charge("q1", 0.2).unwrap();
        ledger.charge("q2", 0.25).unwrap();
        let err = ledger.charge("q3", 0.1).unwrap_err();
        assert_eq!(err.remaining, ledger.remaining_exact());
        assert!((err.remaining.to_f64() - 0.05).abs() < 1e-12);
        assert_eq!(ledger.entries().len(), 2);
        assert!((ledger.remaining() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn ledger_approx_dp_matches_notion() {
        let mut ledger: Ledger<PureDp> = Ledger::new(2.0);
        ledger.charge("a", 1.5).unwrap();
        assert_eq!(ledger.approx_dp(1e-9), 1.5);
    }

    #[test]
    fn single_gaussian_matches_zcdp_conversion() {
        // One σ/Δ = 4 Gaussian: ρ = 1/32. The RDP conversion over a rich
        // grid is within a few percent of the zCDP closed form.
        let mut acct = RdpAccountant::with_default_orders();
        acct.add_gaussian(4.0);
        let delta = 1e-6;
        let (eps_rdp, _) = acct.epsilon(delta);
        let eps_zcdp = Zcdp::to_app_dp(1.0 / 32.0, delta);
        assert!(eps_rdp <= eps_zcdp * 1.05, "{eps_rdp} vs {eps_zcdp}");
        assert!(eps_rdp >= eps_zcdp * 0.8, "{eps_rdp} vs {eps_zcdp}");
    }

    #[test]
    fn composition_beats_naive_pure_accounting() {
        // 64 pure ε = 0.1 releases: naive additive ε = 6.4; RDP accounting
        // recovers advanced-composition-strength bounds (≈ 4.5 here,
        // advanced composition itself gives ≈ 4.9 at this δ).
        let mut acct = RdpAccountant::with_default_orders();
        for _ in 0..64 {
            acct.add_pure(0.1);
        }
        let (eps, _) = acct.epsilon(1e-6);
        assert!(eps < 5.0, "RDP accounting not helping: {eps}");
        assert!(eps > 0.8, "implausibly small: {eps}");
    }

    #[test]
    fn epsilon_decreases_with_looser_delta() {
        let mut acct = RdpAccountant::with_default_orders();
        acct.add_gaussian(2.0);
        let (tight, _) = acct.epsilon(1e-9);
        let (loose, _) = acct.epsilon(1e-3);
        assert!(loose < tight);
    }

    #[test]
    fn optimal_order_shrinks_as_budget_grows() {
        // More releases push the optimal α down (standard RDP behaviour).
        let mut a1 = RdpAccountant::with_default_orders();
        a1.add_gaussian(8.0);
        let (_, alpha_one) = a1.epsilon(1e-6);
        let mut a2 = RdpAccountant::with_default_orders();
        for _ in 0..256 {
            a2.add_gaussian(8.0);
        }
        let (_, alpha_many) = a2.epsilon(1e-6);
        assert!(alpha_many < alpha_one, "{alpha_many} !< {alpha_one}");
    }

    #[test]
    fn add_curve_matches_add_gaussian() {
        let mut a = RdpAccountant::with_default_orders();
        a.add_gaussian(3.0);
        let mut b = RdpAccountant::with_default_orders();
        b.add_curve(|alpha| alpha / (2.0 * 9.0));
        let (ea, _) = a.epsilon(1e-5);
        let (eb, _) = b.epsilon(1e-5);
        assert!((ea - eb).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "orders must exceed 1")]
    fn rejects_bad_orders() {
        let _ = RdpAccountant::new(vec![0.5]);
    }

    #[test]
    fn add_gaussian_n_equals_repeated_adds() {
        for count in [1u64, 7, 256, 10_000] {
            let mut batched = RdpAccountant::with_default_orders();
            batched.add_gaussian_n(7.5, count);
            let mut looped = RdpAccountant::with_default_orders();
            for _ in 0..count {
                looped.add_gaussian(7.5);
            }
            for ((a, eb), (_, el)) in batched.curve_exact().zip(looped.curve_exact()) {
                assert_eq!(eb, el, "count={count} alpha={a}");
            }
        }
    }

    #[test]
    fn add_pure_n_equals_repeated_adds() {
        for count in [1u64, 64, 4096] {
            let mut batched = RdpAccountant::with_default_orders();
            batched.add_pure_n(0.1, count);
            let mut looped = RdpAccountant::with_default_orders();
            for _ in 0..count {
                looped.add_pure(0.1);
            }
            for ((a, eb), (_, el)) in batched.curve_exact().zip(looped.curve_exact()) {
                assert_eq!(eb, el, "count={count} alpha={a}");
            }
        }
    }

    #[test]
    fn exact_accountant_batch_equals_repeated_adds_exactly() {
        for count in [1u64, 7, 1000] {
            let mut batched = RdpAccountant::new(vec![2.0, 8.0, 64.0]);
            batched.add_gaussian_n(7.5, count);
            let mut looped = RdpAccountant::new(vec![2.0, 8.0, 64.0]);
            for _ in 0..count {
                looped.add_gaussian(7.5);
            }
            for ((a, eb), (_, el)) in batched.curve_exact().zip(looped.curve_exact()) {
                assert_eq!(eb, el, "count={count} alpha={a}");
            }
        }
    }

    #[test]
    fn exact_accountant_curve_dominates_f64_curve() {
        // Per-release charges round up, so the exact totals dominate the
        // same curves summed in f64 (up to the float's own summation
        // error, which the 1-ulp-per-term slack absorbs).
        let mut exact = RdpAccountant::new(vec![2.0, 16.0]);
        for _ in 0..100 {
            exact.add_gaussian(3.0);
            exact.add_pure(0.1);
        }
        for (a, de) in exact.curve() {
            let fe = (0..100).fold(0.0f64, |acc, _| {
                acc + a / (2.0 * 9.0) + 0.1f64.min(a * 0.1 * 0.1 / 2.0)
            });
            assert!(de >= fe * (1.0 - 1e-12), "{de} vs {fe}");
        }
    }

    #[test]
    fn charge_batch_equals_repeated_charges() {
        let mut batched: Ledger<Zcdp> = Ledger::new(10.0);
        batched.charge_batch("batch", 0.001, 1000).unwrap();
        let mut looped: Ledger<Zcdp> = Ledger::new(10.0);
        for i in 0..1000 {
            looped.charge(format!("q{i}"), 0.001).unwrap();
        }
        assert_eq!(batched.spent_exact(), looped.spent_exact());
        assert_eq!(batched.entries().len(), 1);
        // A batch that would overrun is refused atomically.
        let before = batched.spent_exact().clone();
        let err = batched.charge_batch("too-much", 0.01, 1000).unwrap_err();
        assert_eq!(err.requested, Dyadic::from_f64_ceil(0.01).mul_u64(1000));
        assert_eq!(batched.spent_exact(), &before, "ledger mutated");
    }

    #[test]
    fn charge_batch_overflowing_total_is_refused_not_panicked() {
        let mut ledger: Ledger<PureDp> = Ledger::new(1.0);
        ledger.charge("a", 0.25).unwrap();
        // 1e308 × 10 is past any f64, but not past the exact carrier: the
        // batch comes back as BudgetExceeded with the exact requested
        // total, like the per-release path's over-budget refusal.
        let err = ledger.charge_batch("huge", 1e308, 10).unwrap_err();
        assert_eq!(err.requested, Dyadic::from_f64_ceil(1e308).mul_u64(10));
        assert_eq!(err.remaining, Dyadic::from_f64_floor(0.75));
        assert_eq!(ledger.spent_exact(), &Dyadic::from_f64_ceil(0.25));
        assert_eq!(ledger.entries().len(), 1, "ledger mutated");
    }

    #[test]
    fn charge_batch_zero_count_is_free() {
        let mut ledger: Ledger<PureDp> = Ledger::new(1.0);
        ledger.charge_batch("empty", 0.5, 0).unwrap();
        assert_eq!(ledger.spent(), 0.0);
        // A zero budget admits only zero charges.
        let mut dry: Ledger<PureDp> = Ledger::new(0.0);
        dry.charge("free", 0.0).unwrap();
        assert!(dry.charge("tiny", 1e-9).is_err());
    }

    /// `BudgetExceeded::remaining` must never report a negative budget:
    /// a ledger spent to the last lattice bit refuses with exactly zero
    /// remaining, which keeps the error message (and any retry logic
    /// keyed on it) sane.
    #[test]
    fn budget_exceeded_remaining_is_clamped_at_zero() {
        let mut ledger: Ledger<PureDp> = Ledger::new(1.0);
        ledger.charge("a", 1.0).unwrap();
        let err = ledger.charge("b", 0.5).unwrap_err();
        assert_eq!(err.remaining, Dyadic::zero());
        assert_eq!(ledger.remaining(), 0.0);
    }

    #[test]
    fn exact_ledger_has_no_acceptance_tolerance() {
        // A 1e-13 overshoot is refused: there is no float rounding to
        // forgive.
        let mut ledger: Ledger<PureDp> = Ledger::new(1.0);
        let err = ledger.charge("a", 1.0 + 1e-13).unwrap_err();
        assert_eq!(err.remaining, Dyadic::from(1u64));
        assert_eq!(ledger.entries().len(), 0);
        // An exactly-fitting charge is accepted to the last lattice bit.
        ledger.charge("b", 1.0).unwrap();
        assert_eq!(ledger.remaining_exact(), Dyadic::zero());
    }

    #[test]
    fn spent_is_consistent_across_many_charges() {
        let mut ledger: Ledger<PureDp> = Ledger::new(1e9);
        let mut reference = 0.0f64;
        for i in 0..500 {
            let g = 0.01 + (i % 7) as f64 * 0.003;
            ledger.charge(format!("q{i}"), g).unwrap();
            reference = PureDp::compose(reference, g);
            assert!(
                (ledger.spent() - reference).abs() < 1e-9,
                "drift at charge {i}: {} vs {reference}",
                ledger.spent()
            );
        }
        assert_eq!(ledger.entries().len(), 500);
        // The cached total must equal re-folding the recorded entries
        // exactly.
        let refold = ledger
            .entries()
            .iter()
            .fold(Dyadic::zero(), |acc, (_, g)| &acc + g);
        assert_eq!(ledger.spent_exact(), &refold);
    }

    /// Pins the rejection message shape: operators triage refusals from
    /// logs, so the message must name the carrier that refused and — for
    /// registry refusals — the principal whose allowance ran dry.
    #[test]
    fn budget_exceeded_message_names_carrier_and_principal() {
        let mut ledger: Ledger<PureDp> = Ledger::new(1.0);
        ledger.charge("warmup", 0.75).unwrap();
        let err = ledger.charge("big", 0.5).unwrap_err();
        assert_eq!(
            err.to_string(),
            "privacy budget exceeded: requested 0.5, remaining 0.25 [carrier: dyadic]"
        );

        let mut fresh: Ledger<PureDp> = Ledger::new(1.0);
        let err = fresh.charge("big", 1.5).unwrap_err();
        assert_eq!(
            err.to_string(),
            "privacy budget exceeded: requested 1.5, remaining 1 [carrier: dyadic]"
        );

        // Principal attribution renders inside the same bracket.
        let err = BudgetExceeded::new(Dyadic::from_f64_ceil(0.5), Dyadic::zero()).for_principal(42);
        assert_eq!(
            err.to_string(),
            "privacy budget exceeded: requested 0.5, remaining 0 [carrier: dyadic, principal: 42]"
        );
        assert_eq!(err.principal, Some(42));
    }

    #[test]
    fn compose_n_matches_fold_for_all_notions() {
        fn check<D: AbstractDp>() {
            for n in [0u64, 1, 3, 1000] {
                let folded = (0..n).fold(0.0, |acc, _| D::compose(acc, 0.125));
                let vec = D::compose_n(0.125, n);
                assert!((folded - vec).abs() <= 1e-12 * folded.max(1.0), "{n}");
            }
        }
        check::<PureDp>();
        check::<Zcdp>();
        check::<crate::abstract_dp::RenyiDp<4>>();
    }
}
