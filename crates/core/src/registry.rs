//! Per-principal budget accounting: one allowance per user, sharded for
//! concurrency.
//!
//! Every accountant below this module meters **one** global budget — the
//! right shape for a single pipeline, the wrong one for a service facing
//! millions of users, where each principal (user, tenant, API key) owns an
//! individual privacy allowance and a crash or a hot neighbour must not
//! let anyone overspend theirs. [`BudgetRegistry`] is the per-principal
//! layer: a sharded concurrent map from principal id to spent budget,
//! enforcing the same no-overspend machinery as the global ledgers —
//! charges round **up** crossing the carrier boundary
//! ([`Budget::charge_from_f64`]), budgets round **down**
//! ([`Budget::budget_from_f64`]), acceptance is strict, and refused
//! charges leave the ledger untouched.
//!
//! # Sharding
//!
//! Principals are hashed across `shards` independent mutexes (Fibonacci
//! multiplicative hashing), so concurrent charges to *different*
//! principals contend only when they collide on a shard. One
//! principal's allowance lives behind one lock, so its charges are
//! serialized and exact.
//!
//! # Recovery hooks
//!
//! The journal layer ([`crate::journal`]) replays recovered charges
//! through [`apply_unchecked`](BudgetRegistry::apply_unchecked), which
//! records spend **without** the admission check: recovery must never
//! silently shrink what was actually spent, even when a replayed (or
//! conservatively over-reported) total exceeds the stated allowance. A
//! principal whose recovered spend exceeds its budget simply has zero
//! remaining and refuses all further charges — degrade-to-reject.
//!
//! # Example
//!
//! ```
//! use sampcert_core::{BudgetRegistry, PureDp};
//!
//! // Every principal owns ε = 1, metered over 8 lock shards.
//! let reg: BudgetRegistry<PureDp> = BudgetRegistry::new(1.0, 8);
//! reg.charge(7, 0.75).unwrap();
//! reg.charge(9, 0.5).unwrap(); // independent allowance
//! let err = reg.charge(7, 0.5).unwrap_err();
//! assert_eq!(err.principal, Some(7));
//! assert_eq!(reg.remaining(7), 0.25);
//! ```

use crate::abstract_dp::AbstractDp;
use crate::accountant::BudgetExceeded;
use crate::budget::Budget;
use sampcert_arith::Dyadic;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

/// A sharded concurrent map of per-principal privacy ledgers.
///
/// Cheap to clone and share across threads (the shard table is behind an
/// `Arc`); see the module-level docs above for the enforcement contract.
pub struct BudgetRegistry<D: AbstractDp, B: Budget = Dyadic> {
    shards: Arc<Vec<Mutex<HashMap<u64, B>>>>,
    per_principal: B,
    _notion: PhantomData<D>,
}

impl<D: AbstractDp, B: Budget> Clone for BudgetRegistry<D, B> {
    fn clone(&self) -> Self {
        BudgetRegistry {
            shards: Arc::clone(&self.shards),
            per_principal: self.per_principal.clone(),
            _notion: PhantomData,
        }
    }
}

impl<D: AbstractDp, B: Budget> std::fmt::Debug for BudgetRegistry<D, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BudgetRegistry")
            .field("per_principal", &self.per_principal)
            .field("shards", &self.shards.len())
            .field("principals", &self.principals())
            .finish()
    }
}

impl<D: AbstractDp, B: Budget> BudgetRegistry<D, B> {
    /// Creates a registry granting every principal the same budget,
    /// converted into the carrier with **downward** rounding (conservative
    /// for an allowance, as everywhere in the tree).
    ///
    /// # Panics
    ///
    /// Panics if `per_principal` is negative or not finite, or `shards`
    /// is zero.
    pub fn new(per_principal: f64, shards: usize) -> Self {
        assert!(
            per_principal.is_finite() && per_principal >= 0.0,
            "invalid budget"
        );
        Self::with_budget(B::budget_from_f64(per_principal), shards)
    }

    /// Creates a registry from a per-principal budget already in the
    /// carrier — the lossless entry point for exact budgets.
    ///
    /// # Panics
    ///
    /// Panics if `per_principal` is not a valid budget quantity or
    /// `shards` is zero.
    pub fn with_budget(per_principal: B, shards: usize) -> Self {
        assert!(per_principal.is_valid(), "invalid budget");
        assert!(shards > 0, "BudgetRegistry: need at least one shard");
        BudgetRegistry {
            shards: Arc::new((0..shards).map(|_| Mutex::new(HashMap::new())).collect()),
            per_principal,
            _notion: PhantomData,
        }
    }

    /// The budget every principal is granted, in the carrier.
    pub fn per_principal_budget(&self) -> &B {
        &self.per_principal
    }

    /// Number of lock shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of principals with recorded spend (including zero-spend
    /// entries created by accepted zero charges).
    pub fn principals(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("registry shard poisoned").len())
            .sum()
    }

    /// Fibonacci multiplicative hashing: principal ids are often dense
    /// (sequential user ids), which a plain modulus maps to striped
    /// shards; the golden-ratio multiply decorrelates them first.
    fn shard_of(&self, principal: u64) -> &Mutex<HashMap<u64, B>> {
        let mixed = principal.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed % self.shards.len() as u64) as usize]
    }

    /// Records a release by `principal` costing `gamma`, converted into
    /// the carrier with **upward** rounding.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] — naming the principal — when the charge
    /// would exceed that principal's allowance; their ledger is unchanged.
    pub fn charge(&self, principal: u64, gamma: f64) -> Result<(), BudgetExceeded<B>> {
        assert!(gamma.is_finite() && gamma >= 0.0, "invalid charge");
        self.charge_exact(principal, B::charge_from_f64(gamma))
    }

    /// Records a batch of `count` releases by `principal`, each costing
    /// `gamma_each`, composed in O(1) via [`Budget::compose_n`];
    /// all-or-nothing.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] when the batch does not fit.
    pub fn charge_batch(
        &self,
        principal: u64,
        gamma_each: f64,
        count: u64,
    ) -> Result<(), BudgetExceeded<B>> {
        assert!(
            gamma_each.is_finite() && gamma_each >= 0.0,
            "invalid charge"
        );
        self.charge_exact(
            principal,
            B::compose_n::<D>(&B::charge_from_f64(gamma_each), count),
        )
    }

    /// Records a release whose cost is already in the carrier (no
    /// conversion, no rounding). Check and apply happen atomically under
    /// the principal's shard lock.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] when the charge does not fit.
    pub fn charge_exact(&self, principal: u64, gamma: B) -> Result<(), BudgetExceeded<B>> {
        assert!(gamma.is_valid(), "invalid charge");
        let mut shard = self
            .shard_of(principal)
            .lock()
            .expect("registry shard poisoned");
        let spent = shard.entry(principal).or_insert_with(B::zero);
        let new_spent = B::compose::<D>(spent, &gamma);
        if B::exceeds(&new_spent, &self.per_principal) {
            let remaining = self.per_principal.saturating_sub(spent);
            return Err(BudgetExceeded::new(gamma, remaining).for_principal(principal));
        }
        *spent = new_spent;
        Ok(())
    }

    /// The admission check of [`charge_exact`](Self::charge_exact),
    /// without applying — the write-ahead half of a durable charge (the
    /// journal appends between check and
    /// [`apply_unchecked`](Self::apply_unchecked); the caller is
    /// responsible for keeping concurrent checks from jointly
    /// overshooting, which [`DurableRegistry`](crate::DurableRegistry)
    /// does by counting reservations with
    /// [`check_exact_reserved`](Self::check_exact_reserved)).
    ///
    /// # Errors
    ///
    /// Returns the same refusal [`charge_exact`](Self::charge_exact)
    /// would.
    pub fn check_exact(&self, principal: u64, gamma: &B) -> Result<(), BudgetExceeded<B>> {
        assert!(gamma.is_valid(), "invalid charge");
        let shard = self
            .shard_of(principal)
            .lock()
            .expect("registry shard poisoned");
        let zero = B::zero();
        let spent = shard.get(&principal).unwrap_or(&zero);
        let new_spent = B::compose::<D>(spent, gamma);
        if B::exceeds(&new_spent, &self.per_principal) {
            let remaining = self.per_principal.saturating_sub(spent);
            return Err(BudgetExceeded::new(gamma.clone(), remaining).for_principal(principal));
        }
        Ok(())
    }

    /// [`check_exact`](Self::check_exact) against committed spend
    /// **plus** `reserved` — spend admitted but not yet applied. The
    /// group-commit journal checks admission at enqueue time but applies
    /// only after the batch fsync; counting the in-flight reservations
    /// here keeps two concurrent chargers from both passing against
    /// committed spend and jointly overshooting the allowance. The
    /// refusal's `remaining` treats reservations as already spent.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] when committed ⊕ reserved ⊕ gamma
    /// exceeds the allowance.
    pub fn check_exact_reserved(
        &self,
        principal: u64,
        reserved: &B,
        gamma: &B,
    ) -> Result<(), BudgetExceeded<B>> {
        assert!(gamma.is_valid(), "invalid charge");
        assert!(reserved.is_valid(), "invalid reservation");
        let shard = self
            .shard_of(principal)
            .lock()
            .expect("registry shard poisoned");
        let zero = B::zero();
        let spent = shard.get(&principal).unwrap_or(&zero);
        let committed = B::compose::<D>(spent, reserved);
        let new_spent = B::compose::<D>(&committed, gamma);
        if B::exceeds(&new_spent, &self.per_principal) {
            let remaining = self.per_principal.saturating_sub(&committed);
            return Err(BudgetExceeded::new(gamma.clone(), remaining).for_principal(principal));
        }
        Ok(())
    }

    /// Records spend **without** the admission check — the replay
    /// primitive. Recovery must reconstruct what was actually (or
    /// conservatively assumed to be) spent even past the stated allowance;
    /// an over-budget principal then has zero remaining and every further
    /// [`charge`](Self::charge) is refused.
    pub fn apply_unchecked(&self, principal: u64, gamma: &B) {
        assert!(gamma.is_valid(), "invalid charge");
        let mut shard = self
            .shard_of(principal)
            .lock()
            .expect("registry shard poisoned");
        let spent = shard.entry(principal).or_insert_with(B::zero);
        *spent = B::compose::<D>(spent, gamma);
    }

    /// Total spent by `principal`, in the carrier (zero if never seen).
    pub fn spent_exact(&self, principal: u64) -> B {
        self.shard_of(principal)
            .lock()
            .expect("registry shard poisoned")
            .get(&principal)
            .cloned()
            .unwrap_or_else(B::zero)
    }

    /// Total spent by `principal`, as `f64` for reporting.
    pub fn spent(&self, principal: u64) -> f64 {
        self.spent_exact(principal).to_f64()
    }

    /// Remaining allowance of `principal`: `max(budget − spent, 0)`.
    pub fn remaining_exact(&self, principal: u64) -> B {
        self.per_principal
            .saturating_sub(&self.spent_exact(principal))
    }

    /// Remaining allowance of `principal`, as `f64` for reporting.
    pub fn remaining(&self, principal: u64) -> f64 {
        self.remaining_exact(principal).to_f64()
    }

    /// Sum of all principals' spend (composed additively), exact. Takes
    /// each shard lock once.
    pub fn total_spent_exact(&self) -> B {
        let mut total = B::zero();
        for shard in self.shards.iter() {
            for spent in shard.lock().expect("registry shard poisoned").values() {
                total = total.add(spent);
            }
        }
        total
    }

    /// A consistent-per-shard snapshot of `(principal, spent)` pairs,
    /// sorted by principal id — the checkpoint payload. Each shard is
    /// locked once; concurrent charges may land between shards, so the
    /// snapshot is a *lower bound* on spend at return time (never an
    /// overstatement of remaining budget when restored, because restoring
    /// replays the journal suffix on top).
    pub fn snapshot(&self) -> Vec<(u64, B)> {
        let mut entries: Vec<(u64, B)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("registry shard poisoned")
                    .iter()
                    .map(|(p, b)| (*p, b.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_by_key(|(p, _)| *p);
        entries
    }
}

/// A read-only view of a [`BudgetRegistry`].
///
/// [`DurableRegistry::registry`](crate::DurableRegistry::registry) hands
/// out this view instead of the registry itself: the registry's mutators
/// (`charge*`, `apply_unchecked`) take `&self`, so exposing it would let
/// callers record spend behind the write-ahead journal's back — spend
/// that vanishes on recovery. The view exposes every report and nothing
/// that mutates.
#[derive(Clone, Copy)]
pub struct RegistryView<'a, D: AbstractDp, B: Budget> {
    inner: &'a BudgetRegistry<D, B>,
}

impl<D: AbstractDp, B: Budget> std::fmt::Debug for RegistryView<'_, D, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RegistryView").field(self.inner).finish()
    }
}

impl<'a, D: AbstractDp, B: Budget> RegistryView<'a, D, B> {
    pub(crate) fn new(inner: &'a BudgetRegistry<D, B>) -> Self {
        RegistryView { inner }
    }

    /// The budget every principal is granted, in the carrier.
    pub fn per_principal_budget(&self) -> &'a B {
        self.inner.per_principal_budget()
    }

    /// Number of lock shards.
    pub fn shards(&self) -> usize {
        self.inner.shards()
    }

    /// Number of principals with recorded spend.
    pub fn principals(&self) -> usize {
        self.inner.principals()
    }

    /// Total spent by `principal`, in the carrier (zero if never seen).
    pub fn spent_exact(&self, principal: u64) -> B {
        self.inner.spent_exact(principal)
    }

    /// Total spent by `principal`, as `f64` for reporting.
    pub fn spent(&self, principal: u64) -> f64 {
        self.inner.spent(principal)
    }

    /// Remaining allowance of `principal`: `max(budget − spent, 0)`.
    pub fn remaining_exact(&self, principal: u64) -> B {
        self.inner.remaining_exact(principal)
    }

    /// Remaining allowance of `principal`, as `f64` for reporting.
    pub fn remaining(&self, principal: u64) -> f64 {
        self.inner.remaining(principal)
    }

    /// Sum of all principals' spend, exact.
    pub fn total_spent_exact(&self) -> B {
        self.inner.total_spent_exact()
    }

    /// A consistent-per-shard snapshot of `(principal, spent)` pairs,
    /// sorted by principal id.
    pub fn snapshot(&self) -> Vec<(u64, B)> {
        self.inner.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_dp::PureDp;

    #[test]
    fn registries_are_send_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BudgetRegistry<PureDp>>();
        let reg: BudgetRegistry<PureDp> = BudgetRegistry::new(1.0, 4);
        reg.charge(1, 0.5).unwrap();
        let view = reg;
        assert_eq!(view.spent(1), 0.5, "clone shares state");
    }

    #[test]
    fn principals_are_metered_independently() {
        let reg: BudgetRegistry<PureDp> = BudgetRegistry::new(1.0, 4);
        for p in 0..100u64 {
            reg.charge(p, 0.75).unwrap();
        }
        // Every principal has 0.25 left; none can take 0.5.
        for p in 0..100u64 {
            let err = reg.charge(p, 0.5).unwrap_err();
            assert_eq!(err.principal, Some(p));
            assert_eq!(err.remaining, Dyadic::from_f64_ceil(0.25));
            reg.charge(p, 0.25).unwrap();
        }
        assert_eq!(reg.principals(), 100);
        assert_eq!(reg.total_spent_exact(), Dyadic::from(100u64));
    }

    #[test]
    fn refusal_leaves_ledger_unchanged_and_names_principal() {
        let reg: BudgetRegistry<PureDp> = BudgetRegistry::new(1.0, 2);
        reg.charge(42, 0.75).unwrap();
        let err = reg.charge(42, 0.5).unwrap_err();
        assert_eq!(err.principal, Some(42));
        assert!(err.to_string().contains("[carrier: dyadic, principal: 42]"));
        assert_eq!(reg.spent_exact(42), Dyadic::from_f64_ceil(0.75));
    }

    #[test]
    fn charge_batch_is_atomic_per_principal() {
        let reg: BudgetRegistry<PureDp> = BudgetRegistry::new(1.0, 2);
        reg.charge_batch(5, 0.125, 4).unwrap();
        assert_eq!(reg.spent_exact(5), Dyadic::from_f64_ceil(0.5));
        let err = reg.charge_batch(5, 0.125, 8).unwrap_err();
        assert_eq!(err.principal, Some(5));
        assert_eq!(reg.spent_exact(5), Dyadic::from_f64_ceil(0.5));
        // A batch total far past any budget is refused with the exact
        // requested amount, not panicked: the carrier cannot overflow.
        let err = reg.charge_batch(6, 1e308, 10).unwrap_err();
        assert_eq!(err.requested, Dyadic::from_f64_ceil(1e308).mul_u64(10));
        assert_eq!(reg.spent_exact(6), Dyadic::zero());
    }

    #[test]
    fn check_then_apply_equals_charge() {
        let reg: BudgetRegistry<PureDp> = BudgetRegistry::new(1.0, 2);
        let g = Dyadic::from_f64_ceil(0.25);
        for _ in 0..4 {
            reg.check_exact(9, &g).unwrap();
            reg.apply_unchecked(9, &g);
        }
        assert!(reg.check_exact(9, &g).is_err());
        let reference: BudgetRegistry<PureDp> = BudgetRegistry::new(1.0, 2);
        for _ in 0..4 {
            reference.charge_exact(9, g.clone()).unwrap();
        }
        assert_eq!(reg.spent_exact(9), reference.spent_exact(9));
    }

    #[test]
    fn apply_unchecked_may_exceed_and_then_refuses() {
        let reg: BudgetRegistry<PureDp> = BudgetRegistry::new(1.0, 2);
        // Replayed spend past the allowance is recorded faithfully…
        reg.apply_unchecked(3, &Dyadic::from(2u64));
        assert_eq!(reg.spent_exact(3), Dyadic::from(2u64));
        // …and the principal is then refused everything — even a zero
        // charge, since their composed total already exceeds the budget.
        assert_eq!(reg.remaining_exact(3), Dyadic::zero());
        assert!(reg.charge(3, 1e-9).is_err());
        assert!(reg.charge(3, 0.0).is_err());
    }

    #[test]
    fn snapshot_is_sorted_and_exact() {
        let reg: BudgetRegistry<PureDp> = BudgetRegistry::new(10.0, 4);
        for p in [9u64, 2, 7, 4] {
            reg.charge(p, 0.5 + p as f64 * 0.125).unwrap();
        }
        let snap = reg.snapshot();
        let ids: Vec<u64> = snap.iter().map(|(p, _)| *p).collect();
        assert_eq!(ids, vec![2, 4, 7, 9]);
        for (p, spent) in snap {
            assert_eq!(spent, reg.spent_exact(p));
        }
    }

    #[test]
    fn concurrent_charges_never_overspend_any_principal() {
        // 8 threads hammer 16 principals; each principal's final spend
        // must respect their budget exactly (dyadic carrier).
        let reg: BudgetRegistry<PureDp> = BudgetRegistry::new(1.0, 4);
        std::thread::scope(|s| {
            for t in 0..8 {
                let reg = reg.clone();
                s.spawn(move || {
                    for i in 0..200u64 {
                        let p = (t * 31 + i * 7) % 16;
                        let _ = reg.charge(p, 0.03125);
                    }
                });
            }
        });
        for p in 0..16u64 {
            assert!(
                reg.spent_exact(p) <= Dyadic::from(1u64),
                "principal {p} overspent: {}",
                reg.spent(p)
            );
        }
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        let _: BudgetRegistry<PureDp> = BudgetRegistry::new(1.0, 0);
    }
}
