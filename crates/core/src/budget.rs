//! The budget value space of the accounting layer: exact [`Dyadic`],
//! behind one trait.
//!
//! [`Ledger`](crate::Ledger) and [`RdpAccountant`](crate::RdpAccountant)
//! meter privacy spending in one numeric carrier. The paper's whole point
//! is that guarantees are *exact*, so the carrier is too, and it must not
//! reintroduce the gcd-per-reduction cost of [`Rat`]. [`Dyadic`] meters
//! on the power-of-two lattice: addition, scaling and comparison are
//! shift-and-add only — **no gcd on the charge path** (pinned by a counter
//! test) — and the acceptance check is strict, since there is no rounding
//! to forgive. [`Budget`] names the carrier's operations so the
//! accountants are written once against them.
//!
//! # The conservative rounding contract
//!
//! Privacy parameters arrive as `f64` (from `noise_priv`, RDP curves,
//! user-facing APIs). The trait fixes the rounding **direction** at the
//! boundary so quantization can only make accounting *more* conservative,
//! never less:
//!
//! - [`Budget::charge_from_f64`] rounds **up** (a recorded charge is ≥ the
//!   real cost);
//! - [`Budget::budget_from_f64`] rounds **down** (the enforced allowance
//!   is ≤ the stated one).
//!
//! Under this contract every refusal is sound: a charge is admitted only
//! if the rounded-up cost fits the rounded-down allowance exactly.
//!
//! [`Rat`]: sampcert_arith::Rat

use crate::abstract_dp::AbstractDp;
use sampcert_arith::Dyadic;
use std::fmt;

/// A numeric carrier for privacy budgets and charges.
///
/// Implementations must form an ordered additive monoid under
/// [`compose`](Self::compose) with [`zero`](Self::zero) as identity, and
/// honour the conservative rounding contract described in the
/// module-level docs above.
pub trait Budget:
    Clone + PartialEq + PartialOrd + fmt::Debug + fmt::Display + Send + Sync + 'static
{
    /// Human-readable carrier name (for diagnostics).
    const NAME: &'static str;

    /// The zero budget (nothing spent).
    fn zero() -> Self;

    /// Plain addition — the accumulation of per-order RDP totals, where
    /// additivity is the defining law rather than an `AbstractDp` axiom.
    fn add(&self, other: &Self) -> Self;

    /// Plain `n`-fold scaling — the vectorized form of folding
    /// [`add`](Self::add) `n` times from zero, exactly.
    fn scale(&self, n: u64) -> Self;

    /// Folds one more charge into a running total under notion `D`.
    ///
    /// Adds exactly, which coincides with [`AbstractDp::compose`] because
    /// composition is additive for every `AbstractDp` instance (the
    /// trait's stated axiom).
    fn compose<D: AbstractDp>(total: &Self, charge: &Self) -> Self;

    /// `n`-fold composition of one charge — the vectorized batch total.
    ///
    /// Must equal folding [`compose`](Self::compose) `n` times from zero,
    /// exactly.
    fn compose_n<D: AbstractDp>(charge: &Self, n: u64) -> Self;

    /// Converts an `f64` charge, rounding **up** (conservative for
    /// spending).
    fn charge_from_f64(gamma: f64) -> Self;

    /// Converts an `f64` budget, rounding **down** (conservative for
    /// allowances).
    fn budget_from_f64(budget: f64) -> Self;

    /// Approximates as `f64` (for `(ε, δ)` conversion and reporting).
    fn to_f64(&self) -> f64;

    /// `max(self − other, 0)`: the remaining-budget subtraction.
    fn saturating_sub(&self, other: &Self) -> Self;

    /// Whether `total` overruns `budget`, compared strictly.
    fn exceeds(total: &Self, budget: &Self) -> bool;

    /// Whether the value is a usable budget quantity (non-negative): the
    /// check on caller inputs and on values decoded from the journal.
    fn is_valid(&self) -> bool;

    /// Lossless wire encoding for the charge journal.
    ///
    /// The encoding must be **canonical**: equal values produce equal
    /// bytes, and [`from_bytes`](Self::from_bytes) of the output returns
    /// exactly the input: for [`Dyadic`] it is the normalized
    /// sign/exponent/mantissa form. Replay therefore reconstructs spend
    /// bit-for-bit — no re-rounding on recovery.
    fn to_bytes(&self) -> Vec<u8>;

    /// Decodes a value previously produced by [`to_bytes`](Self::to_bytes).
    ///
    /// Returns `None` for malformed or non-canonical input (wrong length,
    /// padded mantissa, …) — a journal record that fails to decode is
    /// treated by recovery according to the torn-tail rule, never silently
    /// skipped mid-log.
    fn from_bytes(bytes: &[u8]) -> Option<Self>;
}

impl Budget for Dyadic {
    const NAME: &'static str = "dyadic";

    fn zero() -> Self {
        Dyadic::zero()
    }

    fn add(&self, other: &Self) -> Self {
        self + other
    }

    fn scale(&self, n: u64) -> Self {
        self.mul_u64(n)
    }

    fn compose<D: AbstractDp>(total: &Self, charge: &Self) -> Self {
        // Additive composition is an `AbstractDp` axiom; here it is exact.
        // The probe catches a notion that overrides `compose` with
        // non-additive arithmetic, which this carrier cannot follow.
        debug_assert_eq!(
            D::compose(0.25, 0.5),
            0.75,
            "{} overrides compose non-additively; the exact carrier only \
             supports additive composition",
            D::NAME
        );
        total + charge
    }

    fn compose_n<D: AbstractDp>(charge: &Self, n: u64) -> Self {
        debug_assert_eq!(
            D::compose_n(0.25, 3),
            0.75,
            "{} overrides compose_n non-additively; the exact carrier only \
             supports additive composition",
            D::NAME
        );
        charge.mul_u64(n)
    }

    fn charge_from_f64(gamma: f64) -> Self {
        Dyadic::from_f64_ceil(gamma)
    }

    fn budget_from_f64(budget: f64) -> Self {
        Dyadic::from_f64_floor(budget)
    }

    fn to_f64(&self) -> f64 {
        Dyadic::to_f64(self)
    }

    fn saturating_sub(&self, other: &Self) -> Self {
        Dyadic::saturating_sub(self, other)
    }

    fn exceeds(total: &Self, budget: &Self) -> bool {
        total > budget
    }

    fn is_valid(&self) -> bool {
        !self.is_negative()
    }

    fn to_bytes(&self) -> Vec<u8> {
        Dyadic::to_bytes(self)
    }

    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Dyadic::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_dp::PureDp;

    #[test]
    fn dyadic_carrier_is_exact_and_strict() {
        let g = Dyadic::charge_from_f64(0.1);
        // 0.1 rounds up: the converted charge dominates the f64 value.
        assert!(g.to_f64() >= 0.1);
        let ten = <Dyadic as Budget>::compose_n::<PureDp>(&g, 10);
        let mut folded = <Dyadic as Budget>::zero();
        for _ in 0..10 {
            folded = <Dyadic as Budget>::compose::<PureDp>(&folded, &g);
        }
        assert_eq!(ten, folded, "vectorized ≠ folded");
        // Strict acceptance: one lattice quantum over is over.
        let budget = Dyadic::budget_from_f64(1.0);
        assert!(!<Dyadic as Budget>::exceeds(&budget, &budget));
        let eps = Dyadic::new(sampcert_arith::Int::one(), Dyadic::MIN_EXP);
        assert!(<Dyadic as Budget>::exceeds(&(&budget + &eps), &budget));
    }

    #[test]
    fn wire_encodings_roundtrip_exactly() {
        for x in [0.0f64, 0.1, 2.75, 1e-9] {
            let d = Dyadic::charge_from_f64(x);
            let back = <Dyadic as Budget>::from_bytes(&Budget::to_bytes(&d));
            assert_eq!(back, Some(d));
        }
        assert_eq!(<Dyadic as Budget>::from_bytes(&[2u8; 12]), None);
    }

    #[test]
    fn rounding_directions_bracket() {
        for x in [0.1, 1.0 / 3.0, 0.5, 1e-9, 2.75] {
            let up = Dyadic::charge_from_f64(x);
            let down = Dyadic::budget_from_f64(x);
            assert!(down.to_f64() <= x && x <= up.to_f64(), "{x}");
        }
    }
}
