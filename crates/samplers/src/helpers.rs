//! Small shared helpers for the sampler programs.

use sampcert_arith::Nat;

/// The sample `±magnitude` as an `i64`, saturating: a value below
/// `i64::MIN` becomes `i64::MIN` and one above `i64::MAX` becomes
/// `i64::MAX`. Every sampler tier converts its draws through this, so the
/// tiers agree on every draw, including the astronomically rare ones
/// (large noise scales) that do not fit.
pub(crate) fn signed_to_i64(negative: bool, magnitude: u128) -> i64 {
    match i64::try_from(magnitude) {
        Ok(m) if negative => -m,
        Ok(m) => m,
        // −2⁶³ is representable: it, and everything below it, is MIN.
        Err(_) if negative => i64::MIN,
        Err(_) => i64::MAX,
    }
}

/// [`signed_to_i64`] for a natural magnitude.
pub(crate) fn nat_to_i64(negative: bool, v: &Nat) -> i64 {
    signed_to_i64(negative, v.to_u128().unwrap_or(u128::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nat_conversion() {
        assert_eq!(nat_to_i64(false, &Nat::from(7u64)), 7);
        assert_eq!(nat_to_i64(true, &Nat::from(7u64)), -7);
    }

    #[test]
    fn nat_conversion_overflow_saturates() {
        let max = i64::MAX as u64;
        assert_eq!(nat_to_i64(false, &Nat::from(max)), i64::MAX);
        assert_eq!(nat_to_i64(true, &Nat::from(max)), -i64::MAX);
        assert_eq!(nat_to_i64(false, &Nat::from(max + 1)), i64::MAX);
        assert_eq!(nat_to_i64(true, &Nat::from(max + 1)), i64::MIN);
        assert_eq!(nat_to_i64(false, &Nat::from(u64::MAX)), i64::MAX);
        assert_eq!(nat_to_i64(true, &Nat::from(u64::MAX)), i64::MIN);
        let huge = &Nat::from(u64::MAX) * &Nat::from(u64::MAX);
        assert_eq!(nat_to_i64(false, &(&huge * &huge)), i64::MAX);
        assert_eq!(nat_to_i64(true, &(&huge * &huge)), i64::MIN);
    }
}
