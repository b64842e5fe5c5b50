//! The compiled middle tier: parameter-keyed bytecode cache.
//!
//! [`DiscreteSampler`](crate::DiscreteSampler) and the uniform batch
//! dispatch across three executions of the *same* sampler (all
//! byte-stream-equal):
//!
//! 1. the hand-fused `u128` loops ([`FusedLaplace`](crate::FusedLaplace) /
//!    [`FusedGaussian`](crate::FusedGaussian)) for word-sized parameters,
//! 2. the extracted bytecode run on `sampcert_extract`'s stack VM — this
//!    module — for everything the fused path declines, and
//! 3. the monadic `SLang` tree-walker, kept as the semantic reference and
//!    as the fallback when the VM reports an arithmetic fault.
//!
//! Lowering a sampler family member to bytecode costs a program-tree walk
//! plus a compile, so it is done **once per parameter box**: the cache
//! below keys compiled programs by their exact parameters (with
//! [`LaplaceAlg::Switched`] resolved *before* keying, so `Switched` and the
//! loop it resolves to share one entry) and hands out `Arc<Bytecode>`
//! clones. A serving process that draws noise at a fixed handful of scales
//! compiles each scale exactly once, no matter how many batches it runs.

use crate::helpers::signed_to_i64;
use crate::laplace::{resolve_alg, LaplaceAlg};
use sampcert_arith::Nat;
use sampcert_extract::{
    compile, gaussian_program_nat, laplace_program_nat, uniform_below_program_nat, Bytecode,
    LoopKind, Value,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key: one compiled program per exact parameter box.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    UniformBelow(Nat),
    Laplace(Nat, Nat, LoopKind),
    Gaussian(Nat, Nat, LoopKind),
}

fn cache() -> &'static Mutex<HashMap<Key, Arc<Bytecode>>> {
    static CACHE: OnceLock<Mutex<HashMap<Key, Arc<Bytecode>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn get_or_compile(key: Key, build: impl FnOnce() -> Bytecode) -> Arc<Bytecode> {
    let mut map = cache().lock().expect("compiled-program cache poisoned");
    Arc::clone(map.entry(key).or_insert_with(|| Arc::new(build())))
}

/// A resolved algorithm as the extract crate's loop selector.
fn kind_of(alg: LaplaceAlg) -> LoopKind {
    match alg {
        LaplaceAlg::Geometric => LoopKind::Geometric,
        LaplaceAlg::Uniform => LoopKind::Uniform,
        LaplaceAlg::Switched => unreachable!("resolved before keying"),
    }
}

/// Bytecode for `uniform_below(bound)`, compiled once per bound.
pub(crate) fn uniform_below_bytecode(bound: &Nat) -> Arc<Bytecode> {
    get_or_compile(Key::UniformBelow(bound.clone()), || {
        compile(&uniform_below_program_nat(bound))
    })
}

/// Bytecode for `discrete_laplace(num/den)`, compiled once per
/// (scale, resolved loop).
pub(crate) fn laplace_bytecode(num: &Nat, den: &Nat, alg: LaplaceAlg) -> Arc<Bytecode> {
    let kind = kind_of(resolve_alg(num, den, alg));
    get_or_compile(Key::Laplace(num.clone(), den.clone(), kind), || {
        compile(&laplace_program_nat(num, den, kind))
    })
}

/// Bytecode for `discrete_gaussian(σ = num/den)`, compiled once per
/// (σ, resolved loop).
pub(crate) fn gaussian_bytecode(num: &Nat, den: &Nat, alg: LaplaceAlg) -> Arc<Bytecode> {
    // The monadic Gaussian drives its Laplace candidates at scale (t, 1)
    // with t = ⌊num/den⌋ + 1, so Switched resolves on that scale — not on
    // σ itself.
    let t = &(num / den) + &Nat::one();
    let kind = kind_of(resolve_alg(&t, &Nat::one(), alg));
    get_or_compile(Key::Gaussian(num.clone(), den.clone(), kind), || {
        compile(&gaussian_program_nat(num, den, kind))
    })
}

/// A VM result as the nonnegative draw it encodes.
pub(crate) fn value_to_nat(v: &Value) -> Nat {
    v.to_nat().expect("uniform draw below a nonnegative bound")
}

/// A VM result as a signed sample, saturating exactly like the monadic
/// path's `nat_to_i64` (so the tiers agree on every draw).
pub(crate) fn value_to_i64(v: &Value) -> i64 {
    match v {
        Value::Small(w) => signed_to_i64(*w < 0, w.unsigned_abs()),
        Value::Big(w) => signed_to_i64(w.is_negative(), u128::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat(v: u64) -> Nat {
        Nat::from(v)
    }

    fn big(seed: u64) -> Nat {
        &(&Nat::from(u64::MAX) * &nat(seed)) + &nat(seed | 1)
    }

    /// The amortization contract: the same parameter box yields the same
    /// compiled program (pointer-equal Arc), a different box recompiles.
    #[test]
    fn cache_hits_on_same_box_and_misses_on_different() {
        let b1 = uniform_below_bytecode(&big(11));
        let b2 = uniform_below_bytecode(&big(11));
        assert!(Arc::ptr_eq(&b1, &b2), "same bound must not recompile");
        let other = uniform_below_bytecode(&big(12));
        assert!(!Arc::ptr_eq(&b1, &other), "distinct bound must recompile");

        let l1 = laplace_bytecode(&big(5), &nat(3), LaplaceAlg::Geometric);
        let l2 = laplace_bytecode(&big(5), &nat(3), LaplaceAlg::Geometric);
        assert!(Arc::ptr_eq(&l1, &l2));
        let l3 = laplace_bytecode(&big(5), &nat(4), LaplaceAlg::Geometric);
        assert!(!Arc::ptr_eq(&l1, &l3));

        let g1 = gaussian_bytecode(&big(7), &nat(2), LaplaceAlg::Geometric);
        let g2 = gaussian_bytecode(&big(7), &nat(2), LaplaceAlg::Geometric);
        assert!(Arc::ptr_eq(&g1, &g2));
    }

    /// `Switched` is resolved before keying: it shares the cache entry of
    /// the loop it resolves to instead of compiling a duplicate.
    #[test]
    fn switched_shares_the_resolved_entry() {
        // scale = big(21)/1 ≥ 8, so Switched resolves to Uniform.
        let s = laplace_bytecode(&big(21), &Nat::one(), LaplaceAlg::Switched);
        let u = laplace_bytecode(&big(21), &Nat::one(), LaplaceAlg::Uniform);
        assert!(Arc::ptr_eq(&s, &u), "Switched must alias its resolution");
        let g = laplace_bytecode(&big(21), &Nat::one(), LaplaceAlg::Geometric);
        assert!(!Arc::ptr_eq(&s, &g));
    }

    #[test]
    fn value_conversions_round_trip() {
        assert_eq!(value_to_nat(&Value::Small(9)), nat(9));
        assert_eq!(value_to_i64(&Value::Small(-4)), -4);
        assert_eq!(value_to_i64(&Value::Small(i64::MAX as i128)), i64::MAX);
    }

    #[test]
    fn value_conversion_overflow_saturates_like_the_monadic_path() {
        let over = i64::MAX as i128 + 1;
        assert_eq!(value_to_i64(&Value::Small(over)), i64::MAX);
        assert_eq!(value_to_i64(&Value::Small(-over)), i64::MIN);
        assert_eq!(value_to_i64(&Value::Small(-over - 1)), i64::MIN);
        assert_eq!(value_to_i64(&Value::Small(i128::MIN)), i64::MIN);
        let big = Value::from_nat(&(&Nat::from(u128::MAX) * &nat(3)));
        assert_eq!(value_to_i64(&big), i64::MAX);
        let neg_big = Value::from_int(-&big.to_int());
        assert_eq!(value_to_i64(&neg_big), i64::MIN);
    }
}
