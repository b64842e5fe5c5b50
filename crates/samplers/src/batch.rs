//! Batched noise constructors: build the sampler once, draw many times.
//!
//! The paper's headline evaluation (Fig. 4) is about *throughput*: verified
//! samplers fast enough to serve production noise. The `*_many`
//! constructors here amortize everything amortizable across a batch of
//! `n` i.i.d. draws:
//!
//! - **sampler construction and tier dispatch** happen once per batch:
//!   the Laplace and Gaussian batches draw through one
//!   [`DiscreteSampler`], the prebuilt sampler every noise mechanism
//!   uses, and the uniform batch picks its tier by the same rules (see
//!   [`dispatch`](crate::dispatch));
//! - **output allocation** is reused: every function has a `*_into`
//!   variant appending to a caller-retained buffer.
//!
//! Batching is invisible to the distribution *and* to the entropy stream:
//! each `*_many` consumes exactly the bytes that `n` sequential
//! single-draw `run`s would, and produces exactly the same values — pinned
//! by the equality tests below.

use crate::compiled::{self, value_to_nat};
use crate::direct::uniform_below_u128;
use crate::dispatch::{compiled_draws_into, DiscreteSampler, COMPILED_BITS_LIMIT};
use crate::laplace::LaplaceAlg;
use crate::uniform::uniform_below;
use sampcert_arith::Nat;
use sampcert_extract::Vm;
use sampcert_slang::{ByteSource, Sampling};

/// Draws `n` i.i.d. discrete Gaussian samples `N_ℤ(0, (num/den)²)`,
/// appending them to `out`.
///
/// One [`DiscreteSampler::gaussian`] serves the whole batch; see the
/// module-level docs above for the amortization and byte-stream
/// contract.
///
/// # Panics
///
/// Panics if `num` or `den` is zero.
pub fn discrete_gaussian_many_into(
    num: &Nat,
    den: &Nat,
    alg: LaplaceAlg,
    n: usize,
    src: &mut dyn ByteSource,
    out: &mut Vec<i64>,
) {
    DiscreteSampler::gaussian(num, den, alg).sample_into(n, src, out);
}

/// Draws `n` i.i.d. discrete Gaussian samples `N_ℤ(0, (num/den)²)`.
///
/// # Panics
///
/// Panics if `num` or `den` is zero.
///
/// # Examples
///
/// ```
/// use sampcert_samplers::{discrete_gaussian_many, LaplaceAlg};
/// use sampcert_arith::Nat;
/// use sampcert_slang::SeededByteSource;
///
/// let mut src = SeededByteSource::new(0);
/// let noise = discrete_gaussian_many(
///     &Nat::from(64u64),
///     &Nat::one(),
///     LaplaceAlg::Switched,
///     1024,
///     &mut src,
/// );
/// assert_eq!(noise.len(), 1024);
/// ```
pub fn discrete_gaussian_many(
    num: &Nat,
    den: &Nat,
    alg: LaplaceAlg,
    n: usize,
    src: &mut dyn ByteSource,
) -> Vec<i64> {
    let mut out = Vec::new();
    discrete_gaussian_many_into(num, den, alg, n, src, &mut out);
    out
}

/// Draws `n` i.i.d. discrete Laplace samples with scale `num/den`,
/// appending them to `out`.
///
/// # Panics
///
/// Panics if `num` or `den` is zero.
pub fn discrete_laplace_many_into(
    num: &Nat,
    den: &Nat,
    alg: LaplaceAlg,
    n: usize,
    src: &mut dyn ByteSource,
    out: &mut Vec<i64>,
) {
    DiscreteSampler::laplace(num, den, alg).sample_into(n, src, out);
}

/// Draws `n` i.i.d. discrete Laplace samples with scale `num/den`.
///
/// # Panics
///
/// Panics if `num` or `den` is zero.
///
/// # Examples
///
/// ```
/// use sampcert_samplers::{discrete_laplace_many, LaplaceAlg};
/// use sampcert_arith::Nat;
/// use sampcert_slang::SeededByteSource;
///
/// // Scale 5/2, one program built for the whole batch.
/// let mut src = SeededByteSource::new(1);
/// let noise = discrete_laplace_many(
///     &Nat::from(5u64),
///     &Nat::from(2u64),
///     LaplaceAlg::Switched,
///     256,
///     &mut src,
/// );
/// assert_eq!(noise.len(), 256);
/// ```
pub fn discrete_laplace_many(
    num: &Nat,
    den: &Nat,
    alg: LaplaceAlg,
    n: usize,
    src: &mut dyn ByteSource,
) -> Vec<i64> {
    let mut out = Vec::new();
    discrete_laplace_many_into(num, den, alg, n, src, &mut out);
    out
}

/// Draws `n` i.i.d. exact uniform samples on `[0, bound)`, appending them
/// to `out`.
///
/// # Panics
///
/// Panics if `bound` is zero.
pub fn uniform_below_many_into(
    bound: &Nat,
    n: usize,
    src: &mut dyn ByteSource,
    out: &mut Vec<Nat>,
) {
    assert!(!bound.is_zero(), "uniform_below: empty range");
    out.reserve(n);
    match bound.to_u64() {
        Some(b) => {
            for _ in 0..n {
                out.push(Nat::from(uniform_below_u128(b as u128, src) as u64));
            }
        }
        None if bound.bit_length() <= COMPILED_BITS_LIMIT => {
            let vm = Vm::shared(compiled::uniform_below_bytecode(bound));
            compiled_draws_into(&vm, n, src, out, value_to_nat, |rest, src, out| {
                uniform_below::<Sampling>(bound).run_into(rest, src, out);
            });
        }
        None => uniform_below::<Sampling>(bound).run_into(n, src, out),
    }
}

/// Draws `n` i.i.d. exact uniform samples on `[0, bound)`.
///
/// # Panics
///
/// Panics if `bound` is zero.
///
/// # Examples
///
/// ```
/// use sampcert_samplers::uniform_below_many;
/// use sampcert_arith::Nat;
/// use sampcert_slang::SeededByteSource;
///
/// let mut src = SeededByteSource::new(9);
/// let draws = uniform_below_many(&Nat::from(1000u64), 64, &mut src);
/// assert!(draws.iter().all(|v| v < &Nat::from(1000u64)));
/// ```
pub fn uniform_below_many(bound: &Nat, n: usize, src: &mut dyn ByteSource) -> Vec<Nat> {
    let mut out = Vec::new();
    uniform_below_many_into(bound, n, src, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::discrete_gaussian;
    use crate::laplace::discrete_laplace;
    use sampcert_slang::{CountingByteSource, SeededByteSource};

    fn nat(v: u64) -> Nat {
        Nat::from(v)
    }

    fn multilimb(seed: u64) -> Nat {
        // Deterministic > 64-bit operand.
        &(&Nat::from(u64::MAX) * &Nat::from(seed)) + &Nat::from(seed ^ 0xABCD)
    }

    fn limbs(k: u32, seed: u64) -> Nat {
        // Deterministic k-limb operand: top bit of limb k set, seed folded
        // into the low limb (odd, so it never collapses to a power of two).
        &(Nat::one() << (64 * k - 1)) + &Nat::from(seed * 2 + 1)
    }

    /// The batch contract, checked per API: `*_many` must equal `n`
    /// sequential runs of the single-draw program — same values, same
    /// bytes — on both the fused and the fallback parameter regimes.
    #[test]
    fn gaussian_many_equals_sequential_runs_bytewise() {
        for (num, den, alg, n) in [
            (nat(4), nat(1), LaplaceAlg::Switched, 300usize),
            (nat(64), nat(1), LaplaceAlg::Switched, 200),
            (nat(7), nat(2), LaplaceAlg::Geometric, 200),
            (nat(25), nat(3), LaplaceAlg::Uniform, 200),
            // num ≥ 2^26: exercises the general-program fallback.
            (nat(1 << 33), nat(1), LaplaceAlg::Switched, 4),
            // σ = 2^32 − 1 is admitted by FusedGaussian::new, but its
            // u128 acceptance bound 2·num²·t²·den² overflows on the very
            // first sample; the dispatch guard must route it to the
            // general program, which handles it.
            (nat((1 << 32) - 1), nat(1), LaplaceAlg::Switched, 3),
            // Large denominator past the fused box (σ = 3): fallback.
            (nat(3 << 26), nat(1 << 26), LaplaceAlg::Switched, 50),
            // Multi-limb parameters through the compiled tier (σ = 1/4
            // keeps t = 1 and magnitudes tiny; widths ramp to 128 limbs).
            (limbs(8, 9), &limbs(8, 9) * &nat(4), LaplaceAlg::Switched, 6),
            (
                limbs(32, 11),
                &limbs(32, 11) * &nat(4),
                LaplaceAlg::Switched,
                3,
            ),
            (
                limbs(128, 13),
                &limbs(128, 13) * &nat(4),
                LaplaceAlg::Switched,
                2,
            ),
            // σ = 2⁶² on the compiled tier: some Laplace candidates exceed
            // i64, and the general program judges them by their exact
            // magnitude too, saturating only the accepted output.
            (nat(1 << 62), nat(1), LaplaceAlg::Switched, 64),
        ] {
            let prog = discrete_gaussian::<Sampling>(&num, &den, alg);
            let mut seq_src = CountingByteSource::new(SeededByteSource::new(42));
            let seq: Vec<i64> = (0..n).map(|_| prog.run(&mut seq_src)).collect();
            let mut batch_src = CountingByteSource::new(SeededByteSource::new(42));
            let batch = discrete_gaussian_many(&num, &den, alg, n, &mut batch_src);
            assert_eq!(batch, seq, "values ({num:?}/{den:?}, {alg:?})");
            assert_eq!(
                batch_src.bytes_read(),
                seq_src.bytes_read(),
                "bytes ({num:?}/{den:?}, {alg:?})"
            );
        }
    }

    #[test]
    fn laplace_many_equals_sequential_runs_bytewise() {
        for (num, den, alg, n) in [
            (nat(1), nat(1), LaplaceAlg::Geometric, 400usize),
            (nat(5), nat(2), LaplaceAlg::Switched, 300),
            (nat(40), nat(3), LaplaceAlg::Uniform, 300),
            // Large single-limb scale: pins the fused uniform loop's u128
            // arithmetic against the general program where the existing
            // direct.rs equality tests stop at scale 40/3.
            (nat(1_000_000), nat(1), LaplaceAlg::Switched, 100),
            // Multi-limb parameters (scale 1/2, so magnitudes stay small):
            // exercises the compiled-bytecode tier.
            (
                multilimb(3),
                &multilimb(3) * &nat(2),
                LaplaceAlg::Switched,
                50,
            ),
            // The compiled tier across the limb ladder (scale 1/2 keeps
            // magnitudes word-sized; draw counts shrink with the width).
            (
                limbs(8, 3),
                &limbs(8, 3) * &nat(2),
                LaplaceAlg::Switched,
                12,
            ),
            (
                limbs(32, 5),
                &limbs(32, 5) * &nat(2),
                LaplaceAlg::Switched,
                6,
            ),
            (
                limbs(128, 7),
                &limbs(128, 7) * &nat(2),
                LaplaceAlg::Switched,
                3,
            ),
            // Scales whose draws overflow i64 (about e⁻² of them at 2⁶²,
            // nearly all at 2⁷⁰): the fused and compiled tiers saturate
            // exactly as the general program does.
            (nat(1 << 62), nat(1), LaplaceAlg::Switched, 64),
            (
                &nat(1 << 35) * &nat(1 << 35),
                nat(1),
                LaplaceAlg::Switched,
                8,
            ),
        ] {
            let prog = discrete_laplace::<Sampling>(&num, &den, alg);
            let mut seq_src = CountingByteSource::new(SeededByteSource::new(7));
            let seq: Vec<i64> = (0..n).map(|_| prog.run(&mut seq_src)).collect();
            let mut batch_src = CountingByteSource::new(SeededByteSource::new(7));
            let batch = discrete_laplace_many(&num, &den, alg, n, &mut batch_src);
            assert_eq!(batch, seq, "values ({num:?}/{den:?}, {alg:?})");
            if num.bit_length() >= den.bit_length() + 62 {
                assert!(
                    seq.iter().any(|&v| v == i64::MIN || v == i64::MAX),
                    "no draw saturated ({num:?}/{den:?})"
                );
            }
            assert_eq!(
                batch_src.bytes_read(),
                seq_src.bytes_read(),
                "bytes ({num:?}/{den:?}, {alg:?})"
            );
        }
    }

    #[test]
    fn uniform_many_equals_sequential_runs_bytewise() {
        for (bound, n) in [
            (nat(5), 500usize),
            (nat(256), 300),
            (nat(1_000_003), 300),
            (multilimb(9), 20),
            // The compiled tier across the limb ladder.
            (limbs(8, 1), 16),
            (limbs(32, 1), 8),
            (limbs(128, 1), 4),
        ] {
            let prog = uniform_below::<Sampling>(&bound);
            let mut seq_src = CountingByteSource::new(SeededByteSource::new(13));
            let seq: Vec<Nat> = (0..n).map(|_| prog.run(&mut seq_src)).collect();
            let mut batch_src = CountingByteSource::new(SeededByteSource::new(13));
            let batch = uniform_below_many(&bound, n, &mut batch_src);
            assert_eq!(batch, seq, "values (bound {bound:?})");
            assert_eq!(
                batch_src.bytes_read(),
                seq_src.bytes_read(),
                "bytes (bound {bound:?})"
            );
        }
    }

    #[test]
    fn into_variants_append_and_reuse_buffer() {
        let mut src = SeededByteSource::new(1);
        let mut out = Vec::new();
        discrete_gaussian_many_into(
            &nat(4),
            &nat(1),
            LaplaceAlg::Switched,
            10,
            &mut src,
            &mut out,
        );
        assert_eq!(out.len(), 10);
        let cap = out.capacity();
        out.clear();
        discrete_gaussian_many_into(
            &nat(4),
            &nat(1),
            LaplaceAlg::Switched,
            10,
            &mut src,
            &mut out,
        );
        assert_eq!(out.len(), 10);
        assert_eq!(out.capacity(), cap, "buffer reallocated on reuse");
    }

    #[test]
    fn batch_moments_sane() {
        let mut src = SeededByteSource::new(99);
        let draws =
            discrete_gaussian_many(&nat(5), &nat(1), LaplaceAlg::Switched, 30_000, &mut src);
        let n = draws.len() as f64;
        let mean = draws.iter().map(|&z| z as f64).sum::<f64>() / n;
        let var = draws
            .iter()
            .map(|&z| (z as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.15, "mean={mean}");
        assert!((var - 25.0).abs() / 25.0 < 0.05, "var={var}");
    }

    #[test]
    #[should_panic(expected = "zero sigma parameter")]
    fn gaussian_many_rejects_zero_sigma() {
        let mut src = SeededByteSource::new(0);
        let _ = discrete_gaussian_many(&Nat::zero(), &nat(1), LaplaceAlg::Switched, 1, &mut src);
    }

    #[test]
    #[should_panic(expected = "zero scale parameter")]
    fn laplace_many_rejects_zero_scale() {
        let mut src = SeededByteSource::new(0);
        let _ = discrete_laplace_many(&nat(1), &Nat::zero(), LaplaceAlg::Switched, 1, &mut src);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn uniform_many_rejects_zero_bound() {
        let mut src = SeededByteSource::new(0);
        let _ = uniform_below_many(&Nat::zero(), 1, &mut src);
    }
}
