//! Hand-fused samplers: the "compiled" execution path.
//!
//! The paper deploys its samplers by extracting Lean terms to C++ (57 lines
//! of trusted FFI) and to Python via Dafny; Fig. 5 compares the compiled
//! C++ path against the interpreted/extracted ones. This module is the Rust
//! analogue of that compiled path: the *same algorithms* as
//! [`discrete_laplace`](crate::discrete_laplace) and
//! [`discrete_gaussian`](crate::discrete_gaussian), but with the monadic
//! structure fused away into plain loops over machine integers (`u128`
//! intermediates), consuming the identical byte stream.
//!
//! The test suite checks that, byte-for-byte, the fused samplers traverse
//! the same randomness and emit the same values as the `SLang` programs —
//! the executable counterpart of "extraction preserves semantics".
//!
//! Parameters are restricted to `u64` numerators/denominators (σ and scale
//! up to ≈ 4·10⁹ with den = 1); the `SLang` samplers remain the fully
//! general path.

use crate::helpers::signed_to_i64;
use crate::laplace::{LaplaceAlg, SWITCH_SCALE};
use sampcert_slang::ByteSource;

/// Uniform draw on `[0, 2^bits)` from whole bytes, matching
/// [`uniform_pow2`](crate::uniform_pow2) byte-for-byte.
fn uniform_pow2_u128(bits: u32, src: &mut dyn ByteSource) -> u128 {
    debug_assert!(bits <= 128);
    if bits == 0 {
        return 0;
    }
    let n_bytes = bits.div_ceil(8);
    let mut v: u128 = 0;
    for _ in 0..n_bytes {
        v = (v << 8) | src.next_byte() as u128;
    }
    // `1u128 << 128` is shift overflow (panic in debug, wrap to a zero mask
    // in release — every draw would come out 0), so the full-width case
    // keeps all bits explicitly. Reachable: `uniform_below_u128(n)` needs
    // 128-bit draws whenever n > 2^127.
    let mask = if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    };
    v & mask
}

/// Uniform draw on `[0, n)` by bit-length rejection, matching
/// [`uniform_below`](crate::uniform_below).
pub(crate) fn uniform_below_u128(n: u128, src: &mut dyn ByteSource) -> u128 {
    debug_assert!(n > 0);
    let bits = 128 - n.leading_zeros();
    loop {
        let v = uniform_pow2_u128(bits, src);
        if v < n {
            return v;
        }
    }
}

/// Bernoulli(num/den), exact.
fn bernoulli_u128(num: u128, den: u128, src: &mut dyn ByteSource) -> bool {
    uniform_below_u128(den, src) < num
}

/// Bernoulli(e^{−num/den}) for num ≤ den (γ ∈ [0,1]), von Neumann series.
fn bernoulli_exp_neg_unit_u128(num: u128, den: u128, src: &mut dyn ByteSource) -> bool {
    let mut k: u128 = 1;
    loop {
        let den_k = den
            .checked_mul(k)
            .expect("fused sampler parameter overflow");
        if !bernoulli_u128(num.min(den_k), den_k, src) {
            // First failure at trial k: success iff k is odd.
            return k % 2 == 1;
        }
        k += 1;
    }
}

/// Bernoulli(e^{−num/den}) for arbitrary γ ≥ 0.
fn bernoulli_exp_neg_u128(num: u128, den: u128, src: &mut dyn ByteSource) -> bool {
    debug_assert!(den > 0);
    if num <= den {
        return bernoulli_exp_neg_unit_u128(num, den, src);
    }
    let gamf = num / den;
    for _ in 0..gamf {
        if !bernoulli_exp_neg_unit_u128(1, 1, src) {
            return false;
        }
    }
    bernoulli_exp_neg_unit_u128(num % den, den, src)
}

/// Number of i.i.d. trials up to and including the first failure.
fn geometric_exp_neg_u128(num: u128, den: u128, src: &mut dyn ByteSource) -> u64 {
    let mut n = 0u64;
    loop {
        n += 1;
        if !bernoulli_exp_neg_u128(num, den, src) {
            return n;
        }
    }
}

/// A fused discrete Laplace sampler with precomputed parameters.
///
/// Distribution-identical (and byte-stream-identical) to
/// [`discrete_laplace`](crate::discrete_laplace); see the
/// module-level docs above.
///
/// # Examples
///
/// ```
/// use sampcert_samplers::{FusedLaplace, LaplaceAlg};
/// use sampcert_slang::SeededByteSource;
///
/// let lap = FusedLaplace::new(5, 2, LaplaceAlg::Switched);
/// let mut src = SeededByteSource::new(0);
/// let _z: i64 = lap.sample(&mut src);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FusedLaplace {
    num: u64,
    den: u64,
    alg: LaplaceAlg,
}

impl FusedLaplace {
    /// Creates a sampler with scale `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `num` or `den` is zero.
    pub fn new(num: u64, den: u64, alg: LaplaceAlg) -> Self {
        assert!(num > 0 && den > 0, "FusedLaplace: zero scale parameter");
        let alg = match alg {
            LaplaceAlg::Switched => {
                if num as u128 >= SWITCH_SCALE as u128 * den as u128 {
                    LaplaceAlg::Uniform
                } else {
                    LaplaceAlg::Geometric
                }
            }
            other => other,
        };
        FusedLaplace { num, den, alg }
    }

    /// The resolved sampling loop in use.
    pub fn algorithm(&self) -> LaplaceAlg {
        self.alg
    }

    /// One iteration of the sampling loop: `(sign, magnitude)`.
    fn sample_loop(&self, src: &mut dyn ByteSource) -> (bool, u128) {
        match self.alg {
            LaplaceAlg::Geometric => {
                let v = geometric_exp_neg_u128(self.den as u128, self.num as u128, src);
                let b = bernoulli_u128(1, 2, src);
                (b, (v - 1) as u128)
            }
            LaplaceAlg::Uniform => {
                let num = self.num as u128;
                // U ~ Uniform[0, num) accepted with prob e^{-U/num}.
                let u = loop {
                    let u = uniform_below_u128(num, src);
                    if bernoulli_exp_neg_unit_u128(u, num, src) {
                        break u;
                    }
                };
                let v = geometric_exp_neg_u128(1, 1, src) - 1;
                let x = u + num * v as u128;
                let y = x / self.den as u128;
                let b = bernoulli_u128(1, 2, src);
                (b, y)
            }
            LaplaceAlg::Switched => unreachable!("resolved in new"),
        }
    }

    /// Draws one sample from `Lap(num/den)`.
    pub fn sample(&self, src: &mut dyn ByteSource) -> i64 {
        loop {
            let (b, m) = self.sample_loop(src);
            if b && m == 0 {
                continue; // reject (+, 0): it double-counts zero
            }
            return signed_to_i64(b, m);
        }
    }
}

/// A fused discrete Gaussian sampler with precomputed parameters.
///
/// Distribution-identical (and byte-stream-identical) to
/// [`discrete_gaussian`](crate::discrete_gaussian); the "Compiled
/// (Optimized)" series of the paper's Fig. 5.
///
/// # Examples
///
/// ```
/// use sampcert_samplers::{FusedGaussian, LaplaceAlg};
/// use sampcert_slang::SeededByteSource;
///
/// let gauss = FusedGaussian::new(10, 1, LaplaceAlg::Switched); // σ = 10
/// let mut src = SeededByteSource::new(0);
/// let _z: i64 = gauss.sample(&mut src);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FusedGaussian {
    num_sq: u128,
    den_sq: u128,
    t: u64,
    lap: FusedLaplace,
}

impl FusedGaussian {
    /// Creates a sampler for `N_ℤ(0, (num/den)²)`.
    ///
    /// # Panics
    ///
    /// Panics if `num` or `den` is zero, or if `num` exceeds `2³²` (use the
    /// `SLang` sampler for extreme scales).
    pub fn new(num: u64, den: u64, alg: LaplaceAlg) -> Self {
        assert!(num > 0 && den > 0, "FusedGaussian: zero sigma parameter");
        assert!(
            num < (1 << 32),
            "FusedGaussian: sigma too large for the fused path"
        );
        let t = num / den + 1;
        FusedGaussian {
            num_sq: (num as u128) * (num as u128),
            den_sq: (den as u128) * (den as u128),
            t,
            lap: FusedLaplace::new(t, 1, alg),
        }
    }

    /// Draws one sample from `N_ℤ(0, σ²)`.
    pub fn sample(&self, src: &mut dyn ByteSource) -> i64 {
        loop {
            let y = self.lap.sample(src);
            let abs_y = y.unsigned_abs() as u128;
            let lhs = abs_y * self.t as u128 * self.den_sq;
            let diff = lhs.abs_diff(self.num_sq);
            let sq = diff
                .checked_mul(diff)
                .expect("fused sampler parameter overflow");
            let bound = 2u128
                .checked_mul(self.num_sq)
                .and_then(|v| v.checked_mul((self.t as u128) * (self.t as u128)))
                .and_then(|v| v.checked_mul(self.den_sq))
                .expect("fused sampler parameter overflow");
            if bernoulli_exp_neg_u128(sq, bound, src) {
                return y;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{discrete_gaussian, discrete_laplace};
    use sampcert_arith::Nat;
    use sampcert_slang::{Sampling, SeededByteSource};

    /// The decisive test: fused and monadic samplers consume the *same*
    /// byte stream and must produce the *same* outputs.
    #[test]
    fn laplace_fused_equals_monadic_bytewise() {
        for (num, den, alg) in [
            (1u64, 1u64, LaplaceAlg::Geometric),
            (5, 2, LaplaceAlg::Geometric),
            (5, 2, LaplaceAlg::Uniform),
            (40, 3, LaplaceAlg::Uniform),
            (40, 3, LaplaceAlg::Switched),
        ] {
            let fused = FusedLaplace::new(num, den, alg);
            let monadic = discrete_laplace::<Sampling>(&Nat::from(num), &Nat::from(den), alg);
            let mut s1 = SeededByteSource::new(123);
            let mut s2 = SeededByteSource::new(123);
            for i in 0..2000 {
                let a = fused.sample(&mut s1);
                let b = monadic.run(&mut s2);
                assert_eq!(a, b, "divergence at draw {i} ({num}/{den}, {alg:?})");
            }
        }
    }

    #[test]
    fn gaussian_fused_equals_monadic_bytewise() {
        for (num, den, alg) in [
            (1u64, 1u64, LaplaceAlg::Geometric),
            (7, 2, LaplaceAlg::Switched),
            (25, 1, LaplaceAlg::Uniform),
            (50, 1, LaplaceAlg::Switched),
        ] {
            let fused = FusedGaussian::new(num, den, alg);
            let monadic = discrete_gaussian::<Sampling>(&Nat::from(num), &Nat::from(den), alg);
            let mut s1 = SeededByteSource::new(321);
            let mut s2 = SeededByteSource::new(321);
            for i in 0..500 {
                let a = fused.sample(&mut s1);
                let b = monadic.run(&mut s2);
                assert_eq!(a, b, "divergence at draw {i} (σ={num}/{den}, {alg:?})");
            }
        }
    }

    /// Regression: `uniform_below_u128(n)` with `n > 2^127` needs a full
    /// 128-bit draw, and the old mask `(1u128 << bits) - 1` was shift
    /// overflow at `bits = 128` — a panic in debug builds and a wrap to a
    /// zero mask (every draw 0) in release builds. Must pass under both
    /// profiles and agree with the monadic sampler byte-for-byte.
    #[test]
    fn uniform_below_at_the_u128_shift_boundary() {
        for n in [
            (1u128 << 127) - 1, // bit length 127: last safe mask width
            1u128 << 127,       // bit length 128: first overflowing width
            (1u128 << 127) + 1,
            u128::MAX,
        ] {
            let prog = crate::uniform::uniform_below::<Sampling>(&Nat::from(n));
            let mut s1 = SeededByteSource::new(77);
            let mut s2 = SeededByteSource::new(77);
            for i in 0..64 {
                let a = uniform_below_u128(n, &mut s1);
                let b: Nat = prog.run(&mut s2);
                assert_eq!(Nat::from(a), b, "divergence at draw {i} (n = {n:#x})");
            }
        }
    }

    #[test]
    fn switched_resolution_matches() {
        assert_eq!(
            FusedLaplace::new(SWITCH_SCALE, 1, LaplaceAlg::Switched).algorithm(),
            LaplaceAlg::Uniform
        );
        assert_eq!(
            FusedLaplace::new(SWITCH_SCALE - 1, 1, LaplaceAlg::Switched).algorithm(),
            LaplaceAlg::Geometric
        );
    }

    #[test]
    fn fused_gaussian_moments() {
        let g = FusedGaussian::new(20, 1, LaplaceAlg::Switched);
        let mut src = SeededByteSource::new(99);
        let n = 30_000;
        let (mut sum, mut sumsq) = (0f64, 0f64);
        for _ in 0..n {
            let z = g.sample(&mut src) as f64;
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.5, "mean={mean}");
        assert!((var - 400.0).abs() / 400.0 < 0.05, "var={var}");
    }

    #[test]
    #[should_panic(expected = "zero sigma parameter")]
    fn zero_sigma_rejected() {
        let _ = FusedGaussian::new(0, 1, LaplaceAlg::Switched);
    }
}
