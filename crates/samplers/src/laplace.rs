//! The discrete Laplace sampler (paper Section 3.3.1, Listings 9 & 10).
//!
//! SampCert verifies **two** sampling loops for the same distribution and
//! switches between them at runtime:
//!
//! - [`LaplaceAlg::Geometric`] (Listing 10, top; the algorithm used by IBM's
//!   diffprivlib): a shifted geometric draw for the magnitude. Expected
//!   iterations grow linearly with the scale `num/den` — fast for small
//!   scales, slow for large ones.
//! - [`LaplaceAlg::Uniform`] (Listing 10, bottom; Canonne et al.'s
//!   algorithm): splits the magnitude into a uniform fractional part on
//!   `[0, num)` and an `e^(−1)`-geometric integral part. Near-constant
//!   iteration count at any scale, at the price of exact uniform rejection
//!   (whose cost jumps at powers of two — Figs. 4 and 6).
//! - [`LaplaceAlg::Switched`] picks per the scale, reproducing the paper's
//!   "best of both worlds" optimization; because both loops have *equal
//!   distributions*, swapping them is distribution-invariant (the paper
//!   retrofits this optimization without touching privacy proofs, and the
//!   test suite here checks the same equality).
//!
//! The sampler's PMF is Eq. (6): `Lap_t(z) = (e^{1/t}−1)/(e^{1/t}+1) ·
//! e^{−|z|/t}` with `t = num/den`.

use crate::bernoulli::{bernoulli, bernoulli_exp_neg};
use crate::geometric::geometric;
use crate::helpers::nat_to_i64;
use crate::uniform::uniform_below;
use sampcert_arith::Nat;
use sampcert_slang::{map, pair, until, Interp};

/// Which verified Laplace sampling loop to run; see the module-level
/// docs above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaplaceAlg {
    /// Shifted-geometric loop (diffprivlib's algorithm; Listing 10, top).
    Geometric,
    /// Uniform-plus-geometric loop (Canonne et al.; Listing 10, bottom).
    Uniform,
    /// Choose per scale: `Geometric` below [`SWITCH_SCALE`], else `Uniform`.
    Switched,
}

/// Scale threshold (`num/den`) at which [`LaplaceAlg::Switched`] changes
/// from the geometric loop to the uniform loop.
///
/// The geometric loop's expected trial count is `≈ scale`, the uniform
/// loop's is constant with a per-trial cost of a few uniform rejections;
/// the measured crossover sits around scale 6–10 on commodity hardware
/// (see the `ablation_laplace_switch` bench, which regenerates it).
pub const SWITCH_SCALE: u64 = 8;

/// `DiscreteLaplaceSampleLoop` (Listing 10, top): the geometric-method
/// sampling loop. Returns `(sign, magnitude)` where the magnitude `n` has
/// mass `(e^{−den/num})^n · (1 − e^{−den/num})` and the sign is a fair coin.
pub fn laplace_loop_geometric<I: Interp>(num: &Nat, den: &Nat) -> I::Repr<(bool, Nat)> {
    // Trial succeeds with probability e^{-den/num}. The listing's order —
    // magnitude first, then the sign coin — is preserved so that the
    // fused sampler consumes the identical byte stream.
    let v = geometric::<I>(bernoulli_exp_neg::<I>(den, num));
    let signed = pair::<I, _, _>(v, bernoulli::<I>(&Nat::one(), &Nat::from(2u64)));
    map::<I, _, _>(signed, |(v, b)| (*b, Nat::from(v - 1)))
}

/// `DiscreteLaplaceSampleLoopIn1Aux` (Listing 10): draw `U ~ Uniform[0, t)`
/// together with an acceptance bit `D ~ Bernoulli(e^{−U/t})`.
fn laplace_loop_in1_aux<I: Interp>(t: &Nat) -> I::Repr<(Nat, bool)> {
    let t2 = t.clone();
    I::bind(uniform_below::<I>(t), move |u| {
        let u2 = u.clone();
        map::<I, _, _>(bernoulli_exp_neg::<I>(&u2, &t2), move |&d| (u2.clone(), d))
    })
}

/// `DiscreteLaplaceSampleLoopIn1` (Listing 10): rejection-sample the
/// fractional part `U` until its `e^(−U/t)` bit accepts.
fn laplace_loop_in1<I: Interp>(t: &Nat) -> I::Repr<Nat> {
    let accepted = until::<I, _>(laplace_loop_in1_aux::<I>(t), |x: &(Nat, bool)| x.1);
    map::<I, _, _>(accepted, |x| x.0.clone())
}

/// `DiscreteLaplaceSampleLoop'` (Listing 10, bottom): the uniform-method
/// sampling loop of Canonne et al. Returns `(sign, magnitude)` with the
/// same distribution as [`laplace_loop_geometric`].
pub fn laplace_loop_uniform<I: Interp>(num: &Nat, den: &Nat) -> I::Repr<(bool, Nat)> {
    let num2 = num.clone();
    let den2 = den.clone();
    // Shared subprograms, hoisted out of the closures so the mass
    // interpreter computes each denotation once.
    let geo = geometric::<I>(bernoulli_exp_neg::<I>(&Nat::one(), &Nat::one()));
    let sign = bernoulli::<I>(&Nat::one(), &Nat::from(2u64));
    I::bind(laplace_loop_in1::<I>(num), move |u| {
        let u = u.clone();
        let num3 = num2.clone();
        let den3 = den2.clone();
        let sign = sign.clone();
        I::bind(geo.clone(), move |&v| {
            // X = U + num·(v−1); Y = ⌊X/den⌋.
            let x = &u + &(&num3 * &Nat::from(v - 1));
            let y = &x / &den3;
            map::<I, _, _>(sign.clone(), move |&b| (b, y.clone()))
        })
    })
}

/// Resolves [`LaplaceAlg::Switched`] for a given scale.
pub(crate) fn resolve_alg(num: &Nat, den: &Nat, alg: LaplaceAlg) -> LaplaceAlg {
    match alg {
        LaplaceAlg::Switched => {
            if *num >= &Nat::from(SWITCH_SCALE) * den {
                LaplaceAlg::Uniform
            } else {
                LaplaceAlg::Geometric
            }
        }
        other => other,
    }
}

/// `DiscreteLaplaceSample` (Listing 9): an exact sample from the discrete
/// Laplace distribution with scale `t = num/den` (Eq. 6).
///
/// Runs the selected sampling loop inside `probUntil`, rejecting the
/// double-counted `(+, 0)` outcome, and applies the sign.
///
/// A sample outside the `i64` range saturates to `i64::MIN` or
/// `i64::MAX` — a tail event only at scales near `2⁶³` and beyond.
///
/// # Panics
///
/// Panics (at program construction) if `num` or `den` is zero.
///
/// # Examples
///
/// ```
/// use sampcert_samplers::{discrete_laplace, LaplaceAlg};
/// use sampcert_arith::Nat;
/// use sampcert_slang::{Sampling, SeededByteSource};
///
/// let lap = discrete_laplace::<Sampling>(&Nat::from(5u64), &Nat::from(2u64), LaplaceAlg::Switched);
/// let mut src = SeededByteSource::new(0);
/// let _z: i64 = lap.run(&mut src);
/// ```
pub fn discrete_laplace<I: Interp>(num: &Nat, den: &Nat, alg: LaplaceAlg) -> I::Repr<i64> {
    map::<I, _, _>(discrete_laplace_signed::<I>(num, den, alg), |(b, m)| {
        nat_to_i64(*b, m)
    })
}

/// [`discrete_laplace`] before the conversion to `i64`: the sample as
/// `(negative, magnitude)`, exact at any scale — what the discrete
/// Gaussian's acceptance test reads, so a candidate too large for `i64`
/// is judged by its true magnitude.
///
/// # Panics
///
/// Panics (at program construction) if `num` or `den` is zero.
pub(crate) fn discrete_laplace_signed<I: Interp>(
    num: &Nat,
    den: &Nat,
    alg: LaplaceAlg,
) -> I::Repr<(bool, Nat)> {
    assert!(
        !num.is_zero() && !den.is_zero(),
        "discrete_laplace: zero scale parameter"
    );
    let loop_prog = match resolve_alg(num, den, alg) {
        LaplaceAlg::Geometric => laplace_loop_geometric::<I>(num, den),
        LaplaceAlg::Uniform => laplace_loop_uniform::<I>(num, den),
        LaplaceAlg::Switched => unreachable!("resolved above"),
    };
    until::<I, _>(loop_prog, |x: &(bool, Nat)| !(x.0 && x.1.is_zero()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmf::laplace_pmf;
    use sampcert_slang::{Mass, Sampling, SeededByteSource};

    fn nat(v: u64) -> Nat {
        Nat::from(v)
    }

    /// Evaluates the mass function of a Laplace program and compares it
    /// pointwise against Eq. (6).
    fn check_against_closed_form(num: u64, den: u64, alg: LaplaceAlg, fuel: usize, tol: f64) {
        let prog = discrete_laplace::<Mass<f64>>(&nat(num), &nat(den), alg);
        let d = prog.eval(&sampcert_slang::MassCtx::limit(fuel).with_prune(1e-14));
        assert!(
            (d.total_mass() - 1.0).abs() < tol,
            "not normalized: {} (alg {alg:?}, {num}/{den})",
            d.total_mass()
        );
        let t = num as f64 / den as f64;
        for z in -6i64..=6 {
            let expect = laplace_pmf(t, z);
            let got = d.mass(&z);
            assert!(
                (got - expect).abs() < tol,
                "Lap_{t}({z}): got {got}, want {expect} (alg {alg:?})"
            );
        }
    }

    #[test]
    fn geometric_loop_matches_eq6_scale_1() {
        check_against_closed_form(1, 1, LaplaceAlg::Geometric, 600, 1e-9);
    }

    #[test]
    fn uniform_loop_matches_eq6_scale_1() {
        check_against_closed_form(1, 1, LaplaceAlg::Uniform, 600, 1e-9);
    }

    #[test]
    fn geometric_loop_matches_eq6_scale_half() {
        check_against_closed_form(1, 2, LaplaceAlg::Geometric, 600, 1e-9);
    }

    #[test]
    fn uniform_loop_matches_eq6_scale_3_2() {
        check_against_closed_form(3, 2, LaplaceAlg::Uniform, 800, 1e-7);
    }

    #[test]
    fn both_loops_equal_distribution() {
        // The key theorem enabling the runtime switch: the two sampling
        // loops denote the same mass function.
        for (num, den) in [(1u64, 1u64), (2, 1), (1, 2)] {
            let ctx = sampcert_slang::MassCtx::limit(800).with_prune(1e-14);
            let a = discrete_laplace::<Mass<f64>>(&nat(num), &nat(den), LaplaceAlg::Geometric)
                .eval(&ctx);
            let b =
                discrete_laplace::<Mass<f64>>(&nat(num), &nat(den), LaplaceAlg::Uniform).eval(&ctx);
            assert!(
                a.linf_distance(&b) < 1e-8,
                "loops disagree at {num}/{den}: {}",
                a.linf_distance(&b)
            );
        }
    }

    #[test]
    fn switched_picks_by_scale() {
        assert_eq!(
            resolve_alg(&nat(1), &nat(1), LaplaceAlg::Switched),
            LaplaceAlg::Geometric
        );
        assert_eq!(
            resolve_alg(&nat(SWITCH_SCALE), &nat(1), LaplaceAlg::Switched),
            LaplaceAlg::Uniform
        );
        assert_eq!(
            resolve_alg(&nat(SWITCH_SCALE - 1), &nat(1), LaplaceAlg::Switched),
            LaplaceAlg::Geometric
        );
        // Explicit algs pass through.
        assert_eq!(
            resolve_alg(&nat(100), &nat(1), LaplaceAlg::Geometric),
            LaplaceAlg::Geometric
        );
    }

    #[test]
    fn symmetric_distribution() {
        let d = discrete_laplace::<Mass<f64>>(&nat(2), &nat(1), LaplaceAlg::Geometric)
            .eval(&sampcert_slang::MassCtx::limit(600).with_prune(1e-14));
        for z in 1i64..=5 {
            assert!(
                (d.mass(&z) - d.mass(&(-z))).abs() < 1e-10,
                "asymmetry at ±{z}"
            );
        }
    }

    #[test]
    fn sampling_moments_match() {
        // Var(Lap_t) = 2 e^{1/t} / (e^{1/t} - 1)^2; mean 0.
        let t: f64 = 4.0;
        let prog = discrete_laplace::<Sampling>(&nat(4), &nat(1), LaplaceAlg::Switched);
        let mut src = SeededByteSource::new(21);
        let n = 40_000;
        let (mut sum, mut sumsq) = (0f64, 0f64);
        for _ in 0..n {
            let z = prog.run(&mut src) as f64;
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        let e = (1.0 / t).exp();
        let expect_var = 2.0 * e / (e - 1.0) / (e - 1.0);
        assert!(mean.abs() < 0.2, "mean={mean}");
        assert!(
            (var - expect_var).abs() / expect_var < 0.05,
            "var={var} want {expect_var}"
        );
    }

    #[test]
    fn large_scale_sampler_runs() {
        // Scale 10^6: only the uniform loop is viable; also exercises
        // multi-byte uniform rejection.
        let prog = discrete_laplace::<Sampling>(&nat(1_000_000), &nat(1), LaplaceAlg::Switched);
        let mut src = SeededByteSource::new(9);
        for _ in 0..20 {
            let z = prog.run(&mut src);
            assert!(z.abs() < 40_000_000, "implausible sample {z}");
        }
    }

    #[test]
    #[should_panic(expected = "zero scale parameter")]
    fn zero_scale_panics() {
        let _ = discrete_laplace::<Sampling>(&Nat::zero(), &nat(1), LaplaceAlg::Geometric);
    }
}
