//! The discrete Gaussian sampler (paper Section 3.3.2, Listing 11).
//!
//! Samples `N_ℤ(0, σ²)` for rational `σ = num/den` by the rejection scheme
//! of Canonne, Kamath & Steinke: draw `Y` from a discrete Laplace with
//! scale `t = ⌊σ⌋ + 1`, then accept with probability
//! `exp(−(|Y|·t·den² − num²)² / (2·num²·t²·den²))` — all arithmetic exact.
//! The expected number of rejection rounds is a small constant (≈ 1.4),
//! independent of σ, which is why the extracted sampler's runtime is flat
//! in Fig. 4 while σ-linear baselines fall behind.

use crate::bernoulli::bernoulli_exp_neg;
use crate::helpers::nat_to_i64;
use crate::laplace::{discrete_laplace_signed, LaplaceAlg};
use sampcert_arith::{Int, Nat};
use sampcert_slang::{map, until, Interp};

/// `DiscreteGaussianSampleLoop` (Listing 11): one candidate `Y` from
/// `Lap(t)` together with its acceptance bit `C`.
///
/// `num` and `den` here are the *squared* numerator and denominator, as in
/// the paper's listing.
pub fn gaussian_loop<I: Interp>(
    num: &Nat,
    den: &Nat,
    t: &Nat,
    alg: LaplaceAlg,
) -> I::Repr<(i64, bool)> {
    let num2 = num.clone();
    let den2 = den.clone();
    let t2 = t.clone();
    I::bind(
        discrete_laplace_signed::<I>(t, &Nat::one(), alg),
        move |(negative, abs_y)| {
            // (|Y|·t·den − num)² — computed in ℤ on the exact magnitude,
            // then squared into ℕ; only the accepted candidate's output
            // saturates into `i64`, as on the compiled tier.
            let lhs = &Int::from_nat(&(abs_y * &t2) * &den2) - &Int::from_nat(num2.clone());
            let sq = lhs.magnitude().pow(2);
            let bound = &(&Nat::from(2u64) * &num2) * &(&t2.pow(2) * &den2);
            let y = nat_to_i64(*negative, abs_y);
            map::<I, _, _>(bernoulli_exp_neg::<I>(&sq, &bound), move |&c| (y, c))
        },
    )
}

/// `DiscreteGaussianSample` (Listing 11): an exact sample from the discrete
/// Gaussian `N_ℤ(0, (num/den)²)`.
///
/// The `alg` argument is the paper's `mix` parameter: which verified
/// Laplace sampling loop powers the candidate draws
/// ([`LaplaceAlg::Switched`] reproduces the "Optimized" series of Fig. 4).
///
/// # Panics
///
/// Panics (at program construction) if `num` or `den` is zero.
///
/// # Examples
///
/// ```
/// use sampcert_samplers::{discrete_gaussian, LaplaceAlg};
/// use sampcert_arith::Nat;
/// use sampcert_slang::{Sampling, SeededByteSource};
///
/// // σ = 10
/// let gauss = discrete_gaussian::<Sampling>(&Nat::from(10u64), &Nat::one(), LaplaceAlg::Switched);
/// let mut src = SeededByteSource::new(0);
/// let _z: i64 = gauss.run(&mut src);
/// ```
pub fn discrete_gaussian<I: Interp>(num: &Nat, den: &Nat, alg: LaplaceAlg) -> I::Repr<i64> {
    assert!(
        !num.is_zero() && !den.is_zero(),
        "discrete_gaussian: zero sigma parameter"
    );
    // t = ⌊σ⌋ + 1 = ⌊num/den⌋ + 1.
    let t = &(num / den) + &Nat::one();
    let num_sq = num.pow(2);
    let den_sq = den.pow(2);
    let accepted = until::<I, _>(
        gaussian_loop::<I>(&num_sq, &den_sq, &t, alg),
        |x: &(i64, bool)| x.1,
    );
    map::<I, _, _>(accepted, |x| x.0)
}

/// A discrete Gaussian with the mean shifted to `mu`
/// (`N_ℤ(mu, (num/den)²)`) — the form used by noised queries.
pub fn discrete_gaussian_shifted<I: Interp>(
    num: &Nat,
    den: &Nat,
    mu: i64,
    alg: LaplaceAlg,
) -> I::Repr<i64> {
    map::<I, _, _>(discrete_gaussian::<I>(num, den, alg), move |&z| z + mu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmf::gaussian_pmf;
    use sampcert_slang::{Mass, Sampling, SeededByteSource};

    fn nat(v: u64) -> Nat {
        Nat::from(v)
    }

    fn check_gaussian_mass(num: u64, den: u64, alg: LaplaceAlg, fuel: usize, tol: f64) {
        let prog = discrete_gaussian::<Mass<f64>>(&nat(num), &nat(den), alg);
        // Prune far-tail candidates (mass < 1e-13): keeps the acceptance
        // loop's integer-part iteration count bounded.
        let d = prog.eval(&sampcert_slang::MassCtx::limit(fuel).with_prune(1e-13));
        assert!(
            (d.total_mass() - 1.0).abs() < tol,
            "not normalized: {} ({num}/{den})",
            d.total_mass()
        );
        let sigma2 = (num as f64 / den as f64).powi(2);
        for z in -4i64..=4 {
            let expect = gaussian_pmf(sigma2, 0, z);
            let got = d.mass(&z);
            assert!(
                (got - expect).abs() < tol,
                "N(0,{sigma2})({z}): got {got}, want {expect}"
            );
        }
    }

    #[test]
    fn matches_closed_form_sigma_1() {
        check_gaussian_mass(1, 1, LaplaceAlg::Geometric, 500, 1e-8);
    }

    #[test]
    fn matches_closed_form_sigma_half() {
        check_gaussian_mass(1, 2, LaplaceAlg::Geometric, 500, 1e-8);
    }

    #[test]
    fn both_laplace_algs_agree() {
        let ctx = sampcert_slang::MassCtx::limit(500).with_prune(1e-13);
        let a = discrete_gaussian::<Mass<f64>>(&nat(1), &nat(1), LaplaceAlg::Geometric).eval(&ctx);
        let b = discrete_gaussian::<Mass<f64>>(&nat(1), &nat(1), LaplaceAlg::Uniform).eval(&ctx);
        assert!(a.linf_distance(&b) < 1e-8);
    }

    #[test]
    fn sampling_moments_sigma_5() {
        let prog = discrete_gaussian::<Sampling>(&nat(5), &nat(1), LaplaceAlg::Switched);
        let mut src = SeededByteSource::new(17);
        let n = 30_000;
        let (mut sum, mut sumsq) = (0f64, 0f64);
        for _ in 0..n {
            let z = prog.run(&mut src) as f64;
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.15, "mean={mean}");
        // Discrete Gaussian variance ≈ σ² for σ ≥ 1.
        assert!((var - 25.0).abs() / 25.0 < 0.05, "var={var}");
    }

    #[test]
    fn sampling_moments_rational_sigma() {
        // σ = 7/2 = 3.5
        let prog = discrete_gaussian::<Sampling>(&nat(7), &nat(2), LaplaceAlg::Switched);
        let mut src = SeededByteSource::new(29);
        let n = 30_000;
        let sumsq: f64 = (0..n)
            .map(|_| {
                let z = prog.run(&mut src) as f64;
                z * z
            })
            .sum();
        let var = sumsq / n as f64;
        assert!((var - 12.25).abs() / 12.25 < 0.06, "var={var}");
    }

    #[test]
    fn shifted_mean() {
        let prog =
            discrete_gaussian_shifted::<Sampling>(&nat(2), &nat(1), 100, LaplaceAlg::Switched);
        let mut src = SeededByteSource::new(31);
        let n = 20_000;
        let sum: i64 = (0..n).map(|_| prog.run(&mut src)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 100.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn large_sigma_runs_constant_rounds() {
        let prog = discrete_gaussian::<Sampling>(&nat(100_000), &nat(1), LaplaceAlg::Switched);
        let mut src = SeededByteSource::new(37);
        for _ in 0..10 {
            let z = prog.run(&mut src);
            assert!(z.abs() < 2_000_000, "implausible sample {z}");
        }
    }

    #[test]
    #[should_panic(expected = "zero sigma parameter")]
    fn zero_sigma_panics() {
        let _ = discrete_gaussian::<Sampling>(&Nat::zero(), &nat(1), LaplaceAlg::Switched);
    }
}
