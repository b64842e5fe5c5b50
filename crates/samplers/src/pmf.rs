//! Closed-form PMFs of the discrete noise distributions.
//!
//! These are the right-hand sides of the paper's correctness theorems: the
//! samplers' operational behaviour (both the executable and mass-function
//! interpretations) is checked against these formulas throughout the test
//! suite, and the differential-privacy layer reasons about mechanisms via
//! these forms — exactly the paper's proof architecture, where "once we
//! have the equation characterizing the PMF, our proof of DP does not need
//! to reason explicitly about the computational parts of the algorithm".

use sampcert_slang::SubPmf;

/// Eq. (6): the discrete Laplace PMF with scale `t`,
/// `Lap_t(z) = (e^{1/t}−1)/(e^{1/t}+1) · e^{−|z|/t}`.
///
/// # Panics
///
/// Panics if `t` is not strictly positive.
pub fn laplace_pmf(t: f64, z: i64) -> f64 {
    assert!(t > 0.0, "laplace_pmf: scale must be positive");
    let e = (1.0 / t).exp();
    (e - 1.0) / (e + 1.0) * (-(z.abs() as f64) / t).exp()
}

/// The discrete Laplace CDF `P(Z ≤ z)` with scale `t`, in closed form.
///
/// For `z < 0`: geometric series from the left tail; for `z ≥ 0`: one minus
/// the right tail. Used by the Kolmogorov–Smirnov validation of the
/// extracted samplers (paper, footnote 10).
pub fn laplace_cdf(t: f64, z: i64) -> f64 {
    assert!(t > 0.0, "laplace_cdf: scale must be positive");
    let s = (-1.0 / t).exp();
    let c = (1.0 - s) / (1.0 + s);
    if z < 0 {
        // Σ_{k ≤ z} c·s^{|k|} = c·s^{|z|} / (1 − s)
        c * s.powi((-z) as i32) / (1.0 - s)
    } else {
        // 1 − Σ_{k > z} c·s^k = 1 − c·s^{z+1}/(1−s)
        1.0 - c * s.powi((z + 1) as i32) / (1.0 - s)
    }
}

/// The discrete Gaussian normalizing constant
/// `N(σ²) = Σ_{k ∈ ℤ} e^{−k²/(2σ²)}` (a Jacobi theta value).
///
/// The series is summed symmetrically until terms vanish at `f64`
/// precision; for σ ≥ 1 it converges within a few multiples of σ.
///
/// # Panics
///
/// Panics if `sigma2` is not strictly positive.
pub fn gaussian_normalizer(sigma2: f64) -> f64 {
    assert!(
        sigma2 > 0.0,
        "gaussian_normalizer: variance must be positive"
    );
    let mut sum = 1.0; // k = 0 term
    let mut k = 1.0f64;
    loop {
        let term = (-k * k / (2.0 * sigma2)).exp();
        if term < f64::MIN_POSITIVE || sum + 2.0 * term == sum {
            return sum;
        }
        sum += 2.0 * term;
        k += 1.0;
    }
}

/// The discrete Gaussian PMF `N_ℤ(μ, σ²)(z) = e^{−(z−μ)²/(2σ²)} / N(σ²)`.
///
/// The normalizer is translation-invariant (the paper's zCDP proof hinges
/// on bounding the *shifted* normalizer by the centered one; at integer
/// shifts they coincide).
///
/// # Panics
///
/// Panics if `sigma2` is not strictly positive.
pub fn gaussian_pmf(sigma2: f64, mu: i64, z: i64) -> f64 {
    let d = (z - mu) as f64;
    (-d * d / (2.0 * sigma2)).exp() / gaussian_normalizer(sigma2)
}

/// The discrete Gaussian CDF `P(Z ≤ z)` for mean `mu`, by partial summation.
pub fn gaussian_cdf(sigma2: f64, mu: i64, z: i64) -> f64 {
    // Sum from the mean outwards over the support that matters.
    let sigma = sigma2.sqrt();
    let radius = (12.0 * sigma).ceil() as i64 + 2;
    let lo = mu - radius;
    if z < lo {
        return 0.0;
    }
    let n = gaussian_normalizer(sigma2);
    let mut acc = 0.0;
    for k in lo..=z.min(mu + radius) {
        let d = (k - mu) as f64;
        acc += (-d * d / (2.0 * sigma2)).exp() / n;
    }
    acc.min(1.0)
}

/// The discrete Laplace distribution with scale `t`, shifted to mean `mu`,
/// truncated to `|z − mu| ≤ radius`, as a mass function.
///
/// With `radius ≳ 40·t` the truncated tail is below `e^{−40} ≈ 4·10⁻¹⁸`,
/// i.e. invisible at `f64` precision; the DP layer uses these truncations
/// as the analytic distributions of noised queries.
pub fn laplace_mass(t: f64, mu: i64, radius: i64) -> SubPmf<i64, f64> {
    assert!(radius >= 0, "laplace_mass: negative radius");
    SubPmf::from_entries((mu - radius..=mu + radius).map(|z| (z, laplace_pmf(t, z - mu))))
}

/// The discrete Gaussian distribution `N_ℤ(mu, sigma2)` truncated to
/// `|z − mu| ≤ radius`, as a mass function.
pub fn gaussian_mass(sigma2: f64, mu: i64, radius: i64) -> SubPmf<i64, f64> {
    assert!(radius >= 0, "gaussian_mass: negative radius");
    let n = gaussian_normalizer(sigma2);
    SubPmf::from_entries((mu - radius..=mu + radius).map(|z| {
        let d = (z - mu) as f64;
        (z, (-d * d / (2.0 * sigma2)).exp() / n)
    }))
}

/// A conservative truncation radius capturing all but `≈ e^{−40}` of the
/// mass of `Lap_t` (scale `t`), saturating at `i64::MAX`.
pub fn laplace_radius(t: f64) -> i64 {
    ((40.0 * t).ceil() as i64).saturating_add(1)
}

/// A conservative truncation radius for the discrete Gaussian with
/// variance `sigma2` (≈ 9σ captures all but `e^{−40}`), saturating at
/// `i64::MAX`.
pub fn gaussian_radius(sigma2: f64) -> i64 {
    ((9.0 * sigma2.sqrt()).ceil() as i64).saturating_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radii_saturate_instead_of_overflowing() {
        assert_eq!(laplace_radius(2.0), 81);
        assert_eq!(laplace_radius(2f64.powi(62)), i64::MAX);
        assert_eq!(gaussian_radius(4.0), 19);
        assert_eq!(gaussian_radius(2f64.powi(130)), i64::MAX);
    }

    #[test]
    fn laplace_pmf_normalizes() {
        for t in [0.5, 1.0, 2.5, 10.0] {
            let total: f64 = (-2000..=2000).map(|z| laplace_pmf(t, z)).sum();
            assert!((total - 1.0).abs() < 1e-12, "t={t}: total={total}");
        }
    }

    #[test]
    fn laplace_pmf_symmetric_and_decreasing() {
        let t = 3.0;
        for z in 1i64..20 {
            assert_eq!(laplace_pmf(t, z), laplace_pmf(t, -z));
            assert!(laplace_pmf(t, z) < laplace_pmf(t, z - 1));
        }
    }

    #[test]
    fn laplace_cdf_matches_partial_sums() {
        let t = 2.0;
        let mut acc = 0.0;
        for z in -60i64..=60 {
            acc += laplace_pmf(t, z); // running sum up to z
            let direct = laplace_cdf(t, z);
            assert!(
                (acc - direct).abs() < 1e-12,
                "z={z}: partial {acc} vs closed {direct}"
            );
        }
    }

    #[test]
    fn laplace_cdf_limits() {
        assert!(laplace_cdf(1.5, -200) < 1e-30);
        assert!((laplace_cdf(1.5, 200) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn gaussian_normalizer_close_to_continuous() {
        // For σ ≳ 1, N(σ²) ≈ √(2πσ²) to extremely high accuracy
        // (Poisson summation: the error is O(e^{−2π²σ²})).
        for sigma in [1.0f64, 2.0, 5.0, 20.0] {
            let n = gaussian_normalizer(sigma * sigma);
            let cont = (2.0 * std::f64::consts::PI * sigma * sigma).sqrt();
            assert!(
                (n - cont).abs() / cont < 1e-8,
                "sigma={sigma}: {n} vs {cont}"
            );
        }
    }

    #[test]
    fn gaussian_pmf_normalizes() {
        for sigma2 in [0.5, 1.0, 9.0] {
            let r = gaussian_radius(sigma2) * 3;
            let total: f64 = (-r..=r).map(|z| gaussian_pmf(sigma2, 0, z)).sum();
            assert!((total - 1.0).abs() < 1e-10, "sigma2={sigma2}: {total}");
        }
    }

    #[test]
    fn gaussian_shift_invariance() {
        for z in -5i64..=5 {
            assert_eq!(gaussian_pmf(4.0, 3, z + 3), gaussian_pmf(4.0, 0, z));
        }
    }

    #[test]
    fn gaussian_cdf_monotone_to_one() {
        let mut prev = 0.0;
        for z in -40i64..=40 {
            let c = gaussian_cdf(9.0, 0, z);
            assert!(c >= prev - 1e-15);
            prev = c;
        }
        assert!((gaussian_cdf(9.0, 0, 40) - 1.0).abs() < 1e-12);
        assert_eq!(gaussian_cdf(9.0, 0, -1000), 0.0);
    }

    #[test]
    fn mass_builders_capture_tail() {
        let lm = laplace_mass(2.0, 7, laplace_radius(2.0));
        assert!((lm.total_mass() - 1.0).abs() < 1e-12);
        assert!((lm.normalize().expectation() - 7.0).abs() < 1e-9);

        let gm = gaussian_mass(16.0, -3, gaussian_radius(16.0));
        assert!((gm.total_mass() - 1.0).abs() < 1e-10);
        assert!((gm.normalize().expectation() + 3.0).abs() < 1e-9);
        assert!((gm.variance() - 16.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn laplace_pmf_rejects_zero_scale() {
        let _ = laplace_pmf(0.0, 1);
    }

    #[test]
    #[should_panic(expected = "variance must be positive")]
    fn gaussian_rejects_zero_variance() {
        let _ = gaussian_normalizer(0.0);
    }
}
