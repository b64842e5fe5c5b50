//! The abstract noise interface (paper Listing 3) and its instances.
//!
//! `DPNoise` turns a Δ-sensitive query into a γ-ADP mechanism by adding
//! calibrated noise. The relationship between the rational arguments
//! `(γ₁, γ₂)` and the achieved privacy `γ` is instance-specific
//! (`noise_priv`): Laplace noise with arguments `(ε₁, ε₂)` achieves
//! `(ε₁/ε₂)`-pure-DP (Section 2.4), Gaussian noise with `(ρ₁, ρ₂)`
//! achieves `½(ρ₁/ρ₂)²`-zCDP (Section 2.5). As in the paper, privacy
//! parameters are **rationals, never floats** — the float appears only in
//! the *reporting* of γ, not in the sampled distribution.

use crate::abstract_dp::{AbstractDp, PureDp, RenyiDp, Zcdp};
use crate::mechanism::Mechanism;
use crate::query::Query;
use sampcert_arith::Nat;
use sampcert_samplers::pmf::{gaussian_mass, gaussian_radius, laplace_mass, laplace_radius};
use sampcert_samplers::{DiscreteSampler, LaplaceAlg};

/// An abstract noising scheme for an [`AbstractDp`] notion
/// (paper Listing 3).
pub trait DpNoise: AbstractDp {
    /// `noise`: the noised-query mechanism. Adds this notion's calibrated
    /// noise (scaled by the query's sensitivity Δ) to the exact query
    /// value. The achieved privacy parameter is
    /// [`noise_priv`](Self::noise_priv)`(gamma_num, gamma_den)`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma_num` or `gamma_den` is zero.
    fn noise<T: 'static>(query: &Query<T>, gamma_num: u64, gamma_den: u64) -> Mechanism<T, i64>;

    /// `noise_priv`: the γ-ADP bound achieved by `noise` with these
    /// arguments (for any query of the promised sensitivity).
    fn noise_priv(gamma_num: u64, gamma_den: u64) -> f64;
}

/// The noise scale's numerator `Δ·γ₂`, as an exact natural: the `u64`
/// product can wrap, which would under-noise a release priced at γ₁/γ₂.
fn scale_numerator<T>(query: &Query<T>, gamma_den: u64) -> Nat {
    Nat::from(query.sensitivity()).mul_u64(gamma_den)
}

/// The release `value + noise`, saturating at the ends of `i64`. A draw
/// at `i64::MIN` or `i64::MAX` is noise the samplers saturated (its true
/// magnitude may be larger), so the release takes that end whatever the
/// query value: `saturating_add` alone would land it at
/// `value ± (2⁶³ − 1)`, a point whose position reveals the value.
fn release(value: i64, noise: i64) -> i64 {
    if noise == i64::MIN || noise == i64::MAX {
        noise
    } else {
        value.saturating_add(noise)
    }
}

/// Builds the executable + analytic mechanism for Laplace noise with scale
/// `scale_num/scale_den` around the query value.
fn laplace_noise_mechanism<T: 'static>(
    query: &Query<T>,
    scale_num: &Nat,
    scale_den: u64,
) -> Mechanism<T, i64> {
    let sampler = DiscreteSampler::laplace(scale_num, &Nat::from(scale_den), LaplaceAlg::Switched);
    let scale = scale_num.to_f64() / scale_den as f64;
    let radius = laplace_radius(scale);
    let q1 = query.clone();
    let q2 = query.clone();
    Mechanism::from_parts(
        move |db, src| release(q1.eval(db), sampler.sample(src)),
        move |db| laplace_mass(scale, q2.eval(db), radius),
    )
}

impl DpNoise for PureDp {
    /// `privNoisedQueryPure` (Section 2.4): discrete Laplace noise with
    /// scale `Δ·ε₂/ε₁`, achieving `(ε₁/ε₂)`-DP.
    fn noise<T: 'static>(query: &Query<T>, gamma_num: u64, gamma_den: u64) -> Mechanism<T, i64> {
        assert!(
            gamma_num > 0 && gamma_den > 0,
            "noise: zero privacy parameter"
        );
        laplace_noise_mechanism(query, &scale_numerator(query, gamma_den), gamma_num)
    }

    fn noise_priv(gamma_num: u64, gamma_den: u64) -> f64 {
        gamma_num as f64 / gamma_den as f64
    }
}

/// Builds the executable + analytic mechanism for Gaussian noise with
/// σ = `sigma_num/sigma_den` around the query value.
fn gaussian_noise_mechanism<T: 'static>(
    query: &Query<T>,
    sigma_num: &Nat,
    sigma_den: u64,
) -> Mechanism<T, i64> {
    let sampler = DiscreteSampler::gaussian(sigma_num, &Nat::from(sigma_den), LaplaceAlg::Switched);
    let sigma2 = (sigma_num.to_f64() / sigma_den as f64).powi(2);
    let radius = gaussian_radius(sigma2);
    let q1 = query.clone();
    let q2 = query.clone();
    Mechanism::from_parts(
        move |db, src| release(q1.eval(db), sampler.sample(src)),
        move |db| gaussian_mass(sigma2, q2.eval(db), radius),
    )
}

impl DpNoise for Zcdp {
    /// `privNoisedQuery` (Section 2.5): discrete Gaussian noise with
    /// σ = `Δ·ρ₂/ρ₁`, achieving `½(ρ₁/ρ₂)²`-zCDP.
    fn noise<T: 'static>(query: &Query<T>, gamma_num: u64, gamma_den: u64) -> Mechanism<T, i64> {
        assert!(
            gamma_num > 0 && gamma_den > 0,
            "noise: zero privacy parameter"
        );
        gaussian_noise_mechanism(query, &scale_numerator(query, gamma_den), gamma_num)
    }

    fn noise_priv(gamma_num: u64, gamma_den: u64) -> f64 {
        0.5 * (gamma_num as f64 / gamma_den as f64).powi(2)
    }
}

impl<const ALPHA: u32> DpNoise for RenyiDp<ALPHA> {
    /// Gaussian noise read through the Rényi lens: σ = `Δ·γ₂/γ₁` gives
    /// `D_α ≤ α(γ₁/γ₂)²/2`, i.e. `(α, α(γ₁/γ₂)²/2)`-RDP.
    fn noise<T: 'static>(query: &Query<T>, gamma_num: u64, gamma_den: u64) -> Mechanism<T, i64> {
        assert!(
            gamma_num > 0 && gamma_den > 0,
            "noise: zero privacy parameter"
        );
        gaussian_noise_mechanism(query, &scale_numerator(query, gamma_den), gamma_num)
    }

    fn noise_priv(gamma_num: u64, gamma_den: u64) -> f64 {
        ALPHA as f64 * (gamma_num as f64 / gamma_den as f64).powi(2) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::count_query;
    use sampcert_slang::SeededByteSource;

    #[test]
    fn pure_noise_distribution_centered_at_query() {
        let q = count_query::<u8>();
        let m = PureDp::noise(&q, 1, 2); // ε = 1/2
        let db = vec![0u8; 10];
        let d = m.dist(&db);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
        assert!((d.normalize().expectation() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn pure_noise_prop_holds_on_neighbours() {
        let q = count_query::<u8>();
        let m = PureDp::noise(&q, 1, 2);
        let d1 = m.dist(&[0u8; 10]);
        let d2 = m.dist(&[0u8; 11]);
        let r = PureDp::divergence(&d1, &d2);
        assert!(r.escaped_mass < 1e-15);
        let claimed = PureDp::noise_priv(1, 2);
        assert!(r.value <= claimed + 1e-9, "{} > {claimed}", r.value);
        // And the bound is tight (the Laplace ratio achieves it).
        assert!(r.value >= claimed * 0.999);
    }

    #[test]
    fn zcdp_noise_prop_holds_on_neighbours() {
        let q = count_query::<u8>();
        let m = Zcdp::noise(&q, 1, 3); // ρ = 1/18, σ = 3
        let d1 = m.dist(&[0u8; 5]);
        let d2 = m.dist(&[0u8; 6]);
        let r = Zcdp::divergence(&d1, &d2);
        assert!(r.escaped_mass < 1e-15);
        let claimed = Zcdp::noise_priv(1, 3);
        assert!(r.value <= claimed * 1.02 + 1e-12, "{} > {claimed}", r.value);
        assert!(r.value >= claimed * 0.9);
    }

    #[test]
    fn renyi_noise_prop_holds_on_neighbours() {
        let q = count_query::<u8>();
        let m = RenyiDp::<4>::noise(&q, 1, 2); // σ = 2, D_4 ≤ 4·(1/2)²/2 = 1/2
        let d1 = m.dist(&[0u8; 3]);
        let d2 = m.dist(&[0u8; 4]);
        let r = RenyiDp::<4>::divergence(&d1, &d2);
        let claimed = RenyiDp::<4>::noise_priv(1, 2);
        assert!(r.value <= claimed + 1e-9, "{} > {claimed}", r.value);
    }

    #[test]
    fn sensitivity_scales_noise() {
        // A sensitivity-5 query at the same ε must use 5× the Laplace
        // scale; verify via the variance of the analytic distribution.
        let q1 = count_query::<u8>();
        let q5 = Query::new("5count", 5, |db: &[u8]| 5 * db.len() as i64);
        let m1 = PureDp::noise(&q1, 1, 1);
        let m5 = PureDp::noise(&q5, 1, 1);
        let v1 = m1.dist(&[]).variance();
        let v5 = m5.dist(&[]).variance();
        assert!(v5 > v1 * 20.0, "v1={v1} v5={v5}");
    }

    #[test]
    fn executable_side_samples_correctly() {
        let q = count_query::<u8>();
        let m = PureDp::noise(&q, 2, 1); // ε = 2, scale 1/2: tight noise
        let db = vec![0u8; 100];
        let mut src = SeededByteSource::new(5);
        let n = 5_000;
        let sum: i64 = (0..n).map(|_| m.run(&db, &mut src)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 100.0).abs() < 0.2, "mean={mean}");
    }

    #[test]
    #[should_panic(expected = "zero privacy parameter")]
    fn zero_gamma_rejected() {
        let q = count_query::<u8>();
        let _ = PureDp::noise(&q, 0, 1);
    }

    #[test]
    fn release_saturates_with_saturated_noise() {
        assert_eq!(release(5, -7), -2);
        assert_eq!(release(i64::MAX - 1, 5), i64::MAX);
        assert_eq!(release(i64::MIN + 1, -5), i64::MIN);
        for value in [-3, 0, 3] {
            assert_eq!(release(value, i64::MAX), i64::MAX);
            assert_eq!(release(value, i64::MIN), i64::MIN);
        }
    }

    #[test]
    fn scale_numerator_does_not_wrap() {
        // γ = 2⁶¹/2⁶³ = 1/4 on a sensitivity-3 query: Δ·γ₂ = 3·2⁶³ does
        // not fit a u64, and the mechanism must still draw at scale 12.
        let q = Query::new("3count", 3, |db: &[u8]| 3 * db.len() as i64);
        let wide = PureDp::noise(&q, 1 << 61, 1 << 63);
        let reduced = PureDp::noise(&q, 1, 4);
        let db = vec![0u8; 10];
        assert!(wide.dist(&db) == reduced.dist(&db));
        let mut src = SeededByteSource::new(11);
        let n = 20_000;
        let total: i64 = (0..n).map(|_| (wide.run(&db, &mut src) - 30).abs()).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 12.0).abs() < 0.6,
            "mean |noise| = {mean}, want ≈ 12"
        );
    }
}
