//! Seeded input generators: the principal picker and the arrival
//! schedule. Everything the program receives is derived from the run's
//! `--seed` through these.

use std::time::Duration;

/// The xorshift schedule of the repository's crash and registry-scale
/// suites: `rnd(bound)` is uniform-ish on `[0, bound)`.
pub fn schedule(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move |bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound.max(1)
    }
}

/// Zipf-ish principal in `[0, principals)`, as in the registry-scale
/// suite: a geometric number of trailing zeros halves the candidate
/// range, so the low principals draw exponentially more traffic than the
/// tail while every principal stays reachable.
pub fn zipfian_principal(rnd: &mut impl FnMut(u64) -> u64, principals: u64) -> u64 {
    let z = rnd(u64::MAX).trailing_zeros().min(19);
    rnd((principals >> z).max(1))
}

/// `n` Poisson arrival offsets at `rate` per second: exponential gaps
/// from a seeded LCG, non-decreasing, identical for identical seeds.
pub fn poisson_offsets(seed: u64, rate: f64, n: usize) -> Vec<Duration> {
    let mut state = seed | 1;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // u ∈ (0, 1]: never 0, so -ln(u) is finite.
            let u = ((state >> 11) + 1) as f64 / (1u64 << 53) as f64;
            t += -u.ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_and_monotone() {
        let a = poisson_offsets(7, 1e4, 4096);
        assert_eq!(a, poisson_offsets(7, 1e4, 4096));
        assert_ne!(a, poisson_offsets(8, 1e4, 4096));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] > Duration::ZERO);
        // The mean gap is 1/rate, within sampling error.
        let mean_gap = a[4095].as_secs_f64() / 4096.0;
        assert!((mean_gap - 1e-4).abs() < 1e-5, "mean gap {mean_gap}");
    }

    #[test]
    fn zipf_stays_in_range_and_is_skewed() {
        for principals in [1u64, 2, 1000, 100_000, 1_000_000] {
            let mut rnd = schedule(principals);
            let picks: Vec<u64> = (0..20_000)
                .map(|_| zipfian_principal(&mut rnd, principals))
                .collect();
            assert!(picks.iter().all(|&p| p < principals), "{principals}");
        }
        let mut rnd = schedule(3);
        let picks: Vec<u64> = (0..100_000)
            .map(|_| zipfian_principal(&mut rnd, 100_000))
            .collect();
        let head = picks.iter().filter(|&&p| p < 100).count();
        let tail = picks.iter().filter(|&&p| p >= 50_000).count();
        // The lowest 0.1% of principals get several times their uniform
        // share of picks (100), and the upper half is still reached.
        assert!(head > 400, "head {head}");
        assert!(tail > 20_000, "tail {tail}");
    }
}
