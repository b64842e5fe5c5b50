//! Tier equality through the prebuilt sampler: for random parameters in
//! each dispatch regime — the fused box, past 2²⁶ (the Gaussian's
//! compiled tier) and multi-limb (both compiled) — and every
//! [`LaplaceAlg`], the sampler serves on the regime's tier, and `k` calls of [`DiscreteSampler::sample`] and one
//! `sample_into` of `k` equal `k` runs of the monadic program, value for
//! value and in bytes consumed.

use proptest::prelude::*;
use sampcert_arith::Nat;
use sampcert_samplers::{discrete_gaussian, discrete_laplace, DiscreteSampler, LaplaceAlg};
use sampcert_slang::{CountingByteSource, SLang, Sampling, SeededByteSource};

const DRAWS: usize = 6;

fn alg_of(pick: u8) -> LaplaceAlg {
    match pick {
        0 => LaplaceAlg::Geometric,
        1 => LaplaceAlg::Uniform,
        _ => LaplaceAlg::Switched,
    }
}

/// `(num, den)` with `den` in the regime's range and `num/den` in
/// `[k + 1/2, k + 3/2)` (at least one `den`), so every loop stays short.
fn params(regime: u8, lo: u64, hi: u64, k: u64) -> (Nat, Nat) {
    let den = match regime {
        0 => Nat::from(1 + lo % (1 << 20)),
        1 => Nat::from((1 << 26) + lo % (1 << 37)),
        _ => &(Nat::from(hi | 1) << (64 * (1 + hi % 3) as u32)) + &Nat::from(lo),
    };
    let frac = Nat::from(hi % (1 << 20));
    let frac = if frac >= den { Nat::zero() } else { frac };
    let num = &(&den.mul_u64(2 * k + 1) / &Nat::from(2u64)) + &frac;
    let num = if num.is_zero() { den.clone() } else { num };
    (num, den)
}

/// Checks that `sampler` serves on `tier`, then draws it against
/// `monadic` on one seeded stream per path.
fn check(
    sampler: &DiscreteSampler,
    tier: &str,
    monadic: &SLang<i64>,
    seed: u64,
) -> Result<(), String> {
    if !format!("{sampler:?}").contains(tier) {
        return Err(format!("served on {sampler:?}, want {tier}"));
    }
    let mut reference = CountingByteSource::new(SeededByteSource::new(seed));
    let expect: Vec<i64> = (0..DRAWS).map(|_| monadic.run(&mut reference)).collect();
    let mut one = CountingByteSource::new(SeededByteSource::new(seed));
    let got: Vec<i64> = (0..DRAWS).map(|_| sampler.sample(&mut one)).collect();
    let mut batch = CountingByteSource::new(SeededByteSource::new(seed));
    let mut many = Vec::new();
    sampler.sample_into(DRAWS, &mut batch, &mut many);
    if got != expect || many != expect {
        return Err(format!("values {got:?} / {many:?}, want {expect:?}"));
    }
    let bytes = reference.bytes_read();
    if one.bytes_read() != bytes || batch.bytes_read() != bytes {
        return Err(format!(
            "bytes {} / {}, want {bytes}",
            one.bytes_read(),
            batch.bytes_read()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn laplace_sampler_equals_monadic_in_every_regime(
        regime in 0u8..3,
        lo in any::<u64>(),
        hi in any::<u64>(),
        k in 0u64..6,
        alg_pick in 0u8..3,
        seed in any::<u64>(),
    ) {
        let (num, den) = params(regime, lo, hi, k);
        let alg = alg_of(alg_pick);
        let sampler = DiscreteSampler::laplace(&num, &den, alg);
        let monadic = discrete_laplace::<Sampling>(&num, &den, alg);
        let tier = if regime < 2 { "FusedLaplace" } else { "Compiled" };
        let verdict = check(&sampler, tier, &monadic, seed);
        prop_assert!(verdict.is_ok(), "{:?}/{:?} {:?}: {:?}", num, den, alg, verdict);
    }

    #[test]
    fn gaussian_sampler_equals_monadic_in_every_regime(
        regime in 0u8..3,
        lo in any::<u64>(),
        hi in any::<u64>(),
        k in 0u64..6,
        alg_pick in 0u8..3,
        seed in any::<u64>(),
    ) {
        let (num, den) = params(regime, lo, hi, k);
        let alg = alg_of(alg_pick);
        let sampler = DiscreteSampler::gaussian(&num, &den, alg);
        let monadic = discrete_gaussian::<Sampling>(&num, &den, alg);
        let tier = if regime == 0 { "FusedGaussian" } else { "Compiled" };
        let verdict = check(&sampler, tier, &monadic, seed);
        prop_assert!(verdict.is_ok(), "{:?}/{:?} {:?}: {:?}", num, den, alg, verdict);
    }
}
