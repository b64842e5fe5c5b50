//! Concurrency suite: exact per-principal accounting is conservative
//! under real interleavings, and deterministic per-worker streams are
//! independent and replayable.
//!
//! Concurrent charges to one principal of a shared
//! [`BudgetRegistry`] must never jointly spend more than its
//! allowance, and the spend it records must be exactly the sum of the
//! charges it accepted. These tests attack the claim with thread stress
//! on the exact carrier — every quantity a `Dyadic`, every comparison
//! strict — so an over-spend or a lost update of even one lattice quantum
//! (2⁻¹²⁷) would fail the suite, not hide in a float tolerance. The
//! serving half pins the determinism contract of the split-seed backend
//! end to end through the `RtExecutor` draw plane.

use sampcert_arith::Dyadic;
use sampcert_arith::Nat;
use sampcert_core::{BudgetRegistry, Entropy, Executor, PureDp, Request, Zcdp};
use sampcert_rt::RtExecutor;
use sampcert_samplers::{discrete_gaussian_many, LaplaceAlg};
use sampcert_slang::{ByteSource, SplitSeed};

/// The principal every stress test charges.
const PRINCIPAL: u64 = 7;

/// A tiny deterministic PRG for generating stress schedules (not noise).
fn schedule(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move |bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound.max(1)
    }
}

/// The central stress test: 8 threads hammer one principal with varied
/// dyadic charges until everyone has been refused several times. The sum
/// of the accepted charges must equal the recorded spend exactly and stay
/// within the allowance.
#[test]
fn stressed_principal_never_overspends_exact_allowance() {
    let threads = 8;
    let registry: BudgetRegistry<PureDp> = BudgetRegistry::new(1.0, threads);
    let accepted: Vec<Dyadic> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let registry = &registry;
                scope.spawn(move || {
                    let mut rnd = schedule(w as u64 + 1);
                    let mut refusals = 0;
                    let mut accepted = Dyadic::zero();
                    while refusals < 8 {
                        // Charges from 2^-12 to 2^-5, all exactly dyadic.
                        let k = 5 + rnd(8);
                        let gamma = Dyadic::from_f64_ceil((0.5f64).powi(k as i32));
                        match registry.charge_exact(PRINCIPAL, gamma.clone()) {
                            Ok(()) => accepted = &accepted + &gamma,
                            Err(_) => refusals += 1,
                        }
                    }
                    accepted
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress worker panicked"))
            .collect()
    });
    let accepted = accepted.iter().fold(Dyadic::zero(), |acc, s| &acc + s);
    let spent = registry.spent_exact(PRINCIPAL);
    assert_eq!(
        accepted, spent,
        "recorded spend differs from accepted charges"
    );
    assert!(
        spent <= Dyadic::from(1u64),
        "principal overspent: {spent:?}"
    );
    // Every refused charge exceeded what was left, and what is left only
    // shrinks: the allowance ends within one largest charge of empty.
    assert!(registry.remaining_exact(PRINCIPAL) < Dyadic::from_f64_ceil(1.0 / 32.0));
}

/// Uniform charges that divide the allowance exactly must be able to
/// drain it to the last lattice bit across threads — conservativeness
/// must not decay into under-utilization on the exact carrier.
#[test]
fn uniform_exact_charges_drain_the_allowance_completely() {
    let threads = 4;
    let registry: BudgetRegistry<Zcdp> = BudgetRegistry::new(1.0, threads);
    let counts: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let registry = &registry;
                scope.spawn(move || {
                    // 2^-10 each; 1024 charges fit in total across all
                    // threads. Everyone charges until refused twice.
                    let mut refusals = 0;
                    let mut accepted = 0u64;
                    while refusals < 2 {
                        match registry.charge(PRINCIPAL, (0.5f64).powi(10)) {
                            Ok(()) => accepted += 1,
                            Err(_) => refusals += 1,
                        }
                    }
                    accepted
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(counts.iter().sum::<u64>(), 1024, "per-thread: {counts:?}");
    assert_eq!(registry.spent_exact(PRINCIPAL), Dyadic::from(1u64));
    assert_eq!(registry.remaining_exact(PRINCIPAL), Dyadic::zero());
}

/// A charger that panics after its charge (a worker dying mid-request)
/// strands nothing: its charge stays spent, and the rest of the
/// allowance remains fully spendable by the survivors.
#[test]
fn panicking_chargers_strand_no_budget() {
    let registry: BudgetRegistry<PureDp> = BudgetRegistry::new(1.0, 4);
    std::thread::scope(|scope| {
        let dying: Vec<_> = (0..3)
            .map(|_| {
                let registry = &registry;
                scope.spawn(move || {
                    registry.charge(PRINCIPAL, 0.125).unwrap();
                    panic!("charger died after its charge");
                })
            })
            .collect();
        for h in dying {
            assert!(h.join().is_err(), "the charger was meant to panic");
        }
    });
    // 3 × 0.125 spent; the remaining 0.625 must all be obtainable.
    assert_eq!(
        registry.spent_exact(PRINCIPAL),
        Dyadic::from_f64_ceil(0.375)
    );
    for _ in 0..5 {
        registry.charge(PRINCIPAL, 0.125).unwrap();
    }
    assert!(registry.charge(PRINCIPAL, 0.125).is_err());
    assert_eq!(registry.spent_exact(PRINCIPAL), Dyadic::from(1u64));
}

/// Split-seed lane streams are replayable end to end through the draw
/// plane, and a fresh executor replays a fresh executor.
#[test]
fn deterministic_serving_replays_across_executors() {
    let gauss: Request<Zcdp, (), i64> = Request::noise(32, 1);
    let laplace: Request<PureDp, (), i64> = Request::noise(3, 2);
    let serve = |mut ex: RtExecutor| {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        ex.run_into(gauss.mechanism(), &[], 999, &mut a).unwrap();
        ex.run_into(laplace.mechanism(), &[], 501, &mut b).unwrap();
        (a, b)
    };
    assert_eq!(
        serve(RtExecutor::new(Entropy::seeded(0xFEED), 4)),
        serve(RtExecutor::new(Entropy::seeded(0xFEED), 4))
    );
}

/// Pairwise independence of the worker streams, observed statistically at
/// the served-noise level: same sampler, same parameters, per-worker
/// outputs uncorrelated and non-identical.
#[test]
fn worker_streams_are_pairwise_independent_statistically() {
    let root = SplitSeed::new(0xCAFE);
    let n = 4000;
    let num = Nat::from(16u64);
    let streams: Vec<Vec<i64>> = (0..4)
        .map(|w| {
            let mut src = root.stream(w);
            discrete_gaussian_many(&num, &Nat::one(), LaplaceAlg::Switched, n, &mut src)
        })
        .collect();
    for i in 0..streams.len() {
        for j in i + 1..streams.len() {
            assert_ne!(streams[i], streams[j], "streams {i} and {j} identical");
            // Empirical correlation of two independent σ=16 streams over
            // 4000 draws concentrates around 0 at scale 1/√n ≈ 0.016;
            // 0.08 is a 5σ gate.
            let (a, b) = (&streams[i], &streams[j]);
            let dot: f64 = a.iter().zip(b).map(|(&x, &y)| (x * y) as f64).sum();
            let na: f64 = a.iter().map(|&x| (x * x) as f64).sum::<f64>().sqrt();
            let nb: f64 = b.iter().map(|&y| (y * y) as f64).sum::<f64>().sqrt();
            let corr = dot / (na * nb);
            assert!(corr.abs() < 0.08, "streams {i},{j} correlate: {corr}");
        }
    }
}

/// Sources handed to workers must actually be distinct objects: mutating
/// one worker's stream position cannot perturb another's (a regression
/// guard against accidentally sharing one source behind the fan-out).
#[test]
fn worker_streams_do_not_alias() {
    let root = SplitSeed::new(1);
    let mut s0 = root.stream(0);
    let mut s1 = root.stream(1);
    let before: Vec<u8> = {
        let mut probe = root.stream(1);
        (0..64).map(|_| probe.next_byte()).collect()
    };
    // Burn a lot of stream 0.
    for _ in 0..10_000 {
        s0.next_byte();
    }
    let after: Vec<u8> = (0..64).map(|_| s1.next_byte()).collect();
    assert_eq!(before, after);
}
