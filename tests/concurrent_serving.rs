//! Concurrency suite: sharded accounting is conservative under real
//! interleavings, and deterministic per-worker streams are independent
//! and replayable.
//!
//! The sharded ledger's claim (see `sampcert-core`'s `sharded` module
//! docs) is that **no interleaving of charges, rebalances and handle
//! drops can make the shards jointly spend more than the global budget**,
//! with the inequality exact on the dyadic carrier. These tests attack
//! the claim with thread stress on the exact carrier — every quantity a
//! `Dyadic`, every comparison strict — so an over-spend of even one
//! lattice quantum (2⁻¹²⁷) would fail the suite, not hide in a float
//! tolerance. The serving half pins the determinism contract of the
//! split-seed backend end to end through the `RtExecutor` draw plane.

use sampcert_arith::Dyadic;
use sampcert_arith::Nat;
use sampcert_core::{
    Entropy, ExactShardedLedger, Executor, PureDp, RdpAccountant, Request, ShardedLedger,
    ShardedRdpAccountant, Zcdp,
};
use sampcert_rt::RtExecutor;
use sampcert_samplers::{discrete_gaussian_many, LaplaceAlg};
use sampcert_slang::{ByteSource, SplitSeed};

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

/// The central stress test: 8 threads hammer one exact sharded ledger
/// with varied dyadic charges until everyone has been refused several
/// times; the summed spends must never exceed the budget — exactly.
#[test]
fn stressed_shards_never_overspend_exact_budget() {
    let threads = 8;
    // Budget 1, tiny chunk: maximal rebalance traffic, maximal risk of a
    // double-grant or lost-update bug surfacing.
    let ledger: ExactShardedLedger<PureDp> = ShardedLedger::new(1.0, threads).with_chunk(1e-3);
    let spends: Vec<Dyadic> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let mut handle = ledger.handle(w);
                scope.spawn(move || {
                    let mut rnd = schedule(w as u64 + 1);
                    let mut refusals = 0;
                    while refusals < 8 {
                        // Charges from 2^-12 to 2^-5, all exactly dyadic.
                        let k = 5 + rnd(8);
                        let gamma = (0.5f64).powi(k as i32);
                        if handle.charge(gamma).is_err() {
                            refusals += 1;
                        }
                    }
                    handle.finish().spent
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress worker panicked"))
            .collect()
    });
    let total = spends
        .iter()
        .fold(Dyadic::zero(), |acc, s| &acc + &s.clone());
    assert!(
        total <= *ledger.budget(),
        "shards jointly overspent: {total:?} > {:?}",
        ledger.budget()
    );
    // With every charge and the budget on the lattice, the reserve must
    // reconcile exactly: budget = spent + unallocated after all handles
    // finished.
    assert_eq!(&total + &ledger.unallocated_exact(), *ledger.budget());
}

/// Uniform charges that divide the budget exactly must be able to drain
/// it to the last lattice bit across threads — conservativeness must not
/// decay into under-utilization on the exact carrier.
#[test]
fn uniform_exact_charges_drain_the_budget_completely() {
    let threads = 4;
    let ledger: ExactShardedLedger<Zcdp> = ShardedLedger::new(1.0, threads);
    let spends: Vec<Dyadic> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let mut handle = ledger.handle(w);
                scope.spawn(move || {
                    // 2^-10 each; 1024 charges fit in total across all
                    // threads. Everyone charges until refused twice.
                    let mut refusals = 0;
                    while refusals < 2 {
                        if handle.charge((0.5f64).powi(10)).is_err() {
                            refusals += 1;
                        }
                    }
                    handle.finish().spent
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let total = spends
        .iter()
        .fold(Dyadic::zero(), |acc, s| &acc + &s.clone());
    assert_eq!(total, *ledger.budget(), "budget stranded: {total:?}");
    assert_eq!(ledger.unallocated_exact(), Dyadic::zero());
}

/// Handles dropped mid-session (a worker dying) must return their grants:
/// the budget remains fully spendable by the survivors.
#[test]
fn dying_workers_leak_no_budget() {
    let ledger: ExactShardedLedger<PureDp> = ShardedLedger::new(1.0, 4).with_chunk(0.25);
    std::thread::scope(|scope| {
        for w in 0..3 {
            let mut handle = ledger.handle(w);
            scope.spawn(move || {
                handle.charge(0.125).unwrap();
                // Dropped here without finish(): headroom must return.
            });
        }
    });
    // 3 × 0.125 spent; the remaining 0.625 must all be obtainable by the
    // fourth shard.
    let mut survivor = ledger.handle(3);
    for _ in 0..5 {
        survivor.charge(0.125).unwrap();
    }
    assert!(survivor.charge(0.125).is_err());
    assert_eq!(survivor.finish().spent, Dyadic::from_f64_ceil(0.625));
}

/// Sharded RDP accounting across real threads equals one-accountant
/// accounting of the same releases.
#[test]
fn sharded_rdp_across_threads_matches_sequential() {
    let threads = 4;
    let per_worker = 500u64;
    let sharded = ShardedRdpAccountant::with_default_orders(threads);
    let parts: Vec<RdpAccountant> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let mut acct = sharded.shard();
                scope.spawn(move || {
                    acct.add_gaussian_n(8.0, per_worker);
                    acct
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let folded = sharded.fold(parts);
    let mut reference = RdpAccountant::with_default_orders();
    reference.add_gaussian_n(8.0, per_worker * threads as u64);
    let (ef, af) = folded.epsilon(1e-6);
    let (er, ar) = reference.epsilon(1e-6);
    assert!((ef - er).abs() < 1e-9, "{ef} vs {er}");
    assert_eq!(af, ar);
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
