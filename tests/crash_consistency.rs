//! Crash-consistency suite: the write-ahead charge journal never
//! under-reports spend, under any injected fault, at any fault point.
//!
//! The durable accounting claim (see `sampcert-core`'s `journal` module
//! docs) is a one-sided inequality: after a crash anywhere in the
//! check → append+fsync → apply sequence, replaying the surviving bytes
//! reconstructs per-principal spend `recovered ≥ acknowledged` — where
//! "acknowledged" is every charge the registry returned `Ok` for (the
//! only charges an answer was ever released against). Over-reporting is
//! allowed (a record whose fsync verdict never arrived replays as
//! charged); under-reporting would be a privacy-soundness violation.
//!
//! These tests attack the inequality on the exact dyadic carrier —
//! every charge a power of two, every comparison strict — with
//! [`MemStorage`] fault plans standing in for the kill: append failures
//! (the disk vanished), torn writes (the process died mid-`write(2)`),
//! and fsync failures (the write may or may not have become durable).
//! Every charge is group-committed, so the faults land on batch
//! boundaries: a batch leader's append, its single fsync, or the
//! followers queued behind it. Multi-threaded workloads hammer one
//! [`DurableRegistry`] until the
//! fault fires; the "process" is then killed by dropping the registry
//! and recovery runs over a fresh handle on the surviving bytes, exactly
//! like a restart over the same file. Recovery idempotence rides along:
//! [`replay`] is a pure function of the bytes, so replaying twice must
//! agree record-for-record.
//!
//! The in-memory [`BudgetRegistry`] gets its own concurrency attack: a
//! zipfian hot/cold principal skew (geometric weights, principal 0
//! drawing half the traffic) across threads, with per-principal
//! no-overspend and exact-sum invariants.

use proptest::prelude::*;
use sampcert_core::{
    replay, Budget, BudgetRegistry, DurableChargeError, DurableOptions, DurableRegistry, Dyadic,
    FaultPlan, MemStorage, PureDp, RecoveryError, RecoveryReport,
};
use std::collections::BTreeMap;

/// A tiny deterministic PRG for workload schedules (not noise) — the
/// same xorshift the concurrency suite uses.
fn schedule(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move |bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound.max(1)
    }
}

/// An exactly-dyadic charge: 2^-(3..=8).
fn dyadic_charge(rnd: &mut impl FnMut(u64) -> u64) -> Dyadic {
    let k = 3 + rnd(6);
    <Dyadic as Budget>::charge_from_f64((0.5f64).powi(k as i32))
}

const PRINCIPALS: u64 = 6;
const PER_PRINCIPAL: f64 = 1.0;
const SHARDS: usize = 4;

/// What one kill-mid-charge run leaves behind: the surviving journal
/// handle and the per-principal sums of *acknowledged* charges.
struct Outcome {
    handle: MemStorage,
    acknowledged: BTreeMap<u64, Dyadic>,
    journal_faults: usize,
}

/// The per-principal allowance in the carrier.
fn allowance() -> Dyadic {
    <Dyadic as Budget>::budget_from_f64(PER_PRINCIPAL)
}

/// A restart: recovery over `storage` with the default options.
fn recover(
    storage: MemStorage,
) -> Result<(DurableRegistry<PureDp, Dyadic, MemStorage>, RecoveryReport), RecoveryError> {
    DurableRegistry::open_with_options(allowance(), SHARDS, storage, DurableOptions::default())
}

/// Runs `threads` concurrent chargers against one durable registry over
/// faulty storage until every thread has either exhausted its schedule
/// or hit the injected fault, then kills the registry.
fn kill_mid_charge(plan: FaultPlan, threads: usize, ops_per_thread: usize, seed: u64) -> Outcome {
    let storage = MemStorage::new().with_plan(plan);
    let handle = storage.clone();
    let registry = match DurableRegistry::<PureDp, Dyadic, _>::create_with_budget(
        allowance(),
        SHARDS,
        storage,
    ) {
        Ok(r) => r.with_checkpoint_every(7),
        Err(_) => {
            // The fault fired on the header write: the process died at
            // boot having acknowledged nothing.
            return Outcome {
                handle,
                acknowledged: BTreeMap::new(),
                journal_faults: 1,
            };
        }
    };

    let per_thread: Vec<(Vec<(u64, Dyadic)>, usize)> = std::thread::scope(|scope| {
        let registry = &registry;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut rnd = schedule(seed.wrapping_add(t as u64).wrapping_add(1));
                    let mut acks = Vec::new();
                    let mut faults = 0;
                    for _ in 0..ops_per_thread {
                        let principal = rnd(PRINCIPALS);
                        let gamma = dyadic_charge(&mut rnd);
                        match registry.charge_exact(principal, gamma.clone()) {
                            Ok(()) => acks.push((principal, gamma)),
                            Err(DurableChargeError::Budget(_)) => {}
                            Err(DurableChargeError::Journal(_)) => {
                                // The journal is gone: this "process"
                                // stops serving (degrade-to-reject).
                                faults += 1;
                                break;
                            }
                        }
                    }
                    (acks, faults)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("charger thread panicked"))
            .collect()
    });

    drop(registry); // the kill

    let mut acknowledged: BTreeMap<u64, Dyadic> = BTreeMap::new();
    let mut journal_faults = 0;
    for (acks, faults) in per_thread {
        journal_faults += faults;
        for (principal, gamma) in acks {
            let entry = acknowledged.entry(principal).or_insert_with(Dyadic::zero);
            *entry = &*entry + &gamma;
        }
    }
    Outcome {
        handle,
        acknowledged,
        journal_faults,
    }
}

/// The core invariant check: recovery over the surviving bytes must see
/// at least every acknowledged charge, exactly on the dyadic lattice —
/// and running it twice must agree with itself.
fn check_no_under_report(outcome: &Outcome, plan_name: &str) {
    let bytes = outcome.handle.contents();
    let first = match replay::<PureDp, Dyadic>(&bytes) {
        Ok(r) => r,
        Err(err) => {
            // Recovery may only refuse a log that never acknowledged a
            // single charge (e.g. the header write itself tore): refusal
            // with acknowledged spend would lose money.
            assert!(
                outcome.acknowledged.is_empty(),
                "[{plan_name}] recovery refused ({err}) but \
                 {} principals have acknowledged spend",
                outcome.acknowledged.len()
            );
            return;
        }
    };

    let recovered: BTreeMap<u64, Dyadic> = first.spent.iter().cloned().collect();
    for (principal, acked) in &outcome.acknowledged {
        let got = recovered
            .get(principal)
            .cloned()
            .unwrap_or_else(Dyadic::zero);
        assert!(
            got >= *acked,
            "[{plan_name}] under-report for principal {principal}: \
             recovered {got:?} < acknowledged {acked:?}"
        );
    }

    // Idempotence: replay is a pure function of the bytes.
    let second = replay::<PureDp, Dyadic>(&bytes).expect("second replay must succeed");
    assert_eq!(
        first.spent, second.spent,
        "[{plan_name}] replay not idempotent"
    );
    assert_eq!(
        first.report, second.report,
        "[{plan_name}] replay not idempotent"
    );

    // And a recovered registry re-reports the same spend: recovery makes
    // no durable writes of its own.
    let (reg, _) = recover(outcome.handle.reopen()).expect("recover over replayable bytes");
    for (principal, spent) in &first.spent {
        assert_eq!(reg.spent_exact(*principal), *spent, "[{plan_name}]");
    }
    drop(reg);
    let (reg2, _) = recover(outcome.handle.reopen()).expect("recover twice");
    for (principal, spent) in &first.spent {
        assert_eq!(reg2.spent_exact(*principal), *spent, "[{plan_name}]");
    }
}

/// A torn write with every later append failing too — the strictest kill
/// model, where the storage itself goes away at the tear. (A lone
/// `torn_append` leaves storage willing to accept later appends; the
/// registry's failure latch must refuse them itself — that scenario gets
/// its own test and fault kind below.)
fn torn_kill(at: u64, keep: usize) -> FaultPlan {
    FaultPlan {
        torn_append: Some((at, keep)),
        fail_append_after: Some(at),
        ..FaultPlan::default()
    }
}

#[test]
fn fault_free_runs_recover_exactly() {
    for seed in 0..4 {
        let outcome = kill_mid_charge(FaultPlan::none(), 4, 100, seed);
        assert_eq!(outcome.journal_faults, 0);
        // With no faults the inequality tightens to equality.
        let bytes = outcome.handle.contents();
        let recovery = replay::<PureDp, Dyadic>(&bytes).expect("clean log");
        let recovered: BTreeMap<u64, Dyadic> = recovery.spent.into_iter().collect();
        assert_eq!(recovered, outcome.acknowledged, "seed {seed}");
        check_no_under_report(&outcome, "none");
    }
}

#[test]
fn append_failure_at_every_early_point_never_under_reports() {
    // Sweep the kill across the first 40 appends (header, charges and
    // checkpoints alike — cadence 7 puts several checkpoints in range).
    // A leader's batch append may fail partway through the batch: every
    // record already written in it is unsynced, every charge in the
    // batch must be refused, and the latch stops the rest.
    for at in 0..40 {
        let outcome = kill_mid_charge(FaultPlan::fail_append_after(at), 4, 60, at);
        assert!(
            outcome.journal_faults > 0,
            "fault at append {at} never fired"
        );
        check_no_under_report(&outcome, &format!("fail_append_after({at})"));
    }
}

#[test]
fn torn_write_at_every_offset_never_under_reports() {
    // Tear the 12th append at every possible prefix length: 0 bytes (a
    // pure kill) through the whole frame minus one checksum byte. A
    // charge frame is 8 + payload bytes; 64 covers charges and the
    // header, and clamps harmlessly beyond. The tear lands inside a
    // batch leader's write.
    for keep in 0..64 {
        let outcome = kill_mid_charge(torn_kill(12, keep), 4, 60, keep as u64);
        check_no_under_report(&outcome, &format!("torn_append(12, {keep})"));
    }
}

#[test]
fn bare_torn_write_latches_and_stays_recoverable() {
    // A lone torn append, with storage happy to accept appends after the
    // fragment. Without the failure latch, threads that had not yet seen
    // an error would keep journaling past the tear and the log would be
    // unrecoverable (mid-log damage) at restart — silently dropping every
    // charge after the fragment. The latch refuses them instead, so the
    // surviving log replays and the inequality holds.
    for keep in [0usize, 3, 9, 17, 40] {
        let outcome = kill_mid_charge(FaultPlan::torn_append(12, keep), 4, 60, keep as u64);
        assert!(
            outcome.journal_faults > 0,
            "tear at keep {keep} never fired"
        );
        check_no_under_report(&outcome, &format!("bare_torn_append(12, {keep})"));
    }
}

#[test]
fn fsync_failure_only_over_reports() {
    // Syncs keep failing from point `at` on: the failing batch fsync
    // refuses every charge in the batch and everything enqueued behind
    // it (degrade-to-reject), but their records may survive in the log,
    // so recovery may only drift upward from the acknowledged sums.
    for at in [1, 3, 10, 25] {
        let outcome = kill_mid_charge(FaultPlan::fail_sync_after(at), 4, 60, at);
        assert!(outcome.journal_faults > 0, "fault at sync {at} never fired");
        check_no_under_report(&outcome, &format!("fail_sync_after({at})"));
    }
}

// ---------------------------------------------------------------------------
// Contended group commit: the same kills with followers queued behind leaders
// ---------------------------------------------------------------------------

/// Chargers in the contended runs: twice the sweeps above, so a batch
/// leader routinely gathers followers and the faults land mid-batch.
const CONTENDED: usize = 8;

#[test]
fn group_commit_fault_free_runs_recover_exactly() {
    for seed in 0..4 {
        let outcome = kill_mid_charge(FaultPlan::none(), CONTENDED, 50, seed);
        assert_eq!(outcome.journal_faults, 0);
        let bytes = outcome.handle.contents();
        let recovery = replay::<PureDp, Dyadic>(&bytes).expect("clean log");
        let recovered: BTreeMap<u64, Dyadic> = recovery.spent.into_iter().collect();
        assert_eq!(recovered, outcome.acknowledged, "seed {seed}");
        check_no_under_report(&outcome, "group/none");
    }
}

#[test]
fn group_leader_append_failure_at_every_early_point_never_under_reports() {
    // The leader's batch append fails partway through a batch of queued
    // followers: every record already written in it is unsynced, every
    // charge in the batch must be refused, and the latch stops the rest.
    for at in 0..40 {
        let outcome = kill_mid_charge(FaultPlan::fail_append_after(at), CONTENDED, 30, at);
        assert!(
            outcome.journal_faults > 0,
            "fault at append {at} never fired"
        );
        check_no_under_report(&outcome, &format!("group/fail_append_after({at})"));
    }
}

#[test]
fn group_batch_fsync_failure_mid_queue_never_under_reports() {
    // The single batch fsync fails with followers still queued behind the
    // leader: the whole batch (and everything enqueued behind it) must be
    // refused, and any surviving appended-but-unsynced records may only
    // push recovery upward.
    for at in [1, 2, 3, 5, 10, 25] {
        let outcome = kill_mid_charge(FaultPlan::fail_sync_after(at), CONTENDED, 30, at);
        assert!(outcome.journal_faults > 0, "fault at sync {at} never fired");
        check_no_under_report(&outcome, &format!("group/fail_sync_after({at})"));
    }
}

#[test]
fn group_torn_leader_write_at_every_offset_never_under_reports() {
    // The torn sweep above with followers queued: the tear lands inside
    // a leader's multi-charge write.
    for keep in 0..64 {
        let outcome = kill_mid_charge(torn_kill(12, keep), CONTENDED, 30, keep as u64);
        check_no_under_report(&outcome, &format!("group/torn_append(12, {keep})"));
    }
}

#[test]
fn failed_batch_latches_the_journal_for_every_enqueued_charger() {
    // Header sync succeeds, the first batch fsync fails. Whatever subset
    // of the 8 chargers the leader gathered — and everyone who arrives
    // after — must see a journal refusal: zero acknowledgements, zero
    // in-memory spend, one latched journal.
    let outcome = kill_mid_charge(FaultPlan::fail_sync_after(1), 8, 5, 99);
    assert!(
        outcome.acknowledged.is_empty(),
        "charges acknowledged past a failed batch fsync: {:?}",
        outcome.acknowledged
    );
    assert_eq!(
        outcome.journal_faults, 8,
        "every charger must stop on the latch"
    );
    check_no_under_report(&outcome, "group/latch-whole-batch");
}

/// IEEE CRC-32, bit-serial — must match the journal's framing checksum.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

#[test]
fn kill_between_append_and_follower_wakeup_only_over_reports() {
    // The sharpest group-commit window: the leader has appended and
    // fsynced a follower's record (it IS durable) but the process dies
    // before the follower wakes to see its acknowledgement. We forge that
    // state by appending one well-formed, never-acknowledged charge frame
    // to a cleanly killed log. Recovery must count it — the one-sided
    // inequality's over-report direction, exactly.
    let outcome = kill_mid_charge(FaultPlan::none(), 4, 50, 7);
    let gamma = <Dyadic as Budget>::charge_from_f64(0.125);
    let mut payload = vec![0x01u8]; // KIND_CHARGE
    payload.extend_from_slice(&3u64.to_le_bytes());
    payload.extend_from_slice(&gamma.to_bytes());
    let mut raw = outcome.handle.reopen();
    use sampcert_core::JournalStorage;
    let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&payload);
    framed.extend_from_slice(&crc32(&payload).to_le_bytes());
    raw.append(&framed).expect("fault-free append");

    check_no_under_report(&outcome, "group/append-then-die");
    let recovery = replay::<PureDp, Dyadic>(&outcome.handle.contents()).expect("forged log");
    let recovered: BTreeMap<u64, Dyadic> = recovery.spent.into_iter().collect();
    let acked3 = outcome
        .acknowledged
        .get(&3)
        .cloned()
        .unwrap_or_else(Dyadic::zero);
    assert_eq!(
        recovered.get(&3).cloned().unwrap_or_else(Dyadic::zero),
        &acked3 + &gamma,
        "the durable-but-unacknowledged record must replay as charged"
    );
}

/// Zipf-ish hot/cold principal pick: principal `p` with probability
/// `2^-(p+1)` (principal 0 draws half the traffic), the tail clamped
/// into range.
fn skewed_principal(rnd: &mut impl FnMut(u64) -> u64) -> u64 {
    (rnd(u64::MAX).trailing_zeros() as u64).min(PRINCIPALS - 1)
}

proptest! {
    /// Randomized fault kind × fault point × tear length × schedule:
    /// the generalization of the swept tests above.
    #[test]
    fn recovery_never_under_reports(
        kind in 0u8..5,
        at in 0u64..50,
        keep in 0usize..80,
        seed in any::<u64>(),
    ) {
        let plan = match kind {
            0 => FaultPlan::none(),
            1 => FaultPlan::fail_append_after(at),
            2 => torn_kill(at, keep),
            3 => FaultPlan::torn_append(at, keep),
            _ => FaultPlan::fail_sync_after(at),
        };
        let outcome = kill_mid_charge(plan, 3, 40, seed);
        check_no_under_report(&outcome, &format!("kind {kind} at {at} keep {keep}"));
    }

    /// Concurrent charges under zipfian hot/cold skew never exceed any
    /// principal's allowance, and every principal's spend is exactly the
    /// sum of their acknowledged charges (no lost updates, no phantom
    /// spend) — the in-memory registry half of the robustness claim.
    #[test]
    fn skewed_concurrent_charges_balance_exactly(seed in any::<u64>()) {
        let registry: BudgetRegistry<PureDp, Dyadic> =
            BudgetRegistry::with_budget(<Dyadic as Budget>::budget_from_f64(PER_PRINCIPAL), SHARDS);
        let threads = 4;
        let per_thread: Vec<Vec<(u64, Dyadic)>> = std::thread::scope(|scope| {
            let registry = &registry;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut rnd = schedule(seed ^ (t as u64).wrapping_mul(0xD129_9CB4_AC5B_F2DD));
                        let mut acks = Vec::new();
                        for _ in 0..120 {
                            let principal = skewed_principal(&mut rnd);
                            let gamma = dyadic_charge(&mut rnd);
                            if registry.charge_exact(principal, gamma.clone()).is_ok() {
                                acks.push((principal, gamma));
                            }
                        }
                        acks
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("charger thread panicked"))
                .collect()
        });

        let mut acknowledged: BTreeMap<u64, Dyadic> = BTreeMap::new();
        for (principal, gamma) in per_thread.into_iter().flatten() {
            let entry = acknowledged.entry(principal).or_insert_with(Dyadic::zero);
            *entry = &*entry + &gamma;
        }
        let budget = <Dyadic as Budget>::budget_from_f64(PER_PRINCIPAL);
        for principal in 0..PRINCIPALS {
            let spent = registry.spent_exact(principal);
            let acked = acknowledged.remove(&principal).unwrap_or_else(Dyadic::zero);
            // Exact balance: admitted charges are all that is recorded.
            prop_assert_eq!(&spent, &acked, "principal {}", principal);
            // No-overspend, strictly on the lattice.
            prop_assert!(spent <= budget, "principal {} overspent: {:?}", principal, spent);
        }
        // The hot principal must actually have been hot enough to be
        // driven to refusal — otherwise the skew exercised nothing.
        prop_assert_eq!(registry.spent_exact(0), budget);
    }
}
