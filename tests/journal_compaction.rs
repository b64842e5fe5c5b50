//! Compaction crash suite: checkpoint-then-truncate via atomic replace
//! never loses acknowledged spend, no matter where the swap dies.
//!
//! Compaction rewrites the whole journal — header plus `SNAPSHOT`
//! records — into a staged file and swaps it into place with an atomic
//! rename (`JournalStorage::replace_with`). Because rename is atomic,
//! a crash anywhere in checkpoint → temp-write → rename → truncate
//! leaves exactly one of two observable logs: the **old** journal
//! (crash before the rename landed — staging writes, staging fsync and
//! the rename itself all collapse into this case) or the **new** one
//! (crash after). [`FaultPlan::fail_replace`] injects both outcomes;
//! the invariants are the journal's usual one-sided inequality plus one
//! sharper claim: a torn compaction must leave the *old* journal
//! byte-for-byte authoritative — the swap may not partially apply.

use proptest::prelude::*;
use sampcert_core::{
    replay, Budget, CompactionPolicy, DurableOptions, DurableRegistry, Dyadic, FaultPlan,
    FileStorage, JournalStorage, MemStorage, PureDp, RecoveryError, RecoveryReport, ReplaceFault,
};
use std::collections::BTreeMap;

const PER_PRINCIPAL: f64 = 4.0;
const SHARDS: usize = 4;

/// The per-principal allowance in the carrier.
fn allowance() -> Dyadic {
    <Dyadic as Budget>::budget_from_f64(PER_PRINCIPAL)
}

/// A fresh registry with the default options over empty `storage`.
fn create<S: JournalStorage>(storage: S) -> DurableRegistry<PureDp, Dyadic, S> {
    DurableRegistry::create_with_budget(allowance(), SHARDS, storage).unwrap()
}

/// A restart: recovery over `storage` with the default options.
fn recover<S: JournalStorage>(
    storage: S,
) -> Result<(DurableRegistry<PureDp, Dyadic, S>, RecoveryReport), RecoveryError> {
    DurableRegistry::open_with_options(allowance(), SHARDS, storage, DurableOptions::default())
}

/// Same xorshift schedule the crash-consistency suite uses.
fn schedule(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move |bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound.max(1)
    }
}

/// Runs a charge workload, returns the acknowledged per-principal sums.
fn run_workload(
    registry: &DurableRegistry<PureDp, Dyadic, MemStorage>,
    ops: usize,
    seed: u64,
) -> BTreeMap<u64, Dyadic> {
    let mut rnd = schedule(seed);
    let mut acked: BTreeMap<u64, Dyadic> = BTreeMap::new();
    for _ in 0..ops {
        let principal = rnd(6);
        let k = 3 + rnd(6);
        let gamma = <Dyadic as Budget>::charge_from_f64((0.5f64).powi(k as i32));
        if registry.charge_exact(principal, gamma.clone()).is_ok() {
            let entry = acked.entry(principal).or_insert_with(Dyadic::zero);
            *entry = &*entry + &gamma;
        }
    }
    acked
}

/// Recovery over `bytes` sees at least every acknowledged charge, and
/// twice over agrees with itself.
fn check_survivor(bytes: &[u8], acked: &BTreeMap<u64, Dyadic>, label: &str) {
    let first = replay::<PureDp, Dyadic>(bytes)
        .unwrap_or_else(|e| panic!("[{label}] survivor does not replay: {e}"));
    let recovered: BTreeMap<u64, Dyadic> = first.spent.iter().cloned().collect();
    for (principal, acked) in acked {
        let got = recovered
            .get(principal)
            .cloned()
            .unwrap_or_else(Dyadic::zero);
        assert!(
            got >= *acked,
            "[{label}] under-report for principal {principal}: \
             recovered {got:?} < acknowledged {acked:?}"
        );
    }
    let second = replay::<PureDp, Dyadic>(bytes).expect("second replay");
    assert_eq!(first.spent, second.spent, "[{label}] replay not idempotent");
    assert_eq!(
        first.report, second.report,
        "[{label}] replay not idempotent"
    );
}

#[test]
fn torn_compaction_leaves_the_old_journal_authoritative() {
    // KeepOld = the crash hit anywhere before the rename landed: staging
    // write, staging fsync, or the rename itself. The old journal must
    // survive untouched — same bytes, same replay.
    for seed in [1u64, 2, 3, 4] {
        let storage = MemStorage::new();
        let faulty = storage
            .clone()
            .with_plan(FaultPlan::fail_replace(0, ReplaceFault::KeepOld));
        let registry = create(faulty).with_checkpoint_every(7);
        let acked = run_workload(&registry, 80, seed);
        let before = storage.contents();

        let err = registry.compact_now().expect_err("injected replace fault");
        assert_eq!(err.op, "replace");
        // Byte-for-byte authoritative: the failed swap wrote nothing into
        // the live log.
        assert_eq!(
            storage.contents(),
            before,
            "[seed {seed}] failed swap mutated the old journal"
        );
        drop(registry);
        check_survivor(&before, &acked, &format!("keep-old seed {seed}"));
    }
}

#[test]
fn compaction_crash_after_rename_keeps_the_new_journal_whole() {
    // KeepNew = the rename landed but the process died before compaction
    // returned (e.g. in the parent-dir fsync or reopen). The compacted
    // log is the journal now, and it must already carry every
    // acknowledged charge.
    for seed in [5u64, 6] {
        let storage = MemStorage::new();
        let faulty = storage
            .clone()
            .with_plan(FaultPlan::fail_replace(0, ReplaceFault::KeepNew));
        let registry = create(faulty).with_checkpoint_every(7);
        let acked = run_workload(&registry, 80, seed);
        let err = registry.compact_now().expect_err("injected replace fault");
        assert_eq!(err.op, "replace");
        drop(registry);

        let survivor = storage.contents();
        check_survivor(&survivor, &acked, &format!("keep-new seed {seed}"));
        // The survivor is the compacted form: recovery equals the
        // acknowledged sums exactly (a snapshot has no unsynced tail).
        let recovery = replay::<PureDp, Dyadic>(&survivor).unwrap();
        let recovered: BTreeMap<u64, Dyadic> = recovery.spent.into_iter().collect();
        assert_eq!(recovered, acked, "seed {seed}");
    }
}

#[test]
fn mid_swap_failure_latches_until_restart() {
    // Whichever side survives, the live process cannot know — so the
    // journal latches and every later charge is refused without storage
    // traffic. A restart over the survivor serves again.
    let storage = MemStorage::new();
    let faulty = storage
        .clone()
        .with_plan(FaultPlan::fail_replace(0, ReplaceFault::KeepNew));
    let registry = create(faulty);
    let acked = run_workload(&registry, 40, 11);
    registry.compact_now().expect_err("injected replace fault");
    assert_eq!(registry.journal_error().map(|e| e.op), Some("replace"));
    assert!(registry.charge_exact(0, Dyadic::zero()).is_err());
    drop(registry);

    let (back, report) = recover(storage.reopen()).expect("survivor recovers");
    assert!(!report.torn_tail);
    for (principal, spent) in &acked {
        assert_eq!(back.spent_exact(*principal), *spent);
    }
    // And the recovered journal serves (and can compact) again.
    back.charge_exact(0, <Dyadic as Budget>::charge_from_f64(0.125))
        .unwrap();
    back.compact_now().unwrap();
}

#[test]
fn file_backed_compaction_survives_a_real_restart() {
    // The same swap through the real FileStorage path: temp file, fsync,
    // rename, parent-dir fsync, reopen — then a "restart" from the path.
    let dir = std::env::temp_dir().join(format!("sampcert-compact-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.wal");
    let _ = std::fs::remove_file(&path);

    let storage = FileStorage::open(&path).unwrap();
    let (registry, _) = DurableRegistry::<PureDp, Dyadic, _>::open_with_options(
        allowance(),
        SHARDS,
        storage,
        DurableOptions::default().compaction(CompactionPolicy::max_bytes(1)),
    )
    .unwrap();
    let mut acked: BTreeMap<u64, Dyadic> = BTreeMap::new();
    // max_bytes(1) kicks the background compactor after every
    // acknowledged charge — the harshest policy — so the log keeps being
    // rewritten down to snapshot size while charges continue.
    for i in 0..30u64 {
        let gamma = <Dyadic as Budget>::charge_from_f64(0.0625);
        registry.charge_exact(i % 5, gamma.clone()).unwrap();
        let entry = acked.entry(i % 5).or_insert_with(Dyadic::zero);
        *entry = &*entry + &gamma;
    }
    // Compaction is asynchronous now: wait for the compactor to absorb
    // the final kick (records reset, log back to snapshot size).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while registry.journal_records() != 0 || registry.journal_bytes() >= 1024 {
        assert!(
            std::time::Instant::now() < deadline,
            "compaction never caught up: {} bytes, {} records",
            registry.journal_bytes(),
            registry.journal_records()
        );
        std::thread::yield_now();
    }
    let compacted = registry.journal_bytes();
    drop(registry);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), compacted);

    let restarted = FileStorage::open(&path).unwrap();
    let (back, report) = recover(restarted).expect("compacted file recovers");
    assert!(!report.torn_tail);
    for (principal, spent) in &acked {
        assert_eq!(back.spent_exact(*principal), *spent);
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    /// Randomized workload × crash side × checkpoint cadence: compaction
    /// killed at an arbitrary point never under-reports, recovery is
    /// idempotent, and a pre-rename kill leaves the old bytes untouched.
    #[test]
    fn compaction_kill_never_under_reports(
        ops in 1usize..120,
        seed in any::<u64>(),
        keep_new in any::<bool>(),
        cadence in 1u64..12,
    ) {
        let outcome = if keep_new { ReplaceFault::KeepNew } else { ReplaceFault::KeepOld };
        let storage = MemStorage::new();
        let faulty = storage.clone().with_plan(FaultPlan::fail_replace(0, outcome));
        let registry = create(faulty).with_checkpoint_every(cadence);
        let acked = run_workload(&registry, ops, seed);
        let before = storage.contents();
        prop_assert!(registry.compact_now().is_err());
        drop(registry);

        let survivor = storage.contents();
        if !keep_new {
            prop_assert_eq!(&survivor, &before, "pre-rename kill must not touch the old log");
        }
        check_survivor(&survivor, &acked, &format!(
            "ops {ops} keep_new {keep_new} cadence {cadence}"
        ));
    }
}
