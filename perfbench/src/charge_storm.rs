//! `charge_storm`: the journal used for writes, then for reads.
//!
//! `nproc − 1` threads (one core is left to the background compactor)
//! call `DurableRegistry::charge_exact` with zipfian
//! picks against a book of 10⁶ principals, with group commit on and a
//! compaction policy that completes several compactions per run. Every
//! 64th principal of the book is already at its allowance, so a steady
//! share of charges is refused; the others have headroom no run can
//! spend. Then the registry is dropped and reopened, replaying the
//! journal. No noise is drawn: this workload isolates the journal and the
//! registry at scale.
//!
//! The journal is a page-cache file whose fsync is free, as on tmpfs: on
//! a shared virtual disk fsync latency swings by multiples for minutes at
//! a time, which would make every metric here a reading of the disk. The
//! ladder's `core.journal.disk_charge_us` measures real fsync.

use crate::gen::{schedule, zipfian_principal};
use crate::procfs;
use crate::report::{Outcome, Phase};
use crate::setup::{dyadic, err, write_book, Config, Res};
use crate::stats::{favourable, median, windowed_percentile};
use crate::storage::PageCacheStorage;
use crate::trace::Tracer;
use sampcert_core::{
    CompactionPolicy, DurableChargeError, DurableOptions, DurableRegistry, Dyadic, PureDp,
};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

const PRINCIPALS: u64 = 1_000_000;
const MINI_PRINCIPALS: u64 = 100_000;
const SHARDS: usize = 64;
/// Spend of an ordinary principal in the book.
const BASE: f64 = 1.0 / 256.0;
/// Allowance: 2²⁰, far beyond what a run can charge one principal.
const ALLOWANCE: f64 = 1_048_576.0;
/// Every `EXHAUSTED`-th principal of the book has spent its allowance.
const EXHAUSTED: u64 = 64;
/// Charge records between automatic compactions.
const COMPACT_EVERY: u64 = 8_000;
const SETUP_REPS: usize = 5;

type Book = DurableRegistry<PureDp, Dyadic, PageCacheStorage>;

fn options() -> DurableOptions {
    DurableOptions::default().compaction(CompactionPolicy::max_records(COMPACT_EVERY))
}

fn open(journal: &Path) -> Res<Book> {
    let storage = PageCacheStorage::open(journal).map_err(err)?;
    let (reg, _report) =
        DurableRegistry::open_with_options(dyadic(ALLOWANCE), SHARDS, storage, options())
            .map_err(err)?;
    Ok(reg)
}

/// A compaction, as the watcher saw it land.
struct Compaction {
    /// Time into the phase.
    at: f64,
    /// Process CPU seconds then.
    cpu_s: f64,
    /// Journal bytes right after it.
    size: f64,
}

/// One charger thread's record.
struct Charger {
    /// (time into the phase, µs) per charge.
    latency_us: Vec<(f64, f64)>,
    /// Time into the phase of each acknowledged charge.
    acked_at: Vec<f64>,
    /// Acknowledged charges: (principal, exponent k of γ = 2⁻ᵏ).
    acked: Vec<(u64, u32)>,
    refused: u64,
    failed: u64,
    tracer: Tracer,
}

fn charge_loop(
    reg: &Book,
    seed: u64,
    principals: u64,
    start: Instant,
    deadline: Instant,
    tracer: Tracer,
) -> Charger {
    let gammas: Vec<Dyadic> = (0..=8).map(|k| dyadic(0.5f64.powi(k))).collect();
    let mut rnd = schedule(seed);
    let mut c = Charger {
        latency_us: Vec::new(),
        acked_at: Vec::new(),
        acked: Vec::new(),
        refused: 0,
        failed: 0,
        tracer,
    };
    let mut req = 0u64;
    while Instant::now() < deadline {
        for _ in 0..16 {
            let p = zipfian_principal(&mut rnd, principals);
            let k = 3 + rnd(6) as u32;
            let t0 = Instant::now();
            let r = reg.charge_exact(p, gammas[k as usize].clone());
            let t1 = Instant::now();
            let at = (t0 - start).as_secs_f64();
            c.latency_us.push((at, (t1 - t0).as_secs_f64() * 1e6));
            c.tracer.record("core.journal.charge", None, req, t0, t1);
            req += 1;
            match r {
                Ok(()) => {
                    c.acked_at.push(at);
                    c.acked.push((p, k));
                }
                Err(DurableChargeError::Budget(_)) => c.refused += 1,
                Err(DurableChargeError::Journal(_)) => c.failed += 1,
            }
        }
    }
    c
}

pub fn run(cfg: &Config) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (principals, secs, reps) = if cfg.mini {
        (MINI_PRINCIPALS, 1.0, 1)
    } else {
        (PRINCIPALS, cfg.seconds, SETUP_REPS)
    };
    let allowance = dyadic(ALLOWANCE);
    let base = dyadic(BASE);
    let spend = |p: u64| {
        if p % EXHAUSTED == EXHAUSTED / 4 {
            allowance.clone()
        } else {
            base.clone()
        }
    };
    let journal = cfg.work.join("charge_storm.journal");
    write_book(&journal, &allowance, principals, spend)?;

    // Set-up: open the journal, replaying the book. Repeated, and the
    // median reported; the last one takes the storm.
    let mut setups = Vec::new();
    let mut reg = None;
    for _ in 0..reps {
        drop(reg.take());
        let t0 = Instant::now();
        reg = Some(open(&journal)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let reg = reg.expect("at least one set-up");
    out.e2e.push(("setup_s", median(&setups).unwrap_or(0.0)));

    // Writes: nproc − 1 closed-loop chargers, leaving a core to the
    // background compactor; this thread watches the journal size, whose
    // drops are compactions, and notes when each one landed and the
    // process CPU time then.
    let threads = cfg.nproc.saturating_sub(1).max(1) as u64;
    let io0 = procfs::io();
    let cpu0 = procfs::process_cpu_s();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let (chargers, compactions) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let reg = &reg;
                let seed = cfg.seed ^ t.wrapping_mul(0xD129_9CB4_AC5B_F2DD);
                let tracer = Tracer::new(cfg.trace, cfg.epoch);
                scope.spawn(move || charge_loop(reg, seed, principals, t0, deadline, tracer))
            })
            .collect();
        let mut compactions = Vec::new();
        let mut last = reg.journal_bytes();
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_millis(1));
            let now = reg.journal_bytes();
            if now < last {
                compactions.push(Compaction {
                    at: t0.elapsed().as_secs_f64(),
                    cpu_s: procfs::process_cpu_s(),
                    size: now as f64,
                });
            }
            last = now;
        }
        let chargers: Vec<Charger> = handles
            .into_iter()
            .map(|h| h.join().expect("charger thread panicked"))
            .collect();
        (chargers, compactions)
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = procfs::process_cpu_s() - cpu0;
    let io1 = procfs::io();
    let journal_bytes_live = reg.journal_bytes();

    let acked: u64 = chargers.iter().map(|c| c.acked.len() as u64).sum();
    let refused: u64 = chargers.iter().map(|c| c.refused).sum();
    let failed: u64 = chargers.iter().map(|c| c.failed).sum();
    let sent = acked + refused + failed;
    out.phases.push(Phase {
        name: "writes",
        sent,
        served: acked,
        refused,
        failed,
    });
    let latency: Vec<(f64, f64)> = chargers
        .iter()
        .flat_map(|c| c.latency_us.iter().copied())
        .collect();
    out.timing(
        "writes.charge_latency_us",
        latency.iter().map(|l| l.1).collect(),
    );

    // Reads: drop the registry (joining its compactor) and reopen.
    drop(reg);
    let file_bytes = std::fs::metadata(&journal).map_err(err)?.len();
    let mut tracer = Tracer::new(cfg.trace, cfg.epoch);
    let t = Instant::now();
    let back = open(&journal)?;
    let recovery = t.elapsed();
    tracer.record("core.journal.replay", None, 0, t, t + recovery);
    out.phases.push(Phase {
        name: "reads",
        sent: 1,
        served: 1,
        refused: 0,
        failed: 0,
    });

    // Correctness: recovered spend equals acknowledged spend, exactly,
    // for every charged principal and a sample of the rest.
    let mut extra: HashMap<u64, Dyadic> = HashMap::new();
    for c in &chargers {
        for &(p, k) in &c.acked {
            let e = extra.entry(p).or_insert_with(Dyadic::zero);
            *e = &*e + &dyadic(0.5f64.powi(k as i32));
        }
    }
    let charged_ok = extra
        .iter()
        .all(|(&p, e)| back.spent_exact(p) == &spend(p) + e);
    let mut probe = schedule(cfg.seed ^ 0x5EED);
    let sample_ok = (0..1000)
        .map(|_| probe(principals))
        .filter(|p| !extra.contains_key(p))
        .all(|p| back.spent_exact(p) == spend(p));
    out.checks
        .push(("charge_storm.recovered_equals_acknowledged", charged_ok));
    out.checks
        .push(("charge_storm.uncharged_spend_unchanged", sample_ok));
    out.checks.push(("charge_storm.some_refused", refused > 0));
    drop(back);
    // Deleted, its dirty pages are dropped rather than written back under
    // whatever runs next.
    let _ = std::fs::remove_file(&journal);

    // Rates and CPU per charge over each stretch between two compactions
    // (a stretch holds one compaction and the same number of charge
    // records), read at the favourable decile; the whole run's figures
    // when it had too few compactions.
    let sent_at: Vec<f64> = latency.iter().map(|l| l.0).collect();
    let acked_at: Vec<f64> = chargers
        .iter()
        .flat_map(|c| c.acked_at.iter().copied())
        .collect();
    let (mut capacity, mut charges, mut cpu_per) = (Vec::new(), Vec::new(), Vec::new());
    for w in compactions.windows(2) {
        let within =
            |ts: &[f64]| ts.iter().filter(|t| (w[0].at..w[1].at).contains(t)).count() as f64;
        let (n_sent, n_acked, span) = (within(&sent_at), within(&acked_at), w[1].at - w[0].at);
        capacity.push(n_sent / span);
        charges.push(n_acked / span);
        cpu_per.push((w[1].cpu_s - w[0].cpu_s) * 1e6 / n_sent.max(1.0));
    }
    out.notes
        .push(("charge_storm.compaction_periods", capacity.len() as f64));
    out.e2e.push((
        "capacity_rps",
        favourable(&capacity, true).unwrap_or(sent as f64 / wall),
    ));
    let windowed_e2e = [
        ("latency_p50_us", windowed_percentile(&latency, secs, 50.0)),
        ("latency_p99_us", windowed_percentile(&latency, secs, 99.0)),
    ];
    out.e2e
        .extend(windowed_e2e.iter().filter_map(|(k, v)| Some((*k, (*v)?))));
    out.e2e.push((
        "cpu_us_per_req",
        favourable(&cpu_per, false).unwrap_or(cpu * 1e6 / sent.max(1) as f64),
    ));
    out.e2e
        .push(("refused_rate", refused as f64 / sent.max(1) as f64));
    out.e2e.push((
        "charges_per_s",
        favourable(&charges, true).unwrap_or(acked as f64 / wall),
    ));
    out.notes.push(("charge_storm.threads", threads as f64));
    out.notes
        .push(("charge_storm.principals", principals as f64));
    out.notes
        .push(("charge_storm.journal_file_bytes", file_bytes as f64));
    out.notes.push((
        "charge_storm.journal_bytes_at_end",
        journal_bytes_live as f64,
    ));
    out.notes
        .push(("charge_storm.syscw", (io1.syscw - io0.syscw) as f64));
    out.notes
        .push(("charge_storm.wchar", (io1.wchar - io0.wchar) as f64));
    out.notes.push((
        "charge_storm.write_bytes",
        (io1.write_bytes - io0.write_bytes) as f64,
    ));

    let writes = (io1.syscw - io0.syscw).max(1) as f64;
    out.layers
        .push(("core.journal.charges_per_write", acked as f64 / writes));
    out.layers.push((
        "core.journal.bytes_per_charge",
        (io1.wchar - io0.wchar) as f64 / acked.max(1) as f64,
    ));
    let compacted_sizes: Vec<f64> = compactions.iter().map(|c| c.size).collect();
    out.layers
        .push(("core.journal.compactions", compacted_sizes.len() as f64));
    out.layers.push((
        "core.journal.live_bytes",
        median(&compacted_sizes).unwrap_or(journal_bytes_live as f64),
    ));
    out.layers.push((
        "core.journal.replay_mb_per_s",
        file_bytes as f64 / 1e6 / recovery.as_secs_f64(),
    ));
    out.layers
        .push(("recovery_ms", recovery.as_secs_f64() * 1e3));
    out.layers
        .push(("error_rate", failed as f64 / sent.max(1) as f64));
    out.trace.absorb(tracer);
    for c in chargers {
        out.trace.absorb(c.tracer);
    }
    Ok(out)
}
