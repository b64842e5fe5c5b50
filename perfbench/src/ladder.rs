//! The layer ladder of a traced run: the workloads' request shapes, one
//! public call per rung, so each layer's cost is the difference between
//! adjacent rungs — raw sampler tier → `Mechanism::run_many` →
//! `Session::answer` → registry → journal (memory, page cache, disk) →
//! runtime round trip, plus the draw plane's single-answer cost and a
//! whole histogram release.

use crate::batch_release::Releases;
use crate::gen::{schedule, zipfian_principal};
use crate::procfs;
use crate::report::Outcome;
use crate::setup::{dyadic, err, Config, Res};
use crate::storage::{CountingSource, PageCacheStorage};
use crate::trace::Tracer;
use sampcert_arith::Nat;
use sampcert_core::{
    BudgetRegistry, DurableOptions, DurableRegistry, Dyadic, FileStorage, JournalStorage,
    MemStorage, PureDp, Request, Session, Zcdp,
};
use sampcert_mechanisms::count_request;
use sampcert_rt::{block_on, Runtime};
use sampcert_samplers::{discrete_gaussian_many_into, discrete_laplace_many_into, LaplaceAlg};
use sampcert_slang::SeededByteSource;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Each timed rung runs for about this long.
const RUNG: Duration = Duration::from_millis(300);
const BOOK: u64 = 1_000_000;
const DB_ROWS: u32 = 256;

/// Calls `f` in batches until `RUNG` has passed; returns the mean time
/// per call in nanoseconds, recording one span per batch.
fn per_call_ns(tracer: &mut Tracer, name: &'static str, batch: u64, mut f: impl FnMut()) -> f64 {
    f();
    let (mut calls, t0) = (0u64, Instant::now());
    while t0.elapsed() < RUNG {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        tracer.record(name, None, calls, t, Instant::now());
        calls += batch;
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// The three sampler shapes: the front door's Laplace(1), the
/// histogram's per-bin Gaussian (σ = 1024, fused tier) and the bounded
/// sum's wide Gaussian (σ = 1000·2¹⁷, compiled tier).
const SHAPES: [(&str, &str, u64); 3] = [
    (
        "samplers.draw_ns.laplace_t1",
        "samplers.bytes_per_draw.laplace_t1",
        0,
    ),
    (
        "samplers.draw_ns.gauss_hist",
        "samplers.bytes_per_draw.gauss_hist",
        1024,
    ),
    (
        "samplers.draw_ns.gauss_wide",
        "samplers.bytes_per_draw.gauss_wide",
        131_072_000,
    ),
];

fn sampler_rungs(cfg: &Config, tracer: &mut Tracer, out: &mut Outcome) {
    let one = Nat::one();
    for (draw_ns, bytes_per_draw, sigma) in SHAPES {
        let mut src = CountingSource {
            inner: SeededByteSource::new(cfg.seed),
            bytes: 0,
        };
        let sigma = Nat::from(sigma);
        let mut buf = Vec::with_capacity(1024);
        let mut draws = 0u64;
        let ns = per_call_ns(tracer, "samplers.many_into", 1, || {
            buf.clear();
            if sigma.is_zero() {
                discrete_laplace_many_into(
                    &one,
                    &one,
                    LaplaceAlg::Switched,
                    1024,
                    &mut src,
                    &mut buf,
                );
            } else {
                discrete_gaussian_many_into(
                    &sigma,
                    &one,
                    LaplaceAlg::Switched,
                    1024,
                    &mut src,
                    &mut buf,
                );
            }
            draws += 1024;
        });
        out.layers.push((draw_ns, ns / 1024.0));
        out.layers
            .push((bytes_per_draw, src.bytes as f64 / draws as f64));
    }
}

pub fn run(cfg: &Config) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(cfg.trace, cfg.epoch);
    let mut rnd = schedule(cfg.seed);
    let db: Vec<u32> = (0..DB_ROWS).map(|_| rnd(1 << 20) as u32).collect();

    // Registry at scale, first, while the heap is fresh: resident bytes
    // per principal of a 10⁶-principal book, then zipfian exact charges.
    let rss0 = procfs::rss_bytes();
    let registry: BudgetRegistry<PureDp, Dyadic> =
        BudgetRegistry::with_budget(dyadic(1_048_576.0), 64);
    let base = dyadic(1.0 / 256.0);
    for p in 0..BOOK {
        registry.apply_unchecked(p, &base);
    }
    let rss = procfs::rss_bytes().saturating_sub(rss0);
    out.layers.push((
        "core.registry.rss_bytes_per_principal",
        rss as f64 / BOOK as f64,
    ));
    let gamma = dyadic(1.0 / 64.0);
    let ns = per_call_ns(&mut tracer, "core.registry.charge_exact", 256, || {
        let p = zipfian_principal(&mut rnd, BOOK);
        let _ = registry.charge_exact(p, gamma.clone());
    });
    out.layers.push(("core.registry.charge_ns", ns));
    drop(registry);

    sampler_rungs(cfg, &mut tracer, &mut out);

    // The same shapes through `Mechanism::run_many_into`: today the
    // monadic tier (slang) serves them.
    let r = Releases::new(cfg.seed);
    let count = count_request::<PureDp, u32>(1, 1);
    let per_bin: Request<Zcdp, (), i64> = Request::noise(1024, 1);
    let mut src = SeededByteSource::new(cfg.seed);
    let mut buf = Vec::with_capacity(64);
    let n = 64;
    let ns = per_call_ns(&mut tracer, "core.mechanism.run_many", 1, || {
        buf.clear();
        count.mechanism().run_many_into(&db, n, &mut src, &mut buf);
    });
    out.layers
        .push(("core.mechanism.draw_ns.laplace_t1", ns / n as f64));
    let ns = per_call_ns(&mut tracer, "core.mechanism.run_many", 1, || {
        buf.clear();
        per_bin
            .mechanism()
            .run_many_into(&[], n, &mut src, &mut buf);
    });
    out.layers
        .push(("core.mechanism.draw_ns.gauss_hist", ns / n as f64));
    let ns = per_call_ns(&mut tracer, "core.mechanism.run_many", 1, || {
        buf.clear();
        r.wide
            .mechanism()
            .run_many_into(&r.sum_db, n, &mut src, &mut buf);
    });
    out.layers
        .push(("core.mechanism.draw_ns.gauss_wide", ns / n as f64));

    // `Session::answer` inline on an exact ledger: the front door's
    // request without registry, journal or runtime.
    let mut inline = Session::<PureDp>::builder()
        .exact()
        .ledger(1e12)
        .inline()
        .seeded(cfg.seed)
        .build();
    let ns = per_call_ns(&mut tracer, "core.session.answer", 64, || {
        let _ = inline.answer(&count, &db);
    });
    out.layers.push(("core.session.inline_ns", ns));

    // Durable charges from `nproc` concurrent chargers with group commit
    // on, over three storages: wall time per acknowledged charge, so the
    // disk rung shows what sharing an fsync saves.
    fn charge_ns<S: JournalStorage>(
        storage: S,
        cfg: &Config,
        tracer: &mut Tracer,
        name: &'static str,
    ) -> Res<f64> {
        let (reg, _) = DurableRegistry::<PureDp, Dyadic, S>::open_with_options(
            dyadic(1_048_576.0),
            8,
            storage,
            DurableOptions::default(),
        )
        .map_err(err)?;
        let gamma = dyadic(1.0 / 64.0);
        let t0 = Instant::now();
        let charges: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.nproc as u64)
                .map(|t| {
                    let (reg, gamma) = (&reg, &gamma);
                    let mut rnd = schedule(cfg.seed ^ t);
                    scope.spawn(move || {
                        let mut n = 0u64;
                        while t0.elapsed() < RUNG {
                            for _ in 0..16 {
                                let p = zipfian_principal(&mut rnd, 100_000);
                                let _ = reg.charge_exact(p, gamma.clone());
                            }
                            n += 16;
                        }
                        n
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("charger thread panicked"))
                .sum()
        });
        let end = Instant::now();
        tracer.record(name, None, 0, t0, end);
        Ok((end - t0).as_nanos() as f64 / charges as f64)
    }
    let ns = charge_ns(
        MemStorage::new(),
        cfg,
        &mut tracer,
        "core.journal.charge.mem",
    )?;
    out.layers.push(("core.journal.mem_charge_ns", ns));
    let page_cache = cfg.work.join("ladder.pagecache.journal");
    let storage = PageCacheStorage::open(&page_cache).map_err(err)?;
    let ns = charge_ns(storage, cfg, &mut tracer, "core.journal.charge.pagecache")?;
    out.layers.push(("core.journal.tmpfs_charge_us", ns / 1e3));
    let disk = cfg.work.join("ladder.disk.journal");
    let storage = FileStorage::open(&disk).map_err(err)?;
    let ns = charge_ns(storage, cfg, &mut tracer, "core.journal.charge.disk")?;
    out.layers.push(("core.journal.disk_charge_us", ns / 1e3));
    let _ = std::fs::remove_file(&page_cache);
    let _ = std::fs::remove_file(&disk);

    // Spawn + join of one answer task on the runtime.
    let runtime = Runtime::new(cfg.nproc.saturating_sub(1).max(1));
    let shared = Arc::new(Mutex::new(inline));
    let count = Arc::new(count);
    let db = Arc::new(db);
    let ns = per_call_ns(&mut tracer, "rt.runtime.roundtrip", 1, || {
        let (s, c, d) = (Arc::clone(&shared), Arc::clone(&count), Arc::clone(&db));
        let _ = runtime
            .spawn(async move {
                let mut s = s.lock().expect("ladder session poisoned");
                block_on(s.answer_async(&c, &d)).is_ok()
            })
            .join();
    });
    out.layers.push(("rt.runtime.roundtrip_us", ns / 1e3));
    drop(runtime);

    // One single-answer request on the nproc-lane draw plane.
    let mut pool = Session::<Zcdp>::builder()
        .exact()
        .ledger(1e12)
        .executor::<sampcert_rt::RtExecutor>(cfg.nproc)
        .seeded(cfg.seed)
        .build();
    let ns = per_call_ns(&mut tracer, "rt.pool.answer", 1, || {
        let _ = pool.answer(&r.mean, &r.sum_db);
    });
    out.layers.push(("rt.pool.single_answer_us", ns / 1e3));

    // A whole 1024-bin histogram through the mechanisms layer.
    let mut src = SeededByteSource::new(cfg.seed);
    let ns = per_call_ns(&mut tracer, "mechanisms.histogram.run", 1, || {
        let _ = r.hist.mechanism().run(&r.hist_db, &mut src);
    });
    out.layers
        .push(("mechanisms.histogram.answer_ms", ns / 1e6));

    out.trace.absorb(tracer);
    Ok(out)
}
