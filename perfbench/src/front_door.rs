//! `front_door`: the production request through the real front door.
//!
//! A unit-ε noised count (Laplace, scale 1: the fused sampler box) for a
//! zipfian principal among 10⁵, served by a per-principal durable session
//! with group commit, behind an `Ingress` and `AdmissionPolicy`, on a
//! `Runtime` with `nproc − 1` workers. The load generator is the
//! remaining thread and sends open loop: Poisson arrivals at a fixed
//! absolute rate, each request timed from when it was due. The hottest
//! principals exhaust their allowance, so a deterministic budget-refusal
//! path runs beside the serve path. Before each tenth of the open loop,
//! the same thread sends the same request back to back as one
//! closed-loop client, for `capacity_rps`.

use crate::gen::{poisson_offsets, schedule, zipfian_principal};
use crate::procfs;
use crate::report::{Outcome, Phase};
use crate::setup::{dyadic, err, write_book, Config, Res};
use crate::stats::{favourable, median, windowed_percentile};
use crate::storage::PageCacheStorage;
use crate::trace::{Trace, Tracer};
use sampcert_core::{
    AdmissionPolicy, DurableOptions, DurableRegistry, Dyadic, IngressGauge, Inline, PureDp,
    Request, Session, SessionError,
};
use sampcert_mechanisms::count_request;
use sampcert_rt::{block_on, Ingress, Runtime};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const PRINCIPALS: u64 = 100_000;
/// Spend every principal in the book already carries.
const BASE: f64 = 1.0 / 256.0;
/// Per-principal allowance: one unit-ε answer fits beside `BASE`, the
/// second is refused.
const ALLOWANCE: f64 = 2.0;
/// Open-loop arrival rate, requests per second.
const RATE: f64 = 5_000.0;
/// Ingress capacity, and the admission depth bound: 1.6 s of arrivals,
/// so a stall of the journal's filesystem delays requests rather than
/// shedding them.
const QUEUE: usize = 8192;
const DB_ROWS: u32 = 256;
/// Set-ups repeated in each round, beside the one that serves.
const SETUPS_PER_ROUND: usize = 2;
/// Closed-loop slices and open-loop segments alternate this many times,
/// so both sample the whole run: the host's speed drifts over seconds.
const ROUNDS: usize = 10;

type Door = Session<PureDp, Dyadic, DurableRegistry<PureDp, Dyadic, PageCacheStorage>, Inline>;
type CountReq = Request<PureDp, u32, i64>;

fn open_door(journal: &Path, seed: u64, allowance: Dyadic, gauge: IngressGauge) -> Res<Door> {
    let storage = PageCacheStorage::open(journal).map_err(err)?;
    Ok(Session::<PureDp>::builder()
        .exact()
        .registry_exact(allowance)
        .durable_with_options(storage, DurableOptions::default())
        .map_err(err)?
        .admission(
            AdmissionPolicy::open()
                .max_queue_depth(QUEUE)
                .shed_unservable(),
        )
        .ingress(gauge)
        .inline()
        .seeded(seed)
        .build_per_principal())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Served,
    Budget,
    Shed,
    QueueFull,
    Journal,
    Other,
    /// Refused by `Ingress::try_push`: the queue was full.
    DoorShed,
}

fn classify(e: &SessionError<Dyadic>) -> Kind {
    if e.as_budget().is_some() {
        Kind::Budget
    } else if e.as_shed().is_some() {
        Kind::Shed
    } else if e.as_queue_full().is_some() {
        Kind::QueueFull
    } else if e.as_journal().is_some() {
        Kind::Journal
    } else {
        Kind::Other
    }
}

struct Job {
    idx: u64,
    principal: u64,
    due: Instant,
    pushed: Instant,
}

struct Done {
    idx: u64,
    principal: u64,
    kind: Kind,
    answer: i64,
    due: Instant,
    done: Instant,
}

/// One runtime task: pop, admit, serve, count it `finished`, until the
/// queue closes.
async fn consume(
    queue: Ingress<Job>,
    door: Arc<Mutex<Door>>,
    req: Arc<CountReq>,
    db: Arc<Vec<u32>>,
    finished: Arc<AtomicU64>,
    mut tracer: Tracer,
) -> (Vec<Done>, Tracer) {
    let mut out = Vec::new();
    while let Some(job) = queue.pop() {
        let popped = tracer.on().then(Instant::now);
        let result = {
            let mut door = door.lock().expect("front door session poisoned");
            if tracer.on() {
                let t0 = Instant::now();
                let fut = door.answer_for_async(job.principal, &req, &db);
                let t1 = Instant::now();
                let r = block_on(fut);
                tracer.record("core.session.admit", Some("request"), job.idx, t0, t1);
                tracer.record(
                    "core.session.serve",
                    Some("request"),
                    job.idx,
                    t1,
                    Instant::now(),
                );
                r
            } else {
                block_on(door.answer_for_async(job.principal, &req, &db))
            }
        };
        let done = Instant::now();
        if let Some(popped) = popped {
            tracer.record(
                "rt.ingress.wait",
                Some("request"),
                job.idx,
                job.pushed,
                popped,
            );
            tracer.record("request", None, job.idx, job.due, done);
        }
        let (kind, answer) = match result {
            Ok(a) => (Kind::Served, a),
            Err(e) => (classify(&e), 0),
        };
        // A progress count only: the outcome itself returns through the
        // task's join, so nothing is published with it.
        finished.fetch_add(1, Ordering::Relaxed);
        out.push(Done {
            idx: job.idx,
            principal: job.principal,
            kind,
            answer,
            due: job.due,
            done,
        });
    }
    (out, tracer)
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_millis(2) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            std::hint::spin_loop();
        }
    }
}

pub fn run(cfg: &Config) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (open_secs, cap_secs, setups_per_round) = if cfg.mini {
        (0.6, 0.2, 0)
    } else {
        (cfg.seconds * 0.6, cfg.seconds * 0.4, SETUPS_PER_ROUND)
    };
    let allowance = dyadic(ALLOWANCE);
    let base = dyadic(BASE);
    let journal = cfg.work.join("front_door.journal");
    write_book(&journal, &allowance, PRINCIPALS, |_| base.clone())?;
    // The same book again, for the repeated set-ups: the live session
    // appends to the first.
    let setup_journal = cfg.work.join("front_door.setup.journal");
    write_book(&setup_journal, &allowance, PRINCIPALS, |_| base.clone())?;
    let workers = cfg.nproc.saturating_sub(1).max(1);

    // Set-up: a server start — replay the book, build the session, start
    // the runtime. This one serves; the rest, spread over the rounds, are
    // dropped again, and the median of all of them is reported.
    let server_start = |journal: &Path| -> Res<(f64, Ingress<Job>, Door, Runtime)> {
        let t0 = Instant::now();
        let queue: Ingress<Job> = Ingress::bounded(QUEUE);
        let door = open_door(journal, cfg.seed, allowance.clone(), queue.gauge())?;
        let runtime = Runtime::new(workers);
        Ok((t0.elapsed().as_secs_f64(), queue, door, runtime))
    };
    let (setup, queue, door, runtime) = server_start(&journal)?;
    let mut setups = vec![setup];

    // Inputs, all from the seed.
    let n = (RATE * open_secs) as usize;
    let offsets = poisson_offsets(cfg.seed ^ 0xA5A5_5A5A, RATE, n);
    let mut rnd = schedule(cfg.seed);
    let picks: Vec<u64> = (0..n)
        .map(|_| zipfian_principal(&mut rnd, PRINCIPALS))
        .collect();
    let mut rows = schedule(cfg.seed ^ 0x0DB);
    let db: Arc<Vec<u32>> = Arc::new((0..DB_ROWS).map(|_| rows(1 << 20) as u32).collect());
    let req: Arc<CountReq> = Arc::new(count_request::<PureDp, u32>(1, 1));

    // The closed loop: one client, an allowance nothing exhausts, on a
    // session started from the same book, so the registry — and with it
    // the cost of the journal's periodic snapshot — stays the same size
    // through the run.
    let cap_journal = cfg.work.join("front_door.capacity.journal");
    let cap_allowance = dyadic(f64::from(1u32 << 30));
    write_book(&cap_journal, &cap_allowance, PRINCIPALS, |_| base.clone())?;
    let mut cap_door = open_door(
        &cap_journal,
        cfg.seed ^ 1,
        cap_allowance,
        IngressGauge::new(),
    )?;
    let mut cap_rnd = schedule(cfg.seed ^ 0xC0FFEE);
    let (mut cap_sent, mut cap_served) = (0u64, 0u64);
    // The closed loop is timed in checkpoint cycles: each holds the same
    // number of charges and exactly one journal checkpoint, whatever the
    // phase the cycle starts at.
    let cycle = DurableOptions::default().checkpoint_every;
    let mut cycle_cpu_s = Vec::new();

    // The open loop.
    let door = Arc::new(Mutex::new(door));
    let finished = Arc::new(AtomicU64::new(0));
    let gauge = queue.gauge();
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            runtime.spawn(consume(
                queue.clone(),
                Arc::clone(&door),
                Arc::clone(&req),
                Arc::clone(&db),
                Arc::clone(&finished),
                Tracer::new(cfg.trace, cfg.epoch),
            ))
        })
        .collect();
    let mut gen = Tracer::new(cfg.trace, cfg.epoch);
    let mut late_us = Vec::with_capacity(n);
    let mut door_sheds = Vec::new();
    let mut depth_max = 0usize;
    let (mut next, mut pushed_total, mut open_wall) = (0usize, 0u64, 0.0f64);
    let segment = open_secs / ROUNDS as f64;
    let cpu0 = procfs::process_cpu_s();
    let gen_cpu0 = procfs::thread_cpu_s();
    for round in 0..ROUNDS {
        for _ in 0..setups_per_round {
            setups.push(server_start(&setup_journal)?.0);
        }

        // A closed-loop slice, while the open loop's queue is empty.
        let deadline = Instant::now() + Duration::from_secs_f64(cap_secs / ROUNDS as f64);
        let mut cycle_start = procfs::thread_cpu_s();
        while Instant::now() < deadline {
            for _ in 0..cycle {
                let p = zipfian_principal(&mut cap_rnd, PRINCIPALS);
                cap_sent += 1;
                cap_served += u64::from(block_on(cap_door.answer_for_async(p, &req, &db)).is_ok());
            }
            let cycle_end = procfs::thread_cpu_s();
            cycle_cpu_s.push(cycle_end - cycle_start);
            cycle_start = cycle_end;
        }

        // The open-loop segment: the schedule's arrivals due in this
        // round's share of it (the last round takes the rest), shifted to
        // start now, then drained.
        let from = Duration::from_secs_f64(segment * round as f64);
        let to = Duration::from_secs_f64(segment * (round + 1) as f64);
        let start = Instant::now() + Duration::from_millis(1);
        while next < n && (round + 1 == ROUNDS || offsets[next] < to) {
            let (i, principal) = (next, picks[next]);
            next += 1;
            let due = start + (offsets[i] - from);
            wait_until(due);
            let pushed = Instant::now();
            late_us.push((pushed - due).as_secs_f64() * 1e6);
            depth_max = depth_max.max(gauge.depth());
            let job = Job {
                idx: i as u64,
                principal,
                due,
                pushed,
            };
            match queue.try_push(job) {
                Ok(()) => pushed_total += 1,
                Err(shed) => door_sheds.push(Done {
                    idx: shed.item.idx,
                    principal: shed.item.principal,
                    kind: Kind::DoorShed,
                    answer: 0,
                    due,
                    done: pushed,
                }),
            }
            gen.record(
                "rt.ingress.push",
                Some("request"),
                i as u64,
                pushed,
                Instant::now(),
            );
        }
        while finished.load(Ordering::Relaxed) < pushed_total {
            std::thread::sleep(Duration::from_micros(50));
        }
        open_wall += start.elapsed().as_secs_f64();
    }
    queue.close();
    let mut done = door_sheds;
    let mut trace = Trace::default();
    trace.absorb(gen);
    for h in handles {
        let (d, t) = h.join();
        done.extend(d);
        trace.absorb(t);
    }
    // The workers' CPU: the generator thread also ran the closed loop.
    let cpu = procfs::process_cpu_s() - cpu0 - (procfs::thread_cpu_s() - gen_cpu0);
    drop(runtime);
    out.e2e.push(("setup_s", median(&setups).unwrap_or(0.0)));

    // Requests per second of the client's own CPU time, per cycle, at
    // the favourable decile: the rate one core sustains, not counting
    // time the hypervisor had the vCPU elsewhere.
    let rates: Vec<f64> = cycle_cpu_s.iter().map(|c| cycle as f64 / c).collect();
    let capacity = favourable(&rates, true).unwrap_or(f64::NAN);
    out.timing("capacity.cycle_rps", rates);
    out.phases.push(Phase {
        name: "capacity",
        sent: cap_sent,
        served: cap_served,
        refused: 0,
        failed: cap_sent - cap_served,
    });

    let mut kinds: HashMap<Kind, u64> = HashMap::new();
    for d in &done {
        *kinds.entry(d.kind).or_default() += 1;
    }
    let count = |k: Kind| kinds.get(&k).copied().unwrap_or(0);
    let served = count(Kind::Served);
    let refused = count(Kind::Budget) + count(Kind::Shed);
    let sent = n as u64;
    out.phases.push(Phase {
        name: "open_loop",
        sent,
        served,
        refused,
        failed: sent - served - refused,
    });
    // (due time into the schedule, latency from due) of served requests.
    let latency: Vec<(f64, f64)> = done
        .iter()
        .filter(|d| d.kind == Kind::Served)
        .map(|d| {
            (
                offsets[d.idx as usize].as_secs_f64(),
                (d.done - d.due).as_secs_f64() * 1e6,
            )
        })
        .collect();
    out.timing(
        "open_loop.latency_us",
        latency.iter().map(|l| l.1).collect(),
    );
    let late = out.timing("open_loop.gen_late_us", late_us);

    // Correctness: every requested principal's spend equals a sequential
    // replay of its served requests (unit ε each) on top of the book;
    // refused and shed requests spent nothing.
    let mut served_per: HashMap<u64, u64> = HashMap::new();
    for d in &done {
        let e = served_per.entry(d.principal).or_default();
        *e += u64::from(d.kind == Kind::Served);
    }
    let door = Arc::try_unwrap(door)
        .map_err(|_| "front door session still shared".to_string())?
        .into_inner()
        .map_err(err)?;
    let reg = door.accountant();
    let replay_ok = served_per
        .iter()
        .all(|(&p, &k)| reg.spent_exact(p) == &base + &dyadic(1.0).mul_u64(k));
    let mut probe = schedule(cfg.seed ^ 0x5EED);
    let untouched_ok = (0..1000)
        .map(|_| probe(PRINCIPALS))
        .filter(|p| !served_per.contains_key(p))
        .all(|p| reg.spent_exact(p) == base);
    out.checks
        .push(("front_door.spend_equals_served_replay", replay_ok));
    out.checks
        .push(("front_door.unrequested_spend_unchanged", untouched_ok));
    // A count of DB_ROWS rows plus Laplace(1) noise: beyond ±64 has
    // probability e⁻⁶⁴ per answer.
    let plausible = done
        .iter()
        .filter(|d| d.kind == Kind::Served)
        .all(|d| (d.answer - i64::from(DB_ROWS)).abs() <= 64);
    out.checks.push(("front_door.answers_plausible", plausible));
    drop(door);

    out.e2e.push(("capacity_rps", capacity));
    let windowed_e2e = [
        (
            "latency_p50_us",
            windowed_percentile(&latency, open_secs, 50.0),
        ),
        (
            "latency_p99_us",
            windowed_percentile(&latency, open_secs, 99.0),
        ),
    ];
    out.e2e
        .extend(windowed_e2e.iter().filter_map(|(k, v)| Some((*k, (*v)?))));
    out.e2e
        .push(("cpu_us_per_req", cpu * 1e6 / served.max(1) as f64));
    out.e2e.push(("refused_rate", refused as f64 / sent as f64));
    out.e2e.push(("charges_per_s", served as f64 / open_wall));
    // The worst stall, and when in the schedule it struck.
    if let Some(&(at, worst)) = latency.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
        out.notes.push(("front_door.max_latency_us", worst));
        out.notes.push(("front_door.max_latency_due_s", at));
    }
    out.notes.push(("front_door.rate_rps", RATE));
    out.notes.push(("front_door.workers", workers as f64));

    let error_rate = (sent - served - refused) as f64 / sent as f64;
    out.layers.push(("error_rate", error_rate));
    if let Some(l) = &late {
        out.layers.push(("harness.gen_late_us.p99", l.p99));
    }
    out.layers.push(("rt.ingress.depth_max", depth_max as f64));
    out.layers.push((
        "core.session.refusals.queue_full",
        (count(Kind::QueueFull) + count(Kind::DoorShed)) as f64,
    ));
    out.layers
        .push(("core.session.refusals.shed", count(Kind::Shed) as f64));
    out.layers
        .push(("core.session.refusals.budget", count(Kind::Budget) as f64));
    out.layers
        .push(("core.session.refusals.journal", count(Kind::Journal) as f64));
    if cfg.trace {
        let us = |v: Vec<f64>| v.into_iter().map(|x| x / 1e3).collect::<Vec<f64>>();
        if let Some(s) = out.timing(
            "core.session.admit_ns",
            trace.durations_ns("core.session.admit"),
        ) {
            out.layers.push(("core.session.admit_ns", s.p50));
        }
        if let Some(s) = out.timing(
            "core.session.serve_us",
            us(trace.durations_ns("core.session.serve")),
        ) {
            out.layers.push(("core.session.serve_us.p50", s.p50));
            out.layers.push(("core.session.serve_us.p99", s.p99));
        }
        if let Some(s) = out.timing("rt.ingress.push_ns", trace.durations_ns("rt.ingress.push")) {
            out.layers.push(("rt.ingress.push_ns", s.p50));
        }
        if let Some(s) = out.timing(
            "rt.ingress.wait_us",
            us(trace.durations_ns("rt.ingress.wait")),
        ) {
            out.layers.push(("rt.ingress.wait_us.p50", s.p50));
            out.layers.push(("rt.ingress.wait_us.p99", s.p99));
        }
    }
    out.trace = trace;
    // Deleted files drop their dirty pages: nothing of this run is left
    // to be written back under the next one.
    drop(cap_door);
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&cap_journal);
    let _ = std::fs::remove_file(&setup_journal);
    Ok(out)
}
