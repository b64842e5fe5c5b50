//! `batch_release`: an analyst's offline releases.
//!
//! One closed-loop client on a session with an exact `Dyadic` ledger and
//! `RtExecutor(nproc)` draw lanes, cycling through three requests:
//!
//! - a 1024-bin zCDP histogram (per-bin σ = 1024, inside the fused box);
//! - a zCDP bounded sum with σ > 2²⁶ (compiled-tier parameters), served
//!   with `answer_many`;
//! - `MEANS` single-answer noised means, small enough that the draw
//!   plane's per-batch overhead dominates them.
//!
//! Latency percentiles are over every request the analyst sends. Each
//! analyst session's budget pays for exactly `CYCLES` cycles; the
//! next request is refused and the analyst starts a new session. The
//! refusal rate is therefore fixed by construction, and every session's
//! final spend is checked against the served requests.

use crate::procfs;
use crate::report::{Outcome, Phase};
use crate::setup::{err, Config, Res};
use crate::stats::{median, windowed_percentile, windowed_rate};
use crate::trace::Tracer;
use sampcert_core::{Budget, Dyadic, Ledger, Request, Session, Zcdp};
use sampcert_mechanisms::{histogram_request, mean_request, noised_bounded_sum, Bins};
use sampcert_rt::RtExecutor;
use std::time::Instant;

const BINS: usize = 1024;
const HIST_ROWS: usize = 4096;
const SUM_ROWS: usize = 1024;
/// Answers per bounded-sum request.
const WIDE_N: usize = 16;
/// Single-answer means per cycle: enough samples for a steady p99.
const MEANS: u64 = 8;
/// Cycles one analyst session's budget pays for.
const CYCLES: u64 = 8;
const SETUP_REPS: usize = 9;

type Analyst = Session<Zcdp, Dyadic, Ledger<Zcdp, Dyadic>, RtExecutor>;

/// The three request kinds and their inputs.
pub struct Releases {
    pub hist: Request<Zcdp, u32, Vec<i64>>,
    pub wide: Request<Zcdp, i64, i64>,
    pub mean: Request<Zcdp, i64, (i64, i64)>,
    pub hist_db: Vec<u32>,
    pub sum_db: Vec<i64>,
}

impl Releases {
    pub fn new(seed: u64) -> Releases {
        let bins = Bins::new(BINS, |v: &u32| *v as usize % BINS);
        let mut rnd = crate::gen::schedule(seed ^ 0xB47C);
        Releases {
            // Per-bin noise σ = 1024 (ρ = 2⁻²¹ per bin).
            hist: histogram_request::<Zcdp, u32>(&bins, 1, 1),
            // Sensitivity 1000 at ρ₁/ρ₂ = 2⁻¹⁷: σ = 1000·2¹⁷ > 2²⁶.
            wide: Request::from_private(
                &noised_bounded_sum::<Zcdp>(0, 1000, 1, 1 << 17),
                "wide-sum",
            ),
            mean: mean_request::<Zcdp>(0, 1000, 1, 4),
            hist_db: (0..HIST_ROWS).map(|_| rnd(1 << 20) as u32).collect(),
            sum_db: (0..SUM_ROWS).map(|_| rnd(1001) as i64).collect(),
        }
    }
}

/// The exact ledger charge of `n` answers of `req`, as the ledger
/// composes it.
fn charge_of<T: 'static, U: sampcert_slang::Value>(req: &Request<Zcdp, T, U>, n: u64) -> Dyadic {
    <Dyadic as Budget>::compose_n::<Zcdp>(
        &<Dyadic as Budget>::charge_from_f64(req.gamma_unit()),
        n * req.units(),
    )
}

fn cycle_cost(r: &Releases) -> Dyadic {
    let parts = [
        charge_of(&r.hist, 1),
        charge_of(&r.wide, WIDE_N as u64),
        charge_of(&r.mean, MEANS),
    ];
    parts.iter().fold(Dyadic::zero(), |acc, c| {
        <Dyadic as Budget>::compose::<Zcdp>(&acc, c)
    })
}

fn analyst(seed: u64, session: u64, budget: &Dyadic, lanes: usize) -> Analyst {
    Session::<Zcdp>::builder()
        .exact()
        .ledger_exact(budget.clone())
        .executor::<RtExecutor>(lanes)
        .seeded(seed.wrapping_mul(0x9E37_79B9).wrapping_add(session))
        .build()
}

/// One cycle's answers, for the same-seed rerun check.
type CycleAnswers = (Vec<i64>, Vec<i64>, Vec<(i64, i64)>);

fn first_cycle(a: &mut Analyst, r: &Releases) -> Res<CycleAnswers> {
    Ok((
        a.answer(&r.hist, &r.hist_db).map_err(err)?,
        a.answer_many(&r.wide, &r.sum_db, WIDE_N).map_err(err)?,
        (0..MEANS)
            .map(|_| a.answer(&r.mean, &r.sum_db).map_err(err))
            .collect::<Res<_>>()?,
    ))
}

pub fn run(cfg: &Config) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (secs, reps) = if cfg.mini {
        (0.8, 1)
    } else {
        (cfg.seconds, SETUP_REPS)
    };
    let lanes = cfg.nproc;

    // Set-up: the time to an analyst's first released cycle — build the
    // requests and a session, serve one cycle. Repeated on throwaway
    // sessions, and the median reported.
    let mut setups = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = Releases::new(cfg.seed);
        let mut a = analyst(cfg.seed, u64::MAX, &cycle_cost(&r), lanes);
        first_cycle(&mut a, &r)?;
        setups.push(t0.elapsed().as_secs_f64());
    }
    out.e2e.push(("setup_s", median(&setups).unwrap_or(0.0)));
    let r = Releases::new(cfg.seed);
    let budget = cycle_cost(&r).mul_u64(CYCLES);
    let mut a = analyst(cfg.seed, 0, &budget, lanes);

    let mut tracer = Tracer::new(cfg.trace, cfg.epoch);
    let (mut sent, mut served, mut refused, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let mut hist_ms = Vec::new();
    // (time into the phase, µs) of every served request, and when each
    // completed. Eight in ten requests are single answers, so the median
    // is theirs; the top decile is the histograms, so p99 is the big
    // release's tail.
    let mut latency = Vec::new();
    let mut completions = Vec::new();
    let (mut draws, mut sessions, mut spend_ok) = (0u64, 1u64, true);
    let mut expected = Dyadic::zero();
    let mut first: Option<CycleAnswers> = None;
    // A histogram draws once per bin, a sum once, a mean twice.
    let draws_per_cycle = (BINS + WIDE_N) as u64 + 2 * MEANS;
    let cpu0 = procfs::process_cpu_s();
    let t0 = Instant::now();
    let deadline = t0 + std::time::Duration::from_secs_f64(secs);
    let mut req_id = 0u64;
    while Instant::now() < deadline {
        // One cycle, or the refusal that ends this analyst's session.
        let t = Instant::now();
        let hist = a.answer(&r.hist, &r.hist_db);
        let hist_end = Instant::now();
        tracer.record("core.session.answer.hist", None, req_id, t, hist_end);
        sent += 1;
        req_id += 1;
        let hist = match hist {
            Ok(h) => h,
            Err(e) if e.as_budget().is_some() => {
                refused += 1;
                spend_ok &= a.accountant().spent_exact() == &expected && expected == budget;
                sessions += 1;
                a = analyst(cfg.seed, sessions - 1, &budget, lanes);
                expected = Dyadic::zero();
                continue;
            }
            Err(_) => {
                failed += 1;
                continue;
            }
        };
        served += 1;
        completions.push((hist_end - t0).as_secs_f64());
        latency.push(((t - t0).as_secs_f64(), (hist_end - t).as_secs_f64() * 1e6));
        hist_ms.push((hist_end - t).as_secs_f64() * 1e3);
        expected = &expected + &charge_of(&r.hist, 1);

        let t = Instant::now();
        let wide = a.answer_many(&r.wide, &r.sum_db, WIDE_N);
        let wide_end = Instant::now();
        tracer.record("core.session.answer_many.wide", None, req_id, t, wide_end);
        sent += 1;
        req_id += 1;
        let wide_ok = wide.as_ref().is_ok_and(|w| w.len() == WIDE_N);
        served += u64::from(wide_ok);
        failed += u64::from(!wide_ok);
        if wide_ok {
            completions.push((wide_end - t0).as_secs_f64());
            latency.push(((t - t0).as_secs_f64(), (wide_end - t).as_secs_f64() * 1e6));
            expected = &expected + &charge_of(&r.wide, WIDE_N as u64);
        }

        let mut means = Vec::new();
        for _ in 0..MEANS {
            let t = Instant::now();
            let mean = a.answer(&r.mean, &r.sum_db);
            let mean_end = Instant::now();
            tracer.record("core.session.answer.mean", None, req_id, t, mean_end);
            sent += 1;
            req_id += 1;
            match mean {
                Ok(m) => {
                    served += 1;
                    completions.push((mean_end - t0).as_secs_f64());
                    latency.push(((t - t0).as_secs_f64(), (mean_end - t).as_secs_f64() * 1e6));
                    expected = &expected + &charge_of(&r.mean, 1);
                    means.push(m);
                }
                Err(_) => failed += 1,
            }
        }
        draws += draws_per_cycle;
        if sessions == 1 && first.is_none() {
            if let Ok(w) = wide {
                first = Some((hist, w, means));
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu = procfs::process_cpu_s() - cpu0;
    out.phases.push(Phase {
        name: "closed_loop",
        sent,
        served,
        refused,
        failed,
    });

    // Correctness: the live session's spend so far, and a same-seed rerun
    // of the first cycle releasing identical answers.
    spend_ok &= a.accountant().spent_exact() == &expected;
    out.checks
        .push(("batch_release.spend_equals_served_gamma", spend_ok));
    let mut again = analyst(cfg.seed, 0, &budget, lanes);
    let rerun_ok = first.is_some() && first == Some(first_cycle(&mut again, &r)?);
    out.checks
        .push(("batch_release.same_seed_same_answers", rerun_ok));

    out.timing(
        "closed_loop.request_latency_us",
        latency.iter().map(|l| l.1).collect(),
    );
    let hist = out.timing("closed_loop.histogram_ms", hist_ms);
    // One charge per served request: the two rates coincide here.
    let rate = windowed_rate(&completions, secs);
    let windowed_e2e = [
        ("capacity_rps", rate),
        ("latency_p50_us", windowed_percentile(&latency, secs, 50.0)),
        ("latency_p99_us", windowed_percentile(&latency, secs, 99.0)),
        ("charges_per_s", rate),
    ];
    out.e2e
        .extend(windowed_e2e.iter().filter_map(|(k, v)| Some((*k, (*v)?))));
    out.e2e
        .push(("cpu_us_per_req", cpu * 1e6 / served.max(1) as f64));
    out.e2e
        .push(("refused_rate", refused as f64 / sent.max(1) as f64));
    out.notes.push(("batch_release.sessions", sessions as f64));
    out.notes.push(("batch_release.lanes", lanes as f64));

    out.layers.push(("draws_per_s", draws as f64 / wall));
    if let Some(h) = &hist {
        out.layers.push(("release_p50_ms", h.p50));
    }
    out.layers
        .push(("error_rate", failed as f64 / sent.max(1) as f64));
    out.trace.absorb(tracer);
    Ok(out)
}
