//! The repository benchmark: three workloads driven through the serving
//! stack's public entry points, end-to-end metrics from an untraced run
//! and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload front_door --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every line but the last is a JSON report (host record, per-phase
//! counts, every timing with its sample count, the correctness checks).
//! The last line is `{"correct", "attempted", "failed", "metrics"}`; a
//! failed correctness check exits with status 1. See `README.md` for the
//! workloads and metrics.

mod batch_release;
mod charge_storm;
mod front_door;
mod gen;
mod host;
mod ladder;
mod metrics;
mod procfs;
mod report;
mod setup;
mod stats;
mod storage;
mod trace;

use report::{json_num, json_str, Outcome};
use setup::{Config, Res};
use std::path::{Path, PathBuf};
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["front_door", "batch_release", "charge_storm"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, cfg: &Config) -> Res<Outcome> {
    match name {
        "front_door" => front_door::run(cfg),
        "batch_release" => batch_release::run(cfg),
        "charge_storm" => charge_storm::run(cfg),
        _ => unreachable!("workload names are checked in parse_args"),
    }
}

/// Adds `(name, value)` pairs not already present.
fn merge(into: &mut Vec<(&'static str, f64)>, from: &[(&'static str, f64)]) {
    for (k, v) in from {
        if !into.iter().any(|(n, _)| n == k) {
            into.push((k, *v));
        }
    }
}

/// The final line: `wanted` metrics from `have`, with units.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    wanted: &[(&str, &str)],
    have: &[(&'static str, f64)],
) -> (bool, String) {
    let mut complete = true;
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = have.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            complete &= value.is_some_and(f64::is_finite);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value.unwrap_or(f64::NAN)),
                json_str(unit)
            )
        })
        .collect();
    let correct = correct && complete;
    (
        correct,
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            metrics.join(", ")
        ),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work =
        Path::new(".perfbench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = std::fs::create_dir_all(&work)
        .map_err(setup::err)
        .and_then(|()| bench(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs the benchmark; `Ok(correct)`.
fn bench(args: &Args, work: &Path) -> Res<bool> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: false,
        work: PathBuf::from(work),
        nproc,
        mini: false,
        epoch: Instant::now(),
    };
    let host = host::record(nproc, &[("journals", work)]);
    let header = format!(
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace
    );
    if !args.trace {
        let outcome = run_workload(&args.workload, &cfg)?;
        println!("{{{header}, \"run\": {}}}", outcome.json());
        let (correct, line) = result_line(
            outcome.correct(),
            outcome.attempted(),
            outcome.failed(),
            &metrics::E2E,
            &outcome.e2e,
        );
        println!("{line}");
        return Ok(correct);
    }

    // Traced: the layer ladder first (its memory probe wants a fresh
    // heap), then the workload untraced and traced for half the time
    // each — their difference is the tracing overhead — then short traced
    // probes of the other workloads for the layers only they exercise.
    let ladder = ladder::run(&Config {
        trace: true,
        ..cfg.clone()
    })?;
    let half = Config {
        seconds: args.seconds / 2.0,
        ..cfg.clone()
    };
    let untraced = run_workload(&args.workload, &half)?;
    let traced = run_workload(
        &args.workload,
        &Config {
            trace: true,
            ..half
        },
    )?;
    let overhead: Vec<(&'static str, f64)> = traced
        .e2e
        .iter()
        .filter_map(|(k, t)| {
            let u = untraced.e2e.iter().find(|(n, _)| n == k)?.1;
            Some((*k, t - u))
        })
        .collect();
    let mut layers = traced.layers.clone();
    let mut runs = vec![untraced, traced];
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        let probe = run_workload(
            other,
            &Config {
                trace: true,
                mini: true,
                ..cfg.clone()
            },
        )?;
        merge(&mut layers, &probe.layers);
        runs.push(probe);
    }
    merge(&mut layers, &ladder.layers);
    runs.push(ladder);

    let spans =
        Path::new(".perfbench_work").join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    runs[1]
        .trace
        .write_tsv(&spans, 200_000)
        .map_err(setup::err)?;
    let overhead: Vec<String> = overhead
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    let run_json: Vec<String> = runs.iter().map(Outcome::json).collect();
    println!(
        "{{{header}, \"trace_overhead\": {{{}}}, \"spans_file\": {}, \"runs\": [{}]}}",
        overhead.join(", "),
        json_str(&spans.to_string_lossy()),
        run_json.join(", ")
    );
    let (correct, line) = result_line(
        runs.iter().all(Outcome::correct),
        runs.iter().map(Outcome::attempted).sum(),
        runs.iter().map(Outcome::failed).sum(),
        &metrics::LAYERS,
        &layers,
    );
    println!("{line}");
    Ok(correct)
}
