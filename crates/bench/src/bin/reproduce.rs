//! Regenerates every figure of the paper's evaluation as plain-text
//! tables.
//!
//! ```text
//! reproduce [fig2|fig4|fig5|fig6|claims|arith|batch|analyze|all] [--samples N] [--full]
//!           [--label L] [--out P] [--deny-findings]
//! ```
//!
//! - `fig2`: two discrete Laplace densities (the ε intuition picture);
//! - `fig4`: Gaussian sampler runtime vs σ, five series;
//! - `fig5`: Fig. 4 plus the compiled (fused) path;
//! - `fig6`: random bytes consumed by the Algorithm-2 sampler vs σ
//!   (power-of-two spikes);
//! - `claims`: the quantitative claims of Section 4.2 (≥2× over
//!   `sample_dgauss`; optimized ≈ pointwise best; diffprivlib linear);
//! - `arith`, `batch`, `analyze`: write `BENCH_<target>.json` (or
//!   `--out P`); see each target's function;
//! - `all` (the default): `fig2` through `claims`.
//!
//! `--full` sweeps σ = 1..=50 as in the paper; the default sweep is a
//! subsample for quick runs. Results are deterministic (seeded PRG bytes).

use sampcert_bench::{
    arith_bench, batch_bench, entropy_sweep, ms_per_sample, print_table, runtime_sweep,
    GaussianImpl, Row,
};
use sampcert_samplers::pmf::laplace_pmf;
use std::time::Duration;

fn sigmas(full: bool) -> Vec<u64> {
    if full {
        (1..=50).collect()
    } else {
        vec![1, 2, 4, 8, 15, 16, 17, 25, 32, 33, 50]
    }
}

fn fig2() {
    println!("\n## Fig. 2 — two discrete Laplace distributions (t = 1), means 0 and 1");
    println!("{:>5}  {:>12}  {:>12}", "x", "Lap(0)", "Lap(1)");
    for x in -4i64..=4 {
        println!(
            "{:>5}  {:>12.6}  {:>12.6}",
            x,
            laplace_pmf(1.0, x),
            laplace_pmf(1.0, x - 1)
        );
    }
}

fn fig4(samples: usize, full: bool) {
    let rows = runtime_sweep(&GaussianImpl::FIG4, &sigmas(full), samples);
    print_table(
        "Fig. 4 — Gaussian sampler runtime (ms/sample) vs sigma",
        &rows,
    );
}

fn fig5(samples: usize, full: bool) {
    let rows = runtime_sweep(&GaussianImpl::FIG5, &sigmas(full), samples);
    print_table(
        "Fig. 5 — Fig. 4 series plus the compiled (fused) sampler",
        &rows,
    );
}

fn fig6(samples: usize, full: bool) {
    let s = if full {
        (1..=50).collect::<Vec<u64>>()
    } else {
        // Bracket the powers of two where the spikes live.
        vec![1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 50]
    };
    let rows = entropy_sweep(&s, samples);
    print_table(
        "Fig. 6 — average random bytes per sample, Algorithm 2 (uniform loop)",
        &rows,
    );
}

fn claims(samples: usize) {
    println!("\n## Section 4.2 — quantitative claims");
    let probe = [5u64, 10, 20, 30, 40, 50];

    // Claim 1: the deployed (extracted/compiled) SampCert sampler is ≥2×
    // faster than sample_dgauss. In this reproduction the deployment
    // artifact is the fused sampler; the interpreted tagless-final path is
    // the semantic reference and is reported alongside.
    let mut fused_ratios = Vec::new();
    let mut interp_ratios = Vec::new();
    for &s in &probe {
        let dgauss = ms_per_sample(GaussianImpl::SampleDgauss, s, samples);
        fused_ratios.push(dgauss / ms_per_sample(GaussianImpl::CompiledOptimized, s, samples));
        interp_ratios.push(dgauss / ms_per_sample(GaussianImpl::SampcertOptimized, s, samples));
    }
    let round2 = |v: &[f64]| {
        v.iter()
            .map(|r| (r * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    };
    let min_fused = fused_ratios.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "sample_dgauss / Compiled(Optimized) speedup over sigma {probe:?}: {:?} (min {:.2}x)",
        round2(&fused_ratios),
        min_fused
    );
    println!(
        "sample_dgauss / SampCert+Optimized (interpreted) over sigma {probe:?}: {:?}",
        round2(&interp_ratios)
    );

    // Claim 2: optimized ≈ pointwise min of the two fixed algorithms.
    let mut rows = Vec::new();
    for &s in &probe {
        let geo = ms_per_sample(GaussianImpl::SampcertGeometric, s, samples);
        let uni = ms_per_sample(GaussianImpl::SampcertUniform, s, samples);
        let opt = ms_per_sample(GaussianImpl::SampcertOptimized, s, samples);
        rows.push(Row {
            sigma: s,
            values: vec![
                ("Alg1(geometric)", geo),
                ("Alg2(uniform)", uni),
                ("Optimized", opt),
                ("min(Alg1,Alg2)", geo.min(uni)),
            ],
        });
    }
    print_table("Optimized vs pointwise best of the two loops", &rows);

    // Claim 3: diffprivlib runtime grows linearly in sigma.
    let d5 = ms_per_sample(GaussianImpl::Diffprivlib, 5, samples);
    let d50 = ms_per_sample(GaussianImpl::Diffprivlib, 50, samples);
    println!(
        "diffprivlib ms/sample: sigma=5 -> {d5:.6}, sigma=50 -> {d50:.6} (x{:.1}; linear growth expected ~10x)",
        d50 / d5
    );
}

/// Returns the value following `flag` in `args`, or `default` when the
/// flag is absent (or is the last argument).
fn flag_value<'a>(args: &'a [String], flag: &str, default: &'a str) -> &'a str {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map_or(default, std::string::String::as_str)
}

/// Merges `rows` into the labeled-runs document at `out` and writes it
/// back — the shared `--label`/`--out` workflow of every measurement
/// subcommand. Exits with status 1 when `out` is unwritable.
fn write_merged(schema: &str, out: &str, label: &str, rows: &[(&'static str, f64)]) {
    let existing = std::fs::read_to_string(out).ok();
    let doc = arith_bench::to_json_for_schema(schema, existing.as_deref(), label, rows);
    match std::fs::write(out, &doc) {
        Ok(()) => println!("\nwrote {out} (label: {label})"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the arithmetic micro-bench set and updates `BENCH_arith.json`.
///
/// `--label X` names the run (e.g. `baseline` vs `optimized`); `--out P`
/// overrides the output path. Runs under other labels already present in
/// the file are preserved — the measurement is merged in, and a
/// `speedup_vs_baseline` section is derived whenever a `baseline` run
/// exists — so measuring before and after a change never requires editing
/// the JSON by hand. The table is also printed to stdout.
fn arith(args: &[String]) {
    let label = flag_value(args, "--label", "current");
    let out = flag_value(args, "--out", "BENCH_arith.json");
    println!("\n## Arithmetic micro-benchmarks (ns/op, median of 7 batches)");
    let rows = arith_bench::measure_all(7, Duration::from_millis(20));
    for (name, ns) in &rows {
        println!("{name:>24}  {ns:>14.1}");
    }
    write_merged("sampcert-bench/arith-v2", out, label, &rows);
}

/// Runs the batched-serving micro-bench set and updates
/// `BENCH_batch.json` — batched vs per-draw Gaussian throughput at
/// σ ∈ {4, 64, 1024} plus accountant/ledger batch charging. Same labeled
/// merge workflow as [`arith`].
fn batch(args: &[String]) {
    let label = flag_value(args, "--label", "current");
    let out = flag_value(args, "--out", "BENCH_batch.json");
    println!("\n## Batched serving micro-benchmarks (ns/op, median of 7 batches)");
    let rows = batch_bench::measure_all(7, Duration::from_millis(20));
    for (name, ns) in &rows {
        println!("{name:>28}  {ns:>14.1}");
    }
    let per_vs_batched = |s: &str| {
        let get = |n: String| rows.iter().find(|(name, _)| *name == n).map(|(_, v)| *v);
        if let (Some(p), Some(b)) = (
            get(format!("gauss_sigma{s}_perdraw")),
            get(format!("gauss_sigma{s}_batched")),
        ) {
            println!(
                "sigma {s}: batched serves {:.2}x the per-draw throughput",
                p / b
            );
        }
    };
    for s in ["4", "64", "1024"] {
        per_vs_batched(s);
    }
    write_merged("sampcert-bench/batch-v1", out, label, &rows);
}

/// Runs the static timing-leak & entropy analysis over every registered
/// extracted program, prints the verdict table, writes the
/// `sampcert-extract/analyze-v1` JSON report, and (with `--deny-findings`)
/// exits 1 on any gate error — verdict/bound drift from the committed
/// registry expectations, or a static verdict the dynamic cross-checks
/// contradict. This is the CI gate for the static analysis layer.
fn analyze_cmd(args: &[String]) {
    use sampcert_extract::{analysis_report, report_to_json, Bound};

    let out = flag_value(args, "--out", "BENCH_analyze.json");
    let deny = args.iter().any(|a| a == "--deny-findings");

    println!("\n## Static timing-leak & entropy analysis (IR taint + interval bounds)");
    let rows = analysis_report();
    println!(
        "{:<24} {:<46} {:>7} {:>11} {:>13}",
        "program", "verdict", "bytes", "worst-case", "cross-checks"
    );
    let mut gate_errors = 0usize;
    for row in &rows {
        let worst = match row.bounds.worst_case {
            Bound::Finite(w) => w.to_string(),
            Bound::Unbounded => "unbounded".to_string(),
        };
        let checks = if row.errors.is_empty() { "ok" } else { "FAIL" };
        println!(
            "{:<24} {:<46} {:>7} {:>11} {:>13}",
            row.name,
            row.verdict.signature(),
            format!("{}..{}", row.sweep.min_bytes, row.sweep.max_bytes),
            worst,
            checks
        );
        for f in row.verdict.findings() {
            println!("    [{:>10}] {}", f.kind.token(), f.witness());
        }
        for e in &row.errors {
            gate_errors += 1;
            eprintln!("    GATE ERROR: {e}");
        }
    }
    let json = report_to_json(&rows);
    match std::fs::write(out, &json) {
        Ok(()) => println!(
            "\nwrote {out} ({} programs, {gate_errors} gate errors)",
            rows.len()
        ),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            std::process::exit(1);
        }
    }
    if deny && gate_errors > 0 {
        eprintln!("--deny-findings: {gate_errors} gate error(s)");
        std::process::exit(1);
    }
}

/// Every target, in the order the module-doc usage line lists them.
const TARGETS: &str = "fig2|fig4|fig5|fig6|claims|arith|batch|analyze|all";

/// The flags whose next argument is their value, never the target.
const VALUE_FLAGS: [&str; 3] = ["--samples", "--label", "--out"];

/// Picks the target: the first argument that is neither a flag nor a
/// flag's value, or `all` when there is none. A name outside
/// [`TARGETS`] yields the unknown-target message.
fn target(args: &[String]) -> Result<&str, String> {
    let mut rest = args.iter();
    let mut which = "all";
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            rest.next();
        } else if !arg.starts_with("--") {
            which = arg;
            break;
        }
    }
    if TARGETS.split('|').any(|t| t == which) {
        Ok(which)
    } else {
        Err(format!("unknown target `{which}`; expected {TARGETS}"))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let samples = flag_value(&args, "--samples", "")
        .parse()
        .unwrap_or(2_000usize);
    let which = target(&args).unwrap_or_else(|unknown| {
        eprintln!("{unknown}");
        std::process::exit(2);
    });

    println!(
        "# SampCert reproduction — evaluation tables (deterministic seeds, {samples} samples/point)"
    );
    match which {
        "fig2" => fig2(),
        "fig4" => fig4(samples, full),
        "fig5" => fig5(samples, full),
        "fig6" => fig6(samples * 2, full),
        "claims" => claims(samples),
        "arith" => arith(&args),
        "batch" => batch(&args),
        "analyze" => analyze_cmd(&args),
        // `all`, the only target left that `target` admits.
        _ => {
            fig2();
            fig4(samples, full);
            fig5(samples, full);
            fig6(samples * 2, full);
            claims(samples);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flag_values_are_skipped_and_unknown_targets_refused() {
        for line in [
            "--label x --out a.json fig2",
            "fig2 --label x --out a.json",
            "--samples 10 fig2 --full",
            "--full --out a.json fig2",
        ] {
            assert_eq!(target(&args(line)), Ok("fig2"), "{line}");
        }
        assert_eq!(target(&args("--samples 10 --label x")), Ok("all"));
        assert_eq!(target(&[]), Ok("all"));
        for name in ["x", "serve", "load"] {
            assert_eq!(
                target(&args(&format!("--out a.json {name}"))),
                Err(format!("unknown target `{name}`; expected {TARGETS}"))
            );
        }
        let usage = format!("//! reproduce [{TARGETS}]");
        assert!(include_str!("reproduce.rs").contains(&usage));
    }
}
