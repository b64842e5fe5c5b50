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
//!
//! Exit status: 0 on success, and also when the reader of stdout goes
//! away early (`reproduce fig6 | head -1`); 1 when `--out` cannot be
//! written or `analyze --deny-findings` finds gate errors; 2 for an
//! unknown target or flag, a flag without its value, or a `--samples`
//! that is not a positive whole number.

use sampcert_bench::{
    arith_bench, batch_bench, entropy_sweep, ms_per_sample, runtime_sweep, write_table,
    GaussianImpl, Row,
};
use sampcert_samplers::pmf::laplace_pmf;
use std::io::{self, Write};
use std::time::Duration;

fn sigmas(full: bool) -> Vec<u64> {
    if full {
        (1..=50).collect()
    } else {
        vec![1, 2, 4, 8, 15, 16, 17, 25, 32, 33, 50]
    }
}

fn fig2(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "\n## Fig. 2 — two discrete Laplace distributions (t = 1), means 0 and 1"
    )?;
    writeln!(out, "{:>5}  {:>12}  {:>12}", "x", "Lap(0)", "Lap(1)")?;
    for x in -4i64..=4 {
        writeln!(
            out,
            "{:>5}  {:>12.6}  {:>12.6}",
            x,
            laplace_pmf(1.0, x),
            laplace_pmf(1.0, x - 1)
        )?;
    }
    Ok(())
}

fn fig4(out: &mut dyn Write, samples: usize, full: bool) -> io::Result<()> {
    let rows = runtime_sweep(&GaussianImpl::FIG4, &sigmas(full), samples);
    write_table(
        out,
        "Fig. 4 — Gaussian sampler runtime (ms/sample) vs sigma",
        &rows,
    )
}

fn fig5(out: &mut dyn Write, samples: usize, full: bool) -> io::Result<()> {
    let rows = runtime_sweep(&GaussianImpl::FIG5, &sigmas(full), samples);
    write_table(
        out,
        "Fig. 5 — Fig. 4 series plus the compiled (fused) sampler",
        &rows,
    )
}

fn fig6(out: &mut dyn Write, samples: usize, full: bool) -> io::Result<()> {
    let s = if full {
        (1..=50).collect::<Vec<u64>>()
    } else {
        // Bracket the powers of two where the spikes live.
        vec![1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 50]
    };
    let rows = entropy_sweep(&s, samples);
    write_table(
        out,
        "Fig. 6 — average random bytes per sample, Algorithm 2 (uniform loop)",
        &rows,
    )
}

fn claims(out: &mut dyn Write, samples: usize) -> io::Result<()> {
    writeln!(out, "\n## Section 4.2 — quantitative claims")?;
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
    writeln!(
        out,
        "sample_dgauss / Compiled(Optimized) speedup over sigma {probe:?}: {:?} (min {:.2}x)",
        round2(&fused_ratios),
        min_fused
    )?;
    writeln!(
        out,
        "sample_dgauss / SampCert+Optimized (interpreted) over sigma {probe:?}: {:?}",
        round2(&interp_ratios)
    )?;

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
    write_table(out, "Optimized vs pointwise best of the two loops", &rows)?;

    // Claim 3: diffprivlib runtime grows linearly in sigma.
    let d5 = ms_per_sample(GaussianImpl::Diffprivlib, 5, samples);
    let d50 = ms_per_sample(GaussianImpl::Diffprivlib, 50, samples);
    writeln!(
        out,
        "diffprivlib ms/sample: sigma=5 -> {d5:.6}, sigma=50 -> {d50:.6} (x{:.1}; linear growth expected ~10x)",
        d50 / d5
    )
}

/// Merges `rows` into the labeled-runs document at `path` and writes it
/// back — the shared `--label`/`--out` workflow of every measurement
/// subcommand. Exits with status 1 when `path` is unwritable.
fn write_merged(
    out: &mut dyn Write,
    schema: &str,
    path: &str,
    label: &str,
    rows: &[(&'static str, f64)],
) -> io::Result<()> {
    let existing = std::fs::read_to_string(path).ok();
    let doc = arith_bench::to_json_for_schema(schema, existing.as_deref(), label, rows);
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
    writeln!(out, "\nwrote {path} (label: {label})")
}

/// Runs the arithmetic micro-bench set and updates `BENCH_arith.json`.
///
/// `--label X` names the run (e.g. `baseline` vs `optimized`); `--out P`
/// overrides the output path. Runs under other labels already present in
/// the file are preserved — the measurement is merged in, and a
/// `speedup_vs_baseline` section is derived whenever a `baseline` run
/// exists — so measuring before and after a change never requires editing
/// the JSON by hand. The table is also printed to stdout.
fn arith(out: &mut dyn Write, opts: &Opts) -> io::Result<()> {
    writeln!(
        out,
        "\n## Arithmetic micro-benchmarks (ns/op, median of 7 batches)"
    )?;
    let rows = arith_bench::measure_all(7, Duration::from_millis(20));
    for (name, ns) in &rows {
        writeln!(out, "{name:>24}  {ns:>14.1}")?;
    }
    let path = opts.out.as_deref().unwrap_or("BENCH_arith.json");
    write_merged(out, "sampcert-bench/arith-v2", path, &opts.label, &rows)
}

/// Runs the batched-serving micro-bench set and updates
/// `BENCH_batch.json` — batched vs per-draw Gaussian throughput at
/// σ ∈ {4, 64, 1024} plus accountant/ledger batch charging. Same labeled
/// merge workflow as [`arith`].
fn batch(out: &mut dyn Write, opts: &Opts) -> io::Result<()> {
    writeln!(
        out,
        "\n## Batched serving micro-benchmarks (ns/op, median of 7 batches)"
    )?;
    let rows = batch_bench::measure_all(7, Duration::from_millis(20));
    for (name, ns) in &rows {
        writeln!(out, "{name:>28}  {ns:>14.1}")?;
    }
    let get = |n: String| rows.iter().find(|(name, _)| *name == n).map(|(_, v)| *v);
    for s in ["4", "64", "1024"] {
        if let (Some(p), Some(b)) = (
            get(format!("gauss_sigma{s}_perdraw")),
            get(format!("gauss_sigma{s}_batched")),
        ) {
            writeln!(
                out,
                "sigma {s}: batched serves {:.2}x the per-draw throughput",
                p / b
            )?;
        }
    }
    let path = opts.out.as_deref().unwrap_or("BENCH_batch.json");
    write_merged(out, "sampcert-bench/batch-v1", path, &opts.label, &rows)
}

/// Runs the static timing-leak & entropy analysis over every registered
/// extracted program, prints the verdict table, writes the
/// `sampcert-extract/analyze-v1` JSON report, and (with `--deny-findings`)
/// exits 1 on any gate error — verdict/bound drift from the committed
/// registry expectations, or a static verdict the dynamic cross-checks
/// contradict. This is the CI gate for the static analysis layer.
fn analyze_cmd(out: &mut dyn Write, opts: &Opts) -> io::Result<()> {
    use sampcert_extract::{analysis_report, report_to_json, Bound};

    let path = opts.out.as_deref().unwrap_or("BENCH_analyze.json");
    writeln!(
        out,
        "\n## Static timing-leak & entropy analysis (IR taint + interval bounds)"
    )?;
    let rows = analysis_report();
    writeln!(
        out,
        "{:<24} {:<46} {:>7} {:>11} {:>13}",
        "program", "verdict", "bytes", "worst-case", "cross-checks"
    )?;
    let mut gate_errors = 0usize;
    for row in &rows {
        let worst = match row.bounds.worst_case {
            Bound::Finite(w) => w.to_string(),
            Bound::Unbounded => "unbounded".to_string(),
        };
        let checks = if row.errors.is_empty() { "ok" } else { "FAIL" };
        writeln!(
            out,
            "{:<24} {:<46} {:>7} {:>11} {:>13}",
            row.name,
            row.verdict.signature(),
            format!("{}..{}", row.sweep.min_bytes, row.sweep.max_bytes),
            worst,
            checks
        )?;
        for f in row.verdict.findings() {
            writeln!(out, "    [{:>10}] {}", f.kind.token(), f.witness())?;
        }
        for e in &row.errors {
            gate_errors += 1;
            eprintln!("    GATE ERROR: {e}");
        }
    }
    let json = report_to_json(&rows);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
    writeln!(
        out,
        "\nwrote {path} ({} programs, {gate_errors} gate errors)",
        rows.len()
    )?;
    if opts.deny_findings && gate_errors > 0 {
        eprintln!("--deny-findings: {gate_errors} gate error(s)");
        std::process::exit(1);
    }
    Ok(())
}

/// Every target, in the order the module-doc usage line lists them.
const TARGETS: &str = "fig2|fig4|fig5|fig6|claims|arith|batch|analyze|all";

/// The flags that take a value, and the ones that stand alone.
const VALUE_FLAGS: [&str; 3] = ["--samples", "--label", "--out"];
const SWITCHES: [&str; 2] = ["--full", "--deny-findings"];

/// A parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Opts {
    /// One of [`TARGETS`].
    target: &'static str,
    samples: usize,
    full: bool,
    label: String,
    /// `--out`; each measurement target has its own default file.
    out: Option<String>,
    deny_findings: bool,
}

/// Parses the arguments after the program name. The first argument that
/// is not a flag or a flag's value is the target (`all` when there is
/// none). Anything else is refused with a message naming the offending
/// argument: an unknown target or flag, a second target, a value flag
/// with no value, or a `--samples` that is not a positive whole number.
fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        target: "all",
        samples: 2_000,
        full: false,
        label: "current".to_string(),
        out: None,
        deny_findings: false,
    };
    let mut target = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--full" => opts.full = true,
            "--deny-findings" => opts.deny_findings = true,
            flag if VALUE_FLAGS.contains(&flag) => {
                let value = rest
                    .next()
                    .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
                match flag {
                    "--samples" => {
                        opts.samples = value.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                            format!(
                                "flag `--samples` expects a positive whole number, got `{value}`"
                            )
                        })?;
                    }
                    "--label" => opts.label.clone_from(value),
                    _ => opts.out = Some(value.clone()),
                }
            }
            flag if flag.starts_with("--") => {
                let known = [VALUE_FLAGS.as_slice(), SWITCHES.as_slice()].concat();
                return Err(format!(
                    "unknown flag `{flag}`; expected one of {}",
                    known.join(", ")
                ));
            }
            name => {
                if let Some(first) = target {
                    return Err(format!(
                        "unexpected argument `{name}`: the target is already `{first}`"
                    ));
                }
                let known = TARGETS.split('|').find(|t| *t == name);
                target = Some(
                    known.ok_or_else(|| format!("unknown target `{name}`; expected {TARGETS}"))?,
                );
            }
        }
    }
    if let Some(target) = target {
        opts.target = target;
    }
    Ok(opts)
}

/// Runs the selected target, writing every table to `out`.
fn run(out: &mut dyn Write, opts: &Opts) -> io::Result<()> {
    let (samples, full) = (opts.samples, opts.full);
    writeln!(
        out,
        "# SampCert reproduction — evaluation tables (deterministic seeds, {samples} samples/point)"
    )?;
    match opts.target {
        "fig2" => fig2(out),
        "fig4" => fig4(out, samples, full),
        "fig5" => fig5(out, samples, full),
        "fig6" => fig6(out, samples * 2, full),
        "claims" => claims(out, samples),
        "arith" => arith(out, opts),
        "batch" => batch(out, opts),
        "analyze" => analyze_cmd(out, opts),
        // `all`, the only target left that `parse` admits.
        _ => {
            fig2(out)?;
            fig4(out, samples, full)?;
            fig5(out, samples, full)?;
            fig6(out, samples * 2, full)?;
            claims(out, samples)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args).unwrap_or_else(|refusal| {
        eprintln!("{refusal}");
        std::process::exit(2);
    });
    let mut out = io::stdout().lock();
    match run(&mut out, &opts).and_then(|()| out.flush()) {
        Ok(()) => {}
        // The reader closed stdout early (`reproduce fig6 | head -1`): it
        // has every line it asked for, so stop here, quietly.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("could not write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn target(line: &str) -> Result<&'static str, String> {
        parse(&args(line)).map(|opts| opts.target)
    }

    #[test]
    fn flag_values_are_skipped_and_unknown_targets_refused() {
        for line in [
            "--label x --out a.json fig2",
            "fig2 --label x --out a.json",
            "--samples 10 fig2 --full",
            "--full --out a.json fig2",
        ] {
            assert_eq!(target(line), Ok("fig2"), "{line}");
        }
        assert_eq!(target("--samples 10 --label x"), Ok("all"));
        assert_eq!(target(""), Ok("all"));
        for name in ["x", "serve", "load"] {
            assert_eq!(
                target(&format!("--out a.json {name}")),
                Err(format!("unknown target `{name}`; expected {TARGETS}"))
            );
        }
        let usage = format!("//! reproduce [{TARGETS}]");
        assert!(include_str!("reproduce.rs").contains(&usage));
    }

    #[test]
    fn every_flag_lands_in_the_options() {
        let opts = parse(&args(
            "analyze --samples 7 --label ci --out a.json --full --deny-findings",
        ))
        .unwrap();
        assert_eq!(
            opts,
            Opts {
                target: "analyze",
                samples: 7,
                full: true,
                label: "ci".to_string(),
                out: Some("a.json".to_string()),
                deny_findings: true,
            }
        );
        let defaults = parse(&[]).unwrap();
        assert_eq!(
            (defaults.samples, defaults.label.as_str()),
            (2_000, "current")
        );
        assert_eq!((defaults.out, defaults.full), (None, false));
    }

    #[test]
    fn a_bad_samples_value_is_refused_naming_the_flag() {
        for value in ["x", "1.5", "-3", "0", "--full"] {
            let refusal = target(&format!("fig2 --samples {value}")).unwrap_err();
            assert_eq!(
                refusal,
                format!("flag `--samples` expects a positive whole number, got `{value}`")
            );
        }
        for flag in VALUE_FLAGS {
            assert_eq!(
                target(&format!("fig2 {flag}")),
                Err(format!("flag `{flag}` needs a value"))
            );
        }
    }

    #[test]
    fn unknown_and_misspelled_flags_are_refused_naming_the_flag() {
        for (line, flag) in [
            ("--bogus fig2", "--bogus"),
            ("fig2 --ful", "--ful"),
            // A misspelled value flag: refused by its own name, never read
            // as a target named after its value.
            ("--sample 10 fig6", "--sample"),
        ] {
            let refusal = target(line).unwrap_err();
            assert!(
                refusal.starts_with(&format!("unknown flag `{flag}`; expected one of --samples")),
                "{line}: {refusal}"
            );
        }
        assert_eq!(
            target("fig2 fig4"),
            Err("unexpected argument `fig4`: the target is already `fig2`".to_string())
        );
    }
}
