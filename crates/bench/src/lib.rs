//! # sampcert-bench
//!
//! The measurement harness that regenerates the paper's evaluation
//! (Section 4.2 and Appendix C): every figure's series as plain-text
//! tables, machine-independent entropy measurements, and the qualitative
//! claims (≥2× over `sample_dgauss`, optimized = best-of-both, linearity
//! of diffprivlib, power-of-two spikes).
//!
//! The `reproduce` binary prints the series; the Criterion benches under
//! `benches/` provide statistically disciplined timings of the same
//! configurations.

use sampcert_arith::{Nat, Rat};
use sampcert_baselines::{sample_dgauss, DiffprivlibGaussian};
use sampcert_samplers::{discrete_gaussian, FusedGaussian, LaplaceAlg};
use sampcert_slang::{ByteSource, CountingByteSource, Sampling, SeededByteSource};
use std::io::{self, Write};
use std::time::Instant;

pub mod arith_bench;
pub mod batch_bench;

/// The five-plus-one sampler configurations of Figs. 4 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GaussianImpl {
    /// Canonne et al.'s reference implementation (port): "sample_dgauss".
    SampleDgauss,
    /// diffprivlib's float/geometric sampler.
    Diffprivlib,
    /// SampCert sampler with the geometric Laplace loop.
    SampcertGeometric,
    /// SampCert sampler with the uniform Laplace loop.
    SampcertUniform,
    /// SampCert sampler with the runtime switch ("Optimized").
    SampcertOptimized,
    /// The fused fast path ("Compiled (Optimized)", Fig. 5 only).
    CompiledOptimized,
}

impl GaussianImpl {
    /// The series present in Fig. 4.
    pub const FIG4: [GaussianImpl; 5] = [
        GaussianImpl::SampleDgauss,
        GaussianImpl::Diffprivlib,
        GaussianImpl::SampcertGeometric,
        GaussianImpl::SampcertUniform,
        GaussianImpl::SampcertOptimized,
    ];

    /// The series present in Fig. 5 (Fig. 4 plus the compiled path).
    pub const FIG5: [GaussianImpl; 6] = [
        GaussianImpl::SampleDgauss,
        GaussianImpl::Diffprivlib,
        GaussianImpl::SampcertGeometric,
        GaussianImpl::SampcertUniform,
        GaussianImpl::SampcertOptimized,
        GaussianImpl::CompiledOptimized,
    ];

    /// The legend label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            GaussianImpl::SampleDgauss => "sample_dgauss",
            GaussianImpl::Diffprivlib => "diffprivlib",
            GaussianImpl::SampcertGeometric => "SampCert+Alg1(geometric)",
            GaussianImpl::SampcertUniform => "SampCert+Alg2(uniform)",
            GaussianImpl::SampcertOptimized => "SampCert+Optimized",
            GaussianImpl::CompiledOptimized => "Compiled(Optimized)",
        }
    }

    /// Builds a boxed sampler closure for integer σ.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is zero.
    pub fn build(&self, sigma: u64) -> Box<dyn FnMut(&mut dyn ByteSource) -> i64> {
        assert!(sigma > 0, "sigma must be positive");
        match self {
            GaussianImpl::SampleDgauss => {
                let sigma2 = Rat::from_ratio(sigma * sigma, 1);
                Box::new(move |src| sample_dgauss(&sigma2, src))
            }
            GaussianImpl::Diffprivlib => {
                let g = DiffprivlibGaussian::new(sigma as f64);
                Box::new(move |src| g.sample(src))
            }
            GaussianImpl::SampcertGeometric => {
                let prog = discrete_gaussian::<Sampling>(
                    &Nat::from(sigma),
                    &Nat::one(),
                    LaplaceAlg::Geometric,
                );
                Box::new(move |src| prog.run(src))
            }
            GaussianImpl::SampcertUniform => {
                let prog = discrete_gaussian::<Sampling>(
                    &Nat::from(sigma),
                    &Nat::one(),
                    LaplaceAlg::Uniform,
                );
                Box::new(move |src| prog.run(src))
            }
            GaussianImpl::SampcertOptimized => {
                let prog = discrete_gaussian::<Sampling>(
                    &Nat::from(sigma),
                    &Nat::one(),
                    LaplaceAlg::Switched,
                );
                Box::new(move |src| prog.run(src))
            }
            GaussianImpl::CompiledOptimized => {
                let g = FusedGaussian::new(sigma, 1, LaplaceAlg::Switched);
                Box::new(move |src| g.sample(src))
            }
        }
    }
}

/// Milliseconds per sample for `impl_` at the given σ, averaged over
/// `samples` draws (after `samples/10` warm-up draws).
pub fn ms_per_sample(impl_: GaussianImpl, sigma: u64, samples: usize) -> f64 {
    let mut sampler = impl_.build(sigma);
    let mut src = SeededByteSource::new(0xBEEF ^ sigma);
    let mut sink = 0i64;
    for _ in 0..samples / 10 {
        sink = sink.wrapping_add(sampler(&mut src));
    }
    let start = Instant::now();
    for _ in 0..samples {
        sink = sink.wrapping_add(sampler(&mut src));
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    // Keep the sink live so the loop is not optimized away.
    std::hint::black_box(sink);
    elapsed / samples as f64
}

/// Average random bytes consumed per sample (Fig. 6's measurement, a
/// machine-independent cost proxy).
pub fn bytes_per_sample(impl_: GaussianImpl, sigma: u64, samples: usize) -> f64 {
    let mut sampler = impl_.build(sigma);
    let mut src = CountingByteSource::new(SeededByteSource::new(0xF00D ^ sigma));
    let mut sink = 0i64;
    for _ in 0..samples {
        sink = sink.wrapping_add(sampler(&mut src));
    }
    std::hint::black_box(sink);
    src.bytes_read() as f64 / samples as f64
}

/// One row of a figure's data: σ plus one value per series.
#[derive(Debug, Clone)]
pub struct Row {
    /// The standard deviation.
    pub sigma: u64,
    /// `(label, value)` per series.
    pub values: Vec<(&'static str, f64)>,
}

/// Sweeps σ over `sigmas` for the given series, measuring ms/sample.
pub fn runtime_sweep(impls: &[GaussianImpl], sigmas: &[u64], samples: usize) -> Vec<Row> {
    sigmas
        .iter()
        .map(|&sigma| Row {
            sigma,
            values: impls
                .iter()
                .map(|i| (i.label(), ms_per_sample(*i, sigma, samples)))
                .collect(),
        })
        .collect()
}

/// Sweeps σ for Fig. 6: bytes of entropy per sample of the Algorithm-2
/// (uniform-loop) sampler.
pub fn entropy_sweep(sigmas: &[u64], samples: usize) -> Vec<Row> {
    sigmas
        .iter()
        .map(|&sigma| Row {
            sigma,
            values: vec![(
                "bytes/sample (Alg 2)",
                bytes_per_sample(GaussianImpl::SampcertUniform, sigma, samples),
            )],
        })
        .collect()
}

/// Writes rows as an aligned plain-text table with a header.
///
/// # Errors
///
/// Whatever writing to `out` returns.
pub fn write_table(out: &mut dyn Write, title: &str, rows: &[Row]) -> io::Result<()> {
    writeln!(out, "\n## {title}")?;
    if rows.is_empty() {
        return writeln!(out, "(no data)");
    }
    write!(out, "{:>6}", "sigma")?;
    for (label, _) in &rows[0].values {
        write!(out, "  {label:>26}")?;
    }
    writeln!(out)?;
    for row in rows {
        write!(out, "{:>6}", row.sigma)?;
        for (_, v) in &row.values {
            write!(out, "  {v:>26.6}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_impls_produce_samples() {
        for impl_ in GaussianImpl::FIG5 {
            let mut f = impl_.build(3);
            let mut src = SeededByteSource::new(1);
            let v = f(&mut src);
            assert!(v.abs() < 100, "{impl_:?} produced {v}");
        }
    }

    #[test]
    fn timing_returns_positive() {
        let ms = ms_per_sample(GaussianImpl::CompiledOptimized, 5, 200);
        assert!(ms > 0.0 && ms < 10.0, "ms={ms}");
    }

    #[test]
    fn entropy_positive_and_reasonable() {
        let b = bytes_per_sample(GaussianImpl::SampcertUniform, 4, 200);
        assert!(b > 1.0 && b < 10_000.0, "bytes={b}");
    }

    #[test]
    fn sweep_shapes() {
        let rows = runtime_sweep(&[GaussianImpl::CompiledOptimized], &[1, 2], 100);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].values.len(), 1);
        let e = entropy_sweep(&[3], 50);
        assert_eq!(e.len(), 1);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn zero_sigma_rejected() {
        let _ = GaussianImpl::Diffprivlib.build(0);
    }
}
