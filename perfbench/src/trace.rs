//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, the request it belongs to, the name of the span that
//! caused it, and its start and end. Each thread records into its own
//! [`Tracer`]; the tracers are merged into one [`Trace`] when the phase
//! ends and written out when the benchmark ends. A disabled tracer reads
//! no clock and stores nothing, so the untraced run pays nothing for it.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a span whose bounds the caller already measured.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                parent,
                req,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }
}

/// The merged spans of a run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn absorb(&mut self, tracer: Tracer) {
        self.spans.extend(tracer.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes up to `cap` spans as tab-separated lines.
    pub fn write_tsv(&self, path: &Path, cap: usize) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tparent\treq\tstart_ns\tend_ns")?;
        for s in self.spans.iter().take(cap) {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name,
                s.parent.unwrap_or("-"),
                s.req,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
