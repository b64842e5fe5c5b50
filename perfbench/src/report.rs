//! What a workload hands back, and the JSON it is printed as.

use crate::stats::Summary;
use crate::trace::Trace;

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON, with every digit Rust's shortest round-trip form
/// has; non-finite values become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Request outcomes of one phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub name: &'static str,
    pub sent: u64,
    pub served: u64,
    /// Refused because the principal's or analyst's budget cannot pay.
    pub refused: u64,
    /// Neither served nor budget-refused: door sheds, journal or
    /// executor failures.
    pub failed: u64,
}

impl Phase {
    pub fn json(&self) -> String {
        format!(
            "{{\"phase\": {}, \"sent\": {}, \"served\": {}, \"refused\": {}, \"failed\": {}}}",
            json_str(self.name),
            self.sent,
            self.served,
            self.refused,
            self.failed
        )
    }
}

/// Everything one workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metric values, by name.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics this workload measures itself (traced runs).
    pub layers: Vec<(&'static str, f64)>,
    pub phases: Vec<Phase>,
    pub timings: Vec<(&'static str, Summary)>,
    pub checks: Vec<(&'static str, bool)>,
    /// Diagnostic figures that are neither metric kind.
    pub notes: Vec<(&'static str, f64)>,
    pub trace: Trace,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    pub fn timing(&mut self, name: &'static str, samples: Vec<f64>) -> Option<Summary> {
        let s = Summary::of(samples)?;
        self.timings.push((name, s.clone()));
        Some(s)
    }

    pub fn json(&self) -> String {
        let pairs = |v: &[(&'static str, f64)]| {
            v.iter()
                .map(|(k, x)| format!("{}: {}", json_str(k), json_num(*x)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let phases: Vec<String> = self.phases.iter().map(Phase::json).collect();
        let timings: Vec<String> = self
            .timings
            .iter()
            .map(|(k, s)| format!("{}: {}", json_str(k), s.json()))
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(k, ok)| format!("{}: {ok}", json_str(k)))
            .collect();
        format!(
            "{{\"e2e\": {{{}}}, \"layers\": {{{}}}, \"phases\": [{}], \"timings\": {{{}}}, \"checks\": {{{}}}, \"notes\": {{{}}}, \"spans\": {}}}",
            pairs(&self.e2e),
            pairs(&self.layers),
            phases.join(", "),
            timings.join(", "),
            checks.join(", "),
            pairs(&self.notes),
            self.trace.len()
        )
    }
}
