//! The benchmark's fixed metric names and units, as `BENCHMARK.json`
//! lists them.

/// End-to-end metrics, printed by every untraced run of every workload.
pub const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("capacity_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cpu_us_per_req", "us"),
    ("refused_rate", "ratio"),
    ("charges_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run of every workload.
pub const LAYERS: [(&str, &str); 39] = [
    ("samplers.draw_ns.laplace_t1", "ns"),
    ("samplers.draw_ns.gauss_hist", "ns"),
    ("samplers.draw_ns.gauss_wide", "ns"),
    ("samplers.bytes_per_draw.laplace_t1", "B"),
    ("samplers.bytes_per_draw.gauss_hist", "B"),
    ("samplers.bytes_per_draw.gauss_wide", "B"),
    ("core.mechanism.draw_ns.laplace_t1", "ns"),
    ("core.mechanism.draw_ns.gauss_hist", "ns"),
    ("core.mechanism.draw_ns.gauss_wide", "ns"),
    ("core.session.inline_ns", "ns"),
    ("core.session.admit_ns", "ns"),
    ("core.session.serve_us.p50", "us"),
    ("core.session.serve_us.p99", "us"),
    ("core.session.refusals.queue_full", "count"),
    ("core.session.refusals.shed", "count"),
    ("core.session.refusals.budget", "count"),
    ("core.session.refusals.journal", "count"),
    ("core.registry.charge_ns", "ns"),
    ("core.registry.rss_bytes_per_principal", "B"),
    ("core.journal.mem_charge_ns", "ns"),
    ("core.journal.tmpfs_charge_us", "us"),
    ("core.journal.disk_charge_us", "us"),
    ("core.journal.charges_per_write", "ratio"),
    ("core.journal.bytes_per_charge", "B"),
    ("core.journal.compactions", "count"),
    ("core.journal.live_bytes", "B"),
    ("core.journal.replay_mb_per_s", "MB/s"),
    ("rt.ingress.push_ns", "ns"),
    ("rt.ingress.wait_us.p50", "us"),
    ("rt.ingress.wait_us.p99", "us"),
    ("rt.ingress.depth_max", "count"),
    ("rt.runtime.roundtrip_us", "us"),
    ("rt.pool.single_answer_us", "us"),
    ("mechanisms.histogram.answer_ms", "ms"),
    ("harness.gen_late_us.p99", "us"),
    ("draws_per_s", "1/s"),
    ("release_p50_ms", "ms"),
    ("recovery_ms", "ms"),
    ("error_rate", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly these metrics, with these units, in
    /// this order.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> Vec<(String, String)> {
            let from = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[from..];
            let body = &body[..body.find(']').expect("section end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry[..entry.find('"').unwrap()].to_string();
                    let unit = entry.split("\"unit\": \"").nth(1).unwrap();
                    (name, unit[..unit.find('"').unwrap()].to_string())
                })
                .collect()
        };
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(&E2E));
        assert_eq!(section("per_layer"), owned(&LAYERS));
    }
}
