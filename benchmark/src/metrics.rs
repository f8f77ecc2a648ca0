//! The metric tables (name, unit) and the run's output format. The names
//! and units here must equal those in `BENCHMARK.json`; `tests/shape.rs`
//! checks it. A per-layer metric a workload does not exercise reads 0.

use std::fmt::Write as _;

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("playouts_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("slo_share", "share"),
    ("peak_rss_mb", "MiB"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    // net
    ("net.frame_encode_ns.submit", "ns"),
    ("net.frame_decode_ns.submit", "ns"),
    ("net.frame_encode_ns.final", "ns"),
    ("net.frame_decode_ns.final", "ns"),
    ("net.bytes_per_req", "B"),
    ("net.wire_tax_ms", "ms"),
    ("net.first_snapshot_p50_ms", "ms"),
    ("net.snapshots_per_req", "count"),
    ("net.snapshots_shed", "count"),
    ("net.rejected", "count"),
    ("net.decode_errors", "count"),
    // serve
    ("serve.inproc_p50_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.admit_ns", "ns"),
    ("serve.overhead_share", "share"),
    ("serve.steps_per_req", "count"),
    ("serve.mean_eval_batch", "count"),
    ("serve.tuner_batch", "count"),
    ("serve.tuner_window_us", "us"),
    ("serve.cache_hit_rate", "share"),
    ("serve.cache_evictions", "count"),
    ("serve.shed", "count"),
    ("serve.sessions_failed", "count"),
    // mcts
    ("mcts.select_ns_per_playout", "ns"),
    ("mcts.backup_ns_per_playout", "ns"),
    ("mcts.eval_ns_per_playout", "ns"),
    ("mcts.nodes_per_search", "count"),
    ("mcts.evicted_per_cycle", "count"),
    ("mcts.reclaimed_per_cycle", "count"),
    ("mcts.advance_us", "us"),
    ("mcts.tt_hits_per_kplayout", "count"),
    ("mcts.cache_get_ns.hit", "ns"),
    ("mcts.cache_get_ns.miss", "ns"),
    ("mcts.cache_insert_ns", "ns"),
    ("mcts.serial_playouts_per_s", "1/s"),
    ("mcts.shared_n2_playouts_per_s", "1/s"),
    ("mcts.local_n2_playouts_per_s", "1/s"),
    ("mcts.collisions_per_kplayout", "count"),
    // nn
    ("nn.eval_calls", "count"),
    ("nn.eval_mean_batch", "count"),
    ("nn.eval_busy_share", "share"),
    ("nn.forward_us.int8.b1", "us"),
    ("nn.forward_us.int8.b2", "us"),
    ("nn.forward_us.int8.b4", "us"),
    ("nn.forward_us.int8.b8", "us"),
    ("nn.forward_us.f32.b1", "us"),
    ("nn.forward_us.f32.b8", "us"),
    // tensor
    ("tensor.gemm_f32_gflops.b1", "GFLOP/s"),
    ("tensor.gemm_f32_gflops.b8", "GFLOP/s"),
    ("tensor.gemm_int8_gops.b1", "GOP/s"),
    ("tensor.gemm_int8_gops.b8", "GOP/s"),
    ("tensor.im2col_us.b8", "us"),
    ("tensor.forward_flops_per_sample", "FLOP"),
    ("tensor.forward_bytes_per_sample", "B"),
    // games
    ("games.apply_ns", "ns"),
    ("games.legal_actions_ns", "ns"),
    ("games.encode_ns", "ns"),
    ("games.hash_ns", "ns"),
    // perfmodel
    ("perfmodel.shared_pred_over_meas", "ratio"),
    ("perfmodel.local_pred_over_meas", "ratio"),
    ("perfmodel.choice_agrees", "bool"),
    // reading aids
    ("bench.mean_playouts_per_s", "1/s"),
    ("bench.cpu_ms_per_req", "ms"),
    ("bench.req_p50_all_ms", "ms"),
    ("bench.req_p95_ms", "ms"),
    ("bench.blocks", "count"),
    ("bench.quiet_index", "ratio"),
    ("ladder.stack_residual_share", "share"),
    ("ladder.trace_overhead_share", "share"),
    ("trace.spans", "count"),
    ("trace.spans_dropped", "count"),
];

/// The values of one run, in table order.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: vec![0.0; table.len()],
        }
    }

    /// # Panics
    /// On a name the table does not hold: that is a bug in the
    /// benchmark, not a condition of the run.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        // JSON has no NaN/inf; a ratio over nothing reads 0.
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.table
            .iter()
            .position(|(n, _)| *n == name)
            .map_or(0.0, |i| self.values[i])
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(n, u), &v)| (n, u, v))
    }
}

/// The outcome of a run, as printed.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Report {
    /// `name value unit` lines, one per metric.
    pub fn lines(&self) -> String {
        let mut s = String::new();
        for (name, unit, value) in self.metrics.iter() {
            let _ = writeln!(s, "{name:<36} {value:>16.4} {unit}");
        }
        s
    }

    /// The summary the driver parses: one JSON object on one line.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // `{:?}` prints an f64 with every digit it holds.
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn json_is_one_line_with_full_precision() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("setup_s", 0.1234567890123);
        metrics.set("slo_share", f64::NAN);
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        };
        let j = r.json();
        assert!(!j.contains('\n'));
        assert!(
            j.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(j.contains("\"setup_s\": {\"value\": 0.1234567890123, \"unit\": \"s\"}"));
        assert!(j.contains("\"slo_share\": {\"value\": 0.0, \"unit\": \"share\"}"));
    }
}
