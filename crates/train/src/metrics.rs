//! Loss-over-time and throughput instrumentation (Figures 6 and 7).

use nn::LossParts;
use std::time::Instant;

/// One point on the loss curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossPoint {
    /// Wall-clock seconds since recording started.
    pub t_sec: f64,
    /// Value-head MSE component.
    pub value: f32,
    /// Policy cross-entropy component.
    pub policy: f32,
    /// Total loss (Eq. 2).
    pub total: f32,
}

/// Records `(wall-clock, loss)` points — the data behind Figure 7.
#[derive(Debug)]
pub struct LossRecorder {
    start: Instant,
    points: Vec<LossPoint>,
}

impl Default for LossRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LossRecorder {
    /// Start recording now.
    pub fn new() -> Self {
        LossRecorder {
            start: Instant::now(),
            points: Vec::new(),
        }
    }

    /// Record a loss observation at the current wall-clock time.
    pub fn record(&mut self, parts: LossParts) {
        self.points.push(LossPoint {
            t_sec: self.start.elapsed().as_secs_f64(),
            value: parts.value,
            policy: parts.policy,
            total: parts.total,
        });
    }

    /// Recorded points in chronological order.
    pub fn points(&self) -> &[LossPoint] {
        &self.points
    }

    /// Mean total loss over the last `k` points (smoothing for reports).
    pub fn recent_mean(&self, k: usize) -> Option<f32> {
        if self.points.is_empty() {
            return None;
        }
        let tail = &self.points[self.points.len().saturating_sub(k)..];
        Some(tail.iter().map(|p| p.total).sum::<f32>() / tail.len() as f32)
    }

    /// CSV with header, one row per point.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_sec,value_loss,policy_loss,total_loss\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:.4},{:.6},{:.6},{:.6}\n",
                p.t_sec, p.value, p.policy, p.total
            ));
        }
        out
    }
}

/// Samples-per-second accounting (Figure 6). One sample = one move's
/// tree-based search (1600 iterations in the paper's setup).
#[derive(Debug, Default, Clone, Copy)]
pub struct ThroughputMeter {
    /// Samples produced by self-play.
    pub samples: u64,
    /// Time spent in tree-based search, ns.
    pub search_ns: u64,
    /// Time spent in DNN training (SGD), ns.
    pub train_ns: u64,
    /// Search and training overlap (producer/consumer pipelining)?
    pub overlapped: bool,
}

impl ThroughputMeter {
    /// Throughput = samples / Σ(tree-based search time + DNN update time)
    /// (§5.1). With an overlapped (GPU-offloaded) trainer the denominator
    /// is the max of the stages instead of the sum.
    pub fn samples_per_sec(&self) -> f64 {
        let denom_ns = if self.overlapped {
            self.search_ns.max(self.train_ns)
        } else {
            self.search_ns + self.train_ns
        };
        if denom_ns == 0 {
            return 0.0;
        }
        self.samples as f64 / (denom_ns as f64 * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts(total: f32) -> LossParts {
        LossParts {
            value: total / 2.0,
            policy: total / 2.0,
            total,
        }
    }

    #[test]
    fn recorder_orders_points_in_time() {
        let mut r = LossRecorder::new();
        r.record(parts(3.0));
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.record(parts(2.0));
        let pts = r.points();
        assert_eq!(pts.len(), 2);
        assert!(pts[1].t_sec >= pts[0].t_sec);
        assert_eq!(pts[1].total, 2.0);
    }

    #[test]
    fn recent_mean_smooths() {
        let mut r = LossRecorder::new();
        for t in [4.0, 3.0, 2.0, 1.0] {
            r.record(parts(t));
        }
        assert_eq!(r.recent_mean(2), Some(1.5));
        assert_eq!(r.recent_mean(100), Some(2.5));
        assert_eq!(LossRecorder::new().recent_mean(3), None);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut r = LossRecorder::new();
        r.record(parts(1.0));
        let csv = r.to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("t_sec,"));
        assert!(lines[1].contains("1.000000"));
    }

    #[test]
    fn throughput_sum_vs_overlap() {
        let m = ThroughputMeter {
            samples: 100,
            search_ns: 1_000_000_000,
            train_ns: 1_000_000_000,
            overlapped: false,
        };
        assert!((m.samples_per_sec() - 50.0).abs() < 1e-9);
        let o = ThroughputMeter {
            overlapped: true,
            ..m
        };
        assert!((o.samples_per_sec() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_time_throughput_is_zero() {
        assert_eq!(ThroughputMeter::default().samples_per_sec(), 0.0);
    }
}
