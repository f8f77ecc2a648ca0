//! Analytic latency model of a PCIe-attached accelerator.
//!
//! Mirrors the decomposition in the paper's §4.1:
//!
//! * `T_PCIe(B) = L + B·bytes_per_sample / bandwidth` — each submission pays
//!   a fixed launch/communication latency `L` plus a bandwidth term;
//! * `T_compute(B) = base + B·per_sample·(serial fraction)` — per-sample
//!   compute cost shrinks with batch size until device parallelism
//!   saturates at `parallel_lanes`, after which it grows linearly; this
//!   makes `T_compute` monotonically increasing in `B` (the paper's third
//!   observation) while per-sample cost decreases.
//!
//! All times are in nanoseconds, carried as `f64` so the same model feeds
//! both the real-time device simulation (rounded to `Duration`) and the
//! discrete-event simulator in `perfmodel`.

use std::time::Duration;

/// Latency parameters of the modeled accelerator link + device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed cost per batch submission (kernel launch + driver), ns.
    pub launch_ns: f64,
    /// Bytes transferred per sample (input + output).
    pub bytes_per_sample: f64,
    /// Interconnect bandwidth, bytes per nanosecond (1 B/ns = 1 GB/s).
    pub pcie_bytes_per_ns: f64,
    /// Device compute time for a batch of 1, ns.
    pub compute_base_ns: f64,
    /// Additional compute time per sample once lanes saturate, ns.
    pub compute_per_sample_ns: f64,
    /// Number of samples the device can process at full overlap.
    pub parallel_lanes: usize,
}

impl LatencyModel {
    /// A model loosely calibrated to the paper's platform (RTX A6000 over
    /// PCIe 4.0 ×16, small 5-conv CNN): ~20 µs launch overhead, ~25 GB/s
    /// effective bandwidth, sub-millisecond batched inference whose
    /// per-sample cost falls steeply with batch size.
    pub fn a6000_like(bytes_per_sample: usize) -> Self {
        LatencyModel {
            launch_ns: 20_000.0,
            bytes_per_sample: bytes_per_sample as f64,
            pcie_bytes_per_ns: 25.0,
            compute_base_ns: 48_000.0,
            compute_per_sample_ns: 9_000.0,
            parallel_lanes: 4,
        }
    }

    /// A zero-latency model: the device behaves as a plain batched CPU
    /// evaluator (useful for unit tests and CPU-only baselines).
    pub fn zero() -> Self {
        LatencyModel {
            launch_ns: 0.0,
            bytes_per_sample: 0.0,
            pcie_bytes_per_ns: 1.0,
            compute_base_ns: 0.0,
            compute_per_sample_ns: 0.0,
            parallel_lanes: 1,
        }
    }

    /// Transfer time for a batch of `b` samples, ns (paper: `T_PCIe`).
    pub fn transfer_ns(&self, b: usize) -> f64 {
        self.launch_ns + b as f64 * self.bytes_per_sample / self.pcie_bytes_per_ns
    }

    /// Device compute time for a batch of `b` samples, ns
    /// (paper: `T^GPU_DNN-compute(batch=B)`), monotone increasing in `b`.
    pub fn compute_ns(&self, b: usize) -> f64 {
        if b == 0 {
            return 0.0;
        }
        let overflow = b.saturating_sub(self.parallel_lanes) as f64;
        self.compute_base_ns
            + (b.min(self.parallel_lanes) as f64).ln_1p() * self.compute_per_sample_ns
            + overflow * self.compute_per_sample_ns
    }

    /// Total modeled latency of one batch submission, ns.
    pub fn batch_ns(&self, b: usize) -> f64 {
        if b == 0 {
            0.0
        } else {
            self.transfer_ns(b) + self.compute_ns(b)
        }
    }

    /// Total modeled time to evaluate `n` samples in `ceil(n/b)` batches of
    /// size `b` with no overlap (upper bound used by the performance model).
    pub fn total_ns(&self, n: usize, b: usize) -> f64 {
        assert!(b > 0, "batch size must be positive");
        let full = n / b;
        let rem = n % b;
        full as f64 * self.batch_ns(b) + if rem > 0 { self.batch_ns(rem) } else { 0.0 }
    }

    /// Convert a model time to a `Duration` (for real-time injection).
    pub fn to_duration(ns: f64) -> Duration {
        Duration::from_nanos(ns.max(0.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_free() {
        let m = LatencyModel::zero();
        assert_eq!(m.batch_ns(16), 0.0);
        assert_eq!(m.total_ns(100, 8), 0.0);
    }

    #[test]
    fn transfer_is_affine_in_batch() {
        let m = LatencyModel::a6000_like(900 * 4);
        let t1 = m.transfer_ns(1);
        let t2 = m.transfer_ns(2);
        let t3 = m.transfer_ns(3);
        assert!((t3 - t2 - (t2 - t1)).abs() < 1e-6, "affine increments");
        assert!(t1 > m.launch_ns, "includes launch cost");
    }

    #[test]
    fn compute_monotone_increasing() {
        let m = LatencyModel::a6000_like(900 * 4);
        let mut prev = 0.0;
        for b in 1..=128 {
            let c = m.compute_ns(b);
            assert!(c >= prev, "compute must be monotone at b={b}");
            prev = c;
        }
    }

    #[test]
    fn per_sample_compute_decreases_then_flattens() {
        // Batching must help per-sample cost below the lane count.
        let m = LatencyModel::a6000_like(900 * 4);
        let per = |b: usize| m.compute_ns(b) / b as f64;
        assert!(per(8) < per(1));
        assert!(per(32) < per(8));
    }

    #[test]
    fn fewer_batches_amortize_launch() {
        let m = LatencyModel::a6000_like(900 * 4);
        // Same 64 samples: one batch of 64 beats 64 batches of 1 on
        // transfer (launch amortization).
        let many = (0..64).map(|_| m.transfer_ns(1)).sum::<f64>();
        let one = m.transfer_ns(64);
        assert!(one < many);
    }

    #[test]
    fn total_handles_remainders() {
        let m = LatencyModel::a6000_like(128);
        let t = m.total_ns(10, 4); // 4+4+2
        let expect = 2.0 * m.batch_ns(4) + m.batch_ns(2);
        assert!((t - expect).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_rejected() {
        let _ = LatencyModel::a6000_like(1).total_ns(10, 0);
    }

    #[test]
    fn duration_conversion_clamps_negative() {
        assert_eq!(LatencyModel::to_duration(-5.0), Duration::ZERO);
        assert_eq!(
            LatencyModel::to_duration(1500.0),
            Duration::from_nanos(1500)
        );
    }
}
