//! Closed-form per-iteration latency models — Eqs. 3–6 of the paper — and
//! the compile-time scheme chooser built on them.
//!
//! All model outputs are the latency of one *round* in which each of the
//! `N` workers completes one iteration, divided by `N`: the paper's
//! "amortized per-worker-iteration latency" (§5.3).

use accel::LatencyModel;
use mcts::Scheme;

/// Profiled quantities feeding the models (all nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfParams {
    /// Workers `N`.
    pub workers: usize,
    /// Single-thread Node Selection latency per iteration, `T_select`.
    pub t_select_ns: f64,
    /// Single-thread Expansion+BackUp latency per iteration, `T_backup`.
    pub t_backup_ns: f64,
    /// Serialized shared-memory (DDR) access cost per iteration,
    /// `T_shared tree access`.
    pub t_shared_access_ns: f64,
    /// One DNN inference on one CPU thread, `T^CPU_DNN`.
    pub t_dnn_cpu_ns: f64,
    /// Accelerator model (None ⇒ CPU-only platform).
    pub accel: Option<LatencyModel>,
}

impl PerfParams {
    /// CPU-only parameter set.
    pub fn cpu_only(
        workers: usize,
        t_select_ns: f64,
        t_backup_ns: f64,
        t_shared_access_ns: f64,
        t_dnn_cpu_ns: f64,
    ) -> Self {
        PerfParams {
            workers,
            t_select_ns,
            t_backup_ns,
            t_shared_access_ns,
            t_dnn_cpu_ns,
            accel: None,
        }
    }

    /// In-tree per-iteration cost `T_select + T_backup`.
    pub fn t_in_tree(&self) -> f64 {
        self.t_select_ns + self.t_backup_ns
    }
}

/// Target platform for the model evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// Everything on the multi-core CPU.
    CpuOnly,
    /// In-tree operations on the CPU, inference offloaded (needs
    /// `PerfParams::accel`).
    CpuGpu,
}

/// Eq. 3 — shared tree on a multi-core CPU:
/// `T ≈ T_shared×N + T_select + T_backup + T^CPU_DNN`, amortized over `N`.
pub fn shared_cpu_iteration_ns(p: &PerfParams) -> f64 {
    let n = p.workers as f64;
    let round = p.t_shared_access_ns * n + p.t_select_ns + p.t_backup_ns + p.t_dnn_cpu_ns;
    round / n
}

/// Eq. 4 — shared tree with GPU-offloaded full-batch inference:
/// `T ≈ T_shared×N + T_select + T_backup + T^GPU_DNN(batch=N)`.
pub fn shared_gpu_iteration_ns(p: &PerfParams) -> f64 {
    let accel = p.accel.expect("CpuGpu model needs accelerator params");
    let n = p.workers as f64;
    let round =
        p.t_shared_access_ns * n + p.t_select_ns + p.t_backup_ns + accel.batch_ns(p.workers);
    round / n
}

/// Eq. 5 — local tree on a multi-core CPU:
/// `T ≈ max((T_select + T_backup)×N, T^CPU_DNN)` per round of `N`.
pub fn local_cpu_iteration_ns(p: &PerfParams) -> f64 {
    let n = p.workers as f64;
    let round = (p.t_in_tree() * n).max(p.t_dnn_cpu_ns);
    round / n
}

/// Eq. 6 — local tree with GPU inference in `N/B` sub-batches:
/// `T ≈ max((T_select+T_backup)×N, T_PCIe, T^GPU_compute(batch=B))`.
///
/// `T_PCIe` is the total transfer time of the round's `N` samples in
/// `ceil(N/B)` submissions: `(N/B)·L + N·bytes/BW` — monotonically
/// decreasing in `B`. `T^GPU_compute(batch=B)` is the compute time of one
/// sub-batch kernel — monotonically increasing in `B` (the `N/B` CUDA
/// streams overlap their kernels with other streams' transfers, so the
/// per-kernel time is the steady-state compute bound). The element-wise
/// max is therefore a V-sequence in `B`, which is what makes Algorithm 4
/// applicable (§4.2).
pub fn local_gpu_iteration_ns(p: &PerfParams, batch: usize) -> f64 {
    assert!(batch >= 1, "batch must be >= 1");
    let accel = p.accel.expect("CpuGpu model needs accelerator params");
    let n = p.workers as f64;
    let num_batches = p.workers.div_ceil(batch);
    let t_pcie =
        num_batches as f64 * accel.launch_ns + n * accel.bytes_per_sample / accel.pcie_bytes_per_ns;
    let t_compute = accel.compute_ns(batch.min(p.workers));
    let round = (p.t_in_tree() * n).max(t_pcie).max(t_compute);
    round / n
}

/// Model-predicted per-iteration latency for a (scheme, platform) pair.
/// For `LocalTree` on `CpuGpu`, `batch` selects the sub-batch size
/// (defaults to `N` when `None`).
pub fn predict_iteration_ns(
    scheme: Scheme,
    platform: Platform,
    p: &PerfParams,
    batch: Option<usize>,
) -> f64 {
    match (scheme, platform) {
        (Scheme::SharedTree, Platform::CpuOnly) => shared_cpu_iteration_ns(p),
        (Scheme::SharedTree, Platform::CpuGpu) => shared_gpu_iteration_ns(p),
        (Scheme::LocalTree, Platform::CpuOnly) => local_cpu_iteration_ns(p),
        (Scheme::LocalTree, Platform::CpuGpu) => {
            local_gpu_iteration_ns(p, batch.unwrap_or(p.workers))
        }
        (Scheme::Serial, _) => p.t_in_tree() + p.t_dnn_cpu_ns,
        (other, _) => panic!("no closed-form model for {other}"),
    }
}

/// The paper's compile-time decision (§4.2): evaluate both models with the
/// profiled parameters and pick the faster scheme. For `CpuGpu`, the local
/// tree is given its best modeled batch size (found by Algorithm 4 over
/// the model itself).
pub fn choose_scheme(platform: Platform, p: &PerfParams) -> (Scheme, f64, f64) {
    let shared = match platform {
        Platform::CpuOnly => shared_cpu_iteration_ns(p),
        Platform::CpuGpu => shared_gpu_iteration_ns(p),
    };
    let local = match platform {
        Platform::CpuOnly => local_cpu_iteration_ns(p),
        Platform::CpuGpu => {
            let (b, _) =
                crate::vsearch::find_min_vsequence(1, p.workers, |b| local_gpu_iteration_ns(p, b));
            local_gpu_iteration_ns(p, b)
        }
    };
    if local <= shared {
        (Scheme::LocalTree, local, shared)
    } else {
        (Scheme::SharedTree, local, shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(workers: usize) -> PerfParams {
        PerfParams {
            workers,
            t_select_ns: 2_000.0,
            t_backup_ns: 1_000.0,
            t_shared_access_ns: 300.0,
            t_dnn_cpu_ns: 500_000.0,
            accel: Some(LatencyModel::a6000_like(4 * 15 * 15 * 4)),
        }
    }

    #[test]
    fn eq3_matches_formula() {
        let p = params(8);
        let t = shared_cpu_iteration_ns(&p);
        let expect = (300.0 * 8.0 + 2_000.0 + 1_000.0 + 500_000.0) / 8.0;
        assert!((t - expect).abs() < 1e-9);
    }

    #[test]
    fn eq5_is_max_of_bottlenecks() {
        // DNN-bound at small N: round = T_DNN.
        let p = params(4);
        let t = local_cpu_iteration_ns(&p);
        assert!((t - 500_000.0 / 4.0).abs() < 1e-9);
        // In-tree-bound at huge N.
        let p = params(512);
        let t = local_cpu_iteration_ns(&p);
        assert!((t - 3_000.0).abs() < 1e-9);
    }

    #[test]
    fn local_beats_shared_when_dnn_dominates() {
        // Expensive DNN, few workers: overlap wins (paper intuition §3.2).
        let p = PerfParams {
            t_dnn_cpu_ns: 5_000_000.0,
            ..params(4)
        };
        let (scheme, _, _) = choose_scheme(Platform::CpuOnly, &p);
        assert_eq!(scheme, Scheme::LocalTree);
    }

    #[test]
    fn shared_wins_when_in_tree_dominates() {
        // Cheap DNN, many workers, deep/expensive in-tree ops: the serial
        // master becomes the bottleneck and the shared tree wins.
        let p = PerfParams {
            workers: 64,
            t_select_ns: 40_000.0,
            t_backup_ns: 20_000.0,
            t_shared_access_ns: 100.0,
            t_dnn_cpu_ns: 60_000.0,
            accel: None,
        };
        let (scheme, _, _) = choose_scheme(Platform::CpuOnly, &p);
        assert_eq!(scheme, Scheme::SharedTree);
    }

    #[test]
    fn eq6_batch_extremes_are_both_bad() {
        // The V shape: B=1 pays launch per sample, B=N pays compute bulk +
        // master fill; some middle B is at least as good as both.
        let p = params(64);
        let b1 = local_gpu_iteration_ns(&p, 1);
        let bn = local_gpu_iteration_ns(&p, 64);
        let best = (1..=64)
            .map(|b| local_gpu_iteration_ns(&p, b))
            .fold(f64::INFINITY, f64::min);
        assert!(best <= b1 && best <= bn);
        assert!(best < b1.max(bn), "interior minimum expected");
    }

    #[test]
    fn model_vsearch_agrees_with_exhaustive() {
        let p = params(64);
        let exhaustive = (1..=64)
            .min_by(|&a, &b| {
                local_gpu_iteration_ns(&p, a)
                    .partial_cmp(&local_gpu_iteration_ns(&p, b))
                    .unwrap()
            })
            .unwrap();
        let (b, _) = crate::vsearch::find_min_vsequence(1, 64, |b| local_gpu_iteration_ns(&p, b));
        let diff = (local_gpu_iteration_ns(&p, b) - local_gpu_iteration_ns(&p, exhaustive)).abs();
        assert!(
            diff < 1e-6 * local_gpu_iteration_ns(&p, exhaustive).abs(),
            "vsearch B={b} vs exhaustive B={exhaustive}"
        );
    }

    #[test]
    fn serial_prediction_is_sum() {
        let p = params(1);
        let t = predict_iteration_ns(Scheme::Serial, Platform::CpuOnly, &p, None);
        assert!((t - (3_000.0 + 500_000.0)).abs() < 1e-9);
    }

    #[test]
    fn gpu_offload_helps_shared_scheme() {
        let p = params(16);
        assert!(shared_gpu_iteration_ns(&p) < shared_cpu_iteration_ns(&p));
    }
}
