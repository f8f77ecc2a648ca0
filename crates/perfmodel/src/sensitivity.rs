//! Sensitivity analysis over the closed-form performance models.
//!
//! The paper's design-configuration workflow (§4.2) plugs one profiled
//! parameter set into Eqs. 3–6 and picks a scheme. A natural follow-up
//! question — and the basis of our ablation benches — is *how robust that
//! choice is*: how far can a profiled quantity drift before the chosen
//! scheme flips? This module sweeps one model input at a time (holding the
//! rest fixed), reports the predicted latency of both schemes at every
//! point, and locates the worker-count crossover `N*` where the shared
//! tree overtakes the local tree.

use crate::model::{choose_scheme, PerfParams, Platform};
use mcts::Scheme;

/// Which model input a sweep varies. All sweeps are *multiplicative*: the
/// swept value is `base × factor`, so factors are dimensionless and a
/// factor of 1.0 reproduces the base configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepParam {
    /// Single-thread CPU inference latency `T^CPU_DNN`.
    DnnCpu,
    /// Serialized shared-memory access cost `T_shared tree access`.
    SharedAccess,
    /// In-tree work `T_select + T_backup` (both scaled together).
    InTree,
    /// Accelerator kernel-launch latency `L` (CPU-GPU platform only).
    Launch,
    /// Interconnect bandwidth (CPU-GPU platform only).
    PcieBandwidth,
}

impl SweepParam {
    /// Human-readable parameter name for report tables.
    pub fn name(self) -> &'static str {
        match self {
            SweepParam::DnnCpu => "T_dnn_cpu",
            SweepParam::SharedAccess => "T_shared_access",
            SweepParam::InTree => "T_in_tree",
            SweepParam::Launch => "launch_ns",
            SweepParam::PcieBandwidth => "pcie_bandwidth",
        }
    }

    /// Produce the parameter set with this input scaled by `factor`.
    pub fn scaled(self, base: &PerfParams, factor: f64) -> PerfParams {
        assert!(factor > 0.0, "scale factor must be positive");
        let mut p = *base;
        match self {
            SweepParam::DnnCpu => p.t_dnn_cpu_ns *= factor,
            SweepParam::SharedAccess => p.t_shared_access_ns *= factor,
            SweepParam::InTree => {
                p.t_select_ns *= factor;
                p.t_backup_ns *= factor;
            }
            SweepParam::Launch => {
                let a = p.accel.as_mut().expect("Launch sweep needs accel params");
                a.launch_ns *= factor;
            }
            SweepParam::PcieBandwidth => {
                let a = p
                    .accel
                    .as_mut()
                    .expect("PcieBandwidth sweep needs accel params");
                a.pcie_bytes_per_ns *= factor;
            }
        }
        p
    }
}

/// One point of a sensitivity sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The scale factor applied to the swept parameter.
    pub factor: f64,
    /// Scheme the model would choose at this point.
    pub chosen: Scheme,
    /// Predicted amortized per-iteration latency, local tree (ns).
    pub local_ns: f64,
    /// Predicted amortized per-iteration latency, shared tree (ns).
    pub shared_ns: f64,
}

impl SweepPoint {
    /// Speedup of the chosen scheme over the rejected one (≥ 1).
    pub fn advantage(&self) -> f64 {
        let (win, lose) = if self.local_ns <= self.shared_ns {
            (self.local_ns, self.shared_ns)
        } else {
            (self.shared_ns, self.local_ns)
        };
        if win <= 0.0 {
            1.0
        } else {
            lose / win
        }
    }
}

/// Sweep one parameter over `factors`, re-running the scheme choice at
/// every point.
pub fn sweep(
    platform: Platform,
    base: &PerfParams,
    param: SweepParam,
    factors: &[f64],
) -> Vec<SweepPoint> {
    factors
        .iter()
        .map(|&factor| {
            let p = param.scaled(base, factor);
            let (chosen, local_ns, shared_ns) = choose_scheme(platform, &p);
            SweepPoint {
                factor,
                chosen,
                local_ns,
                shared_ns,
            }
        })
        .collect()
}

/// The smallest worker count `N ∈ [1, max_workers]` at which the shared
/// tree is predicted to beat (or tie) the local tree — the crossover the
/// paper observes at `N = 16` on its platform (§5.2). `None` when the
/// local tree wins everywhere in range.
pub fn crossover_workers(
    platform: Platform,
    base: &PerfParams,
    max_workers: usize,
) -> Option<usize> {
    (1..=max_workers).find(|&n| {
        let p = PerfParams {
            workers: n,
            ..*base
        };
        let (scheme, _, _) = choose_scheme(platform, &p);
        scheme == Scheme::SharedTree
    })
}

/// Render a sweep as an aligned text table (one row per factor).
pub fn format_table(param: SweepParam, points: &[SweepPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>10}  {:>14} {:>14}  {:>8}  {}\n",
        "factor",
        "local(us)",
        "shared(us)",
        "adv",
        param.name()
    ));
    for p in points {
        out.push_str(&format!(
            "{:>10.3}  {:>14.2} {:>14.2}  {:>7.2}x  {}\n",
            p.factor,
            p.local_ns / 1_000.0,
            p.shared_ns / 1_000.0,
            p.advantage(),
            p.chosen,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::LatencyModel;

    fn base(workers: usize) -> PerfParams {
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
    fn factor_one_reproduces_base() {
        let b = base(16);
        for param in [
            SweepParam::DnnCpu,
            SweepParam::SharedAccess,
            SweepParam::InTree,
            SweepParam::Launch,
            SweepParam::PcieBandwidth,
        ] {
            let p = param.scaled(&b, 1.0);
            assert_eq!(p, b, "{param:?} at factor 1 must be identity");
        }
    }

    #[test]
    fn expensive_dnn_favors_local_tree() {
        // Sweep the CPU inference cost upward: once the DNN dominates, the
        // local tree's overlap must win (paper intuition §3.2).
        let pts = sweep(
            Platform::CpuOnly,
            &base(16),
            SweepParam::DnnCpu,
            &[0.01, 0.1, 1.0, 10.0, 100.0],
        );
        assert_eq!(pts.last().unwrap().chosen, Scheme::LocalTree);
        // Local latency strictly increases with DNN cost.
        for w in pts.windows(2) {
            assert!(w[1].local_ns >= w[0].local_ns);
        }
    }

    #[test]
    fn expensive_in_tree_favors_shared_tree() {
        let pts = sweep(
            Platform::CpuOnly,
            &base(64),
            SweepParam::InTree,
            &[1.0, 10.0, 100.0, 1000.0],
        );
        assert_eq!(
            pts.last().unwrap().chosen,
            Scheme::SharedTree,
            "serial master must become the bottleneck"
        );
    }

    #[test]
    fn shared_access_cost_only_moves_shared_latency() {
        let pts = sweep(
            Platform::CpuOnly,
            &base(16),
            SweepParam::SharedAccess,
            &[1.0, 5.0, 25.0],
        );
        for w in pts.windows(2) {
            assert!(w[1].shared_ns > w[0].shared_ns, "shared must degrade");
            assert!(
                (w[1].local_ns - w[0].local_ns).abs() < 1e-9,
                "local is unaffected by DDR cost"
            );
        }
    }

    #[test]
    fn cpu_only_crossover_exists() {
        // CPU-only: the local master eventually serializes while the
        // shared tree amortizes its DDR cost, so shared must win at some
        // finite N (Figure 4's crossover).
        let b = base(1);
        let x = crossover_workers(Platform::CpuOnly, &b, 4096);
        assert!(x.is_some(), "shared tree must eventually win on CPU");
        assert!(x.unwrap() > 1, "local tree must win at N=1");
    }

    #[test]
    fn cpu_gpu_tuned_local_tree_holds_at_large_n() {
        // Figure 5's direction: with the sub-batch size tuned by
        // Algorithm 4, the local tree remains competitive (here: winning)
        // at N = 64 even though the full-batch local tree degrades.
        let b = base(64);
        let (scheme, local, shared) = choose_scheme(Platform::CpuGpu, &b);
        assert_eq!(
            scheme,
            Scheme::LocalTree,
            "local {local} vs shared {shared}"
        );
    }

    #[test]
    fn crossover_moves_out_when_dnn_gets_pricier() {
        let b = base(1);
        let cheap = crossover_workers(Platform::CpuOnly, &b, 4096).unwrap_or(usize::MAX);
        let pricey_params = SweepParam::DnnCpu.scaled(&b, 8.0);
        let pricey =
            crossover_workers(Platform::CpuOnly, &pricey_params, 4096).unwrap_or(usize::MAX);
        assert!(
            pricey >= cheap,
            "more DNN work should delay the crossover: {cheap} -> {pricey}"
        );
    }

    #[test]
    fn advantage_is_at_least_one() {
        for pt in sweep(
            Platform::CpuGpu,
            &base(32),
            SweepParam::Launch,
            &[0.1, 1.0, 10.0],
        ) {
            assert!(pt.advantage() >= 1.0);
        }
    }

    #[test]
    fn more_bandwidth_never_hurts_either_scheme() {
        let pts = sweep(
            Platform::CpuGpu,
            &base(32),
            SweepParam::PcieBandwidth,
            &[1.0, 2.0, 4.0, 8.0],
        );
        for w in pts.windows(2) {
            assert!(w[1].local_ns <= w[0].local_ns + 1e-9);
            assert!(w[1].shared_ns <= w[0].shared_ns + 1e-9);
        }
    }

    #[test]
    fn table_lists_every_point() {
        let pts = sweep(
            Platform::CpuOnly,
            &base(8),
            SweepParam::DnnCpu,
            &[0.5, 1.0, 2.0],
        );
        let t = format_table(SweepParam::DnnCpu, &pts);
        assert_eq!(t.lines().count(), 4, "header + 3 rows:\n{t}");
        assert!(t.contains("T_dnn_cpu"));
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn nonpositive_factor_rejected() {
        let _ = SweepParam::DnnCpu.scaled(&base(4), 0.0);
    }

    #[test]
    #[should_panic(expected = "needs accel")]
    fn launch_sweep_without_accel_rejected() {
        let mut b = base(4);
        b.accel = None;
        let _ = SweepParam::Launch.scaled(&b, 2.0);
    }
}
