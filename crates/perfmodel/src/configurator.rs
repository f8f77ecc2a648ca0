//! The end-to-end design-configuration workflow (§4.2):
//!
//! 1. profile `T_select`, `T_backup`, `T^CPU_DNN` and the shared-memory
//!    access latency on the target host (design time);
//! 2. plug them into the performance models (Eqs. 3–6);
//! 3. choose the parallel scheme at "compile time";
//! 4. for CPU-GPU local-tree configurations, tune the sub-batch size `B`
//!    with Algorithm 4 (O(log N) test runs).

use crate::model::{self, PerfParams, Platform};
use crate::profiler::ProfiledCosts;
use crate::vsearch;
use accel::LatencyModel;
use mcts::Scheme;
use nn::PolicyValueNet;

/// The workflow's output: what to build and what the models predicted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignChoice {
    /// Selected parallel scheme.
    pub scheme: Scheme,
    /// Selected accelerator sub-batch size (CPU-GPU local tree only).
    pub batch: Option<usize>,
    /// Model-predicted per-iteration latency of the local-tree scheme, ns.
    pub predicted_local_ns: f64,
    /// Model-predicted per-iteration latency of the shared-tree scheme, ns.
    pub predicted_shared_ns: f64,
    /// Oracle probes spent tuning `batch` (Algorithm 4 cost).
    pub tuning_evals: usize,
}

impl DesignChoice {
    /// Predicted speedup of the selected scheme over the rejected one.
    pub fn predicted_speedup(&self) -> f64 {
        let (win, lose) = if self.scheme == Scheme::LocalTree {
            (self.predicted_local_ns, self.predicted_shared_ns)
        } else {
            (self.predicted_shared_ns, self.predicted_local_ns)
        };
        lose / win
    }
}

/// Design-configuration driver.
#[derive(Debug, Clone)]
pub struct DesignConfigurator {
    /// Profiled host costs.
    pub costs: ProfiledCosts,
    /// Accelerator model, if the platform has one.
    pub accel: Option<LatencyModel>,
}

impl DesignConfigurator {
    /// Build from an existing profile.
    pub fn new(costs: ProfiledCosts, accel: Option<LatencyModel>) -> Self {
        DesignConfigurator { costs, accel }
    }

    /// Run the design-time profile on this host (§4.2 step 1). `fanout`
    /// and `depth` describe the target algorithm's tree geometry; the
    /// network carries the input/output shapes.
    pub fn profile(
        net: &PolicyValueNet,
        fanout: usize,
        depth: usize,
        iters: usize,
        accel: Option<LatencyModel>,
    ) -> Self {
        DesignConfigurator {
            costs: crate::profiler::profile_host(net, fanout, depth, iters),
            accel,
        }
    }

    /// Model parameters for `workers` parallel workers.
    pub fn params(&self, workers: usize) -> PerfParams {
        PerfParams {
            workers,
            t_select_ns: self.costs.t_select_ns,
            t_backup_ns: self.costs.t_backup_ns,
            t_shared_access_ns: self.costs.t_shared_access_ns,
            t_dnn_cpu_ns: self.costs.t_dnn_cpu_ns,
            accel: self.accel,
        }
    }

    /// Steps 2–4: pick the scheme (and batch size on CPU-GPU platforms)
    /// for `workers` workers using the closed-form models as the oracle.
    pub fn configure(&self, platform: Platform, workers: usize) -> DesignChoice {
        let p = self.params(workers);
        match platform {
            Platform::CpuOnly => {
                let local = model::local_cpu_iteration_ns(&p);
                let shared = model::shared_cpu_iteration_ns(&p);
                DesignChoice {
                    scheme: if local <= shared {
                        Scheme::LocalTree
                    } else {
                        Scheme::SharedTree
                    },
                    batch: None,
                    predicted_local_ns: local,
                    predicted_shared_ns: shared,
                    tuning_evals: 0,
                }
            }
            Platform::CpuGpu => {
                assert!(self.accel.is_some(), "CpuGpu platform needs accel model");
                let shared = model::shared_gpu_iteration_ns(&p);
                let mut oracle = |b: usize| model::local_gpu_iteration_ns(&p, b);
                let report = vsearch::find_min_vsequence_counted(1, workers, &mut oracle);
                let local = model::local_gpu_iteration_ns(&p, report.argmin);
                let local_wins = local <= shared;
                DesignChoice {
                    scheme: if local_wins {
                        Scheme::LocalTree
                    } else {
                        Scheme::SharedTree
                    },
                    batch: Some(if local_wins { report.argmin } else { workers }),
                    predicted_local_ns: local,
                    predicted_shared_ns: shared,
                    tuning_evals: report.evals,
                }
            }
        }
    }

    /// Tune the batch size against a *live* oracle (e.g. real test runs of
    /// `get_action_prior`, the paper's "Test Run" in Algorithm 4 line 5)
    /// instead of the analytic model.
    pub fn tune_batch_live(
        &self,
        workers: usize,
        mut run: impl FnMut(usize) -> f64,
    ) -> (usize, usize) {
        let report = vsearch::find_min_vsequence_counted(1, workers, &mut run);
        (report.argmin, report.evals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(dnn_ns: f64, in_tree_ns: f64) -> ProfiledCosts {
        ProfiledCosts {
            t_select_ns: in_tree_ns * 2.0 / 3.0,
            t_backup_ns: in_tree_ns / 3.0,
            t_shared_access_ns: 300.0,
            t_dnn_cpu_ns: dnn_ns,
        }
    }

    #[test]
    fn dnn_bound_configs_pick_local() {
        let c = DesignConfigurator::new(costs(2_000_000.0, 5_000.0), None);
        let choice = c.configure(Platform::CpuOnly, 4);
        assert_eq!(choice.scheme, Scheme::LocalTree);
        assert!(choice.predicted_speedup() >= 1.0);
    }

    #[test]
    fn in_tree_bound_configs_pick_shared() {
        let c = DesignConfigurator::new(costs(50_000.0, 60_000.0), None);
        let choice = c.configure(Platform::CpuOnly, 64);
        assert_eq!(choice.scheme, Scheme::SharedTree);
    }

    #[test]
    fn cpu_gpu_choice_reports_batch() {
        let accel = LatencyModel::a6000_like(4 * 15 * 15 * 4);
        let c = DesignConfigurator::new(costs(1_200_000.0, 9_000.0), Some(accel));
        let choice = c.configure(Platform::CpuGpu, 32);
        assert!(choice.batch.is_some());
        let b = choice.batch.unwrap();
        assert!((1..=32).contains(&b));
        // Algorithm 4 cost: O(log N), not O(N).
        assert!(
            choice.tuning_evals <= 2 * 6,
            "evals {}",
            choice.tuning_evals
        );
    }

    #[test]
    fn live_tuning_uses_logarithmic_probes() {
        let c = DesignConfigurator::new(costs(1.0, 1.0), None);
        let mut calls = 0usize;
        let (b, evals) = c.tune_batch_live(64, |x| {
            calls += 1;
            (x as f64 - 20.0).abs()
        });
        assert_eq!(b, 20);
        assert!(evals <= 12);
        assert_eq!(calls, evals);
    }

    #[test]
    fn speedup_is_symmetric_in_favored_scheme() {
        let local_favored = DesignChoice {
            scheme: Scheme::LocalTree,
            batch: None,
            predicted_local_ns: 100.0,
            predicted_shared_ns: 150.0,
            tuning_evals: 0,
        };
        assert!((local_favored.predicted_speedup() - 1.5).abs() < 1e-9);
        let shared_favored = DesignChoice {
            scheme: Scheme::SharedTree,
            predicted_local_ns: 300.0,
            predicted_shared_ns: 150.0,
            ..local_favored
        };
        assert!((shared_favored.predicted_speedup() - 2.0).abs() < 1e-9);
    }
}
