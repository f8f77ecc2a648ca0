//! [`Scheme`] and [`SearchBuilder`]: one construction path for every
//! search scheme.
//!
//! The paper's program template takes a `flag_local` input (Algorithm 1)
//! decided at compile time by the design-configuration workflow (§3.2).
//! [`Scheme`] is that flag, generalized to all implemented schemes: build
//! the one the performance model selected (see `perfmodel::configurator`)
//! and call [`SearchScheme::search`] as usual.
//!
//! The schemes' direct constructors differ in shape (devices for the
//! local scheme, a second model for speculation, statefulness for
//! reuse). The builder folds all of that behind a fluent API so sweeps
//! over [`Scheme::ALL`] stay one-liners:
//!
//! ```
//! use games::tictactoe::TicTacToe;
//! use mcts::{Scheme, SearchBuilder, UniformEvaluator};
//! use std::sync::Arc;
//!
//! for scheme in Scheme::ALL {
//!     let mut search = SearchBuilder::new(scheme)
//!         .playouts(32)
//!         .workers(2)
//!         .evaluator(Arc::new(UniformEvaluator::new(36, 9)))
//!         .build::<TicTacToe>();
//!     let r = search.search(&TicTacToe::new());
//!     assert!(r.stats.playouts >= 32, "{scheme}");
//! }
//! ```

use crate::budget::Budget;
use crate::config::{LockKind, MctsConfig, VirtualLoss};
use crate::evaluator::{AccelEvaluator, BatchEvaluator, UniformEvaluator};
use crate::leaf_parallel::LeafParallelSearch;
use crate::local::LocalTreeSearch;
use crate::noise::RootNoise;
use crate::result::SearchScheme;
use crate::reuse::ReusableSearch;
use crate::root_parallel::RootParallelSearch;
use crate::shared::SharedTreeSearch;
use crate::speculative::SpeculativeSearch;
use accel::Device;
use games::Game;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which parallel implementation to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// Single-thread baseline.
    Serial,
    /// §3.1.1: `N` threads, one lock-protected tree.
    SharedTree,
    /// §3.1.2: master thread + `N` inference workers.
    LocalTree,
    /// Baseline: replicate evaluations at one leaf.
    LeafParallel,
    /// Baseline: independent trees merged at the root.
    RootParallel,
    /// Baseline (§2.2 \[7\], SpecMCTS-style): serial in-tree discipline with
    /// cheap speculative expansion corrected by the main model. Built with
    /// a uniform-prior speculative model; for a custom cheap model use
    /// [`crate::speculative::SpeculativeSearch`] directly.
    Speculative,
}

impl Scheme {
    /// All schemes (for sweeps/benches).
    pub const ALL: [Scheme; 6] = [
        Scheme::Serial,
        Scheme::SharedTree,
        Scheme::LocalTree,
        Scheme::LeafParallel,
        Scheme::RootParallel,
        Scheme::Speculative,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Serial => "serial",
            Scheme::SharedTree => "shared-tree",
            Scheme::LocalTree => "local-tree",
            Scheme::LeafParallel => "leaf-parallel",
            Scheme::RootParallel => "root-parallel",
            Scheme::Speculative => "speculative",
        }
    }

    /// Instantiate this scheme for game type `G` (one-liner convenience
    /// over [`SearchBuilder`], which is the full API).
    pub fn build<G: Game>(
        self,
        cfg: MctsConfig,
        evaluator: Arc<dyn BatchEvaluator>,
    ) -> Box<dyn SearchScheme<G>> {
        SearchBuilder::new(self)
            .config(cfg)
            .evaluator(evaluator)
            .build()
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a builder's evaluations come from.
enum EvalSource {
    /// Any batch evaluator (CPU network, uniform stub…).
    Batch(Arc<dyn BatchEvaluator>),
    /// An accelerator device: schemes that can will feed its queue
    /// natively (local tree); the rest get an [`AccelEvaluator`] view.
    Device(Arc<Device>),
}

/// Fluent constructor for all search schemes (see module docs).
pub struct SearchBuilder {
    scheme: Scheme,
    cfg: MctsConfig,
    eval: Option<EvalSource>,
    spec: Option<Arc<dyn BatchEvaluator>>,
    commit_batch: Option<usize>,
    reuse: bool,
}

impl SearchBuilder {
    /// Start building a searcher for `scheme` with default
    /// [`MctsConfig`].
    pub fn new(scheme: Scheme) -> Self {
        SearchBuilder {
            scheme,
            cfg: MctsConfig::default(),
            eval: None,
            spec: None,
            commit_batch: None,
            reuse: false,
        }
    }

    /// Replace the whole hyper-parameter block at once.
    pub fn config(mut self, cfg: MctsConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Playouts per move.
    pub fn playouts(mut self, playouts: usize) -> Self {
        self.cfg.playouts = playouts;
        self
    }

    /// Parallel workers `N`.
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// UCT exploration constant.
    pub fn c_puct(mut self, c: f32) -> Self {
        self.cfg.c_puct = c;
        self
    }

    /// Virtual-loss policy.
    pub fn virtual_loss(mut self, vl: VirtualLoss) -> Self {
        self.cfg.virtual_loss = vl;
        self
    }

    /// Shared-tree locking discipline.
    pub fn lock_kind(mut self, lock: LockKind) -> Self {
        self.cfg.lock_kind = lock;
        self
    }

    /// AlphaZero-style Dirichlet root noise for self-play.
    pub fn root_noise(mut self, noise: RootNoise) -> Self {
        self.cfg.root_noise = Some(noise);
        self
    }

    /// Wall-clock budget per move, enforced by **every** scheme: no new
    /// playout (shared tree: rollout ticket; local tree: issued leaf)
    /// starts after the deadline and the search returns promptly;
    /// `playouts` remains an upper bound.
    pub fn time_budget_ms(mut self, ms: u64) -> Self {
        self.cfg.time_budget_ms = Some(ms);
        self
    }

    /// Fold a unified [`Budget`] into the configuration: `playouts`,
    /// `time` and `max_bytes` map onto the corresponding
    /// [`MctsConfig`] fields (fields left `None` keep their current
    /// values). The same `Budget` type can also be passed per run via
    /// [`SearchScheme::begin`].
    pub fn budget(mut self, budget: Budget) -> Self {
        self.cfg = budget.apply_to(&self.cfg);
        self
    }

    /// Keep the played subtree between moves (serial scheme only; the
    /// built searcher re-roots on [`SearchScheme::advance`]).
    pub fn reuse(mut self, reuse: bool) -> Self {
        self.reuse = reuse;
        self
    }

    /// Evaluate leaves with `eval` (batch-first interface; concrete
    /// `Arc<MyEvaluator>` coerces here).
    pub fn evaluator(mut self, eval: Arc<dyn BatchEvaluator>) -> Self {
        self.eval = Some(EvalSource::Batch(eval));
        self
    }

    /// Evaluate leaves on an accelerator device. The local-tree scheme
    /// feeds the device queue natively (async tickets); other schemes
    /// submit through an [`AccelEvaluator`].
    pub fn device(mut self, device: Arc<Device>) -> Self {
        self.eval = Some(EvalSource::Device(device));
        self
    }

    /// Cheap model for the speculative scheme (defaults to uniform
    /// priors when unset).
    pub fn speculative_model(mut self, spec: Arc<dyn BatchEvaluator>) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Corrections per main-model batch in the speculative scheme
    /// (defaults to `workers`).
    pub fn commit_batch(mut self, batch: usize) -> Self {
        self.commit_batch = Some(batch);
        self
    }

    /// The hyper-parameters as currently configured.
    pub fn current_config(&self) -> &MctsConfig {
        &self.cfg
    }

    /// Instantiate the configured scheme for game type `G`.
    ///
    /// # Panics
    /// If no evaluator/device was provided, if `reuse(true)` is combined
    /// with a non-serial scheme, or if the config is invalid.
    pub fn build<G: Game>(self) -> Box<dyn SearchScheme<G>> {
        let cfg = self.cfg;
        cfg.validate();
        assert!(
            !self.reuse || self.scheme == Scheme::Serial,
            "tree reuse requires the serial scheme (got {})",
            self.scheme
        );
        // Scheme-specific knobs are rejected, not silently dropped.
        assert!(
            (self.spec.is_none() && self.commit_batch.is_none())
                || self.scheme == Scheme::Speculative,
            "speculative_model/commit_batch apply only to the speculative scheme (got {})",
            self.scheme
        );
        let source = self
            .eval
            .expect("SearchBuilder needs an evaluator or device");

        // Local tree with a device bypasses AccelEvaluator entirely:
        // tickets go straight to the device queue.
        if self.scheme == Scheme::LocalTree {
            return match source {
                EvalSource::Device(d) => Box::new(LocalTreeSearch::with_device(cfg, d)),
                EvalSource::Batch(e) => Box::new(LocalTreeSearch::new(cfg, e)),
            };
        }

        let eval: Arc<dyn BatchEvaluator> = match source {
            EvalSource::Batch(e) => e,
            EvalSource::Device(d) => Arc::new(AccelEvaluator::new(d)),
        };
        match self.scheme {
            Scheme::Serial if self.reuse => Box::new(ReusableSearch::new(cfg, eval)),
            Scheme::Serial => Box::new(ReusableSearch::one_shot(cfg, eval)),
            Scheme::SharedTree => Box::new(SharedTreeSearch::new(cfg, eval)),
            Scheme::LeafParallel => Box::new(LeafParallelSearch::new(cfg, eval)),
            Scheme::RootParallel => Box::new(RootParallelSearch::new(cfg, eval)),
            Scheme::Speculative => {
                let spec = self.spec.unwrap_or_else(|| {
                    Arc::new(UniformEvaluator::new(eval.input_len(), eval.action_space()))
                });
                // Commit corrections in worker-sized batches, mirroring
                // the pipeline depth a real speculative system would use.
                let commit = self.commit_batch.unwrap_or_else(|| cfg.workers.max(1));
                Box::new(SpeculativeSearch::new(cfg, eval, spec, commit))
            }
            Scheme::LocalTree => unreachable!("handled above"),
        }
    }

    /// Like [`SearchBuilder::build`], but returns the concrete reusable
    /// searcher so callers can query `inherited_nodes`/`retained_nodes`.
    pub fn build_reusable(self) -> ReusableSearch {
        let cfg = self.cfg;
        cfg.validate();
        assert_eq!(
            self.scheme,
            Scheme::Serial,
            "tree reuse requires the serial scheme"
        );
        assert!(
            self.spec.is_none() && self.commit_batch.is_none(),
            "speculative knobs do not apply to a reusable serial searcher"
        );
        let eval: Arc<dyn BatchEvaluator> = match self
            .eval
            .expect("SearchBuilder needs an evaluator or device")
        {
            EvalSource::Batch(e) => e,
            EvalSource::Device(d) => Arc::new(AccelEvaluator::new(d)),
        };
        ReusableSearch::new(cfg, eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use games::tictactoe::TicTacToe;
    use games::Game;

    fn uniform() -> Arc<UniformEvaluator> {
        Arc::new(UniformEvaluator::for_game(&TicTacToe::new()))
    }

    #[test]
    fn builds_every_scheme() {
        for scheme in Scheme::ALL {
            let mut s = SearchBuilder::new(scheme)
                .playouts(40)
                .workers(2)
                .evaluator(uniform())
                .build::<TicTacToe>();
            let r = s.search(&TicTacToe::new());
            assert!(r.stats.playouts >= 40, "{scheme}");
        }
    }

    #[test]
    fn all_schemes_agree_on_forced_win() {
        let mut g = TicTacToe::new();
        for a in [0u16, 3, 1, 4] {
            g.apply(a);
        }
        let cfg = MctsConfig {
            playouts: 300,
            workers: 4,
            ..Default::default()
        };
        for scheme in Scheme::ALL {
            let r = scheme.build(cfg, uniform()).search(&g);
            assert_eq!(r.best_action(), 2, "{scheme} missed the win");
        }
    }

    #[test]
    fn scheme_names_unique() {
        let mut names: Vec<_> = Scheme::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Scheme::ALL.len());
    }

    #[test]
    fn knobs_reach_the_config() {
        let b = SearchBuilder::new(Scheme::SharedTree)
            .playouts(123)
            .workers(7)
            .c_puct(2.5)
            .virtual_loss(VirtualLoss::VisitTracking)
            .lock_kind(LockKind::Atomic)
            .time_budget_ms(250);
        let cfg = b.current_config();
        assert_eq!(cfg.playouts, 123);
        assert_eq!(cfg.workers, 7);
        assert_eq!(cfg.c_puct, 2.5);
        assert_eq!(cfg.virtual_loss, VirtualLoss::VisitTracking);
        assert_eq!(cfg.lock_kind, LockKind::Atomic);
        assert_eq!(cfg.time_budget_ms, Some(250));
    }

    #[test]
    fn reuse_builds_a_reusable_serial_scheme() {
        let mut s = SearchBuilder::new(Scheme::Serial)
            .playouts(60)
            .evaluator(uniform())
            .reuse(true)
            .build::<TicTacToe>();
        let mut g = TicTacToe::new();
        let r = s.search(&g);
        let a = r.best_action();
        s.advance(a);
        g.apply(a);
        let r2 = s.search(&g);
        assert_eq!(r2.stats.playouts, 60);
        assert_eq!(s.name(), "serial+reuse");
    }

    #[test]
    #[should_panic(expected = "speculative scheme")]
    fn speculative_knobs_rejected_off_speculative() {
        let _ = SearchBuilder::new(Scheme::LocalTree)
            .evaluator(uniform())
            .commit_batch(4)
            .build::<TicTacToe>();
    }

    #[test]
    #[should_panic(expected = "serial scheme")]
    fn reuse_rejects_parallel_schemes() {
        let _ = SearchBuilder::new(Scheme::SharedTree)
            .evaluator(uniform())
            .reuse(true)
            .build::<TicTacToe>();
    }

    #[test]
    #[should_panic(expected = "needs an evaluator")]
    fn missing_evaluator_panics() {
        let _ = SearchBuilder::new(Scheme::Serial).build::<TicTacToe>();
    }

    #[test]
    fn device_route_builds_local_and_shared() {
        use accel::{Device, DeviceConfig};
        use nn::{NetConfig, PolicyValueNet};
        let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 12));
        let dev = Arc::new(Device::new(net, DeviceConfig::instant(2)));
        for scheme in [Scheme::LocalTree, Scheme::SharedTree, Scheme::Serial] {
            let mut s = SearchBuilder::new(scheme)
                .playouts(24)
                .workers(2)
                .device(Arc::clone(&dev))
                .build::<TicTacToe>();
            let r = s.search(&TicTacToe::new());
            assert_eq!(r.stats.playouts, 24, "{scheme}");
        }
        assert!(dev.stats().samples > 0);
    }
}
