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
//! local scheme, statefulness for reuse). The builder folds those behind
//! a fluent API so sweeps over [`Scheme::ALL`] stay one-liners. The
//! speculative scheme's second, cheap model is not a builder input: the
//! builder gives it uniform priors, and a custom one goes through
//! [`SpeculativeSearch::new`]. Hyper-parameters without a setter of
//! their own (`c_puct`, `virtual_loss`, `lock_kind`, …) go in through
//! [`SearchBuilder::config`]; a deadline goes in per run, through
//! [`Budget::time`](crate::Budget::time) at [`SearchScheme::begin`].
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

use crate::config::MctsConfig;
use crate::evaluator::{AccelEvaluator, BatchEvaluator, UniformEvaluator};
use crate::leaf_parallel::LeafParallelSearch;
use crate::local::LocalTreeSearch;
use crate::result::SearchScheme;
use crate::reuse::ReusableSearch;
use crate::root_parallel::RootParallelSearch;
use crate::shared::SharedTreeSearch;
use crate::speculative::SpeculativeSearch;
use accel::Device;
use games::Game;
use std::sync::Arc;

/// Which parallel implementation to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
                let spec = Arc::new(UniformEvaluator::new(eval.input_len(), eval.action_space()));
                // Commit corrections in worker-sized batches, mirroring
                // the pipeline depth a real speculative system would use.
                Box::new(SpeculativeSearch::new(cfg, eval, spec, cfg.workers))
            }
            Scheme::LocalTree => unreachable!("handled above"),
        }
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
    fn playouts_and_workers_reach_the_built_search() {
        let mut s = SearchBuilder::new(Scheme::Serial)
            .playouts(123)
            .evaluator(uniform())
            .build::<TicTacToe>();
        assert_eq!(s.search(&TicTacToe::new()).stats.playouts, 123);
        // Root parallelization gives every worker at least one playout,
        // so 3 requested over 7 workers runs 7.
        let mut s = SearchBuilder::new(Scheme::RootParallel)
            .playouts(3)
            .workers(7)
            .evaluator(uniform())
            .build::<TicTacToe>();
        assert_eq!(s.search(&TicTacToe::new()).stats.playouts, 7);
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
