//! # Adaptive-parallel DNN-guided MCTS
//!
//! A full Rust reproduction of *"Accelerating Deep Neural Network guided
//! MCTS using Adaptive Parallelism"* (Meng, Wang, Zu, Prasanna — SC 2023).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`games`] — board-game environments (Gomoku 15×15 is the paper's
//!   benchmark; TicTacToe/Connect-Four for fast tests);
//! * [`tensor`] / [`nn`] — the from-scratch DNN substrate (the paper's
//!   5-conv/3-FC policy-value network, loss, optimizers);
//! * [`accel`] — the simulated inference accelerator: batched request
//!   queues with **async submit/poll** clients and a PCIe/kernel-launch
//!   latency model;
//! * [`mcts`] — the core contribution: shared-tree and local-tree
//!   tree-parallel search over a **batch-first evaluation API**
//!   (`BatchEvaluator` / `EvalClient`), the serial/leaf/root baselines,
//!   and the `Scheme` / `SearchBuilder` construction layer;
//! * [`perfmodel`] — performance models (Eqs. 3–6), design-time profiler,
//!   Algorithm-4 batch-size search, and the timeline simulator;
//! * [`train`] — the self-play + SGD training pipeline with throughput
//!   and loss-curve metrics.
//!
//! ## Quickstart
//!
//! Build any scheme through [`mcts::SearchBuilder`]; inference is
//! batch-first end to end (here: real batched forward passes through a
//! random-weights network).
//!
//! ```
//! use adaptive_dnn_mcts::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A game and a (random-weights) policy-value network.
//! let game = Gomoku::new(7, 4);
//! let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 7, 7, 49), 0));
//!
//! // 2. Let the performance model pick the parallel scheme for 4 workers.
//! let costs = perfmodel::profiler::ProfiledCosts {
//!     t_select_ns: 2_000.0,
//!     t_backup_ns: 1_000.0,
//!     t_shared_access_ns: 300.0,
//!     t_dnn_cpu_ns: 400_000.0,
//! };
//! let configurator = DesignConfigurator::new(costs, None);
//! let choice = configurator.configure(Platform::CpuOnly, 4);
//!
//! // 3. Build the selected scheme and search one move.
//! let mut search = SearchBuilder::new(choice.scheme)
//!     .playouts(64)
//!     .workers(4)
//!     .evaluator(Arc::new(NnEvaluator::new(net)))
//!     .build::<Gomoku>();
//! let result = search.search(&game);
//! assert_eq!(result.stats.playouts, 64);
//! ```
//!
//! Routing inference through the simulated accelerator instead is one
//! builder call: `.device(device)` — the local-tree scheme then feeds
//! the device queue natively with async tickets (§3.3), no thread per
//! outstanding leaf.
//!
//! ## Writing an evaluator
//!
//! [`mcts::BatchEvaluator`] is the only evaluator contract: implement
//! `input_len`, `action_space` and `evaluate_batch(&[&[f32]], &mut
//! [EvalOutput])`. A backend with nothing to amortize across a batch
//! writes `evaluate_batch` as a loop over its samples and leaves
//! `preferred_batch()` at its default of 1, so schemes dispatch it
//! single-sample; `NnEvaluator` and `AccelEvaluator` batch natively (one
//! forward pass, or one queue submission wave, per batch). The blocking
//! single-sample `Evaluator` trait of 0.1, its blanket adapter and the
//! wrapper types around it are gone — port an old
//! `evaluate(&[f32]) -> (Vec<f32>, f32)` by moving its body into that
//! loop. The serial searcher is
//! [`mcts::ReusableSearch`]: `SearchBuilder::new(Scheme::Serial)` builds
//! it one-shot (a bare root every move), `.reuse(true)` keeps the played
//! subtree between moves.

pub use accel;
pub use games;
pub use mcts;
pub use nn;
pub use perfmodel;
pub use tensor;
pub use train;

/// Commonly-used items, one import away.
pub mod prelude {
    pub use accel::{Device, DeviceClient, DeviceConfig, LatencyModel};
    pub use games::connect4::Connect4;
    pub use games::gomoku::Gomoku;
    pub use games::hex::Hex;
    pub use games::othello::Othello;
    pub use games::symmetry::Symmetry;
    pub use games::synthetic::SyntheticGame;
    pub use games::tictactoe::TicTacToe;
    pub use games::{Action, Game, Player, Status};
    pub use mcts::{
        AccelEvaluator, BatchEvaluator, Budget, CacheStats, CachedEvaluator, CoalescingEvaluator,
        Completion, EvalCache, EvalCacheConfig, EvalClient, EvalOutput, LockKind, MctsConfig,
        NnEvaluator, ReusableSearch, RootNoise, Scheme, SearchBuilder, SearchResult, SearchScheme,
        SearchStats, SpeculativeSearch, Ticket, TreeStats, UniformEvaluator, VirtualLoss,
    };
    pub use nn::resnet::{ResNetConfig, ResNetPolicyValueNet};
    pub use nn::{NetConfig, PolicyValueNet};
    pub use perfmodel::{
        self, crossover_workers, sweep, DesignChoice, DesignConfigurator, PerfParams, Platform,
        SimParams, SweepParam,
    };
    pub use train::arena::{elo_diff, play_match, EloTracker, MatchResult};
    pub use train::{Pipeline, PipelineConfig, ReplayBuffer, Sample};
}
