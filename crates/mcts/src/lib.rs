//! Tree-parallel DNN-guided Monte-Carlo Tree Search with adaptive
//! parallelism — the core contribution of the reproduced paper.
//!
//! # Batch-first evaluation
//!
//! The search↔inference boundary is batch-first: every scheme consumes a
//! [`BatchEvaluator`] (`evaluate_batch` over `[B, C, H, W]` inputs), and
//! asynchronous backends are driven through an [`EvalClient`]
//! (submit/gather tickets) so one thread can keep many leaves in flight.
//! [`BatchEvaluator`] is the only evaluator contract; a single-sample
//! backend implements `evaluate_batch` as a loop.
//!
//! # The two parallel schemes
//!
//! * [`shared::SharedTreeSearch`] — §3.1.1: `N` worker threads share one
//!   concurrent tree; per-node locks (or lock-free atomics) protect edge
//!   statistics; virtual loss steers workers onto different paths, and
//!   concurrent evaluations coalesce into shared inference batches
//!   wherever the [`CoalescingEvaluator`]'s measured forward-time curve
//!   says a batch pays (its [`BatchTuner`]'s operating point is the one
//!   rule that sizes and times a round, here and in the `serve` crate).
//! * [`local::LocalTreeSearch`] — §3.1.2: a single master thread owns the
//!   entire tree (no locks, cache-friendly arena) and performs all in-tree
//!   operations, keeping leaves in flight through [`EvalClient`] tickets —
//!   batched CPU inference workers or the accelerator queue's native
//!   async submit/poll interface (Algorithm 3's FIFO pipes).
//!
//! * [`reuse::ReusableSearch`] (the serial searcher, with or without
//!   tree reuse across moves), [`leaf_parallel::LeafParallelSearch`],
//!   [`root_parallel::RootParallelSearch`] and
//!   [`speculative::SpeculativeSearch`] are the baselines from §2.2.
//!   Every scheme that owns its tree outright runs the one playout loop
//!   in the crate-private `playout` module and differs only in what it
//!   does with a selected leaf.
//!
//! [`Scheme`] names them all; [`Scheme::build`] instantiates the one the
//! performance model selected (see the `perfmodel` crate), reproducing
//! the paper's compile-time adaptive selection.
//!
//! # Resumable budgeted runs
//!
//! Search is an incremental, schedulable unit: every scheme implements
//! [`SearchScheme::begin`] (open a run under a uniform [`Budget`] of
//! playouts / wall-clock deadline / tree memory), [`SearchScheme::step`]
//! (advance by a bounded slice of playouts),
//! [`SearchScheme::partial_result`] (anytime snapshot) and
//! [`SearchScheme::cancel`]. One-shot [`SearchScheme::search`] is a
//! provided loop over `step`, so blocking callers are unchanged — while
//! a serving layer (the `serve` crate) can multiplex many concurrent
//! sessions over a fixed worker pool.
//!
//! # Quickstart
//!
//! Every scheme is constructed through [`SearchBuilder`] (direct
//! constructors exist too and behave identically):
//!
//! ```
//! use games::tictactoe::TicTacToe;
//! use mcts::{Scheme, SearchBuilder, UniformEvaluator};
//! use std::sync::Arc;
//!
//! let mut search = SearchBuilder::new(Scheme::Serial)
//!     .playouts(64)
//!     .evaluator(Arc::new(UniformEvaluator::for_game(&TicTacToe::new())))
//!     .build::<TicTacToe>();
//! let result = search.search(&TicTacToe::new());
//! // 64 playouts: the first expands the root, the rest visit children.
//! assert_eq!(result.visits.iter().sum::<u32>(), 63);
//! ```
//!
//! Keeping many leaves in flight by hand (what the local scheme does
//! internally):
//!
//! ```
//! use mcts::{EvalClient, UniformEvaluator};
//! use std::sync::Arc;
//!
//! let mut client = EvalClient::threaded(Arc::new(UniformEvaluator::new(4, 3)), 2);
//! let a = client.submit(17, &[0.0; 4]); // tag 17, e.g. a leaf id
//! let b = client.submit(42, &[1.0; 4]);
//! assert_eq!((a.tag, b.tag), (17, 42));
//! let done = client.gather_all();
//! assert_eq!(done.len(), 2);
//! assert_eq!(done[0].output.priors.len(), 3);
//! ```

pub mod analysis;
pub mod arena;
pub mod autotune;
pub mod budget;
pub mod builder;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod coalesce;
pub mod config;
pub mod error;
pub mod evaluator;
pub mod leaf_parallel;
pub mod local;
pub mod noise;
mod playout;
pub mod pool;
pub mod result;
pub mod reuse;
pub mod root_parallel;
pub mod shared;
pub mod speculative;
pub mod tree;

pub use arena::NodeArena;
pub use arena::NodeState;
pub use autotune::{AutotuneReport, BatchTuner, OperatingPoint};
pub use budget::{Budget, StepOutcome};
pub use builder::{Scheme, SearchBuilder};
pub use cache::{CacheStats, CachedEvaluator, EvalCache, EvalCacheConfig};
pub use chaos::{ChaosConfig, ChaosCounters, ChaosEvaluator, ChaosGame};
pub use client::{Completion, EvalClient, Ticket};
pub use coalesce::{CoalesceStats, CoalescingEvaluator};
pub use config::{LockKind, MctsConfig, VirtualLoss};
pub use error::{EvalError, SearchError};
pub use evaluator::{
    AccelEvaluator, BatchEvaluator, EvalOutput, NnEvaluator, Precision, UniformEvaluator,
};
pub use noise::RootNoise;
pub use result::{SearchResult, SearchScheme, SearchStats};
pub use reuse::ReusableSearch;
pub use speculative::SpeculativeSearch;
pub use tree::{select_kernel_name, Tree, TreeStats};
