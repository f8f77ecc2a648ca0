//! Multi-session, multi-shard search serving.
//!
//! The `mcts` crate made search a resumable, schedulable unit
//! ([`mcts::SearchScheme::begin`] / [`mcts::SearchScheme::step`] /
//! [`mcts::SearchScheme::partial_result`] /
//! [`mcts::SearchScheme::cancel`]). This crate turns that unit into a
//! serving system, in two layers:
//!
//! # Layer 1: [`SearchService`] — many sessions, one worker pool
//!
//! * Accepts [`SearchRequest`]s (game state, scheme choice,
//!   [`mcts::Budget`], [`Priority`]) and returns a clonable
//!   [`SearchTicket`] with `poll`/`wait`/`cancel`, **anytime partial
//!   results** (each snapshot carries a sequence number in
//!   `stats.seq`), and **push-style streaming** via
//!   [`SearchTicket::subscribe`] — a [`ResultStream`] delivers every
//!   fresh snapshot and the final result without polling;
//! * sessions are stepped in slices of [`ServeConfig::step_quota`]
//!   playouts by a **weighted-fair stride scheduler**: each
//!   [`Priority`] class gets scheduling slices in proportion to its
//!   [`ServeConfig::class_weights`] weight (earliest-deadline-first
//!   within a class), so high-priority traffic is favored without ever
//!   starving background work, and dispatch stays O(log n) at tens of
//!   thousands of sessions;
//! * `Serial`-scheme sessions run on **pooled, warmed
//!   [`mcts::ReusableSearch`] instances**: a finished session's arena
//!   is reset in place, re-bounded to the next request's own memory
//!   budget and handed to that session, so steady-state serving does not
//!   grow tree memory per request;
//! * every session's leaf evaluations are funneled through **one shared
//!   [`mcts::CoalescingEvaluator`] per distinct backend**, so concurrent
//!   sessions fill each other's inference batches — cross-session
//!   batching, the serving analogue of the paper's §3.3 request queue —
//!   wherever the backend's measured forward-time curve says a shared
//!   batch beats the workers' single-sample forwards side by side; where
//!   it does not, the layer passes each worker's call straight through.
//!   That curve — the layer's own [`mcts::BatchTuner`], calibrated when
//!   the backend's first session arrives — is all that steers a round:
//!   there is no batching knob in [`ServeConfig`].
//!
//! # Backend records
//!
//! What the sessions of one model share lives in one crate-private
//! record per model, found by the identity of the evaluator `Arc` a
//! request carries: the retry/breaker wrapper around the backend, its
//! evaluation cache, its home shard, and per shard the coalescing layer
//! and the assembled evaluator stack (cache → coalescer → retry/breaker
//! → backend), built once per backend. A cluster's shards share the
//! records, so a model's cache and breaker are cluster-wide. A record
//! lasts while a session runs on it or a caller still holds the
//! evaluator `Arc`; the first submit after that evicts it, folding its
//! counters into the service totals (which therefore never decrease).
//!
//! # Layer 2: [`ServeCluster`] — many services, one front door
//!
//! A [`ServeCluster`] owns N service shards and adds what a single
//! service cannot provide:
//!
//! * **admission control & load shedding**
//!   ([`AdmissionController`]): a per-model token bucket on admitted
//!   playouts, a bounded pending-session count, and byte quotas on the
//!   arena memory each session would reserve (per session and per
//!   model); overflow gets an explicit [`Rejection`] with a
//!   `retry_after` hint instead of a spot in an unbounded queue;
//! * **placement** ([`PlacementPolicy`]): least-loaded routing by
//!   outstanding playout budget, with backend affinity so same-model
//!   sessions land where that model's coalescing layer already runs.
//!
//! # Quickstart
//!
//! One service, one request, streamed results:
//!
//! ```
//! use games::tictactoe::TicTacToe;
//! use mcts::{Budget, UniformEvaluator};
//! use serve::{SearchRequest, SearchService, ServeConfig, StreamItem};
//! use std::sync::Arc;
//!
//! let service = SearchService::new(ServeConfig::default());
//! let eval = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
//! let ticket = service.submit(
//!     SearchRequest::new(TicTacToe::new(), eval).budget(Budget::playouts(64)),
//! );
//! let mut last_seq = 0;
//! for item in ticket.subscribe() {
//!     match item {
//!         StreamItem::Partial(snap) => {
//!             assert!(snap.stats.seq > last_seq, "snapshots arrive in order");
//!             last_seq = snap.stats.seq;
//!         }
//!         StreamItem::Final(result, _status) => {
//!             assert_eq!(result.stats.playouts, 64);
//!         }
//!     }
//! }
//! ```
//!
//! A sharded cluster with admission control — overload is shed, not
//! queued:
//!
//! ```
//! use games::tictactoe::TicTacToe;
//! use mcts::{Budget, UniformEvaluator};
//! use serve::{
//!     AdmissionConfig, ClusterConfig, SearchRequest, ServeCluster, ServeConfig,
//! };
//! use std::sync::Arc;
//!
//! let cluster = ServeCluster::new(ClusterConfig {
//!     shards: 2,
//!     shard: ServeConfig { workers: 2, ..Default::default() },
//!     admission: Some(AdmissionConfig {
//!         playouts_per_sec: 1000.0,
//!         burst_playouts: 200,
//!         max_pending: 64,
//!         ..Default::default()
//!     }),
//! });
//! let eval = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
//! let first = cluster.submit(
//!     SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>)
//!         .budget(Budget::playouts(150)),
//! );
//! assert!(first.is_ok(), "within the 200-playout burst");
//! let second = cluster.submit(
//!     SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>)
//!         .budget(Budget::playouts(150)),
//! );
//! let rejection = second.expect_err("bucket drained: shed, not queued");
//! assert!(rejection.retry_after.as_secs_f64() > 0.0);
//! first.unwrap().wait();
//! ```

mod admission;
mod backend;
mod cluster;
mod health;
mod scheduler;
mod service;
mod session;
mod supervisor;

pub use admission::{AdmissionConfig, AdmissionController, RejectReason, Rejection};
pub use cluster::{
    AffinityLeastLoaded, ClusterConfig, ClusterStats, ClusterTicket, DrainReport, LeastLoaded,
    PlacementPolicy, ServeCluster,
};
pub use health::{BreakerState, CircuitBreaker};
pub use service::{SearchService, ServeConfig, ServiceStats};
pub use session::{ResultStream, SearchTicket, StreamItem, TicketStatus, WaitOutcome};

use games::Game;
use mcts::{BatchEvaluator, Budget, MctsConfig, Scheme};
use std::sync::Arc;
use std::time::Duration;

/// Deterministically jitter `base` upward by up to `spread`× of itself:
/// the result lies in `[base, base·(1+spread))`, keyed by `salt`
/// (splitmix64 — no global RNG, reproducible under a fixed salt
/// sequence). Shedding and retry layers use this so that a burst of
/// clients rejected at the same instant does not come back as a
/// synchronized thundering herd.
pub(crate) fn jittered(base: Duration, salt: u64, spread: f64) -> Duration {
    let mut z = salt.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    base.mul_f64(1.0 + spread * unit)
}

/// Scheduling priority of a session. The weighted-fair scheduler grants
/// each class slices in proportion to its
/// [`ServeConfig::class_weights`] weight — higher classes are favored,
/// lower classes are never starved; within a class, earlier deadlines
/// win and deadline-free sessions round-robin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work (analysis, prefetching).
    Low,
    /// Interactive default.
    #[default]
    Normal,
    /// Latency-critical requests.
    High,
}

impl Priority {
    /// Number of priority classes.
    pub const COUNT: usize = 3;

    /// Class index into weight tables: `[Low, Normal, High]`.
    pub(crate) fn index(self) -> usize {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }
}

/// The configuration a request's session runs under: its budget's
/// overrides folded into its config, then the tree arena clamped to the
/// service's per-session ceiling ([`ServeConfig::session_arena_bytes`]).
/// What the cluster prices at admission and what the shard builds and
/// bounds the session with are this one value.
pub(crate) fn run_config(
    budget: &Budget,
    config: &MctsConfig,
    arena_cap: Option<usize>,
) -> MctsConfig {
    let mut cfg = budget.apply_to(config);
    if let Some(cap) = arena_cap {
        cfg.arena_budget_bytes = Some(cfg.arena_budget_bytes.map_or(cap, |b| b.min(cap)));
    }
    cfg
}

/// The admitted playout budget of a session, off its [`run_config`]:
/// what admission meters and placement balances. A request bounded only
/// by wall-clock time is costed at its configured playout ceiling (the
/// paper's iteration budget remains the upper bound on work).
pub(crate) fn session_cost(run_cfg: &MctsConfig) -> u64 {
    (run_cfg.playouts as u64).max(1)
}

/// One search request: a root state plus how to search it and how much.
pub struct SearchRequest<G: Game> {
    /// The state to search from.
    pub root: G,
    /// Which scheme executes the session. `Serial` (the default) runs on
    /// a pooled warmed [`mcts::ReusableSearch`]; other schemes are built
    /// per session via [`mcts::SearchBuilder`].
    pub scheme: Scheme,
    /// Hyper-parameters for the session.
    pub config: MctsConfig,
    /// Playout/deadline/memory budget. `playouts` and `max_bytes` left
    /// `None` inherit from `config`; `time` is the session's only
    /// deadline (`None` ⇒ none), and its clock starts at submission.
    pub budget: Budget,
    /// Scheduling priority.
    pub priority: Priority,
    /// Leaf evaluator. Submitting the **same** `Arc` across requests
    /// lets the service funnel their evaluations through one shared
    /// coalescing layer (and lets a cluster route them to the same
    /// shard), filling cross-session batches.
    pub evaluator: Arc<dyn BatchEvaluator>,
}

impl<G: Game> SearchRequest<G> {
    /// A request with default scheme (`Serial`), config, budget and
    /// priority.
    pub fn new(root: G, evaluator: Arc<dyn BatchEvaluator>) -> Self {
        SearchRequest {
            root,
            scheme: Scheme::Serial,
            config: MctsConfig::default(),
            budget: Budget::default(),
            priority: Priority::Normal,
            evaluator,
        }
    }

    /// Set the executing scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Set the session hyper-parameters.
    pub fn config(mut self, config: MctsConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the session budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Set the scheduling priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}
