//! The uniform search budget and the resumable-run plumbing shared by
//! every scheme.
//!
//! A [`Budget`] bounds one *run* (one `begin`…`step`…`Done` cycle) along
//! three axes — playouts, wall-clock deadline, tree memory. Every field
//! is optional. Playouts and bytes left `None` inherit the searcher's
//! [`MctsConfig`]; a deadline is not inherited, because the config has
//! none: [`Budget::time`] is the only way to give a run one, so
//! `Budget::default()` (what one-shot `search()` runs under) means "the
//! configured playouts and memory, no deadline".
//!
//! `RunGate` (crate-internal) is the per-run progress/deadline tracker
//! the schemes share: it resolves a budget against the config once at
//! [`SearchScheme::begin`](crate::SearchScheme::begin) and answers
//! "may another playout start?" on the hot path. It also counts the
//! run's completed `step` calls, which every scheme stamps into
//! [`SearchStats::seq`](crate::SearchStats::seq) — the snapshot
//! sequence number that lets a streaming consumer (the `serve` crate's
//! ticket subscriptions) order and deduplicate anytime snapshots.
//!
//! # Example: a budgeted, resumable run
//!
//! ```
//! use games::tictactoe::TicTacToe;
//! use mcts::{Budget, Scheme, SearchBuilder, StepOutcome, UniformEvaluator};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let mut search = SearchBuilder::new(Scheme::Serial)
//!     .playouts(10_000) // config ceiling (the budget tightens it)
//!     .evaluator(Arc::new(UniformEvaluator::for_game(&TicTacToe::new())))
//!     .build::<TicTacToe>();
//!
//! // 96 playouts or 5 seconds, whichever is hit first.
//! let budget = Budget::playouts(96).with_time(Duration::from_secs(5));
//! search.begin(&TicTacToe::new(), budget);
//! let mut snapshots = 0;
//! while search.step(32) == StepOutcome::Running {
//!     let snap = search.partial_result(); // anytime: exact over completed playouts
//!     snapshots += 1;
//!     assert_eq!(snap.stats.seq, snapshots, "each step bumps the snapshot seq");
//! }
//! let result = search.partial_result();
//! assert_eq!(result.stats.playouts, 96);
//! search.cancel(); // or just begin() the next run
//! ```

use crate::config::MctsConfig;
use std::any::Any;
use std::time::{Duration, Instant};

/// Uniform per-run search budget (see module docs). `playouts` and
/// `max_bytes` left `None` inherit from the scheme's [`MctsConfig`];
/// `time` left `None` means no deadline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budget {
    /// Maximum completed playouts for the run (`None` ⇒
    /// [`MctsConfig::playouts`]). Always an upper bound, even when a
    /// deadline is also set.
    pub playouts: Option<u64>,
    /// Wall-clock budget for the run, measured from
    /// [`SearchScheme::begin`](crate::SearchScheme::begin) (`None` ⇒ no
    /// deadline; a duration no clock can reach counts as none). Enforced
    /// by every scheme: no new playout (shared tree: rollout ticket;
    /// local tree: issued leaf) starts after the deadline, and the run
    /// reports [`StepOutcome::Done`] once in-flight work has drained.
    pub time: Option<Duration>,
    /// Hard tree-memory bound in bytes for the run's tree (`None` ⇒
    /// [`MctsConfig::arena_budget_bytes`]; turned into slots by
    /// [`MctsConfig::node_budget`]). Applies to a run that starts from a
    /// bare root — its tree is built, or the kept one reset and re-bound,
    /// for the run; a retained reuse tree keeps the bound it was built
    /// with.
    pub max_bytes: Option<usize>,
}

impl Budget {
    /// A budget bounding only the playout count.
    pub fn playouts(n: u64) -> Self {
        Budget {
            playouts: Some(n),
            ..Default::default()
        }
    }

    /// A budget bounding only wall-clock time. Playouts and bytes stay
    /// those of the config (the paper's iteration budget remains an
    /// upper bound).
    pub fn time(d: Duration) -> Self {
        Budget {
            time: Some(d),
            ..Default::default()
        }
    }

    /// Builder-style deadline.
    pub fn with_time(mut self, d: Duration) -> Self {
        self.time = Some(d);
        self
    }

    /// Builder-style tree-memory bound in bytes.
    pub fn with_max_bytes(mut self, bytes: usize) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// The effective per-run configuration: the scheme's config with this
    /// budget's playout and byte overrides folded in (the deadline lives
    /// in the run's `RunGate`). Schemes build their run's tree from the
    /// returned config so arena sizing and eviction see the budget.
    pub fn apply_to(&self, cfg: &MctsConfig) -> MctsConfig {
        let mut out = *cfg;
        if let Some(p) = self.playouts {
            out.playouts = usize::try_from(p).unwrap_or(usize::MAX).max(1);
        }
        if let Some(b) = self.max_bytes {
            out.arena_budget_bytes = Some(b);
        }
        out
    }
}

/// What one [`SearchScheme::step`](crate::SearchScheme::step) call left
/// behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The quota was consumed (or the call yielded early) with budget
    /// remaining: call `step` again to continue the run.
    Running,
    /// The run is finished — playout budget met, deadline passed, the
    /// root is terminal, or no run is active. Further `step` calls are
    /// no-ops returning `Done`;
    /// [`partial_result`](crate::SearchScheme::partial_result) returns
    /// the final result until the run is dropped by
    /// [`cancel`](crate::SearchScheme::cancel) or a new `begin`.
    Done,
}

/// Per-run progress gate: playout target + wall-clock deadline, resolved
/// once at `begin`. Shared by every scheme's run state.
#[derive(Debug)]
pub(crate) struct RunGate {
    /// Completed-playout target for the whole run.
    target: u64,
    /// Completed playouts so far.
    pub done: u64,
    /// Absolute deadline (computed at `begin`), if any.
    deadline: Option<Instant>,
    /// Accumulated wall-clock time spent inside `step` calls, ns (the
    /// run's *active* time; a multiplexed session is not charged for
    /// time spent parked in a service queue).
    pub active_ns: u64,
    /// Completed `step` calls this run — the snapshot sequence number
    /// stamped into [`SearchStats::seq`](crate::SearchStats::seq).
    steps: u64,
}

impl RunGate {
    /// Resolve `budget` against `cfg` now (the deadline clock starts
    /// here). `terminal_root` forces an immediately-finished run.
    pub fn new(cfg: &MctsConfig, budget: &Budget, terminal_root: bool) -> Self {
        let target = if terminal_root {
            0
        } else {
            budget.playouts.unwrap_or(cfg.playouts as u64)
        };
        RunGate {
            target,
            done: 0,
            deadline: budget.time.and_then(|t| Instant::now().checked_add(t)),
            active_ns: 0,
            steps: 0,
        }
    }

    /// A gate over `target` playouts under this gate's deadline — one
    /// worker's share of a run split across private trees.
    pub fn share(&self, target: u64) -> Self {
        RunGate {
            target,
            done: 0,
            deadline: self.deadline,
            active_ns: 0,
            steps: 0,
        }
    }

    /// Replace the playout target (root parallelization rounds the
    /// requested count up to at least one playout per worker).
    pub fn set_target(&mut self, target: u64) {
        self.target = target;
    }

    /// Charge one finished `step` call to the run: accumulate the time
    /// spent inside it and advance the snapshot sequence number. Returns
    /// the clock reading that ended the step, so a caller can close its
    /// own clocks on the same instant.
    #[inline]
    pub fn note_step(&mut self, started: Instant) -> Instant {
        let ended = Instant::now();
        self.active_ns += ended.duration_since(started).as_nanos() as u64;
        self.steps += 1;
        ended
    }

    /// The snapshot sequence number: completed `step` calls this run.
    /// Strictly monotone within a run; see
    /// [`SearchStats::seq`](crate::SearchStats::seq).
    #[inline]
    pub fn seq(&self) -> u64 {
        self.steps
    }

    /// Playout target for the run.
    #[inline]
    pub fn target(&self) -> u64 {
        self.target
    }

    /// True once the wall-clock budget is spent.
    #[inline]
    pub fn out_of_time(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The absolute deadline, if any.
    #[inline]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True once no further playout may start (target met or deadline
    /// passed).
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.done >= self.target || self.out_of_time()
    }

    /// Playouts still owed to the target.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.target.saturating_sub(self.done)
    }
}

/// Reusable type-erased root-state slot for resumable runs.
///
/// Scheme structs are not generic over the game, so a run stores its
/// root as `Box<dyn Any>`; the slot persists across runs and
/// `clone_from`s the new root into the existing box whenever the game
/// type repeats, keeping steady-state `begin` allocation-free for
/// heap-free game states.
pub(crate) struct RootSlot {
    slot: Option<Box<dyn Any + Send>>,
}

impl RootSlot {
    pub const fn new() -> Self {
        RootSlot { slot: None }
    }

    /// Store a copy of `root` for the run starting now.
    pub fn store<G: games::Game>(&mut self, root: &G) {
        match self.slot.as_mut().and_then(|b| b.downcast_mut::<G>()) {
            Some(g) => g.clone_from(root),
            None => self.slot = Some(Box::new(root.clone())),
        }
    }

    /// The stored root.
    ///
    /// # Panics
    /// If `step` is driven with a different game type than `begin`
    /// (caller bug), or if no run was ever begun.
    pub fn get<G: games::Game>(&self) -> &G {
        self.slot
            .as_ref()
            .expect("no active run: call begin() first")
            .downcast_ref::<G>()
            .expect("step must be called with the same game type as begin")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_inherits_config() {
        let cfg = MctsConfig {
            playouts: 77,
            ..Default::default()
        };
        let gate = RunGate::new(&cfg, &Budget::default(), false);
        assert_eq!(gate.target(), 77);
        assert!(gate.deadline().is_none(), "no deadline is inherited");
        assert!(!gate.exhausted());
    }

    #[test]
    fn explicit_budget_overrides_config() {
        let cfg = MctsConfig::default();
        let b = Budget::playouts(3).with_time(Duration::from_secs(10));
        let gate = RunGate::new(&cfg, &b, false);
        assert_eq!(gate.target(), 3);
        assert_eq!(gate.remaining(), 3);
        assert!(gate.deadline().is_some());
        let run_cfg = b.with_max_bytes(1 << 20).apply_to(&cfg);
        assert_eq!(run_cfg.playouts, 3);
        assert_eq!(run_cfg.arena_budget_bytes, Some(1 << 20));
        assert!(run_cfg.node_budget().unwrap() > 0);
    }

    #[test]
    fn terminal_root_is_immediately_exhausted() {
        let gate = RunGate::new(&MctsConfig::default(), &Budget::default(), true);
        assert_eq!(gate.target(), 0);
        assert!(gate.exhausted());
    }

    #[test]
    fn expired_deadline_exhausts_gate() {
        let cfg = MctsConfig::default();
        let gate = RunGate::new(&cfg, &Budget::time(Duration::ZERO), false);
        std::thread::sleep(Duration::from_millis(2));
        assert!(gate.out_of_time());
        assert!(gate.exhausted());
        assert!(gate.remaining() > 0, "playout target itself is unmet");
    }

    #[test]
    fn root_slot_reuses_box_for_same_type() {
        use games::tictactoe::TicTacToe;
        let mut slot = RootSlot::new();
        slot.store(&TicTacToe::new());
        let first = slot.get::<TicTacToe>() as *const _ as usize;
        let mut g = TicTacToe::new();
        games::Game::apply(&mut g, 4);
        slot.store(&g);
        let second = slot.get::<TicTacToe>() as *const _ as usize;
        assert_eq!(first, second, "same-type store must reuse the box");
        assert_eq!(games::Game::move_count(slot.get::<TicTacToe>()), 1);
    }
}
