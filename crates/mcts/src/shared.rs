//! The shared-tree parallel scheme (§3.1.1, Algorithm 2).
//!
//! `N` worker threads execute whole playouts ("threadsafe_rollout")
//! against a single tree in shared memory. Edge statistics are protected
//! either by per-node mutexes (the paper's design, [`LockKind::Mutex`]) or
//! by lock-free atomic read-modify-write updates ([`LockKind::Atomic`],
//! the Mirsoleimani-style ablation). Virtual loss applied during Node
//! Selection steers concurrent workers onto different paths and is
//! released during BackUp.
//!
//! The tree is an **atomic view over the unified arena layout**
//! ([`crate::arena::AtomicColumns`]): the same struct-of-arrays columns
//! and contiguous `(first_child, child_count)` child ranges that back the
//! single-owner [`crate::tree::Tree`], with every cell an atomic so the
//! store can be shared as a plain reference across rollout threads.
//! Expansion bump-allocates a contiguous child block with a single
//! `fetch_add`, then publishes it with a release store on the parent's
//! phase flag; readers acquire-load the flag before touching children.
//! The arena is pre-sized for one move's expansion —
//! [`MctsConfig::arena_capacity`]: the worst case for the run's playouts,
//! tightened by its `arena_budget_bytes` — so shared-tree searches run
//! under a fixed memory bound by construction. The shared tree never
//! evicts: a byte bound below the worst case must still cover what the
//! run actually expands, or the run panics.

use crate::arena::{phase, AtomicColumns, W_SCALE};
use crate::budget::{Budget, RootSlot, RunGate, StepOutcome};
use crate::coalesce::CoalescingEvaluator;
use crate::config::{LockKind, MctsConfig, VirtualLoss};
use crate::evaluator::BatchEvaluator;
use crate::pool::WorkerPool;
use crate::result::{SearchResult, SearchScheme, SearchStats};
use games::Game;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sentinel index.
const NIL: u32 = crate::arena::NIL;

/// Cap on the pre-allocated shared arena for **deadline-bounded** runs
/// with no [`MctsConfig::arena_budget_bytes`]. The arena is sized for
/// the worst-case expansion of the whole run, and a time-budgeted run's
/// playout cap is aspirational — without this bound a `Budget::time`
/// run with a huge playout ceiling would allocate gigabytes of atomic
/// columns up front. Deadline-free runs keep the exact worst-case
/// sizing (they can never exhaust the arena); a deadline run genuinely
/// expanding more than this many nodes before its deadline must set
/// `arena_budget_bytes` explicitly.
pub const DEFAULT_SHARED_ARENA_SLOTS: usize = 1 << 22;

/// The concurrent arena tree shared by all rollout workers for one move.
pub struct SharedTree {
    cols: AtomicColumns,
    /// Per-node locks used in [`LockKind::Mutex`] mode (kept beside the
    /// columns: the lock is a mutation discipline, not node data).
    locks: Box<[Mutex<()>]>,
    next: AtomicUsize,
    cfg: MctsConfig,
    /// Collisions: playout attempts aborted on an in-flight leaf.
    collisions: AtomicU64,
    /// Per-tree nonce mixed into the root-noise seed (one tree per move).
    noise_nonce: u64,
}

impl SharedTree {
    /// Allocate an arena able to hold one move's worth of expansion.
    pub fn new(cfg: MctsConfig, action_space: usize) -> Self {
        let cap = cfg.arena_capacity(action_space);
        let mut locks = Vec::with_capacity(cap);
        locks.resize_with(cap, || Mutex::new(()));
        let tree = SharedTree {
            cols: AtomicColumns::new(cap),
            locks: locks.into_boxed_slice(),
            next: AtomicUsize::new(1), // slot 0 = root
            cfg,
            collisions: AtomicU64::new(0),
            noise_nonce: crate::noise::next_nonce(),
        };
        tree.cols.prior_bits[0].store(1.0f32.to_bits(), Ordering::Relaxed);
        tree
    }

    /// Number of allocated nodes.
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Relaxed).min(self.cols.capacity())
    }

    /// True if nothing beyond the root has been allocated.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Completed visits of node `id` (tests/inspection).
    pub fn visits(&self, id: u32) -> u32 {
        self.cols.n[id as usize].load(Ordering::Relaxed)
    }

    fn alloc_block(&self, count: usize) -> u32 {
        let start = self.next.fetch_add(count, Ordering::Relaxed);
        assert!(
            start + count <= self.cols.capacity(),
            "shared-tree arena exhausted ({} nodes); raise MctsConfig::arena_budget_bytes",
            self.cols.capacity()
        );
        start as u32
    }

    /// One complete playout (paper's `threadsafe_rollout`). Returns `true`
    /// if a playout was completed, `false` on a collision (the attempt was
    /// aborted and all virtual loss reverted).
    pub fn rollout<G: Game>(
        &self,
        root_game: &G,
        evaluator: &dyn BatchEvaluator,
        encode_buf: &mut Vec<f32>,
        eval_ns: &AtomicU64,
    ) -> bool {
        let mut game = root_game.clone();
        let mut cur: u32 = 0;
        loop {
            match self.cols.phase[cur as usize].load(Ordering::Acquire) {
                phase::EXPANDED => {
                    let best = self.select_child(cur);
                    self.apply_vl(best);
                    game.apply(self.cols.action[best as usize].load(Ordering::Relaxed) as u16);
                    cur = best;
                    let status = game.status();
                    if status.is_terminal() {
                        let v = status.reward_for(game.to_move());
                        self.mark_terminal(cur, v);
                        // fall through: next loop iteration sees TERMINAL
                    }
                }
                phase::TERMINAL => {
                    let v = f32::from_bits(
                        self.cols.terminal_bits[cur as usize].load(Ordering::Relaxed),
                    );
                    self.backup(cur, v);
                    return true;
                }
                phase::PENDING => {
                    // Another worker owns this leaf's evaluation: abort.
                    self.revert_path(cur);
                    self.collisions.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                phase::UNEXPANDED => {
                    if self.cols.phase[cur as usize]
                        .compare_exchange(
                            phase::UNEXPANDED,
                            phase::PENDING,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_err()
                    {
                        continue; // lost the race; re-read the phase
                    }
                    // We own the evaluation of this leaf.
                    encode_buf.resize(game.encoded_len(), 0.0);
                    game.encode(encode_buf);
                    let t = Instant::now();
                    let o = evaluator.evaluate_one(encode_buf);
                    eval_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    self.expand(cur, &game, &o.priors);
                    self.backup(cur, o.value);
                    return true;
                }
                other => unreachable!("invalid node phase {other}"),
            }
        }
    }

    /// Virtual-loss-adjusted mean value of node `id`.
    fn q(&self, id: u32) -> f32 {
        let i = id as usize;
        match self.cfg.virtual_loss {
            VirtualLoss::Constant(c) => {
                let n_eff = self.cols.n_eff(id);
                if n_eff == 0 {
                    self.cfg.q_init
                } else {
                    let vl = self.cols.vl[i].load(Ordering::Relaxed) as f64;
                    ((self.cols.w(id) - c as f64 * vl) / n_eff as f64) as f32
                }
            }
            VirtualLoss::VisitTracking => {
                let n = self.cols.n[i].load(Ordering::Relaxed);
                if n == 0 {
                    self.cfg.q_init
                } else {
                    (self.cols.w(id) / n as f64) as f32
                }
            }
        }
    }

    /// UCT argmax over the children of an expanded node (Eq. 1), reading
    /// possibly-stale statistics (inherent to tree-parallel MCTS).
    fn select_child(&self, parent: u32) -> u32 {
        let first = self.cols.first_child[parent as usize].load(Ordering::Relaxed);
        let count = self.cols.child_count[parent as usize].load(Ordering::Relaxed);
        debug_assert!(count > 0, "select on childless node");
        let children = first..first + count;
        let sum_n: u32 = children.clone().map(|c| self.cols.n_eff(c)).sum();
        let sqrt_sum = (sum_n as f32).sqrt();
        let mut best = first;
        let mut best_score = f32::NEG_INFINITY;
        for c in children {
            let u = self.q(c)
                + self.cfg.c_puct * self.cols.prior(c) * sqrt_sum
                    / (1.0 + self.cols.n_eff(c) as f32);
            if u > best_score {
                best_score = u;
                best = c;
            }
        }
        best
    }

    /// Apply one unit of virtual loss to a traversed edge, honoring the
    /// configured locking discipline (Algorithm 2 lines 13-15).
    fn apply_vl(&self, id: u32) {
        let vl = &self.cols.vl[id as usize];
        match self.cfg.lock_kind {
            LockKind::Mutex => {
                let _g = self.locks[id as usize].lock();
                vl.fetch_add(1, Ordering::Relaxed);
            }
            LockKind::Atomic => {
                vl.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// First-discovery terminal marking (idempotent).
    fn mark_terminal(&self, id: u32, value: f32) {
        self.cols.terminal_bits[id as usize].store(value.to_bits(), Ordering::Relaxed);
        // 0→3 CAS; if another thread already marked it, the stored value is
        // identical (terminal values are state-deterministic).
        let _ = self.cols.phase[id as usize].compare_exchange(
            phase::UNEXPANDED,
            phase::TERMINAL,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Create children for a pending leaf and publish them.
    fn expand<G: Game>(&self, leaf: u32, game: &G, priors: &[f32]) {
        let mut legal = Vec::new();
        game.legal_actions_into(&mut legal);
        debug_assert!(!legal.is_empty(), "expanding a state with no moves");

        let mut masked = crate::tree::mask_and_normalize(priors, &legal);
        // AlphaZero self-play: Dirichlet noise on the root priors. Only
        // one worker ever expands the root (the CAS winner), so this is
        // race-free.
        if leaf == 0 {
            if let Some(noise) = self.cfg.root_noise {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    noise.seed ^ self.noise_nonce.rotate_left(17),
                );
                crate::noise::mix_noise(&mut rng, &noise, &mut masked);
            }
        }

        let first = self.alloc_block(legal.len());
        for (i, (&a, &p)) in legal.iter().zip(&masked).enumerate() {
            let c = first as usize + i;
            self.cols.parent[c].store(leaf, Ordering::Relaxed);
            self.cols.action[c].store(a as u32, Ordering::Relaxed);
            self.cols.prior_bits[c].store(p.to_bits(), Ordering::Relaxed);
        }
        self.cols.first_child[leaf as usize].store(first, Ordering::Relaxed);
        self.cols.child_count[leaf as usize].store(legal.len() as u32, Ordering::Relaxed);
        self.cols.phase[leaf as usize].store(phase::EXPANDED, Ordering::Release);
    }

    /// BackUp (Algorithm 2 lines 18-20): propagate `value` (leaf player's
    /// perspective) to the root, releasing virtual loss.
    fn backup(&self, leaf: u32, value: f32) {
        let mut cur = leaf;
        let mut signed = -(value as f64); // leaf W is the mover's view
        loop {
            let i = cur as usize;
            let parent = self.cols.parent[i].load(Ordering::Relaxed);
            let update = || {
                self.cols.n[i].fetch_add(1, Ordering::Relaxed);
                self.cols.w_fixed[i].fetch_add((signed * W_SCALE) as i64, Ordering::Relaxed);
                if parent != NIL {
                    self.cols.vl[i].fetch_sub(1, Ordering::Relaxed);
                }
            };
            match self.cfg.lock_kind {
                LockKind::Mutex => {
                    let _g = self.locks[i].lock();
                    update();
                }
                LockKind::Atomic => update(),
            }
            if parent == NIL {
                return;
            }
            cur = parent;
            signed = -signed;
        }
    }

    /// Revert virtual loss along an aborted path.
    fn revert_path(&self, leaf: u32) {
        let mut cur = leaf;
        loop {
            let i = cur as usize;
            let parent = self.cols.parent[i].load(Ordering::Relaxed);
            if parent == NIL {
                return;
            }
            self.cols.vl[i].fetch_sub(1, Ordering::Relaxed);
            cur = parent;
        }
    }

    /// Root statistics: visit counts, normalized distribution, root value.
    pub fn action_prior(&self, action_space: usize) -> (Vec<u32>, Vec<f32>, f32) {
        let mut visits = vec![0u32; action_space];
        if self.cols.phase[0].load(Ordering::Acquire) == phase::EXPANDED {
            let first = self.cols.first_child[0].load(Ordering::Relaxed);
            let count = self.cols.child_count[0].load(Ordering::Relaxed);
            for c in first..first + count {
                visits[self.cols.action[c as usize].load(Ordering::Relaxed) as usize] =
                    self.cols.n[c as usize].load(Ordering::Relaxed);
            }
        }
        let total: u32 = visits.iter().sum();
        let probs = if total == 0 {
            vec![0.0; action_space]
        } else {
            visits.iter().map(|&v| v as f32 / total as f32).collect()
        };
        let root_n = self.cols.n[0].load(Ordering::Relaxed);
        let value = if root_n == 0 {
            0.0
        } else {
            (-(self.cols.w(0) / root_n as f64)) as f32
        };
        (visits, probs, value)
    }

    /// Sum of outstanding virtual losses (0 once all playouts complete).
    pub fn outstanding_vl(&self) -> u64 {
        (0..self.len())
            .map(|i| self.cols.vl[i].load(Ordering::Relaxed) as u64)
            .sum()
    }

    /// Collision count.
    pub fn collisions(&self) -> u64 {
        self.collisions.load(Ordering::Relaxed)
    }

    /// Post-search consistency check (the atomic-view counterpart of
    /// [`crate::tree::Tree::check_invariants`]): all virtual losses
    /// released, parent/child links agree, and every expanded node's
    /// visits cover its children's. Only meaningful once no playouts are
    /// in flight.
    pub fn check_invariants(&self) {
        assert_eq!(self.outstanding_vl(), 0, "dangling virtual loss");
        for id in 0..self.len() as u32 {
            let i = id as usize;
            if self.cols.phase[i].load(Ordering::Acquire) != phase::EXPANDED {
                continue;
            }
            let first = self.cols.first_child[i].load(Ordering::Relaxed);
            let count = self.cols.child_count[i].load(Ordering::Relaxed);
            assert!(count > 0, "expanded node {id} without children");
            let mut child_sum = 0u32;
            for c in first..first + count {
                assert_eq!(
                    self.cols.parent[c as usize].load(Ordering::Relaxed),
                    id,
                    "parent link of {c}"
                );
                child_sum += self.cols.n[c as usize].load(Ordering::Relaxed);
            }
            let n = self.cols.n[i].load(Ordering::Relaxed);
            assert!(n >= child_sum, "node {id}: N={n} < children {child_sum}");
            assert!(
                n - child_sum <= 1,
                "node {id}: more than one self-visit: N={n} children={child_sum}"
            );
        }
    }
}

/// Resumable-run state of a shared-tree search: the concurrent tree plus
/// the cross-wave accounting counters.
struct SharedRun {
    tree: Arc<SharedTree>,
    gate: RunGate,
    action_space: usize,
    eval_ns: Arc<AtomicU64>,
    in_tree_ns: Arc<AtomicU64>,
}

/// Driver: persistent `N`-thread pool running `threadsafe_rollout` loops.
///
/// Rollout workers need their leaf evaluated synchronously before the
/// rollout can finish ([`BatchEvaluator::evaluate_one`]), so the
/// evaluator is wrapped at construction where that pays: backends that
/// ask for batches (`preferred_batch() > 1`) get a
/// [`CoalescingEvaluator`] that merges the `N` workers' concurrent
/// requests into shared batches — sized and timed by the forward-time
/// curve it measures on its own rounds, down to no rounds at all where
/// that curve says a batch costs its samples one by one; backends that
/// already coalesce internally (the accelerator queue) or that gain
/// nothing from batching are called single-sample as they are.
pub struct SharedTreeSearch {
    cfg: MctsConfig,
    sync_eval: Arc<dyn BatchEvaluator>,
    pool: WorkerPool,
    root: RootSlot,
    run: Option<SharedRun>,
}

impl SharedTreeSearch {
    /// Spawn `cfg.workers` rollout threads.
    pub fn new(cfg: MctsConfig, evaluator: Arc<dyn BatchEvaluator>) -> Self {
        cfg.validate();
        let batch = evaluator.preferred_batch().min(cfg.workers);
        let sync_eval: Arc<dyn BatchEvaluator> = if batch > 1 && !evaluator.coalesces_internally() {
            // Workers that can be inside the evaluator at once: as many
            // as there are cores to run them.
            let callers = cfg.workers.min(tensor::pool::parallelism());
            Arc::new(CoalescingEvaluator::new(evaluator, batch, callers))
        } else {
            evaluator
        };
        SharedTreeSearch {
            pool: WorkerPool::new(cfg.workers),
            cfg,
            sync_eval,
            root: RootSlot::new(),
            run: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MctsConfig {
        &self.cfg
    }
}

impl<G: Game> SearchScheme<G> for SharedTreeSearch {
    fn begin(&mut self, root: &G, budget: Budget) {
        SearchScheme::<G>::cancel(self);
        let mut run_cfg = budget.apply_to(&self.cfg);
        let gate = RunGate::new(&self.cfg, &budget, root.status().is_terminal());
        // A deadline makes the playout target aspirational: don't let a
        // huge ceiling inflate the worst-case arena sizing into
        // gigabytes (see DEFAULT_SHARED_ARENA_SLOTS). Deadline-free
        // runs keep the exact worst-case estimate.
        if gate.deadline().is_some() && run_cfg.arena_budget_bytes.is_none() {
            let per_playout = root.action_space() + 1;
            let max_sized = (DEFAULT_SHARED_ARENA_SLOTS / per_playout)
                .saturating_sub(run_cfg.workers + 1)
                .max(1);
            run_cfg.playouts = run_cfg.playouts.min(max_sized);
        }
        self.root.store(root);
        self.run = Some(SharedRun {
            // The arena is sized for the whole run's expansion up front
            // (run_cfg carries the resolved playout target).
            tree: Arc::new(SharedTree::new(run_cfg, root.action_space())),
            gate,
            action_space: root.action_space(),
            eval_ns: Arc::new(AtomicU64::new(0)),
            in_tree_ns: Arc::new(AtomicU64::new(0)),
        });
    }

    fn step(&mut self, quota: usize) -> StepOutcome {
        let Some(run) = &mut self.run else {
            return StepOutcome::Done;
        };
        if run.gate.exhausted() {
            return StepOutcome::Done;
        }
        let step_start = Instant::now();
        let grant = (quota as u64).min(run.gate.remaining()) as usize;
        let tickets = Arc::new(AtomicUsize::new(grant));
        let completed = Arc::new(AtomicUsize::new(0));
        {
            let tree = Arc::clone(&run.tree);
            let tickets = Arc::clone(&tickets);
            let completed = Arc::clone(&completed);
            let eval_ns = Arc::clone(&run.eval_ns);
            let in_tree_ns = Arc::clone(&run.in_tree_ns);
            let evaluator = Arc::clone(&self.sync_eval);
            let deadline = run.gate.deadline();
            let root = self.root.get::<G>().clone();
            self.pool.run_wave(self.cfg.workers, move |_| {
                let mut encode_buf = Vec::new();
                loop {
                    // Deadline first: no new rollout starts past it.
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return;
                    }
                    // Take a ticket; collisions retry on the same ticket
                    // so exactly `grant` rollouts complete (modulo the
                    // deadline).
                    if tickets
                        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| t.checked_sub(1))
                        .is_err()
                    {
                        return;
                    }
                    let t0 = Instant::now();
                    let mut spins = 0u32;
                    while !tree.rollout(&root, evaluator.as_ref(), &mut encode_buf, &eval_ns) {
                        spins += 1;
                        // Brief backoff: the colliding evaluation needs CPU
                        // time to finish (critical on few-core hosts).
                        if spins < 4 {
                            std::thread::yield_now();
                        } else {
                            std::thread::sleep(std::time::Duration::from_micros(
                                50 * spins.min(20) as u64,
                            ));
                        }
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                    in_tree_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            });
        }
        run.gate.done += completed.load(Ordering::Relaxed) as u64;
        run.gate.note_step(step_start);
        if run.gate.exhausted() {
            debug_assert_eq!(run.tree.outstanding_vl(), 0);
            #[cfg(feature = "invariants")]
            run.tree.check_invariants();
            StepOutcome::Done
        } else {
            StepOutcome::Running
        }
    }

    fn partial_result(&self) -> SearchResult {
        let Some(run) = &self.run else {
            return SearchResult::default();
        };
        let (visits, probs, value) = run.tree.action_prior(run.action_space);
        let eval = run.eval_ns.load(Ordering::Relaxed);
        let total_worker = run.in_tree_ns.load(Ordering::Relaxed);
        let stats = SearchStats {
            playouts: run.gate.done,
            // Worker time minus evaluation = in-tree time; attribute the
            // split between select and backup 2:1 (selection dominates).
            select_ns: total_worker.saturating_sub(eval) * 2 / 3,
            backup_ns: total_worker.saturating_sub(eval) / 3,
            eval_ns: eval,
            move_ns: run.gate.active_ns,
            seq: run.gate.seq(),
            collisions: run.tree.collisions(),
            nodes: run.tree.len() as u64,
            reclaimed: 0,
            tt_hits: 0,
        };
        SearchResult {
            probs,
            visits,
            value,
            stats,
        }
    }

    fn cancel(&mut self) {
        if let Some(run) = self.run.take() {
            // No wave is in flight between steps: the tree is quiescent.
            debug_assert_eq!(run.tree.outstanding_vl(), 0);
            #[cfg(feature = "invariants")]
            run.tree.check_invariants();
        }
    }

    fn name(&self) -> &'static str {
        "shared-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::UniformEvaluator;
    use games::tictactoe::TicTacToe;
    use games::Game;

    fn cfg(playouts: usize, workers: usize) -> MctsConfig {
        MctsConfig {
            playouts,
            workers,
            ..Default::default()
        }
    }

    fn uniform() -> Arc<UniformEvaluator> {
        Arc::new(UniformEvaluator::for_game(&TicTacToe::new()))
    }

    #[test]
    fn completes_exact_playout_budget() {
        let mut s = SharedTreeSearch::new(cfg(200, 4), uniform());
        let r = s.search(&TicTacToe::new());
        assert_eq!(r.stats.playouts, 200);
        assert_eq!(r.visits.iter().sum::<u32>(), 199);
    }

    #[test]
    fn single_worker_shared_tree_is_consistent() {
        let mut s = SharedTreeSearch::new(cfg(100, 1), uniform());
        let r = s.search(&TicTacToe::new());
        assert_eq!(r.visits.iter().sum::<u32>(), 99);
        assert!((r.probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert_eq!(r.stats.collisions, 0, "no collisions with one worker");
    }

    #[test]
    fn finds_immediate_win_under_contention() {
        let mut g = TicTacToe::new();
        for a in [0u16, 3, 1, 4] {
            g.apply(a);
        }
        let mut s = SharedTreeSearch::new(cfg(400, 8), uniform());
        let r = s.search(&g);
        assert_eq!(r.best_action(), 2, "visits {:?}", r.visits);
        assert!(r.value > 0.3);
    }

    #[test]
    fn atomic_lock_mode_works() {
        let mut s = SharedTreeSearch::new(
            MctsConfig {
                lock_kind: LockKind::Atomic,
                ..cfg(300, 4)
            },
            uniform(),
        );
        let r = s.search(&TicTacToe::new());
        assert_eq!(r.visits.iter().sum::<u32>(), 299);
    }

    #[test]
    fn visit_tracking_vl_mode_works() {
        let mut s = SharedTreeSearch::new(
            MctsConfig {
                virtual_loss: VirtualLoss::VisitTracking,
                ..cfg(300, 4)
            },
            uniform(),
        );
        let r = s.search(&TicTacToe::new());
        assert_eq!(r.visits.iter().sum::<u32>(), 299);
    }

    #[test]
    fn terminal_root_returns_empty() {
        let mut g = TicTacToe::new();
        for a in [0u16, 3, 1, 4, 2] {
            g.apply(a);
        }
        let mut s = SharedTreeSearch::new(cfg(10, 2), uniform());
        let r = s.search(&g);
        assert_eq!(r.visits.iter().sum::<u32>(), 0);
    }

    #[test]
    fn tree_invariants_after_contended_search() {
        let mut s = SharedTreeSearch::new(cfg(500, 8), uniform());
        let g = TicTacToe::new();
        let r = s.search(&g);
        // Root visits = playouts - 1 (first playout expands the root).
        assert_eq!(r.visits.iter().sum::<u32>(), 499);
        // No dangling virtual loss is asserted inside search() in debug.
    }

    #[test]
    fn reusable_across_moves() {
        let mut s = SharedTreeSearch::new(cfg(100, 4), uniform());
        let mut g = TicTacToe::new();
        for _ in 0..3 {
            let r = s.search(&g);
            g.apply(r.best_action());
        }
        assert_eq!(g.move_count(), 3);
    }

    #[test]
    fn shared_tree_direct_api() {
        let tree = SharedTree::new(cfg(50, 2), 9);
        assert!(tree.is_empty());
        let eval = UniformEvaluator::for_game(&TicTacToe::new());
        let g = TicTacToe::new();
        let mut buf = Vec::new();
        let ns = AtomicU64::new(0);
        for _ in 0..50 {
            assert!(tree.rollout(&g, &eval, &mut buf, &ns));
        }
        assert_eq!(tree.outstanding_vl(), 0);
        tree.check_invariants();
        let (visits, _, _) = tree.action_prior(9);
        assert_eq!(visits.iter().sum::<u32>(), 49);
        assert_eq!(tree.visits(0), 50);
    }
}
