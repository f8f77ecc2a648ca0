//! The serial searcher, with optional tree reuse across moves: keep the
//! subtree of the move actually played as the starting tree for the next
//! search.
//!
//! One thread interleaves in-tree operations and node evaluation (the
//! crate-private `playout` module holds the loop). This is the 1-worker
//! reference whose profile motivates the paper ("tree-based search
//! accounts for more than 85% of the total runtime", §1) and the
//! algorithmic ground truth the parallel schemes are validated against.
//!
//! The paper rebuilds the tree from scratch for every move (Algorithm 2
//! line 2 copies the environment and starts at a bare root) — that is
//! [`ReusableSearch::one_shot`], what the builder returns for
//! `Scheme::Serial`. Production AlphaZero implementations instead
//! *re-root*: after playing action `a` from state `s`, the child subtree
//! under `a` already holds thousands of evaluated nodes that remain valid
//! for `s' = s·a`. [`ReusableSearch::new`] (the builder's `.reuse(true)`)
//! provides that optimization — an ablation target for the benchmarks
//! (reuse shrinks `T_select` early in the move, which shifts the
//! shared/local crossover of §4).
//!
//! Re-rooting is **in place** ([`crate::tree::Tree::advance_root`]): the
//! kept subtree stays where it is, the discarded region goes onto the
//! arena free-list, and the next search's expansions recycle those slots.
//! In steady state a whole search → [`ReusableSearch::advance`] → search
//! cycle performs zero heap allocations (see
//! `tests/alloc_steady_state.rs`), and with
//! [`MctsConfig::arena_budget_bytes`] set the retained tree searches
//! under a hard memory bound across the entire game.

use crate::budget::{Budget, RootSlot, StepOutcome};
use crate::config::MctsConfig;
use crate::evaluator::BatchEvaluator;
use crate::playout::{KeyedHook, Run};
use crate::result::{SearchResult, SearchScheme};
use crate::tree::{Tree, TreeStats};
use games::{Action, Game};
use std::sync::Arc;

/// The serial searcher. Built with [`ReusableSearch::new`] it persists
/// its tree across moves; built with [`ReusableSearch::one_shot`] every
/// search starts from a bare root.
///
/// A reusing searcher is *stateful*: callers must report every move
/// actually played (their own and the opponent's) through
/// [`ReusableSearch::advance`] so the internal tree tracks the game. It
/// implements [`SearchScheme`] (whose `advance` hook it overrides), so
/// self-play drivers get tree reuse for free when the builder enables it.
///
/// A one-shot searcher ignores `advance`/`reset` and starts every `begin`
/// from a bare root — on the arena it already holds. Only its first
/// search builds a tree; every later one resets that tree in place
/// ([`Tree::set_config`]: nodes dropped, column capacity kept), so from
/// the second search on it allocates nothing and touches no page the
/// first one did not fault in. What is kept is memory, never statistics:
/// the search from a reset arena is bit for bit the search from a new
/// one. A per-run [`Budget::max_bytes`] applies at every `begin`:
/// the reset re-bounds the arena, so a bound *smaller* than the tree the
/// previous search grew still binds (the columns keep their capacity and
/// refuse to grow past it), and a later unbounded run grows again. The
/// last tree stays readable ([`ReusableSearch::tree_stats`]) until the
/// next `begin` — the memory of one search stays resident between
/// searches.
///
/// Two counters, two lifetimes: [`TreeStats::reclaimed_total`] and
/// [`TreeStats::evicted`] run over the *searcher's* life (each reset
/// counts the nodes it dropped), while [`SearchStats::reclaimed`] is per
/// run — re-based after the reset, so a search that only grew reports 0
/// and one under a bound reports its own evictions.
///
/// [`SearchStats::reclaimed`]: crate::SearchStats::reclaimed
pub struct ReusableSearch {
    cfg: MctsConfig,
    /// `None` only between [`ReusableSearch::park`] and the next
    /// [`ReusableSearch::reconfigure`].
    evaluator: Option<Arc<dyn BatchEvaluator>>,
    /// Keep the tree across runs and re-root it on `advance`.
    reuse: bool,
    tree: Option<Tree>,
    /// Reused encode/output buffers of the leaf hook (keeps the
    /// steady-state search loop allocation-free).
    hook: KeyedHook,
    /// `reclaimed_total` snapshot at the end of the previous search, so
    /// each result on a retained tree reports the delta (a bare-root run
    /// re-bases itself, see [`Run::fresh`]).
    reclaimed_snapshot: u64,
    /// Nodes inherited from previous moves via reuse (for diagnostics).
    pub inherited_nodes: u64,
    root: RootSlot,
    run: Option<Run>,
}

impl ReusableSearch {
    /// Create a serial searcher that keeps its tree across moves.
    /// `cfg.workers` is ignored (always 1).
    pub fn new(cfg: MctsConfig, evaluator: Arc<dyn BatchEvaluator>) -> Self {
        cfg.validate();
        ReusableSearch {
            cfg,
            evaluator: Some(evaluator),
            reuse: true,
            tree: None,
            hook: KeyedHook::default(),
            reclaimed_snapshot: 0,
            inherited_nodes: 0,
            root: RootSlot::new(),
            run: None,
        }
    }

    /// Create a serial searcher that starts every search from a bare
    /// root (the paper's Algorithm 2) on the arena it keeps; see the type
    /// docs.
    pub fn one_shot(cfg: MctsConfig, evaluator: Arc<dyn BatchEvaluator>) -> Self {
        ReusableSearch {
            reuse: false,
            ..Self::new(cfg, evaluator)
        }
    }

    /// Swap the hyper-parameters and evaluator while keeping the warmed
    /// arena memory, and clear any retained subtree (a new logical
    /// session starts). Used by serving layers that pool warmed
    /// searchers across sessions with different models/configs.
    pub fn reconfigure(&mut self, cfg: MctsConfig, evaluator: Arc<dyn BatchEvaluator>) {
        cfg.validate();
        self.run = None;
        self.cfg = cfg;
        self.evaluator = Some(evaluator);
        if let Some(t) = &mut self.tree {
            t.set_config(cfg);
        }
        self.inherited_nodes = 0;
        self.reclaimed_snapshot = self.tree.as_ref().map_or(0, |t| t.stats().reclaimed_total);
    }

    /// Drop any retained search state (e.g. when starting a new game).
    /// The arena's memory is kept, so the next game's searches reuse it.
    /// An active resumable run is abandoned. No-op for a one-shot
    /// searcher.
    pub fn reset(&mut self) {
        if !self.reuse {
            return;
        }
        self.run = None;
        if let Some(t) = &mut self.tree {
            t.reset_in_place();
        }
        self.inherited_nodes = 0;
    }

    /// [`ReusableSearch::reset`], and let go of the evaluator as well: a
    /// parked searcher keeps only its warmed arena and buffers, so a pool
    /// of them keeps no model alive. It must be given its next evaluator
    /// by [`ReusableSearch::reconfigure`] before it searches again.
    pub fn park(&mut self) {
        self.reset();
        self.run = None; // `reset` leaves a one-shot searcher's run alone
        self.evaluator = None;
    }

    /// Report that `action` was played from the state last searched (or
    /// last advanced to). Re-roots the retained tree **in place** at the
    /// corresponding child (`O(discarded nodes)`, no allocation), or
    /// resets it if that child was never expanded. An active resumable
    /// run is abandoned first (its completed playouts stay in the tree).
    /// No-op for a one-shot searcher.
    pub fn advance(&mut self, action: Action) {
        if !self.reuse {
            return;
        }
        self.run = None;
        if let Some(t) = &mut self.tree {
            t.advance_root(action);
        }
    }

    /// Nodes retained for the next search (0 when nothing useful is held:
    /// no tree, only a bare root, or a one-shot searcher).
    pub fn retained_nodes(&self) -> usize {
        match &self.tree {
            Some(t) if self.reuse && !t.is_empty() => t.len(),
            _ => 0,
        }
    }

    /// Arena accounting of the current tree (live/free/high-water plus
    /// cumulative reclaim and eviction counters); `None` before the first
    /// search.
    pub fn tree_stats(&self) -> Option<TreeStats> {
        self.tree.as_ref().map(Tree::stats)
    }

    /// Run a search from `root`, reusing any retained subtree. The caller
    /// is responsible for `root` being the state reached by the reported
    /// [`ReusableSearch::advance`] sequence — searching a divergent state
    /// with a stale tree silently produces garbage, so prefer `reset` when
    /// in doubt.
    pub fn search<G: Game>(&mut self, root: &G) -> SearchResult {
        let mut result = SearchResult::default();
        self.search_into(root, &mut result);
        result
    }

    /// [`ReusableSearch::search`] into a caller-owned result. Once the
    /// result's buffers have capacity (and the evaluator is itself
    /// allocation-free, e.g. a warmed [`crate::NnEvaluator`]), a whole
    /// search → advance → search cycle performs zero heap allocations.
    pub fn search_into<G: Game>(&mut self, root: &G, result: &mut SearchResult) {
        SearchScheme::<G>::begin(self, root, Budget::default());
        while SearchScheme::<G>::step(self, usize::MAX) == StepOutcome::Running {}
        self.partial_into(result);
        SearchScheme::<G>::cancel(self);
    }

    /// [`SearchScheme::partial_result`] into caller-owned buffers (no
    /// allocation once the buffers have capacity). Leaves `result`
    /// untouched when no run is active.
    pub fn partial_into(&self, result: &mut SearchResult) {
        if let (Some(tree), Some(run)) = (&self.tree, &self.run) {
            run.snapshot_into(tree, result);
        }
    }
}

impl<G: Game> SearchScheme<G> for ReusableSearch {
    fn begin(&mut self, root: &G, budget: Budget) {
        SearchScheme::<G>::cancel(self);
        let (tree, run) = match self.tree.take() {
            Some(mut tree) if self.reuse => {
                // Per-run knob changes apply to the retained tree too
                // (its arena bound stays where it is, see Budget docs).
                tree.set_search_params(budget.apply_to(&self.cfg));
                // Count *new* playouts only: an inherited tree already
                // holds visits, so the per-run compute budget stays
                // comparable to a fresh search.
                let mut run = Run::begin(&self.cfg, &budget, root);
                run.reclaimed_base = self.reclaimed_snapshot;
                (tree, run)
            }
            // One-shot, or nothing retained yet: a bare root on the
            // arena the previous search grew, if there was one.
            spare => Run::fresh(spare, &self.cfg, &budget, root),
        };
        self.inherited_nodes = (tree.len() as u64).saturating_sub(1);
        self.root.store(root);
        self.tree = Some(tree);
        self.run = Some(run);
    }

    fn step(&mut self, quota: usize) -> StepOutcome {
        let (Some(tree), Some(run)) = (&mut self.tree, &mut self.run) else {
            return StepOutcome::Done;
        };
        let evaluator = self
            .evaluator
            .as_deref()
            .expect("a parked searcher is reconfigured before it searches");
        let hook = &mut self.hook;
        run.step(tree, self.root.get::<G>(), quota, |leaf| {
            hook.leaf(evaluator, leaf)
        })
    }

    fn partial_result(&self) -> SearchResult {
        Run::snapshot(self.tree.as_ref().zip(self.run.as_ref()))
    }

    fn cancel(&mut self) {
        if let (Some(tree), Some(run)) = (&self.tree, self.run.take()) {
            // The retained tree keeps the cancelled run's completed
            // playouts: a shorter search happened, nothing is torn down.
            run.finish(tree);
            self.reclaimed_snapshot = tree.stats().reclaimed_total;
        }
    }

    fn search(&mut self, root: &G) -> SearchResult {
        ReusableSearch::search(self, root)
    }

    fn advance(&mut self, action: Action) {
        ReusableSearch::advance(self, action)
    }

    fn reset(&mut self) {
        ReusableSearch::reset(self)
    }

    fn name(&self) -> &'static str {
        if self.reuse {
            "serial+reuse"
        } else {
            "serial"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{DelayedEvaluator, UniformEvaluator};
    use crate::{Scheme, SearchBuilder};
    use games::tictactoe::TicTacToe;
    use games::{Game, Status};
    use std::time::Duration;

    fn searcher(playouts: usize) -> ReusableSearch {
        let cfg = MctsConfig {
            playouts,
            ..Default::default()
        };
        ReusableSearch::new(cfg, Arc::new(UniformEvaluator::for_game(&TicTacToe::new())))
    }

    /// The one-shot serial searcher, the way callers get it: through the
    /// builder.
    fn one_shot_with(cfg: MctsConfig) -> Box<dyn SearchScheme<TicTacToe>> {
        SearchBuilder::new(Scheme::Serial)
            .config(cfg)
            .evaluator(Arc::new(UniformEvaluator::for_game(&TicTacToe::new())))
            .build()
    }

    fn one_shot(playouts: usize) -> Box<dyn SearchScheme<TicTacToe>> {
        one_shot_with(MctsConfig {
            playouts,
            ..Default::default()
        })
    }

    #[test]
    fn a_parked_searcher_lets_go_of_its_evaluator_and_keeps_its_arena() {
        let g = TicTacToe::new();
        let eval: Arc<dyn BatchEvaluator> = Arc::new(UniformEvaluator::for_game(&g));
        let cfg = MctsConfig {
            playouts: 64,
            ..Default::default()
        };
        let mut s = ReusableSearch::new(cfg, Arc::clone(&eval));
        s.search(&g);
        let warmed = s.tree_stats().unwrap().high_water;
        s.park();
        assert_eq!(Arc::strong_count(&eval), 1, "parked: no evaluator held");
        assert_eq!(s.retained_nodes(), 0);
        s.reconfigure(cfg, eval);
        assert_eq!(s.search(&g).stats.playouts, 64);
        assert_eq!(s.tree_stats().unwrap().high_water, warmed, "same arena");
    }

    #[test]
    fn first_search_matches_serial_budget() {
        let mut s = searcher(64);
        let r = s.search(&TicTacToe::new());
        assert_eq!(r.stats.playouts, 64);
        assert_eq!(s.inherited_nodes, 0);
        assert_eq!(r.stats.reclaimed, 0, "nothing reclaimed on a cold tree");
    }

    #[test]
    fn advance_retains_played_subtree() {
        let mut s = searcher(200);
        let mut g = TicTacToe::new();
        let r = s.search(&g);
        let a = r.best_action();
        let retained_before = s.retained_nodes();
        assert!(retained_before > 1);
        s.advance(a);
        g.apply(a);
        assert!(s.retained_nodes() > 1, "subtree of best move survives");
        assert!(s.retained_nodes() < retained_before);

        let r2 = s.search(&g);
        assert!(s.inherited_nodes > 0, "second search starts warm");
        assert_eq!(r2.stats.playouts, 200);
        assert!(
            r2.stats.reclaimed > 0,
            "discarded siblings reported as reclaimed"
        );
        let stats = s.tree_stats().unwrap();
        assert_eq!(stats.live + stats.free, stats.high_water);
    }

    #[test]
    fn advance_on_unexplored_action_keeps_nothing_useful() {
        let mut s = searcher(4); // tiny search: most children unvisited
        let mut g = TicTacToe::new();
        let r = s.search(&g);
        // Pick a legal action with zero visits if one exists. Its child
        // node exists (expansion creates all children) but is a bare,
        // unexpanded node — the re-rooted tree is a single node.
        if let Some(a) = (0..9).find(|&a| r.visits[a as usize] == 0 && g.is_legal(a)) {
            s.advance(a);
            g.apply(a);
            assert!(s.retained_nodes() <= 1, "unvisited child has no subtree");
            let r2 = s.search(&g);
            assert_eq!(s.inherited_nodes, 0);
            assert_eq!(r2.stats.playouts, 4);
        }
    }

    #[test]
    fn advance_twice_without_search_discards() {
        // Advancing along an unexplored opponent reply after our own move
        // leaves nothing; the next search starts cold and still works.
        let mut s = searcher(8);
        let mut g = TicTacToe::new();
        let r = s.search(&g);
        let a = r.best_action();
        s.advance(a);
        g.apply(a);
        // Opponent plays something the tiny tree never expanded below.
        let opp = g.legal_actions()[0];
        s.advance(opp);
        g.apply(opp);
        let r2 = s.search(&g);
        assert_eq!(r2.stats.playouts, 8);
    }

    #[test]
    fn reuse_accumulates_visits_across_moves() {
        let mut s = searcher(100);
        let mut g = TicTacToe::new();
        let r1 = s.search(&g);
        let a = r1.best_action();
        let child_visits = r1.visits[a as usize];
        s.advance(a);
        g.apply(a);
        let r2 = s.search(&g);
        // The new root had `child_visits` visits; 100 more playouts ran.
        let total: u32 = r2.visits.iter().sum();
        assert!(
            total >= child_visits.saturating_sub(1),
            "inherited visits {child_visits} should persist, got {total}"
        );
        assert_eq!(r2.stats.playouts, 100);
    }

    #[test]
    fn full_selfplay_game_with_reuse_is_legal() {
        let mut s = searcher(64);
        let mut g = TicTacToe::new();
        let mut moves = 0;
        while g.status() == Status::Ongoing {
            let r = s.search(&g);
            let a = r.best_action();
            assert!(g.is_legal(a));
            s.advance(a);
            g.apply(a);
            moves += 1;
            assert!(moves <= 9);
        }
        assert!(g.status().is_terminal());
    }

    #[test]
    fn reset_clears_retained_tree() {
        let mut s = searcher(50);
        let g = TicTacToe::new();
        let r = s.search(&g);
        s.advance(r.best_action());
        assert!(s.retained_nodes() > 0);
        s.reset();
        assert_eq!(s.retained_nodes(), 0);
        // The arena itself survives (memory reuse across games).
        assert!(s.tree_stats().is_some());
    }

    #[test]
    fn reuse_and_fresh_agree_on_forced_win() {
        // X: 0 — O: 3. X searches, plays 1 (threatening 2), O replies 4
        // instead of blocking, and X searches again from the warm tree:
        // 2 wins. Reuse must not change the conclusion.
        let mut g = TicTacToe::new();
        for a in [0u16, 3] {
            g.apply(a);
        }
        let mut s = searcher(400);
        let _ = s.search(&g);
        for a in [1u16, 4] {
            s.advance(a);
            g.apply(a);
        }
        let warm = s.search(&g);
        assert!(s.inherited_nodes > 0, "second search starts warm");
        assert!(g.is_legal(warm.best_action()));
        assert_eq!(warm.best_action(), 2, "visits {:?}", warm.visits);
        let fresh = one_shot(400).search(&g);
        assert_eq!(fresh.best_action(), 2, "visits {:?}", fresh.visits);
    }

    #[test]
    fn search_into_reuses_result_buffers() {
        let mut s = searcher(50);
        let mut g = TicTacToe::new();
        let mut result = s.search(&g);
        let cap = (result.visits.capacity(), result.probs.capacity());
        let a = result.best_action();
        s.advance(a);
        g.apply(a);
        s.search_into(&g, &mut result);
        assert_eq!(result.stats.playouts, 50);
        assert_eq!(
            (result.visits.capacity(), result.probs.capacity()),
            cap,
            "buffers reused, not reallocated"
        );
        assert_eq!(result.visits.len(), 9);
    }

    #[test]
    fn transpositions_survive_advance() {
        let cfg = MctsConfig {
            playouts: 200,
            transpositions: true,
            ..Default::default()
        };
        let mut s =
            ReusableSearch::new(cfg, Arc::new(UniformEvaluator::for_game(&TicTacToe::new())));
        let mut g = TicTacToe::new();
        let r1 = ReusableSearch::search(&mut s, &g);
        assert!(r1.stats.tt_hits > 0, "first search should transpose");
        let a = r1.best_action();
        s.advance(a); // clears the index along with the discarded region
        g.apply(a);
        let r2 = ReusableSearch::search(&mut s, &g);
        assert_eq!(r2.stats.playouts, 200, "warm tree still searches");
    }

    #[test]
    fn bounded_reuse_game_respects_its_byte_bound() {
        let cap = 300usize;
        let mut s = ReusableSearch::new(
            MctsConfig {
                playouts: 200,
                arena_budget_bytes: Some(cap * crate::NodeArena::slot_bytes()),
                ..Default::default()
            },
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let mut g = TicTacToe::new();
        while g.status() == Status::Ongoing {
            let r = s.search(&g);
            let a = r.best_action();
            s.advance(a);
            g.apply(a);
        }
        let stats = s.tree_stats().unwrap();
        assert!(
            stats.high_water <= cap,
            "hard bound held for the whole game: {} > {cap}",
            stats.high_water
        );
    }

    // -- one-shot (plain serial) searcher --------------------------------

    #[test]
    fn playout_budget_respected() {
        let mut s = one_shot(128);
        let r = s.search(&TicTacToe::new());
        assert_eq!(r.stats.playouts, 128);
        // Root children visit counts: every playout after the first goes
        // through exactly one root child.
        assert_eq!(r.visits.iter().sum::<u32>(), 127);
        assert_eq!(s.name(), "serial");
    }

    #[test]
    fn finds_immediate_win() {
        // X: 0,1 — O: 3,4. X to move; 2 completes the top row.
        let mut g = TicTacToe::new();
        for a in [0u16, 3, 1, 4] {
            g.apply(a);
        }
        let mut s = one_shot(400);
        let r = s.search(&g);
        assert_eq!(r.best_action(), 2, "visits {:?}", r.visits);
        assert!(r.value > 0.5);
    }

    #[test]
    fn blocks_immediate_loss() {
        // X: 0,1 — O: 4. O to move; must block at 2.
        let mut g = TicTacToe::new();
        for a in [0u16, 4, 1] {
            g.apply(a);
        }
        let mut s = one_shot(800);
        let r = s.search(&g);
        assert_eq!(r.best_action(), 2, "visits {:?}", r.visits);
    }

    #[test]
    fn probabilities_match_visits() {
        let mut s = one_shot(64);
        let r = s.search(&TicTacToe::new());
        let total: u32 = r.visits.iter().sum();
        for (p, &v) in r.probs.iter().zip(&r.visits) {
            assert!((p - v as f32 / total as f32).abs() < 1e-6);
        }
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let mut a = one_shot(100);
        let mut b = one_shot(100);
        let g = TicTacToe::new();
        let ra = a.search(&g);
        let rb = b.search(&g);
        assert_eq!(ra.visits, rb.visits);
    }

    #[test]
    fn search_from_mid_game_state() {
        let mut g = TicTacToe::new();
        g.apply(4);
        let mut s = one_shot(50);
        let r = s.search(&g);
        assert_eq!(r.visits[4], 0, "occupied cell never visited");
        assert_eq!(r.stats.playouts, 50);
    }

    #[test]
    fn stats_are_populated() {
        let mut s = one_shot(64);
        let r = s.search(&TicTacToe::new());
        assert!(r.stats.move_ns > 0);
        assert!(r.stats.select_ns > 0);
        assert!(r.stats.nodes > 1);
    }

    #[test]
    fn time_budget_stops_search_early() {
        // Uniform priors after a fixed sleep, to make playouts slow.
        let slow = DelayedEvaluator::new(
            UniformEvaluator::for_game(&TicTacToe::new()),
            Duration::from_millis(2),
        );
        let mut s = SearchBuilder::new(Scheme::Serial)
            .playouts(10_000)
            .evaluator(Arc::new(slow))
            .build::<TicTacToe>();
        let t0 = std::time::Instant::now();
        s.begin(&TicTacToe::new(), Budget::time(Duration::from_millis(20)));
        while s.step(usize::MAX) == StepOutcome::Running {}
        let r = s.partial_result();
        assert!(
            r.stats.playouts < 10_000,
            "budget must cut the search short"
        );
        assert!(r.stats.playouts > 0, "at least one playout completes");
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn no_budget_runs_all_playouts() {
        let mut s = one_shot(32);
        let r = s.search(&TicTacToe::new());
        assert_eq!(r.stats.playouts, 32);
    }

    #[test]
    fn one_shot_ignores_advance_and_starts_every_search_cold() {
        let mut s = ReusableSearch::one_shot(
            MctsConfig {
                playouts: 200,
                ..Default::default()
            },
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let mut g = TicTacToe::new();
        let r1 = s.search(&g);
        let a = r1.best_action();
        s.advance(a);
        g.apply(a);
        assert_eq!(s.retained_nodes(), 0, "a one-shot searcher retains nothing");
        let r2 = s.search(&g);
        assert_eq!(s.inherited_nodes, 0);
        assert_eq!(r2.stats.reclaimed, 0);
        assert_eq!(r2.visits.iter().sum::<u32>(), 199, "bare root every move");
        // The last tree stays readable until the next begin.
        assert_eq!(s.tree_stats().unwrap().live as u64, r2.stats.nodes);
    }

    #[test]
    fn one_shot_applies_per_run_memory_budgets() {
        let mut s = one_shot(300);
        s.begin(
            &TicTacToe::new(),
            Budget::default().with_max_bytes(120 * crate::NodeArena::slot_bytes()),
        );
        while s.step(64) == StepOutcome::Running {}
        let r = s.partial_result();
        assert_eq!(r.stats.playouts, 300);
        assert!(
            r.stats.nodes <= 120,
            "per-run bound held: {}",
            r.stats.nodes
        );
        // The bound is the run's, not the searcher's: the next run
        // re-bounds the kept arena.
        let r = s.search(&TicTacToe::new());
        assert!(r.stats.nodes > 120);
    }

    #[test]
    fn chained_stage_clocks_add_up_to_the_active_time() {
        let g = TicTacToe::new();
        for scheme in [Scheme::Serial, Scheme::LeafParallel, Scheme::Speculative] {
            let mut s = SearchBuilder::new(scheme)
                .playouts(100)
                .workers(2)
                .evaluator(Arc::new(UniformEvaluator::for_game(&g)))
                .build::<TicTacToe>();
            s.begin(&g, Budget::default());
            while s.step(7) == StepOutcome::Running {
                let st = s.partial_result().stats;
                assert_eq!(st.select_ns + st.eval_ns + st.backup_ns, st.move_ns);
            }
            let st = s.partial_result().stats;
            assert_eq!(st.playouts, 100);
            assert!(st.select_ns > 0 && st.eval_ns > 0 && st.backup_ns > 0);
            assert_eq!(
                st.select_ns + st.eval_ns + st.backup_ns,
                st.move_ns,
                "{scheme}: every nanosecond of a step is in exactly one stage"
            );
        }
    }

    // -- the kept arena ---------------------------------------------------

    #[test]
    fn one_shot_repeats_itself_on_its_kept_arena() {
        let cfg = MctsConfig {
            playouts: 300,
            ..Default::default()
        };
        let g = TicTacToe::new();
        let mut s = ReusableSearch::one_shot(cfg, Arc::new(UniformEvaluator::for_game(&g)));
        let first = s.search(&g);
        let grown = s.tree_stats().unwrap();
        assert_eq!(first.stats.reclaimed, 0);
        for _ in 0..2 {
            let again = s.search(&g);
            assert_eq!(again.visits, first.visits);
            assert_eq!(again.probs, first.probs);
            assert_eq!(again.value, first.value);
            assert_eq!(again.stats.nodes, first.stats.nodes);
            assert_eq!(again.stats.reclaimed, 0, "a search that only grew");
            let stats = s.tree_stats().unwrap();
            assert_eq!(
                stats.high_water, grown.high_water,
                "same arena, same growth"
            );
            // The tree's own counter runs over the searcher's life: each
            // reset reclaimed the previous search's nodes.
            assert!(stats.reclaimed_total > grown.reclaimed_total);
        }
    }

    #[test]
    fn a_per_run_bound_binds_on_a_kept_arena() {
        let cfg = MctsConfig {
            playouts: 300,
            ..Default::default()
        };
        let g = TicTacToe::new();
        let mut s = ReusableSearch::one_shot(cfg, Arc::new(UniformEvaluator::for_game(&g)));
        let unbounded = s.search(&g);
        let grown = s.tree_stats().unwrap().high_water;
        assert!(
            grown > 120,
            "the kept arena is larger than the bounds below"
        );
        for slots in [120, 90] {
            let evicted_before = s.tree_stats().unwrap().evicted;
            s.begin(
                &g,
                Budget::default().with_max_bytes(slots * crate::NodeArena::slot_bytes()),
            );
            while SearchScheme::<TicTacToe>::step(&mut s, 64) == StepOutcome::Running {}
            let r = SearchScheme::<TicTacToe>::partial_result(&s);
            assert_eq!(r.stats.playouts, 300);
            let stats = s.tree_stats().unwrap();
            assert!(
                stats.high_water <= slots,
                "a bound smaller than the kept arena still binds: {}",
                stats.high_water
            );
            let evicted = stats.evicted - evicted_before;
            assert!(evicted > 0, "300 playouts under {slots} slots must evict");
            assert_eq!(r.stats.reclaimed, evicted, "per run: this run's evictions");
        }
        // And a later unbounded run grows again, to the same tree.
        let r = s.search(&g);
        assert_eq!(r.visits, unbounded.visits);
        assert_eq!(r.stats.nodes, unbounded.stats.nodes);
        assert_eq!(r.stats.reclaimed, 0);
        assert_eq!(s.tree_stats().unwrap().high_water, grown);
    }

    #[test]
    fn bare_root_schemes_repeat_themselves_on_their_kept_arenas() {
        let g = TicTacToe::new();
        let build = |scheme| {
            SearchBuilder::new(scheme)
                .playouts(150)
                .workers(3)
                .evaluator(Arc::new(UniformEvaluator::for_game(&g)))
                .build::<TicTacToe>()
        };
        // Deterministic schemes: the second and third search, on a reset
        // arena, are the first one again.
        for scheme in [
            Scheme::LeafParallel,
            Scheme::Speculative,
            Scheme::RootParallel,
        ] {
            let mut s = build(scheme);
            let first = s.search(&g);
            for _ in 0..2 {
                let again = s.search(&g);
                assert_eq!(again.visits, first.visits, "{scheme}");
                assert_eq!(again.probs, first.probs, "{scheme}");
                assert_eq!(again.value, first.value, "{scheme}");
                assert_eq!(again.stats.nodes, first.stats.nodes, "{scheme}");
                assert_eq!(again.stats.reclaimed, 0, "{scheme}");
            }
        }
        // The local tree applies completions in arrival order, so only
        // its accounting repeats (its own tests walk the kept tree).
        let mut s = build(Scheme::LocalTree);
        for _ in 0..3 {
            let r = s.search(&g);
            assert_eq!(r.stats.playouts, 150);
            assert_eq!(r.visits.iter().sum::<u32>(), 149);
            assert_eq!(r.stats.reclaimed, 0);
        }
    }

    #[test]
    fn transpositions_skip_evaluations() {
        let mk = |tt: bool| {
            let eval = Arc::new(DelayedEvaluator::new(
                UniformEvaluator::for_game(&TicTacToe::new()),
                Duration::ZERO,
            ));
            let s = SearchBuilder::new(Scheme::Serial)
                .config(MctsConfig {
                    playouts: 300,
                    transpositions: tt,
                    ..Default::default()
                })
                .evaluator(Arc::clone(&eval) as _)
                .build::<TicTacToe>();
            (s, eval)
        };
        let (mut plain, e_plain) = mk(false);
        let r_plain = plain.search(&TicTacToe::new());
        assert_eq!(r_plain.stats.tt_hits, 0, "disabled index never hits");
        let (mut with_tt, e_tt) = mk(true);
        let r_tt = with_tt.search(&TicTacToe::new());
        assert!(r_tt.stats.tt_hits > 0, "tictactoe transposes by depth 3");
        assert!(
            e_tt.calls() < e_plain.calls(),
            "reused expansions must save evaluator calls: {} vs {}",
            e_tt.calls(),
            e_plain.calls()
        );
        assert_eq!(r_tt.stats.playouts, 300, "same compute budget");
    }

    #[test]
    fn transpositions_preserve_forced_win() {
        let mut g = TicTacToe::new();
        for a in [0u16, 3, 1, 4] {
            g.apply(a);
        }
        let mut s = one_shot_with(MctsConfig {
            playouts: 400,
            transpositions: true,
            ..Default::default()
        });
        let r = s.search(&g);
        assert_eq!(r.best_action(), 2, "visits {:?}", r.visits);
        assert!(r.value > 0.5);
    }

    #[test]
    fn self_play_with_serial_search_terminates() {
        let mut g = TicTacToe::new();
        let mut s = one_shot(64);
        let mut moves = 0;
        while g.status() == Status::Ongoing {
            let r = s.search(&g);
            g.apply(r.best_action());
            moves += 1;
            assert!(moves <= 9);
        }
        // Perfect-ish play from uniform priors usually draws; at minimum
        // the game must end legally.
        assert!(g.status().is_terminal());
    }
}
