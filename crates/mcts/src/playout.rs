//! The single-owner playout loop: Algorithm 2's in-tree iteration
//! (select → evaluate → expand/backup), spelled out once for every
//! scheme whose tree has exactly one owner.
//!
//! A [`Run`] is the record of one resumable run — stage statistics, the
//! [`RunGate`] and the root's action space — and drives the loop over a
//! tree the scheme hands it. The only thing a scheme supplies is the
//! **leaf hook**: what to do with a leaf selection claimed for
//! evaluation. The hook reaches the tree through [`Leaf::evaluate`] and
//! [`Leaf::backup`], which is where the `eval_ns` / `backup_ns` stage
//! clocks are read — once, for all schemes. The clocks are chained: one
//! reading ends a stage and starts the next (three per playout), so a
//! step's time lands, all of it, in exactly one of `select_ns`,
//! `eval_ns` and `backup_ns` (encoding the state counts as evaluation,
//! root clone and gate check as selection). [`KeyedHook`] is the serial
//! hook (transposition lookup, one keyed batch call, index update) shared
//! by the serial and reuse searchers and by every root-parallel slot;
//! leaf-parallel and speculative search bring their own. The local-tree
//! scheme pipelines its evaluations and therefore keeps its own loop (and
//! its own start/stop timers), but shares the record, [`Run::end_step`],
//! [`Run::snapshot`] and [`Run::finish`].
//!
//! [`Run::on_bare_root`] is the one way a search starts from a bare
//! root: on the tree the scheme's previous search left behind, reset and
//! re-bound in place, so only a scheme's first search builds one.

use crate::budget::{Budget, RunGate, StepOutcome};
use crate::config::MctsConfig;
use crate::evaluator::{BatchEvaluator, EvalOutput};
use crate::result::{SearchResult, SearchStats};
use crate::tree::{SelectOutcome, Tree};
use games::Game;
use std::time::Instant;

/// Charge the time since `mark` to `stage_ns` and move `mark` to now.
/// Each stage ends where the next begins, so one clock reading closes
/// one stage and opens the other, and no time between them goes
/// uncounted.
#[inline]
fn lap(mark: &mut Instant, stage_ns: &mut u64) {
    let now = Instant::now();
    *stage_ns += now.duration_since(*mark).as_nanos() as u64;
    *mark = now;
}

/// Record of one resumable run over a single-owner [`Tree`].
pub(crate) struct Run {
    pub stats: SearchStats,
    pub gate: RunGate,
    action_space: usize,
    /// The tree's `reclaimed_total` when this run's accounting starts
    /// (the end of the previous search on a retained tree, the reset of
    /// a bare-root one), so snapshots report the delta.
    pub reclaimed_base: u64,
    /// Where the stage clock stands after [`Run::playouts`]: the end of
    /// the last stage it charged. [`Run::end_step`] closes the step on
    /// it, so the three stage clocks add up to the step's active time.
    mark: Option<Instant>,
}

/// A leaf claimed by selection, with the game positioned at its state.
pub(crate) struct Leaf<'a, G> {
    tree: &'a mut Tree,
    stats: &'a mut SearchStats,
    /// The run's stage clock: when the previous stage ended.
    mark: &'a mut Instant,
    id: u32,
    game: &'a G,
}

impl<G: Game> Leaf<'_, G> {
    /// The claimed node.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Node Evaluation stage: run `f`, charging the time since the
    /// previous stage ended to `eval_ns`.
    pub fn evaluate<R>(&mut self, f: impl FnOnce(&mut Tree, &G) -> R) -> R {
        let r = f(self.tree, self.game);
        lap(self.mark, &mut self.stats.eval_ns);
        r
    }

    /// Expansion + BackUp stage: run `f` on the tree and the claimed
    /// node, charging the time since the previous stage ended to
    /// `backup_ns`.
    pub fn backup(&mut self, f: impl FnOnce(&mut Tree, u32)) {
        f(self.tree, self.id);
        lap(self.mark, &mut self.stats.backup_ns);
    }
}

impl Run {
    /// A run over `action_space` actions paced by `gate`.
    pub fn new(gate: RunGate, action_space: usize) -> Self {
        Run {
            stats: SearchStats::default(),
            gate,
            action_space,
            reclaimed_base: 0,
            mark: None,
        }
    }

    /// Open a run from `root`: resolve `budget` against `cfg` now.
    pub fn begin<G: Game>(cfg: &MctsConfig, budget: &Budget, root: &G) -> Self {
        Run::new(
            RunGate::new(cfg, budget, root.status().is_terminal()),
            root.action_space(),
        )
    }

    /// The one way to start from a bare root: `run` together with its
    /// tree, configured and bounded by `run_cfg`. `spare` is the tree the
    /// scheme's previous search left behind — it is reset and re-bound in
    /// place ([`Tree::set_config`]), so its column memory serves this
    /// search too and only a scheme's first search builds a tree. The
    /// reset's own reclaim is re-based away: the run reports what *it*
    /// reclaims (evictions under a bound).
    pub fn on_bare_root(spare: Option<Tree>, run_cfg: MctsConfig, mut run: Run) -> (Tree, Self) {
        let tree = match spare {
            Some(mut tree) => {
                tree.set_config(run_cfg);
                tree
            }
            None => Tree::new(run_cfg),
        };
        run.reclaimed_base = tree.stats().reclaimed_total;
        (tree, run)
    }

    /// [`Run::begin`] on a bare root, the tree bounded by the budget
    /// (schemes whose every search starts from one).
    pub fn fresh<G: Game>(
        spare: Option<Tree>,
        cfg: &MctsConfig,
        budget: &Budget,
        root: &G,
    ) -> (Tree, Self) {
        Run::on_bare_root(spare, budget.apply_to(cfg), Run::begin(cfg, budget, root))
    }

    /// Run up to `quota` playouts from `root` on `tree`, stopping early
    /// when the gate is exhausted. Selection and bookkeeping happen
    /// here; each leaf claimed for evaluation goes to `leaf_hook`, which
    /// must leave it expanded and backed up.
    ///
    /// The stage clock runs from `started` (the caller's reading at the
    /// top of its step) and is read once per stage: selection is charged
    /// everything since the previous stage ended — gate check and root
    /// clone included — and the hook's [`Leaf::evaluate`] /
    /// [`Leaf::backup`] calls carry it on.
    pub fn playouts<G: Game>(
        &mut self,
        tree: &mut Tree,
        root: &G,
        quota: usize,
        started: Instant,
        mut leaf_hook: impl FnMut(&mut Leaf<'_, G>),
    ) {
        let mut mark = started;
        let mut used = 0usize;
        while used < quota && !self.gate.exhausted() {
            let mut game = root.clone();
            let (id, outcome) = tree.select(&mut game);
            lap(&mut mark, &mut self.stats.select_ns);
            match outcome {
                SelectOutcome::TerminalBackedUp => {}
                SelectOutcome::NeedsEval => leaf_hook(&mut Leaf {
                    tree: &mut *tree,
                    stats: &mut self.stats,
                    mark: &mut mark,
                    id,
                    game: &game,
                }),
                // Nothing else holds a claim on a tree with one owner
                // and no evaluation in flight.
                SelectOutcome::Busy => unreachable!("single-owner playout found a pending leaf"),
            }
            used += 1;
            self.gate.done += 1;
            self.stats.playouts += 1;
        }
        self.mark = Some(mark);
    }

    /// Charge the time since the previous stage ended to `eval_ns`: for
    /// evaluation a scheme runs outside a leaf hook (the speculative
    /// flush), after [`Run::playouts`] in the same step.
    pub fn lap_eval(&mut self) {
        if let Some(mark) = &mut self.mark {
            lap(mark, &mut self.stats.eval_ns);
        }
    }

    /// Close a `step` call that began at `started`. The gate is asked
    /// once whether the run is over; if it is, `drain` first settles
    /// whatever the scheme still holds in flight (inside the step's
    /// active time). Then the step is charged to the run, the snapshot
    /// sequence number advances, and a finished run gets its end-of-run
    /// checks. What [`Run::playouts`] left on the stage clock — the loop
    /// exit and this function's own work — counts as selection, up to
    /// the very reading that ends the step.
    pub fn end_step(
        &mut self,
        tree: &mut Tree,
        started: Instant,
        drain: impl FnOnce(&mut Tree, &mut Run),
    ) -> StepOutcome {
        let over = self.gate.exhausted();
        if over {
            drain(tree, self);
        }
        let ended = self.gate.note_step(started);
        if let Some(mark) = self.mark.take() {
            self.stats.select_ns += ended.duration_since(mark).as_nanos() as u64;
        }
        if over {
            self.finish(tree);
            StepOutcome::Done
        } else {
            StepOutcome::Running
        }
    }

    /// One whole `step` of a scheme that holds nothing in flight between
    /// playouts: [`Run::playouts`] then [`Run::end_step`].
    pub fn step<G: Game>(
        &mut self,
        tree: &mut Tree,
        root: &G,
        quota: usize,
        leaf_hook: impl FnMut(&mut Leaf<'_, G>),
    ) -> StepOutcome {
        let started = Instant::now();
        self.playouts(tree, root, quota, started, leaf_hook);
        self.end_step(tree, started, |_, _| {})
    }

    /// End-of-run checks: no virtual loss may be outstanding, and with
    /// the `invariants` cargo feature the full invariant walk runs.
    pub fn finish(&self, tree: &Tree) {
        debug_assert_eq!(tree.outstanding_vl(), 0);
        #[cfg(feature = "invariants")]
        tree.check_invariants();
    }

    /// Anytime snapshot into caller-owned buffers (no allocation once
    /// they have capacity).
    pub fn snapshot_into(&self, tree: &Tree, result: &mut SearchResult) {
        result.value =
            tree.action_prior_into(self.action_space, &mut result.visits, &mut result.probs);
        result.stats = self.stats;
        result.stats.move_ns = self.gate.active_ns;
        result.stats.seq = self.gate.seq();
        result.stats.nodes = tree.len() as u64;
        result.stats.reclaimed = tree.stats().reclaimed_total - self.reclaimed_base;
    }

    /// [`Run::snapshot_into`] a fresh result; the empty default when no
    /// run is active.
    pub fn snapshot(active: Option<(&Tree, &Run)>) -> SearchResult {
        let mut result = SearchResult::default();
        if let Some((tree, run)) = active {
            run.snapshot_into(tree, &mut result);
        }
        result
    }
}

/// The serial leaf hook and its reused buffers: look the position up in
/// the tree's transposition index; on a miss evaluate it through the
/// keyed batch entry point (so a [`crate::cache::CachedEvaluator`] sees
/// the position hash) and index the new expansion.
#[derive(Default)]
pub(crate) struct KeyedHook {
    encode_buf: Vec<f32>,
    out: [EvalOutput; 1],
}

impl KeyedHook {
    pub fn leaf<G: Game>(&mut self, evaluator: &dyn BatchEvaluator, leaf: &mut Leaf<'_, G>) {
        let key = leaf.game.hash();
        if let Some(src) = leaf.tree.tt_lookup(key) {
            // Same position reached by another move order: reuse its
            // priors/value, skip the evaluator.
            leaf.backup(|tree, id| tree.expand_from_transposition(id, src));
            leaf.stats.tt_hits += 1;
            return;
        }
        leaf.evaluate(|_, game| {
            self.encode_buf.resize(game.encoded_len(), 0.0);
            game.encode(&mut self.encode_buf);
            evaluator.evaluate_batch_keyed(&[key], &[&self.encode_buf], &mut self.out);
        });
        let [o] = &self.out;
        leaf.backup(|tree, id| {
            tree.expand_and_backup(id, &o.priors, o.value);
            tree.tt_record(key, id);
        });
    }
}
