//! Speculative DNN-MCTS baseline (after SpecMCTS, Kim et al. 2021 — §2.2).
//!
//! SpecMCTS keeps the sequential in-tree discipline but hides the main
//! model's evaluation latency behind a cheap *speculative* model: the tree
//! is expanded immediately with the fast model's output so selection can
//! continue, and the main model's (slower, better) result later *corrects*
//! the speculatively expanded node — priors are overwritten and the value
//! difference is propagated to the ancestors without extra visits.
//!
//! This serial implementation models that pipeline algorithmically: every
//! leaf is first expanded with the speculative evaluator; once
//! `commit_batch` expansions accumulate, the main evaluator re-scores them
//! **in one [`BatchEvaluator::evaluate_batch`] call** and
//! [`crate::tree::Tree::correct_expansion`] applies the deltas. With
//! `commit_batch = 1` the correction is immediate (maximum fidelity); larger
//! batches model a deeper pipeline (staler corrections, fewer main-model
//! synchronization points) and amortize the main model's per-call cost —
//! the same batching economics as the accelerator queue.

use crate::budget::{Budget, RootSlot, StepOutcome};
use crate::config::MctsConfig;
use crate::evaluator::{BatchEvaluator, EvalOutput};
use crate::playout::Run;
use crate::result::{SearchResult, SearchScheme};
use crate::tree::{mask_and_normalize, Tree};
use games::Game;
use std::sync::Arc;
use std::time::Instant;

/// A pending main-model re-evaluation of a speculatively expanded leaf.
struct PendingCorrection {
    leaf: u32,
    encoded: Vec<f32>,
    spec_value: f32,
}

/// Serial search with speculative expansion and deferred main-model
/// correction.
pub struct SpeculativeSearch {
    cfg: MctsConfig,
    /// The accurate (slow) model; its outputs are authoritative.
    main: Arc<dyn BatchEvaluator>,
    /// The cheap model used to keep the tree moving.
    spec: Arc<dyn BatchEvaluator>,
    /// Corrections are committed in batches of this size.
    commit_batch: usize,
    /// Total corrections applied over this searcher's lifetime.
    pub corrections: u64,
    /// Accumulated |v_main − v_spec| over all corrections (speculation
    /// quality diagnostic; large values mean the cheap model misleads).
    pub correction_magnitude: f64,
    encode_buf: Vec<f32>,
    /// Corrections awaiting the main model. They survive step
    /// boundaries and are flushed when the run finishes.
    pending: Vec<PendingCorrection>,
    root: RootSlot,
    run: Option<(Tree, Run)>,
    /// The previous run's tree, handed back at `cancel`: the next run
    /// resets it and searches on the same arena memory.
    spare: Option<Tree>,
}

/// Re-score `pending` with one batched main-model forward (the whole
/// pipeline window) and apply the deltas to `tree`, counting them into
/// the searcher's lifetime `corrections` / `magnitude` diagnostics.
fn commit(
    main: &dyn BatchEvaluator,
    tree: &mut Tree,
    pending: &mut Vec<PendingCorrection>,
    corrections: &mut u64,
    magnitude: &mut f64,
) {
    if pending.is_empty() {
        return;
    }
    let inputs: Vec<&[f32]> = pending.iter().map(|p| p.encoded.as_slice()).collect();
    let mut rescored = vec![EvalOutput::default(); pending.len()];
    main.evaluate_batch(&inputs, &mut rescored);
    for (p, o) in pending.drain(..).zip(rescored) {
        let legal = tree.child_actions(p.leaf);
        if legal.is_empty() {
            // Terminal discovered before the correction landed.
            continue;
        }
        let masked = mask_and_normalize(&o.priors, &legal);
        let dv = o.value - p.spec_value;
        tree.correct_expansion(p.leaf, &masked, dv);
        *corrections += 1;
        *magnitude += dv.abs() as f64;
    }
}

impl SpeculativeSearch {
    /// Create a speculative searcher. `commit_batch` must be ≥ 1.
    pub fn new(
        cfg: MctsConfig,
        main: Arc<dyn BatchEvaluator>,
        spec: Arc<dyn BatchEvaluator>,
        commit_batch: usize,
    ) -> Self {
        cfg.validate();
        assert!(commit_batch >= 1, "commit batch must be positive");
        assert_eq!(
            main.action_space(),
            spec.action_space(),
            "models must share an action space"
        );
        SpeculativeSearch {
            cfg,
            main,
            spec,
            commit_batch,
            corrections: 0,
            correction_magnitude: 0.0,
            encode_buf: Vec::new(),
            pending: Vec::with_capacity(commit_batch),
            root: RootSlot::new(),
            run: None,
            spare: None,
        }
    }
}

impl<G: Game> SearchScheme<G> for SpeculativeSearch {
    fn begin(&mut self, root: &G, budget: Budget) {
        SearchScheme::<G>::cancel(self);
        self.root.store(root);
        self.run = Some(Run::fresh(self.spare.take(), &self.cfg, &budget, root));
    }

    fn step(&mut self, quota: usize) -> StepOutcome {
        let Some((tree, run)) = &mut self.run else {
            return StepOutcome::Done;
        };
        let started = Instant::now();
        let (main, spec, commit_batch) =
            (self.main.as_ref(), self.spec.as_ref(), self.commit_batch);
        let (encode_buf, pending) = (&mut self.encode_buf, &mut self.pending);
        let (corrections, magnitude) = (&mut self.corrections, &mut self.correction_magnitude);
        run.playouts(tree, self.root.get::<G>(), quota, started, |leaf| {
            let o = leaf.evaluate(|_, game| {
                encode_buf.resize(game.encoded_len(), 0.0);
                game.encode(encode_buf);
                spec.evaluate_one(encode_buf)
            });
            leaf.backup(|tree, id| tree.expand_and_backup(id, &o.priors, o.value));
            pending.push(PendingCorrection {
                leaf: leaf.id(),
                encoded: encode_buf.clone(),
                spec_value: o.value,
            });
            if pending.len() >= commit_batch {
                leaf.evaluate(|tree, _| commit(main, tree, pending, corrections, magnitude));
            }
        });
        run.end_step(tree, started, |tree, run| {
            // Flush outstanding corrections so the final statistics
            // reflect the main model everywhere.
            commit(main, tree, pending, corrections, magnitude);
            run.lap_eval();
        })
    }

    fn partial_result(&self) -> SearchResult {
        Run::snapshot(self.run.as_ref().map(|(tree, run)| (tree, run)))
    }

    fn cancel(&mut self) {
        if let Some((mut tree, run)) = self.run.take() {
            // Commit what the pipeline holds so the lifetime correction
            // counters stay meaningful, then hand the tree back.
            commit(
                self.main.as_ref(),
                &mut tree,
                &mut self.pending,
                &mut self.corrections,
                &mut self.correction_magnitude,
            );
            run.finish(&tree);
            self.spare = Some(tree);
        }
    }

    fn name(&self) -> &'static str {
        "speculative"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::UniformEvaluator;
    use crate::reuse::ReusableSearch;
    use games::tictactoe::TicTacToe;

    /// An evaluator with a fixed bias toward one action and a fixed value.
    struct Biased {
        actions: usize,
        input_len: usize,
        hot: usize,
        value: f32,
    }
    impl BatchEvaluator for Biased {
        fn input_len(&self) -> usize {
            self.input_len
        }
        fn action_space(&self) -> usize {
            self.actions
        }
        fn evaluate_batch(&self, _inputs: &[&[f32]], out: &mut [EvalOutput]) {
            for o in out {
                o.priors = vec![0.05 / (self.actions as f32 - 1.0); self.actions];
                o.priors[self.hot] = 0.95;
                o.value = self.value;
            }
        }
    }

    fn uniform() -> Arc<UniformEvaluator> {
        Arc::new(UniformEvaluator::for_game(&TicTacToe::new()))
    }

    #[test]
    fn identical_models_match_serial_search() {
        let cfg = MctsConfig {
            playouts: 100,
            ..Default::default()
        };
        let mut spec = SpeculativeSearch::new(cfg, uniform(), uniform(), 4);
        let mut serial = ReusableSearch::one_shot(cfg, uniform());
        let g = TicTacToe::new();
        let rs = SearchScheme::<TicTacToe>::search(&mut spec, &g);
        let rr = serial.search(&g);
        assert_eq!(rs.visits, rr.visits, "zero-delta corrections are inert");
        assert!(spec.corrections > 0);
        assert!(spec.correction_magnitude < 1e-6);
    }

    #[test]
    fn corrections_move_value_toward_main_model() {
        let cfg = MctsConfig {
            playouts: 50,
            ..Default::default()
        };
        // Spec model says 0.0 everywhere; main model says +0.8.
        let main = Arc::new(Biased {
            actions: 9,
            input_len: 36,
            hot: 4,
            value: 0.8,
        });
        let mut s = SpeculativeSearch::new(cfg, main, uniform(), 1);
        let r = SearchScheme::<TicTacToe>::search(&mut s, &TicTacToe::new());
        assert!(s.corrections >= 50 - 1, "every expansion corrected");
        assert!(s.correction_magnitude > 0.0);
        // Root value reflects the main model's optimism (sign-flipped
        // perspectives alternate, so just check it moved off zero).
        assert!(
            r.value.abs() > 0.05,
            "value {} should be displaced",
            r.value
        );
    }

    #[test]
    fn batched_commit_defers_but_flushes() {
        let cfg = MctsConfig {
            playouts: 10,
            ..Default::default()
        };
        let mut s = SpeculativeSearch::new(cfg, uniform(), uniform(), 64);
        let _ = SearchScheme::<TicTacToe>::search(&mut s, &TicTacToe::new());
        // Batch (64) exceeds playouts (10): all corrections land in the
        // final flush.
        assert!(s.corrections >= 9, "flush must commit stragglers");
    }

    #[test]
    fn playout_budget_respected() {
        let cfg = MctsConfig {
            playouts: 77,
            ..Default::default()
        };
        let mut s = SpeculativeSearch::new(cfg, uniform(), uniform(), 8);
        let r = SearchScheme::<TicTacToe>::search(&mut s, &TicTacToe::new());
        assert_eq!(r.stats.playouts, 77);
    }

    #[test]
    #[should_panic(expected = "commit batch")]
    fn zero_commit_batch_rejected() {
        let cfg = MctsConfig::default();
        let _ = SpeculativeSearch::new(cfg, uniform(), uniform(), 0);
    }

    #[test]
    fn finds_immediate_win_despite_bad_speculation() {
        // Spec model is uniform (uninformative); main model should still
        // steer the search to the winning move via corrections.
        let mut g = TicTacToe::new();
        for a in [0u16, 3, 1, 4] {
            g.apply(a);
        }
        let cfg = MctsConfig {
            playouts: 400,
            ..Default::default()
        };
        let mut s = SpeculativeSearch::new(cfg, uniform(), uniform(), 4);
        let r = SearchScheme::<TicTacToe>::search(&mut s, &g);
        assert_eq!(r.best_action(), 2, "visits {:?}", r.visits);
    }
}
