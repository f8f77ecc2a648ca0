//! Leaf-parallel MCTS baseline (§2.2, Cazenave & Jouandeau).
//!
//! A single tree and a single selection path; at each selected leaf, all
//! `N` workers evaluate *the same leaf* in parallel and the results are
//! averaged. In classic MCTS those are `N` independent random rollouts;
//! in DNN-MCTS the evaluator is deterministic, so the replicas add no
//! information — which is precisely the paper's critique ("wastes
//! parallelism due to the lack of diverse evaluation coverage"). The
//! scheme is implemented faithfully so benchmarks can demonstrate that
//! tradeoff.
//!
//! Under the batch-first API, a natively batching evaluator runs the
//! `N` replicas as one [`BatchEvaluator::evaluate_batch`] call with `N`
//! identical rows — the wasted work plainly visible as a batch full of
//! copies. Single-sample evaluators (`preferred_batch() == 1`) keep the
//! classic shape instead: `N` concurrent evaluations on a worker pool,
//! so the scheme's wall-clock profile as a baseline stays faithful.

use crate::budget::{Budget, RootSlot, StepOutcome};
use crate::config::MctsConfig;
use crate::evaluator::{BatchEvaluator, EvalOutput};
use crate::playout::Run;
use crate::pool::WorkerPool;
use crate::result::{SearchResult, SearchScheme};
use crate::tree::Tree;
use crossbeam::channel::unbounded;
use games::Game;
use std::sync::Arc;

/// Same-leaf replicated evaluation parallelism.
pub struct LeafParallelSearch {
    cfg: MctsConfig,
    evaluator: Arc<dyn BatchEvaluator>,
    /// Replica threads for single-sample evaluators; `None` when the
    /// evaluator batches natively (one call carries all replicas).
    pool: Option<WorkerPool>,
    encode_buf: Vec<f32>,
    replicas: Vec<EvalOutput>,
    root: RootSlot,
    run: Option<(Tree, Run)>,
    /// The previous run's tree, handed back at `cancel`: the next run
    /// resets it and searches on the same arena memory.
    spare: Option<Tree>,
}

impl LeafParallelSearch {
    /// Create a leaf-parallel searcher replicating each evaluation
    /// `cfg.workers` times.
    pub fn new(cfg: MctsConfig, evaluator: Arc<dyn BatchEvaluator>) -> Self {
        cfg.validate();
        let pool = if evaluator.preferred_batch() == 1 && cfg.workers > 1 {
            Some(WorkerPool::new(cfg.workers))
        } else {
            None
        };
        LeafParallelSearch {
            cfg,
            evaluator,
            pool,
            encode_buf: Vec::new(),
            replicas: vec![EvalOutput::default(); cfg.workers],
            root: RootSlot::new(),
            run: None,
            spare: None,
        }
    }
}

/// Evaluate the same encoded state once per slot of `replicas`.
fn replicate(
    pool: Option<&WorkerPool>,
    evaluator: &Arc<dyn BatchEvaluator>,
    encoded: &[f32],
    replicas: &mut [EvalOutput],
) {
    match pool {
        // Natively-batching backend: one call, one fused batch.
        None => {
            let inputs: Vec<&[f32]> = (0..replicas.len()).map(|_| encoded).collect();
            evaluator.evaluate_batch(&inputs, replicas);
        }
        // Single-sample backend: N concurrent evaluations, the
        // classic Cazenave & Jouandeau shape.
        Some(pool) => {
            let (tx, rx) = unbounded();
            for _ in 0..replicas.len() {
                let input = encoded.to_vec();
                let eval = Arc::clone(evaluator);
                let tx = tx.clone();
                pool.submit(move || {
                    let _ = tx.send(eval.evaluate_one(&input));
                });
            }
            drop(tx);
            for r in replicas.iter_mut() {
                *r = rx.recv().expect("replica worker alive");
            }
        }
    }
}

impl<G: Game> SearchScheme<G> for LeafParallelSearch {
    fn begin(&mut self, root: &G, budget: Budget) {
        SearchScheme::<G>::cancel(self);
        self.root.store(root);
        self.run = Some(Run::fresh(self.spare.take(), &self.cfg, &budget, root));
    }

    fn step(&mut self, quota: usize) -> StepOutcome {
        let Some((tree, run)) = &mut self.run else {
            return StepOutcome::Done;
        };
        let (pool, evaluator) = (self.pool.as_ref(), &self.evaluator);
        let (encode_buf, replicas) = (&mut self.encode_buf, &mut self.replicas);
        run.step(tree, self.root.get::<G>(), quota, |leaf| {
            // Fan the SAME state out to all N replica slots.
            let value = leaf.evaluate(|_, game| {
                encode_buf.resize(game.encoded_len(), 0.0);
                game.encode(encode_buf);
                replicate(pool, evaluator, encode_buf, replicas);
                let sum: f64 = replicas.iter().map(|o| o.value as f64).sum();
                (sum / replicas.len() as f64) as f32
            });
            leaf.backup(|tree, id| tree.expand_and_backup(id, &replicas[0].priors, value));
        })
    }

    fn partial_result(&self) -> SearchResult {
        Run::snapshot(self.run.as_ref().map(|(tree, run)| (tree, run)))
    }

    fn cancel(&mut self) {
        if let Some((tree, run)) = self.run.take() {
            run.finish(&tree);
            self.spare = Some(tree);
        }
    }

    fn name(&self) -> &'static str {
        "leaf-parallel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::UniformEvaluator;
    use crate::reuse::ReusableSearch;
    use games::tictactoe::TicTacToe;
    use games::Game;
    use std::time::Instant;

    fn cfg(playouts: usize, workers: usize) -> MctsConfig {
        MctsConfig {
            playouts,
            workers,
            ..Default::default()
        }
    }

    #[test]
    fn playout_budget_counts_unique_leaves() {
        let mut s = LeafParallelSearch::new(
            cfg(50, 4),
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let r = s.search(&TicTacToe::new());
        assert_eq!(r.stats.playouts, 50);
        assert_eq!(r.visits.iter().sum::<u32>(), 49);
    }

    #[test]
    fn identical_to_serial_with_deterministic_evaluator() {
        // With a deterministic DNN, averaging N replicas changes nothing:
        // leaf-parallel must produce exactly the serial visit counts.
        let g = TicTacToe::new();
        let eval = Arc::new(UniformEvaluator::for_game(&g));
        let mut leaf = LeafParallelSearch::new(cfg(80, 4), Arc::clone(&eval) as Arc<_>);
        let mut serial = ReusableSearch::one_shot(cfg(80, 1), eval);
        let rl = SearchScheme::<TicTacToe>::search(&mut leaf, &g);
        let rs = SearchScheme::<TicTacToe>::search(&mut serial, &g);
        assert_eq!(rl.visits, rs.visits, "wasted parallelism: same search");
    }

    #[test]
    fn replicas_form_one_network_batch() {
        use crate::evaluator::NnEvaluator;
        use nn::{NetConfig, PolicyValueNet};
        let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 8));
        let eval = Arc::new(NnEvaluator::new(net));
        let probe = Arc::clone(&eval);
        let mut s = LeafParallelSearch::new(cfg(30, 4), eval);
        let r = SearchScheme::<TicTacToe>::search(&mut s, &TicTacToe::new());
        assert_eq!(r.stats.playouts, 30);
        // One forward pass per *leaf*, not per replica.
        assert!(
            probe.forward_calls() <= 30,
            "replicas must share a batch: {} forwards",
            probe.forward_calls()
        );
    }

    #[test]
    fn single_sample_replicas_run_concurrently() {
        use crate::evaluator::DelayedEvaluator;
        use std::time::Duration;
        // 10 playouts × 4 replicas × 5 ms each = 200 ms if sequential;
        // the worker pool must overlap the replicas (~50 ms + slack).
        let eval = DelayedEvaluator::new(
            UniformEvaluator::for_game(&TicTacToe::new()),
            Duration::from_millis(5),
        );
        let mut s = LeafParallelSearch::new(cfg(10, 4), Arc::new(eval));
        let t0 = Instant::now();
        let r = SearchScheme::<TicTacToe>::search(&mut s, &TicTacToe::new());
        assert_eq!(r.stats.playouts, 10);
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "replicas ran sequentially: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn finds_immediate_win() {
        let mut g = TicTacToe::new();
        for a in [0u16, 3, 1, 4] {
            g.apply(a);
        }
        let mut s = LeafParallelSearch::new(
            cfg(300, 2),
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let r = s.search(&g);
        assert_eq!(r.best_action(), 2);
    }

    #[test]
    fn terminal_root_returns_empty() {
        let mut g = TicTacToe::new();
        for a in [0u16, 3, 1, 4, 2] {
            g.apply(a);
        }
        let mut s = LeafParallelSearch::new(
            cfg(10, 2),
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let r = s.search(&g);
        assert_eq!(r.visits.iter().sum::<u32>(), 0);
    }
}
