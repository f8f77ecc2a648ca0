//! Root-parallel MCTS baseline (§2.2, Kato & Takeuchi).
//!
//! Each of the `N` workers builds its own *private* tree from the root
//! with `playouts / N` rollouts; the root statistics are aggregated at the
//! end. No synchronization during search — but workers revisit the same
//! states (the paper's stated drawback), so search quality per playout is
//! lower than tree-parallel schemes.

use crate::budget::{Budget, RootSlot, RunGate, StepOutcome};
use crate::config::MctsConfig;
use crate::evaluator::BatchEvaluator;
use crate::playout::{KeyedHook, Run};
use crate::result::{SearchResult, SearchScheme};
use crate::tree::Tree;
use games::Game;
use std::sync::Arc;
use std::time::Instant;

/// One worker's private tree, its share of the run budget and its
/// serial leaf hook.
struct WorkerSlot {
    tree: Tree,
    run: Run,
    hook: KeyedHook,
}

/// Independent-trees root parallelization.
pub struct RootParallelSearch {
    cfg: MctsConfig,
    evaluator: Arc<dyn BatchEvaluator>,
    root: RootSlot,
    /// The active run: one slot per worker plus the gate over their sum.
    run: Option<(Vec<WorkerSlot>, RunGate)>,
    /// The previous run's trees, handed back at `cancel`: the next run
    /// resets them and searches on the same arena memory.
    spares: Vec<Tree>,
}

impl RootParallelSearch {
    /// Create a root-parallel searcher with `cfg.workers` private trees.
    pub fn new(cfg: MctsConfig, evaluator: Arc<dyn BatchEvaluator>) -> Self {
        cfg.validate();
        RootParallelSearch {
            cfg,
            evaluator,
            root: RootSlot::new(),
            run: None,
            spares: Vec::new(),
        }
    }
}

impl<G: Game> SearchScheme<G> for RootParallelSearch {
    fn begin(&mut self, root: &G, budget: Budget) {
        SearchScheme::<G>::cancel(self);
        let run_cfg = budget.apply_to(&self.cfg);
        let mut gate = RunGate::new(&self.cfg, &budget, root.status().is_terminal());
        let n = self.cfg.workers;
        // Same split as one-shot root parallelization always used: every
        // worker gets at least one playout, the remainder spreads over
        // the first workers, and the effective run target is the sum.
        let requested = gate.target() as usize;
        let per_worker = (requested / n).max(usize::from(requested > 0));
        let remainder = requested.saturating_sub(per_worker * n);
        let slots: Vec<WorkerSlot> = (0..n)
            .map(|i| {
                let (tree, run) = Run::on_bare_root(
                    self.spares.pop(),
                    run_cfg,
                    Run::new(
                        gate.share((per_worker + usize::from(i < remainder)) as u64),
                        root.action_space(),
                    ),
                );
                WorkerSlot {
                    tree,
                    run,
                    hook: KeyedHook::default(),
                }
            })
            .collect();
        gate.set_target(slots.iter().map(|s| s.run.gate.target()).sum());
        self.root.store(root);
        self.run = Some((slots, gate));
    }

    fn step(&mut self, quota: usize) -> StepOutcome {
        let Some((slots, gate)) = &mut self.run else {
            return StepOutcome::Done;
        };
        let step_start = Instant::now();
        if !gate.exhausted() {
            // Spread the quota over the slots that still owe playouts
            // (fair share each; the remainder goes to the first ones),
            // so progress is guaranteed even for tiny quotas.
            let unfinished = slots.iter().filter(|s| s.run.gate.remaining() > 0).count();
            let per = quota / unfinished.max(1);
            let rem = quota % unfinished.max(1);
            let root = self.root.get::<G>();
            let evaluator = self.evaluator.as_ref();
            // Scoped threads, not a persistent pool: each worker needs
            // `&mut` into its slot across the slice, which a `'static`
            // pool closure cannot borrow. The spawn/join cost is µs per
            // slice against ms of playouts; root parallelization is a
            // baseline, not the serving hot path.
            std::thread::scope(|s| {
                let mut i = 0usize;
                for slot in slots.iter_mut() {
                    if slot.run.gate.remaining() == 0 {
                        continue;
                    }
                    let grant = per + usize::from(i < rem);
                    i += 1;
                    if grant == 0 {
                        continue;
                    }
                    // Serial playouts on the private tree; the slot's
                    // gate stops them at its target or the deadline.
                    s.spawn(move || {
                        let WorkerSlot { tree, run, hook } = slot;
                        run.playouts(tree, root, grant, Instant::now(), |leaf| {
                            hook.leaf(evaluator, leaf)
                        });
                    });
                }
            });
            gate.done = slots.iter().map(|s| s.run.gate.done).sum();
        }
        gate.note_step(step_start);
        if gate.exhausted() {
            for slot in slots.iter() {
                slot.run.finish(&slot.tree);
            }
            StepOutcome::Done
        } else {
            StepOutcome::Running
        }
    }

    fn partial_result(&self) -> SearchResult {
        let Some((slots, gate)) = &self.run else {
            return SearchResult::default();
        };
        // Aggregate root statistics across the private trees.
        let mut total = SearchResult::default();
        let mut part = SearchResult::default();
        let mut value_acc = 0.0f64;
        for slot in slots {
            slot.run.snapshot_into(&slot.tree, &mut part);
            total.visits.resize(part.visits.len(), 0);
            for (tot, &v) in total.visits.iter_mut().zip(&part.visits) {
                *tot += v;
            }
            value_acc += part.value as f64;
            let (acc, s) = (&mut total.stats, &part.stats);
            acc.playouts += s.playouts;
            acc.select_ns += s.select_ns;
            acc.backup_ns += s.backup_ns;
            acc.eval_ns += s.eval_ns;
            acc.nodes += s.nodes;
            acc.reclaimed += s.reclaimed;
            acc.tt_hits += s.tt_hits;
        }
        let sum: u32 = total.visits.iter().sum();
        total.probs = total
            .visits
            .iter()
            .map(|&v| if sum == 0 { 0.0 } else { v as f32 / sum as f32 })
            .collect();
        total.value = (value_acc / slots.len().max(1) as f64) as f32;
        total.stats.move_ns = gate.active_ns;
        total.stats.seq = gate.seq();
        total
    }

    fn cancel(&mut self) {
        if let Some((slots, _)) = self.run.take() {
            for slot in slots {
                slot.run.finish(&slot.tree);
                self.spares.push(slot.tree);
            }
        }
    }

    fn name(&self) -> &'static str {
        "root-parallel"
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

    #[test]
    fn total_playouts_preserved() {
        let mut s = RootParallelSearch::new(
            cfg(100, 3),
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let r = s.search(&TicTacToe::new());
        assert_eq!(r.stats.playouts, 100);
    }

    #[test]
    fn finds_immediate_win() {
        let mut g = TicTacToe::new();
        for a in [0u16, 3, 1, 4] {
            g.apply(a);
        }
        let mut s = RootParallelSearch::new(
            cfg(400, 4),
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let r = s.search(&g);
        assert_eq!(r.best_action(), 2);
    }

    #[test]
    fn aggregated_visits_sum_correctly() {
        let mut s = RootParallelSearch::new(
            cfg(120, 4),
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let r = s.search(&TicTacToe::new());
        // Each of the 4 workers runs 30 playouts → 29 root-child visits.
        assert_eq!(r.visits.iter().sum::<u32>(), 4 * 29);
    }

    #[test]
    fn more_workers_than_playouts() {
        let mut s = RootParallelSearch::new(
            cfg(2, 8),
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let r = s.search(&TicTacToe::new());
        assert!(r.stats.playouts >= 2);
    }

    #[test]
    fn terminal_root_returns_empty() {
        let mut g = TicTacToe::new();
        for a in [0u16, 3, 1, 4, 2] {
            g.apply(a);
        }
        let mut s = RootParallelSearch::new(
            cfg(10, 2),
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let r = s.search(&g);
        assert_eq!(r.visits.iter().sum::<u32>(), 0);
    }
}
