//! The local-tree parallel scheme (§3.1.2, Algorithm 3).
//!
//! A single **master thread** (the caller of [`LocalTreeSearch::search`])
//! owns the complete tree in its local memory and executes *all* in-tree
//! operations — Node Selection, Expansion and BackUp — with no locks.
//! Evaluation flows through an [`EvalClient`]: the master submits each
//! selected leaf as a ticket and opportunistically drains completions
//! (expansion + backup) while more leaves stay in flight.
//!
//! Two backends realize Algorithm 3's FIFO pipes:
//!
//! * **CPU** ([`LocalTreeSearch::new`]) — `N` inference worker threads
//!   serve batches assembled by the client (batch size follows the
//!   evaluator's [`crate::BatchEvaluator::preferred_batch`] hint);
//! * **accelerator** ([`LocalTreeSearch::with_device`]) — tickets feed
//!   the device queue *directly* through its async submit/poll
//!   interface; no per-leaf threads exist at all, and the device's own
//!   streams assemble the hardware batches (§3.3).
//!
//! The master runs the `rollout_n_times` loop: select a leaf, ship its
//! encoding, drain whatever finished. When the in-flight budget is
//! exhausted — or selection lands on a leaf whose evaluation is still
//! pending — the master blocks on the next completion (Algorithm 3,
//! lines 12–13).

use crate::budget::{Budget, RootSlot, StepOutcome};
use crate::client::EvalClient;
use crate::config::MctsConfig;
use crate::evaluator::BatchEvaluator;
use crate::playout::Run;
use crate::result::{SearchResult, SearchScheme};
use crate::tree::{SelectOutcome, Tree};
use accel::Device;
use games::Game;
use std::sync::Arc;
use std::time::Instant;

/// Master-thread local-tree search over an [`EvalClient`].
///
/// Unlike the serial-family schemes, leaves may stay **in flight across
/// step boundaries** — the pipeline keeps filling device/worker batches
/// while the session is parked — so [`LocalTreeSearch::in_flight`] can
/// be non-zero between steps; `cancel` drains and applies those
/// completions before tearing the run down.
pub struct LocalTreeSearch {
    cfg: MctsConfig,
    client: EvalClient,
    encode_buf: Vec<f32>,
    root: RootSlot,
    run: Option<(Tree, Run)>,
    /// The previous run's tree, handed back at `cancel`: the next run
    /// resets it and searches on the same arena memory.
    spare: Option<Tree>,
    /// Leaves issued (selected) so far this run, completed or in flight.
    issued: u64,
}

impl LocalTreeSearch {
    /// CPU configuration: `cfg.workers` inference threads (paper's `N`;
    /// the master is the `N+1`-th thread).
    pub fn new(cfg: MctsConfig, evaluator: Arc<dyn BatchEvaluator>) -> Self {
        cfg.validate();
        Self::with_client(cfg, EvalClient::threaded(evaluator, cfg.workers))
    }

    /// Accelerator configuration: leaves go straight into `device`'s
    /// request queue; completions are polled, never blocked on
    /// per-request. In-flight budget is `max(workers, device batch)` so
    /// the device can always fill a batch.
    pub fn with_device(cfg: MctsConfig, device: Arc<Device>) -> Self {
        cfg.validate();
        let cap = cfg.workers.max(device.batch_size());
        Self::with_client(cfg, EvalClient::for_device(device, cap))
    }

    /// Build over an explicit client (`cfg` validated by the caller).
    fn with_client(cfg: MctsConfig, client: EvalClient) -> Self {
        LocalTreeSearch {
            cfg,
            client,
            encode_buf: Vec::new(),
            root: RootSlot::new(),
            run: None,
            spare: None,
            issued: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MctsConfig {
        &self.cfg
    }

    /// Leaves currently in flight through the evaluation pipe (may be
    /// non-zero between `step` calls — the pipeline spans steps).
    pub fn in_flight(&self) -> usize {
        self.client.in_flight()
    }
}

/// Expansion/backup of one completed evaluation (the tag carries the
/// leaf id back).
fn apply(tree: &mut Tree, run: &mut Run, done: crate::client::Completion) {
    let t = Instant::now();
    tree.expand_and_backup(
        done.ticket.tag as u32,
        &done.output.priors,
        done.output.value,
    );
    run.stats.backup_ns += t.elapsed().as_nanos() as u64;
    run.gate.done += 1;
    run.stats.playouts += 1;
}

/// Gather completions (blocking) and apply them until nothing is in
/// flight, so every virtual loss is released.
fn drain(client: &mut EvalClient, tree: &mut Tree, run: &mut Run) {
    while client.in_flight() > 0 {
        apply(tree, run, client.gather());
    }
}

impl<G: Game> SearchScheme<G> for LocalTreeSearch {
    fn begin(&mut self, root: &G, budget: Budget) {
        SearchScheme::<G>::cancel(self);
        debug_assert_eq!(self.client.in_flight(), 0);
        self.client.reset_eval_ns();
        self.root.store(root);
        self.encode_buf.resize(root.encoded_len(), 0.0);
        self.issued = 0;
        self.run = Some(Run::fresh(self.spare.take(), &self.cfg, &budget, root));
    }

    fn step(&mut self, quota: usize) -> StepOutcome {
        let Some((tree, run)) = &mut self.run else {
            return StepOutcome::Done;
        };
        let step_start = Instant::now();
        let client = &mut self.client;
        let cap = client.capacity();
        let target = run.gate.target();
        let until = run.gate.done.saturating_add(quota as u64).min(target);

        while run.gate.done < until && !run.gate.out_of_time() {
            if self.issued < target {
                let mut game = self.root.get::<G>().clone();
                let t0 = Instant::now();
                let (leaf, outcome) = tree.select(&mut game);
                run.stats.select_ns += t0.elapsed().as_nanos() as u64;
                match outcome {
                    SelectOutcome::TerminalBackedUp => {
                        self.issued += 1;
                        run.gate.done += 1;
                        run.stats.playouts += 1;
                    }
                    SelectOutcome::NeedsEval => {
                        game.encode(&mut self.encode_buf);
                        // Ticket into the FIFO pipe; the tag carries the
                        // leaf id back with the completion.
                        client.submit(leaf as u64, &self.encode_buf);
                        self.issued += 1;
                    }
                    SelectOutcome::Busy => {
                        // Selection hit an in-flight leaf; wait for one
                        // result so the tree gains information, then retry.
                        run.stats.collisions += 1;
                        assert!(client.in_flight() > 0, "busy leaf with nothing in flight");
                        apply(tree, run, client.gather());
                    }
                }
            }
            // Algorithm 3 lines 12-13: block while the pipe is saturated.
            while client.in_flight() >= cap || (self.issued >= target && client.in_flight() > 0) {
                apply(tree, run, client.gather());
            }
            // Opportunistic non-blocking drain keeps the tree fresh.
            while let Some(done) = client.try_gather() {
                apply(tree, run, done);
            }
        }
        // Finished (budget or deadline): drain the pipe so the run ends
        // with every virtual loss released. At a quota boundary leaves
        // stay in flight instead, so the pipeline keeps its depth while
        // the session is parked.
        let outcome = run.end_step(tree, step_start, |tree, run| drain(client, tree, run));
        run.stats.eval_ns = client.eval_ns();
        outcome
    }

    fn partial_result(&self) -> SearchResult {
        Run::snapshot(self.run.as_ref().map(|(tree, run)| (tree, run)))
    }

    fn cancel(&mut self) {
        if let Some((mut tree, mut run)) = self.run.take() {
            // Drain and apply everything in flight: completions release
            // their virtual loss, so the tree is consistent when the next
            // run resets it (and the walk in `finish` can prove it).
            drain(&mut self.client, &mut tree, &mut run);
            run.finish(&tree);
            self.spare = Some(tree);
        }
    }

    fn name(&self) -> &'static str {
        "local-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{DelayedEvaluator, UniformEvaluator};
    use games::tictactoe::TicTacToe;
    use games::Game;
    use std::time::Duration;

    fn cfg(playouts: usize, workers: usize) -> MctsConfig {
        MctsConfig {
            playouts,
            workers,
            ..Default::default()
        }
    }

    #[test]
    fn completes_exact_playout_budget() {
        let mut s = LocalTreeSearch::new(
            cfg(200, 4),
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let r = s.search(&TicTacToe::new());
        assert_eq!(r.stats.playouts, 200);
        assert_eq!(r.visits.iter().sum::<u32>(), 199);
    }

    #[test]
    fn finds_immediate_win_with_parallel_workers() {
        let mut g = TicTacToe::new();
        for a in [0u16, 3, 1, 4] {
            g.apply(a);
        }
        let mut s = LocalTreeSearch::new(
            cfg(400, 8),
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let r = s.search(&g);
        assert_eq!(r.best_action(), 2, "visits {:?}", r.visits);
    }

    #[test]
    fn single_worker_matches_serial_statistics_shape() {
        // With 1 worker the local scheme is nearly serial; the visit
        // distribution must still be a proper distribution.
        let mut s = LocalTreeSearch::new(
            cfg(100, 1),
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let r = s.search(&TicTacToe::new());
        assert_eq!(r.stats.playouts, 100);
        assert!((r.probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn eval_delay_is_overlapped_across_workers() {
        // 32 playouts × 5 ms serial eval = 160 ms; with 8 workers the
        // evals overlap, so the move must take well under the serial time.
        let eval = DelayedEvaluator::new(
            UniformEvaluator::for_game(&TicTacToe::new()),
            Duration::from_millis(5),
        );
        let mut s = LocalTreeSearch::new(cfg(32, 8), Arc::new(eval));
        let t0 = Instant::now();
        let r = s.search(&TicTacToe::new());
        let elapsed = t0.elapsed();
        assert_eq!(r.stats.playouts, 32);
        assert!(
            elapsed < Duration::from_millis(120),
            "no overlap: {elapsed:?}"
        );
    }

    #[test]
    fn terminal_root_returns_empty() {
        let mut g = TicTacToe::new();
        for a in [0u16, 3, 1, 4, 2] {
            g.apply(a);
        }
        assert!(g.status().is_terminal());
        let mut s = LocalTreeSearch::new(
            cfg(10, 2),
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let r = s.search(&g);
        assert_eq!(r.visits.iter().sum::<u32>(), 0);
    }

    #[test]
    fn stats_record_eval_time() {
        let eval = DelayedEvaluator::new(
            UniformEvaluator::for_game(&TicTacToe::new()),
            Duration::from_micros(500),
        );
        let mut s = LocalTreeSearch::new(cfg(20, 2), Arc::new(eval));
        let r = s.search(&TicTacToe::new());
        assert!(r.stats.eval_ns > 0);
        assert!(r.stats.move_ns > 0);
    }

    #[test]
    fn many_workers_small_budget() {
        // More workers than playouts must not deadlock or overrun.
        let mut s = LocalTreeSearch::new(
            cfg(5, 16),
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let r = s.search(&TicTacToe::new());
        assert_eq!(r.stats.playouts, 5);
    }

    #[test]
    fn reusable_across_moves() {
        let mut s = LocalTreeSearch::new(
            cfg(60, 4),
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let mut g = TicTacToe::new();
        for _ in 0..3 {
            let r = s.search(&g);
            g.apply(r.best_action());
        }
        assert_eq!(g.move_count(), 3);
    }

    #[test]
    fn kept_tree_is_sound_between_runs() {
        let g = TicTacToe::new();
        let mut s = LocalTreeSearch::new(cfg(120, 3), Arc::new(UniformEvaluator::for_game(&g)));
        for _ in 0..3 {
            let r = s.search(&g);
            assert_eq!(r.stats.playouts, 120);
            assert_eq!(r.stats.reclaimed, 0, "a search that only grew");
            // `cancel` drained the pipe and handed the tree back.
            let kept = s.spare.as_ref().expect("the run's tree is kept");
            kept.check_invariants();
            assert_eq!(kept.n(kept.root()), 120);
        }
    }

    #[test]
    fn device_backend_drives_search_without_worker_threads() {
        use accel::{Device, DeviceConfig};
        use nn::{NetConfig, PolicyValueNet};
        let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 6));
        let dev = Arc::new(Device::new(net, DeviceConfig::instant(4)));
        let mut s = LocalTreeSearch::with_device(cfg(120, 4), Arc::clone(&dev));
        let r = s.search(&TicTacToe::new());
        assert_eq!(r.stats.playouts, 120);
        let stats = dev.stats();
        assert!(stats.samples >= 100);
        assert!(stats.max_batch >= 2, "device batching never engaged");
    }
}
