//! Multi-session serving demo: one [`serve::SearchService`] absorbing a
//! burst of mixed-game requests (Gomoku, Othello, Connect-4) with
//! different budgets and priorities, all multiplexed over a fixed
//! worker pool and sharing inference batches where they share a model.
//!
//! Run: `cargo run --release --example serve_demo`

use games::{connect4::Connect4, gomoku::Gomoku, othello::Othello, Game};
use mcts::{BatchEvaluator, Budget, MctsConfig, NnEvaluator, UniformEvaluator};
use nn::{NetConfig, PolicyValueNet};
use serve::{
    Priority, SearchRequest, SearchService, SearchTicket, ServeConfig, TicketStatus, WaitOutcome,
};
use std::sync::Arc;
use std::time::Duration;

fn cfg(playouts: usize) -> MctsConfig {
    MctsConfig {
        playouts,
        arena_budget_bytes: Some(8 << 20), // bounded per-session tree memory
        ..Default::default()
    }
}

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(2)
        .max(2);
    // Batching is not configured: each backend's tuner measures its
    // forward-time curve when the backend registers and picks the
    // coalescing window and target batch from it.
    let service = SearchService::new(ServeConfig {
        workers,
        step_quota: 32,
        max_pooled: 2 * workers,
        ..Default::default()
    });
    println!("service up: {workers} workers, 32-playout slices, auto-tuned batching\n");

    // One *shared* network evaluator for all Gomoku sessions — their
    // leaf evaluations coalesce into common batches — plus cheap
    // uniform evaluators for the other games.
    let gomoku_net = Arc::new(PolicyValueNet::new(NetConfig::for_board(4, 9, 9, 81), 2));
    let gomoku_eval: Arc<dyn BatchEvaluator> =
        Arc::new(NnEvaluator::with_batch_hint(gomoku_net, workers));
    let othello_eval: Arc<dyn BatchEvaluator> =
        Arc::new(UniformEvaluator::for_game(&Othello::new(8)));
    let c4_eval: Arc<dyn BatchEvaluator> = Arc::new(UniformEvaluator::for_game(&Connect4::new()));

    let mut gomoku_root = Gomoku::new(9, 5);
    for a in [40u16, 41, 31] {
        gomoku_root.apply(a);
    }

    // The burst: mixed games, budgets and priorities, submitted at once.
    let mut tickets: Vec<(String, SearchTicket)> = Vec::new();
    for i in 0..4 {
        tickets.push((
            format!("gomoku/nn #{i} (256 playouts, normal)"),
            service.submit(
                SearchRequest::new(gomoku_root.clone(), Arc::clone(&gomoku_eval))
                    .config(cfg(256))
                    .priority(Priority::Normal),
            ),
        ));
    }
    tickets.push((
        "othello #0 (512 playouts, low)".into(),
        service.submit(
            SearchRequest::new(Othello::new(8), Arc::clone(&othello_eval))
                .config(cfg(512))
                .priority(Priority::Low),
        ),
    ));
    tickets.push((
        "connect4 #0 (high priority)".into(),
        service.submit(
            SearchRequest::new(Connect4::new(), Arc::clone(&c4_eval))
                .config(cfg(400))
                .priority(Priority::High),
        ),
    ));
    tickets.push((
        "connect4 #1 (20 ms deadline)".into(),
        service.submit(
            SearchRequest::new(Connect4::new(), Arc::clone(&c4_eval))
                .config(cfg(5_000_000))
                .budget(Budget::time(Duration::from_millis(20))),
        ),
    ));

    // An anytime peek while the burst is in flight: a timed-out wait
    // still hands back the newest snapshot (with its sequence number),
    // never an empty error.
    if let Some((name, t)) = tickets.first() {
        match t.wait_timeout(Duration::from_millis(10)) {
            WaitOutcome::TimedOut(p) if p.stats.seq > 0 => println!(
                "anytime peek at {name}: snapshot #{}, {} playouts so far, best action {}\n",
                p.stats.seq,
                p.stats.playouts,
                p.best_action()
            ),
            WaitOutcome::TimedOut(_) => println!("anytime peek at {name}: no slice finished yet\n"),
            WaitOutcome::Finished(r, _) => println!(
                "{name} already finished: {} playouts, best action {}\n",
                r.stats.playouts,
                r.best_action()
            ),
        }
    }

    println!(
        "{:<38} {:>9} {:>10} {:>10}",
        "request", "status", "playouts", "latency"
    );
    for (name, t) in &tickets {
        let r = t.wait();
        let status = match t.status() {
            TicketStatus::Done => "done",
            TicketStatus::Cancelled => "cancelled",
            TicketStatus::Failed(_) => "failed",
            TicketStatus::Running => "running",
        };
        println!(
            "{name:<38} {status:>9} {:>10} {:>8.1}ms",
            r.stats.playouts,
            t.latency().unwrap_or_default().as_secs_f64() * 1e3,
        );
    }

    let st = service.stats();
    println!(
        "\nservice totals: {} sessions done, {} slices, {} playouts",
        st.sessions_completed, st.steps, st.playouts
    );
    println!(
        "cross-session batch fill: {} eval rounds, {} samples, mean batch {:.2}",
        st.eval_batches,
        st.eval_samples,
        st.mean_eval_batch()
    );

    // What the batch auto-tuner learned about each batching backend:
    // the measured forward-time curve and the operating point it chose.
    for r in service.autotune_reports() {
        // Batch 1 / window 0: a batch costs as much as its samples one by
        // one here, so every worker runs its own evaluations.
        let how = if r.batch == 1 {
            "singles side by side"
        } else {
            "shared rounds"
        };
        println!(
            "\nauto-tuner (calibrated: {}): chose batch {} / window {} µs — {how} (~{:.0} positions/s)",
            r.calibrated, r.batch, r.window_us, r.positions_per_sec
        );
        println!("  measured forward-time curve:");
        for (batch, ns) in &r.curve {
            println!(
                "    batch {batch:>3}: {:>8.1} µs/forward  ({:>7.0} positions/s)",
                *ns as f64 / 1e3,
                *batch as f64 / (*ns as f64 / 1e9)
            );
        }
    }
}
