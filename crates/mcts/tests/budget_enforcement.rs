//! The wall-clock budget is enforced consistently by **all six**
//! schemes: with a slow evaluator and a 1 ms budget, every scheme must
//! terminate promptly with far fewer playouts than requested. A deadline
//! reaches a search one way, a per-run `Budget::time` at `begin`, and a
//! duration no clock can reach means no deadline at all.

use games::tictactoe::TicTacToe;
use mcts::evaluator::DelayedEvaluator;
use mcts::{
    BatchEvaluator, Budget, NodeArena, Scheme, SearchBuilder, StepOutcome, UniformEvaluator,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HUGE: usize = 10_000_000;

fn slow_eval() -> Arc<dyn BatchEvaluator> {
    Arc::new(DelayedEvaluator::new(
        UniformEvaluator::for_game(&TicTacToe::new()),
        Duration::from_millis(2),
    ))
}

#[test]
fn per_run_time_budget_via_begin() {
    for scheme in Scheme::ALL {
        let mut s = SearchBuilder::new(scheme)
            .playouts(HUGE)
            .workers(2)
            .evaluator(slow_eval())
            .build::<TicTacToe>();
        let t0 = Instant::now();
        s.begin(&TicTacToe::new(), Budget::time(Duration::from_millis(1)));
        while s.step(usize::MAX) == StepOutcome::Running {}
        let r = s.partial_result();
        s.cancel();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "{scheme}: per-run deadline ignored"
        );
        assert!(r.stats.playouts < HUGE as u64 / 2, "{scheme}");
    }
}

#[test]
fn unreachable_deadline_is_no_deadline() {
    for scheme in Scheme::ALL {
        let mut s = SearchBuilder::new(scheme)
            .playouts(64)
            .workers(2)
            .evaluator(Arc::new(UniformEvaluator::for_game(&TicTacToe::new())))
            .build::<TicTacToe>();
        s.begin(&TicTacToe::new(), Budget::time(Duration::MAX));
        while s.step(usize::MAX) == StepOutcome::Running {}
        let r = s.partial_result();
        s.cancel();
        assert!(
            r.stats.playouts >= 64,
            "{scheme}: {} playouts",
            r.stats.playouts
        );
    }
}

#[test]
fn playout_budget_via_begin_caps_the_run() {
    for scheme in Scheme::ALL {
        let mut s = SearchBuilder::new(scheme)
            .playouts(10_000)
            .workers(2)
            .evaluator(Arc::new(UniformEvaluator::for_game(&TicTacToe::new())))
            .build::<TicTacToe>();
        s.begin(&TicTacToe::new(), Budget::playouts(64));
        while s.step(usize::MAX) == StepOutcome::Running {}
        let r = s.partial_result();
        s.cancel();
        assert!(
            (64..200).contains(&(r.stats.playouts as usize)),
            "{scheme}: {} playouts for a 64-playout budget",
            r.stats.playouts
        );
    }
}

#[test]
fn byte_budget_bounds_the_run_tree() {
    let mut s = SearchBuilder::new(Scheme::Serial)
        .playouts(500)
        .evaluator(Arc::new(UniformEvaluator::for_game(&TicTacToe::new())))
        .build::<TicTacToe>();
    s.begin(
        &TicTacToe::new(),
        Budget::playouts(500).with_max_bytes(200 * NodeArena::slot_bytes()),
    );
    while s.step(usize::MAX) == StepOutcome::Running {}
    let r = s.partial_result();
    s.cancel();
    assert!(r.stats.nodes <= 200, "run tree grew past the budget bound");
    assert_eq!(r.stats.playouts, 500);
}
