//! Cross-scheme integration tests: every parallel scheme must implement
//! the *same search algorithm* — differing in execution, not in outcome
//! quality. (§5.5 argues parallelism changes sample order but not the
//! converged behaviour.)

use adaptive_dnn_mcts::prelude::*;
use std::sync::Arc;

fn forced_win_position() -> TicTacToe {
    // X: 0,1 — O: 3,4. X to move; 2 wins immediately.
    let mut g = TicTacToe::new();
    for a in [0u16, 3, 1, 4] {
        g.apply(a);
    }
    g
}

fn cfg(playouts: usize, workers: usize) -> MctsConfig {
    MctsConfig {
        playouts,
        workers,
        ..Default::default()
    }
}

#[test]
fn all_schemes_find_the_forced_win() {
    let g = forced_win_position();
    for scheme in Scheme::ALL {
        for workers in [1usize, 2, 4] {
            if scheme == Scheme::Serial && workers > 1 {
                continue;
            }
            let eval = Arc::new(UniformEvaluator::for_game(&g));
            let mut s = scheme.build::<TicTacToe>(cfg(400, workers), eval);
            let r = s.search(&g);
            assert_eq!(
                r.best_action(),
                2,
                "{scheme} with {workers} workers missed the win: {:?}",
                r.visits
            );
        }
    }
}

#[test]
fn parallel_visit_distributions_close_to_serial() {
    // With many playouts, the root visit distributions of the parallel
    // schemes must be statistically close to the serial reference (the
    // obsolete-information effect perturbs but does not distort search).
    let g = TicTacToe::new();
    let playouts = 1200;
    let eval = Arc::new(UniformEvaluator::for_game(&g));
    let mut serial = Scheme::Serial.build::<TicTacToe>(
        cfg(playouts, 1),
        Arc::clone(&eval) as Arc<dyn BatchEvaluator>,
    );
    let reference = serial.search(&g);

    for scheme in [Scheme::SharedTree, Scheme::LocalTree] {
        let mut s = scheme.build::<TicTacToe>(
            cfg(playouts, 4),
            Arc::clone(&eval) as Arc<dyn BatchEvaluator>,
        );
        let r = s.search(&g);
        // Total-variation distance between root distributions.
        let tv: f32 = reference
            .probs
            .iter()
            .zip(&r.probs)
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / 2.0;
        assert!(
            tv < 0.25,
            "{scheme}: TV distance to serial too large: {tv:.3}\nserial {:?}\n{scheme} {:?}",
            reference.probs,
            r.probs
        );
    }
}

#[test]
fn playout_budgets_exact_across_schemes() {
    let g = TicTacToe::new();
    for scheme in [Scheme::Serial, Scheme::SharedTree, Scheme::LocalTree] {
        let eval = Arc::new(UniformEvaluator::for_game(&g));
        let mut s = scheme.build::<TicTacToe>(cfg(333, 3), eval);
        let r = s.search(&g);
        assert_eq!(r.stats.playouts, 333, "{scheme}");
        assert_eq!(r.visits.iter().sum::<u32>(), 332, "{scheme}");
    }
}

#[test]
fn schemes_complete_full_games_without_deadlock() {
    for scheme in [Scheme::SharedTree, Scheme::LocalTree] {
        let eval = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
        let mut s = scheme.build::<TicTacToe>(cfg(60, 4), eval);
        let mut g = TicTacToe::new();
        let mut moves = 0;
        while g.status() == Status::Ongoing {
            let r = s.search(&g);
            let a = r.best_action();
            assert!(g.is_legal(a), "{scheme} proposed illegal move");
            g.apply(a);
            moves += 1;
            assert!(moves <= 9);
        }
    }
}

#[test]
fn connect4_works_across_schemes() {
    // Second game type exercises different fanout/terminal structure.
    let g = Connect4::new();
    for scheme in [Scheme::Serial, Scheme::SharedTree, Scheme::LocalTree] {
        let eval = Arc::new(UniformEvaluator::for_game(&g));
        let mut s = scheme.build::<Connect4>(cfg(200, 2), eval);
        let r = s.search(&g);
        assert_eq!(r.stats.playouts, 200, "{scheme}");
        // Center column is provably best in Connect-Four; with uniform
        // priors and only 200 playouts just check the move is legal and
        // the distribution is sane.
        assert!((r.probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(g.is_legal(r.best_action()));
    }
}

#[test]
fn neural_evaluator_consistency_between_serial_and_leaf_parallel() {
    // Leaf-parallel with a deterministic DNN is exactly serial search.
    let g = TicTacToe::new();
    let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 77));
    let mut serial = Scheme::Serial
        .build::<TicTacToe>(cfg(150, 1), Arc::new(NnEvaluator::new(Arc::clone(&net))));
    let mut leaf =
        Scheme::LeafParallel.build::<TicTacToe>(cfg(150, 3), Arc::new(NnEvaluator::new(net)));
    let rs = serial.search(&g);
    let rl = leaf.search(&g);
    assert_eq!(rs.visits, rl.visits);
}

#[test]
fn hex_works_across_schemes() {
    // Hex: Black has a near-complete top-bottom chain; all schemes must
    // find the completing move.
    let mut g = Hex::new(3);
    for a in [0u16, 2, 6, 5] {
        g.apply(a); // Black at (0,0),(2,0); White at (0,2),(1,2)
    }
    for scheme in [Scheme::Serial, Scheme::SharedTree, Scheme::LocalTree] {
        let eval = Arc::new(UniformEvaluator::for_game(&g));
        let mut s = scheme.build::<Hex>(cfg(300, 2), eval);
        let r = s.search(&g);
        assert_eq!(r.best_action(), 3, "{scheme}: visits {:?}", r.visits);
    }
}
