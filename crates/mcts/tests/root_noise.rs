//! Root Dirichlet noise integration: the self-play exploration mechanism
//! must perturb root priors without breaking search invariants, in both
//! tree representations.

use games::tictactoe::TicTacToe;
use games::Game;
use mcts::{MctsConfig, RootNoise, Scheme, UniformEvaluator};
use std::sync::Arc;

fn cfg(noise: Option<RootNoise>) -> MctsConfig {
    MctsConfig {
        playouts: 300,
        workers: 2,
        root_noise: noise,
        ..Default::default()
    }
}

#[test]
fn noise_changes_visit_distribution() {
    // Uniform evaluator ⇒ without noise the search is deterministic;
    // with noise the root priors (and hence visits) must differ.
    for scheme in [Scheme::Serial, Scheme::SharedTree, Scheme::LocalTree] {
        let eval = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
        let mut plain = scheme.build::<TicTacToe>(cfg(None), Arc::clone(&eval) as Arc<_>);
        let mut noisy = scheme.build::<TicTacToe>(cfg(Some(RootNoise::alphazero(42))), eval);
        let r_plain = plain.search(&TicTacToe::new());
        let r_noisy = noisy.search(&TicTacToe::new());
        assert_ne!(
            r_plain.visits, r_noisy.visits,
            "{scheme}: noise had no effect"
        );
        // Invariants must still hold.
        assert_eq!(r_noisy.stats.playouts, 300, "{scheme}");
        assert_eq!(r_noisy.visits.iter().sum::<u32>(), 299, "{scheme}");
        assert!((r_noisy.probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }
}

#[test]
fn noise_varies_across_moves() {
    // The per-tree nonce must give different noise draws on consecutive
    // moves even with a fixed config seed.
    let eval = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
    let mut s = Scheme::Serial.build::<TicTacToe>(cfg(Some(RootNoise::alphazero(7))), eval);
    let g = TicTacToe::new();
    let r1 = s.search(&g);
    let r2 = s.search(&g);
    assert_ne!(r1.visits, r2.visits, "same noise reused across moves");
}

#[test]
fn noisy_search_still_finds_forced_win() {
    // ε = 0.25 noise must not destroy tactics at this playout budget.
    let mut g = TicTacToe::new();
    for a in [0u16, 3, 1, 4] {
        g.apply(a);
    }
    let eval = Arc::new(UniformEvaluator::for_game(&g));
    let mut s = Scheme::SharedTree.build::<TicTacToe>(
        MctsConfig {
            playouts: 500,
            workers: 4,
            root_noise: Some(RootNoise::alphazero(1)),
            ..Default::default()
        },
        eval,
    );
    let r = s.search(&g);
    assert_eq!(r.best_action(), 2, "visits {:?}", r.visits);
}

#[test]
#[should_panic(expected = "epsilon")]
fn invalid_noise_rejected() {
    MctsConfig {
        root_noise: Some(RootNoise {
            alpha: 0.3,
            epsilon: 1.5,
            seed: 0,
        }),
        ..Default::default()
    }
    .validate();
}
