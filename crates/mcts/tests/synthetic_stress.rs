//! Stress tests on synthetic game trees with controlled geometry: wide
//! fanouts (Gomoku-like 225), deep narrow trees, and degenerate shapes,
//! across all parallel schemes.

use games::synthetic::SyntheticGame;
use mcts::{MctsConfig, Scheme, UniformEvaluator};
use std::sync::Arc;

fn search_synthetic(
    scheme: Scheme,
    fanout: usize,
    depth: usize,
    playouts: usize,
    workers: usize,
) -> mcts::SearchResult {
    let game = SyntheticGame::new(fanout, depth, 77);
    let eval = Arc::new(UniformEvaluator::for_game(&game));
    let cfg = MctsConfig {
        playouts,
        workers,
        ..Default::default()
    };
    let mut s = scheme.build::<SyntheticGame>(cfg, eval);
    s.search(&game)
}

#[test]
fn wide_fanout_gomoku_like_geometry() {
    // Fanout 225 (the paper's Gomoku board) with a short horizon.
    for scheme in [Scheme::Serial, Scheme::SharedTree, Scheme::LocalTree] {
        let r = search_synthetic(scheme, 225, 4, 300, 4);
        assert_eq!(r.stats.playouts, 300, "{scheme}");
        assert_eq!(r.visits.iter().sum::<u32>(), 299, "{scheme}");
        assert!(r.stats.nodes > 225, "{scheme} expanded too little");
    }
}

#[test]
fn deep_narrow_tree() {
    // Fanout 2, depth 40: exercises long selection paths and deep backups.
    for scheme in [Scheme::Serial, Scheme::SharedTree, Scheme::LocalTree] {
        let r = search_synthetic(scheme, 2, 40, 400, 4);
        assert_eq!(r.stats.playouts, 400, "{scheme}");
        assert!((r.probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }
}

#[test]
fn single_action_chain_is_degenerate_but_sound() {
    // Fanout 1: the tree is a path; every playout extends or re-walks it.
    for scheme in [Scheme::Serial, Scheme::LocalTree] {
        let r = search_synthetic(scheme, 1, 10, 50, 2);
        assert_eq!(r.stats.playouts, 50, "{scheme}");
        assert_eq!(r.probs[0], 1.0, "{scheme}: all mass on the only action");
    }
}

#[test]
fn terminal_heavy_tree_backs_up_real_outcomes() {
    // Depth 1: every child of the root is terminal; value estimates must
    // come from true game outcomes, not the evaluator.
    let r = search_synthetic(Scheme::Serial, 8, 1, 200, 1);
    assert_eq!(r.stats.playouts, 200);
    // Root value must be within the outcome range and the visits must
    // concentrate on win-for-mover children if any exist.
    assert!(r.value.abs() <= 1.0);
}

#[test]
fn playouts_exceeding_tree_size_saturate_gracefully() {
    // A tiny tree (fanout 2, depth 2 → 7 states) searched with far more
    // playouts than states: terminals are revisited, never re-expanded.
    let r = search_synthetic(Scheme::SharedTree, 2, 2, 500, 4);
    assert_eq!(r.stats.playouts, 500);
    assert!(
        r.stats.nodes <= 1 + 2 + 4 + 2,
        "tree should saturate at ~7 nodes, got {}",
        r.stats.nodes
    );
}

#[test]
fn collision_rate_stays_bounded_under_contention() {
    // Many workers on a tiny tree maximizes collisions; the search must
    // still finish and the collision counter must stay sane.
    let r = search_synthetic(Scheme::SharedTree, 3, 2, 300, 8);
    assert_eq!(r.stats.playouts, 300);
    assert!(
        r.stats.collisions < 300 * 50,
        "collision storm: {}",
        r.stats.collisions
    );
}

#[test]
fn byte_bound_is_honored() {
    // Give plenty of room: search must stay within the configured arena.
    let game = SyntheticGame::new(4, 6, 3);
    let eval = Arc::new(UniformEvaluator::for_game(&game));
    let cfg = MctsConfig {
        playouts: 100,
        workers: 2,
        arena_budget_bytes: Some((100 * 5 + 16) * mcts::NodeArena::slot_bytes()),
        ..Default::default()
    };
    let mut s = Scheme::SharedTree.build::<SyntheticGame>(cfg, eval);
    let r = s.search(&game);
    assert!(r.stats.nodes as usize <= 100 * 5 + 16);
}
