//! Tree reuse across moves: compare a fresh-tree searcher against one that
//! re-roots **in place** at the played child, on the same Gomoku game,
//! and report the arena accounting (`Tree::stats`): nodes inherited per
//! move, nodes reclaimed onto the free-list, and the memory high-water
//! mark the whole game ran under.
//!
//! Run: `cargo run --release --example tree_reuse`

use adaptive_dnn_mcts::prelude::*;
use mcts::reuse::ReusableSearch;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let initial = Gomoku::new(9, 5);
    let net = Arc::new(PolicyValueNet::new(NetConfig::for_board(4, 9, 9, 81), 3));
    let cfg = MctsConfig {
        playouts: 200,
        ..Default::default()
    };

    // Fresh tree every move (the paper's Algorithm 2 baseline).
    let mut fresh = ReusableSearch::one_shot(cfg, Arc::new(NnEvaluator::new(Arc::clone(&net))));
    // Re-rooted tree (production AlphaZero behavior).
    let mut warm = ReusableSearch::new(cfg, Arc::new(NnEvaluator::new(net)));

    let moves = 6;
    println!("playing {moves} self-play moves with each searcher:\n");

    let mut game = initial.clone();
    let t0 = Instant::now();
    for _ in 0..moves {
        let r = fresh.search(&game);
        game.apply(r.best_action());
    }
    let fresh_time = t0.elapsed();

    let mut game = initial.clone();
    let t0 = Instant::now();
    let mut inherited = Vec::new();
    let mut reclaimed = Vec::new();
    for _ in 0..moves {
        let r = warm.search(&game);
        inherited.push(warm.inherited_nodes);
        reclaimed.push(r.stats.reclaimed);
        let a = r.best_action();
        warm.advance(a);
        game.apply(a);
    }
    let warm_time = t0.elapsed();
    let stats = warm.tree_stats().expect("searched at least once");

    println!("fresh tree : {fresh_time:?} total");
    println!("reused tree: {warm_time:?} total");
    println!("nodes inherited per move : {inherited:?}");
    println!("nodes reclaimed per move : {reclaimed:?}");
    println!(
        "arena after {moves} moves    : {} live / {} free / {} high-water \
         ({} reclaimed in total, {} evicted)",
        stats.live, stats.free, stats.high_water, stats.reclaimed_total, stats.evicted
    );
    println!(
        "\nwith in-place reuse, every move after the first starts with a warm\n\
         subtree, the discarded siblings are recycled through the arena\n\
         free-list (zero allocation in steady state), and the whole game\n\
         searches inside one arena whose high-water mark stays near a\n\
         single move's tree."
    );
}
