//! A full Gomoku match between two DNN-MCTS agents using different
//! parallel schemes — demonstrating that the schemes are algorithmically
//! interchangeable (they differ in speed, not in the search they define).
//!
//! Run: `cargo run --release --example gomoku_match`

use adaptive_dnn_mcts::prelude::*;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let mut game = Gomoku::new(7, 4);
    let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 7, 7, 49), 31));
    let cfg = MctsConfig {
        playouts: 128,
        workers: 2,
        ..Default::default()
    };

    // Black: shared-tree agent.  White: local-tree agent.
    let mut black =
        Scheme::SharedTree.build::<Gomoku>(cfg, Arc::new(NnEvaluator::new(Arc::clone(&net))));
    let mut white = Scheme::LocalTree.build::<Gomoku>(cfg, Arc::new(NnEvaluator::new(net)));
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);

    println!("shared-tree (X) vs local-tree (O) on 7x7 Gomoku, 4 in a row\n");
    let mut ply = 0;
    while game.status() == Status::Ongoing {
        let result = match game.to_move() {
            Player::Black => black.search(&game),
            Player::White => white.search(&game),
        };
        // Mild exploration for the first few plies, then greedy.
        let action = result.sample_action(if ply < 4 { 0.8 } else { 0.0 }, &mut rng);
        let (r, c) = game.action_to_rc(action);
        println!(
            "ply {:>2}: {} plays ({r},{c})  [value {:+.2}, {} playouts]",
            ply + 1,
            if game.to_move() == Player::Black {
                "X"
            } else {
                "O"
            },
            result.value,
            result.stats.playouts
        );
        game.apply(action);
        ply += 1;
    }

    println!("\n{game:?}");
    match game.status() {
        Status::Won(Player::Black) => println!("shared-tree agent (X) wins"),
        Status::Won(Player::White) => println!("local-tree agent (O) wins"),
        Status::Draw => println!("draw"),
        Status::Ongoing => unreachable!(),
    }
}
