//! Othello: pit a network-guided agent against a uniform-prior agent and
//! report the match score as an Elo difference.
//!
//! Demonstrates three extension features together: the Othello environment
//! (pass actions, stone flips), the residual-tower network served through
//! the simulated accelerator, and the arena's Elo utilities.
//!
//! Run: `cargo run --release --example othello_match`

use adaptive_dnn_mcts::prelude::*;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let game = Othello::new(6); // 6×6 board keeps the demo fast
    let (c, h, w) = game.encoded_shape();

    // Agent A: residual tower (random weights — in a real setting these
    // come from training) evaluated through the batching accelerator,
    // which serves a tower the same way as the paper's net.
    let resnet = Arc::new(ResNetPolicyValueNet::new(
        ResNetConfig {
            in_c: c,
            h,
            w,
            actions: game.action_space(),
            filters: 16,
            blocks: 2,
            value_hidden: 16,
        },
        7,
    ));
    let device = Arc::new(Device::new(resnet, DeviceConfig::instant(4)));
    let cfg = MctsConfig {
        playouts: 96,
        ..Default::default()
    };
    let mut agent_a = mcts::ReusableSearch::one_shot(cfg, Arc::new(AccelEvaluator::new(device)));

    // Agent B: uniform priors (pure-MCTS strength floor).
    let mut agent_b =
        mcts::ReusableSearch::one_shot(cfg, Arc::new(UniformEvaluator::for_game(&game)));

    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    println!("playing 6 Othello games (6x6), alternating colors...");
    let result = play_match(&game, &mut agent_a, &mut agent_b, 6, 0.6, 4, 80, &mut rng);

    println!(
        "network agent: {} wins / {} losses / {} draws  (score {:.2})",
        result.wins_a,
        result.wins_b,
        result.draws,
        result.score_a()
    );
    println!("implied Elo difference: {:+.0}", elo_diff(result.score_a()));

    // League bookkeeping across checkpoints works the same way:
    let mut league = EloTracker::new(2, 32.0);
    league.record(0, 1, result.score_a());
    println!(
        "league ratings after one match: A {:.0}, B {:.0}",
        league.rating(0),
        league.rating(1)
    );
}
