//! Cross-crate integration tests for the extension features: Othello with
//! pass actions flowing through every search scheme, the residual tower
//! served by the accelerator device, tree reuse over a full game,
//! speculative search with a real network, and symmetry-augmented
//! training on a square board.

use adaptive_dnn_mcts::prelude::*;
use mcts::reuse::ReusableSearch;
use mcts::speculative::SpeculativeSearch;
use std::sync::Arc;

// ---------------- Othello through the search schemes ----------------

#[test]
fn every_scheme_searches_othello() {
    let game = Othello::new(4);
    for scheme in [Scheme::Serial, Scheme::SharedTree, Scheme::LocalTree] {
        let cfg = MctsConfig {
            playouts: 48,
            workers: 2,
            ..Default::default()
        };
        let eval = Arc::new(UniformEvaluator::for_game(&game));
        let mut search = scheme.build::<Othello>(cfg, eval);
        let r = search.search(&game);
        assert_eq!(r.stats.playouts, 48, "{scheme}: playout budget");
        let best = r.best_action();
        assert!(game.is_legal(best), "{scheme}: best move must be legal");
    }
}

#[test]
fn othello_selfplay_episode_handles_passes() {
    use train::play_episode;
    let game = Othello::new(4);
    let cfg = MctsConfig {
        playouts: 32,
        ..Default::default()
    };
    let mut search = ReusableSearch::one_shot(cfg, Arc::new(UniformEvaluator::for_game(&game)));
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let out = play_episode(&game, &mut search, 2, 64, &mut rng);
    assert!(out.status.is_terminal(), "4x4 Othello must finish");
    assert_eq!(out.samples.len(), out.moves);
    // Every stored policy is a distribution over the 17-action space.
    for s in &out.samples {
        assert_eq!(s.pi.len(), 17);
        let sum: f32 = s.pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }
}

#[test]
fn othello_pipeline_with_augmentation_trains() {
    let game = Othello::new(4);
    let (c, h, w) = game.encoded_shape();
    let net = PolicyValueNet::new(NetConfig::tiny(c, h, w, game.action_space()), 31);
    let mut cfg = PipelineConfig::smoke(Scheme::Serial, 1);
    cfg.episodes = 1;
    cfg.augment_symmetries = true;
    cfg.max_moves = 40;
    let mut p = Pipeline::new(game, net, cfg);
    let report = p.run();
    assert!(report.samples > 0);
    assert_eq!(p.replay().total_pushed(), 8 * report.samples);
    assert!(!report.loss_curve.is_empty(), "training must run");
}

// ---------------- residual tower on the device ----------------

#[test]
fn resnet_device_drives_search() {
    let game = TicTacToe::new();
    let (c, h, w) = game.encoded_shape();
    let tower = Arc::new(ResNetPolicyValueNet::new(
        ResNetConfig::tiny(c, h, w, game.action_space()),
        13,
    ));
    let device = Arc::new(Device::new(tower, DeviceConfig::instant(2)));
    let cfg = MctsConfig {
        playouts: 64,
        workers: 2,
        ..Default::default()
    };
    let eval = Arc::new(AccelEvaluator::new(Arc::clone(&device)));
    let mut search = Scheme::LocalTree.build::<TicTacToe>(cfg, eval);
    let r = search.search(&game);
    assert_eq!(r.stats.playouts, 64);
    assert!(
        device.stats().samples > 0,
        "device actually served requests"
    );
}

// ---------------- tree reuse over a whole game ----------------

#[test]
fn reuse_plays_full_connect4_game() {
    let game = Connect4::new();
    let cfg = MctsConfig {
        playouts: 48,
        ..Default::default()
    };
    let mut s = ReusableSearch::new(cfg, Arc::new(UniformEvaluator::for_game(&game)));
    let mut g = game;
    let mut moves = 0;
    let mut warm_moves = 0;
    while g.status() == Status::Ongoing && moves < 42 {
        let r = s.search(&g);
        if s.inherited_nodes > 0 {
            warm_moves += 1;
        }
        let a = r.best_action();
        assert!(g.is_legal(a));
        s.advance(a);
        g.apply(a);
        moves += 1;
    }
    assert!(g.status().is_terminal() || moves == 42);
    assert!(warm_moves > 0, "reuse must kick in after the first move");
}

// ---------------- speculative search with a real network ----------------

#[test]
fn speculative_with_network_main_model_stays_consistent() {
    let game = TicTacToe::new();
    let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 17));
    let cfg = MctsConfig {
        playouts: 80,
        ..Default::default()
    };
    // Main = network, speculative = uniform: corrections are exercised
    // with real (nonzero) deltas.
    let main = Arc::new(NnEvaluator::new(Arc::clone(&net)));
    let spec = Arc::new(UniformEvaluator::for_game(&game));
    let mut s = SpeculativeSearch::new(cfg, main, spec, 4);
    let r = SearchScheme::<TicTacToe>::search(&mut s, &game);
    assert_eq!(r.stats.playouts, 80);
    assert!(s.corrections > 0);
    assert!(
        s.correction_magnitude > 0.0,
        "network disagrees with uniform"
    );
    let best = r.best_action();
    assert!(game.is_legal(best));
}

// ---------------- arena + Elo across search budgets ----------------

#[test]
fn deeper_search_earns_higher_elo() {
    let game = TicTacToe::new();
    let cfg_strong = MctsConfig {
        playouts: 128,
        ..Default::default()
    };
    let cfg_weak = MctsConfig {
        playouts: 2,
        ..Default::default()
    };
    let mut strong =
        ReusableSearch::one_shot(cfg_strong, Arc::new(UniformEvaluator::for_game(&game)));
    let mut weak = ReusableSearch::one_shot(cfg_weak, Arc::new(UniformEvaluator::for_game(&game)));
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let result = play_match(&game, &mut strong, &mut weak, 6, 0.5, 2, 20, &mut rng);

    let mut league = EloTracker::new(2, 32.0);
    league.record(0, 1, result.score_a());
    assert!(
        league.rating(0) >= league.rating(1),
        "128-playout search must not rate below 2-playout search: {result:?}"
    );
}

// ---------------- checkpointing the trained pipeline net ----------------

#[test]
fn pipeline_network_checkpoint_roundtrip() {
    let mut p = Pipeline::new(
        TicTacToe::new(),
        PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 23),
        PipelineConfig::smoke(Scheme::Serial, 1),
    );
    p.run();
    let bytes = nn::serialize::save_params(p.net());
    let mut restored = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 999);
    nn::serialize::load_params(&mut restored, &bytes).unwrap();
    let x = tensor::Tensor::ones(&[1, 4, 3, 3]);
    let (trained, restored) = (p.net().forward_train(&x), restored.forward_train(&x));
    assert_eq!(trained.policy_logits.data(), restored.policy_logits.data());
    assert_eq!(trained.values.data(), restored.values.data());
}
