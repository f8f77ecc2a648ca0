//! End-to-end training-pipeline integration: data collection, SGD, loss
//! trends, checkpointing, and parallel-scheme interchangeability inside
//! the pipeline (Algorithm 1 with both branches of the `flag_local`
//! dispatch).

use adaptive_dnn_mcts::prelude::*;
use nn::serialize::{load_params, save_params};

fn base_config(scheme: Scheme, workers: usize) -> PipelineConfig {
    PipelineConfig {
        episodes: 4,
        sgd_iters: 8,
        batch_size: 24,
        lr: 3e-3,
        momentum: 0.9,
        weight_decay: 1e-4,
        replay_capacity: 2048,
        temperature_moves: 4,
        max_moves: 20,
        scheme,
        mcts: MctsConfig {
            playouts: 40,
            workers,
            ..Default::default()
        },
        seed: 3,
        lr_schedule: None,
        overlapped_training: false,
        augment_symmetries: false,
    }
}

#[test]
fn pipeline_trains_with_every_tree_parallel_scheme() {
    for (scheme, workers) in [
        (Scheme::Serial, 1usize),
        (Scheme::LocalTree, 2),
        (Scheme::SharedTree, 2),
    ] {
        let net = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 21);
        let mut p = Pipeline::new(TicTacToe::new(), net, base_config(scheme, workers));
        let report = p.run();
        assert!(report.samples >= 20, "{scheme}: samples {}", report.samples);
        assert!(
            !report.loss_curve.is_empty(),
            "{scheme}: no SGD updates happened"
        );
        assert!(report.samples_per_sec > 0.0);
        assert!(report.final_loss.unwrap().is_finite());
    }
}

#[test]
fn loss_trends_down_with_more_training() {
    let net = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 22);
    let mut cfg = base_config(Scheme::Serial, 1);
    cfg.episodes = 10;
    cfg.sgd_iters = 15;
    let mut p = Pipeline::new(TicTacToe::new(), net, cfg);
    let report = p.run();
    let curve = &report.loss_curve;
    assert!(curve.len() >= 40);
    let head: f32 = curve[..8].iter().map(|p| p.total).sum::<f32>() / 8.0;
    let tail: f32 = curve[curve.len() - 8..]
        .iter()
        .map(|p| p.total)
        .sum::<f32>()
        / 8.0;
    assert!(tail < head, "loss did not fall: {head:.4} -> {tail:.4}");
}

#[test]
fn trained_network_checkpoint_roundtrips_through_pipeline() {
    let net = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 23);
    let mut p = Pipeline::new(TicTacToe::new(), net, base_config(Scheme::Serial, 1));
    p.run();
    // Snapshot the trained weights, load into a fresh net, compare.
    let bytes = save_params(p.net());
    let mut restored = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 999);
    load_params(&mut restored, &bytes).expect("load trained checkpoint");
    let x = tensor::Tensor::full(&[1, 4, 3, 3], 0.4);
    assert_eq!(
        p.net().forward_train(&x).policy_logits.data(),
        restored.forward_train(&x).policy_logits.data(),
        "restored network diverges from trained one"
    );
}

#[test]
fn replay_labels_are_consistent_with_outcomes() {
    let net = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 24);
    let mut p = Pipeline::new(TicTacToe::new(), net, base_config(Scheme::Serial, 1));
    p.run();
    for i in 0..p.replay().len() {
        let s = p.replay().get(i);
        assert!((-1.0..=1.0).contains(&s.z));
        let pi_sum: f32 = s.pi.iter().sum();
        assert!((pi_sum - 1.0).abs() < 1e-3 || pi_sum == 0.0);
        assert_eq!(s.state.len(), 36);
    }
}

#[test]
fn training_improves_play_against_uniform_evaluator() {
    // A modestly-trained net should beat (or at least not lose to) a
    // uniform-prior searcher of the same playout budget more often than
    // it loses, on TicTacToe with greedy play. This is a weak but real
    // signal that the full loop learns.
    use rand::SeedableRng;
    use std::sync::Arc;

    let net = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 25);
    let mut cfg = base_config(Scheme::Serial, 1);
    cfg.episodes = 12;
    cfg.sgd_iters = 20;
    cfg.mcts.playouts = 64;
    let mut p = Pipeline::new(TicTacToe::new(), net, cfg);
    p.run();
    let trained = Arc::new(p.net().clone());

    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut trained_score = 0i32;
    for round in 0..6 {
        let trained_plays_black = round % 2 == 0;
        let mut g = TicTacToe::new();
        let scfg = MctsConfig {
            playouts: 32,
            workers: 1,
            ..Default::default()
        };
        let mut a = Scheme::Serial
            .build::<TicTacToe>(scfg, Arc::new(NnEvaluator::new(Arc::clone(&trained))));
        let mut b =
            Scheme::Serial.build::<TicTacToe>(scfg, Arc::new(UniformEvaluator::for_game(&g)));
        while g.status() == Status::Ongoing {
            let trained_turn = (g.to_move() == Player::Black) == trained_plays_black;
            let r = if trained_turn {
                a.search(&g)
            } else {
                b.search(&g)
            };
            let action = r.sample_action(0.3, &mut rng);
            g.apply(action);
        }
        let trained_player = if trained_plays_black {
            Player::Black
        } else {
            Player::White
        };
        trained_score += g.status().reward_for(trained_player) as i32;
    }
    assert!(
        trained_score >= -2,
        "trained net lost badly to uniform search: score {trained_score}"
    );
}
