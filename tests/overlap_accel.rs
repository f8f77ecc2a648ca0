//! Integration of the overlapped trainer with the accelerator device —
//! the full CPU-GPU configuration of §5.4: search produces samples with
//! device-batched inference while the trainer consumes them on its own
//! thread.

use adaptive_dnn_mcts::prelude::*;
use std::sync::Arc;
use train::overlap::{run_overlapped, SnapshotEvaluatorFactory};

#[test]
fn overlapped_trainer_with_device_inference() {
    let game = TicTacToe::new();
    let net = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 61);
    let mut cfg = PipelineConfig::smoke(Scheme::LocalTree, 2);
    cfg.episodes = 2;
    cfg.mcts = MctsConfig {
        playouts: 24,
        workers: 2,
        ..Default::default()
    };

    // Each snapshot gets its own device, as a real system would re-upload
    // refreshed weights to the accelerator.
    let factory: SnapshotEvaluatorFactory = Box::new(|snap| {
        let device = Arc::new(Device::new(snap, DeviceConfig::instant(2)));
        Arc::new(AccelEvaluator::new(device))
    });

    let (trained, report) = run_overlapped(&game, net.clone(), cfg, Some(factory));
    assert!(report.samples >= 10, "two episodes of moves");
    assert!(report.sgd_steps > 0, "trainer consumed samples");
    assert!(report.final_loss.unwrap().is_finite());

    // The published snapshots must have diverged from the initial weights.
    let x = tensor::Tensor::ones(&[1, 4, 3, 3]);
    assert_ne!(
        net.forward_train(&x).policy_logits.data(),
        trained.forward_train(&x).policy_logits.data()
    );
}

#[test]
fn overlapped_loss_curve_is_monotone_in_time() {
    let net = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 62);
    let mut cfg = PipelineConfig::smoke(Scheme::Serial, 1);
    cfg.episodes = 3;
    let (_, report) = run_overlapped(&TicTacToe::new(), net, cfg, None);
    // Timestamps are recorded on the trainer thread and must be ordered.
    let curve = &report.loss_curve;
    assert!(curve.len() >= 2);
    for w in curve.windows(2) {
        assert!(w[1].t_sec >= w[0].t_sec, "loss points out of order");
    }
}

#[test]
fn staleness_accounting_is_bounded_by_episodes() {
    let net = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 63);
    let mut cfg = PipelineConfig::smoke(Scheme::Serial, 1);
    cfg.episodes = 5;
    let (_, report) = run_overlapped(&TicTacToe::new(), net, cfg, None);
    assert!(
        report.stale_searches <= 5,
        "stale count {} cannot exceed episodes",
        report.stale_searches
    );
}

#[test]
fn time_budgeted_search_inside_episode() {
    // A wall-clock move budget composes with the pipeline: episodes finish
    // and samples are produced even with a tiny budget.
    use mcts::ReusableSearch;
    use train::play_episode;
    let game = TicTacToe::new();
    let cfg = MctsConfig {
        playouts: 100_000, // absurd budget; the clock must cut it
        time_budget_ms: Some(5),
        ..Default::default()
    };
    let mut s = ReusableSearch::one_shot(cfg, Arc::new(UniformEvaluator::for_game(&game)));
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
    let t0 = std::time::Instant::now();
    let out = play_episode(&game, &mut s, 2, 20, &mut rng);
    assert!(out.status.is_terminal());
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(30),
        "budget must bound the episode"
    );
    // Each move ran at most 5 ms of playouts — far fewer than 100k.
    assert!(out.search_stats.playouts < 100_000 * out.moves as u64);
}
