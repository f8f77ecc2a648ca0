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
