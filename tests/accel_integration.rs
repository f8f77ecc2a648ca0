//! Accelerator-offloaded inference (§3.3) integrated with the search
//! schemes: batching must change *when* evaluations happen, never *what*
//! they compute, and must never deadlock the search.

use adaptive_dnn_mcts::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn tiny_net() -> Arc<PolicyValueNet> {
    Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 13))
}

fn device(net: &Arc<PolicyValueNet>, batch: usize) -> Arc<Device> {
    Arc::new(Device::new(Arc::clone(net), DeviceConfig::instant(batch)))
}

#[test]
fn batched_evaluator_matches_cpu_evaluator_outputs() {
    let net = tiny_net();
    let cpu = NnEvaluator::new(Arc::clone(&net));
    let acc = AccelEvaluator::new(device(&net, 4));
    let mut g = TicTacToe::new();
    g.apply(4);
    let mut buf = vec![0.0f32; g.encoded_len()];
    g.encode(&mut buf);
    let oc = cpu.evaluate_one(&buf);
    let (pa, va) = acc.evaluate(&buf);
    for (a, b) in pa.iter().zip(&oc.priors) {
        assert!((a - b).abs() < 1e-5, "priors diverge: {a} vs {b}");
    }
    assert!((va - oc.value).abs() < 1e-5);
}

#[test]
fn local_tree_with_batched_device_completes() {
    // The paper's CPU-GPU local-tree configuration: master + worker pool,
    // inference flowing through the batching queue.
    let net = tiny_net();
    for batch in [1usize, 2, 4] {
        let eval = Arc::new(AccelEvaluator::new(device(&net, batch)));
        let cfg = MctsConfig {
            playouts: 120,
            workers: 4,
            ..Default::default()
        };
        let mut s = Scheme::LocalTree.build::<TicTacToe>(cfg, eval);
        let r = s.search(&TicTacToe::new());
        assert_eq!(r.stats.playouts, 120, "batch={batch}");
    }
}

#[test]
fn shared_tree_with_batched_device_completes() {
    // Shared tree: each worker blocks inside the device queue; the flush
    // timeout guarantees progress even when fewer than `batch` requests
    // are outstanding.
    let net = tiny_net();
    let eval = Arc::new(AccelEvaluator::new(device(&net, 8)));
    let cfg = MctsConfig {
        playouts: 100,
        workers: 4,
        ..Default::default()
    };
    let mut s = Scheme::SharedTree.build::<TicTacToe>(cfg, eval);
    let r = s.search(&TicTacToe::new());
    assert_eq!(r.stats.playouts, 100);
}

#[test]
fn oversized_batch_threshold_cannot_deadlock() {
    // Threshold far above what the search can ever enqueue at once.
    let net = tiny_net();
    let dev = Arc::new(Device::new(
        Arc::clone(&net),
        DeviceConfig {
            batch_size: 64,
            flush_timeout: Duration::from_micros(300),
            latency: LatencyModel::zero(),
            inject_transfer_latency: false,
            streams: 1,
        },
    ));
    let eval = Arc::new(AccelEvaluator::new(dev));
    let cfg = MctsConfig {
        playouts: 50,
        workers: 2,
        ..Default::default()
    };
    let mut s = Scheme::LocalTree.build::<TicTacToe>(cfg, eval);
    let r = s.search(&TicTacToe::new());
    assert_eq!(r.stats.playouts, 50);
}

#[test]
fn device_actually_batches_under_parallel_search() {
    let net = tiny_net();
    let dev = device(&net, 4);
    let eval = Arc::new(AccelEvaluator::new(Arc::clone(&dev)));
    let cfg = MctsConfig {
        playouts: 200,
        workers: 4,
        ..Default::default()
    };
    let mut s = Scheme::LocalTree.build::<TicTacToe>(cfg, eval);
    let _ = s.search(&TicTacToe::new());
    let stats = dev.stats();
    assert!(stats.samples >= 100, "samples {}", stats.samples);
    assert!(
        stats.batches < stats.samples,
        "expected some batching: {} batches / {} samples",
        stats.batches,
        stats.samples
    );
    assert!(stats.max_batch >= 2);
}

#[test]
fn search_results_with_device_match_cpu_path() {
    // Same network, same (deterministic) local-tree search with one
    // worker: CPU evaluator and batch-1 device evaluator must agree.
    let net = tiny_net();
    let cfg = MctsConfig {
        playouts: 100,
        workers: 1,
        ..Default::default()
    };
    let mut cpu_search =
        Scheme::LocalTree.build::<TicTacToe>(cfg, Arc::new(NnEvaluator::new(Arc::clone(&net))));
    let mut dev_search =
        Scheme::LocalTree.build::<TicTacToe>(cfg, Arc::new(AccelEvaluator::new(device(&net, 1))));
    let g = TicTacToe::new();
    let rc = cpu_search.search(&g);
    let rd = dev_search.search(&g);
    assert_eq!(rc.visits, rd.visits, "device path altered the search");
}
