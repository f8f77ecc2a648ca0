//! Backend lifecycle through the public surface: what a finished
//! session leaves behind, and when a model nobody uses is let go.

use games::tictactoe::TicTacToe;
use mcts::{BatchEvaluator, EvalOutput, MctsConfig, UniformEvaluator};
use serve::{AdmissionConfig, ClusterConfig, SearchRequest, ServeCluster, ServeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn request(eval: &Arc<dyn BatchEvaluator>, playouts: usize) -> SearchRequest<TicTacToe> {
    SearchRequest::new(TicTacToe::new(), Arc::clone(eval)).config(MctsConfig {
        playouts,
        ..Default::default()
    })
}

fn model() -> Arc<dyn BatchEvaluator> {
    Arc::new(UniformEvaluator::for_game(&TicTacToe::new()))
}

/// A burst warms four pooled searchers on model A; once A's sessions
/// are over and the caller has dropped it, nothing in the cluster may
/// keep A alive — not the warm pool (whose LIFO order would otherwise
/// leave three of the four untouched forever), not the backend registry,
/// not the admission table.
#[test]
fn a_finished_model_is_released_by_pool_registry_and_admission() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 1,
        shard: ServeConfig {
            workers: 2,
            step_quota: 16,
            max_pooled: 8,
            eval_cache_bytes: Some(1 << 20),
            ..Default::default()
        },
        admission: Some(AdmissionConfig::default()),
    });
    let a = model();
    let a_alive = Arc::downgrade(&a);
    // Four submits back to back: each finds the pool empty (sessions
    // this long cannot finish in between) and warms its own searcher.
    let burst: Vec<_> = (0..4)
        .map(|_| cluster.submit(request(&a, 4000)).expect("within limits"))
        .collect();
    for t in &burst {
        assert_eq!(t.wait().stats.playouts, 4000);
    }
    drop(burst);
    drop(a);
    // One at a time, each on a model of its own: every submit is a
    // registry lookup (which evicts what is orphaned by then), and each
    // session takes the pool's top searcher. `wait` can return a moment
    // before the worker lets go of the finished session, so how many
    // rounds it takes is not fixed — but it must not take forever.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let fresh = model();
        let t = cluster.submit(request(&fresh, 500)).expect("within limits");
        assert_eq!(t.wait().stats.playouts, 500);
        let (refs, records, buckets) = (
            a_alive.strong_count(),
            cluster.tracked_backends(),
            cluster.tracked_models(),
        );
        if refs == 0 && records <= 2 && buckets <= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "model A is still referenced {refs} times; the registry keeps \
             {records} records, admission {buckets} models"
        );
    }
}

/// A uniform model that asks for batches, so its sessions go through a
/// coalescing layer and show up in `eval_batches`/`eval_samples`.
struct Batchy(UniformEvaluator);

impl BatchEvaluator for Batchy {
    fn input_len(&self) -> usize {
        self.0.input_len()
    }
    fn action_space(&self) -> usize {
        self.0.action_space()
    }
    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        self.0.evaluate_batch(inputs, out)
    }
    fn preferred_batch(&self) -> usize {
        8
    }
}

/// Evicting a model takes its cache memory but none of its history:
/// the cluster's counters include what the dead model did.
#[test]
fn cluster_totals_never_decrease_across_an_eviction() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 1,
        shard: ServeConfig {
            workers: 2,
            eval_cache_bytes: Some(1 << 20),
            ..Default::default()
        },
        admission: None,
    });
    let a: Arc<dyn BatchEvaluator> =
        Arc::new(Batchy(UniformEvaluator::for_game(&TicTacToe::new())));
    for _ in 0..2 {
        // The second run replays the first from the cache.
        cluster.submit(request(&a, 300)).unwrap().wait();
    }
    let before = cluster.stats().total();
    assert!(before.eval_batches > 0 && before.eval_samples > 0);
    assert!(before.cache_hits > 0 && before.cache_misses > 0);
    drop(a);
    // A submit evicts what is orphaned by then; `wait` can return a
    // moment before the worker lets go of A's last session.
    let b = model();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        cluster.submit(request(&b, 2)).unwrap().wait();
        if cluster.tracked_backends() == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "model A was never evicted");
    }
    let after = cluster.stats().total();
    assert!(after.eval_batches >= before.eval_batches);
    assert!(after.eval_samples >= before.eval_samples);
    assert!(after.cache_hits >= before.cache_hits);
    assert!(after.cache_misses >= before.cache_misses);
    assert!(
        after.cache_bytes < before.cache_bytes,
        "the dead model's cache is freed: {} -> {}",
        before.cache_bytes,
        after.cache_bytes
    );
}
