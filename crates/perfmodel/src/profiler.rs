//! Design-time profiling (§4.2): measure the model inputs on the target
//! host.
//!
//! * `T_select` / `T_backup` are measured on a **synthetic tree** with the
//!   target algorithm's fanout and depth limit — no board game or network
//!   needed, as the paper prescribes ("a synthetic tree constructed for
//!   one episode …, emulating the same fanout and depth"): a real serial
//!   search over [`SyntheticGame`] with uniform priors, timed by its own
//!   stage clocks, so the profile measures the selection code the schemes
//!   run rather than a model of it.
//! * `T^CPU_DNN` is measured by timing inference through a network with
//!   random parameters and correctly-shaped random inputs, on the forward
//!   the f32 evaluator serves (`predict_into` on one reused workspace).
//! * `T_shared tree access` is estimated with a dependent-load pointer
//!   chase over a buffer much larger than the last-level cache,
//!   approximating the documented DDR access latency.

use games::synthetic::SyntheticGame;
use mcts::{Scheme, SearchBuilder, UniformEvaluator};
use nn::PolicyValueNet;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use tensor::Workspace;

/// Profiled in-tree and inference costs (nanoseconds, amortized).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfiledCosts {
    /// Per-iteration Node Selection latency.
    pub t_select_ns: f64,
    /// Per-iteration Expansion+BackUp latency.
    pub t_backup_ns: f64,
    /// Shared-memory (DDR-class) dependent access latency.
    pub t_shared_access_ns: f64,
    /// Single-sample CPU inference latency.
    pub t_dnn_cpu_ns: f64,
}

/// Measure `T_select` and `T_backup` (ns per playout) with the real
/// search: one `iters`-playout one-shot serial search over the §4.2
/// synthetic tree — [`SyntheticGame`] with the target's fanout and depth
/// limit — read off the run's chained stage clocks
/// ([`SearchStats::select_ns`](mcts::SearchStats::select_ns) and
/// [`backup_ns`](mcts::SearchStats::backup_ns)). Selection runs through
/// the same dispatched PUCT kernel and arena every scheme uses; the
/// evaluator is uniform, so no inference cost leaks into either figure.
pub fn profile_in_tree(fanout: usize, depth: usize, iters: usize) -> (f64, f64) {
    assert!(iters > 0);
    let game = SyntheticGame::new(fanout, depth, 0xC0FFEE);
    let mut search = SearchBuilder::new(Scheme::Serial)
        .playouts(iters)
        .evaluator(Arc::new(UniformEvaluator::for_game(&game)))
        .build::<SyntheticGame>();
    let stats = search.search(&game).stats;
    let playouts = stats.playouts.max(1) as f64;
    (
        stats.select_ns as f64 / playouts,
        stats.backup_ns as f64 / playouts,
    )
}

/// Measure single-sample CPU inference latency of `net` (ns/inference),
/// using random inputs of the correct shape.
pub fn profile_dnn_cpu(net: &PolicyValueNet, iters: usize) -> f64 {
    time_predict(net, 1, iters, 7)
}

/// Measure batched CPU inference latency (ns per *batch* of size `b`).
pub fn profile_dnn_batch(net: &PolicyValueNet, b: usize, iters: usize) -> f64 {
    time_predict(net, b, iters, 8)
}

/// Mean ns per `predict_into` of a random `b`-sample batch on one reused
/// workspace, after one warm-up call — the forward an f32 `NnEvaluator`
/// serves.
fn time_predict(net: &PolicyValueNet, b: usize, iters: usize, seed: u64) -> f64 {
    assert!(b > 0 && iters > 0);
    let c = net.config;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let x = tensor::init::uniform(&mut rng, &[b, c.in_c, c.h, c.w], 0.0, 1.0);
    let mut ws = Workspace::new();
    let (mut policy, mut values) = (Vec::new(), Vec::new());
    net.predict_into(&x, &mut ws, &mut policy, &mut values);
    let t0 = Instant::now();
    for _ in 0..iters {
        net.predict_into(&x, &mut ws, &mut policy, &mut values);
        std::hint::black_box(&values);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Estimate the dependent shared-memory access latency with a pointer
/// chase over `buffer_mib` MiB (use > LLC size for DDR-class latency).
pub fn profile_memory_latency(buffer_mib: usize, hops: usize) -> f64 {
    assert!(buffer_mib > 0 && hops > 0);
    let len = buffer_mib * 1024 * 1024 / std::mem::size_of::<u32>();
    // Sattolo's algorithm: a single random cycle through the buffer, so
    // every load depends on the previous one.
    let mut next: Vec<u32> = (0..len as u32).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    for i in (1..len).rev() {
        let j = rng.gen_range(0..i);
        next.swap(i, j);
    }
    let mut idx = 0u32;
    // Warm-up partial chase.
    for _ in 0..len.min(1 << 16) {
        idx = next[idx as usize];
    }
    let t0 = Instant::now();
    for _ in 0..hops {
        idx = next[idx as usize];
    }
    std::hint::black_box(idx);
    t0.elapsed().as_nanos() as f64 / hops as f64
}

/// Run the full §4.2 design-time profile for a given network and tree
/// geometry. `iters` trades precision for profiling time.
pub fn profile_host(
    net: &PolicyValueNet,
    fanout: usize,
    depth: usize,
    iters: usize,
) -> ProfiledCosts {
    let (t_select_ns, t_backup_ns) = profile_in_tree(fanout, depth, iters);
    let t_dnn_cpu_ns = profile_dnn_cpu(net, iters.clamp(1, 50));
    let t_shared_access_ns = profile_memory_latency(64, 200_000);
    ProfiledCosts {
        t_select_ns,
        t_backup_ns,
        t_shared_access_ns,
        t_dnn_cpu_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::NetConfig;

    #[test]
    fn in_tree_profile_returns_positive_times() {
        let (sel, back) = profile_in_tree(9, 4, 500);
        assert!(sel > 0.0 && sel < 1e7, "t_select {sel}");
        assert!(back > 0.0 && back < 1e7, "t_backup {back}");
    }

    #[test]
    fn deeper_trees_cost_more_to_select() {
        // Fastest of five timings a side: a neighbour on the host can
        // only lengthen one, so the fastest is the walk's own cost.
        let fastest = |depth| {
            (0..5)
                .map(|_| profile_in_tree(8, depth, 2000).0)
                .fold(f64::INFINITY, f64::min)
        };
        let (shallow, deep) = (fastest(2), fastest(8));
        assert!(
            deep > shallow,
            "deeper walk should cost more: {deep} vs {shallow}"
        );
    }

    #[test]
    fn dnn_profile_positive() {
        let net = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 1);
        let t = profile_dnn_cpu(&net, 5);
        assert!(t > 0.0);
        let tb = profile_dnn_batch(&net, 4, 3);
        assert!(tb > t, "a batch of 4 should cost more than 1 sample");
    }

    #[test]
    fn memory_latency_in_sane_range() {
        // Use a small buffer in tests (cache-resident): just check units.
        let t = profile_memory_latency(1, 50_000);
        assert!(t > 0.0 && t < 10_000.0, "latency {t} ns");
    }
}
