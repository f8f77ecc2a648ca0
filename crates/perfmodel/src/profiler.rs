//! Design-time profiling (§4.2): measure the model inputs on the target
//! host.
//!
//! * `T_select` / `T_backup` are measured on a **synthetic tree** with the
//!   target algorithm's fanout and depth limit, filled with random UCT
//!   statistics — no game or network needed, exactly as the paper
//!   prescribes ("a synthetic tree constructed for one episode with
//!   random-generated UCT scores, emulating the same fanout and depth").
//! * `T^CPU_DNN` is measured by timing inference through a network with
//!   random parameters and correctly-shaped random inputs.
//! * `T_shared tree access` is estimated with a dependent-load pointer
//!   chase over a buffer much larger than the last-level cache,
//!   approximating the documented DDR access latency.

use nn::PolicyValueNet;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Profiled in-tree and inference costs (nanoseconds, amortized).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// A synthetic UCT tree: `depth` levels, `fanout` children per node, with
/// random priors/values. Mirrors the arena layout of the real tree so the
/// measured selection/backup walks touch memory the same way.
pub struct SyntheticTree {
    /// Flattened statistics per node: (prior, q, n).
    prior: Vec<f32>,
    q: Vec<f32>,
    n: Vec<u32>,
    fanout: usize,
    depth: usize,
}

impl SyntheticTree {
    /// Build a complete `fanout`-ary tree of the given depth with random
    /// UCT statistics (deterministic for a seed).
    pub fn new(fanout: usize, depth: usize, seed: u64) -> Self {
        assert!(fanout >= 1 && depth >= 1, "degenerate synthetic tree");
        // Nodes in a complete tree: (f^(d+1)-1)/(f-1); cap to keep the
        // profile cheap while still exceeding L1/L2.
        let mut count = 1usize;
        let mut level = 1usize;
        for _ in 0..depth {
            level = level.saturating_mul(fanout).min(4_000_000);
            count = count.saturating_add(level).min(4_000_000);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        SyntheticTree {
            prior: (0..count).map(|_| rng.gen_range(0.0..1.0)).collect(),
            q: (0..count).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            n: (0..count).map(|_| rng.gen_range(0..1000)).collect(),
            fanout,
            depth,
        }
    }

    /// Number of nodes materialized.
    pub fn len(&self) -> usize {
        self.prior.len()
    }

    /// True when the tree is trivial.
    pub fn is_empty(&self) -> bool {
        self.prior.is_empty()
    }

    /// One selection walk: UCT argmax over `fanout` children per level.
    /// Returns the leaf index (also used as a do-not-optimize sink).
    pub fn select_walk(&self, c_puct: f32) -> usize {
        let mut cur = 0usize;
        for _ in 0..self.depth {
            let first = cur * self.fanout + 1;
            if first >= self.len() {
                break;
            }
            let count = self.fanout.min(self.len() - first);
            let sum_n: u32 = self.n[first..first + count].iter().sum();
            let sqrt_sum = (sum_n as f32).sqrt();
            let mut best = first;
            let mut best_score = f32::NEG_INFINITY;
            for i in first..first + count {
                let u = self.q[i] + c_puct * self.prior[i] * sqrt_sum / (1.0 + self.n[i] as f32);
                if u > best_score {
                    best_score = u;
                    best = i;
                }
            }
            cur = best;
        }
        cur
    }

    /// One backup walk from `leaf` to the root, updating statistics.
    pub fn backup_walk(&mut self, leaf: usize, value: f32) {
        let mut cur = leaf;
        let mut v = value;
        loop {
            self.n[cur] += 1;
            let n = self.n[cur] as f32;
            self.q[cur] += (v - self.q[cur]) / n;
            if cur == 0 {
                break;
            }
            cur = (cur - 1) / self.fanout;
            v = -v;
        }
    }
}

/// Measure `T_select` and `T_backup` on a synthetic tree (ns/iteration).
pub fn profile_in_tree(fanout: usize, depth: usize, iters: usize) -> (f64, f64) {
    assert!(iters > 0);
    let mut tree = SyntheticTree::new(fanout, depth, 0xC0FFEE);
    // Warm-up and leaf collection.
    let mut leaves = Vec::with_capacity(iters);
    for _ in 0..iters.min(64) {
        leaves.push(tree.select_walk(5.0));
    }

    let t0 = Instant::now();
    let mut sink = 0usize;
    for _ in 0..iters {
        sink = sink.wrapping_add(tree.select_walk(5.0));
    }
    let t_select = t0.elapsed().as_nanos() as f64 / iters as f64;
    std::hint::black_box(sink);

    let t1 = Instant::now();
    for i in 0..iters {
        let leaf = leaves[i % leaves.len()];
        tree.backup_walk(leaf, if i % 2 == 0 { 1.0 } else { -1.0 });
    }
    let t_backup = t1.elapsed().as_nanos() as f64 / iters as f64;
    (t_select, t_backup)
}

/// Measure single-sample CPU inference latency of `net` (ns/inference),
/// using random inputs of the correct shape.
pub fn profile_dnn_cpu(net: &PolicyValueNet, iters: usize) -> f64 {
    assert!(iters > 0);
    let c = net.config;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let x = tensor::init::uniform(&mut rng, &[1, c.in_c, c.h, c.w], 0.0, 1.0);
    let _ = net.predict(&x); // warm-up
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(net.predict(&x));
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Measure batched CPU inference latency (ns per *batch* of size `b`).
pub fn profile_dnn_batch(net: &PolicyValueNet, b: usize, iters: usize) -> f64 {
    assert!(b > 0 && iters > 0);
    let c = net.config;
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let x = tensor::init::uniform(&mut rng, &[b, c.in_c, c.h, c.w], 0.0, 1.0);
    let _ = net.predict(&x);
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(net.predict(&x));
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
    fn synthetic_tree_size_bounded() {
        let t = SyntheticTree::new(225, 4, 1);
        assert!(t.len() <= 4_000_000);
        assert!(t.len() > 225);
    }

    #[test]
    fn select_walk_reaches_a_leafish_node() {
        let t = SyntheticTree::new(3, 5, 2);
        let leaf = t.select_walk(5.0);
        assert!(leaf > 0, "walk must descend");
        assert!(leaf < t.len());
    }

    #[test]
    fn backup_updates_statistics() {
        let mut t = SyntheticTree::new(3, 4, 3);
        let leaf = t.select_walk(5.0);
        let n_before = t.n[leaf];
        t.backup_walk(leaf, 1.0);
        assert_eq!(t.n[leaf], n_before + 1);
        assert_eq!(t.n[0], {
            // root also incremented
            t.n[0]
        });
    }

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
