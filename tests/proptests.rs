//! Property-based tests (proptest) over the core invariants of the
//! system: game rules, tensor algebra, V-sequence search, replay buffer
//! bounds, and search bookkeeping.

use adaptive_dnn_mcts::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- games ----------------

    /// Random legal play on Gomoku never produces an illegal state and
    /// always terminates within board-size moves.
    #[test]
    fn gomoku_random_play_terminates_legally(seed in 0u64..5_000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = Gomoku::new(6, 4);
        let mut moves = 0;
        while g.status() == Status::Ongoing {
            let acts = g.legal_actions();
            prop_assert!(!acts.is_empty());
            let a = acts[rng.gen_range(0..acts.len())];
            prop_assert!(g.is_legal(a));
            g.apply(a);
            moves += 1;
            prop_assert!(moves <= 36);
        }
        prop_assert!(g.legal_actions().is_empty());
    }

    /// Legal-action count decreases by exactly one per Gomoku move.
    #[test]
    fn gomoku_action_count_monotone(seed in 0u64..2_000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = Gomoku::new(6, 5);
        let mut prev = g.legal_actions().len();
        for _ in 0..10 {
            if g.status() != Status::Ongoing { break; }
            let acts = g.legal_actions();
            let a = acts[rng.gen_range(0..acts.len())];
            g.apply(a);
            let now = g.legal_actions().len();
            if g.status() == Status::Ongoing {
                prop_assert_eq!(now, prev - 1);
            }
            prev = now;
        }
    }

    /// Zobrist hashes are permutation-invariant: two interleavings of the
    /// same (black-set, white-set) stones hash identically.
    #[test]
    fn gomoku_hash_transposition_invariant(
        perm_seed in 0u64..1_000,
    ) {
        use rand::{seq::SliceRandom, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(perm_seed);
        // Fixed stone sets, random interleaving-preserving order:
        // blacks play even plies, whites odd plies.
        let mut blacks = [0u16, 7, 14, 21];
        let mut whites = [1u16, 8, 15, 22];
        blacks.shuffle(&mut rng);
        whites.shuffle(&mut rng);
        let mut a = Gomoku::new(6, 5);
        let mut b = Gomoku::new(6, 5);
        for i in 0..4 {
            a.apply(blacks[i]);
            a.apply(whites[i]);
            // Reference order.
            b.apply([0u16, 7, 14, 21][i]);
            b.apply([1u16, 8, 15, 22][i]);
        }
        prop_assert_eq!(a.hash(), b.hash());
    }

    // ---------------- tensor ----------------

    /// GEMM distributes over addition: A(B + C) == AB + AC.
    #[test]
    fn gemm_distributes_over_addition(
        m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..1_000
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = tensor::init::uniform(&mut rng, &[m, k], -1.0, 1.0);
        let b = tensor::init::uniform(&mut rng, &[k, n], -1.0, 1.0);
        let c = tensor::init::uniform(&mut rng, &[k, n], -1.0, 1.0);
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Softmax output is a probability distribution and is invariant to
    /// adding a constant to the logits.
    #[test]
    fn softmax_invariances(
        len in 1usize..12, shift in -50.0f32..50.0, seed in 0u64..1_000
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = tensor::init::uniform(&mut rng, &[len], -5.0, 5.0);
        let mut a = x.data().to_vec();
        tensor::ops::softmax_inplace(&mut a);
        prop_assert!((a.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        prop_assert!(a.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let mut b: Vec<f32> = x.data().iter().map(|v| v + shift).collect();
        tensor::ops::softmax_inplace(&mut b);
        for (p, q) in a.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-4);
        }
    }

    // ---------------- perfmodel ----------------

    /// Algorithm 4 finds the exact minimum of arbitrary V-sequences.
    #[test]
    fn vsearch_matches_exhaustive_on_random_vees(
        n in 2usize..200, pivot_frac in 0.0f64..1.0, slope_down in 0.1f64..10.0,
        slope_up in 0.1f64..10.0
    ) {
        let pivot = 1 + ((n - 1) as f64 * pivot_frac) as usize;
        let f = |x: usize| {
            if x <= pivot {
                slope_down * (pivot - x) as f64
            } else {
                slope_up * (x - pivot) as f64
            }
        };
        let (argmin, val) = perfmodel::vsearch::find_min_vsequence(1, n, f);
        prop_assert_eq!(argmin, pivot.min(n));
        prop_assert!(val <= f(1) && val <= f(n));
    }

    /// The simulated local-tree move time is monotone non-increasing in
    /// worker count (more overlap capacity can't hurt in virtual time).
    #[test]
    fn sim_local_cpu_monotone_in_workers(n in 1usize..64) {
        let base = SimParams::paper_like(1);
        let p1 = SimParams { workers: n, playouts: 200, ..base };
        let p2 = SimParams { workers: n + 1, playouts: 200, ..base };
        let t1 = perfmodel::sim::simulate_local_cpu(&p1).move_ns;
        let t2 = perfmodel::sim::simulate_local_cpu(&p2).move_ns;
        prop_assert!(t2 <= t1 * 1.0001, "N={n}: {t1} -> {t2}");
    }

    // ---------------- replay ----------------

    /// The replay buffer never exceeds capacity and batches always have
    /// the requested size regardless of push/sample interleaving.
    #[test]
    fn replay_buffer_bounds(
        capacity in 1usize..64, pushes in 0usize..200, k in 1usize..16, seed in 0u64..1_000
    ) {
        use rand::SeedableRng;
        let mut buf = ReplayBuffer::new(capacity, 4, 3);
        for i in 0..pushes {
            buf.push(Sample {
                state: vec![i as f32; 4],
                pi: vec![1.0 / 3.0; 3],
                z: 0.0,
            });
            prop_assert!(buf.len() <= capacity);
        }
        if !buf.is_empty() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (s, p, z) = buf.sample_batch(&mut rng, k);
            prop_assert_eq!(s.dims(), &[k, 4]);
            prop_assert_eq!(p.dims(), &[k, 3]);
            prop_assert_eq!(z.dims(), &[k, 1]);
        }
    }
}

proptest! {
    // Searches are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serial search bookkeeping holds for arbitrary budgets: playouts
    /// exact, root-child visits = playouts - 1, probs normalized.
    #[test]
    fn serial_search_bookkeeping(playouts in 1usize..300) {
        let eval = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
        let cfg = MctsConfig { playouts, workers: 1, ..Default::default() };
        let mut s = Scheme::Serial.build::<TicTacToe>(cfg, eval);
        let r = s.search(&TicTacToe::new());
        prop_assert_eq!(r.stats.playouts as usize, playouts);
        prop_assert_eq!(r.visits.iter().sum::<u32>() as usize, playouts - 1);
        if playouts > 1 {
            prop_assert!((r.probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    /// The same invariants hold under shared-tree concurrency for random
    /// worker counts.
    #[test]
    fn shared_search_bookkeeping(playouts in 2usize..200, workers in 1usize..6) {
        let eval = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
        let cfg = MctsConfig { playouts, workers, ..Default::default() };
        let mut s = Scheme::SharedTree.build::<TicTacToe>(cfg, eval);
        let r = s.search(&TicTacToe::new());
        prop_assert_eq!(r.stats.playouts as usize, playouts);
        prop_assert_eq!(r.visits.iter().sum::<u32>() as usize, playouts - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- symmetry group ----------------

    /// Every symmetry is a bijection on cells: applying it to all cells of
    /// an n×n board yields a permutation (no collisions).
    #[test]
    fn symmetry_is_a_permutation(n in 2usize..10, which in 0usize..8) {
        let s = Symmetry::ALL[which];
        let mut seen = std::collections::HashSet::new();
        for r in 0..n {
            for c in 0..n {
                prop_assert!(seen.insert(s.apply_cell(n, r, c)));
            }
        }
        prop_assert_eq!(seen.len(), n * n);
    }

    /// inverse ∘ apply = identity for every element, cell, and board size.
    #[test]
    fn symmetry_inverse_roundtrip(n in 2usize..12, which in 0usize..8, r in 0usize..12, c in 0usize..12) {
        let (r, c) = (r % n, c % n);
        let s = Symmetry::ALL[which];
        let (tr, tc) = s.apply_cell(n, r, c);
        prop_assert_eq!(s.inverse().apply_cell(n, tr, tc), (r, c));
    }

    /// Transforming planes twice with s then s⁻¹ restores the original.
    #[test]
    fn plane_transform_roundtrip(n in 2usize..8, which in 0usize..8, seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let planes: Vec<f32> = (0..2 * n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let s = Symmetry::ALL[which];
        let fwd = s.transform_planes(&planes, 2, n);
        let back = s.inverse().transform_planes(&fwd, 2, n);
        prop_assert_eq!(back, planes);
    }

    /// Policy permutation preserves total probability mass exactly
    /// (reordering, not rescaling), including a trailing pass entry.
    #[test]
    fn policy_permutation_preserves_mass(n in 2usize..8, which in 0usize..8, seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut policy: Vec<f32> = (0..n * n + 1).map(|_| rng.gen_range(0.0..1.0)).collect();
        let total: f32 = policy.iter().sum();
        for p in &mut policy { *p /= total; }
        let s = Symmetry::ALL[which];
        let out = s.permute_policy(&policy, n);
        let mut a = policy.clone();
        let mut b = out.clone();
        a.sort_by(f32::total_cmp);
        b.sort_by(f32::total_cmp);
        prop_assert_eq!(a, b, "permutation must preserve the multiset");
        prop_assert_eq!(out[n * n], policy[n * n], "pass entry fixed");
    }

    // ---------------- Othello rules ----------------

    /// Random legal play on 4×4 and 6×6 Othello always terminates, total
    /// stones never exceed the board, and the final counts justify the
    /// declared winner.
    #[test]
    fn othello_random_play_terminates_consistently(seed in 0u64..2000, big in proptest::bool::ANY) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = if big { 6 } else { 4 };
        let mut g = Othello::new(n);
        let mut moves = 0;
        while g.status() == Status::Ongoing {
            let acts = g.legal_actions();
            prop_assert!(!acts.is_empty(), "ongoing game must offer a move");
            let a = acts[rng.gen_range(0..acts.len())];
            prop_assert!(g.is_legal(a));
            g.apply(a);
            moves += 1;
            prop_assert!(moves <= 4 * n * n, "game too long");
            let (b, w) = g.counts();
            prop_assert!(b + w <= n * n);
        }
        let (b, w) = g.counts();
        match g.status() {
            Status::Won(Player::Black) => prop_assert!(b > w),
            Status::Won(Player::White) => prop_assert!(w > b),
            Status::Draw => prop_assert_eq!(b, w),
            Status::Ongoing => unreachable!(),
        }
    }

    /// Placements strictly grow the mover's stone count by at least 2
    /// (the placed stone plus ≥1 flip); passes change nothing.
    #[test]
    fn othello_moves_flip_at_least_one(seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = Othello::new(4);
        for _ in 0..12 {
            if g.status() != Status::Ongoing { break; }
            let acts = g.legal_actions();
            let a = acts[rng.gen_range(0..acts.len())];
            let mover = g.to_move();
            let (b0, w0) = g.counts();
            let before = if mover == Player::Black { b0 } else { w0 };
            let pass = a == g.pass_action();
            g.apply(a);
            let (b1, w1) = g.counts();
            let after = if mover == Player::Black { b1 } else { w1 };
            if pass {
                prop_assert_eq!((b1, w1), (b0, w0), "pass must not move stones");
            } else {
                prop_assert!(after >= before + 2, "placement must flip: {} -> {}", before, after);
                prop_assert_eq!(b1 + w1, b0 + w0 + 1, "exactly one stone added");
            }
        }
    }

    // ---------------- Elo model ----------------

    /// Elo updates are zero-sum and expected scores are consistent:
    /// E(i,j) + E(j,i) = 1 for arbitrary rating histories.
    #[test]
    fn elo_updates_zero_sum(results in proptest::collection::vec((0usize..4, 0usize..4, 0.0f64..=1.0), 1..30)) {
        let mut t = EloTracker::new(4, 24.0);
        for (i, j, s) in results {
            if i == j { continue; }
            t.record(i, j, s);
            let total: f64 = (0..4).map(|k| t.rating(k)).sum();
            prop_assert!((total - 6000.0).abs() < 1e-6, "total rating drifted: {}", total);
            prop_assert!((t.expected(i, j) + t.expected(j, i) - 1.0).abs() < 1e-9);
        }
    }

    // ---------------- gradient clipping ----------------

    /// After clipping, the global norm never exceeds max_norm, and
    /// direction is preserved (all ratios equal).
    #[test]
    fn clip_grad_norm_bounds_norm(vals in proptest::collection::vec(-100.0f32..100.0, 2..20), max_norm in 0.1f32..10.0) {
        use tensor::Tensor;
        let mut g = Tensor::from_vec(vals.clone(), &[vals.len()]);
        let before = nn::optim::clip_grad_norm(&mut [&mut g], max_norm);
        let after: f32 = g.data().iter().map(|v| v * v).sum::<f32>().sqrt();
        prop_assert!(after <= max_norm * 1.001, "norm {} > {}", after, max_norm);
        if before <= max_norm {
            prop_assert_eq!(g.data(), &vals[..], "small gradients untouched");
        }
    }

    // ---------------- checkpoints ----------------

    /// A checkpoint cut anywhere and with any bytes flipped never panics
    /// the loader, and a load that fails writes nothing: the net keeps
    /// every parameter and running statistic bit for bit.
    #[test]
    fn checkpoint_loads_are_all_or_nothing(
        tower in proptest::bool::ANY,
        cut in 0usize..16_000,
        flips in proptest::collection::vec((0usize..16_000, 1u8..=255), 0..4),
    ) {
        let ok = if tower {
            let cfg = ResNetConfig::tiny(3, 4, 4, 16);
            let mut src = ResNetPolicyValueNet::new(cfg, 1);
            let caches = src.forward_train(&tensor::Tensor::ones(&[2, 3, 4, 4]));
            src.update_running_stats(&caches);
            load_is_all_or_nothing(&src, ResNetPolicyValueNet::new(cfg, 2), cut, &flips)
        } else {
            let cfg = NetConfig::tiny(4, 3, 3, 9);
            load_is_all_or_nothing(&PolicyValueNet::new(cfg, 1), PolicyValueNet::new(cfg, 2), cut, &flips)
        };
        prop_assert!(ok, "a failed load (cut {}, flips {:?}) wrote into the net", cut, flips);
    }

    /// Tree reuse: the extracted subtree of the best move always passes
    /// the arena invariants checker.
    #[test]
    fn extracted_subtrees_stay_consistent(playouts in 8usize..120) {
        let eval = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
        let cfg = MctsConfig { playouts, ..Default::default() };
        let mut s = mcts::reuse::ReusableSearch::new(cfg, eval);
        let mut g = TicTacToe::new();
        let r = s.search(&g);
        let a = r.best_action();
        s.advance(a);
        g.apply(a);
        // A second search from the inherited tree must keep its budget.
        let r2 = s.search(&g);
        prop_assert_eq!(r2.stats.playouts as usize, playouts);
    }
}

/// Every parameter and running statistic of `net`, as bits.
fn net_bits<A: nn::Architecture>(net: &PolicyValueNet<A>) -> Vec<u32> {
    let (params, states) = (net.params(), net.state_tensors());
    params
        .iter()
        .chain(&states)
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// Load `src`'s checkpoint, cut at `cut` and with `flips` applied, into
/// `dst`: true when the load succeeded or left `dst` as it was.
fn load_is_all_or_nothing<A: nn::Architecture>(
    src: &PolicyValueNet<A>,
    mut dst: PolicyValueNet<A>,
    cut: usize,
    flips: &[(usize, u8)],
) -> bool {
    let mut bytes = nn::serialize::save_params(src).to_vec();
    for &(at, mask) in flips {
        let len = bytes.len();
        bytes[at % len] ^= mask;
    }
    bytes.truncate(cut);
    let before = net_bits(&dst);
    nn::serialize::load_params(&mut dst, &bytes).is_ok() || net_bits(&dst) == before
}
