//! Differential property tests for LRU node recycling: a byte/slot
//! bounded tree must be playout-for-playout identical to an unbounded
//! arena until the moment of its first eviction (the LRU list is pure bookkeeping — touching never
//! changes selection), and after arbitrarily many evictions the tree
//! must still pass the full internal invariants walk: reachability
//! equals live accounting, the LRU list is exactly the block-owning
//! node set, the root is never evicted, and detached stats keep the
//! visit identity exact.

use games::tictactoe::TicTacToe;
use games::{Game, Status};
use mcts::analysis::principal_variation;
use mcts::tree::{SelectOutcome, Tree};
use mcts::{MctsConfig, NodeArena, NodeState};
use proptest::prelude::*;

/// Deterministic fake evaluator: priors/value are a pure function of the
/// game state, so two trees fed the same playout sequence grow
/// identically no matter which arena slots their nodes occupy.
fn det_eval<G: Game>(g: &G, priors: &mut Vec<f32>) -> f32 {
    let salt = g.move_count() as u64;
    priors.clear();
    for a in 0..g.action_space() as u64 {
        let h = (a + 1).wrapping_mul(2654435761).wrapping_add(salt * 97);
        priors.push((h % 89) as f32 / 89.0 + 0.01);
    }
    ((salt * 31 % 11) as f32 / 11.0) - 0.5
}

/// One deterministic playout on `tree` from `base`.
fn playout(tree: &mut Tree, base: &TicTacToe, priors: &mut Vec<f32>) {
    let mut g = *base;
    let (leaf, out) = tree.select(&mut g);
    if out == SelectOutcome::NeedsEval {
        let v = det_eval(&g, priors);
        tree.expand_and_backup(leaf, &priors.clone(), v);
    }
}

/// Structural equality of two trees (BFS pairwise over child blocks).
fn assert_trees_equal(a: &Tree, b: &Tree) -> Result<(), String> {
    let mut pairs = vec![(a.root(), b.root())];
    while let Some((x, y)) = pairs.pop() {
        prop_assert_eq!(a.state(x), b.state(y), "state mismatch");
        prop_assert_eq!(a.n(x), b.n(y), "visit mismatch");
        prop_assert!((a.w(x) - b.w(y)).abs() < 1e-9, "value-sum mismatch");
        prop_assert_eq!(a.children(x).len(), b.children(y).len());
        for (cx, cy) in a.children(x).zip(b.children(y)) {
            prop_assert_eq!(a.action(cx), b.action(cy), "action order mismatch");
            prop_assert_eq!(a.prior(cx), b.prior(cy), "prior mismatch");
            pairs.push((cx, cy));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The LRU-bounded search is seed-identical to the unbounded arena
    /// up to (and excluding) its first eviction: bounding memory must
    /// not change a single selection until something is actually
    /// reclaimed.
    #[test]
    fn bounded_lru_matches_unbounded_until_first_eviction(
        seed in 0u64..5_000,
        prefix_len in 0usize..5,
        // ≥ 48: the bound must cover the unevictable working set — the
        // current selection path holds virtual loss on every node it
        // descended, and a full-depth TicTacToe path owns 46 slots of
        // child blocks (see the `MctsConfig::arena_budget_bytes` contract).
        bound in 48usize..90,
        playouts in 50usize..300,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut base = TicTacToe::new();
        for _ in 0..prefix_len {
            if base.status() != Status::Ongoing {
                break;
            }
            let acts = base.legal_actions();
            base.apply(acts[rng.gen_range(0..acts.len())]);
        }
        prop_assume!(base.status() == Status::Ongoing);

        let bounded_cfg = MctsConfig {
            playouts,
            arena_budget_bytes: Some(bound * NodeArena::slot_bytes()),
            ..Default::default()
        };
        let unbounded_cfg = MctsConfig { playouts, ..Default::default() };
        let mut bounded = Tree::new(bounded_cfg);
        let mut unbounded = Tree::new(unbounded_cfg);
        let mut priors = Vec::new();
        for _ in 0..playouts {
            playout(&mut bounded, &base, &mut priors);
            if bounded.stats().evicted > 0 {
                // Everything up to the previous playout already compared
                // equal; the diverging playout is the one that evicted.
                break;
            }
            playout(&mut unbounded, &base, &mut priors);
            assert_trees_equal(&bounded, &unbounded)?;
        }
        bounded.check_invariants();
        unbounded.check_invariants();
    }

    /// Long past the bound, the recycled tree stays sound: the full
    /// invariants walk passes (exact visit identity included — no
    /// relaxed mode), the root is never evicted, root statistics count
    /// every playout ever run, and the principal variation always leads
    /// through live, visited nodes.
    #[test]
    fn post_eviction_tree_passes_full_invariants_walk(
        seed in 0u64..5_000,
        // ≤ 2 prefix moves: with ≥ 7 plies left the reachable subtree
        // always outgrows the bound, so every case actually evicts.
        prefix_len in 0usize..3,
        bound in 48usize..90, // covers the unevictable path; see above
        playouts in 200usize..600,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut base = TicTacToe::new();
        for _ in 0..prefix_len {
            if base.status() != Status::Ongoing {
                break;
            }
            let acts = base.legal_actions();
            base.apply(acts[rng.gen_range(0..acts.len())]);
        }
        prop_assume!(base.status() == Status::Ongoing);

        let cfg = MctsConfig {
            playouts,
            arena_budget_bytes: Some(bound * NodeArena::slot_bytes()),
            ..Default::default()
        };
        let mut tree = Tree::new(cfg);
        let mut priors = Vec::new();
        for i in 0..playouts {
            playout(&mut tree, &base, &mut priors);
            if i % 97 == 96 {
                tree.check_invariants();
            }
        }
        tree.check_invariants();

        let s = tree.stats();
        prop_assert!(
            s.live <= bound,
            "live {} nodes exceed the {} bound", s.live, bound
        );
        prop_assert!(
            s.evicted > 0,
            "{} playouts against a {}-slot bound must evict", playouts, bound
        );
        // The root is never evicted and its statistics are lossless:
        // every playout ever run is still counted, straight through any
        // eviction schedule (stats-preserving detach).
        prop_assert_eq!(tree.state(tree.root()), NodeState::Expanded);
        prop_assert_eq!(tree.n(tree.root()) as usize, playouts);
        // The principal variation leads through visited nodes whose
        // edges survived eviction (detached nodes keep their stats, so
        // the answer the search reports is never built on freed slots).
        let pv = principal_variation(&tree, 9);
        prop_assert!(!pv.is_empty(), "an expanded root always has a PV");
        let mut cur = tree.root();
        for &action in &pv {
            let child = tree
                .children(cur)
                .find(|&c| tree.action(c) == action)
                .expect("PV edge exists");
            prop_assert!(tree.n(child) > 0, "PV node lost its visits");
            cur = child;
        }
    }
}
