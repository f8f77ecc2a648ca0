//! Post-search tree analysis: principal variation, depth/branching
//! statistics. Useful for debugging search behaviour and for studying the
//! obsolete-information effect the paper discusses in §5.5 (parallel
//! workers see stale statistics, which reshapes the tree).

use crate::tree::{NodeState, Tree};
use games::Action;

/// Shape statistics of a search tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeShape {
    /// Total nodes allocated.
    pub nodes: usize,
    /// Expanded (internal) nodes.
    pub expanded: usize,
    /// Terminal nodes discovered.
    pub terminals: usize,
    /// Maximum depth reached (root = 0).
    pub max_depth: usize,
    /// Mean depth over all nodes.
    pub mean_depth: f64,
    /// Mean children per expanded node.
    pub mean_branching: f64,
}

/// How much two search policies disagree — the quantitative form of the
/// paper's §5.5 observation that parallel workers acting on stale ("not
/// the newest") node statistics generate different training samples than
/// the serial baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyDivergence {
    /// KL(p ‖ q) with ε-smoothing, nats. 0 = identical distributions.
    pub kl: f64,
    /// Total-variation distance `½ Σ |p − q|` in `[0, 1]`.
    pub total_variation: f64,
    /// Whether both policies agree on the argmax (the move actually played
    /// in greedy evaluation).
    pub same_best: bool,
}

/// Compare two visit distributions over the same action space. Both are
/// normalized internally, so raw visit counts work as well as
/// probabilities.
pub fn policy_divergence(p: &[f32], q: &[f32]) -> PolicyDivergence {
    assert_eq!(p.len(), q.len(), "distributions over the same action space");
    assert!(!p.is_empty());
    let norm = |v: &[f32]| -> Vec<f64> {
        let s: f64 = v.iter().map(|&x| x.max(0.0) as f64).sum();
        if s <= 0.0 {
            vec![1.0 / v.len() as f64; v.len()]
        } else {
            v.iter().map(|&x| x.max(0.0) as f64 / s).collect()
        }
    };
    let (pn, qn) = (norm(p), norm(q));
    const EPS: f64 = 1e-9;
    let mut kl = 0.0;
    let mut tv = 0.0;
    for (a, b) in pn.iter().zip(&qn) {
        kl += (a + EPS) * ((a + EPS) / (b + EPS)).ln();
        tv += (a - b).abs();
    }
    let argmax = |v: &[f64]| {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap()
    };
    PolicyDivergence {
        kl: kl.max(0.0),
        total_variation: 0.5 * tv,
        same_best: argmax(&pn) == argmax(&qn),
    }
}

/// Extract the principal variation from `tree`: the most-visited action
/// chain from the root, up to `max_len` plies.
pub fn principal_variation(tree: &Tree, max_len: usize) -> Vec<Action> {
    let mut pv = Vec::new();
    let mut cur = tree.root();
    for _ in 0..max_len {
        let children = tree.children(cur);
        if children.is_empty() {
            break;
        }
        let best = children
            .max_by_key(|&c| tree.n(c))
            .expect("non-empty children");
        if tree.n(best) == 0 {
            break;
        }
        pv.push(tree.action(best));
        cur = best;
    }
    pv
}

/// Compute shape statistics by walking the tree from its root (after
/// in-place re-rooting, arena order no longer orders parents before
/// children, so depths come from the walk, not from a forward pass).
pub fn tree_shape(tree: &Tree) -> TreeShape {
    let mut expanded = 0usize;
    let mut terminals = 0usize;
    let mut max_depth = 0usize;
    let mut depth_sum = 0usize;
    let mut child_sum = 0usize;
    let mut nodes = 0usize;
    let mut stack = vec![(tree.root(), 0usize)];
    while let Some((id, d)) = stack.pop() {
        nodes += 1;
        max_depth = max_depth.max(d);
        depth_sum += d;
        match tree.state(id) {
            NodeState::Expanded => {
                expanded += 1;
                child_sum += tree.children(id).len();
            }
            NodeState::Terminal(_) => terminals += 1,
            _ => {}
        }
        for c in tree.children(id) {
            stack.push((c, d + 1));
        }
    }
    TreeShape {
        nodes,
        expanded,
        terminals,
        max_depth,
        mean_depth: if nodes == 0 {
            0.0
        } else {
            depth_sum as f64 / nodes as f64
        },
        mean_branching: if expanded == 0 {
            0.0
        } else {
            child_sum as f64 / expanded as f64
        },
    }
}

#[cfg(test)]
#[allow(clippy::clone_on_copy)] // Copy test games cloned for symmetry with non-Copy ones
mod tests {
    use super::*;
    use crate::config::MctsConfig;
    use crate::tree::SelectOutcome;
    use games::tictactoe::TicTacToe;
    use games::Game;

    fn grown_tree(playouts: usize) -> Tree {
        let mut t = Tree::new(MctsConfig {
            playouts,
            ..Default::default()
        });
        let base = TicTacToe::new();
        let priors = vec![1.0 / 9.0; 9];
        for _ in 0..playouts {
            let mut g = base.clone();
            let (leaf, out) = t.select(&mut g);
            if out == SelectOutcome::NeedsEval {
                t.expand_and_backup(leaf, &priors, 0.0);
            }
        }
        t
    }

    #[test]
    fn pv_is_a_legal_action_chain() {
        let t = grown_tree(300);
        let pv = principal_variation(&t, 9);
        assert!(!pv.is_empty());
        // Replaying the PV on the game must be legal at every step.
        let mut g = TicTacToe::new();
        for &a in &pv {
            assert!(g.is_legal(a), "pv move {a} illegal");
            g.apply(a);
        }
    }

    #[test]
    fn pv_first_move_is_most_visited() {
        let t = grown_tree(200);
        let pv = principal_variation(&t, 1);
        let (visits, _, _) = t.action_prior(9);
        let best = visits.iter().enumerate().max_by_key(|(_, &v)| v).unwrap().0;
        assert_eq!(pv[0] as usize, best);
    }

    #[test]
    fn shape_statistics_are_consistent() {
        let t = grown_tree(250);
        let s = tree_shape(&t);
        assert_eq!(s.nodes, t.len());
        assert!(s.expanded > 0);
        assert!(s.max_depth >= 1);
        assert!(s.mean_depth > 0.0 && s.mean_depth <= s.max_depth as f64);
        // TicTacToe branching shrinks with depth but stays ≤ 9.
        assert!(s.mean_branching > 1.0 && s.mean_branching <= 9.0);
        assert!(s.max_depth <= 9, "TicTacToe depth bound");
    }

    #[test]
    fn empty_tree_has_trivial_shape() {
        let t = Tree::new(MctsConfig::default());
        let s = tree_shape(&t);
        assert_eq!(s.nodes, 1);
        assert_eq!(s.expanded, 0);
        assert_eq!(s.max_depth, 0);
        assert!(principal_variation(&t, 5).is_empty());
    }

    #[test]
    fn pv_respects_max_len() {
        let t = grown_tree(400);
        assert!(principal_variation(&t, 2).len() <= 2);
    }

    #[test]
    fn identical_policies_have_zero_divergence() {
        let p = vec![0.1, 0.2, 0.7];
        let d = policy_divergence(&p, &p);
        assert!(d.kl < 1e-6);
        assert!(d.total_variation < 1e-9);
        assert!(d.same_best);
    }

    #[test]
    fn disjoint_policies_have_maximal_tv() {
        let p = vec![1.0, 0.0];
        let q = vec![0.0, 1.0];
        let d = policy_divergence(&p, &q);
        assert!((d.total_variation - 1.0).abs() < 1e-9);
        assert!(d.kl > 1.0, "disjoint supports produce large KL");
        assert!(!d.same_best);
    }

    #[test]
    fn divergence_accepts_raw_visit_counts() {
        // Same shape at different scales: zero divergence.
        let p = vec![10.0, 20.0, 70.0];
        let q = vec![1.0, 2.0, 7.0];
        let d = policy_divergence(&p, &q);
        assert!(d.kl < 1e-6);
        assert!(d.same_best);
    }

    #[test]
    fn divergence_is_asymmetric_but_tv_symmetric() {
        let p = vec![0.9, 0.1];
        let q = vec![0.5, 0.5];
        let d1 = policy_divergence(&p, &q);
        let d2 = policy_divergence(&q, &p);
        assert!((d1.total_variation - d2.total_variation).abs() < 1e-12);
        assert!(d1.kl > 0.0 && d2.kl > 0.0);
    }

    #[test]
    fn zero_distributions_fall_back_to_uniform() {
        let d = policy_divergence(&[0.0, 0.0], &[0.0, 0.0]);
        assert!(d.kl < 1e-6);
        assert!(d.same_best);
    }

    #[test]
    #[should_panic(expected = "same action space")]
    fn mismatched_lengths_rejected() {
        let _ = policy_divergence(&[0.5, 0.5], &[1.0]);
    }
}
