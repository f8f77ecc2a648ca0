//! Search hyper-parameters shared by every scheme.

use serde::{Deserialize, Serialize};

/// Virtual-loss policy applied to edges traversed by in-flight playouts
/// (§2.1: VL can be "a pre-defined constant value \[2\], or a number tracking
/// visit counts of child nodes \[8\]").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VirtualLoss {
    /// Chaslot-style: an in-flight playout counts as a visit that lost by
    /// `c` (subtract `c` from `W`, add 1 to `N` while in flight).
    Constant(f32),
    /// WU-UCT-style: track the number of in-flight ("unobserved") playouts
    /// `O(s,a)` and use `N + O` in both UCT terms, leaving `Q` untouched.
    VisitTracking,
}

impl Default for VirtualLoss {
    fn default() -> Self {
        VirtualLoss::Constant(1.0)
    }
}

/// Locking discipline for shared-tree edge statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LockKind {
    /// Per-node mutex around statistic updates (the paper's design, after
    /// Chaslot et al.).
    #[default]
    Mutex,
    /// Lock-free atomic read-modify-write updates (after Mirsoleimani et
    /// al.); ablation target.
    Atomic,
}

/// Hyper-parameters for one tree-based search ("move").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MctsConfig {
    /// Exploration constant `c` in the UCT score (Eq. 1).
    pub c_puct: f32,
    /// Playouts per move ("tree size limit per move is 1600", §5.1).
    pub playouts: usize,
    /// Number of parallel workers `N`.
    pub workers: usize,
    /// Virtual-loss policy.
    pub virtual_loss: VirtualLoss,
    /// Shared-tree locking discipline.
    pub lock_kind: LockKind,
    /// Q value assumed for unvisited edges (first-play urgency).
    pub q_init: f32,
    /// Hard bound on tree memory, in nodes. For the single-owner tree
    /// this caps the arena: when an expansion cannot be served, the
    /// coldest live subtree is evicted (an intrusive LRU list tracks
    /// every block-owning node; the victim reverts to an unexpanded
    /// leaf, stats preserved) and the search continues under the fixed
    /// budget. For the shared tree it sizes
    /// the pre-allocated per-move arena. `None` ⇒ single-owner trees
    /// grow on demand (unless [`MctsConfig::arena_budget_bytes`] bounds
    /// them); the shared tree derives its size from `playouts × fanout`.
    ///
    /// The bound is *hard*: a search panics rather than exceed it, so it
    /// must leave room for the unevictable working set — at minimum the
    /// root plus one full expansion (`action_space + 1` nodes), and for
    /// pipelined schemes (local tree) one expansion per in-flight leaf,
    /// since subtrees holding pending evaluations are never evicted.
    pub max_nodes: Option<usize>,
    /// Hard bound on tree memory, in **bytes** — the byte-denominated
    /// twin of [`MctsConfig::max_nodes`], converted to a slot bound via
    /// [`NodeArena::slot_bytes`](crate::arena::NodeArena::slot_bytes).
    /// When both bounds are set the tighter one wins. This is the knob
    /// the serve layer speaks: per-session arena budgets and admission
    /// byte quotas are denominated in bytes, not slots.
    pub arena_budget_bytes: Option<usize>,
    /// AlphaZero-style Dirichlet noise mixed into the root priors during
    /// self-play (None ⇒ deterministic evaluation-time search).
    pub root_noise: Option<crate::noise::RootNoise>,
    /// Optional wall-clock budget per move in milliseconds, enforced
    /// uniformly by **every** scheme (resolved into a deadline when a run
    /// begins): serial-family searchers stop between playouts, shared-tree
    /// workers stop taking rollout tickets, and the local-tree master
    /// stops issuing leaves, draining what is in flight. `playouts`
    /// remains an upper bound. Per-run overrides go through
    /// [`crate::Budget::time`].
    pub time_budget_ms: Option<u64>,
    /// Maintain a per-tree transposition index (position hash → node) so
    /// identical states reached by different move orders reuse already
    /// computed priors/values at expansion instead of paying another
    /// evaluation. Honoured wherever the serial leaf hook runs: the
    /// serial searcher (`ReusableSearch`, with or without reuse) and
    /// every root-parallel slot, each on its own private tree — the same
    /// hook also passes position keys to a
    /// [`CachedEvaluator`](crate::CachedEvaluator). Other schemes ignore
    /// it. Off by default: enabling it changes which evaluations run, so
    /// seed-for-seed reproducibility against older runs requires the
    /// default (with it off and no cache, root-parallel results are
    /// identical to the unkeyed loop it used to run). (Full cross-path *stat merging* is deliberately not done
    /// — only priors/value reuse — so PUCT visit counts stay sound.)
    pub transpositions: bool,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            c_puct: 5.0,
            playouts: 1600,
            workers: 1,
            virtual_loss: VirtualLoss::default(),
            lock_kind: LockKind::default(),
            q_init: 0.0,
            max_nodes: None,
            arena_budget_bytes: None,
            root_noise: None,
            time_budget_ms: None,
            transpositions: false,
        }
    }
}

impl MctsConfig {
    /// The paper's Gomoku evaluation configuration for `n` workers.
    pub fn paper(workers: usize) -> Self {
        MctsConfig {
            playouts: 1600,
            workers,
            ..Default::default()
        }
    }

    /// Arena capacity for a game with the given action-space size.
    /// `max_nodes` wins over the playout-derived estimate; a byte budget
    /// tightens whichever of those applies.
    pub fn arena_capacity(&self, action_space: usize) -> usize {
        let slots = self
            .max_nodes
            .unwrap_or_else(|| 1 + (self.playouts + self.workers + 1) * (action_space + 1));
        match self.byte_bound_slots() {
            Some(b) => slots.min(b),
            None => slots,
        }
    }

    /// The hard slot bound this configuration imposes on a single-owner
    /// arena: the tighter of [`MctsConfig::max_nodes`] and
    /// [`MctsConfig::arena_budget_bytes`] (converted to slots), `None`
    /// when neither is set.
    pub fn node_budget(&self) -> Option<usize> {
        match (self.max_nodes, self.byte_bound_slots()) {
            (Some(n), Some(b)) => Some(n.min(b)),
            (Some(n), None) => Some(n),
            (None, b) => b,
        }
    }

    fn byte_bound_slots(&self) -> Option<usize> {
        self.arena_budget_bytes
            .map(|b| b / crate::arena::NodeArena::slot_bytes())
    }

    /// Validate invariants; panics on nonsense configurations.
    pub fn validate(&self) {
        assert!(self.c_puct >= 0.0, "c_puct must be non-negative");
        assert!(self.playouts > 0, "playouts must be positive");
        assert!(self.workers > 0, "workers must be positive");
        if let VirtualLoss::Constant(c) = self.virtual_loss {
            assert!(c >= 0.0, "virtual loss must be non-negative");
        }
        if let Some(n) = self.root_noise {
            assert!(n.alpha > 0.0, "dirichlet alpha must be positive");
            assert!((0.0..=1.0).contains(&n.epsilon), "noise epsilon in [0,1]");
        }
        if let Some(ms) = self.time_budget_ms {
            assert!(ms > 0, "time budget must be positive");
        }
        if let Some(n) = self.max_nodes {
            assert!(n > 0, "max_nodes must allow at least the root");
        }
        if let Some(b) = self.arena_budget_bytes {
            assert!(
                b >= crate::arena::NodeArena::slot_bytes(),
                "arena_budget_bytes must hold at least one node ({} bytes)",
                crate::arena::NodeArena::slot_bytes()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        MctsConfig::default().validate();
    }

    #[test]
    fn paper_config_matches_evaluation_setup() {
        let c = MctsConfig::paper(16);
        assert_eq!(c.playouts, 1600);
        assert_eq!(c.workers, 16);
        c.validate();
    }

    #[test]
    fn arena_capacity_scales_with_playouts() {
        let c = MctsConfig {
            playouts: 10,
            ..Default::default()
        };
        let small = c.arena_capacity(9);
        let big = MctsConfig::default().arena_capacity(9);
        assert!(small < big);
        assert!(small >= 10 * 9);
    }

    #[test]
    fn explicit_max_nodes_wins() {
        let c = MctsConfig {
            max_nodes: Some(123),
            ..Default::default()
        };
        assert_eq!(c.arena_capacity(225), 123);
    }

    #[test]
    fn byte_budget_tightens_capacity() {
        let slot = crate::arena::NodeArena::slot_bytes();
        let c = MctsConfig {
            arena_budget_bytes: Some(100 * slot),
            ..Default::default()
        };
        assert_eq!(c.node_budget(), Some(100));
        assert_eq!(c.arena_capacity(225), 100);
        // The tighter of the two bounds wins in both directions.
        let c = MctsConfig {
            max_nodes: Some(50),
            arena_budget_bytes: Some(100 * slot),
            ..Default::default()
        };
        assert_eq!(c.node_budget(), Some(50));
        let c = MctsConfig {
            max_nodes: Some(500),
            arena_budget_bytes: Some(100 * slot),
            ..Default::default()
        };
        assert_eq!(c.node_budget(), Some(100));
        assert_eq!(c.arena_capacity(225), 100);
    }

    #[test]
    #[should_panic(expected = "arena_budget_bytes")]
    fn sub_slot_byte_budget_invalid() {
        MctsConfig {
            arena_budget_bytes: Some(1),
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "workers")]
    fn zero_workers_invalid() {
        MctsConfig {
            workers: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "playouts")]
    fn zero_playouts_invalid() {
        MctsConfig {
            playouts: 0,
            ..Default::default()
        }
        .validate();
    }
}
