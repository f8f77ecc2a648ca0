//! Search hyper-parameters shared by every scheme.

/// Virtual-loss policy applied to edges traversed by in-flight playouts
/// (§2.1: VL can be "a pre-defined constant value \[2\], or a number tracking
/// visit counts of child nodes \[8\]").
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Hard bound on tree memory, in bytes — the one memory bound, turned
    /// into slots by [`MctsConfig::node_budget`]. For the single-owner
    /// tree it caps the arena: when an expansion cannot be served, the
    /// coldest live subtree is evicted (an intrusive LRU list tracks
    /// every block-owning node; the victim reverts to an unexpanded
    /// leaf, stats preserved) and the search continues under the fixed
    /// budget. For the shared tree it caps the pre-allocated per-move
    /// arena ([`MctsConfig::arena_capacity`]). `None` ⇒ single-owner
    /// trees grow on demand; the shared tree derives its size from
    /// `playouts × fanout`. Per-session arena budgets and admission
    /// byte quotas in the serve layer speak the same unit.
    ///
    /// The bound is *hard*: a search panics rather than exceed it, so it
    /// must leave room for the unevictable working set — at minimum the
    /// root plus one full expansion (`action_space + 1` slots), and for
    /// pipelined schemes (local tree) one expansion per in-flight leaf,
    /// since subtrees holding pending evaluations are never evicted.
    pub arena_budget_bytes: Option<usize>,
    /// AlphaZero-style Dirichlet noise mixed into the root priors during
    /// self-play (None ⇒ deterministic evaluation-time search).
    pub root_noise: Option<crate::noise::RootNoise>,
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
            arena_budget_bytes: None,
            root_noise: None,
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

    /// Arena slots a run of this configuration can need for a game with
    /// the given action-space size: the worst case for its playouts
    /// (every playout and every worker's in-flight leaf expands one
    /// block of `action_space` children), tightened by
    /// [`MctsConfig::node_budget`] — a byte bound never raises it.
    /// Saturates rather than overflows.
    pub fn arena_capacity(&self, action_space: usize) -> usize {
        let worst = self
            .playouts
            .saturating_add(self.workers)
            .saturating_add(1)
            .saturating_mul(action_space.saturating_add(1))
            .saturating_add(1);
        self.node_budget().map_or(worst, |b| worst.min(b))
    }

    /// The hard slot bound [`MctsConfig::arena_budget_bytes`] imposes on
    /// a tree: `bytes / NodeArena::slot_bytes()`, `None` when unbounded.
    /// The one place a memory bound turns from bytes into slots.
    pub fn node_budget(&self) -> Option<usize> {
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
    fn byte_budget_tightens_capacity() {
        let slot = crate::arena::NodeArena::slot_bytes();
        let c = MctsConfig {
            arena_budget_bytes: Some(100 * slot),
            ..Default::default()
        };
        assert_eq!(c.node_budget(), Some(100));
        assert_eq!(c.arena_capacity(225), 100);
        // A partial slot's worth of bytes buys nothing.
        let c = MctsConfig {
            arena_budget_bytes: Some(100 * slot + slot - 1),
            ..Default::default()
        };
        assert_eq!(c.node_budget(), Some(100));
    }

    #[test]
    fn byte_budget_never_raises_capacity() {
        let c = MctsConfig {
            playouts: 10,
            workers: 2,
            ..Default::default()
        };
        let worst = c.arena_capacity(9);
        assert_eq!(worst, 1 + 13 * 10);
        let roomy = MctsConfig {
            arena_budget_bytes: Some(usize::MAX),
            ..c
        };
        assert_eq!(roomy.arena_capacity(9), worst);
    }

    #[test]
    fn capacity_saturates_instead_of_overflowing() {
        let c = MctsConfig {
            playouts: usize::MAX,
            ..Default::default()
        };
        assert_eq!(c.arena_capacity(81), usize::MAX);
        let bounded = MctsConfig {
            arena_budget_bytes: Some(2_000 * crate::arena::NodeArena::slot_bytes()),
            ..c
        };
        assert_eq!(bounded.arena_capacity(81), 2_000);
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
