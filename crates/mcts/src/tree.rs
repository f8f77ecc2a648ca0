//! The single-owner search tree used by the serial baseline, the
//! local-tree scheme's master thread, and the re-rooting reuse searcher.
//!
//! Nodes live in a [`crate::arena::NodeArena`] — a struct-of-arrays store
//! with contiguous child ranges and a block free-list (see the arena
//! module docs for the layout). No synchronization: exactly one thread
//! owns the tree. The same layout, with atomic cells, backs the
//! shared-tree scheme, so every scheme searches over one node store
//! design.
//!
//! Each node doubles as the edge from its parent (storing `prior`, `N`,
//! `W`), following the AlphaZero formulation where statistics live on
//! edges. `W` is accumulated from the perspective of the player who *moved
//! into* the node, so `Q(s,a) = W(child)/N(child)` is directly the expected
//! reward for the player choosing `a` at `s`.
//!
//! Claiming a leaf for evaluation pre-allocates its child block and writes
//! the legal actions into it, so expansion needs no game replay and the
//! steady-state search loop performs no heap allocation: selection,
//! claiming, expansion, backup and [`Tree::advance_root`] all run on
//! recycled arena slots and reused scratch buffers.
//!
//! # The select kernel
//!
//! Selection spends its time scoring children: at every level of the
//! descent the UCT score (Eq. 1) of each child of the current node, some
//! seventy of them on a 9×9 board. A [`SelectKernel`] does that over the
//! four columns it needs ([`ChildColumns`]: `prior`, `n`, `vl`, `w`) — and
//! because a child block is one contiguous range of struct-of-arrays
//! columns, those are four dense slices that a vector unit loads eight
//! children at a time with no gather.
//!
//! * `scalar` — the portable loop: one pass for `Σ n_eff`, one pass of
//!   scores with a strict `>` scan. The only kernel on a host without
//!   AVX2, and the **oracle** the other is held to.
//! * `avx2` — the same two passes, eight children per step. A group in
//!   which nothing has been visited (the common one: a search allocates
//!   65 slots per playout and visits about one) takes `q_init` and skips
//!   the `Q` arithmetic; children beyond the last whole group of eight go
//!   through the scalar expression; a block holding a count a signed
//!   32-bit lane cannot convert (`n`, `vl` or their sum past `i32::MAX`)
//!   goes to the scalar loop whole.
//!
//! The contract is **bitwise**: each lane performs the scalar
//! expression's operations in the scalar order — `((c_puct·P)·√Σ)/(1+n_eff)`
//! in f32, `(W − c·vl)/n_eff` in f64 narrowed to f32, then one f32 add —
//! with nothing fused or reassociated, so every score has the scalar
//! score's bits; comparison is strict and ordered per lane (`NaN` never
//! wins) and the reduction across lanes breaks ties toward the lowest
//! index, so the pick is the scalar pick. `tests/scheme_golden.rs` cannot
//! tell the kernels apart; the unit tests below and
//! `tests/proptest_select.rs` compare them score by score. The kernel is
//! chosen once per tree from what the CPU reports
//! ([`SelectKernel::dispatched`], named by [`select_kernel_name`]); there
//! is nothing to configure.

use crate::arena::{ArenaStats, NodeArena};
use crate::config::{MctsConfig, VirtualLoss};
use games::{Action, Game, Status};

pub use crate::arena::{NodeState, NIL};

/// What [`Tree::select`] found at the end of the traversed path.
#[derive(Debug, PartialEq)]
pub enum SelectOutcome {
    /// Leaf claimed for evaluation; caller must evaluate the game state it
    /// was handed and then call [`Tree::expand_and_backup`].
    NeedsEval,
    /// A terminal node; its value has been backed up already.
    TerminalBackedUp,
    /// The leaf is already being evaluated by another in-flight playout;
    /// the path's virtual loss has been reverted. Caller should process a
    /// pending result before retrying.
    Busy,
}

/// Node accounting of a [`Tree`] (see [`Tree::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TreeStats {
    /// Nodes currently part of the tree.
    pub live: usize,
    /// Free-list slots awaiting reuse.
    pub free: usize,
    /// Slots currently backing the arena columns (`live + free`) — the
    /// memory footprint of this tree's lifetime since its last
    /// [`Tree::reset_in_place`] (a reset truncates the count but keeps
    /// the columns' reserved capacity for reuse).
    pub high_water: usize,
    /// Cumulative nodes reclaimed onto the free-list by re-rooting,
    /// capacity eviction and in-place resets over this tree's lifetime.
    pub reclaimed_total: u64,
    /// Cumulative nodes discarded by LRU capacity eviction (subset of
    /// `reclaimed_total`).
    pub evicted: u64,
    /// Bytes currently backing node storage (`high_water ×`
    /// [`NodeArena::slot_bytes`](crate::arena::NodeArena::slot_bytes)).
    pub bytes: usize,
}

// -- PUCT child scoring -----------------------------------------------------

/// The columns of one parent's contiguous child block as selection reads
/// them: one entry per child, equal lengths.
#[derive(Debug, Clone, Copy)]
pub struct ChildColumns<'a> {
    /// Priors `P(s,a)`.
    pub prior: &'a [f32],
    /// Completed visits `N`.
    pub n: &'a [u32],
    /// In-flight playouts (virtual-loss counts).
    pub vl: &'a [u32],
    /// Value sums `W`.
    pub w: &'a [f64],
}

/// One way of scoring a child block (see the module docs). A value proves
/// that this host can run it: they only come from [`SelectKernel::SCALAR`],
/// [`SelectKernel::dispatched`] and [`SelectKernel::compiled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectKernel(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// Every kernel compiled in, slowest first.
    const ALL: &'static [Isa] = &[
        Isa::Scalar,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
    ];

    /// Whether this host can run the kernel (the detection macro caches).
    fn supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
        }
    }
}

impl SelectKernel {
    /// The portable loop: the only kernel on a host without AVX2, and the
    /// oracle every other kernel is held to bit for bit.
    pub const SCALAR: SelectKernel = SelectKernel(Isa::Scalar);

    /// The fastest kernel this host supports: what a [`Tree`] selects
    /// with (chosen when the tree is built).
    pub fn dispatched() -> SelectKernel {
        let isa = Isa::ALL.iter().rev().find(|isa| isa.supported());
        SelectKernel(*isa.expect("the scalar kernel runs anywhere"))
    }

    /// Every kernel compiled into this build by name, slowest first, with
    /// `None` in place of one this host cannot run (so a differential
    /// test can say what it skipped).
    pub fn compiled() -> Vec<(&'static str, Option<SelectKernel>)> {
        let kernel = |&isa: &Isa| (isa.name(), isa.supported().then_some(SelectKernel(isa)));
        Isa::ALL.iter().map(kernel).collect()
    }

    /// `"scalar"` or `"avx2"`.
    pub fn name(self) -> &'static str {
        self.0.name()
    }

    /// Offset of the child maximizing the UCT score (Eq. 1)
    /// `Q + c_puct · P · √Σ n_eff / (1 + n_eff)` under `cfg`'s exploration
    /// constant, first-play value and virtual-loss policy. Comparison is
    /// strict, so the lowest offset wins a tie and a NaN score never
    /// wins; offset 0 when no score exceeds `-inf`. With `scores`, every
    /// child's score is written there as well (the differential tests
    /// compare them bitwise).
    ///
    /// # Panics
    /// If the columns (or `scores`) differ in length.
    pub fn pick(
        self,
        cfg: &MctsConfig,
        cols: ChildColumns<'_>,
        mut scores: Option<&mut [f32]>,
    ) -> usize {
        let len = cols.prior.len();
        assert!(
            cols.n.len() == len
                && cols.vl.len() == len
                && cols.w.len() == len
                && scores.as_ref().is_none_or(|s| s.len() == len),
            "child columns of unequal length"
        );
        let mut sum_n = 0u32;
        // Any bit a signed 32-bit lane cannot hold, in a count or in a
        // count's sum with its virtual loss.
        let mut wide = 0u32;
        for (&n, &vl) in cols.n.iter().zip(cols.vl) {
            let n_eff = n + vl;
            sum_n += n_eff;
            wide |= n | vl | n_eff;
        }
        let sqrt_sum = (sum_n as f32).sqrt();
        // The vector lanes convert counts as *signed* integers: a block
        // holding a count past `i32::MAX` is scored by the scalar loop.
        let isa = if wide <= i32::MAX as u32 {
            self.0
        } else {
            Isa::Scalar
        };
        // The best child among the leading `from` children, which the
        // vector kernel scores in whole groups; the loop below finishes.
        let (mut best, from) = match isa {
            Isa::Scalar => ((0usize, f32::NEG_INFINITY), 0),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                let out = scores
                    .as_deref_mut()
                    .map_or(std::ptr::null_mut(), <[f32]>::as_mut_ptr);
                // SAFETY: holding `Isa::Avx2` proves the feature (see
                // `SelectKernel`); the assert above makes every column
                // (and `out`, unless null) `len` long; `wide` bounds the
                // counts.
                let best = unsafe {
                    match cfg.virtual_loss {
                        VirtualLoss::Constant(loss) => {
                            x86::pick_groups::<false>(cfg, loss, sqrt_sum, &cols, out)
                        }
                        VirtualLoss::VisitTracking => {
                            x86::pick_groups::<true>(cfg, 0.0, sqrt_sum, &cols, out)
                        }
                    }
                };
                (best, len - len % x86::LANES)
            }
        };
        for i in from..len {
            let u = puct_score(cfg, &cols, i, sqrt_sum);
            if let Some(scores) = &mut scores {
                scores[i] = u;
            }
            if u > best.1 {
                best = (i, u);
            }
        }
        best.0
    }
}

/// Name of the select kernel this host dispatches to (`"scalar"` or
/// `"avx2"`): [`SelectKernel::dispatched`] by name, for bench metadata
/// and CI logs.
pub fn select_kernel_name() -> &'static str {
    SelectKernel::dispatched().name()
}

/// UCT score (Eq. 1) of child `i` — the expression every kernel must
/// reproduce bit for bit: `Q` in f64 narrowed to f32 (`q_init` for a
/// child nothing has visited), the exploration term in f32 evaluated
/// left to right.
#[inline(always)]
fn puct_score(cfg: &MctsConfig, cols: &ChildColumns<'_>, i: usize, sqrt_sum: f32) -> f32 {
    let (n, vl) = (cols.n[i], cols.vl[i]);
    let n_eff = n + vl;
    let q = match cfg.virtual_loss {
        VirtualLoss::Constant(loss) if n_eff > 0 => {
            ((cols.w[i] - loss as f64 * vl as f64) / n_eff as f64) as f32
        }
        VirtualLoss::VisitTracking if n > 0 => (cols.w[i] / n as f64) as f32,
        _ => cfg.q_init,
    };
    q + cfg.c_puct * cols.prior[i] * sqrt_sum / (1.0 + n_eff as f32)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{ChildColumns, MctsConfig};
    use std::arch::x86_64::*;

    /// Children scored per pass (f32 lanes of one AVX2 vector).
    pub const LANES: usize = 8;

    /// `Q` of four children in f64, narrowed: `(w − loss·vl) / visits`, or
    /// `w / visits` under `TRACK`. A lane without visits holds garbage
    /// (`x/0`), which the caller replaces.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn q_half<const TRACK: bool>(
        w: __m256d,
        loss: __m256d,
        vl: __m128i,
        visits: __m128i,
    ) -> __m128 {
        let sum = if TRACK {
            w
        } else {
            _mm256_sub_pd(w, _mm256_mul_pd(loss, _mm256_cvtepi32_pd(vl)))
        };
        _mm256_cvtpd_ps(_mm256_div_pd(sum, _mm256_cvtepi32_pd(visits)))
    }

    /// [`super::puct_score`] over the whole groups of [`LANES`] children
    /// and the running maximum over them: `(offset, score)` of the best
    /// child so far, `(0, -inf)` when no score exceeds `-inf`. Each lane
    /// runs the scalar expression's operations in the scalar order — f32
    /// `mul, mul, div, add` around a `Q` that is `sub, div` in f64 (two
    /// 4-lane halves) narrowed by `cvtpd_ps`, nothing fused — so every
    /// score is bitwise the scalar one. `TRACK` is the
    /// [`VisitTracking`](crate::VirtualLoss::VisitTracking) policy (`Q`
    /// divides by `n` and subtracts nothing); otherwise `loss` is the
    /// constant virtual loss. Scores go to `scores` unless it is null.
    ///
    /// # Safety
    /// AVX2 must be available. The four columns, and `scores` unless
    /// null, must be equally long, and every `n`, `vl` and `n + vl` must
    /// fit an `i32`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pick_groups<const TRACK: bool>(
        cfg: &MctsConfig,
        loss: f32,
        sqrt_sum: f32,
        cols: &ChildColumns<'_>,
        scores: *mut f32,
    ) -> (usize, f32) {
        let (prior, w) = (cols.prior.as_ptr(), cols.w.as_ptr());
        let (n, vl) = (cols.n.as_ptr(), cols.vl.as_ptr());
        let c_puct = _mm256_set1_ps(cfg.c_puct);
        let q_init = _mm256_set1_ps(cfg.q_init);
        let sqrt_sum = _mm256_set1_ps(sqrt_sum);
        let loss = _mm256_set1_pd(loss as f64);
        let one = _mm256_set1_ps(1.0);
        let mut best = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut best_at = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut at = best_at;
        for i in (0..cols.prior.len() - cols.prior.len() % LANES).step_by(LANES) {
            let nv = _mm256_loadu_si256(n.add(i) as *const __m256i);
            let vv = _mm256_loadu_si256(vl.add(i) as *const __m256i);
            let n_eff = _mm256_add_epi32(nv, vv);
            let explore = _mm256_div_ps(
                _mm256_mul_ps(
                    _mm256_mul_ps(c_puct, _mm256_loadu_ps(prior.add(i))),
                    sqrt_sum,
                ),
                _mm256_add_ps(one, _mm256_cvtepi32_ps(n_eff)),
            );
            let visits = if TRACK { nv } else { n_eff };
            let unvisited = _mm256_castsi256_ps(_mm256_cmpeq_epi32(visits, _mm256_setzero_si256()));
            // The common group — 65 slots are allocated per playout and
            // about one is ever visited — pays no f64 divide.
            let q = if _mm256_movemask_ps(unvisited) == 0xFF {
                q_init
            } else {
                let lo = q_half::<TRACK>(
                    _mm256_loadu_pd(w.add(i)),
                    loss,
                    _mm256_castsi256_si128(vv),
                    _mm256_castsi256_si128(visits),
                );
                let hi = q_half::<TRACK>(
                    _mm256_loadu_pd(w.add(i + 4)),
                    loss,
                    _mm256_extracti128_si256::<1>(vv),
                    _mm256_extracti128_si256::<1>(visits),
                );
                let q = _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi);
                _mm256_blendv_ps(q, q_init, unvisited)
            };
            let u = _mm256_add_ps(q, explore);
            if !scores.is_null() {
                _mm256_storeu_ps(scores.add(i), u);
            }
            // Strict and ordered: an equal score keeps the lane's earlier
            // child, a NaN never replaces anything.
            let better = _mm256_cmp_ps::<_CMP_GT_OQ>(u, best);
            best = _mm256_blendv_ps(best, u, better);
            best_at = _mm256_blendv_epi8(best_at, at, _mm256_castps_si256(better));
            at = _mm256_add_epi32(at, _mm256_set1_epi32(LANES as i32));
        }
        // Across lanes the lowest offset wins a tie, as it does within one.
        let (mut score, mut offset) = ([0f32; LANES], [0i32; LANES]);
        _mm256_storeu_ps(score.as_mut_ptr(), best);
        _mm256_storeu_si256(offset.as_mut_ptr() as *mut __m256i, best_at);
        let mut lane = 0;
        for l in 1..LANES {
            if score[l] > score[lane] || (score[l] == score[lane] && offset[l] < offset[lane]) {
                lane = l;
            }
        }
        (offset[lane] as usize, score[lane])
    }
}

/// Single-owner MCTS tree over the shared arena layout.
pub struct Tree {
    a: NodeArena,
    cfg: MctsConfig,
    /// How [`Tree::select_child`] scores a child block.
    kernel: SelectKernel,
    /// Current root node id (0 for a fresh tree; re-rooting moves it).
    root: u32,
    /// Per-tree nonce mixed into the root-noise seed (refreshed on
    /// re-root: one logical tree per move).
    noise_nonce: u64,
    /// Cumulative nodes reclaimed (re-root + evict + reset).
    reclaimed_total: u64,
    /// Cumulative nodes discarded by LRU capacity eviction.
    evicted_nodes: u64,
    /// Running total of outstanding virtual losses (kept in sync by
    /// select/backup/revert so the between-moves check is O(1); the
    /// column scan in [`Tree::outstanding_vl`] stays authoritative and
    /// [`Tree::check_invariants`] pins the two together).
    vl_outstanding: u64,
    /// Scratch: legal actions captured at claim time.
    legal_scratch: Vec<Action>,
    /// Scratch: masked/normalized priors during expansion.
    priors_scratch: Vec<f32>,
    /// Scratch: DFS stack for reclaiming walks.
    walk_stack: Vec<u32>,
    /// Optional transposition index: position hash → expanded node id
    /// ([`MctsConfig::transpositions`]). Cleared by every operation that
    /// returns node slots to the free-list (re-root, in-place reset,
    /// capacity eviction): a recycled slot may be re-expanded for a
    /// *different* position, so ids must never outlive their allocation.
    tt: Option<std::collections::HashMap<u64, u32>>,
}

impl Tree {
    /// Fresh tree containing only an unexpanded root. With
    /// [`MctsConfig::arena_budget_bytes`] set, the arena never exceeds
    /// its slot bound ([`MctsConfig::node_budget`]; expansion evicts the
    /// coldest live subtree when full).
    pub fn new(cfg: MctsConfig) -> Self {
        let mut a = NodeArena::new(1024, cfg.node_budget());
        let root = a
            .alloc_block(1)
            .expect("arena bound must allow at least the root");
        debug_assert_eq!(root, 0);
        a.prior[0] = 1.0;
        Tree {
            a,
            cfg,
            kernel: SelectKernel::dispatched(),
            root: 0,
            noise_nonce: crate::noise::next_nonce(),
            reclaimed_total: 0,
            evicted_nodes: 0,
            vl_outstanding: 0,
            legal_scratch: Vec::new(),
            priors_scratch: Vec::new(),
            walk_stack: Vec::new(),
            tt: cfg.transpositions.then(std::collections::HashMap::new),
        }
    }

    /// Current root index (0 until the first in-place re-root).
    #[inline]
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Replace the search hyper-parameters (selection constants,
    /// virtual-loss policy, root noise) for subsequent playouts. The
    /// arena's capacity bound is deliberately left untouched —
    /// re-bounding a live arena is not supported; use
    /// [`Tree::set_config`] for a full reconfiguration.
    pub fn set_search_params(&mut self, cfg: MctsConfig) {
        self.cfg = cfg;
        self.reconcile_tt();
    }

    /// Create or drop the transposition index to match
    /// [`MctsConfig::transpositions`]; an index kept across the call is
    /// cleared (the caller is changing search regimes — stale reuse is
    /// not worth auditing against the new parameters).
    fn reconcile_tt(&mut self) {
        match (&mut self.tt, self.cfg.transpositions) {
            (tt @ None, true) => *tt = Some(std::collections::HashMap::new()),
            (tt @ Some(_), false) => *tt = None,
            (Some(tt), true) => tt.clear(),
            (None, false) => {}
        }
    }

    /// Reconfigure for a fresh logical session: apply `cfg` *including*
    /// a new arena capacity bound, clearing the tree in place (column
    /// memory is kept, so a pooled tree re-warms instantly). Must be
    /// called between moves (no playouts in flight).
    pub fn set_config(&mut self, cfg: MctsConfig) {
        self.cfg = cfg;
        self.a.set_bound(cfg.node_budget());
        self.reconcile_tt();
        self.reset_in_place();
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.a.live()
    }

    /// True if only the root exists.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Node accounting: live/free/high-water plus cumulative reclaim and
    /// eviction counters.
    pub fn stats(&self) -> TreeStats {
        let ArenaStats {
            live,
            free,
            high_water,
        } = self.a.stats();
        TreeStats {
            live,
            free,
            high_water,
            reclaimed_total: self.reclaimed_total,
            evicted: self.evicted_nodes,
            bytes: self.a.bytes(),
        }
    }

    // -- column accessors ---------------------------------------------------

    /// Parent index (`NIL` for the root).
    #[inline]
    pub fn parent(&self, id: u32) -> u32 {
        self.a.parent[id as usize]
    }

    /// Action taken at the parent to reach `id`.
    #[inline]
    pub fn action(&self, id: u32) -> Action {
        self.a.action[id as usize]
    }

    /// DNN prior probability `P(s,a)` of that action.
    #[inline]
    pub fn prior(&self, id: u32) -> f32 {
        self.a.prior[id as usize]
    }

    /// Completed visits `N`.
    #[inline]
    pub fn n(&self, id: u32) -> u32 {
        self.a.n[id as usize]
    }

    /// Accumulated value `W` (perspective of the player who moved here).
    #[inline]
    pub fn w(&self, id: u32) -> f64 {
        self.a.w[id as usize]
    }

    /// In-flight playouts through `id` (virtual-loss count).
    #[inline]
    pub fn vl(&self, id: u32) -> u32 {
        self.a.vl[id as usize]
    }

    /// Expansion state.
    #[inline]
    pub fn state(&self, id: u32) -> NodeState {
        self.a.state[id as usize]
    }

    /// The contiguous child id range of `id` (empty when unexpanded or
    /// terminal; present from claim time for pending nodes).
    #[inline]
    pub fn children(&self, id: u32) -> std::ops::Range<u32> {
        let first = self.a.first_child[id as usize];
        let count = self.a.child_count[id as usize];
        if count == 0 {
            0..0
        } else {
            first..first + count
        }
    }

    // -- search -------------------------------------------------------------

    /// Traverse from the root following UCT (Eq. 1), applying virtual loss
    /// to every edge stepped through, and advancing `game` along the path.
    ///
    /// Returns the reached leaf and what to do with it. On
    /// [`SelectOutcome::NeedsEval`] the leaf has been marked
    /// [`NodeState::Pending`], its child block pre-allocated with the
    /// legal actions, and `game` is positioned at the leaf's state.
    pub fn select<G: Game>(&mut self, game: &mut G) -> (u32, SelectOutcome) {
        let mut cur = self.root;
        loop {
            match self.a.state[cur as usize] {
                NodeState::Terminal(v) => {
                    self.backup(cur, v);
                    return (cur, SelectOutcome::TerminalBackedUp);
                }
                NodeState::Pending => {
                    self.revert_path(cur);
                    return (cur, SelectOutcome::Busy);
                }
                NodeState::Unexpanded => {
                    // Claim for evaluation: pre-allocate the child block
                    // and record the legal actions in it.
                    let mut legal = std::mem::take(&mut self.legal_scratch);
                    legal.clear();
                    game.legal_actions_into(&mut legal);
                    debug_assert!(!legal.is_empty(), "ongoing state with no moves");
                    self.claim_children(cur, &legal);
                    self.legal_scratch = legal;
                    return (cur, SelectOutcome::NeedsEval);
                }
                NodeState::Expanded => {
                    // Touch-on-visit: every expanded node on the selection
                    // path moves to the warm end of the LRU list, so the
                    // principal lines stay resident and eviction targets
                    // branches selection has abandoned. List maintenance
                    // only — never affects which child is selected.
                    self.a.lru_touch(cur);
                    let best = self.select_child(cur);
                    self.a.vl[best as usize] += 1;
                    self.vl_outstanding += 1;
                    game.apply(self.a.action[best as usize]);
                    cur = best;
                    // First arrival at a terminal state: freeze its value.
                    let status = game.status();
                    if status.is_terminal() && self.a.state[cur as usize] == NodeState::Unexpanded {
                        let v = terminal_value(status, game);
                        self.a.state[cur as usize] = NodeState::Terminal(v);
                    }
                }
                NodeState::Free => unreachable!("selection reached a free slot"),
            }
        }
    }

    /// Pick the child of `parent` maximizing the UCT score (Eq. 1): the
    /// tree's [`SelectKernel`] over the child block's columns.
    fn select_child(&self, parent: u32) -> u32 {
        let children = self.children(parent);
        debug_assert!(!children.is_empty(), "select on childless node");
        let block = children.start as usize..children.end as usize;
        let cols = ChildColumns {
            prior: &self.a.prior[block.clone()],
            n: &self.a.n[block.clone()],
            vl: &self.a.vl[block.clone()],
            w: &self.a.w[block],
        };
        children.start + self.kernel.pick(&self.cfg, cols, None) as u32
    }

    /// Allocate the child block for a claimed leaf. At the capacity
    /// bound, escalate: defragment the free-list (coalesce adjacent
    /// ranges), then evict the coldest live subtree until the block fits.
    fn claim_children(&mut self, leaf: u32, legal: &[Action]) {
        let count = legal.len();
        let mut coalesced = false;
        let first = loop {
            match self.a.alloc_block(count) {
                Some(first) => break first,
                // Fragments may sum to a fitting range even when no single
                // one serves the request; merging them is far cheaper than
                // discarding live statistics — so coalesce before every
                // eviction (each one creates fresh mergeable neighbors).
                // At the bound that is about every second claim, so
                // `coalesce` only merges the ranges freed since its last
                // call; the runs it left stay put.
                None if !coalesced => {
                    self.a.coalesce();
                    coalesced = true;
                }
                None => {
                    assert!(
                        self.evict_coldest(),
                        "arena at its bound ({} slots) with nothing evictable; raise the bound",
                        self.a.capacity_bound()
                    );
                    coalesced = false;
                }
            }
        };
        for (i, &a) in legal.iter().enumerate() {
            let id = first as usize + i;
            self.a.parent[id] = leaf;
            self.a.action[id] = a;
        }
        self.a.first_child[leaf as usize] = first;
        self.a.child_count[leaf as usize] = count as u32;
        self.a.state[leaf as usize] = NodeState::Pending;
        // The leaf now owns a child block: it joins the LRU list at the
        // warm end (it is, by definition, the most recently visited).
        self.a.lru_push_front(leaf);
    }

    /// Expand a pending leaf with DNN priors (masked to the legal actions
    /// captured at claim time, renormalized) and back up `value`.
    ///
    /// `value` is from the perspective of the player to move at the leaf —
    /// the evaluator's output convention.
    pub fn expand_and_backup(&mut self, leaf: u32, priors: &[f32], value: f32) {
        assert!(
            self.a.state[leaf as usize] == NodeState::Pending,
            "expand_and_backup on non-pending node ({:?})",
            self.a.state[leaf as usize]
        );
        let children = self.children(leaf);
        debug_assert!(!children.is_empty());
        let (lo, hi) = (children.start as usize, children.end as usize);

        let mut masked = std::mem::take(&mut self.priors_scratch);
        mask_and_normalize_into(priors, &self.a.action[lo..hi], &mut masked);
        // AlphaZero self-play: mix Dirichlet noise into the ROOT priors.
        if leaf == self.root {
            if let Some(noise) = self.cfg.root_noise {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    noise.seed ^ self.noise_nonce.rotate_left(17),
                );
                crate::noise::mix_noise(&mut rng, &noise, &mut masked);
            }
        }
        self.a.prior[lo..hi].copy_from_slice(&masked);
        self.priors_scratch = masked;
        self.a.state[leaf as usize] = NodeState::Expanded;
        self.backup(leaf, value);
    }

    /// Propagate `value` (leaf player's perspective) from `leaf` to the
    /// root: increment `N`, accumulate sign-alternating `W`, and release
    /// one unit of virtual loss per edge.
    pub fn backup(&mut self, leaf: u32, value: f32) {
        let mut cur = leaf;
        // W at a node is from the mover's (parent player's) perspective,
        // so the leaf itself receives -value.
        let mut sign = -1.0f64;
        loop {
            let i = cur as usize;
            self.a.n[i] += 1;
            self.a.w[i] += sign * value as f64;
            if self.a.parent[i] == NIL {
                break;
            }
            debug_assert!(self.a.vl[i] > 0, "backup without matching virtual loss");
            self.a.vl[i] = self.a.vl[i].saturating_sub(1);
            self.vl_outstanding = self.vl_outstanding.saturating_sub(1);
            cur = self.a.parent[i];
            sign = -sign;
        }
    }

    /// Undo the virtual loss applied along the path ending at `leaf`
    /// (used when a playout attempt is aborted).
    pub fn revert_path(&mut self, leaf: u32) {
        let mut cur = leaf;
        while self.a.parent[cur as usize] != NIL {
            let i = cur as usize;
            debug_assert!(self.a.vl[i] > 0, "revert without matching virtual loss");
            self.a.vl[i] = self.a.vl[i].saturating_sub(1);
            self.vl_outstanding = self.vl_outstanding.saturating_sub(1);
            cur = self.a.parent[i];
        }
    }

    // -- transpositions -----------------------------------------------------

    /// Expanded node currently indexed under position `hash`, if the
    /// transposition index is enabled and holds one. Entries reverted by
    /// a capacity eviction are filtered out by state.
    pub fn tt_lookup(&self, hash: u64) -> Option<u32> {
        let id = *self.tt.as_ref()?.get(&hash)?;
        (self.a.state[id as usize] == NodeState::Expanded).then_some(id)
    }

    /// Index the just-expanded `node` under position `hash`. No-op when
    /// the transposition index is disabled.
    pub fn tt_record(&mut self, hash: u64, node: u32) {
        debug_assert_eq!(self.a.state[node as usize], NodeState::Expanded);
        if let Some(tt) = &mut self.tt {
            tt.insert(hash, node);
        }
    }

    /// Expand a pending leaf from `src` — an expanded node holding the
    /// *same position* reached by a different move order — copying its
    /// child priors and backing up its current mean value, with no
    /// evaluator call. The leaf keeps independent visit statistics
    /// (priors/value reuse only, no cross-path stat merging, so PUCT
    /// visit counts stay sound).
    pub fn expand_from_transposition(&mut self, leaf: u32, src: u32) {
        assert!(
            self.a.state[leaf as usize] == NodeState::Pending,
            "expand_from_transposition on non-pending leaf ({:?})",
            self.a.state[leaf as usize]
        );
        assert!(
            self.a.state[src as usize] == NodeState::Expanded,
            "transposition source must be expanded ({:?})",
            self.a.state[src as usize]
        );
        let lc = self.children(leaf);
        let sc = self.children(src);
        assert_eq!(
            lc.len(),
            sc.len(),
            "same position must yield identical legal actions"
        );
        debug_assert!(
            lc.clone()
                .zip(sc.clone())
                .all(|(l, s)| self.a.action[l as usize] == self.a.action[s as usize]),
            "transposition child actions diverge: hash collision?"
        );
        let (llo, lhi) = (lc.start as usize, lc.end as usize);
        let (slo, shi) = (sc.start as usize, sc.end as usize);
        let mut masked = std::mem::take(&mut self.priors_scratch);
        masked.clear();
        masked.extend_from_slice(&self.a.prior[slo..shi]);
        // Same root-noise policy as a fresh expansion: the root's priors
        // get noise even when they arrive via a transposition.
        if leaf == self.root {
            if let Some(noise) = self.cfg.root_noise {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    noise.seed ^ self.noise_nonce.rotate_left(17),
                );
                crate::noise::mix_noise(&mut rng, &noise, &mut masked);
            }
        }
        self.a.prior[llo..lhi].copy_from_slice(&masked);
        self.priors_scratch = masked;
        self.a.state[leaf as usize] = NodeState::Expanded;
        // src's W is from the perspective of the player who moved into
        // it; same hash ⇒ same player to move at both nodes, so the
        // value for the leaf's player is -(W/N). N ≥ 1: expansion backed
        // up at least once.
        let n = self.a.n[src as usize];
        debug_assert!(n > 0, "expanded node with no visits");
        let value = (-(self.a.w[src as usize] / n as f64)) as f32;
        self.backup(leaf, value);
    }

    /// Root visit counts over the full action space plus the normalized
    /// distribution and the root value estimate (current player's view).
    pub fn action_prior(&self, action_space: usize) -> (Vec<u32>, Vec<f32>, f32) {
        let mut visits = Vec::new();
        let mut probs = Vec::new();
        let value = self.action_prior_into(action_space, &mut visits, &mut probs);
        (visits, probs, value)
    }

    /// [`Tree::action_prior`] into caller-owned buffers (no allocation
    /// once the buffers have capacity). Returns the root value estimate.
    pub fn action_prior_into(
        &self,
        action_space: usize,
        visits: &mut Vec<u32>,
        probs: &mut Vec<f32>,
    ) -> f32 {
        visits.clear();
        visits.resize(action_space, 0);
        if self.a.state[self.root as usize] == NodeState::Expanded {
            for c in self.children(self.root) {
                visits[self.a.action[c as usize] as usize] = self.a.n[c as usize];
            }
        }
        let total: u32 = visits.iter().sum();
        probs.clear();
        if total == 0 {
            probs.resize(action_space, 0.0);
        } else {
            probs.extend(visits.iter().map(|&v| v as f32 / total as f32));
        }
        let root_n = self.a.n[self.root as usize];
        if root_n == 0 {
            0.0
        } else {
            (-(self.a.w[self.root as usize] / root_n as f64)) as f32
        }
    }

    /// Find the root child reached by `action`, if the root is expanded and
    /// the action was explored.
    pub fn root_child_for(&self, action: Action) -> Option<u32> {
        if self.a.state[self.root as usize] != NodeState::Expanded {
            return None;
        }
        self.children(self.root)
            .find(|&c| self.a.action[c as usize] == action)
    }

    // -- re-rooting ---------------------------------------------------------

    /// Re-root the tree **in place** at the child reached by `action`:
    /// mark nothing, move nothing — walk the discarded region (everything
    /// outside the kept child's subtree) exactly once and return its slots
    /// to the free-list. Kept node ids stay stable; the whole operation is
    /// `O(discarded nodes)` and allocation-free in steady state.
    ///
    /// If the root is unexpanded or the action's child holds no subtree
    /// worth keeping, the tree resets in place instead (same arena, bare
    /// root). Returns `true` when a subtree was kept.
    ///
    /// Must be called between moves: panics if any virtual loss is
    /// outstanding (re-rooting under in-flight playouts would freeze
    /// their unreleased losses into the kept subtree and silently skew
    /// every later Q value).
    pub fn advance_root(&mut self, action: Action) -> bool {
        // O(1) thanks to the running counter, so the O(discarded) re-root
        // cost holds even with the guard always on.
        assert_eq!(self.vl_outstanding, 0, "advance with in-flight playouts");
        if let Some(tt) = &mut self.tt {
            // Freed slots may be recycled for other positions; dropping
            // the whole index is the only O(1)-per-entry-safe policy
            // (entries do not know which subtree their id lives in).
            tt.clear();
        }
        match self.root_child_for(action) {
            Some(keep) => {
                let old = self.root;
                let freed = self.free_subtree_except(old, keep);
                self.reclaimed_total += freed;
                self.a.parent[keep as usize] = NIL;
                self.a.action[keep as usize] = 0;
                self.a.prior[keep as usize] = 1.0;
                self.root = keep;
                // Refresh the noise nonce so a re-rooted root that is
                // still unexpanded draws fresh noise when it expands.
                // (A reused root that is already expanded keeps its mixed
                // priors — same policy as the old copy-based re-root.)
                self.noise_nonce = crate::noise::next_nonce();
                true
            }
            None => {
                self.reset_in_place();
                false
            }
        }
    }

    /// Drop every node but keep the arena's memory: the next search grows
    /// into already-reserved columns (no heap allocation up to the
    /// previous high-water mark).
    pub fn reset_in_place(&mut self) {
        debug_assert_eq!(self.vl_outstanding, 0, "reset with in-flight playouts");
        self.vl_outstanding = 0;
        if let Some(tt) = &mut self.tt {
            tt.clear();
        }
        self.reclaimed_total += self.a.live() as u64;
        self.a.clear();
        let root = self.a.alloc_block(1).expect("cleared arena fits a root");
        debug_assert_eq!(root, 0);
        self.a.prior[0] = 1.0;
        self.root = 0;
        self.noise_nonce = crate::noise::next_nonce();
    }

    /// Free the subtree of `top` except the subtree of `keep` (which must
    /// lie inside it). Visits each discarded node exactly once: the walk
    /// descends from `top` but never enters `keep`. Returns the number of
    /// slots freed.
    fn free_subtree_except(&mut self, top: u32, keep: u32) -> u64 {
        let mut stack = std::mem::take(&mut self.walk_stack);
        stack.clear();
        stack.push(top);
        let mut freed = 0u64;
        while let Some(id) = stack.pop() {
            if id == keep {
                continue; // kept subtree: neither freed nor descended into
            }
            let first = self.a.first_child[id as usize];
            let count = self.a.child_count[id as usize];
            if count > 0 {
                // The discarded node loses its block (and its slot below):
                // off the LRU list before the slots go back to the free-list.
                self.a.lru_unlink(id);
                let (lo, hi) = (first, first + count);
                if (lo..hi).contains(&keep) {
                    // The kept child shares this block with its siblings:
                    // free the ranges on either side of it.
                    self.a.free_range(lo, keep - lo);
                    self.a.free_range(keep + 1, hi - keep - 1);
                    freed += count as u64 - 1;
                } else {
                    self.a.free_range(lo, count);
                    freed += count as u64;
                }
                // Descend after freeing: only the state column is stamped,
                // child ranges stay readable until the slots are reused.
                stack.extend(lo..hi);
            }
        }
        // `top`'s own slot belongs to no freed block (its old parent block
        // is outside the walk).
        self.a.free_range(top, 1);
        freed += 1;
        self.walk_stack = stack;
        freed
    }

    /// Evict the coldest subtree: walk the intrusive LRU list from the
    /// tail and detach the first block owner that is neither the root
    /// nor on any in-flight path. The victim's **whole subtree** goes
    /// back to the free-list (`O(evicted)` — no tree-wide walk) and the
    /// victim reverts to [`NodeState::Unexpanded`] keeping its visit
    /// statistics. Returns `false` when no candidate exists.
    ///
    /// Safety of taking the victim alone as the quiescence witness:
    /// every in-flight selection path holds one unit of virtual loss on
    /// each *descended-into* node, so `vl == 0` on a non-root node means
    /// no in-flight path passes through it — and therefore none through
    /// any of its descendants (their paths would traverse the victim).
    /// A pending evaluation inside the subtree is likewise impossible:
    /// its claim path still holds virtual loss on the victim's edge.
    /// The root's immediate children are never freed by eviction (their
    /// only proper ancestor is the root, which is never a victim), so
    /// root statistics survive any eviction schedule intact.
    fn evict_coldest(&mut self) -> bool {
        let mut v = self.a.lru_tail;
        while v != NIL {
            if v != self.root
                && self.a.state[v as usize] == NodeState::Expanded
                && self.a.vl[v as usize] == 0
            {
                break;
            }
            v = self.a.lru_prev[v as usize];
        }
        if v == NIL {
            return false;
        }
        if let Some(tt) = &mut self.tt {
            // Freed slots may be recycled for other positions; eviction
            // at the bound is the memory backstop, so dropping the index
            // wholesale is the same policy as re-rooting.
            tt.clear();
        }
        let children = self.children(v);
        let child_sum: u32 = children.clone().map(|c| self.a.n[c as usize]).sum();
        let mut stack = std::mem::take(&mut self.walk_stack);
        stack.clear();
        stack.extend(children.clone());
        self.a.lru_unlink(v);
        self.a.free_range(children.start, children.len() as u32);
        let mut freed = children.len() as u64;
        // Descend after freeing: only the state column is stamped, so
        // child ranges of already-freed slots stay readable until reuse
        // (same walk discipline as `free_subtree_except`).
        while let Some(id) = stack.pop() {
            let first = self.a.first_child[id as usize];
            let count = self.a.child_count[id as usize];
            if count > 0 {
                self.a.lru_unlink(id);
                self.a.free_range(first, count);
                freed += count as u64;
                stack.extend(first..first + count);
            }
        }
        self.walk_stack = stack;
        // Stats-preserving detach: the victim keeps `N`/`W`; `n_detached`
        // absorbs the visits that descended into the discarded children
        // plus the one extra self-visit a future re-expansion will add,
        // keeping the visit identity in `check_invariants` exact.
        self.a.first_child[v as usize] = NIL;
        self.a.child_count[v as usize] = 0;
        self.a.state[v as usize] = NodeState::Unexpanded;
        self.a.n_detached[v as usize] = self.a.n_detached[v as usize]
            .saturating_add(child_sum)
            .saturating_add(1);
        self.evicted_nodes += freed;
        self.reclaimed_total += freed;
        true
    }

    /// Copy the subtree rooted at `new_root` into a fresh arena, making it
    /// the root. Statistics (`N`, `W`, priors, expansion state) are
    /// preserved; the new root's edge data is reset (it no longer has a
    /// parent).
    ///
    /// This is the **copy-based re-rooting reference**, superseded by the
    /// in-place [`Tree::advance_root`] on the hot path and retained as the
    /// independent oracle for the differential re-root proptest
    /// (`tests/proptest_reroot.rs`).
    ///
    /// Must be called between moves: panics if any virtual loss is
    /// outstanding inside the subtree.
    pub fn extract_subtree(&self, new_root: u32) -> Tree {
        let mut out = Tree::new(self.cfg);
        assert_eq!(
            self.a.vl[new_root as usize], 0,
            "extract_subtree with in-flight playouts"
        );
        out.a.n[0] = self.a.n[new_root as usize];
        out.a.w[0] = self.a.w[new_root as usize];
        out.a.state[0] = self.a.state[new_root as usize];
        out.a.n_detached[0] = self.a.n_detached[new_root as usize];
        // BFS copy: parents before children, block by block.
        let mut queue = std::collections::VecDeque::from([(new_root, 0u32)]);
        while let Some((old, new)) = queue.pop_front() {
            let children = self.children(old);
            if children.is_empty() {
                continue;
            }
            let count = children.len();
            let first = out
                .a
                .alloc_block(count)
                .expect("copy target within capacity");
            out.a.first_child[new as usize] = first;
            out.a.child_count[new as usize] = count as u32;
            // Thread the copy's LRU list too (membership == owns a child
            // block); BFS order stands in for the original recency order,
            // which the source tree no longer remembers per-copy.
            out.a.lru_push_front(new);
            for (i, oc) in children.enumerate() {
                assert_eq!(
                    self.a.vl[oc as usize], 0,
                    "extract_subtree with in-flight playouts"
                );
                let nc = first + i as u32;
                let (o, n) = (oc as usize, nc as usize);
                out.a.parent[n] = new;
                out.a.action[n] = self.a.action[o];
                out.a.prior[n] = self.a.prior[o];
                out.a.n[n] = self.a.n[o];
                out.a.w[n] = self.a.w[o];
                out.a.state[n] = self.a.state[o];
                out.a.n_detached[n] = self.a.n_detached[o];
                queue.push_back((oc, nc));
            }
        }
        out
    }

    /// Replace the priors of `node`'s children with `masked` (one entry per
    /// child, already legal-masked and normalized) and add `dv` to the
    /// subtree values along the path to the root *without* changing visit
    /// counts. Used by speculative search to correct a node first expanded
    /// with a cheap model once the main model's evaluation arrives.
    pub fn correct_expansion(&mut self, node: u32, masked: &[f32], dv: f32) {
        let children = self.children(node);
        assert_eq!(
            children.len(),
            masked.len(),
            "corrected priors must cover every child"
        );
        self.a.prior[children.start as usize..children.end as usize].copy_from_slice(masked);
        // Same sign convention as `backup`: the node's own W is from the
        // perspective of the player who moved into it.
        let mut cur = node;
        let mut sign = -1.0f64;
        loop {
            let i = cur as usize;
            self.a.w[i] += sign * dv as f64;
            if self.a.parent[i] == NIL {
                break;
            }
            cur = self.a.parent[i];
            sign = -sign;
        }
    }

    /// Legal actions captured when `node` was claimed/expanded, in child
    /// order (empty for unexpanded nodes).
    pub fn child_actions(&self, node: u32) -> Vec<Action> {
        self.children(node)
            .map(|c| self.a.action[c as usize])
            .collect()
    }

    /// Sum of outstanding virtual losses (0 when no playouts in flight).
    pub fn outstanding_vl(&self) -> u64 {
        self.a
            .vl
            .iter()
            .zip(&self.a.state)
            .filter(|(_, s)| !matches!(s, NodeState::Free))
            .map(|(&v, _)| v as u64)
            .sum()
    }

    /// Consistency check: walks the tree from the root and asserts the
    /// structural invariants — every live node is reachable exactly once
    /// (free-list accounting matches), child/parent links agree, no slot
    /// on a path is free, all virtual losses are released, the intrusive
    /// LRU list is exactly a permutation of the live block-owning nodes,
    /// the free-list is exactly the free slots (disjoint ranges, bitmap
    /// and counts agreeing, each bucket's coalesced prefix ascending),
    /// and the visit identity holds **exactly**: for every expanded node
    /// `N == Σ N(children) + n_detached + (0|1)`, and for a detached
    /// node awaiting re-expansion `N == n_detached`. Stats-preserving
    /// detach records discarded-subtree visits in `n_detached`, so the
    /// identity needs no relaxed mode once eviction has occurred.
    ///
    /// Always compiled; the `invariants` cargo feature additionally runs
    /// it at the end of every search in every scheme.
    pub fn check_invariants(&self) {
        assert_eq!(self.outstanding_vl(), 0, "dangling virtual loss");
        assert_eq!(self.vl_outstanding, 0, "vl running counter drifted");

        // LRU list first: consistent prev/next links, no cycle, no free
        // slot, every member owns a child block. The reachability walk
        // below then checks the converse (every block owner is listed),
        // making the list exactly a permutation of the block owners.
        let hw = self.a.high_water();
        let mut on_list = vec![false; hw];
        let mut list_len = 0usize;
        let mut prev = NIL;
        let mut cur = self.a.lru_head;
        while cur != NIL {
            let i = cur as usize;
            assert!(!on_list[i], "node {cur}: appears twice in the LRU list");
            on_list[i] = true;
            assert_eq!(self.a.lru_prev[i], prev, "node {cur}: LRU prev link");
            assert!(
                !matches!(self.a.state[i], NodeState::Free),
                "node {cur}: free slot on the LRU list"
            );
            assert!(
                self.a.child_count[i] > 0,
                "node {cur}: LRU member without a child block"
            );
            list_len += 1;
            assert!(list_len <= hw, "LRU list cycle");
            prev = cur;
            cur = self.a.lru_next[i];
        }
        assert_eq!(self.a.lru_tail, prev, "LRU tail link");

        let mut stack = vec![self.root];
        let mut reached = 0usize;
        let mut block_owners = 0usize;
        while let Some(id) = stack.pop() {
            reached += 1;
            let i = id as usize;
            assert!(
                !matches!(self.a.state[i], NodeState::Free),
                "node {id}: free slot reachable from the root"
            );
            let children = self.children(id);
            if !children.is_empty() {
                block_owners += 1;
                assert!(
                    on_list[i],
                    "node {id}: owns a child block but is not on the LRU list"
                );
            }
            if self.a.state[i] == NodeState::Expanded {
                assert!(!children.is_empty(), "expanded node {id} without children");
                let child_sum: u32 = children.clone().map(|c| self.a.n[c as usize]).sum();
                let accounted = child_sum as u64 + self.a.n_detached[i] as u64;
                // Every visit to an expanded node either terminated here
                // (the expansion visit), descended into a current child,
                // or descended into a child block since detached.
                assert!(
                    self.a.n[i] as u64 >= accounted,
                    "node {id}: N={} < children {child_sum} + detached {}",
                    self.a.n[i],
                    self.a.n_detached[i]
                );
                assert!(
                    self.a.n[i] as u64 - accounted <= 1,
                    "node {id}: more than one self-visit: N={} children={child_sum} detached={}",
                    self.a.n[i],
                    self.a.n_detached[i]
                );
            } else if !matches!(self.a.state[i], NodeState::Terminal(_)) && self.a.n[i] > 0 {
                // A leaf with visits must be a detached former interior
                // node: all of its visits are accounted by `n_detached`.
                assert_eq!(
                    self.a.n[i], self.a.n_detached[i],
                    "node {id}: visited leaf whose visits are not detach-accounted"
                );
            }
            for c in children {
                assert_eq!(self.a.parent[c as usize], id, "parent link of {c}");
                stack.push(c);
            }
        }
        assert_eq!(
            reached,
            self.len(),
            "live-node accounting: reachable {reached} != live {}",
            self.len()
        );
        assert_eq!(
            block_owners, list_len,
            "LRU membership: {block_owners} block owners vs {list_len} listed"
        );
        self.a.check_free_list();
    }
}

/// Terminal value from the perspective of the player to move at the state.
pub fn terminal_value<G: Game>(status: Status, game: &G) -> f32 {
    status.reward_for(game.to_move())
}

/// Mask full-action-space `priors` down to `legal` actions and normalize;
/// falls back to uniform when the legal prior mass vanishes.
pub(crate) fn mask_and_normalize(priors: &[f32], legal: &[Action]) -> Vec<f32> {
    let mut out = Vec::with_capacity(legal.len());
    mask_and_normalize_into(priors, legal, &mut out);
    out
}

/// [`mask_and_normalize`] into a caller-owned buffer (no allocation once
/// the buffer has capacity).
pub(crate) fn mask_and_normalize_into(priors: &[f32], legal: &[Action], out: &mut Vec<f32>) {
    let mut total: f32 = legal.iter().map(|&a| priors[a as usize].max(0.0)).sum();
    let uniform = total <= 1e-8 || !total.is_finite();
    if uniform {
        total = legal.len() as f32;
    }
    out.clear();
    out.extend(legal.iter().map(|&a| {
        if uniform {
            1.0 / total
        } else {
            priors[a as usize].max(0.0) / total
        }
    }));
}

#[cfg(test)]
#[allow(clippy::clone_on_copy)] // Copy test games cloned for symmetry with non-Copy ones
mod tests {
    use super::*;
    use games::tictactoe::TicTacToe;

    fn cfg(playouts: usize) -> MctsConfig {
        MctsConfig {
            playouts,
            ..Default::default()
        }
    }

    fn uniform_priors(n: usize) -> Vec<f32> {
        vec![1.0 / n as f32; n]
    }

    /// Grow a tree with `playouts` uniform-prior playouts from `base`.
    fn grow(t: &mut Tree, base: &TicTacToe, playouts: usize) {
        for _ in 0..playouts {
            let mut g = base.clone();
            let (leaf, out) = t.select(&mut g);
            if out == SelectOutcome::NeedsEval {
                t.expand_and_backup(leaf, &uniform_priors(9), 0.0);
            }
        }
    }

    #[test]
    fn fresh_tree_has_unexpanded_root() {
        let t = Tree::new(cfg(10));
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.state(0), NodeState::Unexpanded);
    }

    #[test]
    fn first_select_claims_root() {
        let mut t = Tree::new(cfg(10));
        let mut g = TicTacToe::new();
        let (leaf, out) = t.select(&mut g);
        assert_eq!(leaf, 0);
        assert_eq!(out, SelectOutcome::NeedsEval);
        assert_eq!(t.state(0), NodeState::Pending);
        // The claim pre-allocated the child block with the legal actions.
        assert_eq!(t.children(0).len(), 9);
        assert_eq!(t.child_actions(0), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn expand_creates_children_for_legal_moves() {
        let mut t = Tree::new(cfg(10));
        let mut g = TicTacToe::new();
        let _ = t.select(&mut g);
        t.expand_and_backup(0, &uniform_priors(9), 0.3);
        assert_eq!(t.children(0).len(), 9);
        assert_eq!(t.n(0), 1);
        // Root W accumulates from the "mover into root" perspective: -v.
        assert!((t.w(0) + 0.3).abs() < 1e-6);
        t.check_invariants();
    }

    #[test]
    fn second_select_descends_and_applies_vl() {
        let mut t = Tree::new(cfg(10));
        let mut g = TicTacToe::new();
        let _ = t.select(&mut g);
        t.expand_and_backup(0, &uniform_priors(9), 0.0);
        let mut g2 = TicTacToe::new();
        let (leaf, out) = t.select(&mut g2);
        assert_ne!(leaf, 0);
        assert_eq!(out, SelectOutcome::NeedsEval);
        assert_eq!(t.vl(leaf), 1, "virtual loss on traversed edge");
        assert_eq!(g2.move_count(), 1, "game advanced one ply");
        t.expand_and_backup(leaf, &uniform_priors(9), 0.5);
        assert_eq!(t.vl(leaf), 0, "virtual loss released by backup");
        t.check_invariants();
    }

    #[test]
    fn pending_leaf_reports_busy_and_reverts() {
        let mut t = Tree::new(cfg(10));
        let mut g = TicTacToe::new();
        let _ = t.select(&mut g);
        // Root pending; another selection attempt must see Busy and leave
        // no dangling VL.
        let mut g2 = TicTacToe::new();
        let (leaf, out) = t.select(&mut g2);
        assert_eq!(out, SelectOutcome::Busy);
        assert_eq!(leaf, 0);
        assert_eq!(t.outstanding_vl(), 0);
    }

    #[test]
    fn virtual_loss_diverts_second_playout() {
        // With constant VL, an in-flight playout through the best child
        // must push the next selection to a different child.
        let mut t = Tree::new(cfg(10));
        let mut g = TicTacToe::new();
        let _ = t.select(&mut g);
        t.expand_and_backup(0, &uniform_priors(9), 0.0);
        let mut g1 = TicTacToe::new();
        let (leaf1, _) = t.select(&mut g1);
        let mut g2 = TicTacToe::new();
        let (leaf2, _) = t.select(&mut g2);
        assert_ne!(leaf1, leaf2, "VL should steer workers apart");
        t.revert_path(leaf1);
        t.revert_path(leaf2);
        // Pending claims stay (they model in-flight evals); just check VL.
        assert_eq!(t.outstanding_vl(), 0);
    }

    #[test]
    fn terminal_nodes_back_up_true_outcome() {
        // Play a nearly-finished game: X has two in a row; drive search to
        // discover the winning terminal.
        let mut base = TicTacToe::new();
        for a in [0u16, 3, 1, 4] {
            base.apply(a);
        }
        // X to move, playing 2 wins.
        let mut t = Tree::new(cfg(100));
        let mut g = base.clone();
        let _ = t.select(&mut g);
        let legal = base.legal_actions();
        t.expand_and_backup(0, &uniform_priors(9), 0.0);
        assert_eq!(t.children(0).len(), legal.len());

        // Run many playouts with uniform priors; terminal discovery should
        // make the winning move dominate.
        grow(&mut t, &base, 200);
        let (visits, probs, value) = t.action_prior(9);
        assert_eq!(
            tensor::ops::argmax(&probs),
            2,
            "winning move must dominate: visits {visits:?}"
        );
        assert!(value > 0.5, "root value should favor X, got {value}");
        t.check_invariants();
    }

    #[test]
    fn priors_masked_and_renormalized() {
        let mut t = Tree::new(cfg(10));
        let mut base = TicTacToe::new();
        base.apply(4); // center occupied → action 4 illegal
        let mut g = base.clone();
        let _ = t.select(&mut g);
        let mut priors = vec![0.0f32; 9];
        priors[4] = 0.9; // mass on an illegal action
        priors[0] = 0.05;
        priors[1] = 0.05;
        t.expand_and_backup(0, &priors, 0.0);
        let total: f32 = t.children(0).map(|c| t.prior(c)).sum();
        assert!((total - 1.0).abs() < 1e-5, "renormalized priors sum to 1");
        assert!(t.children(0).all(|c| t.action(c) != 4));
    }

    #[test]
    fn zero_prior_mass_falls_back_to_uniform() {
        let mut t = Tree::new(cfg(10));
        let mut g = TicTacToe::new();
        let _ = t.select(&mut g);
        t.expand_and_backup(0, &[0.0; 9], 0.0);
        for c in t.children(0) {
            assert!((t.prior(c) - 1.0 / 9.0).abs() < 1e-6);
        }
    }

    #[test]
    fn backup_alternates_signs() {
        let mut t = Tree::new(cfg(10));
        let mut g = TicTacToe::new();
        let _ = t.select(&mut g);
        t.expand_and_backup(0, &uniform_priors(9), 0.0);
        let mut g2 = TicTacToe::new();
        let (leaf, _) = t.select(&mut g2);
        t.expand_and_backup(leaf, &uniform_priors(9), 1.0);
        // Leaf: -1 (value from leaf player's view is +1 ⇒ mover's view -1).
        assert!((t.w(leaf) + 1.0).abs() < 1e-6);
        // Root (one level up): +1, plus 0 from its own expansion backup.
        assert!((t.w(0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn action_prior_normalizes_to_one() {
        let mut t = Tree::new(cfg(50));
        let base = TicTacToe::new();
        grow(&mut t, &base, 51);
        let (visits, probs, _) = t.action_prior(9);
        assert_eq!(visits.iter().sum::<u32>(), 51 - 1);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        t.check_invariants();
    }

    #[test]
    fn extract_subtree_preserves_statistics() {
        let mut t = Tree::new(cfg(100));
        let base = TicTacToe::new();
        grow(&mut t, &base, 61);
        let child = t.children(0).nth(3).unwrap();
        let sub = t.extract_subtree(child);
        assert_eq!(sub.n(0), t.n(child));
        assert!((sub.w(0) - t.w(child)).abs() < 1e-9);
        assert_eq!(sub.children(0).len(), t.children(child).len());
        // Child priors carried over in order.
        for (sc, tc) in sub.children(0).zip(t.children(child)) {
            assert_eq!(sub.prior(sc), t.prior(tc));
            assert_eq!(sub.action(sc), t.action(tc));
            assert_eq!(sub.n(sc), t.n(tc));
        }
        sub.check_invariants();
    }

    #[test]
    fn extract_subtree_of_unexpanded_child_is_fresh() {
        let mut t = Tree::new(cfg(10));
        let mut g = TicTacToe::new();
        let _ = t.select(&mut g);
        t.expand_and_backup(0, &uniform_priors(9), 0.0);
        let child = t.children(0).next().unwrap();
        let sub = t.extract_subtree(child);
        assert_eq!(sub.len(), 1);
        assert_eq!(sub.state(0), NodeState::Unexpanded);
    }

    #[test]
    fn root_child_for_finds_action() {
        let mut t = Tree::new(cfg(10));
        let mut g = TicTacToe::new();
        let _ = t.select(&mut g);
        t.expand_and_backup(0, &uniform_priors(9), 0.0);
        let c = t.root_child_for(4).expect("center child exists");
        assert_eq!(t.action(c), 4);
        assert_eq!(t.root_child_for(100), None);
    }

    #[test]
    fn correct_expansion_updates_priors_and_values() {
        let mut t = Tree::new(cfg(10));
        let mut g = TicTacToe::new();
        let _ = t.select(&mut g);
        t.expand_and_backup(0, &uniform_priors(9), 0.2);
        let w_before = t.w(0);
        let new_priors = vec![1.0 / 9.0; 9];
        t.correct_expansion(0, &new_priors, 0.5);
        // Root W shifts by -dv (mover's perspective).
        assert!((t.w(0) - (w_before - 0.5)).abs() < 1e-6);
        // N unchanged.
        assert_eq!(t.n(0), 1);
    }

    #[test]
    fn visit_tracking_vl_mode_also_diverges() {
        let mut t = Tree::new(MctsConfig {
            virtual_loss: VirtualLoss::VisitTracking,
            ..cfg(10)
        });
        let mut g = TicTacToe::new();
        let _ = t.select(&mut g);
        t.expand_and_backup(0, &uniform_priors(9), 0.0);
        let mut g1 = TicTacToe::new();
        let (l1, _) = t.select(&mut g1);
        let mut g2 = TicTacToe::new();
        let (l2, _) = t.select(&mut g2);
        assert_ne!(l1, l2, "unobserved-count VL must also steer apart");
        t.revert_path(l1);
        t.revert_path(l2);
        assert_eq!(t.outstanding_vl(), 0);
    }

    // -- in-place re-rooting & capacity bound ------------------------------

    #[test]
    fn advance_root_matches_copy_reroot() {
        let mut t = Tree::new(cfg(100));
        let base = TicTacToe::new();
        grow(&mut t, &base, 80);
        let played = 3u16;
        let child = t.root_child_for(played).unwrap();
        let reference = t.extract_subtree(child);
        let live_before = t.len();
        assert!(t.advance_root(played));

        assert_eq!(t.len(), reference.len(), "same live node count");
        assert_eq!(t.n(t.root()), reference.n(0));
        assert!((t.w(t.root()) - reference.w(0)).abs() < 1e-12);
        assert_eq!(t.parent(t.root()), NIL);
        // Structural equality, pairwise over BFS order.
        let mut pairs = vec![(t.root(), 0u32)];
        while let Some((a, b)) = pairs.pop() {
            assert_eq!(t.state(a), reference.state(b));
            assert_eq!(t.children(a).len(), reference.children(b).len());
            for (ca, cb) in t.children(a).zip(reference.children(b)) {
                assert_eq!(t.action(ca), reference.action(cb));
                assert_eq!(t.prior(ca), reference.prior(cb));
                assert_eq!(t.n(ca), reference.n(cb));
                pairs.push((ca, cb));
            }
        }
        // Everything discarded went to the free-list, nothing leaked.
        let s = t.stats();
        assert_eq!(s.live + s.free, s.high_water);
        assert_eq!(s.reclaimed_total, (live_before - t.len()) as u64);
        t.check_invariants();
    }

    #[test]
    fn advance_root_on_unexplored_action_resets_in_place() {
        let mut t = Tree::new(cfg(10));
        // Root never expanded: advance falls back to a bare root.
        assert!(!t.advance_root(4));
        assert_eq!(t.len(), 1);
        assert_eq!(t.state(t.root()), NodeState::Unexpanded);
        // And the tree still searches fine afterwards.
        grow(&mut t, &TicTacToe::new(), 20);
        t.check_invariants();
    }

    #[test]
    fn advance_root_reuses_freed_slots() {
        let mut t = Tree::new(cfg(200));
        let mut game = TicTacToe::new();
        grow(&mut t, &game, 120);
        let high_water_after_first = t.stats().high_water;
        // Two more (search, advance) cycles: the arena recycles freed
        // blocks, so the high-water mark stays close to one move's tree.
        for _ in 0..2 {
            let (visits, _, _) = t.action_prior(9);
            let a = (0..9u16).max_by_key(|&a| visits[a as usize]).unwrap();
            t.advance_root(a);
            game.apply(a);
            if game.status().is_terminal() {
                break;
            }
            grow(&mut t, &game, 120);
            t.check_invariants();
        }
        assert!(
            t.stats().high_water <= 2 * high_water_after_first,
            "recycling keeps memory near one move's worth: {} vs {}",
            t.stats().high_water,
            high_water_after_first
        );
        assert!(t.stats().reclaimed_total > 0);
    }

    #[test]
    fn byte_bound_evicts_coldest_by_default() {
        let slot = NodeArena::slot_bytes();
        let cap = 200usize;
        let budget = cap * slot;
        let mut t = Tree::new(MctsConfig {
            arena_budget_bytes: Some(budget),
            ..cfg(500)
        });
        let base = TicTacToe::new();
        grow(&mut t, &base, 500);
        let s = t.stats();
        assert!(
            s.high_water <= cap,
            "hard bound respected: {} > {cap}",
            s.high_water
        );
        assert!(
            s.bytes <= budget,
            "byte bound respected: {} > {budget}",
            s.bytes
        );
        assert_eq!(s.bytes, s.high_water * slot);
        assert!(s.evicted > 0, "bounded search must have evicted");
        t.check_invariants();
        // Root statistics survive eviction untouched: every playout is
        // still accounted at the root, and the distribution is sane.
        let (visits, probs, _) = t.action_prior(9);
        assert_eq!(visits.iter().sum::<u32>(), 500 - 1);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn eviction_preserves_detached_stats_and_allows_reexpansion() {
        // Drive a bounded LRU search, then keep searching: detached
        // victims must come back (re-expansion) without tripping the
        // exact visit identity.
        let mut t = Tree::new(MctsConfig {
            arena_budget_bytes: Some(150 * NodeArena::slot_bytes()),
            ..cfg(800)
        });
        let base = TicTacToe::new();
        grow(&mut t, &base, 400);
        let evicted_mid = t.stats().evicted;
        assert!(evicted_mid > 0);
        grow(&mut t, &base, 400);
        assert!(t.stats().evicted > evicted_mid, "eviction keeps cycling");
        t.check_invariants();
        assert_eq!(t.n(t.root()), 800, "root visits intact across evictions");
    }

    // -- transposition index ------------------------------------------------

    /// Drive playouts the way a transposition-aware scheme does: look up
    /// the position hash before evaluating, reuse on hit, record on miss.
    fn grow_tt(t: &mut Tree, base: &TicTacToe, playouts: usize) -> u64 {
        let mut tt_hits = 0;
        for _ in 0..playouts {
            let mut g = base.clone();
            let (leaf, out) = t.select(&mut g);
            if out == SelectOutcome::NeedsEval {
                if let Some(src) = t.tt_lookup(g.hash()) {
                    t.expand_from_transposition(leaf, src);
                    tt_hits += 1;
                } else {
                    t.expand_and_backup(leaf, &uniform_priors(9), 0.0);
                    t.tt_record(g.hash(), leaf);
                }
            }
        }
        tt_hits
    }

    fn tt_cfg(playouts: usize) -> MctsConfig {
        MctsConfig {
            transpositions: true,
            ..cfg(playouts)
        }
    }

    #[test]
    fn transpositions_fire_and_preserve_invariants() {
        let mut t = Tree::new(tt_cfg(400));
        let hits = grow_tt(&mut t, &TicTacToe::new(), 400);
        // TicTacToe transposes heavily from depth 3 on (e.g. X0,O1,X2 ==
        // X2,O1,X0): 400 playouts must reuse at least one expansion.
        assert!(hits > 0, "no transpositions in 400 tictactoe playouts");
        assert_eq!(t.outstanding_vl(), 0);
        t.check_invariants();
        let (visits, probs, _) = t.action_prior(9);
        assert_eq!(visits.iter().sum::<u32>(), 400 - 1);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn transposition_copies_priors_and_value() {
        // Two claimed Connect-4 siblings: every depth-1 state has the
        // identical legal set (all 7 columns), so the positional copy in
        // expand_from_transposition is well-defined. Expanding the second
        // leaf from the first must copy priors exactly and back up
        // -(W/N) without an evaluator call.
        use games::connect4::Connect4;
        let mut t = Tree::new(tt_cfg(10));
        let base = Connect4::new();
        let mut g = base.clone();
        let _ = t.select(&mut g);
        t.expand_and_backup(0, &[1.0 / 7.0; 7], 0.0);
        let mut g1 = base.clone();
        let (l1, o1) = t.select(&mut g1);
        assert_eq!(o1, SelectOutcome::NeedsEval);
        let mut priors = vec![0.0f32; 7];
        for (i, p) in priors.iter_mut().enumerate() {
            *p = (i + 1) as f32 / 28.0;
        }
        t.expand_and_backup(l1, &priors, 0.8);
        t.tt_record(g1.hash(), l1);
        let mut g2 = base.clone();
        let (l2, o2) = t.select(&mut g2);
        assert_eq!(o2, SelectOutcome::NeedsEval);
        assert_ne!(l1, l2);
        let src = t.tt_lookup(g1.hash()).expect("recorded entry");
        assert_eq!(src, l1);
        let n_before = t.n(l2);
        t.expand_from_transposition(l2, src);
        assert_eq!(t.state(l2), NodeState::Expanded);
        assert_eq!(t.n(l2), n_before + 1);
        // Value backed up at l2 is -(W/N) of src; the leaf's own W gets
        // -value, i.e. +W(src)/N(src).
        let mean_src = t.w(l1) / t.n(l1) as f64;
        assert!((t.w(l2) - mean_src).abs() < 1e-6);
        // Priors copied positionally.
        for (cs, cl) in t.children(src).zip(t.children(l2)) {
            assert_eq!(t.prior(cs), t.prior(cl));
        }
        assert_eq!(t.outstanding_vl(), 0);
        t.check_invariants();
    }

    #[test]
    fn advance_root_clears_transposition_index() {
        let mut t = Tree::new(tt_cfg(200));
        let base = TicTacToe::new();
        grow_tt(&mut t, &base, 150);
        let mut s = base.clone();
        s.apply(0);
        // Some depth-1 hash is indexed before the re-root…
        let indexed: Vec<u64> = (0..9u16)
            .filter_map(|a| {
                let mut g = base.clone();
                g.apply(a);
                t.tt_lookup(g.hash()).map(|_| g.hash())
            })
            .collect();
        assert!(!indexed.is_empty(), "depth-1 states should be indexed");
        t.advance_root(0);
        for h in indexed {
            assert_eq!(t.tt_lookup(h), None, "stale entry survived re-root");
        }
        // And the tree keeps searching correctly from the new root.
        grow_tt(&mut t, &s, 100);
        t.check_invariants();
    }

    #[test]
    fn disabled_transpositions_never_index() {
        let mut t = Tree::new(cfg(50));
        let mut g = TicTacToe::new();
        let _ = t.select(&mut g);
        t.expand_and_backup(0, &uniform_priors(9), 0.0);
        t.tt_record(g.hash(), 0); // silently ignored
        assert_eq!(t.tt_lookup(g.hash()), None);
    }

    #[test]
    fn reset_in_place_keeps_arena_memory() {
        let mut t = Tree::new(cfg(100));
        grow(&mut t, &TicTacToe::new(), 60);
        let hw = t.stats().high_water;
        assert!(hw > 1);
        t.reset_in_place();
        assert_eq!(t.len(), 1);
        assert_eq!(t.stats().high_water, 1, "columns truncated to the root");
        // Regrowing reuses the reserved memory (no panic, same shape).
        grow(&mut t, &TicTacToe::new(), 60);
        assert_eq!(t.stats().high_water, hw, "deterministic regrowth");
        t.check_invariants();
    }

    // -- select kernels ------------------------------------------------------

    /// An owned child block for the kernel tests.
    #[derive(Clone)]
    struct Block {
        prior: Vec<f32>,
        n: Vec<u32>,
        vl: Vec<u32>,
        w: Vec<f64>,
    }

    impl Block {
        /// `count` children nothing has visited, uniform priors.
        fn unvisited(count: usize) -> Self {
            Block {
                prior: vec![1.0 / count as f32; count],
                n: vec![0; count],
                vl: vec![0; count],
                w: vec![0.0; count],
            }
        }

        /// The same with distinct pseudo-random priors and every
        /// `stride`-th child (from `first`) visited.
        fn sparse(count: usize, first: usize, stride: usize, salt: u64) -> Self {
            let mut b = Block::unvisited(count);
            let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for p in &mut b.prior {
                *p = (next() % 1000) as f32 / 1000.0 / count as f32;
            }
            for i in (first..count).step_by(stride) {
                b.n[i] = (next() % 50) as u32;
                b.vl[i] = (next() % 3) as u32;
                b.w[i] = (next() % 2001) as f64 / 1000.0 - 1.0;
            }
            b
        }

        fn cols(&self) -> ChildColumns<'_> {
            ChildColumns {
                prior: &self.prior,
                n: &self.n,
                vl: &self.vl,
                w: &self.w,
            }
        }
    }

    /// Every kernel this host can run must pick the scalar oracle's child
    /// and produce its scores bit for bit. Returns the pick.
    fn assert_kernels_agree(cfg: &MctsConfig, b: &Block, what: &str) -> usize {
        let count = b.prior.len();
        let mut want = vec![0f32; count];
        let pick = SelectKernel::SCALAR.pick(cfg, b.cols(), Some(&mut want));
        for (name, kernel) in SelectKernel::compiled() {
            let Some(kernel) = kernel else { continue };
            let mut got = vec![f32::NAN; count];
            assert_eq!(
                kernel.pick(cfg, b.cols(), Some(&mut got)),
                pick,
                "{name} pick, {what}, {count} children"
            );
            let bits = |s: &[f32]| s.iter().map(|u| u.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{name} scores, {what}");
            assert_eq!(
                kernel.pick(cfg, b.cols(), None),
                pick,
                "{name} without scores"
            );
        }
        pick
    }

    #[test]
    fn select_kernels_agree_bitwise() {
        println!(
            "select kernel dispatched on this host: {}",
            select_kernel_name()
        );
        for (name, kernel) in SelectKernel::compiled() {
            if kernel.is_none() {
                println!("host has no {name}: that kernel is skipped");
            }
        }
        let policies = [
            VirtualLoss::Constant(1.0),
            VirtualLoss::Constant(0.3),
            VirtualLoss::VisitTracking,
        ];
        for virtual_loss in policies {
            for q_init in [0.0, -0.25, 0.6] {
                let cfg = MctsConfig {
                    virtual_loss,
                    q_init,
                    ..Default::default()
                };
                // Every count up to 300 (all residues mod 8, below and
                // above one group), mostly-unvisited blocks.
                for count in 1..=300usize {
                    let stride = 1 + count % 11;
                    let b = Block::sparse(count, count % 7, stride, count as u64);
                    assert_kernels_agree(&cfg, &b, "sparse");
                    // Exact ties everywhere: the lowest offset wins.
                    let pick = assert_kernels_agree(&cfg, &Block::unvisited(count), "all tied");
                    assert_eq!(pick, 0, "uniform unvisited block of {count}");
                }
                // Dense blocks: every group takes the f64 path.
                for count in [8, 9, 64, 77, 225] {
                    assert_kernels_agree(&cfg, &Block::sparse(count, 0, 1, 7), "dense");
                }
            }
        }
    }

    #[test]
    fn select_kernels_agree_on_ties_and_non_finite_values() {
        let cfg = MctsConfig::default();
        // Two equal maxima: in different lanes (3 and 12), in one lane (5
        // and 13), in the vector part and the scalar tail (2 and 18).
        for (a, b) in [(3, 12), (5, 13), (2, 18)] {
            let mut block = Block::unvisited(19);
            for i in [a, b] {
                (block.n[i], block.w[i]) = (4, 400.0); // Q = 100 beats any exploration term
            }
            assert_eq!(assert_kernels_agree(&cfg, &block, "two maxima"), a);
        }
        // NaN never wins, wherever it sits; ±inf compare as numbers.
        for count in [5, 8, 21, 64] {
            for at in [0, count / 2, count - 1] {
                for (w, wins) in [
                    (f64::NAN, false),
                    (f64::INFINITY, true),
                    (f64::NEG_INFINITY, false),
                ] {
                    let mut block = Block::sparse(count, 1, 3, at as u64);
                    (block.n[at], block.w[at]) = (2, w);
                    let pick = assert_kernels_agree(&cfg, &block, "non-finite w");
                    assert_eq!(pick == at, wins, "w = {w} at {at} of {count}");
                }
            }
            // No score above -inf at all: offset 0.
            let mut block = Block::unvisited(count);
            block.prior.fill(f32::NAN);
            assert_eq!(assert_kernels_agree(&cfg, &block, "all NaN"), 0);
            block.prior.fill(0.0);
            block.n.fill(1);
            block.w.fill(f64::NEG_INFINITY);
            assert_eq!(assert_kernels_agree(&cfg, &block, "all -inf"), 0);
        }
    }

    #[test]
    fn select_kernels_agree_at_the_edge_of_the_signed_range() {
        // The vector lanes convert counts as signed integers. A count of
        // exactly i32::MAX still goes through them; one past it sends the
        // whole block to the scalar loop. Either way: the oracle's answer.
        let max = i32::MAX as u32;
        let edges = [
            (max - 3, 3),
            (max, 0),
            (0, max),
            (max, 1),
            (3_000_000_000, 0),
            (5, max),
        ];
        for virtual_loss in [VirtualLoss::Constant(1.0), VirtualLoss::VisitTracking] {
            let cfg = MctsConfig {
                virtual_loss,
                ..Default::default()
            };
            for (n, vl) in edges {
                for count in [3, 8, 29] {
                    for at in [0, count - 1] {
                        let mut block = Block::sparse(count, 1, 4, 3);
                        (block.n[at], block.vl[at], block.w[at]) = (n, vl, 0.75 * n as f64);
                        assert_kernels_agree(&cfg, &block, "wide counts");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn select_kernel_rejects_ragged_columns() {
        let b = Block::unvisited(9);
        let cols = ChildColumns {
            w: &b.w[..8],
            ..b.cols()
        };
        SelectKernel::dispatched().pick(&MctsConfig::default(), cols, None);
    }
}
