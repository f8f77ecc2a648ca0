//! The unified node store behind every search tree: one struct-of-arrays
//! arena with contiguous child ranges, a block free-list, and an atomic
//! twin sharing the exact same layout.
//!
//! # Layout
//!
//! A node is a row across parallel columns — there is no `Node` struct on
//! the hot path and no per-node heap allocation anywhere:
//!
//! ```text
//!  id →        0     1     2     3     4     5     6   …
//!  parent    [NIL ][ 0  ][ 0  ][ 0  ][ 2  ][ 2  ][ 2  ]
//!  action    [ 0  ][ a₀ ][ a₁ ][ a₂ ][ b₀ ][ b₁ ][ b₂ ]
//!  prior     [1.0 ][ .2 ][ .5 ][ .3 ][ .4 ][ .4 ][ .2 ]
//!  n,w,vl    [ …  ]  …                                    (statistics)
//!  first_child [1 ][NIL ][ 4  ][NIL ][NIL ][NIL ][NIL ]
//!  child_count [3 ][ 0  ][ 3  ][ 0  ][ 0  ][ 0  ][ 0  ]
//!  state     [Exp ][Unex][Exp ][Unex][Unex][Unex][Unex]
//! ```
//!
//! Children of one parent are **one contiguous block** (`first_child ..
//! first_child + child_count`), so "iterate the children" is a range loop
//! over dense columns — the cache-friendly property the paper's local-tree
//! scheme exploits (§3.1.2) — and a child set is identified by two `u32`s
//! instead of a `Vec<u32>`. It is also what a vector unit wants: the
//! select kernel ([`crate::tree::SelectKernel`]) reads a block's `prior`,
//! `n`, `vl` and `w` as four dense slices, eight children per load, with
//! no gather and no per-node pointer to chase.
//!
//! # Free-list and recycling
//!
//! Blocks freed by re-rooting or pruning go on a size-bucketed free-list
//! (`free[len]` = start indices of free ranges of length `len`), and a
//! free-slot bitmap mirrors it. Allocation takes the smallest free range
//! that fits (the newest of its size) and splits off the remainder; only
//! when no range fits does the arena grow. In steady state (search →
//! [`advance`](crate::tree::Tree::advance_root) → search forever) every
//! expansion is served from recycled slots and the arena performs **zero
//! heap allocations**. A freed range is not merged with its free
//! neighbours on the way in: [`NodeArena::coalesce`] merges them into
//! maximal runs when a bounded tree finds no range that fits, before it
//! evicts, at a cost proportional to the ranges freed since its last
//! call. Fragments also re-merge when the tree is cleared in place
//! ([`NodeArena::clear`] keeps column capacity — which is how a scheme
//! that starts every search from a bare root searches on one arena for
//! life: [`Tree::set_config`](crate::tree::Tree::set_config) re-bounds
//! and clears it, and the next search grows into memory the previous one
//! already paid for). At the capacity bound a request larger than every
//! maximal free run still triggers pruning, so size the bound with
//! headroom rather than at the expected live-tree size.
//!
//! # In-place re-rooting
//!
//! Re-rooting keeps indices stable: the kept subtree is untouched, and the
//! discarded region is reclaimed by walking the tree **from the old root,
//! skipping the kept child's subtree** — each discarded node is visited
//! exactly once, so `advance(action)` is `O(discarded nodes)` and
//! allocation-free. The kept child's siblings share its block; the ranges
//! on either side of it are freed separately, which is why free ranges
//! (not just whole blocks) are the free-list currency.
//!
//! # Capacity bound and LRU recycling
//!
//! With [`MctsConfig::arena_budget_bytes`](crate::MctsConfig::arena_budget_bytes)
//! set, the arena never exceeds the slot bound
//! [`MctsConfig::node_budget`](crate::MctsConfig::node_budget) derives
//! from it (`bytes / NodeArena::slot_bytes()`). When an expansion
//! cannot be served from the free-list or by growing, the owning tree
//! reclaims live slots and retries, so long-running serving processes
//! search under a fixed memory budget instead of growing without limit.
//! The policy is LRU: an intrusive doubly-linked list is threaded
//! through the slots (`lru_prev`/`lru_next` columns). Every node that
//! owns a child block is on the list; selection *touches* each expanded
//! node it descends through (moves it to the front), and expansion
//! pushes the newly expanded node to the front. On exhaustion the tree
//! walks from the tail — the **coldest** block owner — and evicts that
//! node's whole subtree, detaching it back to an unexpanded node.
//!
//! The detach is **stats-preserving**: the victim keeps its
//! visit count `N` and value sum `W`, and records the visits that flowed
//! into the discarded subtree in the `n_detached` column so the tree-wide
//! visit identity (`N == Σ N(children) + n_detached + 1` for expanded
//! nodes) stays *exact* — see
//! [`Tree::check_invariants`](crate::tree::Tree::check_invariants).
//! Evicted victims may be re-expanded later.
//!
//! The atomic twin ([`AtomicColumns`]) is the same columns with
//! `AtomicU32`/`AtomicI64` cells (plus a `phase` byte replacing the state
//! enum) for the shared-tree scheme — one layout, two mutation
//! disciplines.

use games::Action;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU8, Ordering};

/// Sentinel "no node" index.
pub const NIL: u32 = u32::MAX;

/// Expansion state of a node. `Copy`: the legal actions captured at claim
/// time live in the pre-allocated child block, not in the enum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeState {
    /// Never evaluated; children unknown.
    Unexpanded,
    /// Claimed by an in-flight evaluation. The child block already exists
    /// and holds the legal actions; priors arrive at expansion.
    Pending,
    /// Children created; selection may descend.
    Expanded,
    /// Game over at this node; the payload is the terminal value from the
    /// perspective of the player to move at this node.
    Terminal(f32),
    /// Slot is on the free-list (not part of the tree).
    Free,
}

/// Node accounting for a [`NodeArena`] (see
/// [`Tree::stats`](crate::tree::Tree::stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ArenaStats {
    /// Nodes currently part of the tree.
    pub live: usize,
    /// Slots on the free-list awaiting reuse.
    pub free: usize,
    /// Slots currently backing the columns (`live + free == high_water`).
    /// [`NodeArena::clear`] truncates this to 0 while keeping the
    /// columns' reserved capacity.
    pub high_water: usize,
}

/// Struct-of-arrays node store with contiguous child ranges and a block
/// free-list. Pure storage: tree semantics (selection, expansion, backup,
/// re-rooting) live in [`crate::tree::Tree`].
pub struct NodeArena {
    pub(crate) parent: Vec<u32>,
    pub(crate) action: Vec<Action>,
    pub(crate) prior: Vec<f32>,
    pub(crate) n: Vec<u32>,
    pub(crate) w: Vec<f64>,
    pub(crate) vl: Vec<u32>,
    pub(crate) state: Vec<NodeState>,
    pub(crate) first_child: Vec<u32>,
    pub(crate) child_count: Vec<u32>,
    /// Visits absorbed by subtrees that were detached from this node by
    /// eviction (plus one re-expansion self-visit per detach).
    /// Keeps the visit identity exact across stats-preserving detaches.
    pub(crate) n_detached: Vec<u32>,
    /// Intrusive LRU list: previous (warmer) neighbour, [`NIL`] when the
    /// node is the head or not on the list.
    pub(crate) lru_prev: Vec<u32>,
    /// Intrusive LRU list: next (colder) neighbour.
    pub(crate) lru_next: Vec<u32>,
    /// Warmest list member (most recently touched block owner).
    pub(crate) lru_head: u32,
    /// Coldest list member — the eviction scan starts here.
    pub(crate) lru_tail: u32,
    /// `free[len]` holds the free ranges of exactly `len` slots.
    /// `free[0]` is unused.
    free: Vec<Bucket>,
    /// One bit per slot, set while the slot is on the free-list. Sized by
    /// [`NodeArena::free_range`], so an arena that never frees never
    /// touches it; bits past its end read as "not free".
    free_bits: Vec<u64>,
    /// Total slots across all free ranges.
    free_slots: usize,
    /// Largest non-empty bucket (0 when none): the allocation scan bound.
    largest_free: usize,
    /// Hard slot cap (`usize::MAX` when unbounded).
    cap: usize,
    /// Scratch for [`NodeArena::coalesce`]: the ranges pushed since its
    /// last call, sorted by start. Retained so defragmentation at the
    /// capacity bound stays allocation-free in steady state.
    fresh: Vec<(u32, usize)>,
}

/// One size class of the free-list.
#[derive(Debug, Default, PartialEq)]
struct Bucket {
    /// Start indices of the free ranges of this length. The first `runs`
    /// are maximal free runs left by the last [`NodeArena::coalesce`], in
    /// ascending order; the rest were pushed since, newest last.
    starts: Vec<u32>,
    /// Length of the sorted prefix of `starts`.
    runs: usize,
}

/// Set (`on`) or clear the bits of slots `lo..hi`, a word at a time.
fn fill_bits(bits: &mut [u64], lo: usize, hi: usize, on: bool) {
    let mut i = lo;
    while i < hi {
        let (word, bit) = (i / 64, i % 64);
        let n = (64 - bit).min(hi - i);
        let mask = (u64::MAX >> (64 - n)) << bit;
        if on {
            bits[word] |= mask;
        } else {
            bits[word] &= !mask;
        }
        i += n;
    }
}

impl NodeArena {
    /// Empty arena. `hint` pre-reserves column capacity; `cap` is the
    /// hard bound on total slots (`None` ⇒ bounded only by the `u32`
    /// index space — the clamp below keeps indices from ever colliding
    /// with the [`NIL`] sentinel).
    pub fn new(hint: usize, cap: Option<usize>) -> Self {
        let cap = cap.unwrap_or(usize::MAX).min(NIL as usize);
        let hint = hint.min(cap).min(1 << 20);
        NodeArena {
            parent: Vec::with_capacity(hint),
            action: Vec::with_capacity(hint),
            prior: Vec::with_capacity(hint),
            n: Vec::with_capacity(hint),
            w: Vec::with_capacity(hint),
            vl: Vec::with_capacity(hint),
            state: Vec::with_capacity(hint),
            first_child: Vec::with_capacity(hint),
            child_count: Vec::with_capacity(hint),
            n_detached: Vec::with_capacity(hint),
            lru_prev: Vec::with_capacity(hint),
            lru_next: Vec::with_capacity(hint),
            lru_head: NIL,
            lru_tail: NIL,
            free: Vec::new(),
            free_bits: Vec::new(),
            free_slots: 0,
            largest_free: 0,
            cap,
            fresh: Vec::new(),
        }
    }

    /// Total slots ever allocated (live + free).
    #[inline]
    pub fn high_water(&self) -> usize {
        self.parent.len()
    }

    /// Nodes currently part of the tree.
    #[inline]
    pub fn live(&self) -> usize {
        self.high_water() - self.free_slots
    }

    /// Node accounting snapshot.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            live: self.live(),
            free: self.free_slots,
            high_water: self.high_water(),
        }
    }

    /// The hard slot cap (`usize::MAX` when unbounded).
    #[inline]
    pub fn capacity_bound(&self) -> usize {
        self.cap
    }

    /// Replace the hard slot cap. Intended for recycled arenas that are
    /// about to be cleared for a new session; an arena already larger
    /// than the new cap keeps its memory but refuses further growth.
    pub fn set_bound(&mut self, cap: Option<usize>) {
        self.cap = cap.unwrap_or(usize::MAX).min(NIL as usize);
    }

    /// Allocate a contiguous block of `count` fresh slots (recycling free
    /// ranges first) and return the first index. `None` when the capacity
    /// bound would be exceeded — the caller should [`NodeArena::coalesce`]
    /// or prune and retry.
    pub fn alloc_block(&mut self, count: usize) -> Option<u32> {
        debug_assert!(count > 0, "empty block allocation");
        // Smallest-fit over the size buckets: exact fits first, then the
        // nearest larger range, splitting off the remainder.
        let upper = self.largest_free.min(self.free.len().saturating_sub(1));
        for len in count..=upper {
            let bucket = &mut self.free[len];
            if let Some(start) = bucket.starts.pop() {
                bucket.runs = bucket.runs.min(bucket.starts.len());
                if bucket.starts.is_empty() && len == self.largest_free {
                    // Keep the scan bound tight once the top bucket drains.
                    while self.largest_free > 0 && self.free[self.largest_free].starts.is_empty() {
                        self.largest_free -= 1;
                    }
                }
                self.free_slots -= count;
                let lo = start as usize;
                fill_bits(&mut self.free_bits, lo, lo + count, false);
                if len > count {
                    // Put the tail of the range back (it stays counted in
                    // `free_slots` and keeps its `Free` state stamps).
                    self.push_free(start + count as u32, len - count);
                }
                self.reset_slots(start, count);
                return Some(start);
            }
        }
        // Grow. The columns stay index-aligned by construction.
        if self.high_water() + count > self.cap {
            return None;
        }
        let start = self.high_water() as u32;
        let new_len = self.high_water() + count;
        self.parent.resize(new_len, NIL);
        self.action.resize(new_len, 0);
        self.prior.resize(new_len, 0.0);
        self.n.resize(new_len, 0);
        self.w.resize(new_len, 0.0);
        self.vl.resize(new_len, 0);
        self.state.resize(new_len, NodeState::Unexpanded);
        self.first_child.resize(new_len, NIL);
        self.child_count.resize(new_len, 0);
        self.n_detached.resize(new_len, 0);
        self.lru_prev.resize(new_len, NIL);
        self.lru_next.resize(new_len, NIL);
        Some(start)
    }

    /// Return `count` slots starting at `start` to the free-list and mark
    /// them [`NodeState::Free`]. The non-state columns keep their bytes
    /// until reuse, so a reclaiming walk may still read child ranges of
    /// slots it has already freed.
    pub fn free_range(&mut self, start: u32, count: u32) {
        if count == 0 {
            return;
        }
        let (lo, hi) = (start as usize, (start + count) as usize);
        for s in &mut self.state[lo..hi] {
            *s = NodeState::Free;
        }
        if self.free_bits.len() * 64 < hi {
            // Cover every slot the columns have room for, so the map
            // reallocates only when they do.
            let slots = self.parent.capacity().max(hi);
            self.free_bits.resize(slots.div_ceil(64), 0);
        }
        fill_bits(&mut self.free_bits, lo, hi, true);
        self.free_slots += count as usize;
        self.push_free(start, count as usize);
    }

    fn push_free(&mut self, start: u32, len: usize) {
        if self.free.len() <= len {
            self.free.resize_with(len + 1, Bucket::default);
        }
        self.free[len].starts.push(start);
        self.largest_free = self.largest_free.max(len);
    }

    /// Merge adjacent free ranges into maximal runs: afterwards every
    /// bucket holds, in ascending order, the starts of the maximal free
    /// runs of its length. This is the defragmentation step a
    /// capacity-bounded arena runs before every eviction (merging
    /// fragments is cheaper and far less destructive than pruning live
    /// subtrees) — at the bound, before about every second expansion —
    /// so it costs only what changed since its last call. The `k` ranges
    /// pushed since are sorted (`O(k log k)`), each grows to its maximal
    /// run through the free-slot bitmap (a word per 64 slots), and the
    /// old runs a merged run swallows leave their buckets as the merged
    /// run enters its own (a binary search and a shift each). Runs no
    /// new range touches are not read. The scratch and buckets keep
    /// their capacity, so a warmed steady-state session defragments
    /// without allocating.
    pub fn coalesce(&mut self) {
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.clear();
        for (len, bucket) in self.free.iter_mut().enumerate().take(self.largest_free + 1) {
            fresh.extend(bucket.starts.drain(bucket.runs..).map(|start| (start, len)));
        }
        fresh.sort_unstable_by_key(|&(start, _)| start);
        let mut next = 0;
        while next < fresh.len() {
            let seed = fresh[next].0 as usize;
            let (lo, hi) = (self.run_start(seed), self.run_end(seed));
            // Walk the run: the new ranges in it in ascending order, and
            // between them the old runs. Old runs were maximal, so no two
            // touch — each gap between new ranges is exactly one old run.
            let mut at = lo;
            while at < hi {
                match fresh.get(next) {
                    Some(&(start, len)) if start as usize == at => {
                        at += len;
                        next += 1;
                    }
                    piece => {
                        let end = piece.map_or(hi, |&(start, _)| hi.min(start as usize));
                        self.remove_run(at as u32, end - at);
                        at = end;
                    }
                }
            }
            self.insert_run(lo as u32, hi - lo);
        }
        self.fresh = fresh;
    }

    /// Whether slot `i` is on the free-list, read off the bitmap.
    #[inline]
    fn is_free(&self, i: usize) -> bool {
        self.free_bits
            .get(i / 64)
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// First slot of the free run holding free slot `i`.
    fn run_start(&self, mut i: usize) -> usize {
        while i > 0 {
            let (word, bit) = ((i - 1) / 64, (i - 1) % 64);
            // Clear bits at or below `bit`: the highest one ends the walk.
            let clear = !self.free_bits[word] & (u64::MAX >> (63 - bit));
            if clear != 0 {
                return word * 64 + 64 - clear.leading_zeros() as usize;
            }
            i = word * 64;
        }
        0
    }

    /// One past the last slot of the free run holding free slot `i`.
    fn run_end(&self, mut i: usize) -> usize {
        while let Some(&w) = self.free_bits.get(i / 64) {
            let clear = !w & (u64::MAX << (i % 64));
            if clear != 0 {
                return i / 64 * 64 + clear.trailing_zeros() as usize;
            }
            i = (i / 64 + 1) * 64;
        }
        i
    }

    /// Take a run the last [`NodeArena::coalesce`] left out of its bucket.
    fn remove_run(&mut self, start: u32, len: usize) {
        let bucket = &mut self.free[len];
        let at = bucket.starts[..bucket.runs]
            .binary_search(&start)
            .expect("an old run sits in its bucket's sorted prefix");
        bucket.starts.remove(at);
        bucket.runs -= 1;
    }

    /// Put a merged run at its sorted place in its bucket, whose pushed
    /// tail [`NodeArena::coalesce`] has already drained.
    fn insert_run(&mut self, start: u32, len: usize) {
        if self.free.len() <= len {
            self.free.resize_with(len + 1, Bucket::default);
        }
        let bucket = &mut self.free[len];
        let at = bucket.starts.partition_point(|&s| s < start);
        bucket.starts.insert(at, start);
        bucket.runs += 1;
        self.largest_free = self.largest_free.max(len);
    }

    /// Assert the free-list's invariants: the listed ranges are disjoint
    /// and inside the arena; every slot on them is [`NodeState::Free`]
    /// with its bit set, and no other slot is either; the listed slots,
    /// `free_slots` and the bitmap's popcount agree; each bucket's sorted
    /// prefix ascends; and `largest_free` is the largest non-empty bucket.
    /// Part of [`Tree::check_invariants`](crate::tree::Tree::check_invariants).
    pub(crate) fn check_free_list(&self) {
        let hw = self.high_water();
        let mut listed = vec![false; hw];
        let mut total = 0usize;
        for (len, bucket) in self.free.iter().enumerate() {
            assert!(
                bucket.runs <= bucket.starts.len(),
                "bucket {len}: sorted prefix overruns it"
            );
            assert!(
                bucket.starts[..bucket.runs].windows(2).all(|w| w[0] < w[1]),
                "bucket {len}: sorted prefix does not ascend"
            );
            assert!(
                bucket.starts.is_empty() || (len > 0 && len <= self.largest_free),
                "bucket {len}: non-empty outside 1..={}",
                self.largest_free
            );
            for &start in &bucket.starts {
                let lo = start as usize;
                assert!(lo + len <= hw, "free range {lo}+{len} past high water {hw}");
                for slot in &mut listed[lo..lo + len] {
                    assert!(!*slot, "free range {lo}+{len} overlaps another");
                    *slot = true;
                }
                total += len;
            }
        }
        assert!(
            self.largest_free == 0 || !self.free[self.largest_free].starts.is_empty(),
            "largest_free {} names an empty bucket",
            self.largest_free
        );
        assert_eq!(total, self.free_slots, "listed free slots vs free_slots");
        let popcount: usize = self.free_bits.iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(
            popcount, self.free_slots,
            "free bitmap popcount vs free_slots"
        );
        for (slot, &on) in listed.iter().enumerate() {
            assert_eq!(self.is_free(slot), on, "slot {slot}: free bit vs free-list");
            assert_eq!(
                matches!(self.state[slot], NodeState::Free),
                on,
                "slot {slot}: state {:?} vs free-list",
                self.state[slot]
            );
        }
    }

    /// Drop every node but keep all column and bucket capacity, so
    /// refilling the arena to its previous size performs no heap
    /// allocation. Used by in-place tree reset between games.
    pub fn clear(&mut self) {
        self.parent.clear();
        self.action.clear();
        self.prior.clear();
        self.n.clear();
        self.w.clear();
        self.vl.clear();
        self.state.clear();
        self.first_child.clear();
        self.child_count.clear();
        self.n_detached.clear();
        self.lru_prev.clear();
        self.lru_next.clear();
        self.lru_head = NIL;
        self.lru_tail = NIL;
        for bucket in &mut self.free {
            bucket.starts.clear();
            bucket.runs = 0;
        }
        self.free_bits.clear();
        self.free_slots = 0;
        self.largest_free = 0;
    }

    /// Reset recycled slots to pristine node state.
    fn reset_slots(&mut self, start: u32, count: usize) {
        let (lo, hi) = (start as usize, start as usize + count);
        self.parent[lo..hi].fill(NIL);
        self.action[lo..hi].fill(0);
        self.prior[lo..hi].fill(0.0);
        self.n[lo..hi].fill(0);
        self.w[lo..hi].fill(0.0);
        self.vl[lo..hi].fill(0);
        self.state[lo..hi].fill(NodeState::Unexpanded);
        self.first_child[lo..hi].fill(NIL);
        self.child_count[lo..hi].fill(0);
        self.n_detached[lo..hi].fill(0);
        self.lru_prev[lo..hi].fill(NIL);
        self.lru_next[lo..hi].fill(NIL);
    }

    // -- Intrusive LRU list -------------------------------------------------
    //
    // Membership is decided by the owning tree: a node is on the list
    // exactly while it owns a child block (Pending or Expanded). The arena
    // only provides the link surgery; it never walks the tree.

    /// Whether `id` is currently linked into the LRU list.
    #[inline]
    pub(crate) fn lru_contains(&self, id: u32) -> bool {
        self.lru_prev[id as usize] != NIL
            || self.lru_next[id as usize] != NIL
            || self.lru_head == id
    }

    /// Link `id` at the head (warmest end) of the LRU list. The caller
    /// guarantees `id` is not already on the list.
    #[inline]
    pub(crate) fn lru_push_front(&mut self, id: u32) {
        debug_assert!(!self.lru_contains(id), "node {id} already on the LRU list");
        self.lru_next[id as usize] = self.lru_head;
        self.lru_prev[id as usize] = NIL;
        if self.lru_head != NIL {
            self.lru_prev[self.lru_head as usize] = id;
        } else {
            self.lru_tail = id;
        }
        self.lru_head = id;
    }

    /// Remove `id` from the LRU list. Idempotent: a node that is not on
    /// the list is left untouched.
    #[inline]
    pub(crate) fn lru_unlink(&mut self, id: u32) {
        if !self.lru_contains(id) {
            return;
        }
        let (p, nx) = (self.lru_prev[id as usize], self.lru_next[id as usize]);
        if p != NIL {
            self.lru_next[p as usize] = nx;
        } else {
            self.lru_head = nx;
        }
        if nx != NIL {
            self.lru_prev[nx as usize] = p;
        } else {
            self.lru_tail = p;
        }
        self.lru_prev[id as usize] = NIL;
        self.lru_next[id as usize] = NIL;
    }

    /// Move `id` to the head of the LRU list (touch-on-visit). No-op for
    /// a node that is already warmest.
    #[inline]
    pub(crate) fn lru_touch(&mut self, id: u32) {
        if self.lru_head == id {
            return;
        }
        self.lru_unlink(id);
        self.lru_push_front(id);
    }

    // -- Byte accounting ----------------------------------------------------

    /// Bytes one arena slot occupies across all columns. A compile-time
    /// constant so the serve layer can convert slot budgets to byte
    /// budgets (and back) without holding an arena.
    pub const fn slot_bytes() -> usize {
        use std::mem::size_of;
        size_of::<u32>()        // parent
            + size_of::<Action>()
            + size_of::<f32>()  // prior
            + size_of::<u32>()  // n
            + size_of::<f64>()  // w
            + size_of::<u32>()  // vl
            + size_of::<NodeState>()
            + size_of::<u32>()  // first_child
            + size_of::<u32>()  // child_count
            + size_of::<u32>()  // n_detached
            + size_of::<u32>()  // lru_prev
            + size_of::<u32>() // lru_next
    }

    /// Bytes currently backing node storage (`high_water ×`
    /// [`NodeArena::slot_bytes`]; reserved-but-unused column capacity is
    /// not counted).
    #[inline]
    pub fn bytes(&self) -> usize {
        self.high_water() * Self::slot_bytes()
    }
}

// ---------------------------------------------------------------------------
// Atomic twin: the same columns, interiorly mutable.
// ---------------------------------------------------------------------------

/// Node lifecycle phases of the atomic columns (the `phase` byte is the
/// lock-free counterpart of [`NodeState`]; terminal values live in
/// `terminal_bits`).
pub(crate) mod phase {
    pub const UNEXPANDED: u8 = 0;
    pub const PENDING: u8 = 1;
    pub const EXPANDED: u8 = 2;
    pub const TERMINAL: u8 = 3;
}

/// Fixed-point scale for the atomically-accumulated value sum `W`
/// (2^20: exact for small sums, no drift).
pub(crate) const W_SCALE: f64 = 1_048_576.0;

/// The shared-tree arena: [`NodeArena`]'s columns with atomic cells so the
/// store can be shared immutably across rollout threads. Same child-range
/// scheme (`first_child`/`child_count` → one contiguous block), same
/// column-per-field layout; expansion bump-allocates blocks with a single
/// `fetch_add` and publishes them through a release store on the parent's
/// `phase`. Fixed capacity: one arena is sized for one move's expansion,
/// so shared-tree searches are memory-bounded by construction and need no
/// free-list.
pub struct AtomicColumns {
    pub(crate) parent: Box<[AtomicU32]>,
    pub(crate) action: Box<[AtomicU32]>,
    pub(crate) prior_bits: Box<[AtomicU32]>,
    /// Completed visits `N(s,a)`.
    pub(crate) n: Box<[AtomicU32]>,
    /// Value sum `W(s,a)` in fixed-point (units of 1/[`W_SCALE`]).
    pub(crate) w_fixed: Box<[AtomicI64]>,
    /// In-flight playouts (virtual-loss / unobserved count).
    pub(crate) vl: Box<[AtomicU32]>,
    pub(crate) first_child: Box<[AtomicU32]>,
    pub(crate) child_count: Box<[AtomicU32]>,
    pub(crate) phase: Box<[AtomicU8]>,
    pub(crate) terminal_bits: Box<[AtomicU32]>,
}

fn atomic_column<T>(cap: usize, f: impl Fn() -> T) -> Box<[T]> {
    let mut v = Vec::with_capacity(cap);
    v.resize_with(cap, f);
    v.into_boxed_slice()
}

impl AtomicColumns {
    /// Zeroed columns for a fixed `cap`-slot arena.
    pub fn new(cap: usize) -> Self {
        AtomicColumns {
            parent: atomic_column(cap, || AtomicU32::new(NIL)),
            action: atomic_column(cap, || AtomicU32::new(0)),
            prior_bits: atomic_column(cap, || AtomicU32::new(0)),
            n: atomic_column(cap, || AtomicU32::new(0)),
            w_fixed: atomic_column(cap, || AtomicI64::new(0)),
            vl: atomic_column(cap, || AtomicU32::new(0)),
            first_child: atomic_column(cap, || AtomicU32::new(NIL)),
            child_count: atomic_column(cap, || AtomicU32::new(0)),
            phase: atomic_column(cap, || AtomicU8::new(phase::UNEXPANDED)),
            terminal_bits: atomic_column(cap, || AtomicU32::new(0)),
        }
    }

    /// Arena capacity in slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.parent.len()
    }

    /// DNN prior `P(s,a)` of node `id`.
    #[inline]
    pub fn prior(&self, id: u32) -> f32 {
        f32::from_bits(self.prior_bits[id as usize].load(Ordering::Relaxed))
    }

    /// Value sum `W` of node `id`.
    #[inline]
    pub fn w(&self, id: u32) -> f64 {
        self.w_fixed[id as usize].load(Ordering::Relaxed) as f64 / W_SCALE
    }

    /// Visits of node `id` including in-flight playouts.
    #[inline]
    pub fn n_eff(&self, id: u32) -> u32 {
        self.n[id as usize].load(Ordering::Relaxed) + self.vl[id as usize].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_grows_and_recycles() {
        let mut a = NodeArena::new(4, None);
        let b0 = a.alloc_block(3).unwrap();
        let b1 = a.alloc_block(2).unwrap();
        assert_eq!((b0, b1), (0, 3));
        assert_eq!(a.live(), 5);
        a.free_range(b0, 3);
        assert_eq!(a.live(), 2);
        assert_eq!(a.stats().free, 3);
        // Exact fit reuses the freed range instead of growing.
        let b2 = a.alloc_block(3).unwrap();
        assert_eq!(b2, 0);
        assert_eq!(a.high_water(), 5);
        assert_eq!(a.state[0], NodeState::Unexpanded);
    }

    #[test]
    fn smaller_request_splits_free_range() {
        let mut a = NodeArena::new(8, None);
        let b = a.alloc_block(6).unwrap();
        a.free_range(b, 6);
        let c = a.alloc_block(4).unwrap();
        assert_eq!(c, 0, "front of the freed range");
        assert_eq!(a.stats().free, 2, "remainder stays free");
        let d = a.alloc_block(2).unwrap();
        assert_eq!(d, 4, "fragment served the follow-up");
        assert_eq!(a.high_water(), 6, "no growth needed");
    }

    impl NodeArena {
        /// The sort-and-merge [`NodeArena::coalesce`] replaced, kept as its
        /// oracle: drain every bucket, sort all free ranges by start, merge
        /// neighbours and re-bucket the maximal runs in ascending order.
        fn coalesce_oracle(&mut self) {
            let mut ranges = Vec::new();
            for (len, bucket) in self.free.iter_mut().enumerate() {
                ranges.extend(bucket.starts.drain(..).map(|start| (start, len)));
                bucket.runs = 0;
            }
            self.largest_free = 0;
            ranges.sort_unstable_by_key(|&(start, _)| start);
            let mut merged: Vec<(u32, usize)> = Vec::new();
            for (start, len) in ranges {
                match merged.last_mut() {
                    Some((mstart, mlen)) if *mstart as usize + *mlen == start as usize => {
                        *mlen += len;
                    }
                    _ => merged.push((start, len)),
                }
            }
            for (start, len) in merged {
                self.push_free(start, len);
                self.free[len].runs += 1;
            }
        }

        /// The non-empty buckets with their lengths.
        fn buckets(&self) -> Vec<(usize, &Bucket)> {
            self.free
                .iter()
                .enumerate()
                .filter(|(_, b)| !b.starts.is_empty())
                .collect()
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Alloc(usize),
        Free(u32, u32),
        Coalesce,
        Clear,
    }

    /// Two arenas fed the same calls: one coalesces incrementally, the
    /// other with the oracle. After every call their free-lists must agree
    /// entry for entry, and every allocation must land on the same start.
    struct Twin {
        fast: NodeArena,
        oracle: NodeArena,
    }

    impl Twin {
        fn new(cap: usize) -> Self {
            Twin {
                fast: NodeArena::new(0, Some(cap)),
                oracle: NodeArena::new(0, Some(cap)),
            }
        }

        fn apply(&mut self, op: Op) -> Option<u32> {
            let got = match op {
                Op::Alloc(count) => {
                    let got = self.fast.alloc_block(count);
                    assert_eq!(
                        got,
                        self.oracle.alloc_block(count),
                        "{op:?} landed elsewhere"
                    );
                    got
                }
                Op::Free(start, count) => {
                    self.fast.free_range(start, count);
                    self.oracle.free_range(start, count);
                    None
                }
                Op::Coalesce => {
                    self.fast.coalesce();
                    self.oracle.coalesce_oracle();
                    None
                }
                Op::Clear => {
                    self.fast.clear();
                    self.oracle.clear();
                    None
                }
            };
            assert_eq!(self.fast.buckets(), self.oracle.buckets(), "after {op:?}");
            assert_eq!(
                self.fast.largest_free, self.oracle.largest_free,
                "after {op:?}"
            );
            assert_eq!(self.fast.stats(), self.oracle.stats(), "after {op:?}");
            self.fast.check_free_list();
            got
        }
    }

    #[test]
    fn coalesce_merges_adjacent_fragments() {
        let mut t = Twin::new(12);
        for b in [0, 4, 8] {
            assert_eq!(t.apply(Op::Alloc(4)), Some(b));
        }
        // Free all three as separate ranges: no single bucket holds a
        // 12-slot range, and growth is blocked by the cap.
        for b in [0, 8, 4] {
            t.apply(Op::Free(b, 4));
        }
        assert_eq!(t.apply(Op::Alloc(12)), None, "fragmented: no 12-range yet");
        t.apply(Op::Coalesce);
        assert_eq!(t.apply(Op::Alloc(12)), Some(0), "merged into one range");
        assert_eq!(t.fast.stats().free, 0);
        assert_eq!(t.fast.live(), 12);
    }

    /// Random call sequences under a cap — allocations with splits, whole,
    /// split and two-sided frees (the shape `free_subtree_except` leaves
    /// around a kept child), coalesces and clears — against the oracle.
    #[test]
    fn coalesce_matches_sort_and_merge_oracle() {
        use rand::{Rng, SeedableRng};
        for seed in 0..300 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut t = Twin::new(rng.gen_range(16..=256));
            // Blocks the twins hold live, as (start, len).
            let mut live: Vec<(u32, u32)> = Vec::new();
            for _ in 0..2000 {
                match rng.gen_range(0..32) {
                    0..=11 => {
                        let count = rng.gen_range(1..=12);
                        if let Some(start) = t.apply(Op::Alloc(count)) {
                            live.push((start, count as u32));
                        }
                    }
                    12..=21 if !live.is_empty() => {
                        let (start, len) = live.swap_remove(rng.gen_range(0..live.len()));
                        match rng.gen_range(0..3) {
                            0 => {
                                t.apply(Op::Free(start, len));
                            }
                            1 => {
                                // Two adjacent frees.
                                let k = rng.gen_range(0..=len);
                                t.apply(Op::Free(start, k));
                                t.apply(Op::Free(start + k, len - k));
                            }
                            _ => {
                                let keep = start + rng.gen_range(0..len);
                                t.apply(Op::Free(start, keep - start));
                                t.apply(Op::Free(keep + 1, start + len - keep - 1));
                                live.push((keep, 1));
                            }
                        }
                    }
                    31 if rng.gen_bool(0.2) => {
                        t.apply(Op::Clear);
                        live.clear();
                    }
                    _ => {
                        t.apply(Op::Coalesce);
                    }
                }
            }
        }
    }

    #[test]
    fn capacity_bound_is_hard() {
        let mut a = NodeArena::new(4, Some(5));
        assert!(a.alloc_block(4).is_some());
        assert!(a.alloc_block(2).is_none(), "4 + 2 > cap 5");
        assert!(a.alloc_block(1).is_some());
        assert!(a.alloc_block(1).is_none());
        // Freeing makes room again.
        a.free_range(0, 4);
        assert!(a.alloc_block(2).is_some());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut a = NodeArena::new(2, None);
        a.alloc_block(100).unwrap();
        let cap_before = a.parent.capacity();
        a.clear();
        assert_eq!(a.high_water(), 0);
        assert_eq!(a.live(), 0);
        assert_eq!(a.parent.capacity(), cap_before);
        assert!(a.alloc_block(100).is_some());
    }

    #[test]
    fn free_marks_state() {
        let mut a = NodeArena::new(4, None);
        let b = a.alloc_block(2).unwrap();
        a.free_range(b, 2);
        assert_eq!(a.state[0], NodeState::Free);
        assert_eq!(a.state[1], NodeState::Free);
    }

    #[test]
    fn lru_list_links_touches_and_unlinks() {
        let mut a = NodeArena::new(8, None);
        a.alloc_block(4).unwrap();
        a.lru_push_front(0);
        a.lru_push_front(1);
        a.lru_push_front(2);
        assert_eq!((a.lru_head, a.lru_tail), (2, 0));
        a.lru_touch(0);
        assert_eq!((a.lru_head, a.lru_tail), (0, 1));
        assert_eq!(a.lru_next[0], 2);
        a.lru_unlink(2);
        a.lru_unlink(2); // idempotent on a node already off the list
        assert_eq!((a.lru_head, a.lru_tail), (0, 1));
        assert_eq!(a.lru_next[0], 1);
        assert_eq!(a.lru_prev[1], 0);
        a.lru_unlink(0);
        a.lru_unlink(1);
        assert_eq!((a.lru_head, a.lru_tail), (NIL, NIL));
    }

    #[test]
    fn recycled_slots_leave_the_lru_columns_clean() {
        let mut a = NodeArena::new(8, None);
        let b = a.alloc_block(2).unwrap();
        a.lru_push_front(b);
        a.lru_unlink(b);
        a.free_range(b, 2);
        let c = a.alloc_block(2).unwrap();
        assert_eq!(c, b, "recycled the freed range");
        assert_eq!(a.lru_prev[c as usize], NIL);
        assert_eq!(a.lru_next[c as usize], NIL);
        assert_eq!(a.n_detached[c as usize], 0);
    }

    #[test]
    fn byte_accounting_tracks_high_water() {
        let mut a = NodeArena::new(4, None);
        assert_eq!(a.bytes(), 0);
        a.alloc_block(10).unwrap();
        assert_eq!(a.bytes(), 10 * NodeArena::slot_bytes());
        // Freeing does not shrink storage; clearing does.
        a.free_range(0, 10);
        assert_eq!(a.bytes(), 10 * NodeArena::slot_bytes());
        a.clear();
        assert_eq!(a.bytes(), 0);
    }

    #[test]
    fn atomic_columns_round_trip() {
        let c = AtomicColumns::new(8);
        assert_eq!(c.capacity(), 8);
        c.prior_bits[3].store(0.25f32.to_bits(), Ordering::Relaxed);
        assert_eq!(c.prior(3), 0.25);
        c.w_fixed[3].store((1.5 * W_SCALE) as i64, Ordering::Relaxed);
        assert!((c.w(3) - 1.5).abs() < 1e-9);
        c.n[3].store(4, Ordering::Relaxed);
        c.vl[3].store(2, Ordering::Relaxed);
        assert_eq!(c.n_eff(3), 6);
    }
}
