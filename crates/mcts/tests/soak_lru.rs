//! Long-run soak for bounded-memory infinite analysis: a streaming
//! session (search → advance → search, new game on terminal) runs for
//! ≥ 10k cycles under a fixed arena byte budget while the LRU policy
//! continuously recycles cold subtrees. The suite pins the two
//! properties that make 24/7 analysis viable:
//!
//! * **Zero heap growth after warm-up** — net heap bytes (allocations
//!   minus frees) are identical before and after thousands of
//!   eviction-heavy cycles, and the arena's high-water mark never moves
//!   past its warm-up level.
//! * **Stable playout rate** — the last decile of cycles is within 10%
//!   of the first decile's playouts/s: recycling is O(evicted), not a
//!   slow accumulation of scan or fragmentation cost. Each decile is
//!   timed in five blocks and stands for its *fastest* block: a
//!   neighbour on the host can only slow a block down, so the fastest
//!   one is the decile's rate when nothing else ran.
//!
//! Set `SOAK_SMOKE=1` for the short CI mode (fewer cycles, timing
//! assertion skipped — wall-clock deciles need the full run to be
//! meaningful).

use games::tictactoe::TicTacToe;
use games::{Game, Status};
use mcts::{MctsConfig, NodeArena, ReusableSearch, SearchResult, UniformEvaluator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Net live heap bytes: allocations add, frees subtract. "Zero growth"
/// means this returns to its snapshot, even if transient allocations
/// happened in between.
static NET_BYTES: AtomicI64 = AtomicI64::new(0);

struct NetBytesAlloc;

unsafe impl GlobalAlloc for NetBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            NET_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            NET_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            NET_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        NET_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: NetBytesAlloc = NetBytesAlloc;

/// One streaming-analysis step: search the current position, play the
/// best move (re-rooting in place), start a fresh game on terminal.
/// Returns the playouts spent.
fn cycle(search: &mut ReusableSearch, game: &mut TicTacToe, result: &mut SearchResult) -> u64 {
    if game.status() != Status::Ongoing {
        *game = TicTacToe::new();
        search.reset();
    }
    search.search_into(&*game, result);
    let a = result.best_action();
    search.advance(a);
    game.apply(a);
    result.stats.playouts
}

#[test]
fn bounded_streaming_session_soaks_flat() {
    let smoke = std::env::var("SOAK_SMOKE").is_ok();
    let cycles: usize = if smoke { 400 } else { 10_000 };

    // A budget well under the issue's 16 MB ceiling and tight enough
    // that a single 128-playout search outgrows it: every cycle of the
    // soak exercises the eviction path, not just the first few. The
    // bound still clears the unevictable working set (the selection
    // path's virtual-loss spine, ≤ 46 slots on TicTacToe).
    let bound_slots = 600usize;
    let budget = bound_slots * NodeArena::slot_bytes();
    let mut search = ReusableSearch::new(
        MctsConfig {
            playouts: 128,
            arena_budget_bytes: Some(budget),
            ..Default::default()
        },
        Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
    );
    let mut game = TicTacToe::new();
    let mut result = SearchResult::default();

    // Warm-up: reaches the arena bound, grows every scratch buffer to
    // its high-water mark and starts the recycling regime.
    let warmup = if smoke { 40 } else { 200 };
    for _ in 0..warmup {
        cycle(&mut search, &mut game, &mut result);
    }
    let warm_stats = search.tree_stats().expect("warmed searcher has a tree");
    assert!(
        warm_stats.evicted > 0,
        "warm-up under a {bound_slots}-slot budget must already evict"
    );
    let heap_snapshot = NET_BYTES.load(Ordering::SeqCst);

    // The soak proper, timed in blocks of a fiftieth — five per decile
    // (stack array: the harness itself must not show up in the
    // heap-growth measurement).
    const BLOCKS_PER_DECILE: usize = 5;
    let block = cycles / (10 * BLOCKS_PER_DECILE);
    let mut block_rates = [0f64; 10 * BLOCKS_PER_DECILE];
    for rate in &mut block_rates {
        let mut playouts = 0u64;
        let t0 = Instant::now();
        for _ in 0..block {
            playouts += cycle(&mut search, &mut game, &mut result);
        }
        *rate = playouts as f64 / t0.elapsed().as_secs_f64();
    }

    // Zero heap growth after warm-up: every allocation made during the
    // soak (none are expected in the production configuration, and even
    // the `invariants` walk's DFS stack is transient) was returned.
    let heap_now = NET_BYTES.load(Ordering::SeqCst);
    assert_eq!(
        heap_now - heap_snapshot,
        0,
        "streaming session grew the heap by {} bytes over {cycles} cycles",
        heap_now - heap_snapshot
    );

    // The arena never outgrew its warm-up footprint and kept recycling.
    let end_stats = search.tree_stats().expect("tree survives the soak");
    assert!(
        end_stats.high_water <= bound_slots,
        "high-water {} slots broke the {bound_slots}-slot byte budget",
        end_stats.high_water
    );
    assert_eq!(
        end_stats.high_water, warm_stats.high_water,
        "arena footprint moved after warm-up"
    );
    assert!(
        end_stats.evicted > warm_stats.evicted,
        "the soak must keep evicting, not stall"
    );
    assert!(
        end_stats.live <= bound_slots,
        "live nodes {} exceed the bound",
        end_stats.live
    );

    // Rate stability: the last decile degrades < 10% vs the first,
    // fastest block against fastest block (a block some other process
    // pre-empted says nothing about the search).
    // (Speedups are fine — the contract is no slow decay.) Wall-clock
    // deciles are only meaningful at full length, so smoke mode stops
    // at the structural assertions above.
    if !smoke {
        let fastest = |blocks: &[f64]| blocks.iter().copied().fold(0.0, f64::max);
        let first = fastest(&block_rates[..BLOCKS_PER_DECILE]);
        let last = fastest(&block_rates[9 * BLOCKS_PER_DECILE..]);
        assert!(
            last > 0.90 * first,
            "playout rate decayed {:.1}% over the soak (first decile {first:.0}/s, last {last:.0}/s)",
            (1.0 - last / first) * 100.0
        );
    }
}
