//! Verifies the zero-alloc contracts of the steady state:
//!
//! 1. **Inference** — a warmed `NnEvaluator::evaluate_batch` performs no
//!    heap allocations, in f32 and in int8 (the precision the wire
//!    workloads serve), at batch 1 and batched: every buffer (input pack,
//!    im2col matrix and GEMM staging or quantized activations and packed
//!    panel, intermediate activations, policy/value staging, prior
//!    vectors) reuses capacity from the per-thread workspace or the
//!    caller's output buffer.
//! 2. **Search** — a warmed `ReusableSearch` runs a full
//!    search → `advance` → search cycle with no heap allocations:
//!    selection, leaf claiming, expansion, backup, in-place re-rooting
//!    and the result buffers all live on recycled arena slots and reused
//!    scratch space.
//! 3. **Eviction** — a warmed `ReusableSearch` under a fixed arena byte
//!    budget keeps searching with no heap allocations while the LRU
//!    policy continuously recycles cold subtrees: eviction walks reuse
//!    the retained stack, coalescing reuses its scratch, and the arena
//!    columns never grow past the bound.
//!
//! 4. **Direct dispatch** — a `CoalescingEvaluator` whose tuner runs
//!    singles side by side adds nothing to (1): no input copy, no result
//!    vector, no round bookkeeping per call.
//!
//! 5. **One-shot search** — a serial searcher that starts every search
//!    from a bare root allocates nothing from its *second* search on: it
//!    resets the arena its first search grew instead of building another.
//!
//! This file holds exactly one test (with five tracked phases) so the
//! counting global allocator sees no traffic from concurrently running
//! tests.

use games::Game;
use mcts::{
    BatchEvaluator, Budget, CoalescingEvaluator, EvalOutput, MctsConfig, NnEvaluator, Precision,
    ReusableSearch, SearchResult, SearchScheme, StepOutcome,
};
use nn::{NetConfig, PolicyValueNet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static TRACK: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator that counts allocation events while `TRACK` is set.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACK.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if TRACK.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACK.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f`, returning the number of allocation events it performed.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    TRACK.store(true, Ordering::SeqCst);
    f();
    TRACK.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_allocates_nothing() {
    evaluate_batch_phase();
    direct_dispatch_phase();
    search_advance_cycle_phase();
    bounded_eviction_cycle_phase();
    one_shot_search_phase();
}

/// The paper's Algorithm 2 — a bare root per move — driven the way a
/// serving session drives it: `begin`, `step` in slices, `partial_into`.
/// Only the first search grows anything; every later one runs on the
/// arena, scratch buffers and root slot the first one left.
fn one_shot_search_phase() {
    use games::tictactoe::TicTacToe;

    let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 5));
    let cfg = MctsConfig {
        playouts: 200,
        ..Default::default()
    };
    let mut search = ReusableSearch::one_shot(cfg, Arc::new(NnEvaluator::new(net)));
    let mut result = SearchResult::default();
    let root = TicTacToe::new();
    let run = |search: &mut ReusableSearch, result: &mut SearchResult| {
        search.begin(&root, Budget::default());
        while SearchScheme::<TicTacToe>::step(search, 64) == StepOutcome::Running {}
        search.partial_into(result);
    };

    run(&mut search, &mut result);
    let first = result.clone();
    for nth in ["second", "third"] {
        let allocs = count_allocs(|| run(&mut search, &mut result));
        #[cfg(feature = "invariants")]
        let _ = allocs;
        #[cfg(not(feature = "invariants"))]
        assert_eq!(
            allocs, 0,
            "the {nth} one-shot search must not touch the heap ({allocs} allocations observed)"
        );
        assert_eq!(result.visits, first.visits, "{nth} search, same answer");
        assert_eq!(result.stats.nodes, first.stats.nodes);
        assert_eq!(result.stats.reclaimed, 0, "a search that only grew");
    }
}

fn evaluate_batch_phase() {
    let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 5, 5, 25), 7));
    let inputs: Vec<Vec<f32>> = (0..32)
        .map(|i| {
            (0..100)
                .map(|j| ((i * 13 + j) % 11) as f32 / 11.0)
                .collect()
        })
        .collect();
    let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
    for (precision, batch) in [
        (Precision::F32, 32),
        (Precision::Int8, 1),
        (Precision::Int8, 8),
    ] {
        let eval = NnEvaluator::with_precision(Arc::clone(&net), 8, precision);
        assert_eq!(eval.precision(), precision);
        let refs = &refs[..batch];
        let mut out = vec![EvalOutput::default(); batch];

        // Warm-up: grows the thread workspace, pack buffers, prior capacities.
        for _ in 0..3 {
            eval.evaluate_batch(refs, &mut out);
        }
        let warm = out.clone();

        let allocs = count_allocs(|| eval.evaluate_batch(refs, &mut out));
        assert_eq!(
            allocs, 0,
            "steady-state {precision:?} evaluate_batch of {batch} must not touch the heap \
             ({allocs} allocations observed)"
        );
        // And it still computes the same thing.
        for (w, o) in warm.iter().zip(&out) {
            assert_eq!(w.priors, o.priors);
            assert_eq!(w.value, o.value);
        }
    }
}

/// The serving coalescer on its direct path, as a session's playout calls
/// it: one sample in, one caller-owned output slot reused call after call.
fn direct_dispatch_phase() {
    let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 5, 5, 25), 7));
    let layer = CoalescingEvaluator::new(Arc::new(NnEvaluator::new(net)), 4, 2);
    // A complete curve on which a batch costs its samples one by one.
    for b in [1, 2, 4] {
        layer.tuner().record(b, Duration::from_millis(b as u64));
    }
    assert!(layer.runs_direct());
    let input: Vec<f32> = (0..100).map(|j| (j % 11) as f32 / 11.0).collect();
    let mut out = [EvalOutput::default()];
    for _ in 0..3 {
        layer.evaluate_batch(&[&input], &mut out);
    }
    let warm = out.clone();

    let allocs = count_allocs(|| layer.evaluate_batch(&[&input], &mut out));
    assert_eq!(
        allocs, 0,
        "a direct call must not touch the heap ({allocs} allocations observed)"
    );
    assert!(
        layer.runs_direct(),
        "three fast forwards do not change the verdict"
    );
    assert_eq!(layer.stats().batches, 4);
    assert_eq!(warm[0].priors, out[0].priors);
    assert_eq!(warm[0].value, out[0].value);
}

/// A bounded arena in steady-state eviction: once the LRU list, the
/// eviction walk stack, the free-list buckets and the scratch that
/// sorts the ranges freed since the last coalesce are warm, recycling
/// cold subtrees to make room for hot ones is pure pointer surgery on
/// preallocated columns — an infinite analysis session under a fixed
/// byte budget never touches the heap again.
fn bounded_eviction_cycle_phase() {
    use games::tictactoe::TicTacToe;
    use mcts::NodeArena;

    // Tight enough that every search cycle recycles nodes through the
    // LRU list, yet above the unevictable working set: the serial
    // searcher's current selection path holds virtual loss on every
    // node it descended, and a full-depth TicTacToe path owns up to 46
    // slots of child blocks.
    let budget = 72 * NodeArena::slot_bytes();
    let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 5));
    let mut search = ReusableSearch::new(
        MctsConfig {
            playouts: 300,
            arena_budget_bytes: Some(budget),
            ..Default::default()
        },
        Arc::new(NnEvaluator::new(net)),
    );
    let mut result = SearchResult::default();

    // One deterministic cycle: a fresh analysis session over the same
    // position. Eviction order is a pure function of the playout
    // sequence, so every cycle replays the same recycling schedule.
    let cycle = |search: &mut ReusableSearch, result: &mut SearchResult| {
        search.reset();
        search.search_into(&TicTacToe::new(), result);
        result
            .visits
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
                (h ^ v as u64).wrapping_mul(0x100_0000_01b3)
            })
    };

    // Warm-up: fills the arena to its bound, grows the eviction walk
    // stack / coalesce scratch to their high-water marks.
    let mut warm = 0u64;
    for _ in 0..3 {
        warm = cycle(&mut search, &mut result);
    }
    let stats = search.tree_stats().expect("warmed searcher has a tree");
    assert!(
        stats.evicted > 0,
        "300 playouts against a 72-slot byte budget must evict"
    );
    assert!(
        stats.live <= 72,
        "live nodes {} exceed the byte-derived bound",
        stats.live
    );

    let mut tracked = 0u64;
    let allocs = count_allocs(|| tracked = cycle(&mut search, &mut result));
    #[cfg(feature = "invariants")]
    let _ = allocs;
    #[cfg(not(feature = "invariants"))]
    assert_eq!(
        allocs, 0,
        "steady-state eviction must not touch the heap ({allocs} allocations observed)"
    );
    assert_eq!(tracked, warm, "recycling cycles stay deterministic");
}

fn search_advance_cycle_phase() {
    use games::tictactoe::TicTacToe;
    use rand::SeedableRng;

    let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 5));
    let mut search = ReusableSearch::new(
        MctsConfig {
            playouts: 48,
            ..Default::default()
        },
        Arc::new(NnEvaluator::new(net)),
    );
    let mut result = SearchResult::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // One deterministic cycle: two searched moves with an in-place
    // re-root between them, plus temperature sampling of the final
    // distribution (serving's per-move sampling must stay off the heap).
    let cycle =
        |search: &mut ReusableSearch, result: &mut SearchResult, rng: &mut rand::rngs::StdRng| {
            search.reset();
            let mut game = TicTacToe::new();
            search.search_into(&game, result);
            let first = result.best_action();
            search.advance(first);
            game.apply(first);
            search.search_into(&game, result);
            let sampled = result.sample_action(0.8, rng);
            assert!(game.is_legal(sampled));
            // Allocation-free fingerprint of the final visit counts (FNV-1a).
            let fp = result
                .visits
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
                    (h ^ v as u64).wrapping_mul(0x100_0000_01b3)
                });
            (first, result.best_action(), fp)
        };

    // Warm-up: grows the arena, scratch buffers, eval workspace and the
    // result's visit/prob capacity. The search is deterministic, so every
    // later cycle replays the same allocation shape.
    let mut warm = None;
    for _ in 0..3 {
        warm = Some(cycle(&mut search, &mut result, &mut rng));
    }
    let warm = warm.unwrap();

    let mut tracked = None;
    let allocs = count_allocs(|| tracked = Some(cycle(&mut search, &mut result, &mut rng)));
    // Under the `invariants` feature every search ends with a full tree
    // walk whose DFS stack allocates; the zero-alloc contract applies to
    // the production configuration.
    #[cfg(feature = "invariants")]
    let _ = allocs;
    #[cfg(not(feature = "invariants"))]
    assert_eq!(
        allocs, 0,
        "steady-state search + advance must not touch the heap ({allocs} allocations observed)"
    );
    // And the tracked cycle still computed the same search.
    assert_eq!(tracked.unwrap(), warm);
    assert!(
        result.stats.reclaimed > 0,
        "the cycle's advance reclaimed the discarded siblings"
    );
}
