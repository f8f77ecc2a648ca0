//! Emit `BENCH_search.json`: the machine-readable search-throughput record
//! (playouts/second per scheme), the search-side counterpart of
//! `bench_inference`.
//!
//! Measures, on this machine, for every [`Scheme`] plus the re-rooting
//! `serial+reuse` searcher:
//! * playouts/s on a mid-game Gomoku position with the uniform evaluator
//!   (isolates in-tree cost: selection, expansion, backup, allocation);
//! * playouts/s with a tiny real network (adds a realistic eval share);
//! * for `serial+reuse`, a full search→advance→search cycle so re-rooting
//!   cost is inside the measured window;
//! * the bounded-memory soak: a streaming analysis session under a fixed
//!   arena byte budget with LRU recycling, reporting playouts/s over the
//!   first vs last decile of cycles (long-run stability: the last decile
//!   must sit within 10% of the first — `check_search_schema` gates the
//!   ratio on full runs, never on smoke).
//!
//! Usage: `bench_search [--smoke] [out_path]` (default
//! `BENCH_search.json`). `--smoke` (or env `BENCH_SMOKE=1`) shrinks the
//! playout budgets and repetitions so CI can prove the binary runs
//! without paying measurement time. Timings are never gated on.

use games::gomoku::Gomoku;
use games::Game;
use mcts::{
    BatchEvaluator, MctsConfig, NnEvaluator, Scheme, SearchBuilder, SearchScheme, UniformEvaluator,
};
use nn::{NetConfig, PolicyValueNet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Median of `reps` timed runs of `f` (seconds), after `warm` warm-ups.
fn time_median(warm: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warm {
        f();
    }
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A 9×9 Gomoku position a few plies in (denser trees than the empty
/// board, and the same state every run).
fn midgame() -> Gomoku {
    let mut g = Gomoku::new(9, 5);
    for a in [40u16, 41, 31, 49, 39] {
        g.apply(a);
    }
    g
}

fn build(
    scheme: Scheme,
    playouts: usize,
    workers: usize,
    eval: Arc<dyn BatchEvaluator>,
) -> Box<dyn SearchScheme<Gomoku>> {
    SearchBuilder::new(scheme)
        .playouts(playouts)
        .workers(workers)
        .evaluator(eval)
        .build::<Gomoku>()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke =
        args.iter().any(|a| a == "--smoke") || std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_search.json".to_string());
    let (warm, reps, playouts) = if smoke { (0, 1, 64) } else { (1, 7, 1600) };
    let workers = 4usize;

    let root = midgame();
    let uniform: Arc<dyn BatchEvaluator> = Arc::new(UniformEvaluator::for_game(&root));
    let net = Arc::new(PolicyValueNet::new(NetConfig::for_board(4, 9, 9, 81), 2));
    let nn: Arc<dyn BatchEvaluator> = Arc::new(NnEvaluator::new(net));

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"meta\": {{\"playouts\": {playouts}, \"workers\": {workers}, \"board\": \"gomoku9\", \"smoke\": {smoke}, \"select_kernel\": \"{}\"}},",
        mcts::select_kernel_name()
    );

    // --- per-scheme playout throughput -----------------------------------
    json.push_str("  \"schemes\": [\n");
    let evals: [(&str, &Arc<dyn BatchEvaluator>); 2] = [("uniform", &uniform), ("nn", &nn)];
    for (si, scheme) in Scheme::ALL.into_iter().enumerate() {
        let mut fields = String::new();
        for (ei, (eval_name, eval)) in evals.iter().enumerate() {
            let mut s = build(scheme, playouts, workers, Arc::clone(eval));
            let mut done = 0u64;
            let t = time_median(warm, reps, || {
                let r = s.search(&root);
                done = r.stats.playouts;
            });
            let _ = write!(
                fields,
                "{}\"{eval_name}_playouts_per_s\": {:.1}",
                if ei == 0 { "" } else { ", " },
                done as f64 / t
            );
            eprintln!(
                "{scheme:>13} / {eval_name:7}: {:>9.0} playouts/s",
                done as f64 / t
            );
        }
        let _ = writeln!(
            json,
            "    {{\"scheme\": \"{scheme}\", {fields}}}{}",
            if si + 1 < Scheme::ALL.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // --- tree reuse: search → advance → search cycles ---------------------
    // The whole per-move cycle (including re-rooting on `advance`) sits
    // inside the timed window, so re-root cost is part of the figure.
    let mut reuse = SearchBuilder::new(Scheme::Serial)
        .playouts(playouts)
        .evaluator(Arc::clone(&uniform))
        .reuse(true)
        .build_reusable();
    let moves = 4usize;
    let mut done = 0u64;
    let t = time_median(warm, reps, || {
        reuse.reset();
        let mut g = root.clone();
        done = 0;
        for _ in 0..moves {
            let r = reuse.search(&g);
            done += r.stats.playouts;
            let a = r.best_action();
            reuse.advance(a);
            g.apply(a);
        }
    });
    let _ = writeln!(
        json,
        "  \"reuse_cycle\": {{\"scheme\": \"serial+reuse\", \"moves\": {moves}, \"uniform_playouts_per_s\": {:.1}}},",
        done as f64 / t
    );
    eprintln!(
        "{:>13} / uniform: {:>9.0} playouts/s ({moves}-move cycle)",
        "serial+reuse",
        done as f64 / t
    );

    // --- bounded-memory soak: fixed-budget streaming session --------------
    // A streaming analysis session (search → advance, new game at
    // terminal) under a fixed arena byte budget: the LRU policy recycles
    // cold subtrees the whole run, so the figure is the long-run rate
    // stability of the eviction path, measured as playouts/s over the
    // first vs last decile of cycles. The budget is sized so the session
    // lives in the recycling regime (a 16 MiB arena never fills on this
    // board — an eviction benchmark that never evicts measures nothing).
    let (soak_cycles, soak_playouts, soak_budget) = if smoke {
        (200usize, 64usize, 256usize << 10)
    } else {
        (10_000usize, 256usize, 512usize << 10)
    };
    let mut soak = SearchBuilder::new(Scheme::Serial)
        .config(MctsConfig {
            playouts: soak_playouts,
            arena_budget_bytes: Some(soak_budget),
            ..Default::default()
        })
        .evaluator(Arc::clone(&uniform))
        .reuse(true)
        .build_reusable();
    let mut g = root.clone();
    let mut result = mcts::SearchResult::default();
    let decile = soak_cycles / 10;
    let mut rates = [0f64; 10];
    for rate in &mut rates {
        let mut playouts = 0u64;
        let t0 = Instant::now();
        for _ in 0..decile {
            if g.status() != games::Status::Ongoing {
                g = root.clone();
                soak.reset();
            }
            soak.search_into(&g, &mut result);
            playouts += result.stats.playouts;
            let a = result.best_action();
            soak.advance(a);
            g.apply(a);
        }
        *rate = playouts as f64 / t0.elapsed().as_secs_f64();
    }
    let evicted = soak.tree_stats().map_or(0, |s| s.evicted);
    let ratio = rates[9] / rates[0];
    let _ = writeln!(
        json,
        "  \"soak\": {{\"scheme\": \"serial+reuse\", \"budget_bytes\": {soak_budget}, \"cycles\": {soak_cycles}, \"playouts_per_cycle\": {soak_playouts}, \"first_decile_playouts_per_s\": {:.1}, \"last_decile_playouts_per_s\": {:.1}, \"ratio\": {ratio:.4}, \"evicted\": {evicted}}}",
        rates[0], rates[9]
    );
    eprintln!(
        "{:>13} / uniform: {:>9.0} playouts/s soak decile 1, {:>9.0} decile 10 (ratio {ratio:.3}, {evicted} evicted, {} KiB budget)",
        "lru-soak",
        rates[0],
        rates[9],
        soak_budget / 1024
    );

    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write bench output");
    println!("wrote {out_path}");
}
