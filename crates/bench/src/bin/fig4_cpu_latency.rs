//! Figure 4 — Amortized per-worker-iteration latency on the CPU-only
//! platform: shared-tree vs local-tree vs the adaptive choice, sweeping
//! the number of workers `N`.
//!
//! The paper's observation: the optimal scheme differs across `N` (local
//! wins while inference dominates; shared wins once the serial master
//! becomes the bottleneck), and the adaptive method always picks the
//! winner — up to 1.5× over a fixed scheme.
//!
//! Two sections are printed:
//! 1. a discrete-event simulation with paper-like parameters (reproduces
//!    the figure shape at N up to 64), and
//! 2. real measured runs of the actual implementations at host-feasible
//!    scale (the reference host has two vCPUs, so measured parallel
//!    speedups are limited; the section validates code paths and relative
//!    trends).
//!
//! Run: `cargo run --release -p bench --bin fig4_cpu_latency`

use bench::{header, row, small_gomoku_setup, write_results};
use mcts::{MctsConfig, NnEvaluator, Scheme};
use perfmodel::sim::{simulate_local_cpu, simulate_shared_cpu, SimParams};
use std::sync::Arc;

fn main() {
    println!("Figure 4: iteration latency (µs), CPU-only");
    println!("(simulation, paper-like parameters; 1600 playouts/move)\n");

    let ns = [1usize, 2, 4, 8, 16, 32, 64];
    let mut csv = String::from("n,shared_us,local_us,adaptive_us,scheme,speedup\n");
    header(&["N", "shared", "local", "adaptive", "speedup"]);
    let mut max_speedup: f64 = 1.0;
    for &n in &ns {
        let p = SimParams::paper_like(n);
        let shared = simulate_shared_cpu(&p).iteration_ns / 1000.0;
        let local = simulate_local_cpu(&p).iteration_ns / 1000.0;
        let adaptive = shared.min(local);
        let scheme = if local <= shared { "local" } else { "shared" };
        // Speedup of adaptive over the losing fixed scheme.
        let speedup = shared.max(local) / adaptive;
        max_speedup = max_speedup.max(speedup);
        csv.push_str(&format!(
            "{n},{shared:.3},{local:.3},{adaptive:.3},{scheme},{speedup:.3}\n"
        ));
        row(&format!("{n}"), &[shared, local, adaptive, speedup]);
    }
    println!("\nmax adaptive speedup over a fixed scheme: {max_speedup:.2}x (paper: up to 1.5x)\n");

    println!("Measured on this host (small Gomoku 7x7, tiny net, 128 playouts/move):");
    let (game, net) = small_gomoku_setup(42);
    header(&["N", "serial", "shared", "local"]);
    let mut mcsv = String::from("n,serial_us,shared_us,local_us\n");
    for n in [1usize, 2, 4] {
        let cfg = MctsConfig {
            playouts: 128,
            workers: n,
            ..Default::default()
        };
        let mut vals = Vec::new();
        for scheme in [Scheme::Serial, Scheme::SharedTree, Scheme::LocalTree] {
            let eval = Arc::new(NnEvaluator::new(Arc::clone(&net)));
            let mut search = scheme.build::<games::gomoku::Gomoku>(cfg, eval);
            let _ = search.search(&game); // warm-up
            let r = search.search(&game);
            vals.push(r.stats.amortized_iteration_ns() / 1000.0);
        }
        mcsv.push_str(&format!(
            "{n},{:.3},{:.3},{:.3}\n",
            vals[0], vals[1], vals[2]
        ));
        row(&format!("{n}"), &vals);
    }

    let _ = write_results("fig4_sim.csv", &csv);
    match write_results("fig4_measured.csv", &mcsv) {
        Ok(p) => println!("\nwrote results/fig4_sim.csv and {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
