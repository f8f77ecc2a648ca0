//! Figure 7 — DNN loss over wall-clock time when training with the
//! optimal parallel configuration at different worker counts.
//!
//! The paper's observations to reproduce:
//! 1. the converged loss is *not* degraded by more parallel workers
//!    (despite obsolete-tree-information effects), and
//! 2. more workers reach a given loss *sooner* in wall-clock time
//!    (steeper convergence curves).
//!
//! This binary performs real training runs (small Gomoku, tiny net — the
//! reference host has two vCPUs, so worker counts stay small) and writes
//! one CSV per configuration plus a combined summary.
//!
//! Run: `cargo run --release -p bench --bin fig7_loss_curves`

use bench::{header, small_gomoku_setup, write_results};
use mcts::{MctsConfig, Scheme};
use train::{Pipeline, PipelineConfig};

fn main() {
    println!("Figure 7: DNN loss over time, real training runs");
    println!("(small Gomoku 7x7/4-in-a-row, tiny net; N scaled to this host)\n");

    let configs: [(usize, Scheme); 3] = [
        (1, Scheme::Serial),
        (2, Scheme::LocalTree),
        (4, Scheme::SharedTree),
    ];

    header(&[
        "N",
        "scheme",
        "episodes",
        "samples",
        "final loss",
        "t_total(s)",
    ]);
    let mut summary = String::from("n,scheme,samples,final_loss,updates\n");
    for (n, scheme) in configs {
        let (game, net) = small_gomoku_setup(123);
        let cfg = PipelineConfig {
            episodes: 8,
            sgd_iters: 15,
            batch_size: 32,
            lr: 5e-3,
            momentum: 0.9,
            weight_decay: 1e-4,
            replay_capacity: 4096,
            temperature_moves: 6,
            max_moves: 49,
            scheme,
            mcts: MctsConfig {
                playouts: 48,
                workers: n,
                ..Default::default()
            },
            seed: 1000 + n as u64,
            lr_schedule: None,
            overlapped_training: false,
            augment_symmetries: false,
        };
        let mut pipeline = Pipeline::new(game, (*net).clone(), cfg);
        let report = pipeline.run();

        let csv_name = format!("fig7_loss_n{n}.csv");
        let mut csv = String::from("t_sec,value_loss,policy_loss,total_loss\n");
        for p in &report.loss_curve {
            csv.push_str(&format!(
                "{:.4},{:.6},{:.6},{:.6}\n",
                p.t_sec, p.value, p.policy, p.total
            ));
        }
        let _ = write_results(&csv_name, &csv);

        let final_loss = report.final_loss.unwrap_or(f32::NAN);
        let t_total = report.loss_curve.last().map(|p| p.t_sec).unwrap_or(0.0);
        summary.push_str(&format!(
            "{n},{},{},{final_loss:.4},{}\n",
            scheme.name(),
            report.samples,
            report.loss_curve.len()
        ));
        println!(
            "{:>14} {:>14} {:>14} {:>14} {:>14.4} {:>14.2}",
            n,
            scheme.name(),
            report.episodes,
            report.samples,
            final_loss,
            t_total
        );
    }

    match write_results("fig7_summary.csv", &summary) {
        Ok(p) => println!("\nwrote per-run CSVs and {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    println!("check: final losses should be comparable across N (parallelism does");
    println!("not degrade convergence), matching the paper's Figure 7.");
}
