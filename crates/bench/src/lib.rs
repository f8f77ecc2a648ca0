//! Shared helpers for the figure-regeneration binaries and benches.
//!
//! Every figure of the paper's evaluation (§5) has a dedicated binary in
//! `src/bin/` (`fig3_batch_sweep` … `fig7_loss_curves`, `alg4_vsearch`,
//! `sec5_5_divergence`, `profile_serial`), whose module docs name the
//! claim it checks. The reference host has two vCPUs and no GPU, so each
//! binary prints two kinds of series:
//!
//! * **simulated** — the discrete-event timeline simulator from
//!   `perfmodel::sim` parameterized like the paper's 64-core + A6000
//!   platform (these reproduce the figure *shapes*), and
//! * **measured** (where cheap enough) — real runs of the actual parallel
//!   implementations at host-feasible scales, validating the code paths.

use games::gomoku::Gomoku;
use nn::{NetConfig, PolicyValueNet};
use perfmodel::profiler::ProfiledCosts;
use std::sync::Arc;

pub mod json;

/// Column width used by the table printers.
pub const COL: usize = 14;

/// Print a table header row.
pub fn header(cols: &[&str]) {
    let row: Vec<String> = cols.iter().map(|c| format!("{c:>COL$}")).collect();
    println!("{}", row.join(" "));
    println!("{}", "-".repeat((COL + 1) * cols.len()));
}

/// Print one formatted row of numeric cells.
pub fn row(label: &str, values: &[f64]) {
    let mut cells = vec![format!("{label:>COL$}")];
    cells.extend(values.iter().map(|v| format!("{v:>COL$.2}")));
    println!("{}", cells.join(" "));
}

/// A small Gomoku board + matching tiny net, cheap enough for real
/// (measured) runs on this host.
pub fn small_gomoku_setup(seed: u64) -> (Gomoku, Arc<PolicyValueNet>) {
    let game = Gomoku::new(7, 4);
    let net = PolicyValueNet::new(NetConfig::tiny(4, 7, 7, 49), seed);
    (game, Arc::new(net))
}

/// The paper's full-size benchmark: 15×15 Gomoku and the 5-conv/3-FC net.
pub fn paper_gomoku_setup(seed: u64) -> (Gomoku, Arc<PolicyValueNet>) {
    let game = Gomoku::standard();
    let net = PolicyValueNet::new(NetConfig::gomoku15(), seed);
    (game, Arc::new(net))
}

/// Profiled costs calibrated to the paper's platform, used when a binary
/// needs paper-scale inputs without paying host profiling time. Values
/// follow the same magnitudes as `perfmodel::sim::SimParams::paper_like`.
pub fn paper_costs() -> ProfiledCosts {
    ProfiledCosts {
        t_select_ns: 6_000.0,
        t_backup_ns: 3_000.0,
        t_shared_access_ns: 400.0,
        t_dnn_cpu_ns: 1_200_000.0,
    }
}

/// Write a CSV string to `results/<name>` (creating the directory),
/// returning the path written.
pub fn write_results(name: &str, csv: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, csv)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use games::Game;

    #[test]
    fn small_setup_shapes_match() {
        let (g, net) = small_gomoku_setup(1);
        assert_eq!(g.action_space(), net.config.actions);
        assert_eq!(g.encoded_shape().1, net.config.h);
    }

    #[test]
    fn paper_setup_is_15x15_with_5conv_3fc() {
        let (g, net) = paper_gomoku_setup(1);
        assert_eq!(g.action_space(), 225);
        assert_eq!(net.conv_count(), 5);
        assert_eq!(net.fc_count(), 3);
    }

    #[test]
    fn results_writer_creates_files() {
        let p = write_results("unit_test.csv", "a,b\n1,2\n").unwrap();
        assert!(p.exists());
        std::fs::remove_file(p).unwrap();
    }
}
