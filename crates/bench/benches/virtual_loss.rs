//! Ablation: constant virtual loss (Chaslot) vs
//! visit-tracking virtual loss (WU-UCT) in the shared-tree scheme.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use games::tictactoe::TicTacToe;
use mcts::shared::SharedTreeSearch;
use mcts::{MctsConfig, SearchScheme, UniformEvaluator, VirtualLoss};
use std::sync::Arc;
use std::time::Duration;

fn bench_virtual_loss(c: &mut Criterion) {
    let mut group = c.benchmark_group("virtual_loss");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let variants: [(&str, VirtualLoss); 3] = [
        ("constant_1", VirtualLoss::Constant(1.0)),
        ("constant_3", VirtualLoss::Constant(3.0)),
        ("visit_tracking", VirtualLoss::VisitTracking),
    ];
    for (name, vl) in variants {
        group.bench_with_input(BenchmarkId::new(name, 4), &vl, |b, &vl| {
            let cfg = MctsConfig {
                playouts: 128,
                workers: 4,
                virtual_loss: vl,
                ..Default::default()
            };
            let eval = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
            let mut search = SharedTreeSearch::new(cfg, eval);
            let game = TicTacToe::new();
            b.iter(|| SearchScheme::<TicTacToe>::search(&mut search, &game));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_virtual_loss);
criterion_main!(benches);
