//! Ablation: per-node mutex (the paper's shared-tree
//! design) vs lock-free atomic statistic updates (Mirsoleimani-style).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use games::tictactoe::TicTacToe;
use mcts::shared::SharedTreeSearch;
use mcts::{LockKind, MctsConfig, SearchScheme, UniformEvaluator};
use std::sync::Arc;
use std::time::Duration;

fn bench_lock_kinds(c: &mut Criterion) {
    let mut group = c.benchmark_group("lock_kinds");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for (name, lock) in [("mutex", LockKind::Mutex), ("atomic", LockKind::Atomic)] {
        for workers in [1usize, 4] {
            group.bench_with_input(BenchmarkId::new(name, workers), &workers, |b, &workers| {
                let cfg = MctsConfig {
                    playouts: 128,
                    workers,
                    lock_kind: lock,
                    ..Default::default()
                };
                let eval = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
                let mut search = SharedTreeSearch::new(cfg, eval);
                let game = TicTacToe::new();
                b.iter(|| SearchScheme::<TicTacToe>::search(&mut search, &game));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lock_kinds);
criterion_main!(benches);
