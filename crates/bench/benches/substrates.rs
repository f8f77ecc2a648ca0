//! Substrate micro-benchmarks: the kernels whose profiled latencies feed
//! the performance models (GEMM, convolution, full network inference,
//! game-state operations, in-tree search over the synthetic tree).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use games::gomoku::Gomoku;
use games::Game;
use nn::{NetConfig, PolicyValueNet};
use perfmodel::profiler::profile_in_tree;
use std::time::Duration;
use tensor::ops::gemm;
use tensor::{Tensor, Workspace};

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    configure(&mut group);
    for n in [32usize, 64, 128] {
        let a = vec![0.5f32; n * n];
        let b = vec![0.25f32; n * n];
        group.bench_with_input(BenchmarkId::new("nn", n), &n, |bench, &n| {
            let mut out = vec![0.0f32; n * n];
            bench.iter(|| gemm(false, false, n, n, n, 1.0, &a, &b, 0.0, &mut out));
        });
    }
    group.finish();
}

fn bench_net_predict(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_predict");
    configure(&mut group);
    let net = PolicyValueNet::new(NetConfig::gomoku15(), 1);
    for batch in [1usize, 8, 32] {
        let x = Tensor::full(&[batch, 4, 15, 15], 0.3);
        group.bench_with_input(BenchmarkId::new("gomoku15", batch), &batch, |b, _| {
            let mut ws = Workspace::new();
            let (mut policy, mut values) = (Vec::new(), Vec::new());
            b.iter(|| net.predict_into(&x, &mut ws, &mut policy, &mut values));
        });
    }
    group.finish();
}

fn bench_game_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("game_ops");
    configure(&mut group);
    group.bench_function("gomoku15_apply_and_status", |b| {
        b.iter(|| {
            let mut g = Gomoku::standard();
            for a in [112u16, 113, 96, 98, 126, 127] {
                g.apply(a);
            }
            g.status()
        });
    });
    group.bench_function("gomoku15_legal_actions", |b| {
        let mut g = Gomoku::standard();
        g.apply(112);
        let mut buf = Vec::new();
        b.iter(|| {
            g.legal_actions_into(&mut buf);
            buf.len()
        });
    });
    group.bench_function("gomoku15_encode", |b| {
        let mut g = Gomoku::standard();
        g.apply(112);
        let mut buf = vec![0.0f32; g.encoded_len()];
        b.iter(|| g.encode(&mut buf));
    });
    group.finish();
}

fn bench_synthetic_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthetic_tree");
    configure(&mut group);
    // The paper's design-time profile geometry: Gomoku fanout, shallow.
    group.bench_function("search_200_fanout225", |b| {
        b.iter(|| profile_in_tree(225, 3, 200));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_net_predict,
    bench_game_ops,
    bench_synthetic_tree
);
criterion_main!(benches);
