//! Ablation benches for the extension features: tree reuse across moves,
//! speculative search commit batching, symmetry augmentation, and the
//! residual tower vs the paper's plain network.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use games::symmetry::augment_sample;
use games::tictactoe::TicTacToe;
use games::Game;
use mcts::reuse::ReusableSearch;
use mcts::speculative::SpeculativeSearch;
use mcts::{MctsConfig, NnEvaluator, SearchScheme, UniformEvaluator};
use nn::resnet::{ResNetConfig, ResNetPolicyValueNet};
use nn::{NetConfig, PolicyValueNet};
use std::sync::Arc;
use std::time::Duration;
use tensor::{Tensor, Workspace};

fn short_group<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}

/// Fresh tree per move vs re-rooted tree, playing 4 self-play moves.
fn bench_tree_reuse(c: &mut Criterion) {
    let mut group = short_group(c, "tree_reuse");
    let cfg = MctsConfig {
        playouts: 64,
        ..Default::default()
    };
    group.bench_function("fresh_tree_4_moves", |b| {
        b.iter(|| {
            let eval = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
            let mut s = ReusableSearch::one_shot(cfg, eval);
            let mut g = TicTacToe::new();
            for _ in 0..4 {
                let r = s.search(&g);
                g.apply(r.best_action());
            }
            g
        });
    });
    group.bench_function("reused_tree_4_moves", |b| {
        b.iter(|| {
            let eval = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
            let mut s = ReusableSearch::new(cfg, eval);
            let mut g = TicTacToe::new();
            for _ in 0..4 {
                let r = s.search(&g);
                let a = r.best_action();
                s.advance(a);
                g.apply(a);
            }
            g
        });
    });
    group.finish();
}

/// Speculative search at different commit batch sizes (1 = immediate
/// correction, larger = deeper pipeline).
fn bench_speculative(c: &mut Criterion) {
    let mut group = short_group(c, "speculative_commit_batch");
    let cfg = MctsConfig {
        playouts: 64,
        ..Default::default()
    };
    let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 9));
    for commit in [1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(commit), &commit, |b, &k| {
            let main = Arc::new(NnEvaluator::new(Arc::clone(&net)));
            let spec = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
            let mut s = SpeculativeSearch::new(cfg, main, spec, k);
            let game = TicTacToe::new();
            b.iter(|| SearchScheme::<TicTacToe>::search(&mut s, &game));
        });
    }
    group.finish();
}

/// Eightfold symmetry expansion of one Gomoku-sized sample.
fn bench_augmentation(c: &mut Criterion) {
    let mut group = short_group(c, "symmetry_augmentation");
    for n in [9usize, 15] {
        let planes: Vec<f32> = (0..4 * n * n).map(|v| (v % 13) as f32).collect();
        let policy: Vec<f32> = (0..n * n).map(|v| (v % 7) as f32 / 100.0).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| augment_sample(&planes, &policy, 4, n));
        });
    }
    group.finish();
}

/// Inference cost: the paper's 5-conv/3-FC net vs the residual tower.
fn bench_architectures(c: &mut Criterion) {
    let mut group = short_group(c, "architecture_forward");
    let plain = PolicyValueNet::new(NetConfig::for_board(4, 9, 9, 81), 2);
    let tower = ResNetPolicyValueNet::new(
        ResNetConfig {
            in_c: 4,
            h: 9,
            w: 9,
            actions: 81,
            filters: 32,
            blocks: 3,
            value_hidden: 32,
        },
        2,
    );
    let x = Tensor::ones(&[4, 4, 9, 9]);
    let mut ws = Workspace::new();
    let (mut policy, mut values) = (Vec::new(), Vec::new());
    group.bench_function("plain_5conv3fc", |b| {
        b.iter(|| plain.predict_into(&x, &mut ws, &mut policy, &mut values))
    });
    group.bench_function("resnet_tower", |b| {
        b.iter(|| tower.predict_into(&x, &mut ws, &mut policy, &mut values))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tree_reuse,
    bench_speculative,
    bench_augmentation,
    bench_architectures
);
criterion_main!(benches);
