//! Kernel and batch-forward throughput: the packed register-blocked GEMM
//! (single- and multi-threaded) against the retained baseline kernel, and
//! `PolicyValueNet::predict_into` batch throughput — the forward every
//! server runs.
//!
//! Set `BENCH_SMOKE=1` (CI) to run each benchmark once with a minimal
//! budget — enough to prove the bench code executes, no timing value.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nn::{NetConfig, PolicyValueNet};
use std::time::Duration;
use tensor::{Tensor, Workspace};

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn configure(group: &mut criterion::BenchmarkGroup<'_>) {
    if smoke() {
        group
            .sample_size(1)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(1));
    } else {
        group
            .sample_size(20)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(2));
    }
}

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    configure(&mut group);
    for &n in &[64usize, 128, 256] {
        let a = rand_vec(n * n, 1);
        let b = rand_vec(n * n, 2);
        let mut out = vec![0.0f32; n * n];
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("baseline", n), &n, |bch, &n| {
            bch.iter(|| {
                tensor::ops::baseline::gemm(false, false, n, n, n, 1.0, &a, &b, 0.0, &mut out)
            });
        });
        group.bench_with_input(BenchmarkId::new("packed", n), &n, |bch, &n| {
            bch.iter(|| tensor::ops::gemm(false, false, n, n, n, 1.0, &a, &b, 0.0, &mut out));
        });
        group.bench_with_input(BenchmarkId::new("packed_mt", n), &n, |bch, &n| {
            bch.iter(|| tensor::ops::gemm_mt(false, false, n, n, n, 1.0, &a, &b, 0.0, &mut out));
        });
    }
    group.finish();
}

fn bench_batch_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("pv_forward");
    configure(&mut group);
    let net = PolicyValueNet::new(NetConfig::gomoku15(), 3);
    let sample = net.config.in_c * net.config.h * net.config.w;
    for &batch in &[1usize, 8, 32] {
        let x = Tensor::from_vec(
            rand_vec(batch * sample, batch as u64),
            &[batch, net.config.in_c, net.config.h, net.config.w],
        );
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::new("predict_into", batch), &batch, |bch, _| {
            let mut ws = Workspace::new();
            let mut policy = Vec::new();
            let mut values = Vec::new();
            bch.iter(|| net.predict_into(&x, &mut ws, &mut policy, &mut values));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_batch_forward);
criterion_main!(benches);
