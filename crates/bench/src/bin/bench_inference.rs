//! Emit `BENCH_inference.json` (schema v3): the machine-readable
//! record of the inference fast path.
//!
//! Measures, on this machine:
//! * GEMM GFLOP/s (square sizes) — retained baseline kernel vs the packed
//!   register-blocked kernel (and its MT variant) vs the int8-quantized
//!   kernel with fused dequant epilogue;
//! * `PolicyValueNet` batch-forward throughput (paper-size gomoku15 net)
//!   on the served `predict_into`, in both f32 and int8 precision
//!   (`precision` field);
//! * steady-state `NnEvaluator::evaluate_batch` throughput per precision.
//!
//! Usage: `bench_inference [--smoke] [out_path]` (default
//! `BENCH_inference.json`). `--smoke` shrinks repetitions so CI can prove
//! the binary runs without paying measurement time.

use mcts::{BatchEvaluator, EvalOutput, NnEvaluator, Precision};
use nn::{NetConfig, PolicyValueNet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use tensor::quant::{qgemm, QuantizedWeights};
use tensor::{Tensor, Workspace};

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Median seconds per call over `reps` timed calls (after `warm` warm-ups).
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

fn cpu_has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn cpu_has_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_inference.json".to_string());
    let (warm, reps) = if smoke { (1, 1) } else { (3, 15) };

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"meta\": {{\"schema_version\": 3, \"tensor_threads\": {}, \"smoke\": {smoke}, \
         \"cpu\": {{\"avx2\": {}, \"fma\": {}, \"int8_simd\": {}, \"int8_kernel\": \"{}\"}}}},",
        tensor::pool::parallelism(),
        cpu_has_avx2(),
        cpu_has_fma(),
        tensor::quant::simd_enabled(),
        tensor::quant::kernel_name()
    );

    // --- GEMM kernels -----------------------------------------------------
    json.push_str("  \"gemm\": [\n");
    let sizes = [64usize, 128, 256];
    for (i, &n) in sizes.iter().enumerate() {
        let a = rand_vec(n * n, 1);
        let b = rand_vec(n * n, 2);
        let mut c = vec![0.0f32; n * n];
        let flops = (2 * n * n * n) as f64;
        let t_base = time_median(warm, reps, || {
            tensor::ops::baseline::gemm(false, false, n, n, n, 1.0, &a, &b, 0.0, &mut c);
        });
        let t_new = time_median(warm, reps, || {
            tensor::ops::gemm(false, false, n, n, n, 1.0, &a, &b, 0.0, &mut c);
        });
        let t_mt = time_median(warm, reps, || {
            tensor::ops::gemm_mt(false, false, n, n, n, 1.0, &a, &b, 0.0, &mut c);
        });
        // Int8 path: A quantized once (the weight side, amortized at
        // snapshot time in serving), activations quantized per call.
        let qw = QuantizedWeights::quantize(&a, n, n);
        let t_q = time_median(warm, reps, || {
            qgemm(&qw, &b, false, n, &mut c, None, false);
        });
        let _ = writeln!(
            json,
            "    {{\"size\": {n}, \"baseline_gflops\": {:.2}, \"packed_gflops\": {:.2}, \
             \"packed_mt_gflops\": {:.2}, \"int8_gflops\": {:.2}, \"speedup\": {:.2}, \
             \"int8_speedup\": {:.2}}}{}",
            flops / t_base / 1e9,
            flops / t_new / 1e9,
            flops / t_mt / 1e9,
            flops / t_q / 1e9,
            t_base / t_new,
            t_new / t_q,
            if i + 1 < sizes.len() { "," } else { "" }
        );
        println!(
            "gemm {n}^3: baseline {:.2} GFLOP/s, packed {:.2} GFLOP/s ({:.2}x), \
             int8 {:.2} GFLOP/s ({:.2}x over packed)",
            flops / t_base / 1e9,
            flops / t_new / 1e9,
            t_base / t_new,
            flops / t_q / 1e9,
            t_new / t_q
        );
    }
    json.push_str("  ],\n");

    // --- Batch forward (paper-size net) -----------------------------------
    let net = PolicyValueNet::new(NetConfig::gomoku15(), 3);
    let qnet = net
        .quantized_for_inference()
        .expect("gomoku15 topology quantizes");
    let sample = net.config.in_c * net.config.h * net.config.w;
    json.push_str("  \"forward\": [\n");
    let batches = [1usize, 4, 8, 16, 32];
    for (i, &batch) in batches.iter().enumerate() {
        let x = Tensor::from_vec(
            rand_vec(batch * sample, 10 + batch as u64),
            &[batch, net.config.in_c, net.config.h, net.config.w],
        );
        let mut ws = Workspace::new();
        let (mut policy, mut values) = (Vec::new(), Vec::new());
        // The f32 forward is the first call of each batch: warm it for as
        // many calls as two timings take, so that it, like the int8
        // forward after it, is timed on warm caches and clocks.
        let t_ws = time_median(warm + 2 * (warm + reps), reps, || {
            net.predict_into(&x, &mut ws, &mut policy, &mut values);
        });
        let t_q = time_median(warm, reps, || {
            qnet.predict_into(&x, &mut ws, &mut policy, &mut values);
        });
        let b = batch as f64;
        let _ = writeln!(
            json,
            "    {{\"batch\": {batch}, \"precision\": \"f32\", \"workspace_sps\": {:.1}}},",
            b / t_ws,
        );
        let _ = writeln!(
            json,
            "    {{\"batch\": {batch}, \"precision\": \"int8\", \"workspace_sps\": {:.1}, \
             \"speedup_vs_f32\": {:.2}}}{}",
            b / t_q,
            t_ws / t_q,
            if i + 1 < batches.len() { "," } else { "" }
        );
        println!(
            "forward b={batch}: f32 {:.1} samples/s, int8 {:.1} samples/s ({:.2}x over f32)",
            b / t_ws,
            b / t_q,
            t_ws / t_q
        );
    }
    json.push_str("  ],\n");

    // --- Evaluator steady state -------------------------------------------
    let net = Arc::new(net);
    let batch = 32usize;
    let inputs: Vec<Vec<f32>> = (0..batch)
        .map(|i| rand_vec(sample, 100 + i as u64))
        .collect();
    let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
    let mut out = vec![EvalOutput::default(); batch];
    json.push_str("  \"evaluate_batch\": [\n");
    for (i, precision) in [Precision::F32, Precision::Int8].into_iter().enumerate() {
        let eval = NnEvaluator::with_precision(Arc::clone(&net), batch, precision);
        let t_eval = time_median(warm, reps, || {
            eval.evaluate_batch(&refs, &mut out);
        });
        let label = match precision {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        };
        let _ = writeln!(
            json,
            "    {{\"batch\": {batch}, \"precision\": \"{label}\", \
             \"samples_per_sec\": {:.1}}}{}",
            batch as f64 / t_eval,
            if i == 0 { "," } else { "" }
        );
        println!(
            "evaluate_batch b={batch} {label}: {:.1} samples/s",
            batch as f64 / t_eval
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
}
