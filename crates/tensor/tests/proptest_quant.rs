//! Property-based guarantees of the int8 quantization path
//! ([`tensor::quant`]): the weight round-trip error bound, qgemm parity
//! with the f32 reference over arbitrary shapes, and the serving
//! convolution against its `im2col` → `qgemm` oracle, bit for bit.

use proptest::prelude::*;
use tensor::conv::{im2col, Conv2dSpec};
use tensor::ops::{gemm_ep, Epilogue};
use tensor::quant::{qconv2d, qgemm, QuantizedWeights};
use tensor::Workspace;

fn rand_vec(n: usize, seed: u64, scale: f32) -> Vec<f32> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-output-channel symmetric quantization: every dequantized
    /// weight is within half a quantization step of the original (the
    /// round-to-nearest bound), where the step is that row's scale.
    #[test]
    fn weight_round_trip_error_bounded_by_half_scale(
        rows in 1usize..24, cols in 1usize..48,
        seed in 0u64..10_000, scale in 0.01f32..8.0,
    ) {
        let w = rand_vec(rows * cols, seed, scale);
        let q = QuantizedWeights::quantize(&w, rows, cols);
        let back = q.dequantize();
        for r in 0..rows {
            let step = q.scales()[r];
            for c in 0..cols {
                let (orig, rt) = (w[r * cols + c], back[r * cols + c]);
                prop_assert!(
                    (orig - rt).abs() <= 0.5 * step + 1e-7,
                    "row {r} col {c}: {orig} -> {rt}, step {step}"
                );
            }
        }
    }

    /// A row's scale is exactly its max |w| over the quantized range, so
    /// the relative round-trip error of the largest element is zero.
    #[test]
    fn row_scales_track_row_maxima(
        rows in 1usize..16, cols in 1usize..32, seed in 0u64..10_000,
    ) {
        let w = rand_vec(rows * cols, seed, 2.0);
        let q = QuantizedWeights::quantize(&w, rows, cols);
        let back = q.dequantize();
        for r in 0..rows {
            let maxabs = w[r * cols..(r + 1) * cols]
                .iter()
                .fold(0.0f32, |m, v| m.max(v.abs()));
            if maxabs > 0.0 {
                let (i, _) = w[r * cols..(r + 1) * cols]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
                    .unwrap();
                let err = (w[r * cols + i] - back[r * cols + i]).abs();
                prop_assert!(
                    err <= 1e-6 * maxabs.max(1.0),
                    "row max must survive the round trip: err {err}"
                );
            }
        }
    }

    /// qgemm (quantize activations + int8 kernel + dequant epilogue)
    /// tracks the f32 GEMM within the combined quantization error bound,
    /// for both the conv ([k,n]) and linear ([n,k]) activation layouts.
    #[test]
    fn qgemm_matches_f32_within_quant_error(
        m in 1usize..20, n in 1usize..20, k in 1usize..32,
        tb in proptest::bool::ANY, relu in proptest::bool::ANY,
        seed in 0u64..10_000,
    ) {
        let w = rand_vec(m * k, seed, 1.0);
        let x = rand_vec(k * n, seed ^ 1, 1.0);
        let bias = rand_vec(m, seed ^ 2, 0.5);
        let qw = QuantizedWeights::quantize(&w, m, k);
        let mut c_q = vec![0.0f32; m * n];
        qgemm(&qw, &x, tb, n, &mut c_q, Some(&bias), relu);
        let mut c_f = vec![0.0f32; m * n];
        if tb {
            gemm_ep(false, true, n, m, k, 1.0, &x, &w, 0.0, &mut c_f, Epilogue {
                bias_col: Some(&bias), relu, ..Default::default()
            });
        } else {
            gemm_ep(false, false, m, n, k, 1.0, &w, &x, 0.0, &mut c_f, Epilogue {
                bias_row: Some(&bias), relu, ..Default::default()
            });
        }
        // Error bound: activation step × Σ|w| + weight step × Σ|x| per
        // output, plus the cross term (see tensor::quant unit tests).
        let s_x = x.iter().fold(0.0f32, |a, v| a.max(v.abs())) / 127.0;
        for row in 0..m {
            let s_w = qw.scales()[row];
            let w_row = &w[row * k..(row + 1) * k];
            let sum_w: f32 = w_row.iter().map(|v| v.abs()).sum();
            for j in 0..n {
                let x_col: f32 = (0..k)
                    .map(|kk| if tb { x[j * k + kk] } else { x[kk * n + j] }.abs())
                    .sum();
                let bound =
                    0.5 * s_x * sum_w + 0.5 * s_w * x_col + 0.25 * s_x * s_w * k as f32 + 1e-4;
                let idx = if tb { j * m + row } else { row * n + j };
                let (q_v, f_v) = (c_q[idx], c_f[idx]);
                prop_assert!(
                    (q_v - f_v).abs() <= bound,
                    "[{row},{j}]: int8 {q_v} vs f32 {f_v} (bound {bound})"
                );
            }
        }
    }

    /// The serving convolution (quantize each sample once, gather u8 into
    /// the panels) equals `im2col` → `qgemm` run sample by sample, bit for
    /// bit: over 1×1 and 3×3 kernels, pad 0/1, boards with rows narrower
    /// and wider than a vector, channel counts off the tile edges (up to
    /// two 16-row tiles and a trailing 8-row one), output planes under one
    /// wide panel and exactly one, several batch sizes, bias and ReLU on
    /// and off.
    #[test]
    fn qconv2d_equals_im2col_then_qgemm_bitwise(
        in_c in 1usize..10, out_c in 1usize..41,
        board in 0usize..5, kernel_pad in 0usize..3, batch in 0usize..4,
        bias in proptest::bool::ANY, relu in proptest::bool::ANY,
        seed in 0u64..10_000,
    ) {
        let (in_h, in_w) = [(5, 7), (9, 9), (4, 11), (3, 3), (4, 4)][board];
        let (k, pad) = [(1, 0), (3, 0), (3, 1)][kernel_pad];
        let batch = [1, 2, 3, 8][batch];
        let spec = Conv2dSpec { in_c, out_c, in_h, in_w, kh: k, kw: k, stride: 1, pad };
        let (rows, cols) = (spec.col_rows(), spec.col_cols());
        let w = rand_vec(out_c * rows, seed, 1.0);
        let img_len = in_c * in_h * in_w;
        // Each sample on its own scale, so a scale shared by the batch
        // would show.
        let x: Vec<f32> = (0..batch)
            .flat_map(|b| rand_vec(img_len, seed ^ (b as u64 + 1), 0.1 + b as f32))
            .collect();
        let bias_vec = rand_vec(out_c, seed ^ 99, 0.5);
        let bias = bias.then_some(&bias_vec[..]);

        let mut got = vec![f32::NAN; batch * out_c * cols];
        let conv_w = QuantizedWeights::quantize_conv(&w, out_c, in_c, k, k);
        qconv2d(&conv_w, &spec, &x, &mut got, bias, relu, &mut Workspace::new());

        let flat_w = QuantizedWeights::quantize(&w, out_c, rows);
        let mut col = vec![0.0f32; rows * cols];
        let mut want = vec![0.0f32; out_c * cols];
        for (b, img) in x.chunks_exact(img_len).enumerate() {
            im2col(&spec, img, &mut col);
            qgemm(&flat_w, &col, false, cols, &mut want, bias, relu);
            let got = &got[b * out_c * cols..(b + 1) * out_c * cols];
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "sample {} element {}: {} vs {}", b, i, g, w);
            }
        }
    }
}
