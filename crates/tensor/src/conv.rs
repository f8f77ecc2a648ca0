//! 2-D convolution via im2col/col2im.
//!
//! The forward pass unfolds the **whole `[B, C, H, W]` batch** into one
//! `[col_rows, B·col_cols]` matrix and runs a **single GEMM per layer call**
//! (with the bias — and optionally ReLU — fused into the GEMM's output
//! loop), instead of one im2col + one GEMM per image. The backward passes
//! stay per-image GEMMs over the same packed kernel. All scratch (im2col
//! matrix, GEMM staging) comes from a [`Workspace`], so steady-state
//! inference allocates nothing.
//!
//! Layout conventions (all row-major, contiguous):
//! * input:   `[batch, in_c, in_h, in_w]`
//! * weights: `[out_c, in_c, kh, kw]`
//! * output:  `[batch, out_c, out_h, out_w]`
//! * im2col matrix for one image: `[in_c*kh*kw, out_h*out_w]`
//! * batched im2col matrix: `[in_c*kh*kw, batch*out_h*out_w]`, image `b`
//!   occupying columns `[b*col_cols, (b+1)*col_cols)`

use crate::ops::{gemm, gemm_ep, Epilogue};
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Static description of a convolution (shapes, stride, padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    pub in_c: usize,
    pub out_c: usize,
    pub in_h: usize,
    pub in_w: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
}

impl Conv2dSpec {
    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Rows of the im2col matrix (= elements per output patch).
    pub fn col_rows(&self) -> usize {
        self.in_c * self.kh * self.kw
    }

    /// Columns of the im2col matrix (= output pixels), for one image.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Validate that the spec is internally consistent.
    pub fn validate(&self) {
        assert!(self.stride >= 1, "stride must be >= 1");
        assert!(
            self.in_h + 2 * self.pad >= self.kh && self.in_w + 2 * self.pad >= self.kw,
            "kernel larger than padded input"
        );
    }
}

/// Copy one im2col row segment for image data `img_c` (a single channel),
/// kernel offset `(ky, kx)`, into `dst` (`col_cols` long).
#[inline]
fn unfold_row(spec: &Conv2dSpec, img_c: &[f32], ky: usize, kx: usize, dst: &mut [f32]) {
    let (oh, ow) = (spec.out_h(), spec.out_w());
    for oy in 0..oh {
        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
        let d = &mut dst[oy * ow..(oy + 1) * ow];
        if iy < 0 || iy >= spec.in_h as isize {
            d.fill(0.0);
            continue;
        }
        let img_row = &img_c[iy as usize * spec.in_w..(iy as usize + 1) * spec.in_w];
        if spec.stride == 1 {
            // Stride 1 ⇒ the in-bounds span `ox ∈ [lo, hi)` (where
            // `ix = ox + kx - pad` stays inside the row) is one contiguous
            // memcpy; only the padded fringes need zero fills.
            let ix0 = kx as isize - spec.pad as isize;
            let lo = (-ix0).clamp(0, ow as isize) as usize;
            let hi = (spec.in_w as isize - ix0).clamp(lo as isize, ow as isize) as usize;
            d[..lo].fill(0.0);
            d[hi..].fill(0.0);
            if lo < hi {
                let src = (lo as isize + ix0) as usize;
                d[lo..hi].copy_from_slice(&img_row[src..src + (hi - lo)]);
            }
        } else {
            for (ox, v) in d.iter_mut().enumerate() {
                let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                *v = if ix < 0 || ix >= spec.in_w as isize {
                    0.0
                } else {
                    img_row[ix as usize]
                };
            }
        }
    }
}

/// Unfold one image (`[in_c, in_h, in_w]`) into the im2col matrix `col`
/// (`[col_rows, col_cols]`). Out-of-bounds (padding) entries become 0.
pub fn im2col(spec: &Conv2dSpec, img: &[f32], col: &mut [f32]) {
    assert_eq!(img.len(), spec.in_c * spec.in_h * spec.in_w);
    assert_eq!(col.len(), spec.col_rows() * spec.col_cols());
    let cols = spec.col_cols();
    for c in 0..spec.in_c {
        let img_c = &img[c * spec.in_h * spec.in_w..(c + 1) * spec.in_h * spec.in_w];
        for ky in 0..spec.kh {
            for kx in 0..spec.kw {
                let row = (c * spec.kh + ky) * spec.kw + kx;
                unfold_row(spec, img_c, ky, kx, &mut col[row * cols..(row + 1) * cols]);
            }
        }
    }
}

/// Unfold a whole `[batch, in_c, in_h, in_w]` batch into one
/// `[col_rows, batch*col_cols]` matrix: image `b` fills columns
/// `[b*col_cols, (b+1)*col_cols)` of every row, so a single GEMM covers the
/// entire batch.
pub fn im2col_batch(spec: &Conv2dSpec, batch: usize, input: &[f32], col: &mut [f32]) {
    let img_len = spec.in_c * spec.in_h * spec.in_w;
    let cols = spec.col_cols();
    let bcols = batch * cols;
    assert_eq!(input.len(), batch * img_len);
    assert_eq!(col.len(), spec.col_rows() * bcols);
    for c in 0..spec.in_c {
        for ky in 0..spec.kh {
            for kx in 0..spec.kw {
                let row = (c * spec.kh + ky) * spec.kw + kx;
                let out_row = &mut col[row * bcols..(row + 1) * bcols];
                for b in 0..batch {
                    let img_c =
                        &input[b * img_len + c * spec.in_h * spec.in_w..][..spec.in_h * spec.in_w];
                    unfold_row(spec, img_c, ky, kx, &mut out_row[b * cols..(b + 1) * cols]);
                }
            }
        }
    }
}

/// Fold the im2col matrix back, *accumulating* into `img` (used for the
/// gradient w.r.t. the input). `img` must be zeroed by the caller first if a
/// fresh gradient is wanted.
pub fn col2im(spec: &Conv2dSpec, col: &[f32], img: &mut [f32]) {
    let (oh, ow) = (spec.out_h(), spec.out_w());
    assert_eq!(img.len(), spec.in_c * spec.in_h * spec.in_w);
    assert_eq!(col.len(), spec.col_rows() * spec.col_cols());
    let cols = oh * ow;
    for c in 0..spec.in_c {
        let img_c = &mut img[c * spec.in_h * spec.in_w..(c + 1) * spec.in_h * spec.in_w];
        for ky in 0..spec.kh {
            for kx in 0..spec.kw {
                let row = (c * spec.kh + ky) * spec.kw + kx;
                let src_row = &col[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                    if iy < 0 || iy >= spec.in_h as isize {
                        continue;
                    }
                    let img_row =
                        &mut img_c[iy as usize * spec.in_w..(iy as usize + 1) * spec.in_w];
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                        if ix >= 0 && ix < spec.in_w as isize {
                            img_row[ix as usize] += src_row[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
}

/// Forward convolution for a batch: **one GEMM per call**, not per image.
///
/// The batch is unfolded into a single `[col_rows, B·col_cols]` matrix, one
/// `[out_c, col_rows] × [col_rows, B·col_cols]` GEMM computes every output
/// channel for every image, and the result is scattered back into the NCHW
/// output. `bias` and `relu` are fused into the GEMM's output loop. All
/// scratch comes from `ws`.
pub fn conv2d_forward(
    spec: &Conv2dSpec,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    relu: bool,
    output: &mut Tensor,
    ws: &mut Workspace,
) {
    spec.validate();
    let batch = input.dims()[0];
    assert_eq!(input.dims(), &[batch, spec.in_c, spec.in_h, spec.in_w]);
    assert_eq!(weight.dims(), &[spec.out_c, spec.in_c, spec.kh, spec.kw]);
    let (oh, ow) = (spec.out_h(), spec.out_w());
    assert_eq!(output.dims(), &[batch, spec.out_c, oh, ow]);
    if let Some(bias) = bias {
        assert_eq!(bias.numel(), spec.out_c, "bias length");
    }
    if batch == 0 {
        return;
    }

    let (rows, cols) = (spec.col_rows(), spec.col_cols());
    let bcols = batch * cols;
    let ep = Epilogue {
        bias_row: bias.map(|b| b.data()),
        bias_col: None,
        relu,
    };

    if batch == 1 {
        // [1, out_c, oh, ow] is exactly the GEMM output layout: no staging.
        let col = ws.col_buf(rows * cols);
        im2col(spec, input.data(), col);
        gemm_ep(
            false,
            false,
            spec.out_c,
            cols,
            rows,
            1.0,
            weight.data(),
            col,
            0.0,
            output.data_mut(),
            ep,
        );
        return;
    }

    let (col, stage) = ws.col_and_stage(rows * bcols, spec.out_c * bcols);
    im2col_batch(spec, batch, input.data(), col);
    // stage[oc, b*cols + pix] = W[oc, :] · col[:, b*cols + pix] (+bias, relu)
    gemm_ep(
        false,
        false,
        spec.out_c,
        bcols,
        rows,
        1.0,
        weight.data(),
        col,
        0.0,
        stage,
        ep,
    );
    // Scatter [out_c, B, cols] → [B, out_c, cols].
    let out_len = spec.out_c * cols;
    let out = output.data_mut();
    for b in 0..batch {
        for oc in 0..spec.out_c {
            out[b * out_len + oc * cols..b * out_len + (oc + 1) * cols]
                .copy_from_slice(&stage[oc * bcols + b * cols..oc * bcols + (b + 1) * cols]);
        }
    }
}

/// Pre-rewrite forward convolution: one im2col + one baseline GEMM **per
/// image**, bias applied in a separate pass. Retained as the numerical
/// reference for parity tests.
pub fn conv2d_forward_ref(
    spec: &Conv2dSpec,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    output: &mut Tensor,
) {
    spec.validate();
    let batch = input.dims()[0];
    let (oh, ow) = (spec.out_h(), spec.out_w());
    let img_len = spec.in_c * spec.in_h * spec.in_w;
    let out_len = spec.out_c * oh * ow;
    let (rows, cols) = (spec.col_rows(), spec.col_cols());
    let mut scratch = vec![0.0f32; rows * cols];

    for b in 0..batch {
        let img = &input.data()[b * img_len..(b + 1) * img_len];
        im2col(spec, img, &mut scratch);
        let out = &mut output.data_mut()[b * out_len..(b + 1) * out_len];
        crate::ops::baseline::gemm(
            false,
            false,
            spec.out_c,
            cols,
            rows,
            1.0,
            weight.data(),
            &scratch,
            0.0,
            out,
        );
        if let Some(bias) = bias {
            for oc in 0..spec.out_c {
                let bv = bias.data()[oc];
                for v in &mut out[oc * cols..(oc + 1) * cols] {
                    *v += bv;
                }
            }
        }
    }
}

/// Backward convolution: computes gradients w.r.t. input, weight and bias.
///
/// `grad_out` is `[batch, out_c, oh, ow]`. `grad_input`/`grad_weight`/
/// `grad_bias` are *accumulated into* (zero them for fresh gradients);
/// accumulation lets a training step sum gradients over micro-batches.
/// Scratch (the im2col matrix and the col-form gradient) comes from `ws`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward(
    spec: &Conv2dSpec,
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    grad_input: &mut Tensor,
    grad_weight: &mut Tensor,
    grad_bias: Option<&mut Tensor>,
    ws: &mut Workspace,
) {
    spec.validate();
    let batch = input.dims()[0];
    let (oh, ow) = (spec.out_h(), spec.out_w());
    let (rows, cols) = (spec.col_rows(), spec.col_cols());
    let img_len = spec.in_c * spec.in_h * spec.in_w;
    let out_len = spec.out_c * oh * ow;
    assert_eq!(grad_out.dims(), &[batch, spec.out_c, oh, ow]);
    assert_eq!(grad_input.dims(), input.dims());
    assert_eq!(grad_weight.dims(), weight.dims());

    // col holds the im2col of the input (for dW); col_grad the col-form
    // gradient (for dX).
    let (col, col_grad) = ws.col_and_stage(rows * cols, rows * cols);

    if let Some(gb) = grad_bias {
        debug_assert_eq!(gb.numel(), spec.out_c);
        for b in 0..batch {
            let go = &grad_out.data()[b * out_len..(b + 1) * out_len];
            for oc in 0..spec.out_c {
                gb.data_mut()[oc] += go[oc * cols..(oc + 1) * cols].iter().sum::<f32>();
            }
        }
    }

    for b in 0..batch {
        let img = &input.data()[b * img_len..(b + 1) * img_len];
        let go = &grad_out.data()[b * out_len..(b + 1) * out_len];

        // dW[oc, r] += GO[oc, pix] * col[r, pix]ᵀ
        im2col(spec, img, col);
        gemm(
            false,
            true,
            spec.out_c,
            rows,
            cols,
            1.0,
            go,
            col,
            1.0,
            grad_weight.data_mut(),
        );

        // col_grad[r, pix] = Wᵀ[r, oc] * GO[oc, pix], then fold back.
        gemm(
            true,
            false,
            rows,
            cols,
            spec.out_c,
            1.0,
            weight.data(),
            go,
            0.0,
            col_grad,
        );
        let gi = &mut grad_input.data_mut()[b * img_len..(b + 1) * img_len];
        col2im(spec, col_grad, gi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec3x3() -> Conv2dSpec {
        Conv2dSpec {
            in_c: 2,
            out_c: 3,
            in_h: 5,
            in_w: 5,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        }
    }

    /// Direct (nested-loop) convolution used as a reference.
    fn conv_ref(
        spec: &Conv2dSpec,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
    ) -> Tensor {
        let batch = input.dims()[0];
        let (oh, ow) = (spec.out_h(), spec.out_w());
        let mut out = Tensor::zeros(&[batch, spec.out_c, oh, ow]);
        for b in 0..batch {
            for oc in 0..spec.out_c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.map_or(0.0, |bt| bt.data()[oc]);
                        for ic in 0..spec.in_c {
                            for ky in 0..spec.kh {
                                for kx in 0..spec.kw {
                                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                    let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                    if iy < 0
                                        || ix < 0
                                        || iy >= spec.in_h as isize
                                        || ix >= spec.in_w as isize
                                    {
                                        continue;
                                    }
                                    acc += input.at(&[b, ic, iy as usize, ix as usize])
                                        * weight.at(&[oc, ic, ky, kx]);
                                }
                            }
                        }
                        *out.at_mut(&[b, oc, oy, ox]) = acc;
                    }
                }
            }
        }
        out
    }

    fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(), dims)
    }

    #[test]
    fn spec_output_dims() {
        let s = spec3x3();
        assert_eq!((s.out_h(), s.out_w()), (5, 5)); // same-padding
        let s2 = Conv2dSpec { pad: 0, ..s };
        assert_eq!((s2.out_h(), s2.out_w()), (3, 3));
        let s3 = Conv2dSpec { stride: 2, ..s };
        assert_eq!((s3.out_h(), s3.out_w()), (3, 3));
    }

    #[test]
    fn forward_matches_direct_convolution() {
        let spec = spec3x3();
        let input = rand_tensor(&[2, 2, 5, 5], 1);
        let weight = rand_tensor(&[3, 2, 3, 3], 2);
        let bias = rand_tensor(&[3], 3);
        let mut out = Tensor::zeros(&[2, 3, 5, 5]);
        let mut ws = Workspace::new();
        conv2d_forward(
            &spec,
            &input,
            &weight,
            Some(&bias),
            false,
            &mut out,
            &mut ws,
        );
        let reference = conv_ref(&spec, &input, &weight, Some(&bias));
        for (a, b) in out.data().iter().zip(reference.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn batched_forward_matches_per_image_reference() {
        let spec = spec3x3();
        let input = rand_tensor(&[5, 2, 5, 5], 40);
        let weight = rand_tensor(&[3, 2, 3, 3], 41);
        let bias = rand_tensor(&[3], 42);
        let mut fast = Tensor::zeros(&[5, 3, 5, 5]);
        let mut ws = Workspace::new();
        conv2d_forward(
            &spec,
            &input,
            &weight,
            Some(&bias),
            false,
            &mut fast,
            &mut ws,
        );
        let mut reference = Tensor::zeros(&[5, 3, 5, 5]);
        conv2d_forward_ref(&spec, &input, &weight, Some(&bias), &mut reference);
        for (a, b) in fast.data().iter().zip(reference.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn fused_relu_matches_separate_relu() {
        let spec = spec3x3();
        let input = rand_tensor(&[3, 2, 5, 5], 50);
        let weight = rand_tensor(&[3, 2, 3, 3], 51);
        let bias = rand_tensor(&[3], 52);
        let mut ws = Workspace::new();
        let mut fused = Tensor::zeros(&[3, 3, 5, 5]);
        conv2d_forward(
            &spec,
            &input,
            &weight,
            Some(&bias),
            true,
            &mut fused,
            &mut ws,
        );
        let mut plain = Tensor::zeros(&[3, 3, 5, 5]);
        conv2d_forward(
            &spec,
            &input,
            &weight,
            Some(&bias),
            false,
            &mut plain,
            &mut ws,
        );
        for (f, p) in fused.data().iter().zip(plain.data()) {
            assert_eq!(*f, p.max(0.0), "fused ReLU must equal separate ReLU");
        }
    }

    #[test]
    fn im2col_batch_stacks_per_image_blocks() {
        let spec = spec3x3();
        let input = rand_tensor(&[3, 2, 5, 5], 60);
        let (rows, cols) = (spec.col_rows(), spec.col_cols());
        let mut batched = vec![0.0f32; rows * 3 * cols];
        im2col_batch(&spec, 3, input.data(), &mut batched);
        let img_len = spec.in_c * spec.in_h * spec.in_w;
        let mut single = vec![0.0f32; rows * cols];
        for b in 0..3 {
            im2col(
                &spec,
                &input.data()[b * img_len..(b + 1) * img_len],
                &mut single,
            );
            for r in 0..rows {
                assert_eq!(
                    &batched[r * 3 * cols + b * cols..r * 3 * cols + (b + 1) * cols],
                    &single[r * cols..(r + 1) * cols],
                    "row {r} image {b}"
                );
            }
        }
    }

    #[test]
    fn forward_stride2_no_pad() {
        let spec = Conv2dSpec {
            in_c: 1,
            out_c: 1,
            in_h: 6,
            in_w: 6,
            kh: 2,
            kw: 2,
            stride: 2,
            pad: 0,
        };
        let input = rand_tensor(&[1, 1, 6, 6], 4);
        let weight = rand_tensor(&[1, 1, 2, 2], 5);
        let mut out = Tensor::zeros(&[1, 1, 3, 3]);
        let mut ws = Workspace::new();
        conv2d_forward(&spec, &input, &weight, None, false, &mut out, &mut ws);
        let reference = conv_ref(&spec, &input, &weight, None);
        for (a, b) in out.data().iter().zip(reference.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.
        let spec = spec3x3();
        let x = rand_tensor(&[1, 2, 5, 5], 7);
        let rows = spec.col_rows() * spec.col_cols();
        let y = rand_tensor(&[rows], 8);
        let mut col = vec![0.0; rows];
        im2col(&spec, x.data(), &mut col);
        let lhs: f32 = col.iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let mut back = vec![0.0; x.numel()];
        col2im(&spec, y.data(), &mut back);
        let rhs: f32 = x.data().iter().zip(&back).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_weight_matches_finite_difference() {
        let spec = Conv2dSpec {
            in_c: 1,
            out_c: 2,
            in_h: 4,
            in_w: 4,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let input = rand_tensor(&[1, 1, 4, 4], 10);
        let mut weight = rand_tensor(&[2, 1, 3, 3], 11);
        let go = rand_tensor(&[1, 2, 4, 4], 12);
        let mut gi = Tensor::zeros(&[1, 1, 4, 4]);
        let mut gw = Tensor::zeros(&[2, 1, 3, 3]);
        let mut gb = Tensor::zeros(&[2]);
        let mut ws = Workspace::new();
        conv2d_backward(
            &spec,
            &input,
            &weight,
            &go,
            &mut gi,
            &mut gw,
            Some(&mut gb),
            &mut ws,
        );

        // loss = sum(out * go); d loss / d w ~ finite difference.
        let eps = 1e-3;
        let loss = |w: &Tensor, ws: &mut Workspace| -> f32 {
            let mut out = Tensor::zeros(&[1, 2, 4, 4]);
            conv2d_forward(&spec, &input, w, None, false, &mut out, ws);
            out.data().iter().zip(go.data()).map(|(&o, &g)| o * g).sum()
        };
        for idx in [0usize, 4, 8, 17] {
            let orig = weight.data()[idx];
            weight.data_mut()[idx] = orig + eps;
            let lp = loss(&weight, &mut ws);
            weight.data_mut()[idx] = orig - eps;
            let lm = loss(&weight, &mut ws);
            weight.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = gw.data()[idx];
            assert!((fd - an).abs() < 1e-2, "dW[{idx}]: fd {fd} vs {an}");
        }
    }

    #[test]
    fn backward_input_matches_finite_difference() {
        let spec = Conv2dSpec {
            in_c: 1,
            out_c: 1,
            in_h: 4,
            in_w: 4,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let mut input = rand_tensor(&[1, 1, 4, 4], 20);
        let weight = rand_tensor(&[1, 1, 3, 3], 21);
        let go = rand_tensor(&[1, 1, 4, 4], 22);
        let mut gi = Tensor::zeros(&[1, 1, 4, 4]);
        let mut gw = Tensor::zeros(&[1, 1, 3, 3]);
        let mut ws = Workspace::new();
        conv2d_backward(&spec, &input, &weight, &go, &mut gi, &mut gw, None, &mut ws);

        let eps = 1e-3;
        let loss = |x: &Tensor, ws: &mut Workspace| -> f32 {
            let mut out = Tensor::zeros(&[1, 1, 4, 4]);
            conv2d_forward(&spec, x, &weight, None, false, &mut out, ws);
            out.data().iter().zip(go.data()).map(|(&o, &g)| o * g).sum()
        };
        for idx in [0usize, 5, 10, 15] {
            let orig = input.data()[idx];
            input.data_mut()[idx] = orig + eps;
            let lp = loss(&input, &mut ws);
            input.data_mut()[idx] = orig - eps;
            let lm = loss(&input, &mut ws);
            input.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = gi.data()[idx];
            assert!((fd - an).abs() < 1e-2, "dX[{idx}]: fd {fd} vs {an}");
        }
    }

    #[test]
    fn bias_gradient_sums_grad_out() {
        let spec = Conv2dSpec {
            in_c: 1,
            out_c: 2,
            in_h: 3,
            in_w: 3,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        let input = rand_tensor(&[1, 1, 3, 3], 30);
        let weight = rand_tensor(&[2, 1, 1, 1], 31);
        let go = Tensor::ones(&[1, 2, 3, 3]);
        let mut gi = Tensor::zeros(&[1, 1, 3, 3]);
        let mut gw = Tensor::zeros(&[2, 1, 1, 1]);
        let mut gb = Tensor::zeros(&[2]);
        let mut ws = Workspace::new();
        conv2d_backward(
            &spec,
            &input,
            &weight,
            &go,
            &mut gi,
            &mut gw,
            Some(&mut gb),
            &mut ws,
        );
        assert_eq!(gb.data(), &[9.0, 9.0]);
    }
}
