//! Batch normalization (Ioffe & Szegedy) for NCHW feature maps.
//!
//! Normalization statistics differ between modes:
//!
//! * **Inference** (`Layer::forward`): uses the frozen running mean/variance,
//!   so the pass stays pure (`&self`) and thread-safe for parallel inference
//!   workers — the same contract every other layer obeys.
//! * **Training** (`Layer::forward_train`): normalizes with the statistics of
//!   the current mini-batch. The pass is still pure; the separate
//!   [`BatchNorm2d::update_running_stats`] hook (called by the training loop
//!   via `Layer::update_running_stats`) folds the batch statistics into the
//!   running estimates.
//!
//! The backward pass recomputes the batch statistics from the cached layer
//! input, so it is exact for training-mode forwards without storing extra
//! activations (the same recompute-over-store tradeoff the residual block
//! makes).

use tensor::Tensor;

/// Per-channel batch normalization over `[b, c, h, w]` tensors.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    /// Learned scale `γ`, `[c]`.
    pub gamma: Tensor,
    /// Learned shift `β`, `[c]`.
    pub beta: Tensor,
    /// Running mean used at inference, `[c]`.
    pub running_mean: Tensor,
    /// Running variance used at inference, `[c]`.
    pub running_var: Tensor,
    /// Exponential-moving-average factor for the running statistics.
    pub momentum: f32,
    /// Variance floor added before the square root.
    pub eps: f32,
    pub channels: usize,
}

/// Per-channel mean and biased variance of a `[b, c, h, w]` batch.
fn batch_stats(x: &Tensor, c: usize) -> (Vec<f32>, Vec<f32>) {
    let d = x.dims();
    assert_eq!(d.len(), 4, "BatchNorm2d expects NCHW input");
    assert_eq!(d[1], c, "channel count mismatch");
    let (b, h, w) = (d[0], d[2], d[3]);
    let plane = h * w;
    let m = (b * plane) as f32;
    let mut mean = vec![0.0f32; c];
    let mut var = vec![0.0f32; c];
    for bi in 0..b {
        for (ci, m) in mean.iter_mut().enumerate() {
            let base = (bi * c + ci) * plane;
            let slice = &x.data()[base..base + plane];
            *m += slice.iter().sum::<f32>();
        }
    }
    for mv in &mut mean {
        *mv /= m;
    }
    for bi in 0..b {
        for ci in 0..c {
            let base = (bi * c + ci) * plane;
            for &v in &x.data()[base..base + plane] {
                let dlt = v - mean[ci];
                var[ci] += dlt * dlt;
            }
        }
    }
    for vv in &mut var {
        *vv /= m;
    }
    (mean, var)
}

impl BatchNorm2d {
    /// Identity-initialized batch norm (`γ = 1`, `β = 0`) with PyTorch-style
    /// defaults (`momentum = 0.1`, `eps = 1e-5`).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            channels,
        }
    }

    fn normalize(&self, x: &Tensor, mean: &[f32], var: &[f32]) -> Tensor {
        let mut out = x.clone();
        self.normalize_inplace(&mut out, mean, var);
        out
    }

    fn normalize_inplace(&self, x: &mut Tensor, mean: &[f32], var: &[f32]) {
        let d = x.dims();
        let (b, c, plane) = (d[0], d[1], d[2] * d[3]);
        for bi in 0..b {
            for ci in 0..c {
                let inv_std = (var[ci] + self.eps).sqrt().recip();
                let scale = self.gamma.data()[ci] * inv_std;
                let shift = self.beta.data()[ci] - mean[ci] * scale;
                let base = (bi * c + ci) * plane;
                for v in &mut x.data_mut()[base..base + plane] {
                    *v = *v * scale + shift;
                }
            }
        }
    }

    /// Inference-mode forward using the running statistics.
    pub fn forward_eval(&self, x: &Tensor) -> Tensor {
        self.normalize(x, self.running_mean.data(), self.running_var.data())
    }

    /// In-place inference-mode forward (the zero-allocation path); same
    /// numerics as [`BatchNorm2d::forward_eval`].
    pub fn forward_eval_inplace(&self, x: &mut Tensor) {
        let d = x.dims();
        assert_eq!(d.len(), 4, "BatchNorm2d expects NCHW input");
        assert_eq!(d[1], self.channels, "channel count mismatch");
        self.normalize_inplace(x, self.running_mean.data(), self.running_var.data());
    }

    /// True when evaluation is exactly the identity for every channel
    /// (scale 1, shift 0) — the state [`crate::fuse`] leaves behind after
    /// folding this norm into the preceding convolution, letting the fast
    /// forward path skip the pass entirely.
    ///
    /// Deliberately recomputed from the parameters (a few sqrt per layer,
    /// noise next to a GEMM) rather than cached as a flag: the exact check
    /// can never skip a norm that still does work, no matter how the
    /// public fields are later mutated.
    pub fn is_identity(&self) -> bool {
        (0..self.channels).all(|ci| {
            let inv_std = (self.running_var.data()[ci] + self.eps).sqrt().recip();
            let scale = self.gamma.data()[ci] * inv_std;
            let shift = self.beta.data()[ci] - self.running_mean.data()[ci] * scale;
            scale == 1.0 && shift == 0.0
        })
    }

    /// Training-mode forward using the current batch statistics. Pure: the
    /// running estimates are *not* touched (see
    /// [`BatchNorm2d::update_running_stats`]).
    pub fn forward_batch(&self, x: &Tensor) -> Tensor {
        let (mean, var) = batch_stats(x, self.channels);
        self.normalize(x, &mean, &var)
    }

    /// Fold the batch statistics of `x` into the running estimates:
    /// `running ← (1 − momentum)·running + momentum·batch`. Uses the
    /// unbiased variance for the running estimate (PyTorch convention).
    pub fn update_running_stats(&mut self, x: &Tensor) {
        let (mean, var) = batch_stats(x, self.channels);
        let d = x.dims();
        let m = (d[0] * d[2] * d[3]) as f32;
        let unbias = if m > 1.0 { m / (m - 1.0) } else { 1.0 };
        for ci in 0..self.channels {
            let rm = &mut self.running_mean.data_mut()[ci];
            *rm = (1.0 - self.momentum) * *rm + self.momentum * mean[ci];
            let rv = &mut self.running_var.data_mut()[ci];
            *rv = (1.0 - self.momentum) * *rv + self.momentum * var[ci] * unbias;
        }
    }

    /// Training-mode backward. `x` is the cached layer input; batch
    /// statistics are recomputed from it. Accumulates `dγ` into `grads[0]`
    /// and `dβ` into `grads[1]`; returns `dL/dx`.
    pub fn backward(&self, x: &Tensor, grad_out: &Tensor, grads: &mut [Tensor]) -> Tensor {
        let (mean, var) = batch_stats(x, self.channels);
        let d = x.dims();
        let (b, c, plane) = (d[0], d[1], d[2] * d[3]);
        let m = (b * plane) as f32;
        let (gg, rest) = grads.split_first_mut().expect("batchnorm gamma grad");
        let gb = rest.first_mut().expect("batchnorm beta grad");

        let mut gi = Tensor::zeros(x.dims());
        for ci in 0..c {
            let inv_std = (var[ci] + self.eps).sqrt().recip();
            // Channel reductions: Σ dy, Σ dy·x̂.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for bi in 0..b {
                let base = (bi * c + ci) * plane;
                let xs = &x.data()[base..base + plane];
                let gs = &grad_out.data()[base..base + plane];
                for (xv, gv) in xs.iter().zip(gs) {
                    let xhat = (xv - mean[ci]) * inv_std;
                    sum_dy += gv;
                    sum_dy_xhat += gv * xhat;
                }
            }
            gg.data_mut()[ci] += sum_dy_xhat;
            gb.data_mut()[ci] += sum_dy;
            // dx = γ·inv_std/m · (m·dy − Σdy − x̂·Σ(dy·x̂))
            let k = self.gamma.data()[ci] * inv_std / m;
            for bi in 0..b {
                let base = (bi * c + ci) * plane;
                for i in 0..plane {
                    let xv = x.data()[base + i];
                    let gv = grad_out.data()[base + i];
                    let xhat = (xv - mean[ci]) * inv_std;
                    gi.data_mut()[base + i] = k * (m * gv - sum_dy - xhat * sum_dy_xhat);
                }
            }
        }
        gi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rand_t(dims: &[usize], seed: u64) -> Tensor {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        tensor::init::uniform(&mut r, dims, -2.0, 2.0)
    }

    #[test]
    fn fresh_layer_is_identity_at_inference() {
        let bn = BatchNorm2d::new(3);
        let x = rand_t(&[2, 3, 4, 4], 1);
        let y = bn.forward_eval(&x);
        // running mean 0, var 1, γ=1, β=0 → y ≈ x (up to eps scaling).
        for (yv, xv) in y.data().iter().zip(x.data()) {
            assert!((yv - xv).abs() < 1e-4, "{yv} vs {xv}");
        }
    }

    #[test]
    fn train_forward_normalizes_each_channel() {
        let bn = BatchNorm2d::new(2);
        let x = rand_t(&[4, 2, 3, 3], 2);
        let y = bn.forward_batch(&x);
        let (mean, var) = batch_stats(&y, 2);
        for ci in 0..2 {
            assert!(mean[ci].abs() < 1e-4, "channel {ci} mean {}", mean[ci]);
            assert!((var[ci] - 1.0).abs() < 1e-3, "channel {ci} var {}", var[ci]);
        }
    }

    #[test]
    fn gamma_beta_rescale_output() {
        let mut bn = BatchNorm2d::new(1);
        bn.gamma = Tensor::full(&[1], 2.0);
        bn.beta = Tensor::full(&[1], 0.5);
        let x = rand_t(&[2, 1, 2, 2], 3);
        let y = bn.forward_batch(&x);
        let (mean, var) = batch_stats(&y, 1);
        assert!((mean[0] - 0.5).abs() < 1e-4);
        assert!((var[0] - 4.0).abs() < 1e-2);
    }

    #[test]
    fn running_stats_converge_to_batch_stats() {
        let mut bn = BatchNorm2d::new(2);
        let x = rand_t(&[8, 2, 4, 4], 4);
        let (mean, var) = batch_stats(&x, 2);
        let m = 8.0 * 16.0;
        for _ in 0..200 {
            bn.update_running_stats(&x);
        }
        for ci in 0..2 {
            assert!((bn.running_mean.data()[ci] - mean[ci]).abs() < 1e-3);
            let unbiased = var[ci] * m / (m - 1.0);
            assert!((bn.running_var.data()[ci] - unbiased).abs() < 1e-3);
        }
    }

    #[test]
    fn eval_matches_train_once_running_stats_converge() {
        let mut bn = BatchNorm2d::new(2);
        let x = rand_t(&[8, 2, 4, 4], 5);
        for _ in 0..400 {
            bn.update_running_stats(&x);
        }
        let ye = bn.forward_eval(&x);
        let yt = bn.forward_batch(&x);
        let m = 8.0 * 16.0f32;
        // Eval uses the unbiased variance → outputs differ by √(m/(m−1)).
        let ratio = (m / (m - 1.0)).sqrt();
        for (e, t) in ye.data().iter().zip(yt.data()) {
            assert!((e * ratio - t).abs() < 2e-2, "{e} vs {t}");
        }
    }

    #[test]
    fn single_element_batch_does_not_blow_up() {
        let bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[1, 1, 1, 1], 3.0);
        let y = bn.forward_batch(&x);
        assert!(y.data()[0].is_finite());
        // Zero variance → output is β.
        assert!(y.data()[0].abs() < 1e-2);
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let mut bn = BatchNorm2d::new(2);
        bn.gamma = Tensor::from_vec(vec![1.3, 0.7], &[2]);
        bn.beta = Tensor::from_vec(vec![0.1, -0.2], &[2]);
        let x = rand_t(&[3, 2, 2, 2], 6);
        let g_out = rand_t(&[3, 2, 2, 2], 7);
        let mut grads = vec![Tensor::zeros(&[2]), Tensor::zeros(&[2])];
        let gx = bn.backward(&x, &g_out, &mut grads);

        let loss = |bn: &BatchNorm2d, x: &Tensor| -> f32 {
            bn.forward_batch(x)
                .data()
                .iter()
                .zip(g_out.data())
                .map(|(&y, &g)| y * g)
                .sum()
        };
        let eps = 1e-2;
        // Input gradient.
        let mut xp = x.clone();
        for idx in [0usize, x.numel() / 2, x.numel() - 1] {
            let orig = xp.data()[idx];
            xp.data_mut()[idx] = orig + eps;
            let lp = loss(&bn, &xp);
            xp.data_mut()[idx] = orig - eps;
            let lm = loss(&bn, &xp);
            xp.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 3e-2,
                "dx mismatch at {idx}: fd={fd} an={}",
                gx.data()[idx]
            );
        }
        // γ and β gradients.
        for ci in 0..2 {
            let mut b2 = bn.clone();
            let orig = b2.gamma.data()[ci];
            b2.gamma.data_mut()[ci] = orig + eps;
            let lp = loss(&b2, &x);
            b2.gamma.data_mut()[ci] = orig - eps;
            let lm = loss(&b2, &x);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - grads[0].data()[ci]).abs() < 3e-2, "dγ mismatch");

            let mut b3 = bn.clone();
            let orig = b3.beta.data()[ci];
            b3.beta.data_mut()[ci] = orig + eps;
            let lp = loss(&b3, &x);
            b3.beta.data_mut()[ci] = orig - eps;
            let lm = loss(&b3, &x);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - grads[1].data()[ci]).abs() < 3e-2, "dβ mismatch");
        }
    }

    #[test]
    #[should_panic(expected = "NCHW")]
    fn rejects_non_nchw_input() {
        let bn = BatchNorm2d::new(2);
        let x = Tensor::zeros(&[2, 2]);
        let _ = bn.forward_batch(&x);
    }
}
