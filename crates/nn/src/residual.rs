//! Pre-activation-free residual block: `y = relu(bn2(conv2(relu(bn1(conv1 x)))) + x)`.
//!
//! This is the building block of the AlphaZero/AlphaGo-Zero residual tower,
//! offered alongside the paper's plain 5-conv/3-FC network as the
//! "arbitrary DNN-MCTS algorithm" the adaptive framework must serve
//! (§1: the methodology applies to any DNN-MCTS specification).
//!
//! The backward pass *recomputes* the block's internal activations from the
//! cached block input instead of storing them during the forward pass —
//! gradient checkpointing. This keeps the `Layer` calling convention (only
//! the layer input is cached) at the cost of one extra forward per block,
//! a standard memory/compute tradeoff.

use crate::layer::Conv2d;
use crate::norm::BatchNorm2d;
use tensor::{Tensor, Workspace};

/// Two 3×3 convolutions with batch norm and an identity skip connection.
/// Input and output are both `[b, c, h, w]` (channel-preserving).
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    pub conv1: Conv2d,
    pub bn1: BatchNorm2d,
    pub conv2: Conv2d,
    pub bn2: BatchNorm2d,
}

/// Internal activations of one block, recomputed on demand.
struct BlockActs {
    /// `conv1(x)` — input to bn1.
    a1: Tensor,
    /// `bn1(a1)` — pre-ReLU hidden.
    b1: Tensor,
    /// `relu(b1)` — input to conv2.
    h: Tensor,
    /// `conv2(h)` — input to bn2.
    a2: Tensor,
    /// `bn2(a2) + x` — pre-ReLU output.
    z: Tensor,
}

fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

impl ResidualBlock {
    /// He-initialized residual block over `channels` feature maps.
    pub fn new<R: rand::Rng + ?Sized>(rng: &mut R, channels: usize) -> Self {
        ResidualBlock {
            conv1: Conv2d::new(rng, channels, channels, 3, 1),
            bn1: BatchNorm2d::new(channels),
            conv2: Conv2d::new(rng, channels, channels, 3, 1),
            bn2: BatchNorm2d::new(channels),
        }
    }

    fn acts(&self, x: &Tensor, train: bool) -> BlockActs {
        let bn = |b: &BatchNorm2d, t: &Tensor| {
            if train {
                b.forward_batch(t)
            } else {
                b.forward_eval(t)
            }
        };
        let a1 = self.conv1.forward(x);
        let b1 = bn(&self.bn1, &a1);
        let h = relu(&b1);
        let a2 = self.conv2.forward(&h);
        let mut z = bn(&self.bn2, &a2);
        z.add_assign(x);
        BlockActs { a1, b1, h, a2, z }
    }

    /// Inference-mode forward (running batch-norm statistics).
    pub fn forward_eval(&self, x: &Tensor) -> Tensor {
        relu(&self.acts(x, false).z)
    }

    /// Zero-allocation inference forward: activations leased from `ws`,
    /// batch norms applied in place (skipped entirely when folded to the
    /// identity by [`crate::fuse`]). Numerically identical to
    /// [`ResidualBlock::forward_eval`]. The returned tensor's buffer is
    /// leased from `ws`.
    pub fn forward_eval_ws(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut h = self.conv1.forward_ws(x, false, ws);
        if !self.bn1.is_identity() {
            self.bn1.forward_eval_inplace(&mut h);
        }
        h.map_inplace(|v| v.max(0.0));
        let mut z = self.conv2.forward_ws(&h, false, ws);
        ws.release(h.into_vec());
        if !self.bn2.is_identity() {
            self.bn2.forward_eval_inplace(&mut z);
        }
        z.add_assign(x);
        z.map_inplace(|v| v.max(0.0));
        z
    }

    /// Inference snapshot with both batch norms folded into their
    /// convolutions (see [`crate::fuse::fold_conv_bn`]); the remaining norm
    /// layers are exact identities that the fast forward path skips.
    /// Training-mode passes through the folded block are meaningless.
    pub fn fold_inference(&self) -> ResidualBlock {
        ResidualBlock {
            conv1: crate::fuse::fold_conv_bn(&self.conv1, &self.bn1),
            bn1: crate::fuse::identity_bn(self.bn1.channels),
            conv2: crate::fuse::fold_conv_bn(&self.conv2, &self.bn2),
            bn2: crate::fuse::identity_bn(self.bn2.channels),
        }
    }

    /// Training-mode forward (batch statistics). Pure.
    pub fn forward_train(&self, x: &Tensor) -> Tensor {
        relu(&self.acts(x, true).z)
    }

    /// Fold the batch statistics induced by input `x` into both batch-norm
    /// layers' running estimates.
    pub fn update_running_stats(&mut self, x: &Tensor) {
        let acts = self.acts(x, true);
        self.bn1.update_running_stats(&acts.a1);
        self.bn2.update_running_stats(&acts.a2);
    }

    /// Training-mode backward; recomputes internal activations from `x`.
    /// `grads` layout: `[conv1.w, conv1.b, bn1.γ, bn1.β, conv2.w, conv2.b,
    /// bn2.γ, bn2.β]` (same order as [`ResidualBlock::param_views`]).
    pub fn backward(&self, x: &Tensor, grad_out: &Tensor, grads: &mut [Tensor]) -> Tensor {
        assert_eq!(grads.len(), 8, "residual block has 8 parameter tensors");
        let acts = self.acts(x, true);

        // y = relu(z): gate the incoming gradient.
        let mut dz = grad_out.clone();
        for (g, &zv) in dz.data_mut().iter_mut().zip(acts.z.data()) {
            if zv <= 0.0 {
                *g = 0.0;
            }
        }

        // Split grads into the five per-layer views up front:
        // [conv1.w, conv1.b | bn1.γ, bn1.β | conv2.w, conv2.b | bn2.γ, bn2.β]
        let (c1g, rest) = grads.split_at_mut(2);
        let (b1g, rest) = rest.split_at_mut(2);
        let (c2g, b2g) = rest.split_at_mut(2);

        // z = bn2(a2) + x: skip path gets dz directly.
        let da2 = self.bn2.backward(&acts.a2, &dz, b2g);

        // a2 = conv2(h).
        let (c2w, c2b) = c2g.split_at_mut(1);
        let dh = self.conv2.backward(&acts.h, &da2, &mut c2w[0], &mut c2b[0]);

        // h = relu(b1).
        let mut db1 = dh;
        for (g, &bv) in db1.data_mut().iter_mut().zip(acts.b1.data()) {
            if bv <= 0.0 {
                *g = 0.0;
            }
        }

        // b1 = bn1(a1).
        let da1 = self.bn1.backward(&acts.a1, &db1, b1g);

        // a1 = conv1(x).
        let (c1w, c1b) = c1g.split_at_mut(1);
        let mut dx = self.conv1.backward(x, &da1, &mut c1w[0], &mut c1b[0]);

        // Skip connection: dx += dz.
        dx.add_assign(&dz);
        dx
    }

    /// Parameter tensors in gradient-buffer order.
    pub fn param_views(&self) -> Vec<&Tensor> {
        vec![
            &self.conv1.weight,
            &self.conv1.bias,
            &self.bn1.gamma,
            &self.bn1.beta,
            &self.conv2.weight,
            &self.conv2.bias,
            &self.bn2.gamma,
            &self.bn2.beta,
        ]
    }

    /// Mutable parameter tensors (same order).
    pub fn param_views_mut(&mut self) -> Vec<&mut Tensor> {
        vec![
            &mut self.conv1.weight,
            &mut self.conv1.bias,
            &mut self.bn1.gamma,
            &mut self.bn1.beta,
            &mut self.conv2.weight,
            &mut self.conv2.bias,
            &mut self.bn2.gamma,
            &mut self.bn2.beta,
        ]
    }

    /// Non-trainable state (batch-norm running statistics) that checkpoints
    /// must persist: `[bn1.mean, bn1.var, bn2.mean, bn2.var]`.
    pub fn state_views(&self) -> Vec<&Tensor> {
        vec![
            &self.bn1.running_mean,
            &self.bn1.running_var,
            &self.bn2.running_mean,
            &self.bn2.running_var,
        ]
    }

    /// Mutable non-trainable state (same order).
    pub fn state_views_mut(&mut self) -> Vec<&mut Tensor> {
        vec![
            &mut self.bn1.running_mean,
            &mut self.bn1.running_var,
            &mut self.bn2.running_mean,
            &mut self.bn2.running_var,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    fn rand_t(dims: &[usize], seed: u64) -> Tensor {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        tensor::init::uniform(&mut r, dims, -1.0, 1.0)
    }

    #[test]
    fn forward_preserves_shape() {
        let blk = ResidualBlock::new(&mut rng(), 4);
        let x = rand_t(&[2, 4, 5, 5], 1);
        assert_eq!(blk.forward_eval(&x).dims(), x.dims());
        assert_eq!(blk.forward_train(&x).dims(), x.dims());
    }

    #[test]
    fn zeroed_convs_reduce_to_relu_of_skip() {
        // With conv2 weights and bias zero and bn2 at identity-init, the
        // residual branch contributes β₂ = 0, so y = relu(x).
        let mut blk = ResidualBlock::new(&mut rng(), 2);
        blk.conv2.weight.zero_();
        blk.conv2.bias.zero_();
        let x = rand_t(&[1, 2, 3, 3], 2);
        let y = blk.forward_eval(&x);
        for (yv, xv) in y.data().iter().zip(x.data()) {
            assert!((yv - xv.max(0.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn eight_params_four_state_tensors() {
        let blk = ResidualBlock::new(&mut rng(), 3);
        assert_eq!(blk.param_views().len(), 8);
        assert_eq!(blk.state_views().len(), 4);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let blk = ResidualBlock::new(&mut rng(), 2);
        let x = rand_t(&[2, 2, 3, 3], 3);
        let g_out = rand_t(&[2, 2, 3, 3], 4);
        let mut grads: Vec<Tensor> = blk
            .param_views()
            .iter()
            .map(|p| Tensor::zeros(p.dims()))
            .collect();
        let gx = blk.backward(&x, &g_out, &mut grads);

        let loss = |blk: &ResidualBlock, x: &Tensor| -> f32 {
            blk.forward_train(x)
                .data()
                .iter()
                .zip(g_out.data())
                .map(|(&y, &g)| y * g)
                .sum()
        };
        let eps = 1e-2;
        let mut xp = x.clone();
        for idx in [0usize, x.numel() / 2, x.numel() - 1] {
            let orig = xp.data()[idx];
            xp.data_mut()[idx] = orig + eps;
            let lp = loss(&blk, &xp);
            xp.data_mut()[idx] = orig - eps;
            let lm = loss(&blk, &xp);
            xp.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 6e-2,
                "dx mismatch at {idx}: fd={fd} an={}",
                gx.data()[idx]
            );
        }
        // Spot-check one coordinate of every parameter tensor.
        for (pi, _) in blk.param_views().iter().enumerate() {
            let mut b2 = blk.clone();
            let orig = b2.param_views()[pi].data()[0];
            b2.param_views_mut()[pi].data_mut()[0] = orig + eps;
            let lp = loss(&b2, &x);
            b2.param_views_mut()[pi].data_mut()[0] = orig - eps;
            let lm = loss(&b2, &x);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grads[pi].data()[0]).abs() < 6e-2,
                "param {pi} grad mismatch: fd={fd} an={}",
                grads[pi].data()[0]
            );
        }
    }

    #[test]
    fn update_running_stats_moves_both_norms() {
        let mut blk = ResidualBlock::new(&mut rng(), 2);
        let x = rand_t(&[4, 2, 4, 4], 5);
        let before1 = blk.bn1.running_mean.clone();
        let before2 = blk.bn2.running_mean.clone();
        blk.update_running_stats(&x);
        assert_ne!(blk.bn1.running_mean.data(), before1.data());
        assert_ne!(blk.bn2.running_mean.data(), before2.data());
    }
}
