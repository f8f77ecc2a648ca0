//! AlphaZero-style residual tower: a second architecture of
//! [`PolicyValueNet`].
//!
//! The paper evaluates the plain 5-conv/3-FC network ([`crate::NetConfig`]),
//! but positions its framework as serving *any* DNN-MCTS algorithm (§1).
//! This is the obvious second architecture a user would bring: a
//! conv-bn-relu stem, a tower of residual blocks, and the AlphaZero policy
//! and value heads. It exercises the batch-norm / residual machinery and
//! gives the benchmarks a heavier inference workload to schedule. Training,
//! inference, folding and checkpoints are [`PolicyValueNet`]'s own; only
//! the layers are built here.

use crate::layer::{Conv2d, LayerKind, Linear};
use crate::model::{Architecture, PolicyValueNet};
use crate::norm::BatchNorm2d;
use crate::residual::ResidualBlock;
use rand::rngs::StdRng;

/// Residual-tower hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResNetConfig {
    /// Input channels (encoding planes).
    pub in_c: usize,
    /// Board height.
    pub h: usize,
    /// Board width.
    pub w: usize,
    /// Action-space size (policy logits).
    pub actions: usize,
    /// Trunk width (filters per residual block).
    pub filters: usize,
    /// Number of residual blocks in the tower.
    pub blocks: usize,
    /// Hidden width of the value head.
    pub value_hidden: usize,
}

/// The residual tower: a [`PolicyValueNet`] built from a [`ResNetConfig`].
pub type ResNetPolicyValueNet = PolicyValueNet<ResNetConfig>;

impl ResNetConfig {
    /// A small tower for the 15×15 Gomoku benchmark.
    pub fn gomoku15() -> Self {
        ResNetConfig {
            in_c: 4,
            h: 15,
            w: 15,
            actions: 225,
            filters: 64,
            blocks: 4,
            value_hidden: 64,
        }
    }

    /// Tiny tower for fast unit tests.
    pub fn tiny(in_c: usize, h: usize, w: usize, actions: usize) -> Self {
        ResNetConfig {
            in_c,
            h,
            w,
            actions,
            filters: 8,
            blocks: 2,
            value_hidden: 8,
        }
    }
}

impl Architecture for ResNetConfig {
    fn input_shape(&self) -> (usize, usize, usize) {
        (self.in_c, self.h, self.w)
    }

    fn actions(&self) -> usize {
        self.actions
    }

    fn build(&self, r: &mut StdRng) -> [Vec<LayerKind>; 3] {
        assert!(self.blocks >= 1, "need at least one residual block");
        let f = self.filters;
        let plane = self.h * self.w;
        let mut trunk = vec![
            LayerKind::Conv2d(Conv2d::new(r, self.in_c, f, 3, 1)),
            LayerKind::BatchNorm2d(BatchNorm2d::new(f)),
            LayerKind::ReLU,
        ];
        for _ in 0..self.blocks {
            trunk.push(LayerKind::Residual(Box::new(ResidualBlock::new(r, f))));
        }
        let policy_head = vec![
            LayerKind::Conv2d(Conv2d::new(r, f, 2, 1, 0)),
            LayerKind::BatchNorm2d(BatchNorm2d::new(2)),
            LayerKind::ReLU,
            LayerKind::Flatten,
            LayerKind::Linear(Linear::new(r, 2 * plane, self.actions)),
        ];
        let value_head = vec![
            LayerKind::Conv2d(Conv2d::new(r, f, 1, 1, 0)),
            LayerKind::BatchNorm2d(BatchNorm2d::new(1)),
            LayerKind::ReLU,
            LayerKind::Flatten,
            LayerKind::Linear(Linear::new(r, plane, self.value_hidden)),
            LayerKind::ReLU,
            LayerKind::Linear(Linear::new(r, self.value_hidden, 1)),
            LayerKind::Tanh,
        ];
        [trunk, policy_head, value_head]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tensor::{Tensor, Workspace};

    fn tiny_net() -> ResNetPolicyValueNet {
        ResNetPolicyValueNet::new(ResNetConfig::tiny(3, 4, 4, 16), 21)
    }

    fn rand_t(dims: &[usize], seed: u64) -> Tensor {
        let mut r = StdRng::seed_from_u64(seed);
        tensor::init::uniform(&mut r, dims, -1.0, 1.0)
    }

    fn predict(net: &ResNetPolicyValueNet, x: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (mut policy, mut values) = (Vec::new(), Vec::new());
        net.predict_into(x, &mut Workspace::new(), &mut policy, &mut values);
        (policy, values)
    }

    #[test]
    fn predict_shapes_value_range_and_distributions() {
        let net = tiny_net();
        let x = rand_t(&[3, 3, 4, 4], 2);
        let (pi, values) = predict(&net, &x);
        assert_eq!((pi.len(), values.len()), (48, 3));
        assert!(values.iter().all(|v| (-1.0..=1.0).contains(v)));
        for row in pi.chunks(16) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn tower_has_requested_blocks() {
        let net = tiny_net();
        assert_eq!(net.block_count(), 2);
        let big = ResNetPolicyValueNet::new(ResNetConfig::gomoku15(), 3);
        assert_eq!(big.block_count(), 4);
        assert!(big.has_foldable_norms());
    }

    #[test]
    fn grads_align_with_params() {
        let net = tiny_net();
        let grads = net.grad_buffers();
        let flat = grads.flat();
        let params = net.params();
        assert_eq!(flat.len(), params.len());
        // Each residual block contributes 8 params + stem conv/bn + heads.
        assert!(params.len() > 16);
        for (g, p) in flat.iter().zip(params) {
            assert_eq!(g.dims(), p.dims());
        }
    }

    #[test]
    fn state_tensors_cover_all_batchnorms() {
        let net = tiny_net();
        // stem bn (2) + 2 blocks × 2 bns × 2 (4 each = 8) + policy bn (2) + value bn (2).
        assert_eq!(net.state_tensors().len(), 2 + 8 + 2 + 2);
    }

    #[test]
    fn int8_snapshot_is_refused() {
        assert!(tiny_net().quantized_for_inference().is_none());
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        let mut net = tiny_net();
        let x = rand_t(&[4, 3, 4, 4], 5);
        let mut pi = rand_t(&[4, 16], 6).map(f32::abs);
        for r in 0..4 {
            let s: f32 = pi.row(r).iter().sum();
            for v in &mut pi.data_mut()[r * 16..(r + 1) * 16] {
                *v /= s;
            }
        }
        let target_r = Tensor::from_vec(vec![1.0, -1.0, 0.0, 1.0], &[4, 1]);

        let mut grads = net.grad_buffers();
        let mut losses = Vec::new();
        for _ in 0..60 {
            grads.zero();
            let caches = net.forward_train(&x);
            let parts = net.backward(&caches, &pi, &target_r, &mut grads);
            losses.push(parts.total);
            let flat = grads.flat();
            let lr = 0.05;
            for (p, g) in net.params_mut().into_iter().zip(flat) {
                p.axpy(-lr, g);
            }
        }
        let (first, last) = (losses[0], *losses.last().unwrap());
        assert!(
            last < first - 0.05 && last.is_finite(),
            "loss did not decrease: first {first}, last {last}"
        );
    }

    #[test]
    fn running_stats_update_changes_inference() {
        let mut net = tiny_net();
        let x = rand_t(&[4, 3, 4, 4], 7);
        let before = predict(&net, &x).0;
        for _ in 0..20 {
            let caches = net.forward_train(&x);
            net.update_running_stats(&caches);
        }
        assert_ne!(before, predict(&net, &x).0);
    }

    #[test]
    fn deterministic_from_seed() {
        let a = ResNetPolicyValueNet::new(ResNetConfig::tiny(3, 4, 4, 16), 9);
        let b = ResNetPolicyValueNet::new(ResNetConfig::tiny(3, 4, 4, 16), 9);
        let x = rand_t(&[1, 3, 4, 4], 3);
        assert_eq!(predict(&a, &x), predict(&b, &x));
    }

    #[test]
    fn folded_tower_matches_unfolded_eval() {
        let mut net = tiny_net();
        let x = rand_t(&[4, 3, 4, 4], 33);
        for _ in 0..10 {
            let caches = net.forward_train(&x);
            net.update_running_stats(&caches);
        }
        let folded = net.folded_for_inference();
        let x = rand_t(&[3, 3, 4, 4], 34);
        let (p_ref, v_ref) = predict(&net, &x);
        let (p_fold, v_fold) = predict(&folded, &x);
        for (f, u) in p_fold.iter().zip(&p_ref).chain(v_fold.iter().zip(&v_ref)) {
            assert!((f - u).abs() < 1e-4, "{f} vs {u}");
        }
    }
}
