//! The policy-value network: a convolutional trunk feeding a policy head
//! and a value head. One type, [`PolicyValueNet`], runs every
//! architecture; an [`Architecture`] only says how to build the three
//! layer stacks. The paper's 5-conv / 3-FC net (§5.1) is [`NetConfig`],
//! the residual tower is [`crate::resnet::ResNetConfig`].

use crate::layer::{
    backward_stack, forward_cached_train, forward_stack_ws, update_stack_running_stats, Conv2d,
    Layer, LayerKind, Linear,
};
use crate::loss::{alphazero_loss_backward, LossParts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{Tensor, Workspace};

/// What differs between two policy-value nets: the input shape, the
/// action space, and the layers of the trunk and the two heads.
pub trait Architecture: Copy + std::fmt::Debug + Send + Sync + 'static {
    /// Input sample shape `(channels, h, w)`.
    fn input_shape(&self) -> (usize, usize, usize);

    /// Policy output width (action-space size).
    fn actions(&self) -> usize;

    /// The trunk, policy head and value head, in that order, with fresh
    /// parameters drawn from `rng`. The policy head ends in logits
    /// `[b, actions]`, the value head in tanh values `[b, 1]`.
    fn build(&self, rng: &mut StdRng) -> [Vec<LayerKind>; 3];
}

/// Architecture hyper-parameters of the paper's 5-conv / 3-FC net.
/// Defaults follow the paper's Gomoku setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Input channels (encoding planes).
    pub in_c: usize,
    /// Board height.
    pub h: usize,
    /// Board width.
    pub w: usize,
    /// Action-space size (policy logits).
    pub actions: usize,
    /// Trunk widths for the three 3×3 convolutions.
    pub trunk: [usize; 3],
    /// 1×1 channels feeding the policy FC.
    pub policy_c: usize,
    /// 1×1 channels feeding the value FCs.
    pub value_c: usize,
    /// Hidden width of the value head.
    pub value_hidden: usize,
}

impl NetConfig {
    /// The paper's 15×15 Gomoku configuration.
    pub fn gomoku15() -> Self {
        NetConfig {
            in_c: 4,
            h: 15,
            w: 15,
            actions: 225,
            trunk: [32, 64, 128],
            policy_c: 4,
            value_c: 2,
            value_hidden: 64,
        }
    }

    /// A configuration for an arbitrary board (e.g. small test games).
    pub fn for_board(in_c: usize, h: usize, w: usize, actions: usize) -> Self {
        NetConfig {
            in_c,
            h,
            w,
            actions,
            trunk: [16, 32, 32],
            policy_c: 4,
            value_c: 2,
            value_hidden: 32,
        }
    }

    /// Tiny network for fast unit tests.
    pub fn tiny(in_c: usize, h: usize, w: usize, actions: usize) -> Self {
        NetConfig {
            in_c,
            h,
            w,
            actions,
            trunk: [4, 8, 8],
            policy_c: 2,
            value_c: 1,
            value_hidden: 8,
        }
    }
}

impl Architecture for NetConfig {
    fn input_shape(&self) -> (usize, usize, usize) {
        (self.in_c, self.h, self.w)
    }

    fn actions(&self) -> usize {
        self.actions
    }

    fn build(&self, r: &mut StdRng) -> [Vec<LayerKind>; 3] {
        let [t1, t2, t3] = self.trunk;
        let plane = self.h * self.w;
        let trunk = vec![
            LayerKind::Conv2d(Conv2d::new(r, self.in_c, t1, 3, 1)),
            LayerKind::ReLU,
            LayerKind::Conv2d(Conv2d::new(r, t1, t2, 3, 1)),
            LayerKind::ReLU,
            LayerKind::Conv2d(Conv2d::new(r, t2, t3, 3, 1)),
            LayerKind::ReLU,
        ];
        let policy_head = vec![
            LayerKind::Conv2d(Conv2d::new(r, t3, self.policy_c, 1, 0)),
            LayerKind::ReLU,
            LayerKind::Flatten,
            LayerKind::Linear(Linear::new(r, self.policy_c * plane, self.actions)),
        ];
        let value_head = vec![
            LayerKind::Conv2d(Conv2d::new(r, t3, self.value_c, 1, 0)),
            LayerKind::ReLU,
            LayerKind::Flatten,
            LayerKind::Linear(Linear::new(r, self.value_c * plane, self.value_hidden)),
            LayerKind::ReLU,
            LayerKind::Linear(Linear::new(r, self.value_hidden, 1)),
            LayerKind::Tanh,
        ];
        [trunk, policy_head, value_head]
    }
}

/// Policy-value network with a shared convolutional trunk and two heads.
///
/// Inference ([`PolicyValueNet::predict_into`]) is pure (`&self`), so a
/// single network serves concurrent requests from many worker threads,
/// exactly like a frozen inference model on an accelerator.
#[derive(Debug, Clone)]
pub struct PolicyValueNet<A = NetConfig> {
    pub config: A,
    trunk: Vec<LayerKind>,
    policy_head: Vec<LayerKind>,
    value_head: Vec<LayerKind>,
}

/// Caches from a training-mode forward pass, consumed by `backward`.
pub struct ForwardCaches {
    trunk: Vec<Tensor>,
    policy: Vec<Tensor>,
    value: Vec<Tensor>,
    /// Policy logits `[b, actions]` (pre-softmax).
    pub policy_logits: Tensor,
    /// Value output `[b, 1]` (post-tanh).
    pub values: Tensor,
}

/// Per-layer gradient buffers matching the network's parameter layout.
#[derive(Debug, Clone)]
pub struct NetGrads {
    trunk: Vec<Vec<Tensor>>,
    policy: Vec<Vec<Tensor>>,
    value: Vec<Vec<Tensor>>,
}

impl NetGrads {
    /// Zero all gradient buffers (call between optimizer steps).
    pub fn zero(&mut self) {
        for g in self.flat_mut() {
            g.zero_();
        }
    }

    /// Flat list of gradient tensors, matching [`PolicyValueNet::params`].
    pub fn flat(&self) -> Vec<&Tensor> {
        self.trunk
            .iter()
            .chain(&self.policy)
            .chain(&self.value)
            .flatten()
            .collect()
    }

    /// Mutable flat gradient list (same order; for clipping).
    pub fn flat_mut(&mut self) -> Vec<&mut Tensor> {
        self.trunk
            .iter_mut()
            .chain(&mut self.policy)
            .chain(&mut self.value)
            .flatten()
            .collect()
    }

    /// Scale every gradient (e.g. 1/batch for mean reduction).
    pub fn scale(&mut self, s: f32) {
        for g in self.flat_mut() {
            g.scale(s);
        }
    }
}

/// Copy a forward's leased logits and values into the caller's vectors,
/// hand the leases back to `ws`, and softmax every policy row.
pub(crate) fn write_predictions(
    logits: Tensor,
    vals: Tensor,
    actions: usize,
    ws: &mut Workspace,
    policy: &mut Vec<f32>,
    values: &mut Vec<f32>,
) {
    policy.clear();
    policy.extend_from_slice(logits.data());
    values.clear();
    values.extend_from_slice(vals.data());
    ws.release(logits.into_vec());
    ws.release(vals.into_vec());
    for row in policy.chunks_exact_mut(actions) {
        tensor::ops::softmax_inplace(row);
    }
}

impl<A: Architecture> PolicyValueNet<A> {
    /// Build a network with freshly initialized parameters.
    pub fn new(config: A, seed: u64) -> Self {
        let [trunk, policy_head, value_head] = config.build(&mut StdRng::seed_from_u64(seed));
        PolicyValueNet {
            config,
            trunk,
            policy_head,
            value_head,
        }
    }

    fn layers(&self) -> impl Iterator<Item = &LayerKind> {
        self.trunk
            .iter()
            .chain(&self.policy_head)
            .chain(&self.value_head)
    }

    fn layers_mut(&mut self) -> impl Iterator<Item = &mut LayerKind> {
        self.trunk
            .iter_mut()
            .chain(&mut self.policy_head)
            .chain(&mut self.value_head)
    }

    fn count(&self, kind: fn(&LayerKind) -> bool) -> usize {
        self.layers().filter(|l| kind(l)).count()
    }

    /// Number of convolution layers outside residual blocks (5 for the
    /// paper's net).
    pub fn conv_count(&self) -> usize {
        self.count(|l| matches!(l, LayerKind::Conv2d(_)))
    }

    /// Number of fully-connected layers (3 for the paper's net).
    pub fn fc_count(&self) -> usize {
        self.count(|l| matches!(l, LayerKind::Linear(_)))
    }

    /// Number of residual blocks (0 for the paper's net).
    pub fn block_count(&self) -> usize {
        self.count(|l| matches!(l, LayerKind::Residual(_)))
    }

    /// Total parameter scalar count.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Flat immutable parameter list (trunk, policy head, value head order).
    pub fn params(&self) -> Vec<&Tensor> {
        self.layers().flat_map(|l| l.param_views()).collect()
    }

    /// Flat mutable parameter list (same order as [`PolicyValueNet::params`]).
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers_mut()
            .flat_map(|l| l.param_views_mut())
            .collect()
    }

    /// Flat list of non-trainable state (batch-norm running statistics;
    /// empty for a net without norms).
    pub fn state_tensors(&self) -> Vec<&Tensor> {
        self.layers().flat_map(|l| l.state_views()).collect()
    }

    /// Mutable non-trainable state (same order).
    pub fn state_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers_mut()
            .flat_map(|l| l.state_views_mut())
            .collect()
    }

    /// Fresh zeroed gradient buffers.
    pub fn grad_buffers(&self) -> NetGrads {
        let make = |stack: &[LayerKind]| stack.iter().map(|l| l.grad_buffers()).collect();
        NetGrads {
            trunk: make(&self.trunk),
            policy: make(&self.policy_head),
            value: make(&self.value_head),
        }
    }

    /// Batched inference, the one forward every server runs: `x` is
    /// `[b, c, h, w]`; softmaxed policies (`[b·A]`, row-major) go into
    /// `policy` and tanh values (`[b]`) into `values`. Every intermediate
    /// activation is leased from `ws` and the two vectors keep their
    /// capacity, so steady-state calls allocate nothing. Batch norms use
    /// their running statistics.
    pub fn predict_into(
        &self,
        x: &Tensor,
        ws: &mut Workspace,
        policy: &mut Vec<f32>,
        values: &mut Vec<f32>,
    ) {
        let feat = forward_stack_ws(&self.trunk, x, ws);
        let logits = forward_stack_ws(&self.policy_head, &feat, ws);
        let vals = forward_stack_ws(&self.value_head, &feat, ws);
        ws.release(feat.into_vec());
        write_predictions(logits, vals, self.config.actions(), ws, policy, values);
    }

    /// Inference snapshot with every `Conv2d → BatchNorm2d` pair (and the
    /// norms inside residual blocks) folded into single convolutions — see
    /// [`crate::fuse`]. The folded net computes the same eval-mode function
    /// within float rounding; its training-mode passes are meaningless.
    pub fn folded_for_inference(&self) -> Self {
        PolicyValueNet {
            config: self.config,
            trunk: crate::fuse::fold_stack(&self.trunk),
            policy_head: crate::fuse::fold_stack(&self.policy_head),
            value_head: crate::fuse::fold_stack(&self.value_head),
        }
    }

    /// Int8 inference snapshot: folds norms as
    /// [`PolicyValueNet::folded_for_inference`] does, then quantizes every
    /// conv/linear weight per output channel into the packed form the int8
    /// GEMM consumes (see [`crate::quant`]). Returns `None` when the net
    /// contains layer kinds the int8 path does not support (residual
    /// blocks); callers fall back to the f32 snapshot.
    pub fn quantized_for_inference(&self) -> Option<crate::quant::QuantPolicyValueNet> {
        let folded = self.folded_for_inference();
        crate::quant::QuantPolicyValueNet::from_folded_stacks(
            self.config.actions(),
            &folded.trunk,
            &folded.policy_head,
            &folded.value_head,
        )
    }

    /// True when [`PolicyValueNet::folded_for_inference`] would change
    /// anything (the net contains batch norms, standalone or inside
    /// residual blocks). Lets wrappers skip snapshotting a folded copy of
    /// a net that has nothing to fold.
    pub fn has_foldable_norms(&self) -> bool {
        self.layers()
            .any(|l| matches!(l, LayerKind::BatchNorm2d(_) | LayerKind::Residual(_)))
    }

    /// Training-mode forward: batch norms normalize with the current
    /// batch's statistics, and every layer input is cached for `backward`.
    /// For a net without norms the logits and values equal the eval-mode
    /// forward's bit for bit.
    pub fn forward_train(&self, x: &Tensor) -> ForwardCaches {
        let (trunk, feat) = forward_cached_train(&self.trunk, x);
        let (policy, policy_logits) = forward_cached_train(&self.policy_head, &feat);
        let (value, values) = forward_cached_train(&self.value_head, &feat);
        ForwardCaches {
            trunk,
            policy,
            value,
            policy_logits,
            values,
        }
    }

    /// Full backward pass for the AlphaZero loss (Eq. 2):
    /// `l = (v − r)² − π · log softmax(logits)`, mean over the batch.
    ///
    /// Accumulates parameter gradients into `grads` and returns the loss
    /// decomposition for logging.
    pub fn backward(
        &self,
        caches: &ForwardCaches,
        target_pi: &Tensor,
        target_r: &Tensor,
        grads: &mut NetGrads,
    ) -> LossParts {
        let (parts, grad_logits, grad_values) =
            alphazero_loss_backward(&caches.policy_logits, &caches.values, target_pi, target_r);
        let mut g_feat = backward_stack(
            &self.policy_head,
            &caches.policy,
            &mut grads.policy,
            grad_logits,
        );
        let g_feat_v = backward_stack(
            &self.value_head,
            &caches.value,
            &mut grads.value,
            grad_values,
        );
        g_feat.add_assign(&g_feat_v);
        backward_stack(&self.trunk, &caches.trunk, &mut grads.trunk, g_feat);
        parts
    }

    /// Fold the running batch-norm statistics for the step that produced
    /// `caches` (call once per optimizer step, after `backward`). A no-op
    /// for a net without norms.
    pub fn update_running_stats(&mut self, caches: &ForwardCaches) {
        update_stack_running_stats(&mut self.trunk, &caches.trunk);
        update_stack_running_stats(&mut self.policy_head, &caches.policy);
        update_stack_running_stats(&mut self.value_head, &caches.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> PolicyValueNet {
        PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 42)
    }

    fn rand_t(dims: &[usize], seed: u64) -> Tensor {
        let mut r = StdRng::seed_from_u64(seed);
        tensor::init::uniform(&mut r, dims, -1.0, 1.0)
    }

    fn predict(net: &PolicyValueNet, x: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (mut policy, mut values) = (Vec::new(), Vec::new());
        net.predict_into(x, &mut Workspace::new(), &mut policy, &mut values);
        (policy, values)
    }

    #[test]
    fn paper_layer_budget() {
        let net = PolicyValueNet::new(NetConfig::gomoku15(), 1);
        assert_eq!(net.conv_count(), 5, "paper: 5 convolution layers");
        assert_eq!(net.fc_count(), 3, "paper: 3 fully-connected layers");
        assert_eq!(net.block_count(), 0);
        assert!(net.state_tensors().is_empty() && !net.has_foldable_norms());
    }

    #[test]
    fn predict_shapes_and_rows_are_distributions() {
        let net = tiny_net();
        let x = rand_t(&[3, 4, 3, 3], 2);
        let (pi, values) = predict(&net, &x);
        assert_eq!((pi.len(), values.len()), (27, 3));
        assert!(values.iter().all(|v| (-1.0..=1.0).contains(v)));
        for row in pi.chunks(9) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let a = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 7);
        let b = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 7);
        let x = rand_t(&[1, 4, 3, 3], 3);
        assert_eq!(predict(&a, &x), predict(&b, &x));
        let c = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 8);
        assert_ne!(predict(&a, &x).0, predict(&c, &x).0);
    }

    #[test]
    fn train_and_predict_forwards_agree() {
        let net = tiny_net();
        let x = rand_t(&[2, 4, 3, 3], 4);
        let (policy, values) = predict(&net, &x);
        let caches = net.forward_train(&x);
        let mut logits = caches.policy_logits.into_vec();
        logits.chunks_mut(9).for_each(tensor::ops::softmax_inplace);
        assert_eq!(policy, logits);
        assert_eq!(values, caches.values.data());
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        // One datapoint; repeated SGD steps must reduce the AlphaZero loss.
        let mut net = tiny_net();
        let x = rand_t(&[4, 4, 3, 3], 5);
        let mut pi = rand_t(&[4, 9], 6).map(f32::abs);
        for r in 0..4 {
            let s: f32 = pi.row(r).iter().sum();
            for v in &mut pi.data_mut()[r * 9..(r + 1) * 9] {
                *v /= s;
            }
        }
        let target_r = Tensor::from_vec(vec![1.0, -1.0, 0.0, 1.0], &[4, 1]);

        let mut grads = net.grad_buffers();
        let mut losses = Vec::new();
        for _ in 0..100 {
            grads.zero();
            let caches = net.forward_train(&x);
            let parts = net.backward(&caches, &pi, &target_r, &mut grads);
            losses.push(parts.total);
            let flat = grads.flat();
            let lr = 0.2;
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
    fn param_count_nonzero_and_matches_grads() {
        let net = tiny_net();
        assert!(net.param_count() > 0);
        let grads = net.grad_buffers();
        let flat = grads.flat();
        let params = net.params();
        assert_eq!(flat.len(), params.len());
        for (g, p) in flat.iter().zip(params) {
            assert_eq!(g.dims(), p.dims());
        }
    }

    #[test]
    fn netgrads_zero_and_scale() {
        let net = tiny_net();
        let x = rand_t(&[1, 4, 3, 3], 9);
        let pi = Tensor::full(&[1, 9], 1.0 / 9.0);
        let r = Tensor::zeros(&[1, 1]);
        let mut grads = net.grad_buffers();
        let caches = net.forward_train(&x);
        net.backward(&caches, &pi, &r, &mut grads);
        let n1: f32 = grads.flat().iter().map(|g| g.norm()).sum();
        assert!(n1 > 0.0);
        grads.scale(0.5);
        let n2: f32 = grads.flat().iter().map(|g| g.norm()).sum();
        assert!((n2 - 0.5 * n1).abs() < 1e-3 * n1.max(1.0));
        grads.zero();
        assert!(grads.flat().iter().all(|g| g.norm() == 0.0));
    }
}
