//! Network layers with explicit, allocation-conscious forward/backward.
//!
//! Layers are a closed enum ([`LayerKind`]) rather than trait objects: the
//! set is small and fixed, enum dispatch is faster, and serialization stays
//! trivial. Each layer exposes:
//!
//! * `forward(&self, x) -> y` — pure, `&self`, thread-safe (the training
//!   forward, and through [`forward_stack`] the oracle of the fused
//!   inference path [`forward_stack_ws`]);
//! * `backward(&self, x, grad_y, grads) -> grad_x` — consumes the *input*
//!   activation cached by the caller during the forward pass, accumulating
//!   parameter gradients into `grads`.

use crate::norm::BatchNorm2d;
use crate::residual::ResidualBlock;
use tensor::conv::{conv2d_backward, conv2d_forward, Conv2dSpec};
use tensor::ops::{gemm, gemm_ep, Epilogue};
use tensor::{Tensor, Workspace};

/// A 2-D convolution layer with bias.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// `[out_c, in_c, kh, kw]`
    pub weight: Tensor,
    /// `[out_c]`
    pub bias: Tensor,
    pub in_c: usize,
    pub out_c: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
}

impl Conv2d {
    /// He-initialized convolution.
    pub fn new<R: rand::Rng + ?Sized>(
        rng: &mut R,
        in_c: usize,
        out_c: usize,
        k: usize,
        pad: usize,
    ) -> Self {
        let fan_in = in_c * k * k;
        Conv2d {
            weight: tensor::init::he_normal(rng, &[out_c, in_c, k, k], fan_in),
            bias: Tensor::zeros(&[out_c]),
            in_c,
            out_c,
            kh: k,
            kw: k,
            stride: 1,
            pad,
        }
    }

    fn spec(&self, in_h: usize, in_w: usize) -> Conv2dSpec {
        Conv2dSpec {
            in_c: self.in_c,
            out_c: self.out_c,
            in_h,
            in_w,
            kh: self.kh,
            kw: self.kw,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// Pure convolution forward over an NCHW batch. Scratch comes from the
    /// calling thread's shared [`Workspace`], so repeated calls allocate
    /// only the output tensor.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let (b, _, h, w) = dims4(x);
        let spec = self.spec(h, w);
        let mut out = Tensor::zeros(&[b, self.out_c, spec.out_h(), spec.out_w()]);
        Workspace::with_thread(|ws| {
            conv2d_forward(
                &spec,
                x,
                &self.weight,
                Some(&self.bias),
                false,
                &mut out,
                ws,
            );
        });
        out
    }

    /// Workspace forward: the output buffer is leased from `ws` (release it
    /// with `ws.release(t.into_vec())` when done) and, with `relu`, the
    /// activation is fused into the convolution GEMM's output loop.
    pub fn forward_ws(&self, x: &Tensor, relu: bool, ws: &mut Workspace) -> Tensor {
        let (b, _, h, w) = dims4(x);
        let spec = self.spec(h, w);
        let dims = [b, self.out_c, spec.out_h(), spec.out_w()];
        let buf = ws.lease(dims.iter().product());
        let mut out = Tensor::from_vec(buf, &dims);
        conv2d_forward(&spec, x, &self.weight, Some(&self.bias), relu, &mut out, ws);
        out
    }

    /// Convolution backward: accumulates `dW` into `gw` and `db` into `gb`,
    /// returns `dL/dx`. Scratch comes from the thread's shared workspace.
    pub fn backward(
        &self,
        x: &Tensor,
        grad_out: &Tensor,
        gw: &mut Tensor,
        gb: &mut Tensor,
    ) -> Tensor {
        let (_, _, h, w) = dims4(x);
        let spec = self.spec(h, w);
        let mut gi = Tensor::zeros(x.dims());
        Workspace::with_thread(|ws| {
            conv2d_backward(&spec, x, &self.weight, grad_out, &mut gi, gw, Some(gb), ws);
        });
        gi
    }
}

/// A fully-connected layer: `y = x·Wᵀ + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// `[out, in]`
    pub weight: Tensor,
    /// `[out]`
    pub bias: Tensor,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    /// Xavier-initialized linear layer.
    pub fn new<R: rand::Rng + ?Sized>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        Linear {
            weight: tensor::init::xavier_uniform(rng, &[out_dim, in_dim], in_dim, out_dim),
            bias: Tensor::zeros(&[out_dim]),
            in_dim,
            out_dim,
        }
    }

    /// Pure linear forward: `y = x·Wᵀ + b` (bias fused into the GEMM's
    /// output loop).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let b = x.dims()[0];
        assert_eq!(x.dims(), &[b, self.in_dim], "linear input shape");
        let mut out = Tensor::zeros(&[b, self.out_dim]);
        self.gemm_into(x, false, out.data_mut());
        out
    }

    /// Workspace forward: output leased from `ws`; with `relu` the
    /// activation is fused into the GEMM epilogue.
    pub fn forward_ws(&self, x: &Tensor, relu: bool, ws: &mut Workspace) -> Tensor {
        let b = x.dims()[0];
        assert_eq!(x.dims(), &[b, self.in_dim], "linear input shape");
        let buf = ws.lease(b * self.out_dim);
        let mut out = Tensor::from_vec(buf, &[b, self.out_dim]);
        self.gemm_into(x, relu, out.data_mut());
        out
    }

    fn gemm_into(&self, x: &Tensor, relu: bool, out: &mut [f32]) {
        let b = x.dims()[0];
        // y[b, o] = x[b, i] * W[o, i]ᵀ + bias[o]
        gemm_ep(
            false,
            true,
            b,
            self.out_dim,
            self.in_dim,
            1.0,
            x.data(),
            self.weight.data(),
            0.0,
            out,
            Epilogue {
                bias_row: None,
                bias_col: Some(self.bias.data()),
                relu,
            },
        );
    }

    /// Linear backward: accumulates `dW`/`db`, returns `dL/dx`.
    pub fn backward(
        &self,
        x: &Tensor,
        grad_out: &Tensor,
        gw: &mut Tensor,
        gb: &mut Tensor,
    ) -> Tensor {
        let b = x.dims()[0];
        // dW[o, i] += dyᵀ[o, b] · x[b, i]
        gemm(
            true,
            false,
            self.out_dim,
            self.in_dim,
            b,
            1.0,
            grad_out.data(),
            x.data(),
            1.0,
            gw.data_mut(),
        );
        // db[o] += Σ_b dy[b, o]
        for r in 0..b {
            let row = &grad_out.data()[r * self.out_dim..(r + 1) * self.out_dim];
            tensor::ops::axpy(1.0, row, gb.data_mut());
        }
        // dx[b, i] = dy[b, o] · W[o, i]
        let mut gi = Tensor::zeros(&[b, self.in_dim]);
        gemm(
            false,
            false,
            b,
            self.in_dim,
            self.out_dim,
            1.0,
            grad_out.data(),
            self.weight.data(),
            0.0,
            gi.data_mut(),
        );
        gi
    }
}

/// Closed set of layer types used by the policy-value network.
#[derive(Debug, Clone)]
pub enum LayerKind {
    Conv2d(Conv2d),
    Linear(Linear),
    /// Rectified linear unit, elementwise.
    ReLU,
    /// Hyperbolic tangent, elementwise (value head output squashing).
    Tanh,
    /// Collapse `[b, c, h, w]` to `[b, c*h*w]`.
    Flatten,
    /// Per-channel batch normalization (running stats at inference,
    /// batch stats in training mode).
    BatchNorm2d(BatchNorm2d),
    /// AlphaZero-style residual block (conv-bn-relu-conv-bn + skip + relu).
    /// Boxed: the block holds four layers and would otherwise dominate the
    /// enum's size.
    Residual(Box<ResidualBlock>),
}

/// Common layer operations; see module docs for the calling convention.
pub trait Layer {
    /// Pure forward pass (thread-safe; used for inference).
    fn forward(&self, x: &Tensor) -> Tensor;

    /// Training-mode forward pass. Identical to [`Layer::forward`] except
    /// for layers whose statistics differ between modes (batch norm), which
    /// normalize with current-batch statistics here. Still pure.
    fn forward_train(&self, x: &Tensor) -> Tensor {
        self.forward(x)
    }

    /// Fold `x`'s batch statistics into any running state (batch norm
    /// moving averages). No-op for stateless layers. Training loops call
    /// this once per step alongside the backward pass.
    fn update_running_stats(&mut self, _x: &Tensor) {}

    /// Backward pass. `x` is the input that produced the forward output,
    /// `grad_out` is dL/dy. Parameter gradients are *accumulated* into
    /// `grads` (same order as [`Layer::param_views`]). Returns dL/dx.
    /// For mode-dependent layers this is the *training-mode* gradient
    /// (consistent with [`Layer::forward_train`]).
    fn backward(&self, x: &Tensor, grad_out: &Tensor, grads: &mut [Tensor]) -> Tensor;

    /// Immutable views of this layer's parameters (possibly empty).
    fn param_views(&self) -> Vec<&Tensor>;

    /// Mutable views of this layer's parameters.
    fn param_views_mut(&mut self) -> Vec<&mut Tensor>;

    /// Zeroed gradient buffers matching [`Layer::param_views`].
    fn grad_buffers(&self) -> Vec<Tensor> {
        self.param_views()
            .into_iter()
            .map(|p| Tensor::zeros(p.dims()))
            .collect()
    }
}

impl Layer for LayerKind {
    fn forward(&self, x: &Tensor) -> Tensor {
        match self {
            LayerKind::Conv2d(c) => c.forward(x),
            LayerKind::Linear(l) => l.forward(x),
            LayerKind::ReLU => x.map(|v| v.max(0.0)),
            LayerKind::Tanh => x.map(f32::tanh),
            LayerKind::Flatten => {
                let b = x.dims()[0];
                let rest: usize = x.dims()[1..].iter().product();
                x.reshaped(&[b, rest])
            }
            LayerKind::BatchNorm2d(bn) => bn.forward_eval(x),
            LayerKind::Residual(r) => r.forward_eval(x),
        }
    }

    fn forward_train(&self, x: &Tensor) -> Tensor {
        match self {
            LayerKind::BatchNorm2d(bn) => bn.forward_batch(x),
            LayerKind::Residual(r) => r.forward_train(x),
            other => other.forward(x),
        }
    }

    fn update_running_stats(&mut self, x: &Tensor) {
        match self {
            LayerKind::BatchNorm2d(bn) => bn.update_running_stats(x),
            LayerKind::Residual(r) => r.update_running_stats(x),
            _ => {}
        }
    }

    fn backward(&self, x: &Tensor, grad_out: &Tensor, grads: &mut [Tensor]) -> Tensor {
        match self {
            LayerKind::Conv2d(c) => {
                let (gw, rest) = grads.split_first_mut().expect("conv grads");
                let gb = rest.first_mut().expect("conv bias grad");
                c.backward(x, grad_out, gw, gb)
            }
            LayerKind::Linear(l) => {
                let (gw, rest) = grads.split_first_mut().expect("linear grads");
                let gb = rest.first_mut().expect("linear bias grad");
                l.backward(x, grad_out, gw, gb)
            }
            LayerKind::BatchNorm2d(bn) => bn.backward(x, grad_out, grads),
            LayerKind::Residual(r) => r.backward(x, grad_out, grads),
            LayerKind::ReLU => {
                let mut gi = grad_out.clone();
                for (g, &xin) in gi.data_mut().iter_mut().zip(x.data()) {
                    if xin <= 0.0 {
                        *g = 0.0;
                    }
                }
                gi
            }
            LayerKind::Tanh => {
                let mut gi = grad_out.clone();
                for (g, &xin) in gi.data_mut().iter_mut().zip(x.data()) {
                    let t = xin.tanh();
                    *g *= 1.0 - t * t;
                }
                gi
            }
            LayerKind::Flatten => grad_out.reshaped(x.dims()),
        }
    }

    fn param_views(&self) -> Vec<&Tensor> {
        match self {
            LayerKind::Conv2d(c) => vec![&c.weight, &c.bias],
            LayerKind::Linear(l) => vec![&l.weight, &l.bias],
            LayerKind::BatchNorm2d(bn) => vec![&bn.gamma, &bn.beta],
            LayerKind::Residual(r) => r.param_views(),
            _ => vec![],
        }
    }

    fn param_views_mut(&mut self) -> Vec<&mut Tensor> {
        match self {
            LayerKind::Conv2d(c) => vec![&mut c.weight, &mut c.bias],
            LayerKind::Linear(l) => vec![&mut l.weight, &mut l.bias],
            LayerKind::BatchNorm2d(bn) => vec![&mut bn.gamma, &mut bn.beta],
            LayerKind::Residual(r) => r.param_views_mut(),
            _ => vec![],
        }
    }
}

impl LayerKind {
    /// Non-trainable state tensors (batch-norm running statistics) that
    /// checkpoints must persist alongside the parameters.
    pub fn state_views(&self) -> Vec<&Tensor> {
        match self {
            LayerKind::BatchNorm2d(bn) => vec![&bn.running_mean, &bn.running_var],
            LayerKind::Residual(r) => r.state_views(),
            _ => vec![],
        }
    }

    /// Mutable non-trainable state tensors (same order).
    pub fn state_views_mut(&mut self) -> Vec<&mut Tensor> {
        match self {
            LayerKind::BatchNorm2d(bn) => vec![&mut bn.running_mean, &mut bn.running_var],
            LayerKind::Residual(r) => r.state_views_mut(),
            _ => vec![],
        }
    }
}

fn dims4(x: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(
        x.shape().rank(),
        4,
        "expected NCHW tensor, got {}",
        x.shape()
    );
    let d = x.dims();
    (d[0], d[1], d[2], d[3])
}

/// Run `layers` forward in training mode, caching every layer's *input*;
/// returns the caches (length = layers.len()) and the final output.
/// Batch-norm layers use current-batch statistics, matching what
/// [`backward_stack`] assumes; every other layer runs its pure forward.
pub fn forward_cached_train(layers: &[LayerKind], x: &Tensor) -> (Vec<Tensor>, Tensor) {
    let mut caches = Vec::with_capacity(layers.len());
    let mut cur = x.clone();
    for l in layers {
        let next = l.forward_train(&cur);
        caches.push(cur);
        cur = next;
    }
    (caches, cur)
}

/// Fold running statistics for every stateful layer in the stack, reusing
/// the per-layer input caches from [`forward_cached_train`].
pub fn update_stack_running_stats(layers: &mut [LayerKind], caches: &[Tensor]) {
    assert_eq!(layers.len(), caches.len());
    for (l, c) in layers.iter_mut().zip(caches) {
        l.update_running_stats(c);
    }
}

/// Pure forward through a layer stack.
pub fn forward_stack(layers: &[LayerKind], x: &Tensor) -> Tensor {
    let mut cur = x.clone();
    for l in layers {
        cur = l.forward(&cur);
    }
    cur
}

/// Zero-allocation forward through a layer stack: every intermediate
/// activation is leased from `ws` and recycled, elementwise layers run in
/// place, and a `Conv2d`/`Linear` immediately followed by `ReLU` is fused
/// into a single GEMM with a ReLU epilogue. Numerically identical to
/// [`forward_stack`].
///
/// `x` is only copied if the stack *starts* with an in-place layer
/// (ReLU/Tanh/Flatten/BatchNorm); buffer-producing layers (conv, linear,
/// residual) read it directly. The returned tensor's buffer is leased
/// from `ws`; hand it back with `ws.release(t.into_vec())` once the
/// values have been consumed.
pub fn forward_stack_ws(layers: &[LayerKind], x: &Tensor, ws: &mut Workspace) -> Tensor {
    // `cur = None` means "still reading the caller's input"; it becomes
    // Some as soon as a layer produces (or an in-place layer forces
    // materializing) an owned, pool-leased activation.
    let mut cur: Option<Tensor> = None;
    let release_into = |cur: &mut Option<Tensor>, ws: &mut Workspace, out: Tensor| {
        if let Some(old) = cur.take() {
            ws.release(old.into_vec());
        }
        *cur = Some(out);
    };
    let mut i = 0;
    while i < layers.len() {
        let fuse_relu = matches!(layers.get(i + 1), Some(LayerKind::ReLU));
        match &layers[i] {
            LayerKind::Conv2d(c) => {
                let out = c.forward_ws(cur.as_ref().unwrap_or(x), fuse_relu, ws);
                release_into(&mut cur, ws, out);
                i += if fuse_relu { 2 } else { 1 };
            }
            LayerKind::Linear(l) => {
                let out = l.forward_ws(cur.as_ref().unwrap_or(x), fuse_relu, ws);
                release_into(&mut cur, ws, out);
                i += if fuse_relu { 2 } else { 1 };
            }
            LayerKind::Residual(r) => {
                let out = r.forward_eval_ws(cur.as_ref().unwrap_or(x), ws);
                release_into(&mut cur, ws, out);
                i += 1;
            }
            // Folded-away norms (exact identity) are skipped without even
            // materializing a copy of the input.
            LayerKind::BatchNorm2d(bn) if bn.is_identity() => {
                i += 1;
            }
            in_place => {
                let cur = cur.get_or_insert_with(|| {
                    let mut buf = ws.lease(x.numel());
                    buf.copy_from_slice(x.data());
                    Tensor::from_vec(buf, x.dims())
                });
                match in_place {
                    LayerKind::ReLU => cur.map_inplace(|v| v.max(0.0)),
                    LayerKind::Tanh => cur.map_inplace(f32::tanh),
                    LayerKind::Flatten => {
                        let b = cur.dims()[0];
                        let rest: usize = cur.dims()[1..].iter().product();
                        let reshaped = std::mem::replace(cur, Tensor::zeros(&[0]));
                        *cur = reshaped.reshape(&[b, rest]);
                    }
                    LayerKind::BatchNorm2d(bn) => bn.forward_eval_inplace(cur),
                    _ => unreachable!("buffer-producing layers handled above"),
                }
                i += 1;
            }
        }
    }
    cur.unwrap_or_else(|| {
        // Empty stack (or all layers skipped): return a copy of the input.
        let mut buf = ws.lease(x.numel());
        buf.copy_from_slice(x.data());
        Tensor::from_vec(buf, x.dims())
    })
}

/// Backward through a layer stack given the forward caches. `grads` is a
/// per-layer vector of gradient buffers. Returns dL/d(stack input).
pub fn backward_stack(
    layers: &[LayerKind],
    caches: &[Tensor],
    grads: &mut [Vec<Tensor>],
    grad_out: Tensor,
) -> Tensor {
    assert_eq!(layers.len(), caches.len());
    assert_eq!(layers.len(), grads.len());
    let mut g = grad_out;
    for i in (0..layers.len()).rev() {
        g = layers[i].backward(&caches[i], &g, &mut grads[i]);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    fn rand_t(dims: &[usize], seed: u64) -> Tensor {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        tensor::init::uniform(&mut r, dims, -1.0, 1.0)
    }

    #[test]
    fn linear_forward_known_values() {
        let mut l = Linear::new(&mut rng(), 2, 2);
        l.weight = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        l.bias = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let x = Tensor::from_vec(vec![1., 1.], &[1, 2]);
        let y = LayerKind::Linear(l).forward(&x);
        assert_eq!(y.data(), &[3.5, 6.5]); // [1+2+0.5, 3+4-0.5]
    }

    #[test]
    fn relu_zeroes_negatives_and_gates_gradient() {
        let x = Tensor::from_vec(vec![-1., 0., 2.], &[1, 3]);
        let y = LayerKind::ReLU.forward(&x);
        assert_eq!(y.data(), &[0., 0., 2.]);
        let gy = Tensor::ones(&[1, 3]);
        let gx = LayerKind::ReLU.backward(&x, &gy, &mut []);
        assert_eq!(gx.data(), &[0., 0., 1.]);
    }

    #[test]
    fn tanh_saturates_and_derivative_matches() {
        let x = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
        let y = LayerKind::Tanh.forward(&x);
        assert!((y.data()[0] - 0.0).abs() < 1e-6);
        assert!((y.data()[1] - 1.0f32.tanh()).abs() < 1e-6);
        let gy = Tensor::ones(&[1, 2]);
        let gx = LayerKind::Tanh.backward(&x, &gy, &mut []);
        assert!((gx.data()[0] - 1.0).abs() < 1e-6);
        let t = 1.0f32.tanh();
        assert!((gx.data()[1] - (1.0 - t * t)).abs() < 1e-6);
    }

    #[test]
    fn flatten_roundtrip() {
        let x = rand_t(&[2, 3, 4, 5], 1);
        let y = LayerKind::Flatten.forward(&x);
        assert_eq!(y.dims(), &[2, 60]);
        let gx = LayerKind::Flatten.backward(&x, &y, &mut []);
        assert_eq!(gx.dims(), x.dims());
        assert_eq!(gx.data(), x.data());
    }

    #[test]
    fn conv_forward_shape() {
        let c = Conv2d::new(&mut rng(), 4, 8, 3, 1);
        let x = rand_t(&[2, 4, 6, 6], 2);
        let y = LayerKind::Conv2d(c).forward(&x);
        assert_eq!(y.dims(), &[2, 8, 6, 6]);
    }

    /// Finite-difference check of a whole layer via scalar loss Σ(y ⊙ G).
    fn fd_check(layer: &LayerKind, x: &Tensor, tol: f32) {
        let g_out = rand_t(layer.forward(x).dims(), 77);
        let mut grads = layer.grad_buffers();
        let gx = layer.backward(x, &g_out, &mut grads);

        let loss = |layer: &LayerKind, x: &Tensor| -> f32 {
            layer
                .forward(x)
                .data()
                .iter()
                .zip(g_out.data())
                .map(|(&y, &g)| y * g)
                .sum()
        };
        // Check input gradient on a few coordinates.
        let mut xp = x.clone();
        let eps = 1e-2;
        for idx in [0usize, x.numel() / 2, x.numel() - 1] {
            let orig = xp.data()[idx];
            xp.data_mut()[idx] = orig + eps;
            let lp = loss(layer, &xp);
            xp.data_mut()[idx] = orig - eps;
            let lm = loss(layer, &xp);
            xp.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < tol,
                "input grad mismatch at {idx}: fd={fd} an={}",
                gx.data()[idx]
            );
        }
        // Check first parameter gradient on a few coordinates.
        if !grads.is_empty() {
            let mut layer2 = layer.clone();
            for idx in [0usize, grads[0].numel() - 1] {
                let orig = layer2.param_views()[0].data()[idx];
                layer2.param_views_mut()[0].data_mut()[idx] = orig + eps;
                let lp = loss(&layer2, x);
                layer2.param_views_mut()[0].data_mut()[idx] = orig - eps;
                let lm = loss(&layer2, x);
                layer2.param_views_mut()[0].data_mut()[idx] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grads[0].data()[idx]).abs() < tol,
                    "param grad mismatch at {idx}: fd={fd} an={}",
                    grads[0].data()[idx]
                );
            }
        }
    }

    #[test]
    fn linear_gradients_match_finite_difference() {
        let l = LayerKind::Linear(Linear::new(&mut rng(), 6, 4));
        let x = rand_t(&[3, 6], 5);
        fd_check(&l, &x, 2e-2);
    }

    #[test]
    fn conv_gradients_match_finite_difference() {
        let c = LayerKind::Conv2d(Conv2d::new(&mut rng(), 2, 3, 3, 1));
        let x = rand_t(&[2, 2, 4, 4], 6);
        fd_check(&c, &x, 5e-2);
    }

    #[test]
    fn stack_forward_backward_shapes() {
        let mut r = rng();
        let layers = vec![
            LayerKind::Conv2d(Conv2d::new(&mut r, 2, 4, 3, 1)),
            LayerKind::ReLU,
            LayerKind::Flatten,
            LayerKind::Linear(Linear::new(&mut r, 4 * 5 * 5, 7)),
        ];
        let x = rand_t(&[3, 2, 5, 5], 8);
        let (caches, y) = forward_cached_train(&layers, &x);
        assert_eq!(y.dims(), &[3, 7]);
        assert_eq!(caches.len(), 4);
        let mut grads: Vec<Vec<Tensor>> = layers.iter().map(|l| l.grad_buffers()).collect();
        let gx = backward_stack(&layers, &caches, &mut grads, Tensor::ones(&[3, 7]));
        assert_eq!(gx.dims(), x.dims());
        // conv + linear have non-zero parameter gradients
        assert!(grads[0][0].norm() > 0.0);
        assert!(grads[3][0].norm() > 0.0);
    }

    #[test]
    fn pure_and_cached_forward_agree() {
        let mut r = rng();
        let layers = vec![
            LayerKind::Conv2d(Conv2d::new(&mut r, 2, 4, 3, 1)),
            LayerKind::ReLU,
        ];
        let x = rand_t(&[1, 2, 5, 5], 9);
        let y1 = forward_stack(&layers, &x);
        let (_, y2) = forward_cached_train(&layers, &x);
        assert_eq!(y1.data(), y2.data());
    }
}
