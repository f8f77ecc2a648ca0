//! Node evaluators: the "DNN inference" half of the tree-based search.
//!
//! # The batch-first evaluation API
//!
//! The search↔inference boundary is where DNN-MCTS throughput is won or
//! lost (§3.3 of the paper), so the primary interface is batch-first:
//! [`BatchEvaluator::evaluate_batch`] maps `B` encoded states to `B`
//! [`EvalOutput`]s in one call. Backends that can amortize work across a
//! batch do so natively — [`NnEvaluator`] packs one `[B, C, H, W]` tensor
//! and runs a **single** forward pass, [`AccelEvaluator`] ships all `B`
//! requests to the accelerator queue from one thread and gathers the
//! completions without blocking a thread per request.
//!
//! A backend with nothing to amortize implements `evaluate_batch` as a
//! loop over its samples and leaves `preferred_batch()` at 1, so schemes
//! won't try to assemble batches for it ([`UniformEvaluator`] and
//! [`DelayedEvaluator`] are the in-tree examples).
//!
//! For pumping *many* leaves through a backend from one thread, see
//! [`crate::client::EvalClient`] (submit/gather tickets); for coalescing
//! concurrent single-sample callers into shared batches, see
//! [`crate::coalesce::CoalescingEvaluator`].

use crate::error::EvalError;
use accel::Device;
use crossbeam::channel::bounded;
use games::Game;
use nn::PolicyValueNet;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tensor::{Tensor, Workspace};

/// One evaluation result: policy prior over the *full* action space and
/// a value in `[-1, 1]` for the player to move.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalOutput {
    /// Softmax policy over the full action space.
    pub priors: Vec<f32>,
    /// Value estimate for the player to move at the evaluated state.
    pub value: f32,
}

/// Batch-first evaluation interface — the primary boundary between the
/// search schemes and inference.
///
/// Implementations must be thread-safe: schemes call `evaluate_batch`
/// concurrently from worker threads.
pub trait BatchEvaluator: Send + Sync {
    /// Length of one flattened input sample.
    fn input_len(&self) -> usize;

    /// Size of the returned prior vectors.
    fn action_space(&self) -> usize;

    /// Evaluate `inputs` into `out` (same length, index-aligned). May
    /// block (e.g. while an accelerator batch assembles).
    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]);

    /// The batch size this backend digests best. `1` means batching
    /// buys nothing (schemes then fall back to single-sample dispatch);
    /// larger values invite schemes to assemble batches of about this
    /// size before calling [`BatchEvaluator::evaluate_batch`].
    fn preferred_batch(&self) -> usize {
        1
    }

    /// True when single-sample calls already coalesce into device-side
    /// batches behind this evaluator (e.g. an accelerator queue), so
    /// callers should *not* add another batching layer on top.
    fn coalesces_internally(&self) -> bool {
        false
    }

    /// Fallible variant of [`BatchEvaluator::evaluate_batch`].
    ///
    /// Backends that can fail (remote devices, chaos injectors) override
    /// this to report a typed [`EvalError`] instead of panicking; the
    /// serve layer's resilience wrapper retries transient failures and
    /// feeds the backend's circuit breaker. The default delegates to the
    /// infallible path and always succeeds, so existing implementations
    /// are unchanged and the fault-free path costs nothing extra.
    ///
    /// On `Err`, the contents of `out` are unspecified; callers must not
    /// consume them.
    fn try_evaluate_batch(
        &self,
        inputs: &[&[f32]],
        out: &mut [EvalOutput],
    ) -> Result<(), EvalError> {
        self.evaluate_batch(inputs, out);
        Ok(())
    }

    /// Convenience: evaluate one sample through the batch path.
    fn evaluate_one(&self, input: &[f32]) -> EvalOutput {
        let mut out = [EvalOutput::default()];
        self.evaluate_batch(&[input], &mut out);
        let [o] = out;
        o
    }

    /// Evaluate `inputs` into `out`, with `keys[i]` carrying the stable
    /// position hash ([`games::Game::hash`]) of `inputs[i]`. The default
    /// ignores the keys; caching layers ([`crate::cache::CachedEvaluator`])
    /// override this to serve hits without touching the inner backend.
    /// Callers that know their position hashes should prefer this entry
    /// point — the plain [`BatchEvaluator::evaluate_batch`] stays
    /// cache-transparent by construction.
    fn evaluate_batch_keyed(&self, keys: &[u64], inputs: &[&[f32]], out: &mut [EvalOutput]) {
        debug_assert_eq!(keys.len(), inputs.len());
        self.evaluate_batch(inputs, out);
    }
}

/// Batched CPU inference through a policy-value network: one forward
/// pass per batch, regardless of batch size.
///
/// Construction snapshots a conv+BN-**folded** copy of the network for
/// inference (see `nn::fuse`) and every `evaluate_batch` runs on the
/// calling thread's persistent [`Workspace`], so steady-state evaluation
/// performs **zero heap allocations**: the input pack buffer, every
/// intermediate activation, the policy/value staging vectors and (when the
/// caller reuses its `EvalOutput` buffer) the prior vectors all recycle
/// their capacity.
pub struct NnEvaluator {
    net: Arc<PolicyValueNet>,
    /// Folded inference snapshot of `net` (identical function in eval
    /// mode, fewer passes). `None` when the net has no batch norms —
    /// folding would be a pointless deep copy of the weights.
    infer: Option<PolicyValueNet>,
    /// Int8 snapshot (folded, then per-channel quantized); present only
    /// when constructed with [`Precision::Int8`] and the net's layers are
    /// all representable on the int8 path.
    quant: Option<nn::quant::QuantPolicyValueNet>,
    batch_hint: usize,
    forward_calls: AtomicU64,
}

/// Numeric precision of the inference snapshot an [`NnEvaluator`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Folded f32 snapshot — exact eval-mode function.
    #[default]
    F32,
    /// Folded + per-output-channel int8 weights on the widening-dot
    /// kernels (see `tensor::quant`): several times the f32 forward
    /// throughput (`BENCH_inference.json`), each position quantized with
    /// its own scale (so results do not depend on batch-mates),
    /// argmax-stable policies, values within quantization tolerance. Falls
    /// back to F32 when the net contains unsupported layer kinds.
    Int8,
}

/// Per-thread scratch shared by all [`NnEvaluator`]s on a thread: the
/// flattened input batch, the forward workspace, and policy/value staging.
struct EvalScratch {
    ws: Workspace,
    flat: Vec<f32>,
    policy: Vec<f32>,
    values: Vec<f32>,
}

thread_local! {
    static EVAL_SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch {
        ws: Workspace::new(),
        flat: Vec::new(),
        policy: Vec::new(),
        values: Vec::new(),
    });
}

/// Default batch-assembly hint for CPU network inference.
pub const DEFAULT_NN_BATCH: usize = 8;

impl NnEvaluator {
    /// Wrap a network for batched CPU evaluation with the default batch
    /// hint.
    pub fn new(net: Arc<PolicyValueNet>) -> Self {
        Self::with_batch_hint(net, DEFAULT_NN_BATCH)
    }

    /// Wrap a network, advertising `hint` as the preferred batch size.
    /// If the network contains batch norms they are folded into their
    /// convolutions once, here, so every later forward pass skips them.
    pub fn with_batch_hint(net: Arc<PolicyValueNet>, hint: usize) -> Self {
        Self::with_precision(net, hint, Precision::F32)
    }

    /// Wrap a network with an explicit inference precision. With
    /// [`Precision::Int8`] the constructor snapshots a folded, per-channel
    /// quantized copy once, here; if the net contains layers the int8 path
    /// cannot represent, it silently falls back to the f32 snapshot (check
    /// [`NnEvaluator::precision`] to see what was actually selected).
    pub fn with_precision(net: Arc<PolicyValueNet>, hint: usize, precision: Precision) -> Self {
        assert!(hint >= 1, "batch hint must be positive");
        let quant = match precision {
            Precision::Int8 => net.quantized_for_inference(),
            Precision::F32 => None,
        };
        // The f32 snapshot stays the fallback for nets the int8 path
        // rejects — and is skipped entirely once a quant snapshot exists.
        let infer =
            (quant.is_none() && net.has_foldable_norms()).then(|| net.folded_for_inference());
        NnEvaluator {
            net,
            infer,
            quant,
            batch_hint: hint,
            forward_calls: AtomicU64::new(0),
        }
    }

    /// Access the wrapped network.
    pub fn net(&self) -> &Arc<PolicyValueNet> {
        &self.net
    }

    /// The precision actually in effect (int8 requested on an unsupported
    /// net reports [`Precision::F32`]).
    pub fn precision(&self) -> Precision {
        if self.quant.is_some() {
            Precision::Int8
        } else {
            Precision::F32
        }
    }

    /// Number of network forward passes executed so far. With the batch
    /// path, this counts **one per batch**, not one per sample — the
    /// property the batch-first API exists to deliver.
    pub fn forward_calls(&self) -> u64 {
        self.forward_calls.load(Ordering::Relaxed)
    }
}

impl BatchEvaluator for NnEvaluator {
    fn input_len(&self) -> usize {
        let c = self.net.config;
        c.in_c * c.h * c.w
    }

    fn action_space(&self) -> usize {
        self.net.config.actions
    }

    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        debug_assert_eq!(inputs.len(), out.len());
        if inputs.is_empty() {
            return;
        }
        let c = self.net.config;
        let sample_len = c.in_c * c.h * c.w;
        let b = inputs.len();
        EVAL_SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            s.flat.clear();
            s.flat.reserve(b * sample_len);
            for x in inputs {
                assert_eq!(x.len(), sample_len, "input length mismatch");
                s.flat.extend_from_slice(x);
            }
            // Wrap the staging buffer without copying; recover it after.
            let x = Tensor::from_vec(std::mem::take(&mut s.flat), &[b, c.in_c, c.h, c.w]);
            if let Some(q) = &self.quant {
                q.predict_into(&x, &mut s.ws, &mut s.policy, &mut s.values);
            } else {
                self.infer.as_ref().unwrap_or(&self.net).predict_into(
                    &x,
                    &mut s.ws,
                    &mut s.policy,
                    &mut s.values,
                );
            }
            s.flat = x.into_vec();
            let a = c.actions;
            for (i, o) in out.iter_mut().enumerate() {
                o.priors.clear();
                o.priors.extend_from_slice(&s.policy[i * a..(i + 1) * a]);
                o.value = s.values[i];
            }
        });
        self.forward_calls.fetch_add(1, Ordering::Relaxed);
    }

    fn preferred_batch(&self) -> usize {
        self.batch_hint
    }
}

/// Inference routed through the accelerator's batching queue.
///
/// `evaluate_batch` submits every sample to the device queue from the
/// calling thread and then gathers the completions — at no point does it
/// park one thread per outstanding request, and the device is free to
/// merge the submissions with traffic from other clients (§3.3's shared
/// accelerator queue).
pub struct AccelEvaluator {
    device: Arc<Device>,
}

impl AccelEvaluator {
    /// Wrap an accelerator device handle.
    pub fn new(device: Arc<Device>) -> Self {
        AccelEvaluator { device }
    }

    /// The underlying device (e.g. to retune its batch size).
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Blocking single-sample evaluation (legacy-shaped convenience).
    pub fn evaluate(&self, input: &[f32]) -> (Vec<f32>, f32) {
        let resp = self.device.evaluate(input.to_vec());
        (resp.priors, resp.value)
    }
}

impl BatchEvaluator for AccelEvaluator {
    fn input_len(&self) -> usize {
        self.device.input_len()
    }

    fn action_space(&self) -> usize {
        self.device.action_space()
    }

    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        debug_assert_eq!(inputs.len(), out.len());
        if inputs.is_empty() {
            return;
        }
        // Submit everything, then gather: the queue sees the whole batch
        // at once, so it can execute it as one (or few) device batches.
        let (tx, rx) = bounded(inputs.len());
        for (i, x) in inputs.iter().enumerate() {
            self.device.submit_tagged(i as u64, x.to_vec(), &tx);
        }
        for _ in 0..inputs.len() {
            let t = rx.recv().expect("device streams alive");
            out[t.tag as usize] = EvalOutput {
                priors: t.response.priors,
                value: t.response.value,
            };
        }
    }

    fn preferred_batch(&self) -> usize {
        self.device.batch_size().max(1)
    }

    fn coalesces_internally(&self) -> bool {
        // The device queue already merges concurrent single-sample
        // submitters into hardware batches.
        true
    }

    fn evaluate_one(&self, input: &[f32]) -> EvalOutput {
        let resp = self.device.evaluate(input.to_vec());
        EvalOutput {
            priors: resp.priors,
            value: resp.value,
        }
    }
}

/// Uniform priors, zero value: turns DNN-MCTS into plain UCT. Used by
/// correctness tests where network quality is irrelevant.
pub struct UniformEvaluator {
    input_len: usize,
    actions: usize,
}

impl UniformEvaluator {
    /// Build with explicit dimensions.
    pub fn new(input_len: usize, actions: usize) -> Self {
        UniformEvaluator { input_len, actions }
    }

    /// Dimensions taken from a game state.
    pub fn for_game<G: Game>(g: &G) -> Self {
        UniformEvaluator {
            input_len: g.encoded_len(),
            actions: g.action_space(),
        }
    }
}

impl BatchEvaluator for UniformEvaluator {
    fn input_len(&self) -> usize {
        self.input_len
    }

    fn action_space(&self) -> usize {
        self.actions
    }

    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        debug_assert_eq!(inputs.len(), out.len());
        for o in out {
            o.priors.clear();
            o.priors.resize(self.actions, 1.0 / self.actions as f32);
            o.value = 0.0;
        }
    }
}

/// Wraps another evaluator and sleeps for a fixed duration per sample —
/// used to emulate a given `T_DNN` in performance experiments. Batches
/// run as sequential single-sample calls (`preferred_batch() == 1`).
pub struct DelayedEvaluator<E: BatchEvaluator> {
    inner: E,
    delay: Duration,
    calls: AtomicU64,
}

impl<E: BatchEvaluator> DelayedEvaluator<E> {
    /// Add `delay` per evaluation on top of `inner`.
    pub fn new(inner: E, delay: Duration) -> Self {
        DelayedEvaluator {
            inner,
            delay,
            calls: AtomicU64::new(0),
        }
    }

    /// Number of evaluations performed.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<E: BatchEvaluator> BatchEvaluator for DelayedEvaluator<E> {
    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn action_space(&self) -> usize {
        self.inner.action_space()
    }

    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        debug_assert_eq!(inputs.len(), out.len());
        for (x, o) in inputs.iter().zip(out.iter_mut()) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            self.inner
                .evaluate_batch(std::slice::from_ref(x), std::slice::from_mut(o));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::DeviceConfig;
    use games::tictactoe::TicTacToe;
    use nn::NetConfig;

    #[test]
    fn uniform_evaluator_shapes() {
        let e = UniformEvaluator::for_game(&TicTacToe::new());
        assert_eq!(e.action_space(), 9);
        assert_eq!(e.input_len(), 36);
        let o = e.evaluate_one(&[0.0; 36]);
        assert_eq!(o.priors.len(), 9);
        assert!((o.priors.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(o.value, 0.0);
    }

    #[test]
    fn nn_evaluator_matches_direct_forward() {
        let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 1));
        let e = NnEvaluator::new(Arc::clone(&net));
        let input: Vec<f32> = (0..36).map(|i| (i % 3) as f32).collect();
        let o = e.evaluate_one(&input);
        let x = Tensor::from_vec(input, &[1, 4, 3, 3]);
        let (mut pi, mut vv) = (Vec::new(), Vec::new());
        net.predict_into(&x, &mut Workspace::new(), &mut pi, &mut vv);
        assert_eq!(o.priors, pi);
        assert_eq!(o.value, vv[0]);
    }

    #[test]
    fn nn_evaluator_runs_one_forward_per_batch() {
        let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 2));
        let e = NnEvaluator::new(net);
        let inputs: Vec<Vec<f32>> = (0..6)
            .map(|i| (0..36).map(|j| ((i * 7 + j) % 5) as f32 / 5.0).collect())
            .collect();
        let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
        let mut out = vec![EvalOutput::default(); 6];
        e.evaluate_batch(&refs, &mut out);
        assert_eq!(e.forward_calls(), 1, "batch of 6 must be ONE forward");
        // And the batched rows must equal per-sample evaluation.
        for (x, o) in refs.iter().zip(&out) {
            let single = e.evaluate_one(x);
            for (a, b) in o.priors.iter().zip(&single.priors) {
                assert!((a - b).abs() < 1e-4);
            }
            assert!((o.value - single.value).abs() < 1e-4);
        }
        assert_eq!(e.forward_calls(), 1 + 6, "each evaluate_one adds one");
    }

    #[test]
    fn int8_batch_rows_equal_their_single_evaluations_bitwise() {
        let net = Arc::new(PolicyValueNet::new(NetConfig::for_board(4, 5, 5, 25), 3));
        let e = NnEvaluator::with_precision(net, 8, Precision::Int8);
        assert_eq!(e.precision(), Precision::Int8);
        // Positions of different magnitude: the int8 path scales each
        // sample by its own maximum, so batch-mates cannot show.
        let inputs: Vec<Vec<f32>> = (0..8)
            .map(|i| {
                (0..100)
                    .map(|j| ((i * 13 + j) % 11) as f32 * (i + 1) as f32 / 11.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
        let mut out = vec![EvalOutput::default(); 8];
        e.evaluate_batch(&refs, &mut out);
        for (x, o) in refs.iter().zip(&out) {
            let single = e.evaluate_one(x);
            assert_eq!(o.priors, single.priors);
            assert_eq!(o.value, single.value);
        }
    }

    #[test]
    fn single_sample_backends_loop_over_the_batch() {
        let e = DelayedEvaluator::new(UniformEvaluator::new(4, 2), Duration::ZERO);
        let a = [0.0f32; 4];
        let b = [1.0f32; 4];
        let mut out = vec![EvalOutput::default(); 2];
        e.evaluate_batch(&[&a, &b], &mut out);
        assert_eq!(out[0].priors, vec![0.5, 0.5]);
        assert_eq!(out[1].priors, vec![0.5, 0.5]);
        assert_eq!(e.calls(), 2, "one call per sample");
        assert_eq!(e.preferred_batch(), 1);
    }

    #[test]
    fn accel_evaluator_agrees_with_cpu_path() {
        let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 2));
        let cpu = NnEvaluator::new(Arc::clone(&net));
        let dev = Arc::new(Device::new(Arc::clone(&net), DeviceConfig::instant(2)));
        let acc = AccelEvaluator::new(dev);
        let input: Vec<f32> = (0..36).map(|i| (i % 5) as f32 * 0.2).collect();
        let (pa, va) = acc.evaluate(&input);
        let oc = cpu.evaluate_one(&input);
        for (a, b) in pa.iter().zip(&oc.priors) {
            assert!((a - b).abs() < 1e-5);
        }
        assert!((va - oc.value).abs() < 1e-5);
    }

    #[test]
    fn accel_batch_submits_from_one_thread() {
        let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 5));
        let dev = Arc::new(Device::new(Arc::clone(&net), DeviceConfig::instant(4)));
        let acc = AccelEvaluator::new(Arc::clone(&dev));
        let cpu = NnEvaluator::new(net);
        let inputs: Vec<Vec<f32>> = (0..8)
            .map(|i| (0..36).map(|j| ((i * 11 + j) % 7) as f32 / 7.0).collect())
            .collect();
        let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
        let mut out = vec![EvalOutput::default(); 8];
        acc.evaluate_batch(&refs, &mut out);
        for (x, o) in refs.iter().zip(&out) {
            let c = cpu.evaluate_one(x);
            for (a, b) in o.priors.iter().zip(&c.priors) {
                assert!((a - b).abs() < 1e-4);
            }
            assert!((o.value - c.value).abs() < 1e-4);
        }
        // All 8 went through the queue at once: device batches must form.
        assert!(dev.stats().max_batch >= 2, "no batching happened");
    }

    #[test]
    fn delayed_evaluator_counts_and_delays() {
        let e = DelayedEvaluator::new(UniformEvaluator::new(4, 2), Duration::from_millis(5));
        let t0 = std::time::Instant::now();
        let _ = e.evaluate_one(&[0.0; 4]);
        let _ = e.evaluate_one(&[0.0; 4]);
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(e.calls(), 2);
    }
}
