//! Cross-thread batch coalescing for synchronous callers.
//!
//! The shared-tree scheme's workers each need *their own* leaf evaluated
//! before they can continue the rollout — a synchronous, single-sample
//! call pattern. [`CoalescingEvaluator`] turns those concurrent calls
//! into shared batches: the first caller of a round becomes the
//! **leader**, waits a short window for peers to join (or until the
//! batch is full), runs one [`BatchEvaluator::evaluate_batch`] for
//! everyone, and hands each caller its own result. Followers just park.
//!
//! This is the software analogue of the accelerator's request queue
//! (§3.3) for backends that have no queue of their own (batched CPU
//! inference): `N` rollout workers produce one `[N, C, H, W]` forward
//! pass instead of `N` single-sample passes.
//!
//! **One rule steers a round: the operating point of the layer's own
//! [`BatchTuner`]**, which every forward of the layer is timed into.
//! Batch `b ≥ 2`: the leader aims at `b` callers and waits at most the
//! measured `t(b)` for them. Batch 1 — a round only pays where a batch
//! costs less than its samples one by one, and here the complete curve
//! says singles side by side deliver more — the layer steps aside: every
//! call goes **direct**, straight into the inner evaluator on the
//! caller's own thread, concurrently with other callers, with no lock,
//! copy, wait or allocation of the layer's own; still timed, so the
//! verdict follows the backend if its curve changes. Until the curve
//! covers every batch size (a layer nobody calibrated fills it from its
//! own rounds) the point is the batch bound and one fixed window.

use crate::autotune::{BatchTuner, OperatingPoint};
use crate::error::SearchError;
use crate::evaluator::{BatchEvaluator, EvalOutput};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A sealed round awaiting follower pickup.
struct RoundDone {
    /// Per-index results; slot 0 (the leader's) is always `None`.
    slots: Vec<Option<EvalOutput>>,
    /// Followers that have not collected yet; entry removed at 0.
    remaining: usize,
    /// Set when the leader's `evaluate_batch` panicked: followers
    /// re-raise the *typed* error ([`SearchError::from_panic`] of the
    /// leader's payload) instead of waiting forever for results that
    /// never come — so a fault classified upstream (e.g. the serve
    /// layer's `EvaluatorFailed`) keeps its type across the coalescing
    /// boundary.
    poison: Option<SearchError>,
}

struct Round {
    /// Inputs collected for the round being assembled.
    inputs: Vec<Vec<f32>>,
    /// Id of the round currently assembling.
    epoch: u64,
    /// Finished rounds: epoch → per-index results (taken by followers).
    done: HashMap<u64, RoundDone>,
}

/// Lifetime batch-fill accounting of a [`CoalescingEvaluator`] — the
/// figure of merit for cross-caller (and, in a serving process,
/// cross-session) batching.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoalesceStats {
    /// Calls into the inner evaluator: one per round, one per direct
    /// call (a round of one caller).
    pub batches: u64,
    /// Samples served across all of them.
    pub samples: u64,
}

impl CoalesceStats {
    /// Mean samples per round (1.0 = no coalescing happened).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.samples as f64 / self.batches as f64
        }
    }
}

/// Turns concurrent single-sample [`BatchEvaluator::evaluate_one`] calls
/// into shared batches, or passes them straight through when its tuner
/// finds that batches do not pay (see module docs). While rounds form,
/// the blocking join *is* its `evaluate_one` and `evaluate_batch` joins
/// once per sample; `preferred_batch()` stays 1 so no caller assembles
/// batches on top.
pub struct CoalescingEvaluator {
    inner: Arc<dyn BatchEvaluator>,
    /// The measured forward-time curve of `inner` and the operating point
    /// it implies: the one thing that steers this layer.
    tuner: BatchTuner,
    /// Lifetime rounds executed.
    batches: AtomicU64,
    /// Lifetime samples served.
    samples: AtomicU64,
    state: Mutex<Round>,
    joined: Condvar,
    finished: Condvar,
}

impl CoalescingEvaluator {
    /// Coalesce into batches of at most `max_batch`. `callers` is how many
    /// callers can be inside `inner` at once — the smaller of the threads
    /// that call this layer and the cores that can run them: the width
    /// singles side by side are scored at.
    pub fn new(inner: Arc<dyn BatchEvaluator>, max_batch: usize, callers: usize) -> Self {
        assert!(max_batch >= 1, "batch bound must be positive");
        CoalescingEvaluator {
            inner,
            tuner: BatchTuner::new(max_batch, callers),
            batches: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            state: Mutex::new(Round {
                inputs: Vec::new(),
                epoch: 0,
                done: HashMap::new(),
            }),
            joined: Condvar::new(),
            finished: Condvar::new(),
        }
    }

    /// The layer's tuner: calibrate it against the raw backend before
    /// traffic arrives, or read its curve and operating point.
    pub fn tuner(&self) -> &BatchTuner {
        &self.tuner
    }

    /// True while calls bypass rounds: the tuner's complete curve says
    /// the callers' singles side by side beat any shared batch.
    pub fn runs_direct(&self) -> bool {
        self.tuner.operating_point().batch == 1
    }

    /// Finished rounds currently awaiting follower pickup (diagnostics;
    /// returns to 0 once all concurrent callers have collected).
    pub fn rounds_pending(&self) -> usize {
        self.state.lock().done.len()
    }

    /// Lifetime batch-fill accounting (rounds + samples served).
    pub fn stats(&self) -> CoalesceStats {
        CoalesceStats {
            batches: self.batches.load(Ordering::Relaxed),
            samples: self.samples.load(Ordering::Relaxed),
        }
    }

    /// Account one finished call into the inner evaluator: the counters
    /// and the tuner's curve.
    fn record_batch(&self, elapsed: Duration, samples: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.samples.fetch_add(samples as u64, Ordering::Relaxed);
        self.tuner.record(samples, elapsed);
    }

    /// The direct path: the caller's own forward on its own thread, its
    /// results written where the caller wants them. Timed into the curve
    /// (bucket 1 thereby prices in what side-by-side singles cost each
    /// other) and counted as a round of its own. A backend panic unwinds
    /// through here to this caller alone.
    fn evaluate_direct(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        let t0 = Instant::now();
        self.inner.evaluate_batch(inputs, out);
        self.record_batch(t0.elapsed(), inputs.len());
    }
}

impl BatchEvaluator for CoalescingEvaluator {
    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn action_space(&self) -> usize {
        self.inner.action_space()
    }

    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        debug_assert_eq!(inputs.len(), out.len());
        if inputs.is_empty() {
            return;
        }
        if self.runs_direct() {
            // A caller-assembled batch stays one backend call.
            return self.evaluate_direct(inputs, out);
        }
        for (x, o) in inputs.iter().zip(out.iter_mut()) {
            *o = self.evaluate_one(x);
        }
    }

    fn evaluate_one(&self, input: &[f32]) -> EvalOutput {
        let OperatingPoint {
            batch: target,
            window,
        } = self.tuner.operating_point();
        if target == 1 {
            let mut out = [EvalOutput::default()];
            self.evaluate_direct(&[input], &mut out);
            let [o] = out;
            return o;
        }
        let mut st = self.state.lock();
        // A full round that its leader hasn't sealed yet must not grow
        // past the batch bound; wait for the seal to open the next epoch.
        // While parked, lend this caller's core to the tensor pool so a
        // forward pass in flight can widen its strip parallelism.
        while st.inputs.len() >= self.tuner.max_batch() {
            let _lease = tensor::pool::lend_core();
            st = self.joined.wait(st);
        }
        let epoch = st.epoch;
        let index = st.inputs.len();
        st.inputs.push(input.to_vec());
        let leader = index == 0;
        self.joined.notify_all();

        if leader {
            // Collect joiners until the batch reaches the operating
            // point's target or its window closes. The leader's core is
            // lent out while it waits.
            //
            // The window is an upper bound, not a sentence: when fewer
            // callers are evaluating than the target batch, arrivals dry
            // up long before the window closes, and waiting it out would
            // tax every round with dead time. So the round also seals
            // once no new caller has joined for a grace period (a
            // fraction of the window) — full batches form at full
            // concurrency, and light traffic proceeds at once.
            let deadline = Instant::now() + window;
            let grace = window / 8;
            let mut last_join = Instant::now();
            let mut seen = st.inputs.len();
            while st.inputs.len() < target {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                if st.inputs.len() > seen {
                    seen = st.inputs.len();
                    last_join = now;
                } else if now >= last_join + grace {
                    break;
                }
                let wait = (deadline - now).min(last_join + grace - now);
                let _lease = tensor::pool::lend_core();
                let (guard, _) = self.joined.wait_timeout(st, wait);
                st = guard;
            }
            // Seal the round: later arrivals start the next epoch. Wake
            // any caller parked on a full round so it can join epoch+1.
            let batch = std::mem::take(&mut st.inputs);
            st.epoch += 1;
            self.joined.notify_all();
            drop(st);

            let followers = batch.len() - 1;
            // Contain a panicking backend so the round can be poisoned
            // for the parked followers before the panic propagates.
            let t0 = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let refs: Vec<&[f32]> = batch.iter().map(Vec::as_slice).collect();
                let mut out = vec![EvalOutput::default(); batch.len()];
                self.inner.evaluate_batch(&refs, &mut out);
                out
            }));
            if outcome.is_ok() {
                self.record_batch(t0.elapsed(), followers + 1);
            }

            let mut st = self.state.lock();
            match outcome {
                Ok(out) => {
                    let mut results = out.into_iter();
                    let mine = results.next().expect("leader owns slot 0");
                    if followers > 0 {
                        // Slot 0 stays None: the leader keeps its result.
                        let mut slots: Vec<Option<EvalOutput>> = Vec::with_capacity(followers + 1);
                        slots.push(None);
                        slots.extend(results.map(Some));
                        st.done.insert(
                            epoch,
                            RoundDone {
                                slots,
                                remaining: followers,
                                poison: None,
                            },
                        );
                        self.finished.notify_all();
                    }
                    drop(st);
                    mine
                }
                Err(panic) => {
                    if followers > 0 {
                        st.done.insert(
                            epoch,
                            RoundDone {
                                slots: Vec::new(),
                                remaining: followers,
                                poison: Some(SearchError::from_panic(panic.as_ref())),
                            },
                        );
                        self.finished.notify_all();
                    }
                    drop(st);
                    std::panic::resume_unwind(panic);
                }
            }
        } else {
            // Follower: park until the leader publishes this round,
            // lending the core to the pool for the duration — the
            // leader's forward pass is exactly what it's waiting on.
            loop {
                if let Some(round) = st.done.get_mut(&epoch) {
                    let mine = match round.poison.clone() {
                        Some(err) => Err(err),
                        None => Ok(round.slots[index].take().expect("result taken once")),
                    };
                    round.remaining -= 1;
                    if round.remaining == 0 {
                        st.done.remove(&epoch);
                    }
                    drop(st);
                    match mine {
                        Ok(o) => return o,
                        // Re-raise with the type intact: the serve
                        // supervisor downcasts this back to SearchError.
                        Err(err) => std::panic::panic_any(err),
                    }
                }
                let _lease = tensor::pool::lend_core();
                st = self.finished.wait(st);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{NnEvaluator, UniformEvaluator};
    use nn::{NetConfig, PolicyValueNet};
    use std::sync::Barrier;

    /// A layer for two callers whose curve is seeded with `t(b)` at every
    /// bucket.
    fn seeded(
        inner: Arc<dyn BatchEvaluator>,
        max_batch: usize,
        t: impl Fn(usize) -> Duration,
    ) -> CoalescingEvaluator {
        let c = CoalescingEvaluator::new(inner, max_batch, 2);
        let mut b = 1;
        while b < max_batch {
            c.tuner().record(b, t(b));
            b *= 2;
        }
        c.tuner().record(max_batch, t(max_batch));
        c
    }

    /// A batch of any size costs `t`: rounds aim at `max_batch` and wait
    /// up to `t` for it.
    fn flat(inner: Arc<dyn BatchEvaluator>, max_batch: usize, t: Duration) -> CoalescingEvaluator {
        seeded(inner, max_batch, |_| t)
    }

    /// A batch costs its samples one by one: the operating point is
    /// batch 1.
    fn linear(inner: Arc<dyn BatchEvaluator>, max_batch: usize) -> CoalescingEvaluator {
        seeded(inner, max_batch, |b| Duration::from_micros(100 * b as u64))
    }

    #[test]
    fn single_caller_passes_through() {
        let inner: Arc<dyn BatchEvaluator> = Arc::new(UniformEvaluator::new(4, 3));
        let c = CoalescingEvaluator::new(inner, 4, 2);
        let o = c.evaluate_one(&[0.0; 4]);
        assert_eq!(o.priors.len(), 3);
        assert_eq!(o.value, 0.0);
    }

    #[test]
    fn concurrent_callers_share_forward_passes() {
        let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 4));
        let nn = Arc::new(NnEvaluator::new(Arc::clone(&net)));
        let probe = Arc::clone(&nn);
        let c = Arc::new(flat(nn, 8, Duration::from_millis(20)));
        let reference = NnEvaluator::new(net);
        std::thread::scope(|s| {
            for i in 0..8usize {
                let c = Arc::clone(&c);
                let reference = &reference;
                s.spawn(move || {
                    let input: Vec<f32> =
                        (0..36).map(|j| ((i * 17 + j) % 9) as f32 / 9.0).collect();
                    let got = c.evaluate_one(&input);
                    let o = reference.evaluate_one(&input);
                    for (a, b) in got.priors.iter().zip(&o.priors) {
                        assert!((a - b).abs() < 1e-4, "coalesced result diverged");
                    }
                    assert!((got.value - o.value).abs() < 1e-4);
                });
            }
        });
        // 8 concurrent callers with a generous window: far fewer than 8
        // forwards must have run (typically 1-2). The reference instance
        // counts separately.
        let batched_forwards = probe.forward_calls();
        assert!(
            batched_forwards < 8,
            "no coalescing: {batched_forwards} forwards for 8 calls"
        );
    }

    #[test]
    fn finished_rounds_are_fully_reclaimed() {
        // Regression: the leader's slot used to be stored as Some and
        // never taken, leaking one round entry per multi-caller batch.
        let inner: Arc<dyn BatchEvaluator> = Arc::new(UniformEvaluator::new(4, 3));
        let c = Arc::new(flat(inner, 4, Duration::from_millis(20)));
        for _ in 0..10 {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let c = Arc::clone(&c);
                    s.spawn(move || {
                        let p = c.evaluate_one(&[0.0; 4]).priors;
                        assert_eq!(p.len(), 3);
                    });
                }
            });
        }
        assert_eq!(c.rounds_pending(), 0, "round entries must be reclaimed");
    }

    #[test]
    fn leader_panic_poisons_followers_instead_of_hanging() {
        /// Panics on every batch.
        struct Exploding;
        impl BatchEvaluator for Exploding {
            fn input_len(&self) -> usize {
                4
            }
            fn action_space(&self) -> usize {
                2
            }
            fn evaluate_batch(&self, _inputs: &[&[f32]], _out: &mut [EvalOutput]) {
                panic!("backend died");
            }
            fn preferred_batch(&self) -> usize {
                4
            }
        }
        let c = Arc::new(flat(Arc::new(Exploding), 4, Duration::from_millis(50)));
        // All four callers must terminate (by panicking), none may hang.
        let results: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = Arc::clone(&c);
                    s.spawn(move || {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            c.evaluate_one(&[0.0; 4])
                        }))
                        .is_err()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|&panicked| panicked));
        assert_eq!(c.rounds_pending(), 0, "poisoned round must be reclaimed");
    }

    /// Raises a typed SearchError on every batch, the way the serve
    /// layer's resilience wrapper does after exhausting retries.
    struct TypedFailure;
    impl BatchEvaluator for TypedFailure {
        fn input_len(&self) -> usize {
            4
        }
        fn action_space(&self) -> usize {
            2
        }
        fn evaluate_batch(&self, _inputs: &[&[f32]], _out: &mut [EvalOutput]) {
            std::panic::panic_any(SearchError::EvaluatorFailed {
                reason: "device reset".into(),
            });
        }
        fn preferred_batch(&self) -> usize {
            4
        }
    }

    #[test]
    fn typed_leader_errors_reach_followers_typed() {
        let c = Arc::new(flat(Arc::new(TypedFailure), 4, Duration::from_millis(50)));
        let errors: Vec<SearchError> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = Arc::clone(&c);
                    s.spawn(move || {
                        let payload =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                c.evaluate_one(&[0.0; 4])
                            }))
                            .expect_err("every caller must observe the failure");
                        SearchError::from_panic(payload.as_ref())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for e in errors {
            assert_eq!(
                e,
                SearchError::EvaluatorFailed {
                    reason: "device reset".into()
                },
                "type must survive both leader and follower paths"
            );
        }
        assert_eq!(c.rounds_pending(), 0);
    }

    #[test]
    fn sealed_rounds_are_timed_into_the_curve() {
        let inner: Arc<dyn BatchEvaluator> = Arc::new(UniformEvaluator::new(4, 3));
        let c = Arc::new(CoalescingEvaluator::new(inner, 4, 2));
        // Nothing measured yet: rounds aim at the batch bound.
        assert_eq!(c.tuner().operating_point().batch, 4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    c.evaluate_one(&[0.0; 4]);
                });
            }
        });
        assert!(
            !c.tuner().curve().is_empty(),
            "sealed rounds must be recorded into the tuner's curve"
        );
    }

    /// Uniform outputs; counts calls and samples, and tracks how many
    /// callers were inside `evaluate_batch` at once.
    #[derive(Default)]
    struct CountingBackend {
        calls: AtomicU64,
        samples: AtomicU64,
        inside: AtomicU64,
        /// Callers each call waits for (bounded) before it returns.
        rendezvous: u64,
    }

    impl BatchEvaluator for CountingBackend {
        fn input_len(&self) -> usize {
            4
        }
        fn action_space(&self) -> usize {
            3
        }
        fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.samples
                .fetch_add(inputs.len() as u64, Ordering::SeqCst);
            self.inside.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.inside.load(Ordering::SeqCst) < self.rendezvous {
                assert!(Instant::now() < deadline, "callers were serialized");
                std::thread::yield_now();
            }
            for o in out.iter_mut() {
                o.priors.clear();
                o.priors.resize(3, 1.0 / 3.0);
                o.value = 0.5;
            }
        }
        fn preferred_batch(&self) -> usize {
            8
        }
    }

    #[test]
    fn a_lone_round_does_not_shrink_the_rounds_after_it() {
        let backend = Arc::new(CountingBackend::default());
        let c = flat(
            Arc::clone(&backend) as Arc<dyn BatchEvaluator>,
            4,
            Duration::from_millis(80),
        );
        // One caller, nobody to share with: a round of one.
        assert_eq!(c.evaluate_one(&[0.0; 4]).value, 0.5);
        assert_eq!(c.stats().mean_batch(), 1.0);
        // The curve still says four, so the next four callers get one
        // forward between them.
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    assert_eq!(c.evaluate_one(&[0.0; 4]).value, 0.5);
                });
            }
        });
        assert_eq!(backend.calls.load(Ordering::SeqCst), 2);
        assert_eq!(backend.samples.load(Ordering::SeqCst), 5);
        assert_eq!(c.rounds_pending(), 0);
    }

    #[test]
    fn direct_path_hands_a_caller_assembled_batch_over_as_one_call() {
        let backend = Arc::new(CountingBackend::default());
        let c = linear(Arc::clone(&backend) as Arc<dyn BatchEvaluator>, 8);
        assert!(c.runs_direct());
        let inputs = [[0.0f32; 4]; 4];
        let refs: Vec<&[f32]> = inputs.iter().map(|x| x.as_slice()).collect();
        let mut out = vec![EvalOutput::default(); 4];
        let before = c.tuner().curve();
        c.evaluate_batch(&refs, &mut out);
        assert_eq!(backend.calls.load(Ordering::SeqCst), 1);
        assert_eq!(backend.samples.load(Ordering::SeqCst), 4);
        assert!(out.iter().all(|o| o.priors.len() == 3 && o.value == 0.5));
        assert_eq!(
            c.stats(),
            CoalesceStats {
                batches: 1,
                samples: 4
            }
        );
        // Timed into bucket 4 and nowhere else.
        let after = c.tuner().curve();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.1 != a.1, b.0 == 4, "bucket {}", b.0);
        }
        // A single sample is a round of one.
        assert_eq!(c.evaluate_one(&[0.0; 4]).value, 0.5);
        assert_eq!(
            c.stats(),
            CoalesceStats {
                batches: 2,
                samples: 5
            }
        );
        assert_eq!(c.rounds_pending(), 0);
    }

    #[test]
    fn direct_callers_run_side_by_side() {
        // Each forward returns only once both callers are inside the
        // backend: a layer that still serialized them would time out.
        let backend = Arc::new(CountingBackend {
            rendezvous: 2,
            ..Default::default()
        });
        let c = Arc::new(linear(Arc::clone(&backend) as Arc<dyn BatchEvaluator>, 8));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let c = Arc::clone(&c);
                s.spawn(move || assert_eq!(c.evaluate_one(&[0.0; 4]).value, 0.5));
            }
        });
        assert_eq!(backend.calls.load(Ordering::SeqCst), 2, "no shared batch");
        assert_eq!(c.stats().mean_batch(), 1.0);
    }

    #[test]
    fn direct_path_panics_reach_their_own_caller_typed() {
        let c = linear(Arc::new(TypedFailure), 4);
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.evaluate_one(&[0.0; 4])))
                .expect_err("the failure must surface");
        assert_eq!(
            payload.downcast_ref::<SearchError>(),
            Some(&SearchError::EvaluatorFailed {
                reason: "device reset".into()
            })
        );
        assert_eq!(
            c.stats(),
            CoalesceStats::default(),
            "failures are not rounds"
        );
    }

    #[test]
    fn a_partial_curve_steers_nothing() {
        let inner: Arc<dyn BatchEvaluator> = Arc::new(UniformEvaluator::new(4, 3));
        let c = CoalescingEvaluator::new(inner, 8, 2);
        let unmeasured = c.tuner().operating_point();
        // Only bucket 1 seen: it has nothing to be compared with.
        c.tuner().record(1, Duration::from_micros(100));
        assert!(!c.runs_direct());
        assert_eq!(c.tuner().operating_point(), unmeasured);
        assert_eq!(unmeasured.batch, 8);
    }

    #[test]
    fn sequential_calls_never_deadlock() {
        let inner: Arc<dyn BatchEvaluator> = Arc::new(UniformEvaluator::new(4, 2));
        let c = CoalescingEvaluator::new(inner, 16, 2);
        for _ in 0..20 {
            let p = c.evaluate_one(&[0.0; 4]).priors;
            assert_eq!(p.len(), 2);
        }
    }
}
