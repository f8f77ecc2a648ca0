//! Backend health: retry with backoff and circuit breaking.
//!
//! Every backend is wrapped once in a [`ResilientEvaluator`] (held by
//! its `serve::backend` record and shared by every shard) underneath
//! the coalescing/caching layers. The wrapper calls
//! the fallible [`BatchEvaluator::try_evaluate_batch`] entry point,
//! retries *transient* failures with capped exponential backoff plus
//! deterministic jitter, and feeds every attempt's outcome to the
//! backend's [`CircuitBreaker`]. A backend that keeps failing trips its
//! breaker: subsequent calls fail fast with
//! [`SearchError::BackendUnavailable`] (no retry storm against a dead
//! model), cluster admission sheds new sessions for that backend with
//! an honest `retry_after`, and after a cooldown a single **probe**
//! call decides whether the breaker closes again.
//!
//! Fault-free cost: one atomic load per batch on the happy path — no
//! locks, no allocation, bit-identical results.

use crate::{jittered, ServeConfig};
use mcts::{BatchEvaluator, EvalError, EvalOutput, SearchError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Public state of a backend's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow through (failures are being counted).
    Closed,
    /// Tripped: calls fail fast until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe call is in flight; its outcome
    /// closes or re-opens the breaker.
    HalfOpen,
}

const ST_CLOSED: u8 = 0;
const ST_OPEN: u8 = 1;
const ST_HALF_OPEN: u8 = 2;

/// Per-backend failure accounting with closed → open → half-open
/// recovery (see module docs). All methods are lock-free on the happy
/// path.
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    state: AtomicU8,
    /// Consecutive failures while closed.
    failures: AtomicU32,
    /// When the breaker last opened (read only off the happy path).
    opened_at: Mutex<Option<Instant>>,
    /// Lifetime closed→open transitions (including half-open re-opens).
    opens: AtomicU64,
}

impl CircuitBreaker {
    pub(crate) fn new(threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            state: AtomicU8::new(ST_CLOSED),
            failures: AtomicU32::new(0),
            opened_at: Mutex::new(None),
            opens: AtomicU64::new(0),
        }
    }

    /// Current state, for observability (racy by nature).
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            ST_OPEN => BreakerState::Open,
            ST_HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Lifetime number of times the breaker tripped open.
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    /// Remaining cooldown if the breaker is open; `None` otherwise (or
    /// once a probe may already flow).
    pub fn retry_after(&self) -> Option<Duration> {
        if self.state.load(Ordering::Acquire) == ST_CLOSED {
            return None;
        }
        let opened = (*self.opened_at.lock())?;
        let elapsed = opened.elapsed();
        (elapsed < self.cooldown).then(|| self.cooldown - elapsed)
    }

    /// Admission-side gate: `Err(remaining)` while the breaker is open
    /// and cooling down — new sessions for this backend should be shed.
    /// `Ok` when closed, **and** when a probe could flow (the admitted
    /// session carries the probe).
    pub(crate) fn check(&self) -> Result<(), Duration> {
        match self.state.load(Ordering::Acquire) {
            ST_CLOSED => Ok(()),
            _ => match self.retry_after() {
                Some(remaining) => Err(remaining),
                None => Ok(()),
            },
        }
    }

    /// Call-side gate: decide whether this evaluation attempt may reach
    /// the backend. `Err(retry_after)` fails fast; at most one caller
    /// wins the half-open probe slot per cooldown.
    fn admit_call(&self) -> Result<(), Duration> {
        loop {
            match self.state.load(Ordering::Acquire) {
                ST_CLOSED => return Ok(()),
                ST_HALF_OPEN => return Err(self.probe_backoff()),
                _ => {
                    if let Some(remaining) = self.retry_after() {
                        return Err(remaining);
                    }
                    // Cooldown elapsed: race for the single probe slot.
                    if self
                        .state
                        .compare_exchange(
                            ST_OPEN,
                            ST_HALF_OPEN,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return Ok(());
                    }
                    // Lost the race: loop re-reads the new state.
                }
            }
        }
    }

    /// Hint for callers bounced while a probe is in flight.
    fn probe_backoff(&self) -> Duration {
        self.cooldown.max(Duration::from_millis(1)) / 4
    }

    /// Record a successful backend call.
    pub(crate) fn record_success(&self) {
        // Happy path: closed with a clean failure count — nothing to do.
        if self.state.load(Ordering::Acquire) == ST_CLOSED
            && self.failures.load(Ordering::Relaxed) == 0
        {
            return;
        }
        self.failures.store(0, Ordering::Relaxed);
        self.state.store(ST_CLOSED, Ordering::Release);
    }

    /// Record a failed backend call (typed error or panic).
    pub(crate) fn record_failure(&self) {
        match self.state.load(Ordering::Acquire) {
            ST_HALF_OPEN => {
                // The probe failed: straight back to open, new cooldown.
                *self.opened_at.lock() = Some(Instant::now());
                self.state.store(ST_OPEN, Ordering::Release);
                self.opens.fetch_add(1, Ordering::Relaxed);
            }
            ST_OPEN => {}
            _ => {
                let f = self.failures.fetch_add(1, Ordering::Relaxed) + 1;
                if f >= self.threshold {
                    *self.opened_at.lock() = Some(Instant::now());
                    // Only trip once per burst of racing failures.
                    if self
                        .state
                        .compare_exchange(ST_CLOSED, ST_OPEN, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.opens.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// The retry/breaker wrapper around a backend (under the coalescing
/// layer, so one retry re-runs the whole shared batch and one breaker
/// verdict covers all coalesced sessions). There is one per backend:
/// every session of the model, on every shard, fails and backs off
/// through the same breaker and the same jitter sequence.
///
/// Failure protocol: typed faults leave `evaluate_batch` as
/// [`SearchError`] panic payloads ([`std::panic::panic_any`]) — the
/// serve supervisor catches them at the worker boundary and fails the
/// ticket with the typed error. Infallible backends never take any of
/// these paths.
pub(crate) struct ResilientEvaluator {
    inner: Arc<dyn BatchEvaluator>,
    breaker: CircuitBreaker,
    retry_budget: u32,
    backoff_base: Duration,
    /// Jitter salt: decorrelates concurrent sessions' backoff sleeps.
    attempt_seq: AtomicU64,
}

impl ResilientEvaluator {
    /// Wrap `backend` behind a fresh (closed) breaker, with `cfg`'s
    /// retry and breaker knobs.
    pub(crate) fn new(backend: Arc<dyn BatchEvaluator>, cfg: &ServeConfig) -> Self {
        ResilientEvaluator {
            inner: backend,
            breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown),
            retry_budget: cfg.retry_budget,
            backoff_base: cfg.backoff_base,
            attempt_seq: AtomicU64::new(0),
        }
    }

    /// The raw backend underneath.
    pub(crate) fn backend(&self) -> &Arc<dyn BatchEvaluator> {
        &self.inner
    }

    /// The backend's breaker.
    pub(crate) fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    fn run(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) -> Result<(), SearchError> {
        let mut last: Option<EvalError> = None;
        for attempt in 0..=self.retry_budget {
            if let Err(retry_after) = self.breaker.admit_call() {
                return Err(SearchError::BackendUnavailable {
                    retry_after: Some(retry_after),
                });
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.inner.try_evaluate_batch(inputs, out)
            }));
            match outcome {
                Ok(Ok(())) => {
                    self.breaker.record_success();
                    return Ok(());
                }
                Ok(Err(e)) => {
                    self.breaker.record_failure();
                    let retryable = e.transient && attempt < self.retry_budget;
                    last = Some(e);
                    if !retryable {
                        break;
                    }
                    // Capped exponential backoff with jitter: base·2^n,
                    // never more than 32× base or 250 ms.
                    let exp = self
                        .backoff_base
                        .saturating_mul(1u32 << attempt.min(5))
                        .min(Duration::from_millis(250));
                    let salt = self.attempt_seq.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(jittered(exp, salt, 1.0));
                }
                Err(payload) => {
                    // A panicking backend counts against the breaker,
                    // then propagates (no retry into unknown state).
                    self.breaker.record_failure();
                    std::panic::resume_unwind(payload);
                }
            }
        }
        Err(SearchError::EvaluatorFailed {
            reason: last.map_or_else(|| "unknown".to_string(), |e| e.reason),
        })
    }
}

impl BatchEvaluator for ResilientEvaluator {
    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn action_space(&self) -> usize {
        self.inner.action_space()
    }

    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        if let Err(e) = self.run(inputs, out) {
            std::panic::panic_any(e);
        }
    }

    fn try_evaluate_batch(
        &self,
        inputs: &[&[f32]],
        out: &mut [EvalOutput],
    ) -> Result<(), EvalError> {
        self.run(inputs, out).map_err(|e| match e {
            SearchError::EvaluatorFailed { reason } => EvalError::permanent(reason),
            other => EvalError::permanent(other.to_string()),
        })
    }

    fn preferred_batch(&self) -> usize {
        self.inner.preferred_batch()
    }

    fn coalesces_internally(&self) -> bool {
        self.inner.coalesces_internally()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(threshold, Duration::from_millis(cooldown_ms))
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_probe() {
        let b = breaker(3, 20);
        assert_eq!(b.state(), BreakerState::Closed);
        for _ in 0..3 {
            assert!(b.check().is_ok());
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.check().is_err(), "open breaker sheds");
        assert!(b.retry_after().unwrap() <= Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(25));
        // Cooldown elapsed: exactly one probe may flow.
        assert!(b.check().is_ok(), "probe-eligible breaker admits");
        assert!(b.admit_call().is_ok(), "first caller wins the probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.admit_call().is_err(), "second caller bounced");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn failed_probe_reopens_with_fresh_cooldown() {
        let b = breaker(1, 15);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(20));
        assert!(b.admit_call().is_ok());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open, "failed probe reopens");
        assert!(b.retry_after().is_some(), "cooldown restarted");
        assert_eq!(b.opens(), 2);
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let b = breaker(3, 10);
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was broken");
    }

    fn knobs(retry_budget: u32, breaker_threshold: u32, cooldown_ms: u64) -> ServeConfig {
        ServeConfig {
            retry_budget,
            backoff_base: Duration::from_micros(100),
            breaker_threshold,
            breaker_cooldown: Duration::from_millis(cooldown_ms),
            ..Default::default()
        }
    }

    struct FlakyEvaluator {
        fail_first: AtomicU32,
    }
    impl BatchEvaluator for FlakyEvaluator {
        fn input_len(&self) -> usize {
            4
        }
        fn action_space(&self) -> usize {
            2
        }
        fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
            self.try_evaluate_batch(inputs, out).unwrap();
        }
        fn try_evaluate_batch(
            &self,
            _inputs: &[&[f32]],
            out: &mut [EvalOutput],
        ) -> Result<(), EvalError> {
            let left = self.fail_first.load(Ordering::Relaxed);
            if left > 0 {
                self.fail_first.store(left - 1, Ordering::Relaxed);
                return Err(EvalError::transient("flaky"));
            }
            for o in out.iter_mut() {
                o.priors = vec![0.5, 0.5];
                o.value = 0.0;
            }
            Ok(())
        }
    }

    #[test]
    fn transient_failures_are_retried_within_budget() {
        let flaky: Arc<dyn BatchEvaluator> = Arc::new(FlakyEvaluator {
            fail_first: AtomicU32::new(2),
        });
        let resilient = ResilientEvaluator::new(flaky, &knobs(2, 10, 50));
        let input = [0.0f32; 4];
        let mut out = [EvalOutput::default()];
        // 2 failures then success — inside the 2-retry budget.
        resilient
            .try_evaluate_batch(&[&input], &mut out)
            .expect("retries must absorb the transient failures");
        assert_eq!(out[0].priors, vec![0.5, 0.5]);
        assert_eq!(
            resilient.breaker().state(),
            BreakerState::Closed,
            "success closed the streak"
        );
    }

    #[test]
    fn exhausted_retries_fail_typed_and_feed_the_breaker() {
        let dead: Arc<dyn BatchEvaluator> = Arc::new(FlakyEvaluator {
            fail_first: AtomicU32::new(u32::MAX),
        });
        let resilient = ResilientEvaluator::new(dead, &knobs(1, 2, 60_000));
        let input = [0.0f32; 4];
        let mut out = [EvalOutput::default()];
        let err = resilient
            .try_evaluate_batch(&[&input], &mut out)
            .unwrap_err();
        assert!(err.reason.contains("flaky"));
        // 2 attempts (1 + 1 retry) ≥ threshold 2: breaker is open and
        // the next call fails fast as BackendUnavailable.
        assert_eq!(resilient.breaker().state(), BreakerState::Open);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            resilient.evaluate_batch(&[&input], &mut out)
        }))
        .unwrap_err();
        assert!(matches!(
            SearchError::from_panic(payload.as_ref()),
            SearchError::BackendUnavailable {
                retry_after: Some(_)
            }
        ));
    }
}
