//! Per-model admission control and load shedding.
//!
//! A serving cluster that accepts every request degrades for everyone at
//! once: queues grow without bound, deadlines blow through, and memory
//! follows the backlog. [`AdmissionController`] instead bounds what each
//! *model* (evaluator backend) may have in flight and sheds the
//! overflow **explicitly** — a rejected request gets a
//! [`Rejection`] with a [`retry_after`](Rejection::retry_after) hint
//! instead of a place in an unbounded queue.
//!
//! Gates, all keyed per model:
//!
//! * a **token bucket on admitted playouts**: a session costing `c`
//!   playouts is admitted only if the bucket holds `c` tokens; tokens
//!   refill at [`AdmissionConfig::playouts_per_sec`] up to
//!   [`AdmissionConfig::burst_playouts`]. This caps the sustained
//!   compute a model may consume no matter how many sessions carry it.
//! * a **bounded pending count**: at most
//!   [`AdmissionConfig::max_pending`] sessions may be
//!   admitted-but-unfinished at once. This caps queue depth (and the
//!   memory behind it) even when each session is tiny.
//! * **byte quotas** making arena memory a co-equal admitted resource:
//!   a per-session cap ([`AdmissionConfig::session_byte_quota`],
//!   terminal like [`RejectReason::TooLarge`]) and a per-model gauge
//!   ([`AdmissionConfig::model_byte_budget`]) that reserves each
//!   admitted session's worst-case arena bytes and returns them on
//!   release; a full gauge sheds with the transient
//!   [`RejectReason::OverMemory`].
//!
//! ```
//! use serve::{AdmissionConfig, AdmissionController, RejectReason};
//!
//! let adm = AdmissionController::new(AdmissionConfig {
//!     playouts_per_sec: 1000.0,
//!     burst_playouts: 600,
//!     max_pending: 8,
//!     ..Default::default()
//! });
//! let model_key = 7; // a cluster passes the model's backend-record id
//! assert!(adm.try_admit(model_key, 512).is_ok()); // within the burst
//! let shed = adm.try_admit(model_key, 512).unwrap_err(); // bucket drained
//! assert_eq!(shed.reason, RejectReason::RateLimited);
//! assert!(shed.retry_after.as_secs_f64() > 0.0);
//! adm.release(model_key); // session finished: pending slot freed
//! ```

use crate::jittered;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-model admission limits (see module docs). The same limits apply
/// to every model served by a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Sustained admitted playouts per second per model: the token
    /// bucket's refill rate. Must be positive and finite.
    pub playouts_per_sec: f64,
    /// Token-bucket capacity in playouts: the largest burst admitted
    /// from a full bucket before rate limiting engages.
    pub burst_playouts: u64,
    /// Maximum sessions admitted-but-unfinished per model at once (the
    /// bounded pending queue). Overflow is shed with
    /// [`RejectReason::QueueFull`].
    pub max_pending: usize,
    /// Largest worst-case arena footprint (bytes) a single session may
    /// ask for. Violations are terminal for that request shape
    /// ([`RejectReason::OverMemory`] with zero `retry_after` — waiting
    /// cannot shrink the request); resubmit with a smaller byte budget
    /// or fewer playouts. `None` ⇒ no per-session cap.
    pub session_byte_quota: Option<u64>,
    /// Total arena bytes a model may have reserved across its
    /// admitted-but-unfinished sessions. Admission reserves each
    /// session's worst-case arena bytes against this gauge and the
    /// release returns them; a full gauge sheds with the *transient*
    /// [`RejectReason::OverMemory`] (a positive `retry_after` — pending
    /// sessions finishing will free bytes). `None` ⇒ unmetered.
    pub model_byte_budget: Option<u64>,
}

impl Default for AdmissionConfig {
    /// Generous defaults sized for interactive serving: 50k playouts/s
    /// sustained, 100k burst, 256 pending sessions per model, bytes
    /// unmetered.
    fn default() -> Self {
        AdmissionConfig {
            playouts_per_sec: 50_000.0,
            burst_playouts: 100_000,
            max_pending: 256,
            session_byte_quota: None,
            model_byte_budget: None,
        }
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The model's token bucket lacks the playouts this session asks
    /// for: the model is over its sustained compute budget. Transient —
    /// retrying after the hint has a fair chance.
    RateLimited,
    /// The model already has [`AdmissionConfig::max_pending`] sessions
    /// admitted and unfinished. Transient.
    QueueFull,
    /// The session's cost exceeds
    /// [`AdmissionConfig::burst_playouts`] — a full bucket could never
    /// cover it, so retrying the *same* request is pointless no matter
    /// how long the caller waits. Resubmit with a smaller playout
    /// budget (or split the work across sessions).
    TooLarge,
    /// The model's circuit breaker is open: the backend kept failing
    /// and is cooling down (see [`crate::ServeConfig::breaker_threshold`]).
    /// Transient — `retry_after` covers the remaining cooldown, after
    /// which a probe decides whether the model is healthy again.
    Unhealthy,
    /// The cluster is draining toward shutdown
    /// (see [`crate::ServeCluster::drain`]): no new work is admitted,
    /// in-flight sessions run to completion. Terminal for this cluster —
    /// `retry_after` is zero; clients should fail over to another
    /// replica rather than wait.
    Draining,
    /// An arena byte quota is exhausted. Two shapes, distinguished by
    /// `retry_after`: the session's worst-case arena bytes exceed
    /// [`AdmissionConfig::session_byte_quota`] (terminal — zero hint,
    /// resubmit smaller), or the model's reserved-byte gauge cannot fit
    /// this session under [`AdmissionConfig::model_byte_budget`]
    /// (transient — positive hint; finishing sessions return bytes).
    OverMemory,
}

/// An explicit load-shedding outcome: the request was **not** queued.
/// For the transient reasons ([`RejectReason::RateLimited`],
/// [`RejectReason::QueueFull`]), resubmitting after
/// [`retry_after`](Rejection::retry_after) has a fair chance of
/// admission (tokens refilled / pending drained). A
/// [`RejectReason::TooLarge`] rejection is permanent for that request
/// shape — `retry_after` is zero and waiting will not help.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rejection {
    pub reason: RejectReason,
    /// Back-off hint: how long until the shedding gate plausibly
    /// clears. Zero for [`RejectReason::TooLarge`] (no wait helps).
    pub retry_after: Duration,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            RejectReason::RateLimited => {
                write!(
                    f,
                    "request shed (rate limited); retry after {:?}",
                    self.retry_after
                )
            }
            RejectReason::QueueFull => {
                write!(
                    f,
                    "request shed (pending queue full); retry after {:?}",
                    self.retry_after
                )
            }
            RejectReason::TooLarge => {
                write!(
                    f,
                    "request shed (cost exceeds the admission burst); lower the budget"
                )
            }
            RejectReason::Unhealthy => {
                write!(
                    f,
                    "request shed (backend circuit breaker open); retry after {:?}",
                    self.retry_after
                )
            }
            RejectReason::Draining => {
                write!(
                    f,
                    "request shed (cluster draining toward shutdown); fail over to another replica"
                )
            }
            RejectReason::OverMemory => {
                if self.retry_after.is_zero() {
                    write!(
                        f,
                        "request shed (arena bytes exceed the per-session quota); lower the byte budget or the playouts"
                    )
                } else {
                    write!(
                        f,
                        "request shed (model arena byte budget exhausted); retry after {:?}",
                        self.retry_after
                    )
                }
            }
        }
    }
}

impl std::error::Error for Rejection {}

/// Token-bucket + pending-count state of one model.
struct ModelState {
    key: usize,
    tokens: f64,
    last_refill: Instant,
    pending: usize,
    /// Arena bytes reserved by admitted-but-unfinished sessions (gauge:
    /// reserved on admit, returned on release — unlike the token
    /// bucket, which meters a rate, this meters co-resident footprint).
    bytes: u64,
}

/// Admission gate shared by a cluster's dispatch path (see module docs).
/// Thread-safe; one lock around a small per-model table.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    models: Mutex<Vec<ModelState>>,
    /// Salt sequence for `retry_after` jitter: hints handed to a burst
    /// of simultaneously shed clients are spread over a bounded band so
    /// they don't all come back in the same instant.
    jitter_seq: AtomicU64,
}

impl AdmissionController {
    /// # Panics
    /// If `playouts_per_sec` is not positive and finite.
    pub fn new(cfg: AdmissionConfig) -> Self {
        assert!(
            cfg.playouts_per_sec.is_finite() && cfg.playouts_per_sec > 0.0,
            "admission rate must be positive and finite"
        );
        AdmissionController {
            cfg,
            models: Mutex::new(Vec::new()),
            jitter_seq: AtomicU64::new(0),
        }
    }

    /// The limits this controller enforces.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Try to admit a session costing `cost` playouts on model `key`.
    /// `Ok(())` consumes `cost` tokens and one pending slot; the caller
    /// must [`release`](AdmissionController::release) the slot when the
    /// session finishes. `Err` sheds the request without queueing it.
    ///
    /// The caller owns the `key` space; an entry stays for as long as
    /// the controller does. (A [`crate::ServeCluster`] keys models by
    /// their backend-record id, which is never reused, and drops a
    /// model's entry when its record is evicted.)
    pub fn try_admit(&self, key: usize, cost: u64) -> Result<(), Rejection> {
        self.try_admit_costed(key, cost, 0)
    }

    /// [`try_admit`](AdmissionController::try_admit) that also reserves
    /// `bytes` of worst-case arena footprint against the byte gates. A
    /// successful admission must be undone with
    /// [`release_bytes`](AdmissionController::release_bytes) passing the
    /// same `bytes`.
    pub fn try_admit_costed(&self, key: usize, cost: u64, bytes: u64) -> Result<(), Rejection> {
        let cost_f = cost.max(1) as f64;
        if cost.max(1) > self.cfg.burst_playouts {
            // A full bucket could never cover this: reject terminally
            // rather than promising a retry that can never succeed.
            return Err(Rejection {
                reason: RejectReason::TooLarge,
                retry_after: Duration::ZERO,
            });
        }
        if self.cfg.session_byte_quota.is_some_and(|q| bytes > q) {
            // Same terminal shape as TooLarge, denominated in bytes: no
            // amount of waiting shrinks this session's arena ask.
            return Err(Rejection {
                reason: RejectReason::OverMemory,
                retry_after: Duration::ZERO,
            });
        }
        let mut models = self.models.lock();
        let m = match models.iter_mut().position(|m| m.key == key) {
            Some(i) => &mut models[i],
            None => {
                models.push(ModelState {
                    key,
                    tokens: self.cfg.burst_playouts as f64,
                    last_refill: Instant::now(),
                    pending: 0,
                    bytes: 0,
                });
                models.last_mut().unwrap()
            }
        };
        // Refill since the last decision, capped at the burst size.
        let now = Instant::now();
        let elapsed = now.duration_since(m.last_refill).as_secs_f64();
        m.last_refill = now;
        m.tokens =
            (m.tokens + elapsed * self.cfg.playouts_per_sec).min(self.cfg.burst_playouts as f64);
        if m.pending >= self.cfg.max_pending {
            // Hint: roughly the time one mean-sized session takes to
            // drain at the sustained rate.
            return Err(Rejection {
                reason: RejectReason::QueueFull,
                retry_after: self.retry_hint(cost_f / self.cfg.playouts_per_sec),
            });
        }
        if let Some(budget) = self.cfg.model_byte_budget {
            if m.bytes.saturating_add(bytes) > budget {
                // Transient: unlike the per-session quota, the gauge
                // drains as admitted sessions finish. Hint with the
                // time one mean session takes at the sustained rate —
                // the same drain heuristic as QueueFull.
                return Err(Rejection {
                    reason: RejectReason::OverMemory,
                    retry_after: self.retry_hint(cost_f / self.cfg.playouts_per_sec),
                });
            }
        }
        if m.tokens < cost_f {
            return Err(Rejection {
                reason: RejectReason::RateLimited,
                retry_after: self.retry_hint((cost_f - m.tokens) / self.cfg.playouts_per_sec),
            });
        }
        m.tokens -= cost_f;
        m.pending += 1;
        m.bytes += bytes;
        Ok(())
    }

    /// Return the pending slot taken by an admitted session that has now
    /// finished (completed or cancelled). Consumed tokens are *not*
    /// refunded — the bucket meters admitted work, not completed work.
    pub fn release(&self, key: usize) {
        self.release_bytes(key, 0)
    }

    /// [`release`](AdmissionController::release) that also returns
    /// `bytes` to the model's byte gauge. Must be passed the same byte
    /// reservation the admission made — the gauge is a strict
    /// reserve/return pair, so every
    /// [`try_admit_costed`](AdmissionController::try_admit_costed)
    /// admission balances to zero when its session finishes (completed,
    /// failed, cancelled, or disconnected).
    pub fn release_bytes(&self, key: usize, bytes: u64) {
        let mut models = self.models.lock();
        if let Some(m) = models.iter_mut().find(|m| m.key == key) {
            m.pending = m.pending.saturating_sub(1);
            m.bytes = m.bytes.saturating_sub(bytes);
        }
    }

    /// Drop model `key`'s entry. For keys that will never be admitted
    /// again: the backend registry calls this when it evicts a record,
    /// which it does only once no session of that model is left.
    pub(crate) fn forget(&self, key: usize) {
        self.models.lock().retain(|m| m.key != key);
    }

    /// Models currently tracked: every key admitted so far, less those a
    /// cluster dropped along with their evicted backend records.
    pub fn tracked_models(&self) -> usize {
        self.models.lock().len()
    }

    /// Sessions currently admitted-but-unfinished on model `key`.
    pub fn pending(&self, key: usize) -> usize {
        self.models
            .lock()
            .iter()
            .find(|m| m.key == key)
            .map_or(0, |m| m.pending)
    }

    /// Sessions admitted-but-unfinished across *all* models. Zero once a
    /// drained cluster's accounting has fully unwound (every admitted
    /// session released its slot).
    pub fn total_pending(&self) -> usize {
        self.models.lock().iter().map(|m| m.pending).sum()
    }

    /// Arena bytes currently reserved by admitted-but-unfinished
    /// sessions on model `key`.
    pub fn admitted_bytes(&self, key: usize) -> u64 {
        self.models
            .lock()
            .iter()
            .find(|m| m.key == key)
            .map_or(0, |m| m.bytes)
    }

    /// Arena bytes reserved across *all* models. Like
    /// [`total_pending`](AdmissionController::total_pending), returns to
    /// zero once every admitted session has released its reservation.
    pub fn total_admitted_bytes(&self) -> u64 {
        self.models.lock().iter().map(|m| m.bytes).sum()
    }

    /// Turn an estimated wait into an actionable, decorrelated hint:
    /// clamped to [1 ms, 60 s] (never "retry immediately" while
    /// shedding), then jittered upward by as much as 50% so a burst of
    /// clients shed together does not return as a thundering herd.
    fn retry_hint(&self, secs: f64) -> Duration {
        let base = Duration::from_secs_f64(secs.clamp(1e-3, 60.0));
        let salt = self.jitter_seq.fetch_add(1, Ordering::Relaxed);
        jittered(base, salt, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(rate: f64, burst: u64, pending: usize) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            playouts_per_sec: rate,
            burst_playouts: burst,
            max_pending: pending,
            ..Default::default()
        })
    }

    #[test]
    fn burst_is_admitted_then_rate_limited() {
        let adm = ctl(10.0, 100, 100);
        assert!(adm.try_admit(1, 60).is_ok());
        assert!(adm.try_admit(1, 40).is_ok());
        let shed = adm.try_admit(1, 40).unwrap_err();
        assert_eq!(shed.reason, RejectReason::RateLimited);
        // ~40 tokens short at 10/s: the hint is on the order of seconds.
        assert!(shed.retry_after >= Duration::from_secs(1));
        assert!(shed.retry_after <= Duration::from_secs(60));
    }

    #[test]
    fn pending_bound_sheds_and_release_reopens() {
        let adm = ctl(1e9, 1_000_000_000, 2);
        assert!(adm.try_admit(3, 10).is_ok());
        assert!(adm.try_admit(3, 10).is_ok());
        let shed = adm.try_admit(3, 10).unwrap_err();
        assert_eq!(shed.reason, RejectReason::QueueFull);
        assert_eq!(adm.pending(3), 2);
        adm.release(3);
        assert!(adm.try_admit(3, 10).is_ok(), "slot freed by release");
    }

    #[test]
    fn retry_hints_are_jittered_within_a_bounded_band() {
        let adm = ctl(10.0, 100, 100);
        assert!(adm.try_admit(1, 100).is_ok());
        let mut hints = Vec::new();
        for _ in 0..8 {
            let shed = adm.try_admit(1, 100).unwrap_err();
            assert_eq!(shed.reason, RejectReason::RateLimited);
            hints.push(shed.retry_after);
        }
        // Deficit ≈ 100 tokens at 10/s ⇒ un-jittered hint ≈ 10 s; the
        // jitter spreads hints over [hint, 1.5·hint) so clients shed in
        // the same burst don't come back in the same instant.
        for h in &hints {
            assert!(*h >= Duration::from_secs(9), "hint near the deficit: {h:?}");
            assert!(*h <= Duration::from_secs(16), "bounded above: {h:?}");
        }
        let mut uniq = hints.clone();
        uniq.sort();
        uniq.dedup();
        assert!(uniq.len() >= 4, "hints spread, not identical: {hints:?}");
    }

    #[test]
    fn models_are_isolated() {
        let adm = ctl(10.0, 50, 8);
        assert!(adm.try_admit(1, 50).is_ok());
        assert!(adm.try_admit(1, 1).is_err(), "model 1 drained");
        assert!(adm.try_admit(2, 50).is_ok(), "model 2 has its own bucket");
    }

    #[test]
    fn tokens_refill_over_time() {
        let adm = ctl(100_000.0, 1000, 8);
        assert!(adm.try_admit(1, 1000).is_ok());
        assert!(adm.try_admit(1, 500).is_err());
        std::thread::sleep(Duration::from_millis(20));
        assert!(adm.try_admit(1, 500).is_ok(), "refilled at 100k/s");
    }

    #[test]
    fn oversized_cost_is_terminally_rejected() {
        let adm = ctl(1000.0, 500, 8);
        let rej = adm.try_admit(1, 501).unwrap_err();
        assert_eq!(rej.reason, RejectReason::TooLarge);
        assert_eq!(
            rej.retry_after,
            Duration::ZERO,
            "no wait makes an over-burst request admissible"
        );
        // The failed attempt consumed nothing: a full-burst request
        // still fits.
        assert!(adm.try_admit(1, 500).is_ok());
    }

    #[test]
    fn session_byte_quota_is_terminal() {
        let adm = AdmissionController::new(AdmissionConfig {
            playouts_per_sec: 1e6,
            burst_playouts: 1_000_000,
            max_pending: 8,
            session_byte_quota: Some(1000),
            model_byte_budget: None,
        });
        let rej = adm.try_admit_costed(1, 10, 1001).unwrap_err();
        assert_eq!(rej.reason, RejectReason::OverMemory);
        assert_eq!(rej.retry_after, Duration::ZERO, "terminal: no wait helps");
        // The failed attempt reserved nothing.
        assert_eq!(adm.total_admitted_bytes(), 0);
        assert!(adm.try_admit_costed(1, 10, 1000).is_ok(), "at the quota");
        assert_eq!(adm.admitted_bytes(1), 1000);
    }

    #[test]
    fn model_byte_budget_sheds_transiently_and_release_returns_bytes() {
        let adm = AdmissionController::new(AdmissionConfig {
            playouts_per_sec: 1e6,
            burst_playouts: 1_000_000,
            max_pending: 8,
            session_byte_quota: None,
            model_byte_budget: Some(1000),
        });
        assert!(adm.try_admit_costed(1, 10, 600).is_ok());
        let rej = adm.try_admit_costed(1, 10, 600).unwrap_err();
        assert_eq!(rej.reason, RejectReason::OverMemory);
        assert!(
            rej.retry_after > Duration::ZERO,
            "transient: finishing sessions free bytes"
        );
        // The gauge is per model: another model has its own budget.
        assert!(adm.try_admit_costed(2, 10, 600).is_ok());
        assert_eq!(adm.total_admitted_bytes(), 1200);
        // Releasing returns the reservation and reopens the gauge.
        adm.release_bytes(1, 600);
        assert_eq!(adm.admitted_bytes(1), 0);
        assert!(adm.try_admit_costed(1, 10, 600).is_ok());
    }

    #[test]
    fn byteless_admissions_ignore_the_byte_gates() {
        let adm = AdmissionController::new(AdmissionConfig {
            playouts_per_sec: 1e6,
            burst_playouts: 1_000_000,
            max_pending: 8,
            session_byte_quota: Some(1),
            model_byte_budget: Some(1),
        });
        // Zero-byte admissions (the legacy entry points) always fit.
        assert!(adm.try_admit(1, 10).is_ok());
        assert_eq!(adm.total_admitted_bytes(), 0);
    }
}
