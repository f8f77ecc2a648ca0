//! Sharded multi-service dispatch: one front door over N
//! [`SearchService`] shards.
//!
//! A single [`SearchService`] scales to one worker pool's worth of
//! traffic; past that the shared scheduler lock and one coalescing
//! layer per model become the ceiling. [`ServeCluster`] owns several
//! independent services ("shards" — one per backend/model or CPU slice)
//! and routes each incoming request through three stages:
//!
//! 1. **Admission** ([`crate::AdmissionController`], optional): a
//!    per-model token bucket on admitted playouts, a bounded
//!    pending-session count, and byte quotas on the arena memory each
//!    session would reserve (per session and per model — see
//!    [`crate::AdmissionConfig::session_byte_quota`]). Overflow is
//!    *shed* — the caller gets
//!    `Err(`[`Rejection`]`)` with a `retry_after` hint, and nothing is
//!    queued — so overload degrades into fast explicit rejections
//!    instead of unbounded queue growth.
//! 2. **Placement** ([`PlacementPolicy`]): pick a shard by outstanding
//!    playout load, with *backend affinity* — sessions carrying a model
//!    already resident on some shard prefer that shard, because its
//!    [`mcts::CoalescingEvaluator`] for the model already lives there
//!    and cross-session batches only fill within one shard. Affinity
//!    spills to least-loaded when the home shard is overloaded.
//! 3. **Execution**: the shard's weighted-fair scheduler steps the
//!    session; the returned [`ClusterTicket`] exposes the full ticket
//!    surface (`wait`, `partial`, [`crate::SearchTicket::subscribe`]
//!    streaming, cancellation) plus the placed shard index.
//!
//! ```
//! use games::tictactoe::TicTacToe;
//! use mcts::{Budget, UniformEvaluator};
//! use serve::{ClusterConfig, SearchRequest, ServeCluster, ServeConfig};
//! use std::sync::Arc;
//!
//! let cluster = ServeCluster::new(ClusterConfig {
//!     shards: 2,
//!     shard: ServeConfig { workers: 2, ..Default::default() },
//!     admission: None, // accept everything: no shedding
//! });
//! let eval = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
//! let ticket = cluster
//!     .submit(SearchRequest::new(TicTacToe::new(), eval).budget(Budget::playouts(64)))
//!     .expect("no admission control configured");
//! assert!(ticket.shard() < 2);
//! assert_eq!(ticket.wait().stats.playouts, 64);
//! ```

use crate::admission::{AdmissionConfig, AdmissionController, RejectReason, Rejection};
use crate::backend::BackendRegistry;
use crate::health::BreakerState;
use crate::service::{SearchService, ServeConfig, ServiceStats};
use crate::session::{SearchTicket, SessionShared};
use crate::{jittered, run_config, session_cost, SearchRequest};
use games::Game;
use mcts::{AutotuneReport, BatchEvaluator, CacheStats};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Cluster sizing: how many shards, how each is provisioned, and the
/// admission limits applied per model.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Independent [`SearchService`] shards (each spawns its own
    /// [`ServeConfig::workers`] threads).
    pub shards: usize,
    /// Per-shard service configuration.
    pub shard: ServeConfig,
    /// Per-model admission limits; `None` admits everything (no
    /// shedding — the single-service behavior).
    pub admission: Option<AdmissionConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            shard: ServeConfig::default(),
            admission: Some(AdmissionConfig::default()),
        }
    }
}

/// Chooses the shard a newly admitted session runs on.
///
/// `loads[i]` is shard *i*'s outstanding playout budget
/// ([`SearchService::outstanding_playouts`]), `affinity` is the shard
/// where the request's backend last landed (its coalescing layer lives
/// there), and `cost` is the session's admitted playout budget. The
/// returned index is clamped to the shard count.
pub trait PlacementPolicy: Send + Sync {
    fn place(&self, loads: &[u64], affinity: Option<usize>, cost: u64) -> usize;
}

/// Route to the shard with the least outstanding playout budget,
/// ignoring backend affinity (useful when every request carries its own
/// model and batches can never be shared).
pub struct LeastLoaded;

impl PlacementPolicy for LeastLoaded {
    fn place(&self, loads: &[u64], _affinity: Option<usize>, _cost: u64) -> usize {
        loads
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// The default policy: stay on the backend's home shard (where its
/// coalescing layer and warmed state already live) until the home runs
/// more than `spill` sessions' worth of load **ahead of the least
/// loaded shard**; beyond that, fall back to least-loaded so one hot
/// model cannot drown its shard while others idle.
///
/// The comparison is against the emptiest alternative, not the cluster
/// mean: with one dominant model the home shard *is* most of the mean,
/// and a mean-relative rule would abandon affinity on the second
/// concurrent session — exactly the case batching affinity exists for.
pub struct AffinityLeastLoaded {
    /// Headroom, in multiples of the incoming session's cost, that the
    /// home shard may hold over the least-loaded shard before affinity
    /// gives way. 2.0 by default; larger = stickier (better batch
    /// fill, lumpier load).
    pub spill: f64,
}

impl Default for AffinityLeastLoaded {
    fn default() -> Self {
        AffinityLeastLoaded { spill: 2.0 }
    }
}

impl PlacementPolicy for AffinityLeastLoaded {
    fn place(&self, loads: &[u64], affinity: Option<usize>, cost: u64) -> usize {
        if let Some(home) = affinity.filter(|&h| h < loads.len()) {
            let min_load = loads.iter().copied().min().unwrap_or(0);
            let headroom = self.spill.max(0.0) * cost.max(1) as f64;
            if loads[home] as f64 <= min_load as f64 + headroom {
                return home;
            }
        }
        LeastLoaded.place(loads, None, cost)
    }
}

/// Cluster-level accounting: admission outcomes plus every shard's
/// [`ServiceStats`].
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Requests admitted and placed.
    pub admitted: u64,
    /// Requests shed by the token bucket
    /// ([`crate::RejectReason::RateLimited`]).
    pub shed_rate_limited: u64,
    /// Requests shed by the pending bound
    /// ([`crate::RejectReason::QueueFull`]).
    pub shed_queue_full: u64,
    /// Requests whose cost exceeds the admission burst
    /// ([`crate::RejectReason::TooLarge`] — never admissible as-is).
    pub shed_too_large: u64,
    /// Requests shed because their backend's circuit breaker is open
    /// ([`crate::RejectReason::Unhealthy`]): the model kept failing and
    /// is cooling down, so new sessions are bounced at the front door
    /// with an honest `retry_after` instead of burning worker time on
    /// evaluations that would fail fast anyway.
    pub shed_unhealthy: u64,
    /// Requests shed because the cluster is draining toward shutdown
    /// ([`crate::RejectReason::Draining`]): [`ServeCluster::drain`] was
    /// called, so the front door bounces everything while in-flight
    /// sessions run out.
    pub shed_draining: u64,
    /// Requests shed by a byte quota
    /// ([`crate::RejectReason::OverMemory`]): either the session's
    /// arena would exceed [`crate::AdmissionConfig::session_byte_quota`]
    /// (terminal — zero `retry_after`) or the model's aggregate
    /// [`crate::AdmissionConfig::model_byte_budget`] gauge is full
    /// (transient — bytes return as sessions finalize).
    pub shed_over_memory: u64,
    /// Arena bytes currently reserved by admitted-but-unfinalized
    /// sessions, summed over all models. Balances back to zero once a
    /// drain fully unwinds; with admission disabled this is always 0.
    pub admitted_bytes: u64,
    /// Cluster-wide evaluation-cache counters. A model's cache is
    /// shared across every shard (a position evaluated on one shard is
    /// a hit on all of them), so its counters live here rather than in
    /// any single shard's [`ServiceStats`]. All zeros when
    /// [`ServeConfig::eval_cache_bytes`] is unset.
    pub cache: CacheStats,
    /// Per-shard service counters, indexed by shard.
    pub per_shard: Vec<ServiceStats>,
    /// One report per live (shard, backend) tuner: the measured
    /// forward-time-vs-batch-size curve and the operating point
    /// currently steering that backend's batching. `shard` is filled
    /// in.
    pub autotune: Vec<AutotuneReport>,
}

impl ClusterStats {
    /// Total requests shed (all reasons).
    pub fn shed(&self) -> u64 {
        self.shed_rate_limited
            + self.shed_queue_full
            + self.shed_too_large
            + self.shed_unhealthy
            + self.shed_draining
            + self.shed_over_memory
    }

    /// All shards' counters folded together, including the shared
    /// cache's (shard entries report zero cache counters — the caches
    /// span shards, so they are folded in exactly once here).
    pub fn total(&self) -> ServiceStats {
        let mut out = ServiceStats::default();
        for s in &self.per_shard {
            out.merge(s);
        }
        out.cache_hits += self.cache.hits;
        out.cache_misses += self.cache.misses;
        out.cache_evictions += self.cache.evictions;
        out.cache_bytes += self.cache.bytes;
        out
    }

    /// Machine-readable metrics dump (JSON): admission outcomes, the
    /// folded service totals, and every backend's measured
    /// forward-time curve with its current operating point. Scrapers
    /// get the whole batching feedback loop from one call; keys are
    /// stable across releases (additions only).
    pub fn metrics_json(&self) -> String {
        use std::fmt::Write;
        let total = self.total();
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"admitted\":{},\"shed\":{{\"rate_limited\":{},\"queue_full\":{},\"too_large\":{},\"unhealthy\":{},\"draining\":{},\"over_memory\":{}}}",
            self.admitted,
            self.shed_rate_limited,
            self.shed_queue_full,
            self.shed_too_large,
            self.shed_unhealthy,
            self.shed_draining,
            self.shed_over_memory
        );
        let _ = write!(s, ",\"admitted_bytes\":{}", self.admitted_bytes);
        let _ = write!(
            s,
            ",\"sessions\":{{\"completed\":{},\"cancelled\":{},\"failed\":{}}},\"playouts\":{}",
            total.sessions_completed,
            total.sessions_cancelled,
            total.sessions_failed,
            total.playouts
        );
        let _ = write!(
            s,
            ",\"eval\":{{\"batches\":{},\"samples\":{},\"mean_batch\":{:.3}}}",
            total.eval_batches,
            total.eval_samples,
            total.mean_eval_batch()
        );
        let _ = write!(
            s,
            ",\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"bytes\":{}}}",
            self.cache.hits, self.cache.misses, self.cache.evictions, self.cache.bytes
        );
        s.push_str(",\"autotune\":[");
        for (i, r) in self.autotune.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"shard\":{},\"calibrated\":{},\"batch\":{},\"window_us\":{},\"positions_per_sec\":{:.1},\"curve\":[",
                r.shard, r.calibrated, r.batch, r.window_us, r.positions_per_sec
            );
            for (j, (size, ns)) in r.curve.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{{\"batch\":{size},\"forward_ns\":{ns}}}");
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

/// Handle to a session placed by [`ServeCluster::submit`]: the shard's
/// [`SearchTicket`] (all of `wait`/`partial`/`subscribe`/`cancel` via
/// `Deref`) plus where it was placed.
#[derive(Debug, Clone)]
pub struct ClusterTicket {
    ticket: SearchTicket,
    shard: usize,
}

impl ClusterTicket {
    /// The shard index this session was placed on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The underlying session ticket, by value (e.g. to store in a
    /// shard-agnostic collection).
    pub fn into_ticket(self) -> SearchTicket {
        self.ticket
    }
}

impl std::ops::Deref for ClusterTicket {
    type Target = SearchTicket;

    fn deref(&self) -> &SearchTicket {
        &self.ticket
    }
}

/// The sharded dispatch front door (see module docs). Dropping the
/// cluster drops every shard: outstanding sessions resolve as cancelled.
pub struct ServeCluster {
    shards: Vec<SearchService>,
    placement: Box<dyn PlacementPolicy>,
    admission: Option<Arc<AdmissionController>>,
    /// Mirror of [`ServeConfig::session_arena_bytes`]: the shard will
    /// clamp each session's arena to this, so admission byte costing
    /// must price the clamped footprint, not the requested one.
    session_arena_bytes: Option<usize>,
    /// The per-model records, shared by every shard: a model's cache
    /// and circuit breaker are cluster-wide (a position evaluated
    /// anywhere is a hit everywhere; admission sheds for an unhealthy
    /// model no matter which shard tripped it), and its record
    /// remembers its home shard.
    backends: Arc<BackendRegistry>,
    /// Weak handles to every admitted session, pruned of finished ones
    /// on submit and during [`ServeCluster::drain`]'s in-flight probe.
    live: Mutex<Vec<Weak<SessionShared>>>,
    /// Set (irreversibly) by [`ServeCluster::drain`]: the front door
    /// sheds everything with [`RejectReason::Draining`].
    draining: AtomicBool,
    admitted: AtomicU64,
    shed_rate_limited: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_too_large: AtomicU64,
    shed_unhealthy: AtomicU64,
    shed_draining: AtomicU64,
    shed_over_memory: AtomicU64,
    /// Salt sequence decorrelating `retry_after` jitter across
    /// back-to-back unhealthy rejections.
    jitter_seq: AtomicU64,
}

impl ServeCluster {
    /// Spin up `cfg.shards` services with the default
    /// [`AffinityLeastLoaded`] placement.
    pub fn new(cfg: ClusterConfig) -> Self {
        Self::with_placement(cfg, Box::new(AffinityLeastLoaded::default()))
    }

    /// Spin up the cluster with a custom [`PlacementPolicy`].
    pub fn with_placement(cfg: ClusterConfig, placement: Box<dyn PlacementPolicy>) -> Self {
        assert!(cfg.shards >= 1, "cluster needs at least one shard");
        let admission = cfg.admission.map(|a| Arc::new(AdmissionController::new(a)));
        let backends = Arc::new(BackendRegistry::new(
            cfg.shard.clone(),
            cfg.shards,
            admission.clone(),
        ));
        ServeCluster {
            shards: (0..cfg.shards)
                .map(|i| SearchService::on_shard(cfg.shard.clone(), Arc::clone(&backends), i))
                .collect(),
            placement,
            admission,
            session_arena_bytes: cfg.shard.session_arena_bytes,
            backends,
            live: Mutex::new(Vec::new()),
            draining: AtomicBool::new(false),
            admitted: AtomicU64::new(0),
            shed_rate_limited: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_too_large: AtomicU64::new(0),
            shed_unhealthy: AtomicU64::new(0),
            shed_draining: AtomicU64::new(0),
            shed_over_memory: AtomicU64::new(0),
            jitter_seq: AtomicU64::new(0),
        }
    }

    /// Admit, place and start one request.
    ///
    /// `Ok` means the session is queued on a shard and will run to its
    /// budget (or cancellation) — the cluster never silently drops an
    /// admitted session. `Err` means the request was shed *now*, with a
    /// [`Rejection::retry_after`] back-off hint; nothing was queued and
    /// no state lingers.
    pub fn submit<G: Game>(&self, req: SearchRequest<G>) -> Result<ClusterTicket, Rejection> {
        // Drain gate before anything else: a draining cluster admits
        // nothing, spends no tokens, and tells the client not to wait.
        if self.draining.load(Ordering::Acquire) {
            self.shed_draining.fetch_add(1, Ordering::Relaxed);
            return Err(Rejection {
                reason: RejectReason::Draining,
                retry_after: Duration::ZERO,
            });
        }
        let backend = self.backends.lookup(&req.evaluator);
        let run_cfg = run_config(&req.budget, &req.config, self.session_arena_bytes);
        let cost = session_cost(&run_cfg);
        // The session's worst-case arena footprint: the capacity its
        // resolved config would provision, in bytes. This is what the
        // byte quotas meter — reserved at admission, returned when the
        // session finalizes (the arena itself is freed or recycled then).
        let bytes = run_cfg
            .arena_capacity(req.root.action_space())
            .saturating_mul(mcts::NodeArena::slot_bytes()) as u64;
        // Health gate first: a backend cooling down behind an open
        // breaker is shed before it spends admission tokens. The check
        // admits once the breaker is probe-eligible, so the session
        // that carries the recovery probe still gets through.
        if let Err(remaining) = backend.breaker().check() {
            self.shed_unhealthy.fetch_add(1, Ordering::Relaxed);
            let salt = self.jitter_seq.fetch_add(1, Ordering::Relaxed);
            return Err(Rejection {
                reason: RejectReason::Unhealthy,
                retry_after: jittered(remaining.max(Duration::from_millis(1)), salt, 0.5),
            });
        }
        if let Some(adm) = &self.admission {
            if let Err(rej) = adm.try_admit_costed(backend.id(), cost, bytes) {
                let counter = match rej.reason {
                    RejectReason::RateLimited => &self.shed_rate_limited,
                    RejectReason::QueueFull => &self.shed_queue_full,
                    RejectReason::TooLarge => &self.shed_too_large,
                    RejectReason::Unhealthy => &self.shed_unhealthy,
                    RejectReason::Draining => &self.shed_draining,
                    RejectReason::OverMemory => &self.shed_over_memory,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                return Err(rej);
            }
        }
        let loads: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.outstanding_playouts())
            .collect();
        let shard = self.placement.place(&loads, backend.home(), cost).min(
            self.shards.len() - 1, // policy bug must not become an OOB panic
        );
        backend.set_home(shard);
        let key = backend.id();
        let ticket = self.shards[shard].submit_on(backend, req);
        if let Some(adm) = &self.admission {
            let adm = Arc::clone(adm);
            ticket
                .shared
                .set_on_final(Box::new(move |_status| adm.release_bytes(key, bytes)));
        }
        {
            let mut live = self.live.lock();
            live.retain(|w| w.upgrade().is_some_and(|s| !s.is_finished()));
            live.push(Arc::downgrade(&ticket.shared));
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(ClusterTicket { ticket, shard })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Each shard's outstanding playout load (what placement steers by).
    pub fn shard_loads(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.outstanding_playouts())
            .collect()
    }

    /// Direct access to one shard's service (diagnostics; submitting
    /// through it bypasses admission and placement).
    pub fn shard(&self, i: usize) -> &SearchService {
        &self.shards[i]
    }

    /// Admission outcomes plus per-shard service counters and the
    /// shared evaluation cache's totals.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_rate_limited: self.shed_rate_limited.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_too_large: self.shed_too_large.load(Ordering::Relaxed),
            shed_unhealthy: self.shed_unhealthy.load(Ordering::Relaxed),
            shed_draining: self.shed_draining.load(Ordering::Relaxed),
            shed_over_memory: self.shed_over_memory.load(Ordering::Relaxed),
            admitted_bytes: self
                .admission
                .as_ref()
                .map_or(0, |a| a.total_admitted_bytes()),
            cache: self.backends.cache_stats().unwrap_or_default(),
            per_shard: self.shards.iter().map(|s| s.shard_stats()).collect(),
            autotune: self
                .shards
                .iter()
                .enumerate()
                .flat_map(|(i, s)| {
                    s.autotune_reports().into_iter().map(move |mut r| {
                        r.shard = i;
                        r
                    })
                })
                .collect(),
        }
    }

    /// Circuit-breaker state of `backend` across the whole cluster
    /// (every shard evaluates it through one breaker). `Closed` for a
    /// backend the cluster holds no record of.
    pub fn backend_health(&self, backend: &Arc<dyn BatchEvaluator>) -> BreakerState {
        self.backends.health(backend)
    }

    /// Invalidate every cached evaluation on every shard at once (an
    /// epoch bump per backend, no scan). For in-place model-weight
    /// swaps behind a backend `Arc` that keeps its identity.
    pub fn invalidate_eval_cache(&self) {
        self.backends.invalidate_caches();
    }

    /// Models the cluster currently keeps a backend record for (breaker,
    /// cache, coalescing layers): those with a session in flight or an
    /// evaluator `Arc` still held by a caller, plus any let go of since
    /// the last submit — a submit evicts those first.
    pub fn tracked_backends(&self) -> usize {
        self.backends.len()
    }

    /// Models with an admission bucket
    /// ([`AdmissionController::tracked_models`]); a model's bucket goes
    /// when its backend record is evicted. Zero with admission disabled.
    pub fn tracked_models(&self) -> usize {
        self.admission.as_ref().map_or(0, |a| a.tracked_models())
    }

    /// True once [`ServeCluster::drain`] (or
    /// [`ServeCluster::shutdown`]) has been called: submits shed with
    /// [`RejectReason::Draining`].
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Sessions admitted-but-unfinished per the admission controller's
    /// accounting, summed over all models. Zero with admission disabled,
    /// and zero again once a drain has fully unwound. This is the
    /// invariant [`ServeCluster::drain`] asserts on exit.
    pub fn pending_sessions(&self) -> usize {
        self.admission.as_ref().map_or(0, |a| a.total_pending())
    }

    /// Sessions admitted and not yet finalized (direct probe of live
    /// session state, independent of admission accounting).
    pub fn in_flight(&self) -> usize {
        let mut live = self.live.lock();
        live.retain(|w| w.upgrade().is_some_and(|s| !s.is_finished()));
        live.len()
    }

    /// Graceful drain toward shutdown.
    ///
    /// Irreversibly stops admitting (subsequent submits shed with
    /// [`RejectReason::Draining`] and zero `retry_after` — clients
    /// should fail over, not wait), then lets in-flight sessions run to
    /// their budgets for up to `timeout`. Sessions still running at the
    /// deadline get [`crate::SearchTicket::cancel`]-equivalent
    /// cancellation (honored at their next scheduling slice; each
    /// resolves with status [`crate::TicketStatus::Cancelled`] and its
    /// partial result intact) and a short bounded grace period to land.
    ///
    /// Returns a [`DrainReport`]; `drained` is true iff every session
    /// finalized **and** admission accounting returned to zero — i.e.
    /// every admitted session released its pending slot, the no-leak
    /// invariant the network listener relies on.
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        self.draining.store(true, Ordering::Release);
        let settled = |cluster: &Self| cluster.in_flight() == 0 && cluster.pending_sessions() == 0;
        let deadline = Instant::now() + timeout;
        while !settled(self) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Deadline passed (or timeout was zero): cancel the stragglers.
        // `request_cancel` reaches queued sessions at dispatch and
        // running ones at their next slice boundary.
        let stragglers: Vec<Arc<SessionShared>> = self
            .live
            .lock()
            .iter()
            .filter_map(|w| w.upgrade())
            .filter(|s| !s.is_finished())
            .collect();
        let cancelled = stragglers.len();
        for s in &stragglers {
            s.request_cancel();
        }
        drop(stragglers);
        let grace = Instant::now() + Duration::from_secs(5);
        while !settled(self) && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(2));
        }
        DrainReport {
            drained: settled(self),
            cancelled,
            pending_after: self.pending_sessions(),
        }
    }

    /// [`ServeCluster::drain`] with a zero timeout: stop admitting and
    /// cancel everything in flight now (still waiting the bounded grace
    /// period for cancellations to land and accounting to unwind).
    pub fn shutdown(&self) -> DrainReport {
        self.drain(Duration::ZERO)
    }
}

/// What [`ServeCluster::drain`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Every in-flight session finalized and admission accounting
    /// returned to zero — the cluster is safe to drop with no session
    /// resolving as a surprise cancellation.
    pub drained: bool,
    /// Sessions still running at the deadline that were force-cancelled.
    pub cancelled: usize,
    /// Admission pending count at exit (0 when `drained`).
    pub pending_after: usize,
}
