//! The [`SearchService`]: a fixed worker pool multiplexing many
//! resumable search sessions (see the crate docs for the architecture,
//! and `serve::supervisor` for the fault-containment layer around the
//! workers).

use crate::evalcache::CacheRegistry;
use crate::health::{BreakerState, HealthConfig, HealthRegistry};
use crate::scheduler::{FairScheduler, SessionEntry};
use crate::session::{Engine, SearchTicket, SessionShared, TicketStatus, TypedSession};
use crate::supervisor;
use crate::{session_cost, Priority, SearchRequest};
use games::Game;
use mcts::{
    AutotuneReport, BatchEvaluator, BatchTuner, CacheStats, CachedEvaluator, CoalesceStats,
    CoalescingEvaluator, ReusableSearch, Scheme, SearchBuilder, SearchError, SearchResult,
};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service sizing, scheduling and fault-containment knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Stepper threads. Each steps one session at a time, so this is
    /// also the maximum cross-session batch an evaluator can see.
    pub workers: usize,
    /// Playouts per scheduling slice. Smaller slices interleave sessions
    /// more fairly (and honor priorities/cancellation sooner) at the
    /// cost of more queue churn.
    pub step_quota: usize,
    /// Warmed [`ReusableSearch`] instances kept for reuse across
    /// `Serial`-scheme sessions.
    pub max_pooled: usize,
    /// Collection window of the shared per-backend coalescing layer
    /// (how long the first evaluator of a round waits for peers from
    /// other sessions). See [`CoalescingEvaluator::with_window`]. With
    /// [`ServeConfig::coalesce_auto`] on, this is the *ceiling*: the
    /// tuner derives the actual window from measured forward times.
    pub coalesce_window: Duration,
    /// Measurement-driven batching: attach a [`BatchTuner`] to every
    /// shared coalescing layer, so target batch size and collection
    /// window come from the backend's measured forward-time curve
    /// instead of the static `preferred_batch`/`coalesce_window` pair.
    /// An unseeded tuner behaves exactly like the fixed configuration,
    /// so turning this on is safe before any traffic. Default `true`.
    pub coalesce_auto: bool,
    /// Seed each backend's tuner with a one-shot calibration pass at
    /// registration (times a zero-input forward at every power-of-two
    /// batch size, against the raw backend — never through breakers or
    /// caches). Adds a few forwards of latency to the backend's first
    /// submit. Defaults to the `SERVE_CALIBRATE` environment variable
    /// (`1`/`true` to enable); off otherwise. Only read when
    /// [`ServeConfig::coalesce_auto`] is set.
    pub calibrate_on_register: bool,
    /// Weighted-fair share of scheduling slices per [`Priority`] class,
    /// indexed `[Low, Normal, High]`. Over any busy window each class
    /// receives slices (≈ playouts) in proportion to its weight — higher
    /// classes are *favored*, never starving the rest (stride
    /// scheduling; see `serve::scheduler`). Zero weights count as 1.
    pub class_weights: [u64; Priority::COUNT],
    /// Byte budget of the shared per-backend evaluation cache
    /// ([`mcts::EvalCache`]): leaf evaluations are memoized by
    /// `(model, position hash)` across *all* sessions of this service,
    /// so repeated positions skip inference entirely. `None` (the
    /// default) disables caching — every search is then seed-for-seed
    /// identical to a cache-free build.
    pub eval_cache_bytes: Option<usize>,
    /// Entry time-to-live for the evaluation cache; `None` keeps
    /// entries until evicted by capacity or epoch bump. Only read when
    /// [`ServeConfig::eval_cache_bytes`] is set.
    pub eval_cache_ttl: Option<Duration>,
    /// Retries after a *transient* backend failure
    /// ([`mcts::EvalError::transient`]) before the session fails with
    /// [`SearchError::EvaluatorFailed`]. Each attempt (initial plus
    /// retries) counts against the backend's circuit breaker.
    pub retry_budget: u32,
    /// First retry backoff; attempt `n` sleeps `backoff_base · 2ⁿ`
    /// (capped at 250 ms), with deterministic jitter so concurrent
    /// sessions don't retry in lockstep.
    pub backoff_base: Duration,
    /// Consecutive backend failures that trip its circuit breaker
    /// open. While open, evaluations fail fast with
    /// [`SearchError::BackendUnavailable`] and cluster admission sheds
    /// new sessions for that backend.
    pub breaker_threshold: u32,
    /// How long an open breaker rests before letting one probe call
    /// through; the probe's outcome closes or re-opens it.
    pub breaker_cooldown: Duration,
    /// Extra wall-clock slack past a session's deadline before the
    /// watchdog presumes the run stuck, fails its ticket with
    /// [`SearchError::DeadlineExceeded`] (last partial attached) and
    /// replaces the wedged worker thread. `None` disables the watchdog
    /// (a hung evaluator then pins its worker forever). Only sessions
    /// with a deadline are watched.
    pub watchdog_grace: Option<Duration>,
    /// Ceiling on any one session's tree arena, in bytes. Requests
    /// arriving with a larger (or absent) per-session
    /// [`mcts::MctsConfig::arena_budget_bytes`] are clamped down to
    /// this, so a single unbounded analysis session cannot grow its
    /// arena without limit on a shared worker pool — past the ceiling
    /// the search recycles cold subtrees in place (see
    /// [`mcts::MctsConfig::max_nodes`]). `None` (the default) leaves session
    /// configs untouched.
    pub session_arena_bytes: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4)
            .max(2);
        ServeConfig {
            workers,
            step_quota: 64,
            max_pooled: 2 * workers,
            coalesce_window: mcts::coalesce::DEFAULT_COALESCE_WINDOW,
            coalesce_auto: true,
            calibrate_on_register: std::env::var("SERVE_CALIBRATE")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false),
            class_weights: [1, 4, 16],
            eval_cache_bytes: None,
            eval_cache_ttl: None,
            retry_budget: 2,
            backoff_base: Duration::from_millis(1),
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(250),
            watchdog_grace: Some(Duration::from_secs(2)),
            session_arena_bytes: None,
        }
    }
}

impl ServeConfig {
    pub(crate) fn health_config(&self) -> HealthConfig {
        HealthConfig {
            retry_budget: self.retry_budget,
            backoff_base: self.backoff_base,
            breaker_threshold: self.breaker_threshold,
            breaker_cooldown: self.breaker_cooldown,
        }
    }
}

/// Aggregate service accounting (monotone counters since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStats {
    /// Sessions that ran their budget to completion.
    pub sessions_completed: u64,
    /// Sessions finalized by cancellation (including shutdown).
    pub sessions_cancelled: u64,
    /// Sessions that ended in a failure: a panic inside scheme code, an
    /// exhausted evaluator retry budget, an open circuit breaker, or a
    /// watchdog reap. Their tickets resolve as
    /// [`TicketStatus::Failed`]; their arenas are quarantined, never
    /// recycled.
    pub sessions_failed: u64,
    /// Scheduling slices executed.
    pub steps: u64,
    /// Playouts across all finalized sessions.
    pub playouts: u64,
    /// Inference rounds run by the shared coalescing layers.
    pub eval_batches: u64,
    /// Samples served across those rounds.
    pub eval_samples: u64,
    /// Evaluation-cache hits: leaf evaluations answered from memory
    /// instead of the backend (0 when caching is disabled).
    pub cache_hits: u64,
    /// Evaluation-cache misses (forwarded to the backend).
    pub cache_misses: u64,
    /// Entries displaced to admit new ones under the byte budget.
    pub cache_evictions: u64,
    /// Bytes currently resident across the service's evaluation caches.
    pub cache_bytes: u64,
}

impl ServiceStats {
    /// Mean samples per inference round across all shared backends
    /// (1.0 = no cross-session coalescing happened; 0.0 = no rounds).
    pub fn mean_eval_batch(&self) -> f64 {
        if self.eval_batches == 0 {
            0.0
        } else {
            self.eval_samples as f64 / self.eval_batches as f64
        }
    }

    /// Fraction of keyed leaf evaluations answered by the cache
    /// (0.0 when caching is disabled or nothing was looked up).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fold another service's counters into this one (cluster totals).
    pub fn merge(&mut self, other: &ServiceStats) {
        self.sessions_completed += other.sessions_completed;
        self.sessions_cancelled += other.sessions_cancelled;
        self.sessions_failed += other.sessions_failed;
        self.steps += other.steps;
        self.playouts += other.playouts;
        self.eval_batches += other.eval_batches;
        self.eval_samples += other.eval_samples;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.cache_bytes += other.cache_bytes;
    }
}

/// One backend's shared batching state: coalescing layer + tuner.
pub(crate) struct CoalesceEntry {
    key: usize,
    layer: Arc<CoalescingEvaluator>,
    tuner: Option<Arc<BatchTuner>>,
}

#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) sessions_completed: AtomicU64,
    pub(crate) sessions_cancelled: AtomicU64,
    pub(crate) sessions_failed: AtomicU64,
    pub(crate) steps: AtomicU64,
    pub(crate) playouts: AtomicU64,
}

pub(crate) struct Inner {
    pub(crate) cfg: ServeConfig,
    pub(crate) queue: Mutex<FairScheduler>,
    pub(crate) work_cv: Condvar,
    pub(crate) shutdown: AtomicBool,
    pub(crate) next_seq: AtomicU64,
    next_id: AtomicU64,
    /// Admitted playout budget of sessions submitted and not yet
    /// finalized — the load signal cluster placement steers by.
    outstanding: AtomicU64,
    /// Warmed searchers awaiting the next `Serial` session.
    pool: Mutex<Vec<ReusableSearch>>,
    /// One shared coalescing layer per distinct evaluator backend,
    /// keyed by the **original** backend `Arc`'s address (captured
    /// before the resilience wrap, so every session of a backend lands
    /// in the same layer), plus that backend's batch tuner when
    /// [`ServeConfig::coalesce_auto`] is on. Entries no live session
    /// references are evicted on the next submit (their batch-fill
    /// counters fold into `retired_eval`).
    coalescers: Mutex<Vec<CoalesceEntry>>,
    /// Batch-fill counters of evicted coalescing layers, so
    /// [`SearchService::stats`] stays monotone across evictions.
    retired_eval: Mutex<CoalesceStats>,
    /// Per-backend evaluation caches (`None` ⇒ caching disabled). May
    /// be shared across shards by a [`crate::ServeCluster`].
    cache: Option<Arc<CacheRegistry>>,
    /// Whether this service owns `cache` and should report its counters
    /// in [`SearchService::stats`]. Cluster shards share one registry
    /// and report zeros here — the cluster reports the shared totals
    /// once, so folding shard stats never double counts.
    cache_owned: bool,
    /// Per-backend circuit breakers + retry policy. Cluster shards
    /// share one registry so a backend's failure history is
    /// cluster-wide, not per shard.
    pub(crate) health: Arc<HealthRegistry>,
    /// Live workers' supervision slots, keyed by worker id (the
    /// watchdog sweeps these).
    pub(crate) slots: Mutex<Vec<(u64, Arc<supervisor::WorkerSlot>)>>,
    /// Live workers' join handles. A wedged worker's handle is removed
    /// (detached) when the watchdog replaces it.
    handles: Mutex<Vec<(u64, JoinHandle<()>)>>,
    next_worker: AtomicU64,
    pub(crate) counters: Counters,
}

impl Inner {
    /// Funnel a session's evaluator through the service-wide coalescing
    /// layer for its backend (creating it on first sight), so sessions
    /// submitting the same evaluator share inference batches. `backend`
    /// is the identity key (the caller's original `Arc`); `wrapped` is
    /// what actually evaluates (the resilience wrapper around it).
    /// Backends that gain nothing (`preferred_batch() == 1`) or that
    /// already coalesce internally (accelerator queues) skip the layer.
    fn shared_evaluator(
        &self,
        backend: &Arc<dyn BatchEvaluator>,
        wrapped: Arc<dyn BatchEvaluator>,
    ) -> Arc<dyn BatchEvaluator> {
        if backend.preferred_batch() <= 1 || backend.coalesces_internally() {
            return wrapped;
        }
        let key = Arc::as_ptr(backend) as *const () as usize;
        let mut reg = self.coalescers.lock();
        if let Some(e) = reg.iter().find(|e| e.key == key) {
            return Arc::clone(&e.layer) as Arc<dyn BatchEvaluator>;
        }
        // Evict layers no live session holds (registry copy is the last
        // one): a long-lived service seeing per-request backends must
        // not pin every dead model's weights forever. Their counters
        // carry over so service stats stay monotone.
        reg.retain(|e| {
            if Arc::strong_count(&e.layer) > 1 {
                return true;
            }
            let s = e.layer.stats();
            let mut retired = self.retired_eval.lock();
            retired.batches += s.batches;
            retired.samples += s.samples;
            false
        });
        // The batch bound tracks the backend's capacity, not the worker
        // count: offered concurrency (many sessions parked on one
        // round) can exceed the stepper count, and capping at `workers`
        // used to pin realized batch fill regardless of load.
        let max_batch = backend.preferred_batch().max(1);
        let mut c = CoalescingEvaluator::with_window(wrapped, max_batch, self.cfg.coalesce_window);
        let tuner = self.cfg.coalesce_auto.then(|| {
            let t = Arc::new(BatchTuner::new(max_batch, self.cfg.coalesce_window));
            if self.cfg.calibrate_on_register {
                // Against the raw backend: calibration must not trip
                // breakers, warm caches, or count as coalesced traffic.
                t.calibrate(backend.as_ref());
            }
            t
        });
        if let Some(t) = &tuner {
            c = c.with_tuner(Arc::clone(t));
        }
        let c = Arc::new(c);
        reg.push(CoalesceEntry {
            key,
            layer: Arc::clone(&c),
            tuner,
        });
        c
    }

    /// Finalize one session that ended cleanly (`Done`/`Cancelled`):
    /// publish the final result, update counters, release its
    /// outstanding load, and return the warmed searcher to the pool.
    pub(crate) fn finalize(&self, entry: SessionEntry, result: SearchResult, status: TicketStatus) {
        self.queue.lock().retire(entry.priority);
        let counter = match status {
            TicketStatus::Cancelled => &self.counters.sessions_cancelled,
            _ => &self.counters.sessions_completed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.counters
            .playouts
            .fetch_add(result.stats.playouts, Ordering::Relaxed);
        self.outstanding.fetch_sub(entry.cost, Ordering::Relaxed);
        entry.shared.finalize(result, status);
        if let Some(mut searcher) = entry.session.reclaim() {
            searcher.reset();
            let mut pool = self.pool.lock();
            if pool.len() < self.cfg.max_pooled {
                pool.push(searcher);
            }
        }
    }

    /// Quarantine one failed session: fail its ticket with the typed
    /// error (last published partial attached), settle accounting, and
    /// dispose of the session **without** recycling its arena — a
    /// panicked run's tree may be arbitrarily corrupt.
    pub(crate) fn fail(&self, entry: SessionEntry, err: SearchError) {
        self.queue.lock().retire(entry.priority);
        self.counters
            .sessions_failed
            .fetch_add(1, Ordering::Relaxed);
        let partial = entry.shared.latest_partial().unwrap_or_default();
        self.counters
            .playouts
            .fetch_add(partial.stats.playouts, Ordering::Relaxed);
        self.outstanding.fetch_sub(entry.cost, Ordering::Relaxed);
        entry.shared.finalize(partial, TicketStatus::Failed(err));
        Self::drop_quarantined(entry);
    }

    /// Settle a watchdog-reaped session (the wedged worker still owns
    /// the `SessionEntry`; everything observable is settled through the
    /// shared state).
    pub(crate) fn finalize_reaped(
        &self,
        shared: &Arc<SessionShared>,
        priority: Priority,
        cost: u64,
    ) {
        // If the run is merely slow (not wedged), make sure it stops at
        // its next budget check instead of burning the worker further.
        shared.request_cancel();
        self.queue.lock().retire(priority);
        self.counters
            .sessions_failed
            .fetch_add(1, Ordering::Relaxed);
        let partial = shared.latest_partial().unwrap_or_default();
        self.counters
            .playouts
            .fetch_add(partial.stats.playouts, Ordering::Relaxed);
        self.outstanding.fetch_sub(cost, Ordering::Relaxed);
        shared.finalize(partial, TicketStatus::Failed(SearchError::DeadlineExceeded));
    }

    /// Drop a quarantined session. Its internals may be mid-mutation
    /// (we unwound out of scheme code), so even `Drop` is fenced; the
    /// arena is never returned to the warm pool.
    pub(crate) fn drop_quarantined(entry: SessionEntry) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(entry)));
    }

    /// Replace a wedged worker: detach its join handle (it may never
    /// return), retire its slot, and spawn a fresh worker so pool
    /// capacity is restored.
    pub(crate) fn replace_worker(self: &Arc<Self>, wid: u64) {
        self.handles.lock().retain(|(id, _)| *id != wid);
        self.slots.lock().retain(|(id, _)| *id != wid);
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        let id = self.next_worker.fetch_add(1, Ordering::Relaxed);
        let (slot, handle) = supervisor::spawn_worker(self, id);
        self.slots.lock().push((id, slot));
        self.handles.lock().push((id, handle));
    }
}

/// Accepts search requests and multiplexes them over a fixed worker
/// pool (see the crate docs). Dropping the service cancels outstanding
/// sessions (their tickets resolve as [`TicketStatus::Cancelled`]) and
/// joins the workers.
pub struct SearchService {
    inner: Arc<Inner>,
    watchdog: Option<JoinHandle<()>>,
}

impl SearchService {
    /// Spawn the worker pool.
    pub fn new(cfg: ServeConfig) -> Self {
        Self::with_registries(cfg, None, None)
    }

    /// Spawn the worker pool, optionally plugging in cache/health
    /// registries shared with other services (how a
    /// [`crate::ServeCluster`] makes one backend's cache — and failure
    /// history — span every shard). With `None`, the service builds its
    /// own: a cache registry iff [`ServeConfig::eval_cache_bytes`] is
    /// set, and always a health registry from this config's breaker
    /// knobs.
    pub(crate) fn with_registries(
        cfg: ServeConfig,
        shared_cache: Option<Arc<CacheRegistry>>,
        shared_health: Option<Arc<HealthRegistry>>,
    ) -> Self {
        assert!(cfg.workers >= 1, "service needs at least one worker");
        assert!(cfg.step_quota >= 1, "step quota must be positive");
        let cache_owned = shared_cache.is_none();
        let cache = shared_cache.or_else(|| {
            cfg.eval_cache_bytes
                .map(|b| Arc::new(CacheRegistry::new(b, cfg.eval_cache_ttl)))
        });
        let health =
            shared_health.unwrap_or_else(|| Arc::new(HealthRegistry::new(cfg.health_config())));
        let watchdog_enabled = cfg.watchdog_grace.is_some();
        let workers = cfg.workers;
        let inner = Arc::new(Inner {
            cfg: cfg.clone(),
            queue: Mutex::new(FairScheduler::new(cfg.class_weights)),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_seq: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            outstanding: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
            coalescers: Mutex::new(Vec::new()),
            retired_eval: Mutex::new(CoalesceStats::default()),
            cache,
            cache_owned,
            health,
            slots: Mutex::new(Vec::new()),
            handles: Mutex::new(Vec::new()),
            next_worker: AtomicU64::new(workers as u64),
            counters: Counters::default(),
        });
        {
            let mut slots = inner.slots.lock();
            let mut handles = inner.handles.lock();
            for i in 0..workers {
                let (slot, handle) = supervisor::spawn_worker(&inner, i as u64);
                slots.push((i as u64, slot));
                handles.push((i as u64, handle));
            }
        }
        let watchdog = watchdog_enabled.then(|| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-watchdog".to_string())
                .spawn(move || supervisor::watchdog_loop(&inner))
                .expect("spawn serve watchdog")
        });
        SearchService { inner, watchdog }
    }

    /// Submit one request; returns immediately with a ticket handle.
    /// The session's run is opened on the calling thread (cheap), then
    /// queued for stepping.
    pub fn submit<G: Game>(&self, mut req: SearchRequest<G>) -> SearchTicket {
        // Clamp the session's arena to the service ceiling — both the
        // config knob and any per-run byte budget, so neither path lets
        // one session outgrow its slice of the pool's memory.
        if let Some(cap) = self.inner.cfg.session_arena_bytes {
            req.config.arena_budget_bytes =
                Some(req.config.arena_budget_bytes.map_or(cap, |b| b.min(cap)));
            if let Some(b) = req.budget.max_bytes {
                req.budget.max_bytes = Some(b.min(cap));
            }
        }
        let cost = session_cost(&req.budget, &req.config);
        // Caches, coalescers and breakers are all keyed by the
        // *backend* identity, captured before any wrap replaces the
        // Arc — so sessions share them whether or not their backend
        // coalesces.
        let backend = Arc::clone(&req.evaluator);
        // Resilience wrap sits *inside* the coalescing layer: one retry
        // re-runs the whole shared batch, and one breaker verdict
        // covers every coalesced session.
        let resilient = self.inner.health.resilient(Arc::clone(&backend));
        let mut eval = self.inner.shared_evaluator(&backend, resilient);
        if let Some(reg) = &self.inner.cache {
            // Cache outside, coalescer inside: hits are answered from
            // memory without waking the batch layer; only misses enter
            // the shared cross-session batch.
            eval = Arc::new(CachedEvaluator::new(eval, reg.cache_for(&backend)));
        }
        let engine: Engine<G> = if req.scheme == Scheme::Serial {
            let pooled = self.inner.pool.lock().pop();
            let searcher = match pooled {
                Some(mut s) => {
                    s.reconfigure(req.config, eval);
                    s
                }
                None => ReusableSearch::new(req.config, eval),
            };
            Engine::Pooled(Box::new(searcher))
        } else {
            Engine::Built(
                SearchBuilder::new(req.scheme)
                    .config(req.config)
                    .evaluator(eval)
                    .build::<G>(),
            )
        };
        let session = TypedSession::begin(engine, &req.root, req.budget);
        let deadline = req
            .budget
            .time
            .or(req.config.time_budget_ms.map(Duration::from_millis))
            .map(|t| Instant::now() + t);
        let shared = Arc::new(SessionShared::new(
            self.inner.next_id.fetch_add(1, Ordering::Relaxed),
        ));
        let entry = SessionEntry {
            priority: req.priority,
            deadline,
            seq: self.inner.next_seq.fetch_add(1, Ordering::Relaxed),
            cost,
            session: Box::new(session),
            shared: Arc::clone(&shared),
        };
        self.inner.outstanding.fetch_add(cost, Ordering::Relaxed);
        self.inner.queue.lock().enqueue_new(entry);
        self.inner.work_cv.notify_one();
        SearchTicket { shared }
    }

    /// Sessions currently queued for a scheduling slice (excludes the
    /// ones being stepped right now).
    pub fn queued(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Admitted playout budget of sessions submitted and not yet
    /// finished — the service's outstanding load. Cluster placement
    /// routes new sessions toward the shard where this is smallest.
    pub fn outstanding_playouts(&self) -> u64 {
        self.inner.outstanding.load(Ordering::Relaxed)
    }

    /// Circuit-breaker state of `backend` (matched by `Arc` identity,
    /// like cache and coalescing registration). `Closed` for a backend
    /// this service has never seen fail.
    pub fn backend_health(&self, backend: &Arc<dyn BatchEvaluator>) -> BreakerState {
        self.inner.health.breaker_for(backend).state()
    }

    /// Aggregate accounting, including the shared coalescing layers'
    /// realized batch fill.
    pub fn stats(&self) -> ServiceStats {
        let mut eval = *self.inner.retired_eval.lock();
        for e in self.inner.coalescers.lock().iter() {
            let s = e.layer.stats();
            eval.batches += s.batches;
            eval.samples += s.samples;
        }
        let cache = if self.inner.cache_owned {
            self.cache_stats().unwrap_or_default()
        } else {
            // Shared (cluster-owned) registry: the cluster reports it.
            CacheStats::default()
        };
        ServiceStats {
            sessions_completed: self
                .inner
                .counters
                .sessions_completed
                .load(Ordering::Relaxed),
            sessions_cancelled: self
                .inner
                .counters
                .sessions_cancelled
                .load(Ordering::Relaxed),
            sessions_failed: self.inner.counters.sessions_failed.load(Ordering::Relaxed),
            steps: self.inner.counters.steps.load(Ordering::Relaxed),
            playouts: self.inner.counters.playouts.load(Ordering::Relaxed),
            eval_batches: eval.batches,
            eval_samples: eval.samples,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_bytes: cache.bytes,
        }
    }

    /// One [`AutotuneReport`] per live backend with a tuner attached
    /// (empty when [`ServeConfig::coalesce_auto`] is off or no batching
    /// backend registered yet): the measured forward-time curve and the
    /// operating point currently steering that backend's batching.
    pub fn autotune_reports(&self) -> Vec<AutotuneReport> {
        self.inner
            .coalescers
            .lock()
            .iter()
            .filter_map(|e| e.tuner.as_ref().map(|t| t.report()))
            .collect()
    }

    /// Raw evaluation-cache counters across this service's per-backend
    /// caches; `None` when caching is disabled. Reports the registry's
    /// totals even when the registry is cluster-shared (unlike
    /// [`SearchService::stats`], which then defers to the cluster).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache.as_ref().map(|r| r.stats())
    }

    /// Invalidate every cached evaluation (O(1) per backend: an epoch
    /// bump, no scan). Call after swapping model weights *in place*
    /// behind a backend `Arc` that keeps its identity; backends
    /// replaced by a *new* `Arc` are invalidated automatically.
    pub fn invalidate_eval_cache(&self) {
        if let Some(reg) = &self.inner.cache {
            reg.invalidate_all();
        }
    }
}

impl Drop for SearchService {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.work_cv.notify_all();
        // Watchdog first (it bounds its own exit at one poll interval):
        // after it is gone, no new workers can be spawned and the
        // handle list is stable.
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        let handles: Vec<_> = self.inner.handles.lock().drain(..).collect();
        for (_, h) in handles {
            let _ = h.join();
        }
        // Resolve whatever is still queued so no ticket waits forever.
        let leftovers: Vec<SessionEntry> = self.inner.queue.lock().drain();
        for mut entry in leftovers {
            let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let partial = entry.session.partial();
                entry.session.cancel();
                partial
            }));
            match torn {
                Ok(partial) => self.inner.finalize(entry, partial, TicketStatus::Cancelled),
                Err(payload) => self
                    .inner
                    .fail(entry, SearchError::from_panic(payload.as_ref())),
            }
        }
    }
}
