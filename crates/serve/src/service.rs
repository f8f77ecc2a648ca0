//! The [`SearchService`]: a fixed worker pool multiplexing many
//! resumable search sessions (see the crate docs for the architecture,
//! and `serve::supervisor` for the fault-containment layer around the
//! workers).

use crate::backend::{BackendRecord, BackendRegistry};
use crate::health::BreakerState;
use crate::scheduler::{FairScheduler, SessionEntry};
use crate::session::{Engine, SearchTicket, SessionShared, TicketStatus, TypedSession};
use crate::supervisor;
use crate::{run_config, session_cost, Priority, SearchRequest};
use games::Game;
use mcts::{
    AutotuneReport, BatchEvaluator, Budget, CacheStats, ReusableSearch, Scheme, SearchBuilder,
    SearchError, SearchResult,
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
    /// how many evaluations can be in flight at once: the most callers a
    /// shared inference round can gather, and — capped by the host's
    /// cores — how many single-sample forwards run side by side when a
    /// backend's batches do not pay. Which of the two a backend gets is
    /// measured, not configured: its coalescing layer's
    /// [`mcts::BatchTuner`] is calibrated against the backend when its
    /// first session arrives (a few forwards at each batch size, while
    /// that `submit` waits) and refined by every forward after; see
    /// [`mcts::CoalescingEvaluator`] for the rule.
    pub workers: usize,
    /// Playouts per scheduling slice. Smaller slices interleave sessions
    /// more fairly (and honor priorities/cancellation sooner) at the
    /// cost of more queue churn.
    pub step_quota: usize,
    /// Warmed [`ReusableSearch`] instances kept for reuse across
    /// `Serial`-scheme sessions.
    pub max_pooled: usize,
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
    /// the search recycles cold subtrees in place. The same clamp applies
    /// to a request's per-run [`mcts::Budget::max_bytes`], which is where
    /// the wire's slot count lands once the server has converted it.
    /// `None` (the default) leaves session configs untouched.
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
            class_weights: [1, 4, 16],
            eval_cache_bytes: None,
            retry_budget: 2,
            backoff_base: Duration::from_millis(1),
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(250),
            watchdog_grace: Some(Duration::from_secs(2)),
            session_arena_bytes: None,
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
    /// Backend calls made by the shared coalescing layers: one per
    /// inference round, and one per direct call where a backend's tuner
    /// runs singles side by side (a round of one).
    pub eval_batches: u64,
    /// Samples served across those calls.
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
    /// Mean samples per backend call across all shared backends
    /// (1.0 = no cross-session coalescing happened; 0.0 = no calls).
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
    /// The per-model records (breaker, cache, coalescing layers,
    /// evaluator stacks). A [`crate::ServeCluster`]'s shards share one
    /// registry; `shard` is this service's slot in each record.
    backends: Arc<BackendRegistry>,
    shard: usize,
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
    /// Finalize one session that ended cleanly (`Done`/`Cancelled`):
    /// update counters, release its outstanding load, return the warmed
    /// searcher to the pool — parked, so the pool keeps no finished
    /// session's model alive — and publish the final result. In that
    /// order: a caller that submits its next request the moment it sees
    /// this one's result must find the searcher in the pool, or every
    /// such race grows the pool by one more arena, up to `max_pooled`.
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
        if let Some(mut searcher) = entry.session.reclaim() {
            searcher.park();
            let mut pool = self.pool.lock();
            if pool.len() < self.cfg.max_pooled {
                pool.push(searcher);
            }
        }
        entry.shared.finalize(result, status);
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
        let backends = Arc::new(BackendRegistry::new(cfg.clone(), 1, None));
        Self::on_shard(cfg, backends, 0)
    }

    /// Spawn the worker pool of shard `shard` of a cluster, on the
    /// cluster's backend registry.
    pub(crate) fn on_shard(cfg: ServeConfig, backends: Arc<BackendRegistry>, shard: usize) -> Self {
        assert!(cfg.workers >= 1, "service needs at least one worker");
        assert!(cfg.step_quota >= 1, "step quota must be positive");
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
            backends,
            shard,
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
    pub fn submit<G: Game>(&self, req: SearchRequest<G>) -> SearchTicket {
        let backend = self.inner.backends.lookup(&req.evaluator);
        self.submit_on(backend, req)
    }

    /// [`SearchService::submit`] for a request whose backend record the
    /// caller (the cluster's front door) has already looked up.
    pub(crate) fn submit_on<G: Game>(
        &self,
        backend: Arc<BackendRecord>,
        req: SearchRequest<G>,
    ) -> SearchTicket {
        // Resolved once: the pooled searcher is re-bounded to this config,
        // a built scheme starts from it, cost is read off it.
        let cfg = run_config(&req.budget, &req.config, self.inner.cfg.session_arena_bytes);
        // `begin` folds its budget into the config again: the memory
        // bound is in `cfg` already, clamped, and must not be widened.
        let budget = Budget {
            max_bytes: None,
            ..req.budget
        };
        let cost = session_cost(&cfg);
        let eval = self.inner.backends.stack(&backend, self.inner.shard);
        let engine: Engine<G> = if req.scheme == Scheme::Serial {
            let pooled = self.inner.pool.lock().pop();
            let searcher = match pooled {
                Some(mut s) => {
                    s.reconfigure(cfg, eval);
                    s
                }
                None => ReusableSearch::new(cfg, eval),
            };
            Engine::Pooled(Box::new(searcher))
        } else {
            Engine::Built(
                SearchBuilder::new(req.scheme)
                    .config(cfg)
                    .evaluator(eval)
                    .build::<G>(),
            )
        };
        let session = TypedSession::begin(engine, &req.root, budget);
        let deadline = req.budget.time.and_then(|t| Instant::now().checked_add(t));
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
            _backend: backend,
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

    /// Circuit-breaker state of `backend` (matched by `Arc` identity).
    /// `Closed` for a backend this service holds no record of.
    pub fn backend_health(&self, backend: &Arc<dyn BatchEvaluator>) -> BreakerState {
        self.inner.backends.health(backend)
    }

    /// Aggregate accounting, including the shared coalescing layers'
    /// realized batch fill and the evaluation caches' counters. (A
    /// cluster shard reached through [`crate::ServeCluster::shard`]
    /// reports the cluster-wide cache here, as
    /// [`SearchService::cache_stats`] does; [`crate::ClusterStats`]
    /// counts that cache once, beside its per-shard entries.)
    pub fn stats(&self) -> ServiceStats {
        let cache = self.cache_stats().unwrap_or_default();
        ServiceStats {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_bytes: cache.bytes,
            ..self.shard_stats()
        }
    }

    /// [`SearchService::stats`] without the cache counters, which are
    /// not any one shard's.
    pub(crate) fn shard_stats(&self) -> ServiceStats {
        let eval = self.inner.backends.eval_stats(self.inner.shard);
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
            ..ServiceStats::default()
        }
    }

    /// One [`AutotuneReport`] per live batching backend (empty until
    /// one registers): the measured forward-time curve and the
    /// operating point currently steering that backend's batching.
    pub fn autotune_reports(&self) -> Vec<AutotuneReport> {
        self.inner.backends.autotune_reports(self.inner.shard)
    }

    /// Raw evaluation-cache counters across this service's per-backend
    /// caches (cluster-wide for a cluster shard); `None` when caching is
    /// disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.backends.cache_stats()
    }

    /// Invalidate every cached evaluation (O(1) per backend: an epoch
    /// bump, no scan). Call after swapping model weights *in place*
    /// behind a backend `Arc` that keeps its identity; a backend
    /// replaced by a *new* `Arc` starts from a cold cache of its own.
    pub fn invalidate_eval_cache(&self) {
        self.inner.backends.invalidate_caches();
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

#[cfg(test)]
mod tests {
    use super::*;
    use games::tictactoe::TicTacToe;
    use mcts::{EvalOutput, MctsConfig, UniformEvaluator};

    /// Uniform priors behind a gate: every call waits until `open`.
    struct Gated {
        uniform: UniformEvaluator,
        entered: AtomicBool,
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl BatchEvaluator for Gated {
        fn input_len(&self) -> usize {
            self.uniform.input_len()
        }

        fn action_space(&self) -> usize {
            self.uniform.action_space()
        }

        fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
            self.entered.store(true, Ordering::SeqCst);
            let mut open = self.open.lock();
            while !*open {
                open = self.cv.wait(open);
            }
            self.uniform.evaluate_batch(inputs, out);
        }
    }

    #[test]
    fn a_finished_sessions_searcher_is_pooled_before_its_result_shows() {
        let s = SearchService::new(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let eval: Arc<dyn BatchEvaluator> = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
        let cfg = MctsConfig {
            playouts: 8,
            ..Default::default()
        };
        // A closed loop: each request is submitted the moment the last
        // one's result is visible, and must find that one's searcher.
        for i in 0..200 {
            s.submit(SearchRequest::new(TicTacToe::new(), Arc::clone(&eval)).config(cfg))
                .wait();
            assert_eq!(s.inner.pool.lock().len(), 1, "request {i}");
        }
    }

    #[test]
    fn a_queued_sessions_deadline_is_its_exact_time_budget() {
        let s = SearchService::new(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let gated = Arc::new(Gated {
            uniform: UniformEvaluator::for_game(&TicTacToe::new()),
            entered: AtomicBool::new(false),
            open: Mutex::new(false),
            cv: Condvar::new(),
        });
        let cfg = MctsConfig {
            playouts: 8,
            ..Default::default()
        };
        // The one worker parks inside the gate, so the next session stays
        // queued where its deadline can be read.
        let parked = s.submit(SearchRequest::new(TicTacToe::new(), gated.clone()).config(cfg));
        while !gated.entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let time = Duration::from_micros(1_900);
        let before = Instant::now();
        let eval: Arc<dyn BatchEvaluator> = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
        let timed = s.submit(
            SearchRequest::new(TicTacToe::new(), eval)
                .config(cfg)
                .budget(Budget::time(time)),
        );
        let queued = s.inner.queue.lock().drain();
        let deadlines: Vec<_> = queued.iter().map(|e| e.deadline).collect();
        for entry in queued {
            s.inner.queue.lock().enqueue_new(entry);
        }
        *gated.open.lock() = true;
        gated.cv.notify_all();
        parked.wait();
        timed.wait();
        assert_eq!(deadlines.len(), 1, "only the timed session is queued");
        let deadline = deadlines[0].expect("a timed session has a deadline");
        assert!(
            deadline >= before + time,
            "deadline {:?} after submit, budget {time:?}",
            deadline.saturating_duration_since(before)
        );
    }
}
