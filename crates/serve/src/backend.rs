//! Backend records: everything the serving stack keeps per model, in
//! one place.
//!
//! A request names its model by the evaluator `Arc` it carries.
//! [`BackendRegistry::lookup`] turns that `Arc` into the model's
//! [`BackendRecord`], creating it on first sight. The record owns what
//! every session of the model shares — its id (what admission meters
//! by), the one retry/breaker wrapper around the raw backend, the
//! evaluation cache, the home shard placement prefers, and per shard the
//! coalescing layer and the assembled evaluator stack sessions run on. A [`crate::ServeCluster`] has one registry for all
//! its shards; a standalone [`crate::SearchService`] has its own.
//!
//! **Identity.** A record holds a strong handle on the backend it was
//! created for, so that allocation's address names the model for as
//! long as the record lives and cannot be handed to a different one.
//!
//! **Eviction — the one rule.** Every lookup first drops each record
//! that nothing outside the registry refers to any more: no session (a
//! session holds its record until the worker lets go of it) and no
//! caller (a caller's clone of the backend `Arc` shows in its strong
//! count). The dropped record's cache and coalescer counters move to
//! the registry's retired bucket, so service and cluster counters never
//! go backwards; its cache memory, breaker history and admission entry
//! go with it. A model submitted again later starts from a fresh record.

use crate::admission::AdmissionController;
use crate::health::{BreakerState, CircuitBreaker, ResilientEvaluator};
use crate::service::ServeConfig;
use mcts::{
    AutotuneReport, BatchEvaluator, CacheStats, CachedEvaluator, CoalesceStats,
    CoalescingEvaluator, EvalCache, EvalCacheConfig,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The address of the backend allocation: what two requests for the
/// same model have in common.
fn identity(backend: &Arc<dyn BatchEvaluator>) -> *const () {
    Arc::as_ptr(backend) as *const ()
}

/// `home` before the first placement.
const NO_HOME: usize = usize::MAX;

/// One shard's share of a record, built when the model's first session
/// lands on that shard.
struct ShardStack {
    /// Cross-session batching, steered by the layer's own tuner (into
    /// shared rounds, or past them when singles side by side do better).
    /// `None` for backends that ask for no batches
    /// (`preferred_batch() == 1`) or that already coalesce internally
    /// (accelerator queues).
    batching: Option<Arc<CoalescingEvaluator>>,
    /// What sessions evaluate through: cache → coalescer → resilient →
    /// backend. Hits are answered from memory without waking the batch
    /// layer; one retry re-runs a whole shared batch.
    stack: Arc<dyn BatchEvaluator>,
}

/// Everything shared by the sessions of one model (see module docs).
pub(crate) struct BackendRecord {
    id: usize,
    /// Holds the registry's only strong handle on the raw backend.
    resilient: Arc<ResilientEvaluator>,
    cache: Option<Arc<EvalCache>>,
    /// Shard of the latest placement. Only a hint to the next one, so
    /// `Relaxed`: it publishes nothing else.
    home: AtomicUsize,
    shards: Box<[OnceLock<ShardStack>]>,
}

impl BackendRecord {
    /// Registry-assigned, never reused: the model's admission key.
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    fn backend(&self) -> &Arc<dyn BatchEvaluator> {
        self.resilient.backend()
    }

    /// The model's cluster-wide circuit breaker.
    pub(crate) fn breaker(&self) -> &CircuitBreaker {
        self.resilient.breaker()
    }

    /// Where the model's sessions last landed, if anywhere yet.
    pub(crate) fn home(&self) -> Option<usize> {
        Some(self.home.load(Ordering::Relaxed)).filter(|&h| h != NO_HOME)
    }

    pub(crate) fn set_home(&self, shard: usize) {
        self.home.store(shard, Ordering::Relaxed);
    }

    /// A record nothing outside the registry refers to: the registry's
    /// own handles on it and on its backend are the last ones.
    fn is_orphan(self: &Arc<Self>) -> bool {
        Arc::strong_count(self) == 1 && Arc::strong_count(self.backend()) == 1
    }
}

/// Counters of evicted records (cache bytes excluded: that memory is
/// freed), per shard where the live counters are.
struct Retired {
    cache: CacheStats,
    eval: Box<[CoalesceStats]>,
}

struct Records {
    live: Vec<Arc<BackendRecord>>,
    next_id: usize,
    retired: Retired,
}

/// The per-model table of a service or cluster (see module docs).
pub(crate) struct BackendRegistry {
    cfg: ServeConfig,
    /// Told to drop a model's bucket when its record is evicted.
    admission: Option<Arc<AdmissionController>>,
    records: Mutex<Records>,
}

impl BackendRegistry {
    /// A registry for `shards` services configured by `cfg`.
    pub(crate) fn new(
        cfg: ServeConfig,
        shards: usize,
        admission: Option<Arc<AdmissionController>>,
    ) -> Self {
        BackendRegistry {
            cfg,
            admission,
            records: Mutex::new(Records {
                live: Vec::new(),
                next_id: 0,
                retired: Retired {
                    cache: CacheStats::default(),
                    eval: vec![CoalesceStats::default(); shards].into(),
                },
            }),
        }
    }

    /// The record of `backend`, created on first sight — after evicting
    /// every orphaned record (never this one: the caller holds
    /// `backend`).
    pub(crate) fn lookup(&self, backend: &Arc<dyn BatchEvaluator>) -> Arc<BackendRecord> {
        let mut records = self.records.lock();
        let Records {
            live,
            next_id,
            retired,
        } = &mut *records;
        live.retain(|r| {
            if !r.is_orphan() {
                return true;
            }
            if let Some(cache) = &r.cache {
                retired.cache.merge(&CacheStats {
                    bytes: 0,
                    ..cache.stats()
                });
            }
            for (shard, slot) in r.shards.iter().enumerate() {
                if let Some(layer) = slot.get().and_then(|s| s.batching.as_ref()) {
                    let s = layer.stats();
                    retired.eval[shard].batches += s.batches;
                    retired.eval[shard].samples += s.samples;
                }
            }
            if let Some(adm) = &self.admission {
                adm.forget(r.id);
            }
            false
        });
        let key = identity(backend);
        if let Some(r) = live.iter().find(|r| identity(r.backend()) == key) {
            return Arc::clone(r);
        }
        let record = Arc::new(BackendRecord {
            id: *next_id,
            resilient: Arc::new(ResilientEvaluator::new(Arc::clone(backend), &self.cfg)),
            cache: self.cfg.eval_cache_bytes.map(|bytes| {
                Arc::new(EvalCache::new(
                    EvalCacheConfig::with_capacity(bytes),
                    backend.action_space(),
                ))
            }),
            home: AtomicUsize::new(NO_HOME),
            shards: (0..retired.eval.len()).map(|_| OnceLock::new()).collect(),
        });
        *next_id += 1;
        live.push(Arc::clone(&record));
        record
    }

    /// Breaker state of `backend`; `Closed` for one without a record.
    /// Never creates or evicts.
    pub(crate) fn health(&self, backend: &Arc<dyn BatchEvaluator>) -> BreakerState {
        let key = identity(backend);
        let records = self.records.lock();
        let found = records.live.iter().find(|r| identity(r.backend()) == key);
        found.map_or(BreakerState::Closed, |r| r.breaker().state())
    }

    /// The evaluator sessions of `record` run on in `shard`, assembled
    /// on the model's first session there and shared from then on.
    pub(crate) fn stack(&self, record: &BackendRecord, shard: usize) -> Arc<dyn BatchEvaluator> {
        let built = record.shards[shard].get_or_init(|| {
            let backend = record.backend();
            let mut stack = Arc::clone(&record.resilient) as Arc<dyn BatchEvaluator>;
            let mut batching = None;
            // The batch bound tracks the backend's capacity, not the
            // worker count: sessions parked on one round can outnumber
            // the steppers.
            let max_batch = backend.preferred_batch();
            if max_batch > 1 && !backend.coalesces_internally() {
                // Callers that can be inside the backend at once: this
                // shard's workers, as far as there are cores to run them.
                let callers = self.cfg.workers.min(tensor::pool::parallelism());
                let layer = Arc::new(CoalescingEvaluator::new(stack, max_batch, callers));
                // The tuner weighs every batch size against singles side by
                // side, so it needs the whole curve before the first
                // request. Against the raw backend: calibration must not
                // trip breakers, warm caches, or count as coalesced traffic.
                // On a thread of its own: backends keep their forward
                // scratch per thread, and the one sized for the largest
                // batch should not outlive the calibration.
                std::thread::scope(|s| {
                    s.spawn(|| layer.tuner().calibrate(backend.as_ref()));
                });
                stack = Arc::clone(&layer) as Arc<dyn BatchEvaluator>;
                batching = Some(layer);
            }
            if let Some(cache) = &record.cache {
                stack = Arc::new(CachedEvaluator::new(stack, Arc::clone(cache)));
            }
            ShardStack { batching, stack }
        });
        Arc::clone(&built.stack)
    }

    /// Records currently held: models in use, plus any orphaned since
    /// the last lookup.
    pub(crate) fn len(&self) -> usize {
        self.records.lock().live.len()
    }

    /// Backend calls (rounds, and direct calls as rounds of one) and
    /// samples of `shard`'s coalescing layers, live and evicted.
    pub(crate) fn eval_stats(&self, shard: usize) -> CoalesceStats {
        let records = self.records.lock();
        let mut out = records.retired.eval[shard];
        for layer in batching(&records.live, shard) {
            let s = layer.stats();
            out.batches += s.batches;
            out.samples += s.samples;
        }
        out
    }

    /// One report per live tuner on `shard`.
    pub(crate) fn autotune_reports(&self, shard: usize) -> Vec<AutotuneReport> {
        batching(&self.records.lock().live, shard)
            .map(|layer| layer.tuner().report())
            .collect()
    }

    /// Counters over every cache this registry ever created (monotone
    /// except `bytes`, which tracks live residency); `None` when caching
    /// is disabled.
    pub(crate) fn cache_stats(&self) -> Option<CacheStats> {
        self.cfg.eval_cache_bytes?;
        let records = self.records.lock();
        let mut out = records.retired.cache;
        for cache in records.live.iter().filter_map(|r| r.cache.as_ref()) {
            out.merge(&cache.stats());
        }
        Some(out)
    }

    /// Bump every live cache's epoch: all cached evaluations become
    /// unreachable at once. The hook for in-place model-weight updates,
    /// where the backend `Arc` (and thus its record) survives the swap.
    pub(crate) fn invalidate_caches(&self) {
        for cache in self
            .records
            .lock()
            .live
            .iter()
            .filter_map(|r| r.cache.as_ref())
        {
            cache.bump_epoch();
        }
    }
}

/// The batching layers `shard` has built so far.
fn batching(
    live: &[Arc<BackendRecord>],
    shard: usize,
) -> impl Iterator<Item = &Arc<CoalescingEvaluator>> {
    live.iter()
        .filter_map(move |r| r.shards[shard].get()?.batching.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use mcts::{EvalOutput, UniformEvaluator};

    fn backend(actions: usize) -> Arc<dyn BatchEvaluator> {
        Arc::new(UniformEvaluator::new(4 * actions, actions))
    }

    fn cached(shards: usize) -> BackendRegistry {
        let cfg = ServeConfig {
            eval_cache_bytes: Some(1 << 20),
            breaker_threshold: 1,
            ..Default::default()
        };
        BackendRegistry::new(cfg, shards, None)
    }

    fn cache_of(r: &BackendRecord) -> &EvalCache {
        r.cache.as_ref().expect("caching is on")
    }

    #[test]
    fn same_backend_gets_same_record_and_stack() {
        let reg = cached(2);
        let b = backend(9);
        let (r1, r2) = (reg.lookup(&b), reg.lookup(&b));
        assert!(Arc::ptr_eq(&r1, &r2));
        assert!(Arc::ptr_eq(
            r1.cache.as_ref().unwrap(),
            r2.cache.as_ref().unwrap()
        ));
        // One wrapper stack per (backend, shard): a second request
        // builds nothing and shares the first one's retry-jitter salt.
        assert!(Arc::ptr_eq(&reg.stack(&r1, 0), &reg.stack(&r2, 0)));
        assert!(!Arc::ptr_eq(&reg.stack(&r1, 0), &reg.stack(&r1, 1)));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn distinct_backends_get_distinct_records() {
        let reg = cached(1);
        let (a, b) = (backend(9), backend(9));
        let (ra, rb) = (reg.lookup(&a), reg.lookup(&b));
        assert_ne!(ra.id(), rb.id());
        assert!(!Arc::ptr_eq(
            ra.cache.as_ref().unwrap(),
            rb.cache.as_ref().unwrap()
        ));
        ra.breaker().record_failure();
        assert_eq!(ra.breaker().state(), BreakerState::Open);
        assert_eq!(
            rb.breaker().state(),
            BreakerState::Closed,
            "independent backends, independent breakers"
        );
    }

    #[test]
    fn invalidate_all_clears_every_backend() {
        let reg = cached(1);
        let (a, b) = (backend(9), backend(7));
        let (ra, rb) = (reg.lookup(&a), reg.lookup(&b));
        cache_of(&ra).insert(1, &[1.0 / 9.0; 9], 0.0);
        cache_of(&rb).insert(2, &[1.0 / 7.0; 7], 0.0);
        reg.invalidate_caches();
        let mut out = EvalOutput::default();
        assert!(!cache_of(&ra).get(1, &mut out));
        assert!(!cache_of(&rb).get(2, &mut out));
    }

    #[test]
    fn a_record_lives_while_a_session_or_a_caller_holds_on() {
        let reg = cached(1);
        let a = backend(9);
        let session = reg.lookup(&a);
        let id = session.id();
        drop(a);
        let other = backend(9);
        reg.lookup(&other);
        assert_eq!(reg.len(), 2, "a session still runs on the record");
        // The session ends but a caller kept the model.
        let a = Arc::clone(session.backend());
        drop(session);
        reg.lookup(&other);
        assert_eq!(reg.lookup(&a).id(), id, "same record, not a fresh one");
        drop(a);
        reg.lookup(&other);
        assert_eq!(reg.len(), 1, "orphaned: gone at the next lookup");
    }

    #[test]
    fn a_fresh_record_inherits_nothing_from_an_evicted_one() {
        let reg = cached(1);
        let a = backend(9);
        let alive = Arc::downgrade(&a);
        let r = reg.lookup(&a);
        let old_id = r.id();
        r.breaker().record_failure();
        assert_eq!(r.breaker().state(), BreakerState::Open);
        cache_of(&r).insert(42, &[1.0 / 9.0; 9], 0.25);
        drop(r);
        drop(a);
        // Whatever address the next model lands on — the dead one's
        // included — its record starts closed and cold under a new id.
        let b = backend(9);
        let r = reg.lookup(&b);
        assert_eq!(alive.strong_count(), 0, "eviction let the model go");
        assert_eq!(reg.len(), 1);
        assert_ne!(r.id(), old_id, "ids are never reused");
        assert_eq!(r.breaker().state(), BreakerState::Closed);
        assert!(!cache_of(&r).get(42, &mut EvalOutput::default()));
    }

    #[test]
    fn retired_counters_survive_eviction_without_bytes() {
        let reg = cached(1);
        let a = backend(9);
        let r = reg.lookup(&a);
        cache_of(&r).insert(7, &[1.0 / 9.0; 9], 0.0);
        assert!(cache_of(&r).get(7, &mut EvalOutput::default()));
        assert!(reg.cache_stats().unwrap().bytes > 0);
        drop(r);
        drop(a);
        let r = reg.lookup(&backend(9));
        let s = reg.cache_stats().unwrap();
        assert_eq!((s.hits, s.inserts), (1, 1), "evicted counters carry over");
        assert_eq!(s.bytes, cache_of(&r).stats().bytes, "its bytes do not");
    }

    #[test]
    fn dead_backend_admission_entries_go_with_the_record() {
        let adm = Arc::new(AdmissionController::new(AdmissionConfig::default()));
        let reg = BackendRegistry::new(ServeConfig::default(), 1, Some(Arc::clone(&adm)));
        let e1 = backend(3);
        let session = reg.lookup(&e1);
        adm.try_admit(session.id(), 10).unwrap();
        drop(e1);
        // Still pending: the session holds the record, the entry stays.
        let e2 = backend(3);
        adm.try_admit(reg.lookup(&e2).id(), 10).unwrap();
        assert_eq!(adm.tracked_models(), 2, "pending entry is kept alive");
        adm.release(session.id());
        drop(session);
        // Dead and drained: the next lookup sweeps both tables.
        adm.try_admit(reg.lookup(&e2).id(), 10).unwrap();
        assert_eq!(adm.tracked_models(), 1, "dead drained entry evicted");
        assert_eq!(reg.len(), 1);
    }
}
