//! Sharded, fixed-capacity evaluation cache for DNN leaf evaluations.
//!
//! Serving workloads re-search the same popular positions constantly:
//! every leaf expansion pays a full network forward even when an
//! identical state was evaluated moments ago by another session. This
//! module adds the missing memoization layer between the search schemes
//! and the coalescing/inference stack:
//!
//! * [`EvalCache`] — a lock-striped, set-associative hash cache keyed by
//!   `(model_epoch, state_hash)` storing compact entries (u16-quantized
//!   policy priors + exact f32 value) under a **hard byte budget**, with
//!   bucketed age-based replacement and atomic [`CacheStats`];
//! * [`CachedEvaluator`] — a [`BatchEvaluator`] wrapper that splits each
//!   *keyed* batch into hits and misses, forwards only the misses to the
//!   inner evaluator, and scatters results back in order. Composed
//!   **above** a shared [`crate::CoalescingEvaluator`], cross-session
//!   coalescing still sees the residual miss batch.
//!
//! # Epoch semantics
//!
//! Entries are tagged with the cache's *model epoch* at insertion time.
//! [`EvalCache::bump_epoch`] is O(1): it increments the epoch counter,
//! after which every existing entry stops matching lookups and ages out
//! through normal replacement — swapping network weights never serves
//! stale priors and never stalls serving on a flush.
//!
//! # Correctness precondition
//!
//! Keys are [`games::Game::hash`] values, which every game guarantees to
//! distinguish reachable states *including side-to-move* (see the hash
//! unit tests and the cross-game proptest in `tests/proptest_hash.rs`).
//! Values are cached bitwise; priors are quantized to `u16` (worst-case
//! error `1/131070` per entry), which PUCT tolerates freely.

use crate::evaluator::{BatchEvaluator, EvalOutput};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for an [`EvalCache`].
#[derive(Debug, Clone, Copy)]
pub struct EvalCacheConfig {
    /// Hard byte budget across all shards. The cache rounds *down* to
    /// whole power-of-two bucket arrays, so actual residency never
    /// exceeds this.
    pub capacity_bytes: usize,
    /// Number of independently locked shards (striping the key space).
    pub shards: usize,
    /// Bucket associativity: candidate slots per key. Replacement picks
    /// the oldest of these `ways` when the bucket is full.
    pub ways: usize,
    /// Entry time-to-live. `None` means entries live until evicted or
    /// the epoch moves on.
    pub ttl: Option<Duration>,
}

/// Default byte budget: 32 MiB, roomy for ~10⁵ Gomoku-sized entries.
pub const DEFAULT_CACHE_BYTES: usize = 32 << 20;

impl Default for EvalCacheConfig {
    fn default() -> Self {
        EvalCacheConfig {
            capacity_bytes: DEFAULT_CACHE_BYTES,
            shards: 16,
            ways: 8,
            ttl: None,
        }
    }
}

impl EvalCacheConfig {
    /// A config with the given byte budget and defaults elsewhere.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        EvalCacheConfig {
            capacity_bytes,
            ..Default::default()
        }
    }
}

/// Monotonic cache counters. All fields are lifetime totals; subtract
/// snapshots to get interval rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (absent, wrong epoch, or expired).
    pub misses: u64,
    /// Entries written (first fills, refreshes and replacements).
    pub inserts: u64,
    /// Entries overwritten while still live (bucket pressure).
    pub evictions: u64,
    /// Bytes currently resident (monotone until capacity, then flat).
    pub bytes: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups so far (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fold another stats snapshot into this one (bytes add too: used
    /// when merging per-cache totals into service/cluster aggregates).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.bytes += other.bytes;
    }
}

/// One cache slot. `priors.is_empty()` marks a vacant slot; filled slots
/// always hold exactly `action_space` quantized priors.
struct Slot {
    key: u64,
    epoch: u32,
    /// Milliseconds since cache construction at last touch (insert or
    /// hit) — drives both TTL expiry and oldest-first replacement.
    stamp: u32,
    value: f32,
    priors: Vec<u16>,
}

struct Shard {
    slots: Vec<Slot>,
}

/// Sharded, lock-striped, set-associative evaluation cache keyed by
/// `(model_epoch, state_hash)`. See the [module docs](self) for the
/// design; all methods are safe to call concurrently.
pub struct EvalCache {
    shards: Vec<Mutex<Shard>>,
    /// Buckets per shard (power of two).
    buckets: usize,
    ways: usize,
    action_space: usize,
    entry_bytes: usize,
    capacity_bytes: usize,
    ttl_ms: Option<u32>,
    epoch: AtomicU32,
    birth: Instant,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
}

/// splitmix64 finalizer: spreads game hashes (which may be structured,
/// e.g. connect4's arithmetic key) uniformly over shards and buckets.
#[inline]
fn mix(key: u64, epoch: u32) -> u64 {
    let mut z = key ^ (epoch as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl EvalCache {
    /// Build a cache for priors of length `action_space` under
    /// `cfg.capacity_bytes`. Slot counts round *down* so residency never
    /// exceeds the budget; a tiny budget still yields one bucket per
    /// shard (the cache degrades, it never panics).
    pub fn new(cfg: EvalCacheConfig, action_space: usize) -> Self {
        assert!(action_space > 0, "action space must be positive");
        let shards = cfg.shards.max(1);
        let ways = cfg.ways.max(1);
        let entry_bytes = std::mem::size_of::<Slot>() + 2 * action_space;
        let total_slots = (cfg.capacity_bytes / entry_bytes).max(shards * ways);
        let per_shard = (total_slots / shards).max(ways);
        // Round buckets down to a power of two for mask indexing.
        let buckets = {
            let raw = (per_shard / ways).max(1);
            let mut p = 1usize;
            while p * 2 <= raw {
                p *= 2;
            }
            p
        };
        let shard_vec = (0..shards)
            .map(|_| {
                let n = buckets * ways;
                let mut slots = Vec::with_capacity(n);
                slots.resize_with(n, || Slot {
                    key: 0,
                    epoch: 0,
                    stamp: 0,
                    value: 0.0,
                    priors: Vec::new(),
                });
                Mutex::new(Shard { slots })
            })
            .collect();
        EvalCache {
            shards: shard_vec,
            buckets,
            ways,
            action_space,
            entry_bytes,
            capacity_bytes: cfg.capacity_bytes,
            ttl_ms: cfg
                .ttl
                .map(|d| (d.as_millis().min(u32::MAX as u128)) as u32),
            epoch: AtomicU32::new(0),
            birth: Instant::now(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Prior-vector length entries are stored at.
    pub fn action_space(&self) -> usize {
        self.action_space
    }

    /// Configured hard byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes one resident entry accounts for (slot header + quantized
    /// priors). Exposed so tests can reason about the budget exactly.
    pub fn entry_bytes(&self) -> usize {
        self.entry_bytes
    }

    /// Total slot capacity in entries (all shards).
    pub fn capacity_entries(&self) -> usize {
        self.shards.len() * self.buckets * self.ways
    }

    /// Current model epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advance the model epoch: O(1) invalidation of every cached entry
    /// (they stop matching and age out through replacement). Call on
    /// model weight swaps.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    #[inline]
    fn now_ms(&self) -> u32 {
        (self.birth.elapsed().as_millis().min(u32::MAX as u128)) as u32
    }

    #[inline]
    fn locate(&self, mixed: u64) -> (usize, usize) {
        let shard = ((mixed >> 48) as usize) % self.shards.len();
        let bucket = (mixed as usize) & (self.buckets - 1);
        (shard, bucket * self.ways)
    }

    /// Look up `key` at the current epoch. On a hit, dequantized priors
    /// and the exact value are written into `out` (recycling its
    /// allocation) and the entry's age refreshes. Returns whether it hit.
    pub fn get(&self, key: u64, out: &mut EvalOutput) -> bool {
        let epoch = self.epoch();
        let mixed = mix(key, epoch);
        let (shard, base) = self.locate(mixed);
        let now = self.now_ms();
        let mut guard = self.shards[shard].lock();
        for slot in &mut guard.slots[base..base + self.ways] {
            if slot.key == key && slot.epoch == epoch && !slot.priors.is_empty() {
                if let Some(ttl) = self.ttl_ms {
                    if now.saturating_sub(slot.stamp) > ttl {
                        // Expired: leave for replacement to reclaim.
                        break;
                    }
                }
                slot.stamp = now;
                out.value = slot.value;
                out.priors.clear();
                out.priors
                    .extend(slot.priors.iter().map(|&q| q as f32 / 65535.0));
                drop(guard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        drop(guard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Insert (or refresh) an entry for `key` at the current epoch.
    /// Replacement order within a bucket: same key, then any vacant or
    /// dead-epoch/expired slot, then the oldest live entry (counted as
    /// an eviction).
    pub fn insert(&self, key: u64, priors: &[f32], value: f32) {
        debug_assert_eq!(priors.len(), self.action_space);
        let epoch = self.epoch();
        let mixed = mix(key, epoch);
        let (shard, base) = self.locate(mixed);
        let now = self.now_ms();
        let mut guard = self.shards[shard].lock();
        let bucket = &mut guard.slots[base..base + self.ways];
        let mut victim = 0usize;
        let mut victim_dead = false;
        let mut victim_stamp = u32::MAX;
        for (i, slot) in bucket.iter().enumerate() {
            if slot.key == key && slot.epoch == epoch && !slot.priors.is_empty() {
                victim = i;
                victim_dead = true; // same-key refresh is never an eviction
                break;
            }
            let dead = slot.priors.is_empty()
                || slot.epoch != epoch
                || self
                    .ttl_ms
                    .is_some_and(|ttl| now.saturating_sub(slot.stamp) > ttl);
            if dead && !victim_dead {
                victim = i;
                victim_dead = true;
            } else if !victim_dead && slot.stamp < victim_stamp {
                victim = i;
                victim_stamp = slot.stamp;
            }
        }
        let slot = &mut bucket[victim];
        let was_vacant = slot.priors.is_empty();
        if !victim_dead {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        slot.key = key;
        slot.epoch = epoch;
        slot.stamp = now;
        slot.value = value;
        slot.priors.clear();
        slot.priors.extend(
            priors
                .iter()
                .map(|&p| (p.clamp(0.0, 1.0) * 65535.0).round() as u16),
        );
        drop(guard);
        if was_vacant {
            self.bytes
                .fetch_add(self.entry_bytes as u64, Ordering::Relaxed);
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the atomic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// Scratch recycled across [`CachedEvaluator::evaluate_batch_keyed`]
/// calls on a thread: miss indices and miss outputs (whose prior `Vec`s
/// swap back and forth with the caller's, so capacity is never dropped).
struct CacheScratch {
    miss_idx: Vec<usize>,
    miss_out: Vec<EvalOutput>,
}

thread_local! {
    static CACHE_SCRATCH: RefCell<CacheScratch> = const {
        RefCell::new(CacheScratch {
            miss_idx: Vec::new(),
            miss_out: Vec::new(),
        })
    };
}

/// A [`BatchEvaluator`] that serves keyed lookups from an [`EvalCache`]
/// and forwards only the residual misses to the inner evaluator in one
/// batch, scattering results back in request order.
///
/// * The keyed entry point ([`BatchEvaluator::evaluate_batch_keyed`])
///   consults the cache.
/// * The keyless [`BatchEvaluator::evaluate_batch`] passes straight
///   through — without a position hash there is nothing sound to key on,
///   so unkeyed callers observe the inner evaluator exactly.
///
/// Batching metadata (`preferred_batch`, `coalesces_internally`) is
/// forwarded unchanged, so stacking this above a shared
/// [`crate::CoalescingEvaluator`] leaves the serve-layer composition
/// rules intact.
pub struct CachedEvaluator {
    inner: Arc<dyn BatchEvaluator>,
    cache: Arc<EvalCache>,
}

impl CachedEvaluator {
    /// Wrap `inner` with `cache`. The cache must have been sized for the
    /// same action space.
    pub fn new(inner: Arc<dyn BatchEvaluator>, cache: Arc<EvalCache>) -> Self {
        assert_eq!(
            cache.action_space(),
            inner.action_space(),
            "cache sized for a different action space"
        );
        CachedEvaluator { inner, cache }
    }

    /// The shared cache (e.g. to read [`EvalCache::stats`]).
    pub fn cache(&self) -> &Arc<EvalCache> {
        &self.cache
    }

    /// The wrapped evaluator.
    pub fn inner(&self) -> &Arc<dyn BatchEvaluator> {
        &self.inner
    }
}

impl BatchEvaluator for CachedEvaluator {
    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn action_space(&self) -> usize {
        self.inner.action_space()
    }

    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        self.inner.evaluate_batch(inputs, out);
    }

    fn preferred_batch(&self) -> usize {
        self.inner.preferred_batch()
    }

    fn coalesces_internally(&self) -> bool {
        self.inner.coalesces_internally()
    }

    fn evaluate_batch_keyed(&self, keys: &[u64], inputs: &[&[f32]], out: &mut [EvalOutput]) {
        debug_assert_eq!(keys.len(), inputs.len());
        debug_assert_eq!(keys.len(), out.len());
        // Take the scratch out of the RefCell for the duration: the
        // inner evaluator may live on this thread too (NnEvaluator uses
        // its own thread-local), and holding a borrow across its call
        // would make reentrancy a panic instead of a slow path.
        let mut scratch = CACHE_SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            CacheScratch {
                miss_idx: std::mem::take(&mut s.miss_idx),
                miss_out: std::mem::take(&mut s.miss_out),
            }
        });
        scratch.miss_idx.clear();
        for (i, (&key, o)) in keys.iter().zip(out.iter_mut()).enumerate() {
            if !self.cache.get(key, o) {
                scratch.miss_idx.push(i);
            }
        }
        if !scratch.miss_idx.is_empty() {
            let miss_inputs: Vec<&[f32]> = scratch.miss_idx.iter().map(|&i| inputs[i]).collect();
            scratch
                .miss_out
                .resize_with(scratch.miss_idx.len(), EvalOutput::default);
            self.inner.evaluate_batch(
                &miss_inputs,
                &mut scratch.miss_out[..scratch.miss_idx.len()],
            );
            for (j, &i) in scratch.miss_idx.iter().enumerate() {
                let o = &mut scratch.miss_out[j];
                self.cache.insert(keys[i], &o.priors, o.value);
                std::mem::swap(&mut out[i], o);
            }
        }
        CACHE_SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            s.miss_idx = scratch.miss_idx;
            s.miss_out = scratch.miss_out;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Deterministic per-key evaluator that counts samples it sees.
    struct CountingEval {
        actions: usize,
        samples: AtomicUsize,
        batches: AtomicUsize,
    }

    impl CountingEval {
        fn new(actions: usize) -> Self {
            CountingEval {
                actions,
                samples: AtomicUsize::new(0),
                batches: AtomicUsize::new(0),
            }
        }
    }

    impl BatchEvaluator for CountingEval {
        fn input_len(&self) -> usize {
            1
        }

        fn action_space(&self) -> usize {
            self.actions
        }

        fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.samples.fetch_add(inputs.len(), Ordering::Relaxed);
            for (x, o) in inputs.iter().zip(out.iter_mut()) {
                let seed = x[0];
                o.priors.clear();
                let raw: Vec<f32> = (0..self.actions)
                    .map(|a| 1.0 + ((a as f32) + seed).sin().abs())
                    .collect();
                let sum: f32 = raw.iter().sum();
                o.priors.extend(raw.iter().map(|p| p / sum));
                o.value = (seed * 0.1).tanh();
            }
        }
    }

    fn tiny_cache(actions: usize) -> EvalCache {
        EvalCache::new(
            EvalCacheConfig {
                capacity_bytes: 1 << 16,
                shards: 4,
                ways: 4,
                ttl: None,
            },
            actions,
        )
    }

    #[test]
    fn roundtrip_value_bitwise_priors_quantized() {
        let cache = tiny_cache(5);
        let priors = [0.05f32, 0.1, 0.2, 0.3, 0.35];
        cache.insert(42, &priors, -0.637_21);
        let mut out = EvalOutput::default();
        assert!(cache.get(42, &mut out));
        assert_eq!(out.value, -0.637_21, "values roundtrip bitwise");
        for (a, b) in out.priors.iter().zip(&priors) {
            assert!((a - b).abs() <= 1.0 / 65535.0, "{a} vs {b}");
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 0, 1));
        assert_eq!(s.bytes, cache.entry_bytes() as u64);
    }

    #[test]
    fn absent_key_misses() {
        let cache = tiny_cache(3);
        let mut out = EvalOutput::default();
        assert!(!cache.get(7, &mut out));
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn epoch_bump_invalidates_everything() {
        let cache = tiny_cache(3);
        cache.insert(1, &[0.2, 0.3, 0.5], 0.5);
        let mut out = EvalOutput::default();
        assert!(cache.get(1, &mut out));
        cache.bump_epoch();
        assert!(!cache.get(1, &mut out), "old-epoch entry must not match");
        // Re-inserting at the new epoch works immediately.
        cache.insert(1, &[0.5, 0.3, 0.2], -0.25);
        assert!(cache.get(1, &mut out));
        assert_eq!(out.value, -0.25);
    }

    #[test]
    fn ttl_expires_entries() {
        let cache = EvalCache::new(
            EvalCacheConfig {
                capacity_bytes: 1 << 14,
                shards: 1,
                ways: 2,
                ttl: Some(Duration::from_millis(30)),
            },
            2,
        );
        cache.insert(9, &[0.6, 0.4], 0.1);
        let mut out = EvalOutput::default();
        assert!(cache.get(9, &mut out), "fresh entry hits");
        std::thread::sleep(Duration::from_millis(60));
        assert!(!cache.get(9, &mut out), "expired entry misses");
    }

    #[test]
    fn byte_budget_is_hard_and_evictions_count() {
        let cfg = EvalCacheConfig {
            capacity_bytes: 4096,
            shards: 2,
            ways: 2,
            ttl: None,
        };
        let cache = EvalCache::new(cfg, 4);
        let cap = cache.capacity_entries();
        assert!(
            cap * cache.entry_bytes() <= 4096 || cap == 2 * 2,
            "rounded down"
        );
        // Insert far more distinct keys than slots.
        for k in 0..(cap as u64 * 8) {
            cache.insert(k, &[0.25; 4], 0.0);
        }
        let s = cache.stats();
        assert!(
            s.bytes <= cache.capacity_entries() as u64 * cache.entry_bytes() as u64,
            "residency exceeds slot capacity"
        );
        assert!(s.evictions > 0, "overflow must evict");
        assert_eq!(s.inserts, cap as u64 * 8);
    }

    #[test]
    fn same_key_refresh_is_not_an_eviction() {
        let cache = tiny_cache(2);
        cache.insert(5, &[0.5, 0.5], 0.0);
        cache.insert(5, &[0.9, 0.1], 1.0);
        let s = cache.stats();
        assert_eq!(s.inserts, 2);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.bytes, cache.entry_bytes() as u64, "one resident entry");
        let mut out = EvalOutput::default();
        assert!(cache.get(5, &mut out));
        assert_eq!(out.value, 1.0, "refresh wins");
    }

    #[test]
    fn cached_evaluator_splits_hits_from_misses() {
        let inner = Arc::new(CountingEval::new(4));
        let cache = Arc::new(tiny_cache(4));
        let eval = CachedEvaluator::new(
            Arc::clone(&inner) as Arc<dyn BatchEvaluator>,
            Arc::clone(&cache),
        );
        let xs: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32]).collect();
        let refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        let keys: Vec<u64> = (0..4).map(|i| 100 + i).collect();
        let mut out = vec![EvalOutput::default(); 4];

        // Cold: all four miss, inner sees ONE batch of four.
        eval.evaluate_batch_keyed(&keys, &refs, &mut out);
        assert_eq!(inner.samples.load(Ordering::Relaxed), 4);
        assert_eq!(inner.batches.load(Ordering::Relaxed), 1);
        let cold = out.clone();

        // Warm: all four hit, inner untouched; values bitwise, priors
        // within quantization error.
        let mut out2 = vec![EvalOutput::default(); 4];
        eval.evaluate_batch_keyed(&keys, &refs, &mut out2);
        assert_eq!(inner.samples.load(Ordering::Relaxed), 4, "no new samples");
        for (a, b) in out2.iter().zip(&cold) {
            assert_eq!(a.value, b.value);
            for (p, q) in a.priors.iter().zip(&b.priors) {
                assert!((p - q).abs() <= 1.0 / 65535.0);
            }
        }

        // Mixed: two known keys, two fresh — inner sees exactly the two
        // misses, and results land at the right indices.
        let xs3: Vec<Vec<f32>> = vec![vec![0.0], vec![9.0], vec![1.0], vec![8.0]];
        let refs3: Vec<&[f32]> = xs3.iter().map(Vec::as_slice).collect();
        let keys3 = [100, 900, 101, 800];
        let mut out3 = vec![EvalOutput::default(); 4];
        eval.evaluate_batch_keyed(&keys3, &refs3, &mut out3);
        assert_eq!(inner.samples.load(Ordering::Relaxed), 6, "only the misses");
        assert_eq!(out3[0].value, cold[0].value);
        assert_eq!(out3[2].value, cold[1].value);
        let direct = inner.evaluate_one(&[9.0]);
        assert_eq!(out3[1].value, direct.value);
        assert_eq!(cache.stats().hits, 6);
    }

    #[test]
    fn keyless_path_is_transparent() {
        let inner = Arc::new(CountingEval::new(3));
        let cache = Arc::new(tiny_cache(3));
        let eval = CachedEvaluator::new(
            Arc::clone(&inner) as Arc<dyn BatchEvaluator>,
            Arc::clone(&cache),
        );
        let x = [2.0f32];
        let mut out = vec![EvalOutput::default(); 1];
        eval.evaluate_batch(&[&x], &mut out);
        eval.evaluate_batch(&[&x], &mut out);
        assert_eq!(inner.samples.load(Ordering::Relaxed), 2, "no caching");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (0, 0, 0));
    }

    #[test]
    fn keyless_evaluators_accept_keyed_calls() {
        // The defaulted keyed entry point ignores the keys.
        let e = crate::UniformEvaluator::new(4, 2);
        let mut out = [EvalOutput::default()];
        e.evaluate_batch_keyed(&[77], &[&[0.0; 4]], &mut out);
        assert_eq!(out[0].priors, vec![0.5, 0.5]);
    }
}
