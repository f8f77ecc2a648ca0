//! Concurrency hammer for the sharded evaluation cache: many threads
//! mixing lookups, inserts, and epoch bumps over an overlapping key
//! range must never corrupt an entry (a hit always yields the exact
//! payload its key was inserted with), never exceed the byte budget,
//! and keep the counters coherent. Run with `--features invariants`.
#![cfg(feature = "invariants")]

use mcts::{BatchEvaluator, CachedEvaluator, EvalCache, EvalCacheConfig, EvalOutput};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const ACTIONS: usize = 9;

/// Payload derived purely from the key, so any thread can verify any
/// hit without coordination.
fn payload(key: u64) -> (Vec<f32>, f32) {
    let mut priors = Vec::with_capacity(ACTIONS);
    for a in 0..ACTIONS as u64 {
        priors.push(((key.wrapping_mul(a + 7) % 89) as f32 + 1.0) / 90.0);
    }
    let value = ((key % 2001) as f32 / 1000.0) - 1.0;
    (priors, value)
}

#[test]
fn concurrent_hammer_never_corrupts_entries_or_budget() {
    let cache = Arc::new(EvalCache::new(
        // Tight budget: ~a quarter of the key range fits, so eviction
        // churn runs constantly under the hammer.
        EvalCacheConfig {
            capacity_bytes: 64 * 1024,
            ..Default::default()
        },
        ACTIONS,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let threads = 8;
    let keys_per_thread = 512u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let cache = Arc::clone(&cache);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut out = EvalOutput::default();
            let mut hits = 0u64;
            let mut rounds = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for i in 0..keys_per_thread {
                    // Overlapping ranges: every key is contended by
                    // at least two threads.
                    let key = (t as u64 % 4) * 256 + i;
                    if cache.get(key, &mut out) {
                        let (want_p, want_v) = payload(key);
                        assert_eq!(
                            out.value.to_bits(),
                            want_v.to_bits(),
                            "hit returned another key's value"
                        );
                        assert_eq!(out.priors.len(), ACTIONS);
                        for (got, want) in out.priors.iter().zip(&want_p) {
                            assert!(
                                (got - want).abs() <= 1.5 / 65535.0,
                                "hit priors corrupted: {got} vs {want}"
                            );
                        }
                        hits += 1;
                    } else {
                        let (p, v) = payload(key);
                        cache.insert(key, &p, v);
                    }
                }
                rounds += 1;
            }
            (hits, rounds)
        }));
    }
    // One antagonist thread bumps the epoch mid-flight: lookups racing
    // the bump may miss, but must never return a stale-epoch payload
    // for a *different* key (asserted above by payload identity).
    let bumper = {
        let cache = Arc::clone(&cache);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut bumps = 0;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(20));
                cache.bump_epoch();
                bumps += 1;
            }
            bumps
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(200));
    stop.store(true, Ordering::Relaxed);
    let mut total_hits = 0;
    for h in handles {
        let (hits, rounds) = h.join().unwrap();
        assert!(rounds > 0, "every thread must complete rounds");
        total_hits += hits;
    }
    let bumps = bumper.join().unwrap();
    assert!(bumps >= 1, "the antagonist must have bumped at least once");
    let s = cache.stats();
    assert!(
        s.bytes <= cache.capacity_bytes() as u64,
        "byte budget is hard: {} > {}",
        s.bytes,
        cache.capacity_bytes()
    );
    assert_eq!(s.hits, total_hits, "hit counter matches observed hits");
    assert!(s.inserts > 0 && s.misses >= s.inserts);
    assert!(
        s.evictions > 0,
        "a 64 KiB budget under 1024 keys must evict"
    );
}

/// Deterministic single-sample evaluator for the wrapper hammer.
struct DetEval;

impl BatchEvaluator for DetEval {
    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        for (input, o) in inputs.iter().zip(out.iter_mut()) {
            let (priors, value) = payload(input[0] as u64);
            *o = EvalOutput { priors, value };
        }
    }
    fn action_space(&self) -> usize {
        ACTIONS
    }
    fn input_len(&self) -> usize {
        1
    }
}

#[test]
fn concurrent_cached_evaluator_returns_consistent_outputs() {
    let inner: Arc<dyn BatchEvaluator> = Arc::new(DetEval);
    let cache = Arc::new(EvalCache::new(
        EvalCacheConfig::with_capacity(1 << 20),
        ACTIONS,
    ));
    let cached = Arc::new(CachedEvaluator::new(inner, cache));
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let cached = Arc::clone(&cached);
        handles.push(std::thread::spawn(move || {
            for round in 0..200u64 {
                let key = (t + round) % 64;
                let input = [key as f32];
                let mut out = [EvalOutput::default()];
                cached.evaluate_batch_keyed(&[key], &[&input], &mut out);
                let [out] = out;
                let (want_p, want_v) = payload(key);
                assert_eq!(out.value.to_bits(), want_v.to_bits());
                for (got, want) in out.priors.iter().zip(&want_p) {
                    assert!((got - want).abs() <= 1.5 / 65535.0);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = cached.cache().stats();
    assert_eq!(s.hits + s.misses, 8 * 200);
    assert!(s.hits > 0, "64 keys over 1600 lookups must mostly hit");
}
