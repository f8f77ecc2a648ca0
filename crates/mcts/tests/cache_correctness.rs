//! Correctness contracts of the evaluation cache ([`mcts::EvalCache`] /
//! [`mcts::CachedEvaluator`]):
//!
//! * **Disabled = invisible.** With no cache wrapper, nothing in the
//!   search path changes — deterministic schemes stay seed-for-seed
//!   identical (the acceptance criterion for existing users).
//! * **Cold cache = bitwise identical.** On a game with no
//!   transpositions, every lookup misses, misses return the inner
//!   evaluator's exact output, and the search is bitwise the same as
//!   the uncached one.
//! * **Warm cache = value-identical, priors within quantization.**
//!   Hits return the stored value bit-for-bit and priors within one
//!   u16 quantization step; search quality (finding a forced win) is
//!   preserved.

use games::synthetic::SyntheticGame;
use games::tictactoe::TicTacToe;
use games::Game;
use mcts::{
    BatchEvaluator, CachedEvaluator, EvalCache, EvalCacheConfig, EvalOutput, MctsConfig,
    ReusableSearch,
};
use std::sync::Arc;

/// Deterministic state-dependent evaluator: priors/value are a pure
/// function of the encoded state, so two runs are comparable and cached
/// answers are checkable against recomputed ones.
struct DetEval {
    input_len: usize,
    actions: usize,
}

impl DetEval {
    fn for_game<G: Game>(g: &G) -> Self {
        DetEval {
            input_len: g.encoded_len(),
            actions: g.action_space(),
        }
    }
}

impl BatchEvaluator for DetEval {
    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        for (input, o) in inputs.iter().zip(out.iter_mut()) {
            let mut h = 0x9e3779b97f4a7c15u64;
            for (i, &x) in input.iter().enumerate() {
                h = h
                    .wrapping_mul(31)
                    .wrapping_add(x.to_bits() as u64)
                    .wrapping_add(i as u64);
            }
            o.priors.clear();
            for a in 0..self.actions as u64 {
                let v = h.wrapping_mul(a + 3).wrapping_add(a) % 97;
                o.priors.push(v as f32 / 97.0 + 0.01);
            }
            let total: f32 = o.priors.iter().sum();
            o.priors.iter_mut().for_each(|p| *p /= total);
            o.value = ((h % 1001) as f32 / 1000.0) - 0.5;
        }
    }

    fn action_space(&self) -> usize {
        self.actions
    }

    fn input_len(&self) -> usize {
        self.input_len
    }
}

fn cache_for(eval: &dyn BatchEvaluator) -> Arc<EvalCache> {
    Arc::new(EvalCache::new(
        EvalCacheConfig::with_capacity(8 << 20),
        eval.action_space(),
    ))
}

#[test]
fn uncached_search_is_seed_for_seed_deterministic() {
    // The disabled-cache baseline the acceptance criterion compares
    // against: two identical searches, identical trees.
    let g = TicTacToe::new();
    let cfg = MctsConfig {
        playouts: 300,
        ..Default::default()
    };
    let mut a = ReusableSearch::one_shot(cfg, Arc::new(DetEval::for_game(&g)));
    let mut b = ReusableSearch::one_shot(cfg, Arc::new(DetEval::for_game(&g)));
    let ra = a.search(&g);
    let rb = b.search(&g);
    assert_eq!(ra.visits, rb.visits);
    assert_eq!(ra.value.to_bits(), rb.value.to_bits());
}

#[test]
fn cold_cache_is_bitwise_identical_on_transposition_free_game() {
    // SyntheticGame hashes its action *path*, so no two states collide:
    // every cache lookup misses, and misses pass the inner evaluator's
    // output through untouched.
    let g = SyntheticGame::new(5, 8, 42);
    let cfg = MctsConfig {
        playouts: 400,
        ..Default::default()
    };
    let plain: Arc<dyn BatchEvaluator> = Arc::new(DetEval::for_game(&g));
    let cached: Arc<dyn BatchEvaluator> = {
        let inner: Arc<dyn BatchEvaluator> = Arc::new(DetEval::for_game(&g));
        let cache = cache_for(inner.as_ref());
        Arc::new(CachedEvaluator::new(inner, cache))
    };
    let mut a = ReusableSearch::one_shot(cfg, plain);
    let mut b = ReusableSearch::one_shot(cfg, cached);
    let ra = a.search(&g);
    let rb = b.search(&g);
    assert_eq!(ra.visits, rb.visits, "all-miss cache must be transparent");
    assert_eq!(ra.value.to_bits(), rb.value.to_bits());
    for (pa, pb) in ra.probs.iter().zip(&rb.probs) {
        assert_eq!(pa.to_bits(), pb.to_bits());
    }
}

#[test]
fn cache_hits_return_bitwise_value_and_quantized_priors() {
    let g = TicTacToe::new();
    let inner: Arc<dyn BatchEvaluator> = Arc::new(DetEval::for_game(&g));
    let cache = cache_for(inner.as_ref());
    let cached = CachedEvaluator::new(Arc::clone(&inner), cache);
    let mut buf = vec![0.0; g.encoded_len()];
    g.encode(&mut buf);
    let (mut miss, mut hit) = ([EvalOutput::default()], [EvalOutput::default()]);
    cached.evaluate_batch_keyed(&[g.hash()], &[&buf], &mut miss);
    cached.evaluate_batch_keyed(&[g.hash()], &[&buf], &mut hit);
    let ([miss], [hit]) = (miss, hit);
    // Value round-trips exactly (stored as f32, not quantized).
    assert_eq!(miss.value.to_bits(), hit.value.to_bits());
    // Priors round-trip within one u16 quantization step.
    assert_eq!(miss.priors.len(), hit.priors.len());
    for (m, h) in miss.priors.iter().zip(&hit.priors) {
        assert!(
            (m - h).abs() <= 1.5 / 65535.0,
            "prior {m} vs dequantized {h}"
        );
    }
    let s = cached.cache().stats();
    assert_eq!((s.hits, s.misses), (1, 1));
}

#[test]
fn warm_cache_preserves_forced_win() {
    // X: 0,1 — O: 3,4. X to move; 2 completes the top row. Search the
    // position twice through one cache: the warm (quantized) pass must
    // still find the win.
    let mut g = TicTacToe::new();
    for a in [0u16, 3, 1, 4] {
        g.apply(a);
    }
    let cfg = MctsConfig {
        playouts: 400,
        ..Default::default()
    };
    let inner: Arc<dyn BatchEvaluator> = Arc::new(DetEval::for_game(&g));
    let cache = cache_for(inner.as_ref());
    let cached: Arc<dyn BatchEvaluator> = Arc::new(CachedEvaluator::new(inner, Arc::clone(&cache)));
    let mut s = ReusableSearch::one_shot(cfg, Arc::clone(&cached));
    let cold = s.search(&g);
    assert_eq!(cold.best_action(), 2, "cold visits {:?}", cold.visits);
    let mut s2 = ReusableSearch::one_shot(cfg, cached);
    let warm = s2.search(&g);
    assert_eq!(warm.best_action(), 2, "warm visits {:?}", warm.visits);
    assert!(warm.value > 0.5);
    assert!(cache.stats().hits > 0, "second search must reuse entries");
}
