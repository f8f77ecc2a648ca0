//! The common interface of all search schemes and their outputs.

use crate::budget::{Budget, StepOutcome};
use games::Action;

/// Timing/accounting breakdown of one search call. Times are wall-clock
/// nanoseconds accumulated inside the scheme; parallel schemes report the
/// *sum across workers* for the per-phase counters and the elapsed move
/// time separately.
///
/// In the schemes that run the single-owner playout loop one playout at a
/// time (serial with and without reuse, leaf-parallel, speculative) the
/// three stage clocks are **chained**: one clock reading ends a stage and
/// starts the next, so every nanosecond of a `step` lands in exactly one
/// of `select_ns`, `eval_ns`, `backup_ns` and the three add up to
/// `move_ns`, the run's active time. Root-parallel sums its workers'
/// chained clocks (they overlap in time, so the sum exceeds `move_ns`);
/// the local-tree master times its selections and backups one by one and
/// takes `eval_ns` from its inference workers; the shared tree times
/// evaluation per worker and splits the rest of its workers' time 2 : 1
/// between selection and backup.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// Playouts completed (== requested playouts on success).
    pub playouts: u64,
    /// Total time inside Node Selection (sum over workers), ns. On a
    /// chained clock: everything from the end of the previous stage to the
    /// end of the tree walk — the gate check, the root clone, the descent
    /// and the claim of the leaf's child block — plus, once per `step`,
    /// what follows the last playout.
    pub select_ns: u64,
    /// Total time inside Node Expansion + BackUp (sum over workers), ns.
    /// On a chained clock it starts where evaluation ended, so it also
    /// holds the hand-over of the evaluator's output (and, on a
    /// transposition hit, the index lookup that replaced the evaluation).
    pub backup_ns: u64,
    /// Total time inside Node Evaluation / DNN inference, ns. On a chained
    /// clock it starts where selection ended: hashing and encoding the
    /// state count as evaluation.
    pub eval_ns: u64,
    /// Wall-clock time of the whole move, ns.
    pub move_ns: u64,
    /// Playout attempts aborted because the leaf was being evaluated by
    /// another in-flight playout (collisions despite virtual loss).
    pub collisions: u64,
    /// Live nodes in the tree at the end of the search.
    pub nodes: u64,
    /// Nodes reclaimed onto the arena free-list since the previous search
    /// on the same tree (in-place re-rooting and capacity eviction). For
    /// a scheme that starts every move from a bare root this is the run's
    /// own eviction count: 0 unless a memory bound is set and was hit
    /// (resetting the kept arena at `begin` is not counted — the tree's
    /// own [`TreeStats::reclaimed_total`](crate::TreeStats) counts it).
    pub reclaimed: u64,
    /// Snapshot sequence number: completed [`SearchScheme::step`] calls
    /// of the run when this snapshot was taken. Strictly monotone within
    /// a run, so streaming consumers can order and deduplicate anytime
    /// snapshots; 0 for a run that was never stepped.
    pub seq: u64,
    /// Expansions served from the per-tree transposition index instead
    /// of a fresh evaluation (see [`crate::MctsConfig::transpositions`]).
    /// Always 0 when the index is disabled or unsupported by the scheme.
    pub tt_hits: u64,
}

impl SearchStats {
    /// Amortized per-worker-iteration latency (paper §5.3): the total move
    /// time divided by the number of playouts.
    pub fn amortized_iteration_ns(&self) -> f64 {
        if self.playouts == 0 {
            0.0
        } else {
            self.move_ns as f64 / self.playouts as f64
        }
    }

    /// Fraction of (select + backup + eval) time spent on in-tree
    /// operations — the quantity behind the paper's ">85% of runtime is
    /// tree-based search" motivation when evaluation is cheap.
    pub fn in_tree_fraction(&self) -> f64 {
        let total = self.select_ns + self.backup_ns + self.eval_ns;
        if total == 0 {
            0.0
        } else {
            (self.select_ns + self.backup_ns) as f64 / total as f64
        }
    }
}

/// The outcome of one tree-based search ("one move", Algorithms 2/3).
#[derive(Debug, Clone, Default)]
pub struct SearchResult {
    /// Normalized root visit distribution over the full action space
    /// ("action_prior ← normalized root's children list wrt visit count").
    pub probs: Vec<f32>,
    /// Raw root visit counts per action.
    pub visits: Vec<u32>,
    /// Root value estimate (mean backed-up value, current player's view).
    pub value: f32,
    /// Timing/accounting.
    pub stats: SearchStats,
}

impl SearchResult {
    /// The most-visited action (greedy move choice, Algorithm 1 line 10).
    ///
    /// Edge cases are fully defined: ties break toward the **lowest**
    /// action index (deterministic across runs and platforms), and an
    /// all-zero visit vector — a search that never expanded the root,
    /// e.g. zero completed playouts or a terminal root — falls back to
    /// the highest-prior action, then to action 0.
    pub fn best_action(&self) -> Action {
        let mut best = 0usize;
        for (i, &v) in self.visits.iter().enumerate() {
            // Strict `>`: the first maximum wins, so ties are stable.
            if v > self.visits[best] {
                best = i;
            }
        }
        if self.visits.is_empty() || self.visits[best] > 0 {
            return best as Action;
        }
        // No visits anywhere: the prior is the only signal left.
        let mut by_prior = 0usize;
        for (i, &p) in self.probs.iter().enumerate() {
            if p > self.probs[by_prior] {
                by_prior = i;
            }
        }
        by_prior as Action
    }

    /// Sample an action from visit counts sharpened by `1/temperature`.
    ///
    /// `temperature → 0` recovers [`SearchResult::best_action`] exactly
    /// (argmax with the same deterministic tie-breaking); `1.0` samples
    /// proportionally to visits. Weights are normalized by the maximum
    /// visit count before exponentiation, so small temperatures cannot
    /// overflow to `inf`/NaN no matter how large the counts are, and an
    /// all-zero visit vector falls back to `best_action()`.
    ///
    /// **Allocation-free**: the weights are recomputed during the CDF
    /// walk instead of staged in a scratch vector, so per-move sampling
    /// in a serving loop stays off the heap (see
    /// `tests/alloc_steady_state.rs`).
    pub fn sample_action<R: rand::Rng + ?Sized>(&self, temperature: f32, rng: &mut R) -> Action {
        if temperature < 1e-3 {
            return self.best_action();
        }
        let max_v = self.visits.iter().copied().max().unwrap_or(0);
        if max_v == 0 {
            return self.best_action();
        }
        let inv_t = 1.0 / temperature as f64;
        // (v / max)^1/t ∈ [0, 1]: immune to overflow for any t > 0.
        let weight = |v: u32| (v as f64 / max_v as f64).powf(inv_t);
        let total: f64 = self.visits.iter().map(|&v| weight(v)).sum();
        if total <= 0.0 || !total.is_finite() {
            return self.best_action();
        }
        let mut u = rng.gen_range(0.0..total);
        // Second pass re-derives each weight: two `powf`s per action
        // beat a heap allocation per sampled move.
        for (i, &v) in self.visits.iter().enumerate() {
            let w = weight(v);
            if u < w {
                return i as Action;
            }
            u -= w;
        }
        self.best_action()
    }
}

/// A tree-based search scheme (one of the paper's parallel methods or a
/// baseline).
///
/// # Resumable execution
///
/// Search is an incremental, schedulable unit: [`SearchScheme::begin`]
/// opens a run from a root state under a [`Budget`], repeated
/// [`SearchScheme::step`] calls advance it by a bounded number of
/// playouts, [`SearchScheme::partial_result`] snapshots the anytime
/// result, and [`SearchScheme::cancel`] abandons the run (leaving the
/// scheme reusable). [`SearchScheme::search`] — `get_action_prior` in
/// Algorithms 2/3 — is a provided thin loop over `step`, so one-shot
/// callers never see the state machine.
///
/// Contract common to every implementation:
///
/// * `begin` implicitly cancels any still-active run;
/// * `step` with no active run returns [`StepOutcome::Done`] and does
///   nothing; `step` must be driven with the same game type `G` as the
///   `begin` that opened the run (panics otherwise);
/// * between `step` calls the run's tree is quiescent enough to snapshot:
///   `partial_result` is exact over all *completed* playouts (pipelined
///   schemes may hold evaluations in flight across steps — their virtual
///   loss is not part of the snapshot);
/// * `cancel` drains or reverts any in-flight work, so a retained tree
///   (reuse scheme) stays consistent and a subsequent `begin`/`advance`
///   behaves as if the cancelled run had been a shorter search.
pub trait SearchScheme<G: games::Game>: Send {
    /// Open a resumable run from `root` under `budget` (playouts and
    /// bytes left `None` inherit the scheme's config; `time` left `None`
    /// means no deadline). Any active run is cancelled.
    fn begin(&mut self, root: &G, budget: Budget);

    /// Advance the active run by roughly `quota` completed playouts.
    /// Blocks while those playouts execute (parallel schemes use their
    /// worker pools internally) and returns whether budget remains.
    /// `quota` is a pacing hint, not an exact count: pipelined schemes
    /// may complete a few extra playouts as in-flight evaluations drain,
    /// and a deadline can end the step early. `usize::MAX` runs the whole
    /// remaining budget in one call.
    fn step(&mut self, quota: usize) -> StepOutcome;

    /// Anytime snapshot of the active (or just-finished) run: the root
    /// visit distribution over all completed playouts, plus accumulated
    /// stats (`move_ns` counts time spent inside `step` calls, not time
    /// parked between them). Returns an empty default when no run was
    /// ever begun.
    fn partial_result(&self) -> SearchResult;

    /// Abandon the active run. In-flight evaluations are drained (their
    /// virtual loss released), so tree invariants hold afterwards; with
    /// the `invariants` cargo feature the full invariant walk runs here.
    /// No-op when no run is active.
    fn cancel(&mut self);

    /// Run one move's worth of playouts from `root`: a thin loop over
    /// the resumable API, equivalent to `begin` + `step`-to-completion +
    /// `partial_result`.
    fn search(&mut self, root: &G) -> SearchResult {
        self.begin(root, Budget::default());
        while self.step(usize::MAX) == StepOutcome::Running {}
        let result = self.partial_result();
        self.cancel();
        result
    }

    /// Report that `action` was actually played from the last-searched
    /// state. Stateless schemes ignore this (the default); stateful
    /// schemes (tree reuse) re-root their retained tree. Self-play
    /// drivers call it after every applied move.
    fn advance(&mut self, action: Action) {
        let _ = action;
    }

    /// Discard any state retained across moves (e.g. when a new game
    /// starts). No-op for stateless schemes. Match drivers call it at
    /// the start of every game.
    fn reset(&mut self) {}

    /// Short scheme identifier for logs/plots.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn result_with_visits(visits: Vec<u32>) -> SearchResult {
        let total: u32 = visits.iter().sum();
        let probs = visits.iter().map(|&v| v as f32 / total as f32).collect();
        SearchResult {
            probs,
            visits,
            value: 0.0,
            stats: SearchStats::default(),
        }
    }

    #[test]
    fn best_action_is_argmax() {
        let r = result_with_visits(vec![1, 5, 3]);
        assert_eq!(r.best_action(), 1);
    }

    #[test]
    fn zero_temperature_is_greedy() {
        let r = result_with_visits(vec![10, 90]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(r.sample_action(0.0, &mut rng), 1);
        }
    }

    #[test]
    fn temperature_one_samples_proportionally() {
        let r = result_with_visits(vec![100, 900]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let n = 5000;
        let ones = (0..n)
            .filter(|_| r.sample_action(1.0, &mut rng) == 1)
            .count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.03, "sampled fraction {frac}");
    }

    #[test]
    fn low_temperature_sharpens() {
        let r = result_with_visits(vec![400, 600]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 2000;
        let sharp = (0..n)
            .filter(|_| r.sample_action(0.25, &mut rng) == 1)
            .count() as f64
            / n as f64;
        assert!(sharp > 0.75, "sharpened fraction {sharp}");
    }

    #[test]
    fn best_action_ties_break_to_lowest_index() {
        let r = result_with_visits(vec![3, 7, 7, 7, 1]);
        assert_eq!(r.best_action(), 1, "first maximum must win");
        let r = result_with_visits(vec![5, 5]);
        assert_eq!(r.best_action(), 0);
    }

    #[test]
    fn best_action_all_zero_visits_uses_priors() {
        let r = SearchResult {
            probs: vec![0.1, 0.2, 0.6, 0.1],
            visits: vec![0, 0, 0, 0],
            value: 0.0,
            stats: SearchStats::default(),
        };
        assert_eq!(r.best_action(), 2, "prior argmax when nothing visited");
    }

    #[test]
    fn best_action_all_zero_everything_is_zero() {
        let r = SearchResult {
            probs: vec![0.0; 3],
            visits: vec![0; 3],
            value: 0.0,
            stats: SearchStats::default(),
        };
        assert_eq!(r.best_action(), 0, "fully-empty result defaults to 0");
    }

    #[test]
    fn sample_action_zero_visits_is_defined() {
        let r = SearchResult {
            probs: vec![0.0, 1.0],
            visits: vec![0, 0],
            value: 0.0,
            stats: SearchStats::default(),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for t in [0.0f32, 0.5, 1.0, 4.0] {
            assert_eq!(r.sample_action(t, &mut rng), 1, "temperature {t}");
        }
    }

    #[test]
    fn tiny_temperature_matches_argmax_without_overflow() {
        // Large counts + temperature just above the argmax cutoff: the
        // naive v^(1/t) overflows every weight to inf and samples
        // garbage; max-normalized weights stay finite and sharp.
        let r = result_with_visits(vec![100_000, 10, 1]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for _ in 0..50 {
            assert_eq!(r.sample_action(1.5e-3, &mut rng), 0);
        }
    }

    #[test]
    fn stats_amortized_latency() {
        let s = SearchStats {
            playouts: 1600,
            move_ns: 1_600_000,
            ..Default::default()
        };
        assert_eq!(s.amortized_iteration_ns(), 1000.0);
        assert_eq!(SearchStats::default().amortized_iteration_ns(), 0.0);
    }

    #[test]
    fn stats_in_tree_fraction() {
        let s = SearchStats {
            select_ns: 60,
            backup_ns: 25,
            eval_ns: 15,
            ..Default::default()
        };
        assert!((s.in_tree_fraction() - 0.85).abs() < 1e-9);
    }
}
