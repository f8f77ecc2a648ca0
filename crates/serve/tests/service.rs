//! End-to-end tests of the multi-session serving front end: completion,
//! anytime results, cancellation, priorities, pooling, budgets, and the
//! cross-session batch-coalescing acceptance criterion.

use games::tictactoe::TicTacToe;
use games::{connect4::Connect4, gomoku::Gomoku, Game};
use mcts::{BatchEvaluator, Budget, EvalOutput, MctsConfig, Scheme, UniformEvaluator};
use serve::{Priority, SearchRequest, SearchService, ServeConfig, TicketStatus};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cfg(playouts: usize) -> MctsConfig {
    MctsConfig {
        playouts,
        ..Default::default()
    }
}

fn service(workers: usize, step_quota: usize) -> SearchService {
    SearchService::new(ServeConfig {
        workers,
        step_quota,
        max_pooled: 8,
        ..Default::default()
    })
}

fn uniform() -> Arc<UniformEvaluator> {
    Arc::new(UniformEvaluator::for_game(&TicTacToe::new()))
}

#[test]
fn single_request_completes_with_exact_budget() {
    let s = service(2, 16);
    let t = s.submit(SearchRequest::new(TicTacToe::new(), uniform()).config(cfg(100)));
    let r = t.wait();
    assert_eq!(r.stats.playouts, 100);
    assert_eq!(r.visits.iter().sum::<u32>(), 99);
    assert_eq!(t.status(), TicketStatus::Done);
    assert!(t.latency().is_some());
    assert_eq!(s.stats().sessions_completed, 1);
}

#[test]
fn request_budget_overrides_config() {
    let s = service(2, 16);
    let t = s.submit(
        SearchRequest::new(TicTacToe::new(), uniform())
            .config(cfg(10_000))
            .budget(Budget::playouts(48)),
    );
    assert_eq!(t.wait().stats.playouts, 48);
}

#[test]
fn burst_of_concurrent_sessions_all_complete() {
    let s = service(4, 32);
    let eval = uniform();
    let tickets: Vec<_> = (0..16)
        .map(|i| {
            s.submit(
                SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>)
                    .config(cfg(150 + i)),
            )
        })
        .collect();
    for (i, t) in tickets.iter().enumerate() {
        let r = t.wait();
        assert_eq!(r.stats.playouts, (150 + i) as u64, "session {i}");
    }
    let st = s.stats();
    assert_eq!(st.sessions_completed, 16);
    assert!(st.steps >= 16 * 4, "sessions must be sliced, not one-shot");
}

#[test]
fn anytime_partial_results_are_available_mid_run() {
    let s = service(1, 8);
    // A long session sliced finely: partial snapshots must appear well
    // before completion.
    let t = s.submit(SearchRequest::new(TicTacToe::new(), uniform()).config(cfg(4000)));
    let deadline = Instant::now() + Duration::from_secs(20);
    let partial = loop {
        if let Some(p) = t.partial() {
            if p.stats.playouts > 0 && t.poll().is_none() {
                break Some(p);
            }
        }
        if t.poll().is_some() || Instant::now() >= deadline {
            break None;
        }
        std::thread::yield_now();
    };
    if let Some(p) = partial {
        assert!(p.stats.playouts < 4000, "snapshot precedes completion");
        assert!(p.visits.iter().sum::<u32>() > 0);
    }
    let r = t.wait();
    assert_eq!(r.stats.playouts, 4000);
}

#[test]
fn cancellation_resolves_with_partial_result() {
    let s = service(1, 8);
    // Two long sessions; cancel the second while the first hogs the
    // single worker.
    let a = s.submit(SearchRequest::new(TicTacToe::new(), uniform()).config(cfg(2000)));
    let b = s.submit(SearchRequest::new(TicTacToe::new(), uniform()).config(cfg(1_000_000)));
    b.cancel();
    let rb = b.wait();
    assert_eq!(b.status(), TicketStatus::Cancelled);
    assert!(
        rb.stats.playouts < 1_000_000,
        "cancelled long before the budget"
    );
    // The final result of a cancelled session is its anytime partial —
    // a full-action-space distribution, not an empty default.
    assert_eq!(rb.visits.len(), 9, "partial-at-cancellation preserved");
    assert_eq!(a.wait().stats.playouts, 2000);
    assert_eq!(s.stats().sessions_cancelled, 1);
}

#[test]
fn high_priority_sessions_jump_the_queue() {
    // One worker, fine slices: a later high-priority session must finish
    // before earlier low-priority ones (it wins every pop until done).
    let s = service(1, 16);
    let eval = uniform();
    let low: Vec<_> = (0..4)
        .map(|_| {
            s.submit(
                SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>)
                    .config(cfg(1200))
                    .priority(Priority::Low),
            )
        })
        .collect();
    let high = s.submit(
        SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>)
            .config(cfg(1200))
            .priority(Priority::High),
    );
    let _ = high.wait();
    let high_latency = high.latency().unwrap();
    for t in &low {
        let _ = t.wait();
    }
    let slowest_low = low.iter().map(|t| t.latency().unwrap()).max().unwrap();
    assert!(
        high_latency < slowest_low,
        "high priority ({high_latency:?}) must beat the slowest low ({slowest_low:?})"
    );
}

#[test]
fn time_budget_resolves_promptly() {
    let s = service(2, 64);
    let t0 = Instant::now();
    let t = s.submit(
        SearchRequest::new(TicTacToe::new(), uniform())
            .config(cfg(50_000_000))
            .budget(Budget::time(Duration::from_millis(20))),
    );
    let r = t.wait();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "deadline must end the session"
    );
    assert!(r.stats.playouts > 0, "some playouts completed");
    assert!(r.stats.playouts < 50_000_000);
}

#[test]
fn every_pooled_session_is_held_to_its_own_memory_bound() {
    // Regression: a pooled searcher took the request's config without its
    // budget, so `max_bytes` bound the first session on a fresh searcher
    // and no later one (request 2 held 31 684 nodes).
    let bound = 2_000;
    let game = Gomoku::new(9, 5);
    let budget = Budget::playouts(400).with_max_bytes(bound * mcts::NodeArena::slot_bytes());
    let s = service(1, 64);
    let eval = Arc::new(UniformEvaluator::for_game(&game));
    for request in 1..=3 {
        let t = s.submit(SearchRequest::new(game.clone(), eval.clone()).budget(budget));
        let r = t.wait();
        assert_eq!(r.stats.playouts, 400);
        assert!(
            r.stats.nodes as usize <= bound,
            "request {request}: {} nodes over a {bound}-slot bound",
            r.stats.nodes
        );
    }
}

#[test]
fn warmed_searchers_are_pooled_across_sessions() {
    let s = service(2, 32);
    let eval = uniform();
    for round in 0..3 {
        let tickets: Vec<_> = (0..4)
            .map(|_| {
                s.submit(
                    SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>)
                        .config(cfg(80)),
                )
            })
            .collect();
        for t in tickets {
            assert_eq!(t.wait().stats.playouts, 80, "round {round}");
        }
    }
    assert_eq!(s.stats().sessions_completed, 12);
}

#[test]
fn mixed_games_share_one_service() {
    let s = service(3, 32);
    let ttt = s.submit(SearchRequest::new(TicTacToe::new(), uniform()).config(cfg(90)));
    let gomoku_root = Gomoku::new(7, 5);
    let gomoku = s.submit(
        SearchRequest::new(
            gomoku_root.clone(),
            Arc::new(UniformEvaluator::for_game(&gomoku_root)) as Arc<_>,
        )
        .config(cfg(90)),
    );
    let c4_root = Connect4::new();
    let c4 = s.submit(
        SearchRequest::new(
            c4_root,
            Arc::new(UniformEvaluator::for_game(&c4_root)) as Arc<_>,
        )
        .config(cfg(90))
        .scheme(Scheme::LeafParallel),
    );
    assert_eq!(ttt.wait().visits.len(), 9);
    assert_eq!(gomoku.wait().visits.len(), 49);
    assert_eq!(c4.wait().visits.len(), c4_root.action_space());
}

#[test]
fn non_serial_schemes_run_as_sessions() {
    let s = service(2, 32);
    for scheme in [Scheme::SharedTree, Scheme::LocalTree, Scheme::Speculative] {
        let t = s.submit(
            SearchRequest::new(TicTacToe::new(), uniform())
                .config(MctsConfig {
                    playouts: 120,
                    workers: 2,
                    ..Default::default()
                })
                .scheme(scheme),
        );
        let r = t.wait();
        assert!(r.stats.playouts >= 120, "{scheme}: {}", r.stats.playouts);
    }
}

#[test]
fn dropping_the_service_resolves_outstanding_tickets() {
    let s = service(1, 8);
    let tickets: Vec<_> = (0..6)
        .map(|_| s.submit(SearchRequest::new(TicTacToe::new(), uniform()).config(cfg(500_000))))
        .collect();
    drop(s);
    for t in tickets {
        // Every ticket must resolve (no hang); the results are partial.
        let r = t.wait();
        assert!(r.stats.playouts < 500_000);
    }
}

/// A batching evaluator with a per-round fixed cost: coalescing across
/// sessions visibly pays (one sleep serves the whole batch).
struct SlowBatchEval {
    input_len: usize,
    actions: usize,
    delay: Duration,
}

impl BatchEvaluator for SlowBatchEval {
    fn input_len(&self) -> usize {
        self.input_len
    }
    fn action_space(&self) -> usize {
        self.actions
    }
    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        std::thread::sleep(self.delay);
        for o in out.iter_mut() {
            o.priors.clear();
            o.priors.resize(self.actions, 1.0 / self.actions as f32);
            o.value = 0.0;
        }
        let _ = inputs;
    }
    fn preferred_batch(&self) -> usize {
        8
    }
}

fn coalescing_run(workers: usize, sessions: usize) -> f64 {
    let s = service(workers, 16);
    let eval: Arc<dyn BatchEvaluator> = Arc::new(SlowBatchEval {
        input_len: 36,
        actions: 9,
        delay: Duration::from_millis(1),
    });
    let tickets: Vec<_> = (0..sessions)
        .map(|_| s.submit(SearchRequest::new(TicTacToe::new(), Arc::clone(&eval)).config(cfg(48))))
        .collect();
    for t in tickets {
        assert_eq!(t.wait().stats.playouts, 48);
    }
    let st = s.stats();
    assert!(st.eval_batches > 0, "coalescing layer must have been used");
    st.mean_eval_batch()
}

#[test]
fn cross_session_coalescing_fills_larger_batches_than_serial() {
    // Acceptance criterion: the same requests served concurrently must
    // produce larger mean inference batches than served one at a time.
    let serial_mean = coalescing_run(1, 6);
    let multi_mean = coalescing_run(4, 6);
    assert!(
        (serial_mean - 1.0).abs() < 1e-9,
        "one worker ⇒ no cross-session batching, got {serial_mean}"
    );
    assert!(
        multi_mean > 1.2,
        "concurrent sessions must coalesce: mean batch {multi_mean}"
    );
}

#[test]
fn a_default_config_serves_a_backend_whose_batches_pay() {
    // Nothing in `ServeConfig` sits between such a backend and its own
    // forward time: rounds wait t(b), however long that is.
    let s = SearchService::new(ServeConfig::default());
    let delay = Duration::from_millis(1);
    let eval: Arc<dyn BatchEvaluator> = Arc::new(SlowBatchEval {
        input_len: 36,
        actions: 9,
        delay,
    });
    let tickets: Vec<_> = (0..2)
        .map(|_| s.submit(SearchRequest::new(TicTacToe::new(), Arc::clone(&eval)).config(cfg(48))))
        .collect();
    for t in tickets {
        assert_eq!(t.wait().stats.playouts, 48);
        assert_eq!(t.status(), TicketStatus::Done);
    }
    let report = &s.autotune_reports()[0];
    assert!(report.batch > 1, "{report:?}");
    assert!(report.window_us >= delay.as_micros() as u64, "{report:?}");
}

#[test]
fn batch_fill_grows_with_offered_concurrency() {
    // Regression: the coalescing bound used to be
    // `preferred_batch().min(workers)`, pinning mean batch at the
    // worker count (a two-worker service measured a hard 2.000 mean
    // batch) no matter how many sessions were offered. The bound must track
    // the backend's capacity so more offered concurrency keeps
    // filling rounds.
    let at = |workers: usize| coalescing_run(workers, 12);
    let narrow = at(2);
    let wide = at(6);
    assert!(
        wide > narrow + 0.5,
        "batch fill must grow with offered concurrency: {narrow} -> {wide}"
    );
    assert!(
        wide > 2.2,
        "six concurrent steppers must beat the old two-worker pin, got {wide}"
    );
}

#[test]
fn autotune_reports_cover_registered_batching_backends() {
    let s = SearchService::new(ServeConfig {
        workers: 2,
        step_quota: 16,
        max_pooled: 4,
        ..Default::default()
    });
    assert!(s.autotune_reports().is_empty(), "no backend yet");
    let eval: Arc<dyn BatchEvaluator> = Arc::new(SlowBatchEval {
        input_len: 36,
        actions: 9,
        delay: Duration::from_micros(200),
    });
    let t = s.submit(SearchRequest::new(TicTacToe::new(), Arc::clone(&eval)).config(cfg(64)));
    assert_eq!(t.wait().stats.playouts, 64);
    let reports = s.autotune_reports();
    assert_eq!(reports.len(), 1, "one tuner per batching backend");
    let r = &reports[0];
    assert!(r.calibrated, "registration ran the calibration pass");
    assert!((1..=8).contains(&r.batch), "operating point within bounds");
    assert_eq!(r.curve.len(), 4, "buckets 1,2,4,8 all seeded");
    assert!(r.positions_per_sec > 0.0);
    // Uniform (non-batching) backends never get a tuner.
    let t = s.submit(SearchRequest::new(TicTacToe::new(), uniform()).config(cfg(32)));
    t.wait();
    assert_eq!(s.autotune_reports().len(), 1);
}

/// Backend that counts how many samples actually reach it, so cache
/// hits are visible as saved inference work.
struct CountingBackend {
    input_len: usize,
    actions: usize,
    samples: std::sync::atomic::AtomicU64,
}

impl CountingBackend {
    fn for_tictactoe() -> Self {
        let g = TicTacToe::new();
        CountingBackend {
            input_len: g.encoded_len(),
            actions: g.action_space(),
            samples: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn samples(&self) -> u64 {
        self.samples.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl BatchEvaluator for CountingBackend {
    fn input_len(&self) -> usize {
        self.input_len
    }
    fn action_space(&self) -> usize {
        self.actions
    }
    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        self.samples
            .fetch_add(inputs.len() as u64, std::sync::atomic::Ordering::Relaxed);
        for o in out.iter_mut() {
            o.priors.clear();
            o.priors.resize(self.actions, 1.0 / self.actions as f32);
            o.value = 0.0;
        }
    }
}

fn cached_service(cache_bytes: Option<usize>) -> SearchService {
    SearchService::new(ServeConfig {
        workers: 2,
        step_quota: 32,
        max_pooled: 8,
        eval_cache_bytes: cache_bytes,
        ..Default::default()
    })
}

#[test]
fn eval_cache_answers_repeated_positions_from_memory() {
    let s = cached_service(Some(8 << 20));
    let eval = Arc::new(CountingBackend::for_tictactoe());
    // Warm: a deterministic serial search from the root evaluates a
    // fixed set of positions, all misses.
    let t = s
        .submit(SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(cfg(200)));
    assert_eq!(t.wait().stats.playouts, 200);
    let warm = s.stats();
    // Even the first run can hit: tictactoe reaches the same position
    // by different move orders, and the cache serves those too.
    assert!(warm.cache_misses > 0, "cold run must record misses");
    assert!(warm.cache_bytes > 0, "entries are resident");
    let cold_samples = eval.samples();
    // Replay the identical request: the same positions come straight
    // from the cache and the backend sees (almost) no new samples.
    let t = s
        .submit(SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(cfg(200)));
    assert_eq!(t.wait().stats.playouts, 200);
    let st = s.stats();
    assert!(st.cache_hits > warm.cache_hits, "warm run must hit: {st:?}");
    assert!(st.cache_hit_rate() > 0.0);
    assert_eq!(
        eval.samples(),
        cold_samples,
        "a fully warmed identical search must not touch the backend"
    );
    assert!(s.cache_stats().is_some());
}

#[test]
fn eval_cache_disabled_by_default_and_reports_zeros() {
    let s = cached_service(None);
    let eval = Arc::new(CountingBackend::for_tictactoe());
    for _ in 0..2 {
        let t = s.submit(
            SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(cfg(120)),
        );
        assert_eq!(t.wait().stats.playouts, 120);
    }
    let st = s.stats();
    assert_eq!(st.cache_hits, 0);
    assert_eq!(st.cache_misses, 0);
    assert_eq!(st.cache_bytes, 0);
    assert_eq!(st.cache_hit_rate(), 0.0);
    assert!(s.cache_stats().is_none(), "no registry when disabled");
}

#[test]
fn eval_cache_invalidation_forces_fresh_evaluations() {
    let s = cached_service(Some(8 << 20));
    let eval = Arc::new(CountingBackend::for_tictactoe());
    let submit = || {
        let t = s.submit(
            SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(cfg(150)),
        );
        t.wait()
    };
    submit();
    let cold_samples = eval.samples();
    submit();
    assert_eq!(eval.samples(), cold_samples, "warm replay is free");
    // Simulate an in-place weight swap: every cached answer is stale.
    s.invalidate_eval_cache();
    submit();
    assert!(
        eval.samples() > cold_samples,
        "invalidated cache must re-evaluate"
    );
}
