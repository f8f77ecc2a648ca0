//! Sharded serving demo: a [`serve::ServeCluster`] front door with
//! admission control absorbing an overload burst — part of the traffic
//! is served across shards (backend affinity keeps same-model sessions
//! together), the overflow is shed with explicit `retry_after` hints,
//! and one session's progress is consumed as a push-style stream.
//! A second, identical burst then replays against the warm evaluation
//! cache shared by every shard, showing the hit rate and latency drop.
//! A final fault act takes one backend through an outage: its circuit
//! breaker walks Closed → Open (requests shed with retry hints) →
//! HalfOpen (recovery probe) → Closed, while a healthy co-resident
//! backend keeps serving throughout.
//!
//! Run: `cargo run --release --example cluster_demo`

use games::{connect4::Connect4, gomoku::Gomoku, Game};
use mcts::{
    BatchEvaluator, Budget, EvalError, EvalOutput, MctsConfig, NnEvaluator, UniformEvaluator,
};
use nn::{NetConfig, PolicyValueNet};
use serve::{
    AdmissionConfig, BreakerState, ClusterConfig, ClusterTicket, Priority, SearchRequest,
    ServeCluster, ServeConfig, StreamItem, TicketStatus,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A uniform-prior backend with an outage switch: while `failing` is
/// set every batch call returns a transient error, so the cluster's
/// retry + circuit-breaker machinery takes over. The small delay on
/// healthy calls keeps the recovery probe observable in `HalfOpen`.
struct FlakyBackend {
    input_len: usize,
    priors: usize,
    failing: AtomicBool,
}

impl BatchEvaluator for FlakyBackend {
    fn input_len(&self) -> usize {
        self.input_len
    }

    fn action_space(&self) -> usize {
        self.priors
    }

    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        self.try_evaluate_batch(inputs, out).unwrap();
    }

    fn try_evaluate_batch(
        &self,
        _inputs: &[&[f32]],
        out: &mut [EvalOutput],
    ) -> Result<(), EvalError> {
        if self.failing.load(Ordering::Acquire) {
            return Err(EvalError::transient("injected backend outage"));
        }
        std::thread::sleep(Duration::from_millis(2));
        let p = 1.0 / self.priors as f32;
        for o in out.iter_mut() {
            o.priors.clear();
            o.priors.resize(self.priors, p);
            o.value = 0.0;
        }
        Ok(())
    }
}

fn cfg(playouts: usize) -> MctsConfig {
    MctsConfig {
        playouts,
        arena_budget_bytes: Some(8 << 20),
        ..Default::default()
    }
}

fn main() {
    // The fault act below makes worker threads unwind on purpose (that
    // is the mechanism being demonstrated); keep the default panic
    // hook's noise out of the demo narration.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let in_worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("serve-worker"));
        if !in_worker {
            default_hook(info);
        }
    }));

    // Two shards, two workers each; every model may hold at most 1200
    // playouts' worth of admitted work in flight and 6 pending sessions.
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 2,
        shard: ServeConfig {
            workers: 2,
            step_quota: 32,
            eval_cache_bytes: Some(64 << 20),
            ..Default::default()
        },
        admission: Some(AdmissionConfig {
            playouts_per_sec: 2_000.0,
            burst_playouts: 1_200,
            max_pending: 6,
            ..Default::default()
        }),
    });
    println!("cluster up: 2 shards × 2 workers, 1200-playout admission burst\n");

    let gomoku_net = Arc::new(PolicyValueNet::new(NetConfig::for_board(4, 9, 9, 81), 2));
    let gomoku_eval: Arc<dyn BatchEvaluator> =
        Arc::new(NnEvaluator::with_batch_hint(gomoku_net, 2));
    let c4_eval: Arc<dyn BatchEvaluator> = Arc::new(UniformEvaluator::for_game(&Connect4::new()));

    let mut gomoku_root = Gomoku::new(9, 5);
    for a in [40u16, 41, 31] {
        gomoku_root.apply(a);
    }

    // Offer more than the admission budget allows: the overflow is shed
    // immediately with a back-off hint instead of growing a queue.
    let mut placed: Vec<(String, ClusterTicket)> = Vec::new();
    for i in 0..8 {
        let req = SearchRequest::new(gomoku_root.clone(), Arc::clone(&gomoku_eval))
            .config(cfg(256))
            .budget(Budget::playouts(256))
            .priority(Priority::Normal);
        match cluster.submit(req) {
            Ok(t) => {
                println!("gomoku #{i}: admitted → shard {}", t.shard());
                placed.push((format!("gomoku #{i}"), t));
            }
            Err(rej) => println!("gomoku #{i}: SHED ({rej})"),
        }
    }
    // A different model has its own bucket: still admitted.
    match cluster.submit(
        SearchRequest::new(Connect4::new(), Arc::clone(&c4_eval))
            .config(cfg(300))
            .budget(Budget::playouts(300))
            .priority(Priority::High),
    ) {
        Ok(t) => {
            println!(
                "connect4  : admitted → shard {} (separate model bucket)",
                t.shard()
            );
            placed.push(("connect4".into(), t));
        }
        Err(rej) => println!("connect4  : SHED ({rej})"),
    }

    // Stream one session's progress instead of polling.
    if let Some((name, ticket)) = placed.first() {
        println!("\nstreaming {name}:");
        for item in ticket.subscribe() {
            match item {
                StreamItem::Partial(snap) => println!(
                    "  snapshot #{:<3} {:>5} playouts, best action {}",
                    snap.stats.seq,
                    snap.stats.playouts,
                    snap.best_action()
                ),
                StreamItem::Final(result, status) => println!(
                    "  final ({status:?}): {} playouts, best action {}",
                    result.stats.playouts,
                    result.best_action()
                ),
            }
        }
    }

    println!(
        "\n{:<12} {:>6} {:>10} {:>10}",
        "request", "shard", "playouts", "latency"
    );
    let mut cold_lat = Vec::new();
    for (name, t) in &placed {
        let r = t.wait();
        let lat = t.latency().unwrap_or_default();
        if name.starts_with("gomoku") {
            cold_lat.push(lat);
        }
        println!(
            "{name:<12} {:>6} {:>10} {:>8.1}ms",
            t.shard(),
            r.stats.playouts,
            lat.as_secs_f64() * 1e3,
        );
    }

    // Replay the same gomoku burst: every shard shares one evaluation
    // cache per backend, so the warm pass answers most NN evaluations
    // from memory regardless of which shard the session lands on.
    let cold_hits = cluster.stats().cache.hits;
    // Honor the rate limiter's back-off before re-offering the burst.
    std::thread::sleep(Duration::from_millis(600));
    let mut warm_lat = Vec::new();
    for _ in 0..cold_lat.len() {
        let req = SearchRequest::new(gomoku_root.clone(), Arc::clone(&gomoku_eval))
            .config(cfg(256))
            .budget(Budget::playouts(256))
            .priority(Priority::Normal);
        if let Ok(t) = cluster.submit(req) {
            t.wait();
            warm_lat.push(t.latency().unwrap_or_default());
        }
    }
    let mean_ms = |v: &[Duration]| {
        v.iter().map(|d| d.as_secs_f64()).sum::<f64>() / v.len().max(1) as f64 * 1e3
    };
    let cache = cluster.stats().cache;
    println!(
        "\nwarm replay: {} sessions, cache hit rate {:.1}% ({} new hits), \
         mean latency {:.1}ms → {:.1}ms",
        warm_lat.len(),
        cache.hit_rate() * 100.0,
        cache.hits - cold_hits,
        mean_ms(&cold_lat),
        mean_ms(&warm_lat),
    );

    // --- fault act: outage, breaker trip, shed, recovery ------------------
    // A flaky backend goes down mid-service. Its failures trip a
    // cluster-wide circuit breaker; further requests for THAT backend
    // are shed with honest retry hints while the healthy connect4
    // backend keeps being admitted and served. After the outage ends,
    // the cooldown expires and a single recovery probe walks the
    // breaker HalfOpen → Closed.
    println!("\nfault act: injected outage on one backend");
    let flaky = Arc::new(FlakyBackend {
        input_len: Connect4::new().encoded_len(),
        priors: Connect4::new().action_space(),
        failing: AtomicBool::new(false),
    });
    let flaky_eval: Arc<dyn BatchEvaluator> = flaky.clone();
    let submit_flaky = |playouts: usize| {
        cluster.submit(
            SearchRequest::new(Connect4::new(), Arc::clone(&flaky_eval))
                .config(cfg(playouts))
                .budget(Budget::playouts(playouts as u64)),
        )
    };
    println!(
        "  breaker before outage: {:?}",
        cluster.backend_health(&flaky_eval)
    );

    flaky.failing.store(true, Ordering::Release);
    // Each doomed session burns its retry budget and fails typed; a few
    // of them push the backend's consecutive-failure streak past the
    // breaker threshold.
    let mut failed_sessions = 0;
    while cluster.backend_health(&flaky_eval) != BreakerState::Open && failed_sessions < 8 {
        let doomed = match submit_flaky(64) {
            Ok(t) => t,
            Err(_) => break, // breaker already shedding at the front door
        };
        if !doomed.wait_timeout(Duration::from_secs(30)).is_finished() {
            println!("  outage session still running (unexpected)");
            break;
        }
        if let TicketStatus::Failed(err) = doomed.status() {
            failed_sessions += 1;
            if failed_sessions == 1 {
                println!("  outage session failed (typed): {err}");
            }
        }
    }
    println!(
        "  breaker after {failed_sessions} failed sessions: {:?}",
        cluster.backend_health(&flaky_eval)
    );
    match submit_flaky(64) {
        Err(rej) => println!("  next request for that backend: SHED ({rej})"),
        Ok(t) => {
            t.cancel();
            println!("  next request unexpectedly admitted");
        }
    }
    // The healthy backend is unaffected: same cluster, own breaker.
    let healthy = cluster
        .submit(
            SearchRequest::new(Connect4::new(), Arc::clone(&c4_eval))
                .config(cfg(200))
                .budget(Budget::playouts(200)),
        )
        .expect("healthy backend admitted during the outage");
    healthy.wait();
    println!("  healthy backend during outage: admitted and completed");

    // Outage over: wait out the cooldown, then watch the recovery
    // probe's breaker states while it runs.
    flaky.failing.store(false, Ordering::Release);
    let probe = loop {
        match submit_flaky(48) {
            Ok(t) => break t,
            Err(rej) => std::thread::sleep(rej.retry_after.min(Duration::from_millis(50))),
        }
    };
    let mut seen: Vec<BreakerState> = Vec::new();
    let poll_deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < poll_deadline {
        let st = cluster.backend_health(&flaky_eval);
        if seen.last() != Some(&st) {
            seen.push(st);
        }
        let settled = matches!(
            probe.status(),
            TicketStatus::Done | TicketStatus::Cancelled | TicketStatus::Failed(_)
        );
        if settled && st == BreakerState::Closed {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    probe.wait();
    let walk: Vec<String> = seen.iter().map(|s| format!("{s:?}")).collect();
    println!("  recovery probe observed breaker: {}", walk.join(" → "));
    println!(
        "  breaker after recovery: {:?}",
        cluster.backend_health(&flaky_eval)
    );

    let stats = cluster.stats();
    let total = stats.total();
    println!(
        "\ncluster totals: {} admitted, {} shed ({} rate-limited, {} queue-full, {} breaker-open)",
        stats.admitted,
        stats.shed(),
        stats.shed_rate_limited,
        stats.shed_queue_full,
        stats.shed_unhealthy
    );
    for (i, s) in stats.per_shard.iter().enumerate() {
        println!(
            "  shard {i}: {} sessions, {} slices, {} playouts, mean eval batch {:.2}",
            s.sessions_completed + s.sessions_cancelled + s.sessions_failed,
            s.steps,
            s.playouts,
            s.mean_eval_batch()
        );
    }
    println!(
        "  all    : {} playouts, mean eval batch {:.2}",
        total.playouts,
        total.mean_eval_batch()
    );
}
