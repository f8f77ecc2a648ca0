//! Emit `BENCH_serve.json`: the machine-readable serving-performance
//! record, seven axes:
//!
//! * `sessions` — requests/second and p50/p99 submit→finish latency of
//!   one multi-session [`serve::SearchService`] as the number of
//!   concurrent sessions grows;
//! * `cluster` — aggregate requests/second of a [`serve::ServeCluster`]
//!   as the shard count grows over a fixed total worker budget (the
//!   sharding scaling axis; on a single-core host this documents
//!   parity);
//! * `shedding` — an overload burst against a small admission budget:
//!   offered vs admitted vs shed counts, the mean `retry_after` hint,
//!   and the (bounded) wall time to drain what was admitted;
//! * `coalescing` — the cross-session batch-fill figure: mean inference
//!   batch of the same burst served serially vs multiplexed;
//! * `cache` — the evaluation-cache figure: the same repeated-position
//!   workload served with [`serve::ServeConfig::eval_cache_bytes`] off
//!   vs on, with the realized hit rate and the throughput ratio;
//! * `degradation` — the fault-containment figure: a two-backend
//!   cluster where one backend is wrapped in a seeded fault injector
//!   swept over 0% / 5% / 20% fault rates while a healthy co-resident
//!   backend serves the same interleaved burst. Reports per-backend
//!   req/s, p99 latency and done/failed/shed counts; the healthy
//!   column staying flat across the sweep is the containment evidence;
//! * `network` — the wire-protocol figure: the same workload offered by
//!   real [`net::Client`] connections over loopback TCP. A closed-loop
//!   run at the in-process concurrency proves the framing tax (admitted
//!   throughput within a few percent of the in-process figure), then an
//!   open-loop sweep offers 0.5×/2×/4× the measured capacity against an
//!   admission budget sized *to* that capacity — the top of the sweep
//!   overloads the server and the excess is shed with nonzero
//!   `retry_after` hints while admitted throughput holds.
//!
//! Usage: `bench_serve [--smoke] [out_path]` (default
//! `BENCH_serve.json`). `--smoke` (or env `BENCH_SMOKE=1`) shrinks the
//! budgets and matrices so CI can prove the binary (including the
//! cluster + shedding paths) runs without paying measurement time.
//! Timings are never gated on. `check_serve_schema` validates the
//! emitted schema in CI so the perf trajectory stays machine-readable.

use games::gomoku::Gomoku;
use games::Game;
use mcts::{BatchEvaluator, Budget, ChaosConfig, ChaosEvaluator, MctsConfig, NnEvaluator};
use nn::{NetConfig, PolicyValueNet};
use serve::{
    AdmissionConfig, ClusterConfig, LeastLoaded, SearchRequest, SearchService, ServeCluster,
    ServeConfig, TicketStatus,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A 9×9 Gomoku position a few plies in (same state every run).
fn midgame() -> Gomoku {
    let mut g = Gomoku::new(9, 5);
    for a in [40u16, 41, 31, 49, 39] {
        g.apply(a);
    }
    g
}

fn request(
    root: &Gomoku,
    eval: &Arc<dyn BatchEvaluator>,
    playouts: usize,
) -> SearchRequest<Gomoku> {
    let cfg = MctsConfig {
        playouts,
        arena_budget_bytes: Some(16 << 20),
        ..Default::default()
    };
    SearchRequest::new(root.clone(), Arc::clone(eval))
        .config(cfg)
        .budget(Budget::playouts(playouts as u64))
}

fn serve_cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        step_quota: 32,
        max_pooled: 2 * workers,
        ..Default::default()
    }
}

struct RunFigures {
    requests_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_eval_batch: f64,
}

/// Linearly interpolated percentiles over the per-request latency
/// vector. Nearest-rank rounding collapsed p50 and p99 onto the same
/// order statistic at small sample counts (the old p50 == p99 artifact);
/// interpolation keeps them distinct and monotone (p99 ≥ p50 by
/// construction), which `check_serve_schema` now asserts.
fn percentiles(latencies: &mut [Duration]) -> (f64, f64) {
    latencies.sort_unstable();
    let pct = |p: f64| -> f64 {
        let rank = (latencies.len() - 1) as f64 * p;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        (latencies[lo].as_secs_f64() * (1.0 - frac) + latencies[hi].as_secs_f64() * frac) * 1e3
    };
    (pct(0.50), pct(0.99))
}

/// Submit `sessions` identical requests to a `workers`-thread service
/// and wait for all of them; latencies are measured service-side.
fn run_service(
    workers: usize,
    sessions: usize,
    playouts: usize,
    eval: &Arc<dyn BatchEvaluator>,
    root: &Gomoku,
) -> RunFigures {
    let service = SearchService::new(serve_cfg(workers));
    let t0 = Instant::now();
    let tickets: Vec<_> = (0..sessions)
        .map(|_| service.submit(request(root, eval, playouts)))
        .collect();
    let mut latencies: Vec<Duration> = tickets
        .iter()
        .map(|t| {
            let r = t.wait();
            assert_eq!(r.stats.playouts, playouts as u64);
            t.latency().expect("finished session records latency")
        })
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    let (p50_ms, p99_ms) = percentiles(&mut latencies);
    RunFigures {
        requests_per_s: sessions as f64 / wall,
        p50_ms,
        p99_ms,
        mean_eval_batch: service.stats().mean_eval_batch(),
    }
}

/// The same burst through a `shards`-shard cluster over a fixed total
/// worker budget (placement: least-loaded, so the burst spreads).
fn run_cluster(
    shards: usize,
    total_workers: usize,
    sessions: usize,
    playouts: usize,
    eval: &Arc<dyn BatchEvaluator>,
    root: &Gomoku,
) -> RunFigures {
    let per_shard = (total_workers / shards).max(1);
    let cluster = ServeCluster::with_placement(
        ClusterConfig {
            shards,
            shard: serve_cfg(per_shard),
            admission: None,
        },
        Box::new(LeastLoaded),
    );
    let t0 = Instant::now();
    let tickets: Vec<_> = (0..sessions)
        .map(|_| {
            cluster
                .submit(request(root, eval, playouts))
                .expect("no admission configured")
        })
        .collect();
    let mut latencies: Vec<Duration> = tickets
        .iter()
        .map(|t| {
            let r = t.wait();
            assert_eq!(r.stats.playouts, playouts as u64);
            t.latency().expect("finished session records latency")
        })
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    let (p50_ms, p99_ms) = percentiles(&mut latencies);
    RunFigures {
        requests_per_s: sessions as f64 / wall,
        p50_ms,
        p99_ms,
        mean_eval_batch: cluster.stats().total().mean_eval_batch(),
    }
}

struct ShedFigures {
    offered: usize,
    admitted: usize,
    shed: usize,
    mean_retry_after_ms: f64,
    drain_ms: f64,
}

/// Offer an overload burst against a deliberately small admission
/// budget: most of it must shed immediately and the admitted remainder
/// must drain in bounded time.
fn run_shedding(
    workers: usize,
    offered: usize,
    playouts: usize,
    eval: &Arc<dyn BatchEvaluator>,
    root: &Gomoku,
) -> ShedFigures {
    let budget_sessions = (offered / 3).max(1);
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 2,
        shard: serve_cfg((workers.max(2)) / 2),
        admission: Some(AdmissionConfig {
            playouts_per_sec: (playouts * budget_sessions) as f64,
            burst_playouts: (playouts * budget_sessions) as u64,
            max_pending: budget_sessions,
            ..Default::default()
        }),
    });
    let t0 = Instant::now();
    let mut admitted = Vec::new();
    let mut retry_hints = Vec::new();
    for _ in 0..offered {
        match cluster.submit(request(root, eval, playouts)) {
            Ok(t) => admitted.push(t),
            Err(r) => retry_hints.push(r.retry_after),
        }
    }
    for t in &admitted {
        let r = t.wait();
        assert_eq!(r.stats.playouts, playouts as u64);
    }
    let drain_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = cluster.stats();
    assert_eq!(stats.admitted as usize, admitted.len());
    assert_eq!(stats.shed() as usize, retry_hints.len());
    let mean_retry_after_ms = if retry_hints.is_empty() {
        0.0
    } else {
        retry_hints.iter().map(|d| d.as_secs_f64()).sum::<f64>() / retry_hints.len() as f64 * 1e3
    };
    ShedFigures {
        offered,
        admitted: admitted.len(),
        shed: retry_hints.len(),
        mean_retry_after_ms,
        drain_ms,
    }
}

struct CacheFigures {
    requests: usize,
    distinct_positions: usize,
    rounds: usize,
    off_rps: f64,
    on_rps: f64,
    hit_rate: f64,
}

/// Serve a repeated-position workload — `rounds` rounds over a small
/// fixed set of midgame positions — once with the evaluation cache off
/// and once with it on. Rounds run back-to-back (each waits for the
/// previous), so from round two every position's leaf set is warm.
fn run_cache_axis(
    workers: usize,
    rounds: usize,
    playouts: usize,
    eval: &Arc<dyn BatchEvaluator>,
) -> CacheFigures {
    // A few distinct positions a ply apart: a deterministic serial
    // search re-evaluates the identical leaf set every time a position
    // repeats.
    let positions: Vec<Gomoku> = [36u16, 44, 50]
        .iter()
        .map(|&extra| {
            let mut g = midgame();
            g.apply(extra);
            g
        })
        .collect();
    let run = |cache_bytes: Option<usize>| -> (f64, f64) {
        let mut cfg = serve_cfg(workers);
        cfg.eval_cache_bytes = cache_bytes;
        let service = SearchService::new(cfg);
        let t0 = Instant::now();
        for _ in 0..rounds {
            let tickets: Vec<_> = positions
                .iter()
                .map(|p| service.submit(request(p, eval, playouts)))
                .collect();
            for t in tickets {
                assert_eq!(t.wait().stats.playouts, playouts as u64);
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let requests = rounds * positions.len();
        (requests as f64 / wall, service.stats().cache_hit_rate())
    };
    let (off_rps, off_hit_rate) = run(None);
    assert_eq!(off_hit_rate, 0.0, "disabled cache must not report hits");
    let (on_rps, hit_rate) = run(Some(256 << 20));
    CacheFigures {
        requests: rounds * positions.len(),
        distinct_positions: positions.len(),
        rounds,
        off_rps,
        on_rps,
        hit_rate,
    }
}

/// Per-backend figures from one degradation run.
struct ClassFigures {
    requests_per_s: f64,
    p99_ms: f64,
    done: usize,
    failed: usize,
    shed: usize,
}

struct DegradationFigures {
    faulty: ClassFigures,
    healthy: ClassFigures,
}

/// Drive a two-backend cluster — one backend wrapped in a seeded fault
/// injector at `fault_p` (transient evaluator errors plus a smaller
/// share of outright panics), one healthy co-resident backend — with an
/// interleaved burst. Retry, circuit-breaker and panic-quarantine
/// machinery absorb the faults; the healthy backend's throughput and
/// tail latency staying flat across the fault sweep is the
/// fault-containment acceptance figure.
fn run_degradation(
    workers: usize,
    per_class: usize,
    playouts: usize,
    fault_p: f64,
    net: &Arc<PolicyValueNet>,
    root: &Gomoku,
) -> DegradationFigures {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 2,
        shard: ServeConfig {
            backoff_base: Duration::from_micros(200),
            breaker_threshold: 4,
            breaker_cooldown: Duration::from_millis(50),
            ..serve_cfg((workers.max(2)) / 2)
        },
        admission: None, // only breaker sheds reject here
    });
    let faulty: Arc<dyn BatchEvaluator> = Arc::new(ChaosEvaluator::new(
        Arc::new(NnEvaluator::with_batch_hint(Arc::clone(net), workers)),
        ChaosConfig {
            seed: 0xFA_1175 ^ (fault_p * 1e3) as u64,
            // Mostly transient errors (absorbed by the retry budget and
            // the breaker), a small share of outright panics
            // (quarantined, unretryable) — a session compounds the
            // per-call panic rate over every batch it evaluates.
            panic_p: fault_p * 0.1,
            error_p: fault_p,
            latency_p: 0.0,
            latency: Duration::ZERO,
            stale_p: 0.0,
        },
    ));
    let healthy: Arc<dyn BatchEvaluator> =
        Arc::new(NnEvaluator::with_batch_hint(Arc::clone(net), workers));

    let t0 = Instant::now();
    // (is_faulty, ticket): a `None` ticket was shed at submit because
    // that backend's breaker was open.
    let mut submitted = Vec::with_capacity(2 * per_class);
    for i in 0..2 * per_class {
        let on_faulty = i % 2 == 0;
        let eval = if on_faulty { &faulty } else { &healthy };
        submitted.push((
            on_faulty,
            cluster.submit(request(root, eval, playouts)).ok(),
        ));
    }
    let mut lat: [Vec<Duration>; 2] = [Vec::new(), Vec::new()];
    let mut done = [0usize; 2];
    let mut failed = [0usize; 2];
    let mut shed = [0usize; 2];
    for (on_faulty, ticket) in &submitted {
        let class = usize::from(*on_faulty);
        match ticket {
            None => shed[class] += 1,
            Some(t) => {
                let outcome = t.wait_timeout(Duration::from_secs(120));
                assert!(
                    outcome.is_finished(),
                    "degradation session never terminated"
                );
                match t.status() {
                    TicketStatus::Done => {
                        done[class] += 1;
                        if let Some(l) = t.latency() {
                            lat[class].push(l);
                        }
                    }
                    _ => failed[class] += 1,
                }
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let mut class = |idx: usize| -> ClassFigures {
        let p99_ms = if lat[idx].is_empty() {
            0.0
        } else {
            percentiles(&mut lat[idx]).1
        };
        ClassFigures {
            requests_per_s: done[idx] as f64 / wall,
            p99_ms,
            done: done[idx],
            failed: failed[idx],
            shed: shed[idx],
        }
    };
    DegradationFigures {
        healthy: class(0),
        faulty: class(1),
    }
}

/// The network cluster shape shared by the in-process baseline and the
/// wire-protocol runs, so the comparison isolates the framing tax.
fn net_cluster(workers: usize, admission: Option<AdmissionConfig>) -> Arc<ServeCluster> {
    Arc::new(ServeCluster::new(ClusterConfig {
        shards: 2,
        shard: serve_cfg((workers.max(2)) / 2),
        admission,
    }))
}

/// Closed-loop in-process baseline: `clients` submitting threads, each
/// running `requests_per_client` submit→wait cycles against the cluster
/// API directly. Returns completed requests per second.
fn run_inprocess_closed(
    workers: usize,
    clients: usize,
    requests_per_client: usize,
    playouts: usize,
    eval: &Arc<dyn BatchEvaluator>,
    root: &Gomoku,
) -> f64 {
    let cluster = net_cluster(workers, None);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                for _ in 0..requests_per_client {
                    let t = cluster
                        .submit(request(root, eval, playouts))
                        .expect("no admission configured");
                    assert_eq!(t.wait().stats.playouts, playouts as u64);
                }
            });
        }
    });
    (clients * requests_per_client) as f64 / t0.elapsed().as_secs_f64()
}

/// One loadgen run's JSON object body (shared fields of the closed-loop
/// point and every sweep point).
fn loadgen_json(r: &net::LoadReport) -> String {
    format!(
        "\"offered\": {}, \"admitted\": {}, \"shed\": {}, \"failed\": {}, \"admitted_per_s\": {:.2}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \"mean_retry_after_ms\": {:.2}, \"zero_hint_sheds\": {}",
        r.offered,
        r.admitted,
        r.shed,
        r.failed,
        r.admitted_per_sec(),
        r.percentile_ms(50.0),
        r.percentile_ms(99.0),
        r.mean_retry_after.as_secs_f64() * 1e3,
        r.zero_hint_sheds
    )
}

/// The network axis: closed-loop parity run (open admission) plus an
/// open-loop overload sweep against an admission budget sized to the
/// measured in-process capacity. Appends the `"network"` object to
/// `json`.
#[allow(clippy::too_many_arguments)]
fn run_network(
    json: &mut String,
    workers: usize,
    clients: usize,
    requests_per_client: usize,
    playouts: usize,
    eval: &Arc<dyn BatchEvaluator>,
    root: &Gomoku,
    smoke: bool,
) {
    let wire_request = net::WireRequest::new(net::GameSpec::Gomoku { size: 9, win: 5 })
        .moves(vec![40, 41, 31, 49, 39])
        .playouts(playouts as u64);
    let factory: net::EvalFactory = {
        let eval = Arc::clone(eval);
        Box::new(move |_spec| Arc::clone(&eval))
    };
    let _ = root; // the wire request carries the same midgame prefix

    // Baseline: the same closed-loop workload through the in-process API.
    let inproc_rps =
        run_inprocess_closed(workers, clients, requests_per_client, playouts, eval, root);
    eprintln!("network baseline (in-process, {clients} clients): {inproc_rps:.2} req/s");

    // Closed loop over the wire: open admission, identical concurrency.
    let mut server = net::NetServer::bind_with_factory(
        "127.0.0.1:0",
        net_cluster(workers, None),
        net::ServerConfig::default(),
        factory,
    )
    .expect("bind loopback");
    let closed = net::loadgen::run(&net::LoadConfig {
        addr: server.local_addr(),
        token: String::new(),
        clients,
        requests_per_client,
        open_loop_rate: None,
        request: wire_request.clone(),
    });
    server.shutdown(Duration::from_secs(10));
    eprintln!(
        "network closed loop ({clients} clients): {:.2} req/s over the wire ({:.1}% of in-process), p50 {:.2} ms p99 {:.2} ms",
        closed.admitted_per_sec(),
        closed.admitted_per_sec() / inproc_rps * 100.0,
        closed.percentile_ms(50.0),
        closed.percentile_ms(99.0)
    );

    let _ = writeln!(
        json,
        "  \"network\": {{\n    \"inprocess_requests_per_s\": {inproc_rps:.2},\n    \"closed_loop\": {{\"clients\": {clients}, {}}},\n    \"sweep\": [",
        loadgen_json(&closed)
    );

    // Overload sweep: admission sized to the measured capacity, offered
    // load set by the clock at 0.5× / 2× / 4× that capacity. The ≥1×
    // points *must* shed; every shed must carry a nonzero retry hint.
    let capacity_rps = inproc_rps;
    let multipliers: &[f64] = if smoke { &[2.0] } else { &[0.5, 2.0, 4.0] };
    let seconds = if smoke { 1.0 } else { 5.0 };
    for (i, &m) in multipliers.iter().enumerate() {
        let factory: net::EvalFactory = {
            let eval = Arc::clone(eval);
            Box::new(move |_spec| Arc::clone(&eval))
        };
        let mut server = net::NetServer::bind_with_factory(
            "127.0.0.1:0",
            net_cluster(
                workers,
                Some(AdmissionConfig {
                    playouts_per_sec: capacity_rps * playouts as f64,
                    burst_playouts: (4 * playouts) as u64,
                    max_pending: 1024,
                    ..Default::default()
                }),
            ),
            net::ServerConfig::default(),
            factory,
        )
        .expect("bind loopback");
        let offered_rate = m * capacity_rps;
        let per_client_rate = (offered_rate / clients as f64).max(0.1);
        let rpc = ((offered_rate * seconds / clients as f64).ceil() as usize).max(1);
        let r = net::loadgen::run(&net::LoadConfig {
            addr: server.local_addr(),
            token: String::new(),
            clients,
            requests_per_client: rpc,
            open_loop_rate: Some(per_client_rate),
            request: wire_request.clone(),
        });
        server.shutdown(Duration::from_secs(10));
        let _ = writeln!(
            json,
            "      {{\"clients\": {clients}, \"offered_per_s\": {offered_rate:.2}, {}}}{}",
            loadgen_json(&r),
            if i + 1 < multipliers.len() { "," } else { "" }
        );
        eprintln!(
            "network open loop @ {m:>3.1}× capacity ({offered_rate:>7.2} offered/s): admitted {} / shed {} / failed {} of {} — {:.2} admitted/s, p99 {:.2} ms, mean retry_after {:.1} ms, zero-hint sheds {}",
            r.admitted,
            r.shed,
            r.failed,
            r.offered,
            r.admitted_per_sec(),
            r.percentile_ms(99.0),
            r.mean_retry_after.as_secs_f64() * 1e3,
            r.zero_hint_sheds
        );
    }
    json.push_str("    ]\n  }\n");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke =
        args.iter().any(|a| a == "--smoke") || std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    // The degradation axis injects panics into worker threads by
    // design; keep the default hook's per-panic noise out of the bench
    // log while leaving every other thread's panics loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let in_worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("serve-worker"));
        // Registration-time calibration probes the (chaos-wrapped)
        // backend on the submitting thread and catches any injected
        // panic itself — keep that noise out of the log too.
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("chaos:"));
        if !in_worker && !injected {
            default_hook(info);
        }
    }));

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Oversubscription past the physical core count is safe now that
    // serve workers draw from the unified core arbiter (a worker lends
    // its core back while blocked on a coalesced forward), so the bench
    // runs enough workers to keep batches full even on small hosts.
    let workers = host_cores.clamp(4, 8);
    let eval_batch_hint = 32usize;
    let (playouts, session_counts, shard_counts, shed_offered): (usize, &[usize], &[usize], usize) =
        if smoke {
            (48, &[1, 4], &[1, 2], 6)
        } else {
            (256, &[1, 4, 16, 64], &[1, 2, 4], 24)
        };

    let root = midgame();
    let net = Arc::new(PolicyValueNet::new(NetConfig::for_board(4, 9, 9, 81), 2));
    // The serving tier under measurement is the int8 path: quantized at
    // snapshot time, ~2× the f32 forward throughput at parity (the f32
    // per-layer figures live in BENCH_inference.json).
    let eval: Arc<dyn BatchEvaluator> = Arc::new(NnEvaluator::with_precision(
        Arc::clone(&net),
        eval_batch_hint,
        mcts::Precision::Int8,
    ));

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"meta\": {{\"schema_version\": 6, \"workers\": {workers}, \"host_cores\": {host_cores}, \"eval_batch_hint\": {eval_batch_hint}, \"playouts_per_request\": {playouts}, \"board\": \"gomoku9\", \"evaluator\": \"nn-int8\", \"smoke\": {smoke}}},"
    );

    // --- throughput/latency vs concurrent session count -------------------
    json.push_str("  \"sessions\": [\n");
    for (i, &sessions) in session_counts.iter().enumerate() {
        let f = run_service(workers, sessions, playouts, &eval, &root);
        let _ = writeln!(
            json,
            "    {{\"concurrent\": {sessions}, \"requests_per_s\": {:.2}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \"mean_eval_batch\": {:.3}}}{}",
            f.requests_per_s,
            f.p50_ms,
            f.p99_ms,
            f.mean_eval_batch,
            if i + 1 < session_counts.len() { "," } else { "" }
        );
        eprintln!(
            "{sessions:>3} sessions: {:>7.2} req/s  p50 {:>8.2} ms  p99 {:>8.2} ms  mean batch {:.2}",
            f.requests_per_s, f.p50_ms, f.p99_ms, f.mean_eval_batch
        );
    }
    json.push_str("  ],\n");

    // --- aggregate throughput vs shard count ------------------------------
    // Fixed total worker budget partitioned across shards; a multi-core
    // host shows aggregate req/s scaling, a single-core host documents
    // parity (host_cores in meta tells the reader which this is).
    let cluster_sessions = if smoke { 6 } else { 32 };
    let total_workers = if smoke { 2 } else { host_cores.clamp(2, 8) };
    json.push_str("  \"cluster\": [\n");
    for (i, &shards) in shard_counts.iter().enumerate() {
        let f = run_cluster(
            shards,
            total_workers,
            cluster_sessions,
            playouts,
            &eval,
            &root,
        );
        let _ = writeln!(
            json,
            "    {{\"shards\": {shards}, \"total_workers\": {total_workers}, \"concurrent\": {cluster_sessions}, \"requests_per_s\": {:.2}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}}}{}",
            f.requests_per_s,
            f.p50_ms,
            f.p99_ms,
            if i + 1 < shard_counts.len() { "," } else { "" }
        );
        eprintln!(
            "{shards:>2} shards ({total_workers} workers total): {:>7.2} req/s  p50 {:>8.2} ms  p99 {:>8.2} ms",
            f.requests_per_s, f.p50_ms, f.p99_ms
        );
    }
    json.push_str("  ],\n");

    // --- overload shedding ------------------------------------------------
    let s = run_shedding(workers, shed_offered, playouts, &eval, &root);
    let _ = writeln!(
        json,
        "  \"shedding\": {{\"offered\": {}, \"admitted\": {}, \"shed\": {}, \"mean_retry_after_ms\": {:.2}, \"drain_ms\": {:.2}}},",
        s.offered, s.admitted, s.shed, s.mean_retry_after_ms, s.drain_ms
    );
    eprintln!(
        "shedding: offered {} → admitted {}, shed {} (mean retry_after {:.1} ms), drained in {:.1} ms",
        s.offered, s.admitted, s.shed, s.mean_retry_after_ms, s.drain_ms
    );

    // --- cross-session coalescing: concurrent vs serial -------------------
    // The acceptance figure: the same burst served by a multi-worker
    // service must fill larger mean inference batches than served one
    // session at a time (one worker ⇒ rounds of exactly one sample).
    let burst = if smoke { 4 } else { 16 };
    let serial = run_service(1, burst, playouts, &eval, &root);
    let multi = run_service(workers, burst, playouts, &eval, &root);
    let _ = writeln!(
        json,
        "  \"coalescing\": {{\"burst\": {burst}, \"serial_mean_eval_batch\": {:.3}, \"multi_mean_eval_batch\": {:.3}}},",
        serial.mean_eval_batch, multi.mean_eval_batch
    );
    eprintln!(
        "coalescing over {burst}-request burst: serial mean batch {:.2} → multi mean batch {:.2}",
        serial.mean_eval_batch, multi.mean_eval_batch
    );

    // --- measurement-driven batching: the tuner's operating point ---------
    // One calibrated service, one burst; dump the forward-time curve and
    // the chosen window/batch so the auto-tuner's decisions are part of
    // the machine-readable perf record.
    let service = SearchService::new(serve_cfg(workers));
    let tune_tickets: Vec<_> = (0..burst)
        .map(|_| service.submit(request(&root, &eval, playouts)))
        .collect();
    for t in tune_tickets {
        assert_eq!(t.wait().stats.playouts, playouts as u64);
    }
    let reports = service.autotune_reports();
    assert!(
        !reports.is_empty(),
        "calibrated service must expose at least one tuner report"
    );
    json.push_str("  \"autotune\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let curve = r
            .curve
            .iter()
            .map(|(b, ns)| format!("{{\"batch\": {b}, \"forward_ns\": {ns}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json,
            "    {{\"calibrated\": {}, \"batch\": {}, \"window_us\": {}, \"positions_per_sec\": {:.1}, \"curve\": [{curve}]}}{}",
            r.calibrated,
            r.batch,
            r.window_us,
            r.positions_per_sec,
            if i + 1 < reports.len() { "," } else { "" }
        );
        eprintln!(
            "autotune: batch {} window {} µs ({:.0} positions/s, {} curve points, calibrated: {})",
            r.batch,
            r.window_us,
            r.positions_per_sec,
            r.curve.len(),
            r.calibrated
        );
    }
    json.push_str("  ],\n");
    drop(service);

    // --- evaluation cache: repeated-position workload, off vs on ----------
    let cache_rounds = if smoke { 2 } else { 6 };
    let c = run_cache_axis(workers, cache_rounds, playouts, &eval);
    let _ = writeln!(
        json,
        "  \"cache\": {{\"requests\": {}, \"distinct_positions\": {}, \"rounds\": {}, \"cache_off_requests_per_s\": {:.2}, \"cache_on_requests_per_s\": {:.2}, \"hit_rate\": {:.4}, \"speedup\": {:.3}}},",
        c.requests,
        c.distinct_positions,
        c.rounds,
        c.off_rps,
        c.on_rps,
        c.hit_rate,
        c.on_rps / c.off_rps
    );
    eprintln!(
        "cache over {} requests ({} positions × {} rounds): off {:.2} req/s → on {:.2} req/s ({:.2}×), hit rate {:.1}%",
        c.requests,
        c.distinct_positions,
        c.rounds,
        c.off_rps,
        c.on_rps,
        c.on_rps / c.off_rps,
        c.hit_rate * 100.0
    );

    // --- fault containment: degradation under injected faults -------------
    // One backend faulted at 0% / 5% / 20%, one healthy co-resident
    // backend on the same cluster; the healthy column must stay flat.
    let deg_per_class = if smoke { 3 } else { 8 };
    let deg_playouts = playouts.min(96);
    let fault_rates = [0.0, 0.05, 0.20];
    json.push_str("  \"degradation\": [\n");
    for (i, &fault_p) in fault_rates.iter().enumerate() {
        let d = run_degradation(workers, deg_per_class, deg_playouts, fault_p, &net, &root);
        let _ = writeln!(
            json,
            "    {{\"fault_p\": {fault_p}, \"sessions_per_backend\": {deg_per_class}, \"faulty_requests_per_s\": {:.2}, \"faulty_p99_ms\": {:.2}, \"faulty_done\": {}, \"faulty_failed\": {}, \"faulty_shed\": {}, \"healthy_requests_per_s\": {:.2}, \"healthy_p99_ms\": {:.2}, \"healthy_done\": {}, \"healthy_failed\": {}, \"healthy_shed\": {}}}{}",
            d.faulty.requests_per_s,
            d.faulty.p99_ms,
            d.faulty.done,
            d.faulty.failed,
            d.faulty.shed,
            d.healthy.requests_per_s,
            d.healthy.p99_ms,
            d.healthy.done,
            d.healthy.failed,
            d.healthy.shed,
            if i + 1 < fault_rates.len() { "," } else { "" }
        );
        eprintln!(
            "degradation @ {:>4.0}% faults: faulty {:>6.2} req/s p99 {:>8.2} ms ({} done / {} failed / {} shed) | healthy {:>6.2} req/s p99 {:>8.2} ms ({} done / {} failed)",
            fault_p * 100.0,
            d.faulty.requests_per_s,
            d.faulty.p99_ms,
            d.faulty.done,
            d.faulty.failed,
            d.faulty.shed,
            d.healthy.requests_per_s,
            d.healthy.p99_ms,
            d.healthy.done,
            d.healthy.failed,
        );
    }
    json.push_str("  ],\n");

    // --- network front end: loopback wire-protocol runs -------------------
    let (net_clients, net_rpc) = if smoke { (2, 2) } else { (8, 8) };
    run_network(
        &mut json,
        workers,
        net_clients,
        net_rpc,
        playouts,
        &eval,
        &root,
        smoke,
    );

    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write bench output");
    println!("wrote {out_path}");
}
