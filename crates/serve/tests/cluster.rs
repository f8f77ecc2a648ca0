//! End-to-end tests of the sharded dispatch layer: admission control and
//! load shedding, weighted-fair scheduling, placement/affinity,
//! streaming delivery, and the anytime `wait_timeout` contract.

use games::tictactoe::TicTacToe;
use games::Game;
use mcts::{MctsConfig, UniformEvaluator};
use serve::{
    AdmissionConfig, ClusterConfig, LeastLoaded, Priority, RejectReason, SearchRequest,
    SearchService, ServeCluster, ServeConfig, StreamItem, TicketStatus,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cfg(playouts: usize) -> MctsConfig {
    MctsConfig {
        playouts,
        ..Default::default()
    }
}

fn shard_cfg(workers: usize, step_quota: usize) -> ServeConfig {
    ServeConfig {
        workers,
        step_quota,
        max_pooled: 8,
        ..Default::default()
    }
}

fn uniform() -> Arc<UniformEvaluator> {
    Arc::new(UniformEvaluator::for_game(&TicTacToe::new()))
}

#[test]
fn cluster_serves_a_burst_across_shards() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 2,
        shard: shard_cfg(2, 32),
        admission: None,
    });
    let eval = uniform();
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            cluster
                .submit(
                    SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>)
                        .config(cfg(100 + i)),
                )
                .expect("no admission control: everything admitted")
        })
        .collect();
    for (i, t) in tickets.iter().enumerate() {
        assert_eq!(t.wait().stats.playouts, (100 + i) as u64, "session {i}");
    }
    let stats = cluster.stats();
    assert_eq!(stats.admitted, 12);
    assert_eq!(stats.shed(), 0);
    assert_eq!(stats.total().sessions_completed, 12);
    assert_eq!(stats.per_shard.len(), 2);
}

#[test]
fn overload_burst_is_shed_with_retry_hint_not_queued() {
    // Bucket: 500-playout burst, 1000/s refill. A burst of twenty
    // 100-playout requests can only see ~5-6 admissions; the rest MUST
    // be rejected immediately (bounded queue, no deadlock, no growth).
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 1,
        shard: shard_cfg(2, 16),
        admission: Some(AdmissionConfig {
            playouts_per_sec: 1000.0,
            burst_playouts: 500,
            max_pending: 64,
            ..Default::default()
        }),
    });
    let eval = uniform();
    let t0 = Instant::now();
    let mut admitted = Vec::new();
    let mut rejections = Vec::new();
    for _ in 0..20 {
        match cluster.submit(
            SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(cfg(100)),
        ) {
            Ok(t) => admitted.push(t),
            Err(r) => rejections.push(r),
        }
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "admission decisions are immediate, not queued"
    );
    assert!(!admitted.is_empty(), "the burst head fits the bucket");
    assert!(
        rejections.len() >= 10,
        "a 2000-playout burst against a 500-token bucket must shed most \
         requests, shed only {}",
        rejections.len()
    );
    for r in &rejections {
        assert_eq!(r.reason, RejectReason::RateLimited);
        assert!(r.retry_after > Duration::ZERO);
        assert!(r.retry_after <= Duration::from_secs(60));
    }
    // Every admitted session still runs to its exact budget.
    for t in &admitted {
        assert_eq!(t.wait().stats.playouts, 100);
    }
    let stats = cluster.stats();
    assert_eq!(stats.admitted as usize, admitted.len());
    assert_eq!(stats.shed_rate_limited as usize, rejections.len());
    assert_eq!(stats.admitted + stats.shed(), 20);
}

#[test]
fn pending_bound_sheds_queue_full_and_recovers_after_completion() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 1,
        shard: shard_cfg(1, 8),
        admission: Some(AdmissionConfig {
            playouts_per_sec: 1e9,
            burst_playouts: u64::MAX / 2,
            max_pending: 2,
            ..Default::default()
        }),
    });
    let eval = uniform();
    let submit = || {
        cluster.submit(
            SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(cfg(400_000)),
        )
    };
    let a = submit().expect("slot 1");
    let b = submit().expect("slot 2");
    let shed = submit().expect_err("pending bound reached");
    assert_eq!(shed.reason, RejectReason::QueueFull);
    // Finishing (here: cancelling) a session frees its pending slot.
    a.cancel();
    b.cancel();
    assert_eq!(a.wait().stats.playouts, a.partial().unwrap().stats.playouts);
    b.wait();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match submit() {
            Ok(t) => {
                t.cancel();
                t.wait();
                break;
            }
            Err(_) if Instant::now() < deadline => std::thread::yield_now(),
            Err(e) => panic!("pending slots never freed: {e}"),
        }
    }
}

#[test]
fn weighted_fair_shares_converge_to_class_weights() {
    // One worker, two classes with weight ratio 3:1 (High:Low), two
    // never-ending sessions per class: the observed playout split must
    // converge to the configured weights instead of strict-priority
    // starvation (which would give Low exactly zero).
    let weights = [1, 1, 3];
    let service = SearchService::new(ServeConfig {
        workers: 1,
        step_quota: 16,
        max_pooled: 4,
        class_weights: weights,
        ..Default::default()
    });
    let eval = uniform();
    let submit = |priority: Priority| {
        service.submit(
            SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>)
                .config(cfg(100_000_000))
                .priority(priority),
        )
    };
    let low = [submit(Priority::Low), submit(Priority::Low)];
    let high = [submit(Priority::High), submit(Priority::High)];
    // Let the scheduler run a few hundred slices.
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.stats().steps < 600 {
        assert!(Instant::now() < deadline, "scheduler stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    for t in low.iter().chain(&high) {
        t.cancel();
    }
    let playouts =
        |ts: &[serve::SearchTicket; 2]| ts.iter().map(|t| t.wait().stats.playouts).sum::<u64>();
    let low_total = playouts(&low) as f64;
    let high_total = playouts(&high) as f64;
    assert!(low_total > 0.0, "weighted-fair must not starve Low");
    let ratio = high_total / low_total;
    let expected = weights[2] as f64 / weights[0] as f64;
    assert!(
        ratio > expected * 0.65 && ratio < expected * 1.5,
        "observed High:Low playout ratio {ratio:.2}, configured {expected}"
    );
}

#[test]
fn weighted_fair_holds_with_multiple_workers() {
    // Two workers: a class's only queued copies are regularly in flight
    // (heap momentarily empty), which used to snap its pass up to the
    // global virtual time at every re-queue and collapse the weighted
    // shares toward 1:1. With active-count tracking the heavy class
    // must still clearly dominate.
    let weights = [1, 1, 3];
    let service = SearchService::new(ServeConfig {
        workers: 2,
        step_quota: 16,
        max_pooled: 8,
        class_weights: weights,
        ..Default::default()
    });
    let eval = uniform();
    let submit = |priority: Priority| {
        service.submit(
            SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>)
                .config(cfg(100_000_000))
                .priority(priority),
        )
    };
    let low: Vec<_> = (0..3).map(|_| submit(Priority::Low)).collect();
    let high: Vec<_> = (0..3).map(|_| submit(Priority::High)).collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.stats().steps < 900 {
        assert!(Instant::now() < deadline, "scheduler stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    for t in low.iter().chain(&high) {
        t.cancel();
    }
    let playouts =
        |ts: &[serve::SearchTicket]| ts.iter().map(|t| t.wait().stats.playouts).sum::<u64>();
    let low_total = playouts(&low) as f64;
    let high_total = playouts(&high) as f64;
    assert!(low_total > 0.0, "weighted-fair must not starve Low");
    let ratio = high_total / low_total;
    // Work-conserving fill-in (a Low runs whenever both queued Highs
    // are in flight) pulls the realized ratio below the configured 3,
    // but the pre-fix collapse landed at ~1. Require clear dominance.
    assert!(
        ratio > 1.8 && ratio < 4.5,
        "observed High:Low playout ratio {ratio:.2} with weights {weights:?} on 2 workers"
    );
}

#[test]
fn backend_affinity_keeps_a_model_on_one_shard() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 4,
        shard: shard_cfg(1, 32),
        admission: None,
    });
    let eval = uniform();
    let mut shards_seen = std::collections::BTreeSet::new();
    for _ in 0..6 {
        let t = cluster
            .submit(
                SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(cfg(60)),
            )
            .unwrap();
        shards_seen.insert(t.shard());
        t.wait();
    }
    assert_eq!(
        shards_seen.len(),
        1,
        "same backend, uncontended load: placement must stick to the home \
         shard, saw {shards_seen:?}"
    );
}

#[test]
fn affinity_holds_under_concurrent_load_then_spills() {
    // One dominant model, overlapping submits: the first sessions stay
    // on the home shard (within the spill headroom of 2 session costs),
    // then the overflow spills to the least-loaded shard. A
    // mean-relative spill rule would wrongly scatter from session two.
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 4,
        shard: shard_cfg(1, 8),
        admission: None,
    });
    let eval = uniform();
    let tickets: Vec<_> = (0..4)
        .map(|_| {
            cluster
                .submit(
                    SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>)
                        .config(cfg(50_000_000)),
                )
                .unwrap()
        })
        .collect();
    assert_eq!(tickets[0].shard(), tickets[1].shard(), "within headroom");
    assert_eq!(tickets[0].shard(), tickets[2].shard(), "within headroom");
    assert_ne!(
        tickets[0].shard(),
        tickets[3].shard(),
        "beyond 2×cost headroom: spill to least-loaded"
    );
    for t in &tickets {
        t.cancel();
        t.wait();
    }
}

#[test]
fn least_loaded_placement_spreads_outstanding_load() {
    let cluster = ServeCluster::with_placement(
        ClusterConfig {
            shards: 2,
            shard: shard_cfg(1, 8),
            admission: None,
        },
        Box::new(LeastLoaded),
    );
    let eval = uniform();
    // Two heavyweight sessions: the second must land on the other shard
    // because the first's budget is still outstanding.
    let a = cluster
        .submit(
            SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(cfg(500_000)),
        )
        .unwrap();
    let b = cluster
        .submit(
            SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(cfg(500_000)),
        )
        .unwrap();
    assert_ne!(a.shard(), b.shard(), "least-loaded must balance the pair");
    a.cancel();
    b.cancel();
    a.wait();
    b.wait();
}

#[test]
fn subscription_streams_snapshots_then_final() {
    let service = SearchService::new(shard_cfg(1, 8));
    let ticket = service.submit(SearchRequest::new(TicTacToe::new(), uniform()).config(cfg(2000)));
    let mut stream = ticket.subscribe();
    let mut last_seq = 0u64;
    let mut partials = 0usize;
    let mut final_result = None;
    for item in &mut stream {
        match item {
            StreamItem::Partial(snap) => {
                assert!(
                    snap.stats.seq > last_seq,
                    "stream must only deliver fresh snapshots ({} after {last_seq})",
                    snap.stats.seq
                );
                last_seq = snap.stats.seq;
                partials += 1;
            }
            StreamItem::Final(result, status) => {
                assert_eq!(status, TicketStatus::Done);
                final_result = Some(result);
            }
        }
    }
    let final_result = final_result.expect("stream ends with the final result");
    assert_eq!(final_result.stats.playouts, 2000);
    assert!(
        partials >= 1,
        "a 2000-playout session sliced by 8 must stream intermediate snapshots"
    );
    assert!(stream.recv().is_none(), "stream is exhausted after Final");
    assert!(
        stream.recv_timeout(Duration::from_millis(1)).is_none(),
        "exhaustion is sticky"
    );
}

#[test]
fn wait_timeout_returns_latest_snapshot_not_an_empty_hand() {
    let service = SearchService::new(shard_cfg(1, 8));
    let ticket =
        service.submit(SearchRequest::new(TicTacToe::new(), uniform()).config(cfg(50_000_000)));
    // Wait in small slices until at least one snapshot exists; every
    // timeout must surface the newest snapshot with a usable answer.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut seen_seq = 0u64;
    loop {
        let outcome = ticket.wait_timeout(Duration::from_millis(5));
        assert!(!outcome.is_finished(), "50M playouts cannot finish here");
        let snap = outcome.into_result();
        assert!(snap.stats.seq >= seen_seq, "snapshots are monotone");
        seen_seq = seen_seq.max(snap.stats.seq);
        if snap.stats.seq > 0 {
            assert!(snap.stats.playouts > 0);
            assert_eq!(snap.visits.len(), 9, "full action space, never empty");
            let _usable = snap.best_action();
            break;
        }
        assert!(Instant::now() < deadline, "no snapshot ever published");
    }
    ticket.cancel();
    let outcome = ticket.wait_timeout(Duration::from_secs(20));
    assert!(outcome.is_finished(), "cancelled session finalizes");
    assert_eq!(ticket.status(), TicketStatus::Cancelled);
}

#[test]
fn cluster_tickets_stream_too() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 2,
        shard: shard_cfg(1, 16),
        admission: None,
    });
    let t = cluster
        .submit(SearchRequest::new(TicTacToe::new(), uniform()).config(cfg(600)))
        .unwrap();
    let items: Vec<_> = t.subscribe().collect();
    match items.last() {
        Some(StreamItem::Final(r, TicketStatus::Done)) => {
            assert_eq!(r.stats.playouts, 600)
        }
        other => panic!("stream must end with Final(Done), got {other:?}"),
    }
}

#[test]
fn dropping_the_cluster_resolves_outstanding_tickets() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 2,
        shard: shard_cfg(1, 8),
        admission: None,
    });
    let eval = uniform();
    let tickets: Vec<_> = (0..6)
        .map(|_| {
            cluster
                .submit(
                    SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>)
                        .config(cfg(500_000)),
                )
                .unwrap()
        })
        .collect();
    drop(cluster);
    for t in tickets {
        assert!(t.wait().stats.playouts < 500_000);
        assert_eq!(t.status(), TicketStatus::Cancelled);
    }
}

#[test]
fn cluster_cache_is_shared_across_shards() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 2,
        shard: ServeConfig {
            eval_cache_bytes: Some(8 << 20),
            ..shard_cfg(1, 32)
        },
        admission: None,
    });
    let eval = uniform();
    // Warm the cache through the front door (affinity parks the backend
    // on one shard).
    let t = cluster
        .submit(SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(cfg(200)))
        .unwrap();
    assert_eq!(t.wait().stats.playouts, 200);
    let warmed_on = t.shard();
    let cold = cluster.stats();
    assert!(cold.cache.misses > 0, "cold run records misses");
    // Replay the identical search on the *other* shard directly: the
    // registry spans shards, so shard 0's work is shard 1's hit.
    let other = 1 - warmed_on;
    let t = cluster
        .shard(other)
        .submit(SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(cfg(200)));
    assert_eq!(t.wait().stats.playouts, 200);
    let st = cluster.stats();
    assert!(
        st.cache.hits > 0,
        "other shard must hit the shared cache: {:?}",
        st.cache
    );
    // Shard-local stats carry zero cache counters (the registry is
    // cluster-owned), and total() folds the shared counters in once.
    for per in &st.per_shard {
        assert_eq!(per.cache_hits, 0);
        assert_eq!(per.cache_misses, 0);
    }
    assert_eq!(st.total().cache_hits, st.cache.hits);
    assert_eq!(st.total().cache_misses, st.cache.misses);
}

/// A batching backend cheap enough for calibration yet coalescible.
struct BatchyUniform {
    input_len: usize,
    actions: usize,
}

impl mcts::BatchEvaluator for BatchyUniform {
    fn input_len(&self) -> usize {
        self.input_len
    }
    fn action_space(&self) -> usize {
        self.actions
    }
    fn evaluate_batch(&self, _inputs: &[&[f32]], out: &mut [mcts::EvalOutput]) {
        let p = 1.0 / self.actions as f32;
        for o in out.iter_mut() {
            o.priors.clear();
            o.priors.resize(self.actions, p);
            o.value = 0.0;
        }
    }
    fn preferred_batch(&self) -> usize {
        8
    }
}

#[test]
fn cluster_stats_export_autotune_reports_and_metrics_json() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 2,
        shard: ServeConfig {
            workers: 2,
            step_quota: 32,
            ..Default::default()
        },
        admission: None,
    });
    let g = TicTacToe::new();
    let eval: Arc<dyn mcts::BatchEvaluator> = Arc::new(BatchyUniform {
        input_len: g.encoded_len(),
        actions: g.action_space(),
    });
    let t = cluster
        .submit(SearchRequest::new(TicTacToe::new(), Arc::clone(&eval)).config(cfg(96)))
        .unwrap();
    assert_eq!(t.wait().stats.playouts, 96);
    let home = t.shard();
    let st = cluster.stats();
    assert_eq!(
        st.autotune.len(),
        1,
        "one tuner on the backend's home shard"
    );
    assert_eq!(st.autotune[0].shard, home, "report carries its shard index");
    assert!(st.autotune[0].calibrated);
    assert!(!st.autotune[0].curve.is_empty());
    // The metrics dump is valid enough JSON for a scraper: balanced
    // braces, and the headline sections all present.
    let json = st.metrics_json();
    for key in [
        "\"admitted\":",
        "\"shed\":",
        "\"eval\":",
        "\"mean_batch\":",
        "\"cache\":",
        "\"autotune\":[",
        "\"curve\":[",
        "\"forward_ns\":",
    ] {
        assert!(json.contains(key), "metrics dump missing {key}: {json}");
    }
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "unbalanced JSON: {json}");
}

#[test]
fn drain_lets_in_flight_sessions_finish() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 2,
        shard: shard_cfg(2, 64),
        admission: Some(AdmissionConfig {
            playouts_per_sec: 1e9,
            burst_playouts: 1_000_000_000,
            max_pending: 64,
            ..Default::default()
        }),
    });
    let eval = uniform();
    let tickets: Vec<_> = (0..6)
        .map(|_| {
            cluster
                .submit(
                    SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>)
                        .config(cfg(400)),
                )
                .unwrap()
        })
        .collect();
    let report = cluster.drain(Duration::from_secs(30));
    assert!(
        report.drained,
        "all sessions had time to finish: {report:?}"
    );
    assert_eq!(report.cancelled, 0, "nothing ran past the deadline");
    assert_eq!(report.pending_after, 0);
    assert_eq!(
        cluster.pending_sessions(),
        0,
        "admission accounting returned to zero"
    );
    assert_eq!(cluster.in_flight(), 0);
    for t in &tickets {
        assert_eq!(t.status(), TicketStatus::Done, "drain is not cancellation");
        assert_eq!(t.wait().stats.playouts, 400);
    }
    // The front door is closed for good: everything after drain sheds
    // with the terminal Draining reason and a zero retry hint.
    assert!(cluster.is_draining());
    let rej = cluster
        .submit(SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(cfg(50)))
        .unwrap_err();
    assert_eq!(rej.reason, RejectReason::Draining);
    assert_eq!(rej.retry_after, Duration::ZERO, "fail over, don't wait");
    let stats = cluster.stats();
    assert_eq!(stats.shed_draining, 1);
    assert_eq!(stats.shed(), 1);
    assert!(stats.metrics_json().contains("\"draining\":1"));
}

/// The byte footprint admission charges one `cfg(playouts)` TicTacToe
/// session: its provisioned arena capacity times the slot size (the
/// same arithmetic `ServeCluster::submit` runs).
fn session_bytes(playouts: usize) -> u64 {
    (cfg(playouts).arena_capacity(9) * mcts::NodeArena::slot_bytes()) as u64
}

#[test]
fn model_byte_budget_sheds_transiently_and_recovers_on_finalize() {
    let per_session = session_bytes(100);
    // Room for one session plus change, never two.
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 1,
        shard: shard_cfg(1, 32),
        admission: Some(AdmissionConfig {
            playouts_per_sec: 1e9,
            burst_playouts: 1_000_000_000,
            max_pending: 64,
            model_byte_budget: Some(per_session + per_session / 2),
            ..Default::default()
        }),
    });
    let eval = uniform();
    let submit = || {
        cluster.submit(
            SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(cfg(100)),
        )
    };
    let a = submit().expect("first session fits the byte budget");
    assert_eq!(
        cluster.stats().admitted_bytes,
        per_session,
        "the reservation is visible while the session is in flight"
    );
    let rej = submit().expect_err("second session exceeds the model byte budget");
    assert_eq!(rej.reason, RejectReason::OverMemory);
    assert!(
        rej.retry_after > Duration::ZERO,
        "transient: bytes come back as sessions finalize"
    );
    assert_eq!(a.wait().stats.playouts, 100);
    // Finalization releases the reservation; the next session fits. The
    // release runs on the worker thread after wait() observes the final
    // result, so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(10);
    let b = loop {
        match submit() {
            Ok(t) => break t,
            Err(_) if Instant::now() < deadline => std::thread::yield_now(),
            Err(e) => panic!("bytes never released after completion: {e}"),
        }
    };
    assert_eq!(b.wait().stats.playouts, 100);
    let stats = cluster.stats();
    assert!(stats.shed_over_memory >= 1);
    assert_eq!(
        stats.admitted + stats.shed(),
        stats.admitted + stats.shed_over_memory
    );
    assert!(
        stats.metrics_json().contains("\"over_memory\":"),
        "metrics dump exports the over-memory shed counter"
    );
}

#[test]
fn session_byte_quota_is_terminal_with_zero_retry() {
    let per_session = session_bytes(100);
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 1,
        shard: shard_cfg(1, 32),
        admission: Some(AdmissionConfig {
            playouts_per_sec: 1e9,
            burst_playouts: 1_000_000_000,
            max_pending: 64,
            session_byte_quota: Some(per_session / 2),
            ..Default::default()
        }),
    });
    let eval = uniform();
    let rej = cluster
        .submit(SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(cfg(100)))
        .expect_err("arena larger than the per-session quota");
    assert_eq!(rej.reason, RejectReason::OverMemory);
    assert_eq!(
        rej.retry_after,
        Duration::ZERO,
        "terminal: waiting never shrinks the request"
    );
    let stats = cluster.stats();
    assert_eq!(stats.admitted, 0);
    assert_eq!(stats.shed_over_memory, 1);
    assert_eq!(stats.admitted_bytes, 0, "a shed request reserves nothing");
    // A session provisioned under the quota (explicit tight arena bound)
    // is admitted: the quota prices the arena, not the playout count.
    let small = MctsConfig {
        playouts: 100,
        arena_budget_bytes: Some(64 * mcts::NodeArena::slot_bytes()),
        ..Default::default()
    };
    let t = cluster
        .submit(SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>).config(small))
        .expect("a bounded arena fits the session quota");
    assert_eq!(t.wait().stats.playouts, 100);
}

#[test]
fn byte_accounting_balances_through_cancel_and_drain() {
    let per_session = session_bytes(400_000);
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 2,
        shard: shard_cfg(1, 16),
        admission: Some(AdmissionConfig {
            playouts_per_sec: 1e9,
            burst_playouts: 1_000_000_000,
            max_pending: 64,
            model_byte_budget: Some(16 * per_session),
            ..Default::default()
        }),
    });
    let eval = uniform();
    let tickets: Vec<_> = (0..3)
        .map(|_| {
            cluster
                .submit(
                    SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>)
                        .config(cfg(400_000)),
                )
                .unwrap()
        })
        .collect();
    assert_eq!(
        cluster.stats().admitted_bytes,
        3 * per_session,
        "every in-flight session's reservation is accounted"
    );
    // Cancellation releases exactly the cancelled session's bytes.
    tickets[0].cancel();
    tickets[0].wait();
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.stats().admitted_bytes != 2 * per_session {
        assert!(
            Instant::now() < deadline,
            "cancelled session never returned its bytes: {}",
            cluster.stats().admitted_bytes
        );
        std::thread::yield_now();
    }
    // Drain unwinds the rest (force-cancelling stragglers): the gauge
    // must return to zero — no leaked reservation.
    let report = cluster.drain(Duration::ZERO);
    assert!(report.drained, "{report:?}");
    let stats = cluster.stats();
    assert_eq!(stats.admitted_bytes, 0, "drain left bytes reserved");
    assert!(stats.metrics_json().contains("\"admitted_bytes\":0"));
}

#[test]
fn shutdown_cancels_stragglers_and_unwinds_accounting() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 1,
        shard: shard_cfg(1, 128),
        admission: Some(AdmissionConfig {
            playouts_per_sec: 1e9,
            burst_playouts: 1_000_000_000,
            max_pending: 64,
            ..Default::default()
        }),
    });
    let eval = uniform();
    // Budgets far beyond what can finish before the zero-timeout drain:
    // these must be force-cancelled, not waited out.
    let tickets: Vec<_> = (0..3)
        .map(|_| {
            cluster
                .submit(
                    SearchRequest::new(TicTacToe::new(), Arc::clone(&eval) as Arc<_>)
                        .config(cfg(50_000_000)),
                )
                .unwrap()
        })
        .collect();
    assert!(cluster.pending_sessions() > 0, "sessions admitted");
    let report = cluster.shutdown();
    assert!(
        report.drained,
        "cancellations landed within the grace period: {report:?}"
    );
    assert!(report.cancelled >= 1, "stragglers were force-cancelled");
    assert_eq!(report.pending_after, 0, "no leaked admission slot");
    for t in &tickets {
        assert_eq!(t.status(), TicketStatus::Cancelled);
    }
}
