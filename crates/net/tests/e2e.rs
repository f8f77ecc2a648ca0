//! End-to-end protocol tests over real loopback sockets: submit /
//! ordered streaming / cancel / stats / multi-client interleaving /
//! graceful drain.

use net::{Client, Event, GameSpec, NetServer, Outcome, RejectCode, ServerConfig, WireRequest};
use serve::{AdmissionConfig, ClusterConfig, ServeCluster, ServeConfig};
use std::sync::Arc;
use std::time::Duration;

fn cluster(shards: usize, admission: Option<AdmissionConfig>) -> Arc<ServeCluster> {
    Arc::new(ServeCluster::new(ClusterConfig {
        shards,
        shard: ServeConfig {
            workers: 2,
            step_quota: 64,
            ..Default::default()
        },
        admission,
    }))
}

fn open_admission() -> Option<AdmissionConfig> {
    Some(AdmissionConfig {
        playouts_per_sec: 1e9,
        burst_playouts: 1_000_000_000,
        max_pending: 1024,
        ..Default::default()
    })
}

fn request(playouts: u64) -> WireRequest {
    WireRequest::new(GameSpec::Gomoku { size: 9, win: 5 }).playouts(playouts)
}

#[test]
fn submit_streams_ordered_snapshots_then_exactly_one_final() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        cluster(2, open_admission()),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), "").unwrap();
    let id = client.submit(&request(2_000)).unwrap();

    let mut accepted = false;
    let mut terminals = 0;
    let mut last_seq = 0u64;
    let mut snapshots = 0;
    loop {
        let ev = client.recv().unwrap();
        assert_eq!(ev.id(), id);
        match ev {
            Event::Accepted { shard, .. } => {
                assert!(!accepted, "exactly one Accepted");
                assert!((shard as usize) < 2);
                accepted = true;
            }
            Event::Snapshot { result, .. } => {
                assert!(accepted, "Accepted precedes any snapshot");
                assert!(
                    result.seq > last_seq,
                    "monotonic seq: {} then {}",
                    last_seq,
                    result.seq
                );
                last_seq = result.seq;
                snapshots += 1;
            }
            Event::Final {
                cancelled, result, ..
            } => {
                assert!(accepted);
                assert!(!cancelled);
                assert_eq!(result.playouts, 2_000);
                assert!(result.seq >= last_seq);
                assert!(result.best_action().is_some());
                let probs_sum: f32 = result.probs.iter().sum();
                assert!(
                    (probs_sum - 1.0).abs() < 1e-3,
                    "probs normalized: {probs_sum}"
                );
                terminals += 1;
                break;
            }
            other => panic!("unexpected event: {other:?}"),
        }
    }
    assert_eq!(terminals, 1);
    assert!(snapshots >= 1, "a 2k-playout session publishes snapshots");
    let stats = server.stats();
    assert_eq!(stats.submits, 1);
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.rejected, 0);
    assert!(stats.snapshots_sent >= 1);
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn cancel_mid_run_yields_cancelled_final() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        cluster(1, open_admission()),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), "").unwrap();
    // A budget far too large to finish quickly, so the cancel wins.
    let id = client.submit(&request(5_000_000)).unwrap();
    // Wait for admission, then one snapshot, then cancel.
    loop {
        match client.recv().unwrap() {
            Event::Accepted { .. } => {}
            Event::Snapshot { .. } => break,
            other => panic!("unexpected: {other:?}"),
        }
    }
    client.cancel(id).unwrap();
    match client.wait_outcome(id).unwrap() {
        Outcome::Cancelled(partial) => {
            assert!(partial.playouts < 5_000_000, "stopped early");
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_eq!(server.stats().cancels, 1);
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn stats_roundtrip_returns_cluster_metrics() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        cluster(1, open_admission()),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), "").unwrap();
    let id = client.submit(&request(300)).unwrap();
    assert!(matches!(client.wait_outcome(id).unwrap(), Outcome::Done(_)));
    let json = client.stats().unwrap();
    for key in [
        "\"admitted\":",
        "\"shed\":",
        "\"draining\":",
        "\"sessions\":",
    ] {
        assert!(json.contains(key), "metrics dump missing {key}: {json}");
    }
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn sessions_multiplex_on_one_connection() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        cluster(2, open_admission()),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), "").unwrap();
    let ids: Vec<u64> = (0..4)
        .map(|_| client.submit(&request(800)).unwrap())
        .collect();
    for &id in &ids {
        match client.wait_outcome(id).unwrap() {
            Outcome::Done(result) => assert_eq!(result.playouts, 800),
            other => panic!("session {id}: {other:?}"),
        }
    }
    assert_eq!(server.stats().admitted, 4);
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn every_submit_on_a_connection_is_held_to_its_own_max_nodes() {
    // One shard, one request at a time: from the second `Submit` on, the
    // session runs on the searcher its predecessor warmed — which used
    // to keep no bound at all (31 684 nodes under a 2 000-node `Submit`).
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        cluster(1, open_admission()),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), "").unwrap();
    for submit in 1..=3 {
        let id = client.submit(&request(400).max_nodes(2_000)).unwrap();
        match client.wait_outcome(id).unwrap() {
            Outcome::Done(result) => {
                assert_eq!(result.playouts, 400);
                assert!(
                    result.nodes <= 2_000,
                    "submit {submit}: {} nodes",
                    result.nodes
                );
            }
            other => panic!("submit {submit}: {other:?}"),
        }
    }
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn concurrent_clients_each_get_their_own_stream() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        cluster(2, open_admission()),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(move || {
                let mut client = Client::connect(addr, "").unwrap();
                let id = client.submit(&request(600)).unwrap();
                match client.wait_outcome(id).unwrap() {
                    Outcome::Done(result) => assert_eq!(result.playouts, 600),
                    other => panic!("{other:?}"),
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.accepted, 8);
    assert_eq!(stats.admitted, 8);
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn cluster_shedding_maps_to_reject_with_retry_hint() {
    // Tiny token bucket: the first oversized-ish submit drains it, the
    // second is shed with RateLimited and an honest nonzero hint.
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        cluster(
            1,
            Some(AdmissionConfig {
                playouts_per_sec: 10.0,
                burst_playouts: 1_000,
                max_pending: 64,
                ..Default::default()
            }),
        ),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), "").unwrap();
    let a = client.submit(&request(1_000)).unwrap();
    let b = client.submit(&request(1_000)).unwrap();
    match client.wait_outcome(b).unwrap() {
        Outcome::Rejected { code, retry_after } => {
            assert_eq!(code, RejectCode::RateLimited);
            assert!(
                retry_after > Duration::ZERO,
                "transient shed carries a hint"
            );
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert!(matches!(client.wait_outcome(a).unwrap(), Outcome::Done(_)));
    let stats = server.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.admitted, 1);
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn oversized_budget_is_too_large() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        cluster(1, open_admission()),
        ServerConfig {
            max_playouts: 10_000,
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), "").unwrap();
    let id = client.submit(&request(10_001)).unwrap();
    match client.wait_outcome(id).unwrap() {
        Outcome::Rejected { code, retry_after } => {
            assert_eq!(code, RejectCode::TooLarge);
            assert_eq!(retry_after, Duration::ZERO, "no wait helps");
        }
        other => panic!("{other:?}"),
    }
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn bad_requests_are_rejected_not_fatal() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        cluster(1, open_admission()),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), "").unwrap();
    // Illegal move prefix: square 0 played twice.
    let bad = WireRequest::new(GameSpec::TicTacToe)
        .moves(vec![0, 0])
        .playouts(100);
    let id = client.submit(&bad).unwrap();
    match client.wait_outcome(id).unwrap() {
        Outcome::Rejected { code, .. } => assert_eq!(code, RejectCode::BadRequest),
        other => panic!("{other:?}"),
    }
    // The connection survives: a good request still works.
    let id = client.submit(&request(200)).unwrap();
    assert!(matches!(client.wait_outcome(id).unwrap(), Outcome::Done(_)));
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn shutdown_drains_then_rejects_as_draining() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        cluster(1, open_admission()),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr, "").unwrap();
    let id = client.submit(&request(1_500)).unwrap();
    // Don't race the drain gate: wait until the session is admitted.
    match client.recv().unwrap() {
        Event::Accepted { .. } | Event::Snapshot { .. } => {}
        other => panic!("{other:?}"),
    }
    // Drain with a generous timeout: the in-flight session finishes and
    // its Final frame is delivered before the socket closes.
    let report = server.shutdown(Duration::from_secs(30));
    assert!(report.drained, "{report:?}");
    assert_eq!(report.cancelled, 0);
    match client.wait_outcome(id).unwrap() {
        Outcome::Done(result) => assert_eq!(result.playouts, 1_500),
        other => panic!("{other:?}"),
    }
    // The cluster no longer admits; accounting is back to zero.
    assert_eq!(server.cluster().pending_sessions(), 0);
    assert!(server.cluster().is_draining());
}
