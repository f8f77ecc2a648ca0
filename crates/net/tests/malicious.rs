//! Hostile and broken clients: half-written frames, bad credentials,
//! quota abuse, mid-stream disconnects. The server must contain each
//! one — close the offending connection, refuse the request, free the
//! admission slot — without disturbing well-behaved neighbours.

use net::frame::{read_frame, write_frame};
use net::{
    Client, Event, Frame, GameSpec, NetServer, Outcome, RejectCode, ServerConfig, WireRequest,
    PROTOCOL_VERSION,
};
use serve::{AdmissionConfig, ClusterConfig, ServeCluster, ServeConfig};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cluster() -> Arc<ServeCluster> {
    Arc::new(ServeCluster::new(ClusterConfig {
        shards: 1,
        shard: ServeConfig {
            workers: 2,
            step_quota: 64,
            ..Default::default()
        },
        admission: Some(AdmissionConfig {
            playouts_per_sec: 1e9,
            burst_playouts: 1_000_000_000,
            max_pending: 1024,
            ..Default::default()
        }),
    }))
}

fn request(playouts: u64) -> WireRequest {
    WireRequest::new(GameSpec::Gomoku { size: 9, win: 5 }).playouts(playouts)
}

#[test]
fn half_frame_then_hang_is_stalled_out_without_collateral() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        cluster(),
        ServerConfig {
            stall_timeout: Duration::from_millis(200),
            handshake_timeout: Duration::from_secs(5),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Raw socket: complete the handshake, then write a frame header
    // promising 100 bytes, deliver 3, and go silent.
    let mut raw = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut raw,
        &Frame::Hello {
            proto: PROTOCOL_VERSION,
            token: String::new(),
        },
    )
    .unwrap();
    let welcome = read_frame(&mut raw, net::MAX_FRAME).unwrap();
    assert!(matches!(welcome, Frame::Welcome { .. }));
    raw.write_all(&100u32.to_le_bytes()).unwrap();
    raw.write_all(&[0x02, 0xAA, 0xBB]).unwrap();
    raw.flush().unwrap();

    // A well-behaved neighbour is unaffected while the stall clock runs.
    let mut good = Client::connect(addr, "").unwrap();
    let id = good.submit(&request(400)).unwrap();
    assert!(matches!(good.wait_outcome(id).unwrap(), Outcome::Done(_)));

    // The stalled connection gets closed and counted.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().stalls == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.stats();
    assert_eq!(stats.stalls, 1, "{stats:?}");
    assert_eq!(stats.admitted, 1);
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn wrong_auth_token_is_refused_at_handshake() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        cluster(),
        ServerConfig {
            auth_token: Some("sesame".into()),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let err = match Client::connect(addr, "not-sesame") {
        Err(e) => e,
        Ok(_) => panic!("wrong token must not connect"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);

    // The right token still gets in on the same server.
    let mut good = Client::connect(addr, "sesame").unwrap();
    let id = good.submit(&request(300)).unwrap();
    assert!(matches!(good.wait_outcome(id).unwrap(), Outcome::Done(_)));

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().auth_failures == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().auth_failures, 1);
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn malformed_frame_after_handshake_closes_the_connection() {
    let mut server = NetServer::bind("127.0.0.1:0", cluster(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut raw = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut raw,
        &Frame::Hello {
            proto: PROTOCOL_VERSION,
            token: String::new(),
        },
    )
    .unwrap();
    read_frame(&mut raw, net::MAX_FRAME).unwrap();
    // Valid length prefix, unknown frame type.
    raw.write_all(&1u32.to_le_bytes()).unwrap();
    raw.write_all(&[0xEE]).unwrap();
    raw.flush().unwrap();

    // The server answers with an Error frame and then closes.
    let reply = read_frame(&mut raw, net::MAX_FRAME).unwrap();
    assert!(matches!(reply, Frame::Error { .. }), "{reply:?}");
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().decode_errors == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.stats().decode_errors >= 1);
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn quota_exceeded_client_sees_reject_with_nonzero_retry_hint() {
    // Per-connection quota far below the cluster's: the second in-flight
    // session from one client trips it while the cluster stays open.
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        cluster(),
        ServerConfig {
            client_quota: Some(AdmissionConfig {
                playouts_per_sec: 100.0,
                burst_playouts: 1_000,
                max_pending: 8,
                ..Default::default()
            }),
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), "").unwrap();
    let a = client.submit(&request(1_000)).unwrap();
    let b = client.submit(&request(1_000)).unwrap();
    match client.wait_outcome(b).unwrap() {
        Outcome::Rejected { code, retry_after } => {
            assert_eq!(code, RejectCode::QuotaExceeded);
            assert!(
                retry_after > Duration::ZERO,
                "quota shed must carry an honest nonzero hint"
            );
        }
        other => panic!("expected quota Reject, got {other:?}"),
    }
    assert!(matches!(client.wait_outcome(a).unwrap(), Outcome::Done(_)));

    // A second connection has its own bucket and is not penalised.
    let mut other = Client::connect(server.local_addr(), "").unwrap();
    let id = other.submit(&request(1_000)).unwrap();
    assert!(matches!(other.wait_outcome(id).unwrap(), Outcome::Done(_)));

    let stats = server.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.admitted, 2);
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn disconnect_mid_stream_frees_session_and_admission_slot() {
    let mut server = NetServer::bind("127.0.0.1:0", cluster(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    {
        let mut client = Client::connect(addr, "").unwrap();
        // Big enough to still be running when the socket drops (but
        // under the server's max_playouts cap).
        let _ = client.submit(&request(9_000_000)).unwrap();
        // Wait until it is actually in flight.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.cluster().in_flight() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.cluster().in_flight(), 1);
        assert_eq!(server.cluster().pending_sessions(), 1);
        // Drop without Goodbye: simulates a crashed client.
    }

    // The server notices the dead socket, cancels the orphan session,
    // and the admission accounting unwinds to zero — no slot leak.
    let deadline = Instant::now() + Duration::from_secs(10);
    while (server.cluster().pending_sessions() > 0 || server.cluster().in_flight() > 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        server.cluster().pending_sessions(),
        0,
        "admission slot leaked: in_flight={} stats={:?}",
        server.cluster().in_flight(),
        server.stats()
    );
    assert_eq!(server.cluster().in_flight(), 0, "session leaked");

    // The freed capacity is immediately reusable.
    let mut next = Client::connect(addr, "").unwrap();
    let id = next.submit(&request(300)).unwrap();
    assert!(matches!(next.wait_outcome(id).unwrap(), Outcome::Done(_)));
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn submit_before_hello_is_refused() {
    let mut server = NetServer::bind("127.0.0.1:0", cluster(), ServerConfig::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // Skip the handshake entirely and try to submit.
    write_frame(
        &mut raw,
        &Frame::Submit {
            id: 1,
            spec: GameSpec::TicTacToe,
            moves: vec![],
            playouts: 100,
            time_ms: 0,
            max_nodes: 0,
            priority: 1,
        },
    )
    .unwrap();
    let reply = read_frame(&mut raw, net::MAX_FRAME).unwrap();
    assert!(matches!(reply, Frame::Error { .. }), "{reply:?}");
    assert_eq!(server.stats().admitted, 0);
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn oversized_max_nodes_is_priced_not_wrapped() {
    // `max_nodes` is a slot count; the server turns it into bytes once.
    // A count whose byte figure overflows must price as "all of memory"
    // — a terminal OverMemory shed — not panic the connection's reader
    // (debug) or wrap to a small price that admits an unbounded tree
    // (release). The connection stays usable afterwards.
    let quota = 1 << 20;
    let cluster = Arc::new(ServeCluster::new(ClusterConfig {
        shards: 1,
        shard: ServeConfig {
            workers: 2,
            step_quota: 64,
            ..Default::default()
        },
        admission: Some(AdmissionConfig {
            playouts_per_sec: 1e9,
            burst_playouts: 1_000_000_000,
            max_pending: 1024,
            session_byte_quota: Some(quota),
            ..Default::default()
        }),
    }));
    let mut server = NetServer::bind("127.0.0.1:0", cluster, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), "").unwrap();
    // Every event of one session up to its terminal one, with a deadline:
    // a server that never answers fails here instead of hanging the test.
    let mut terminal = |req: &WireRequest| -> Event {
        let id = client.submit(req).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            assert!(Instant::now() < deadline, "no terminal frame for {req:?}");
            match client.recv_timeout(Duration::from_millis(200)) {
                Ok(Some(ev)) if ev.id() == id && ev.is_terminal() => return ev,
                Ok(_) => {}
                Err(e) => panic!("connection lost waiting on {req:?}: {e}"),
            }
        }
    };
    let slot = mcts::NodeArena::slot_bytes() as u64;
    for max_nodes in [u64::MAX, u64::MAX / slot + 1] {
        match terminal(&request(2_000).max_nodes(max_nodes)) {
            Event::Rejected { code, .. } => assert_eq!(code, RejectCode::OverMemory),
            other => panic!("max_nodes {max_nodes}: expected OverMemory, got {other:?}"),
        }
    }
    // Ordinary submits on the same connection still run to the end, one
    // under the quota by its playouts, one by its own slot bound.
    for req in [request(100), request(2_000).max_nodes(2_000)] {
        match terminal(&req) {
            Event::Final { result, .. } => {
                assert_eq!(result.playouts, req.playouts);
                assert!(req.max_nodes == 0 || result.nodes <= req.max_nodes);
            }
            other => panic!("{req:?}: expected Final, got {other:?}"),
        }
    }
    let stats = server.stats();
    assert_eq!((stats.rejected, stats.admitted), (2, 2), "{stats:?}");
    server.shutdown(Duration::from_secs(5));
}
