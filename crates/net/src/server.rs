//! The serving side: a TCP front door over one [`ServeCluster`].
//!
//! Thread model — **fixed acceptor, two threads per connection, zero
//! threads borrowed from search**:
//!
//! * one acceptor thread owns the listener (non-blocking, polls a
//!   shutdown flag);
//! * each connection gets a *reader* (handshake, frame decode, submit /
//!   cancel / stats dispatch) and a *writer* (drains the bounded
//!   control queue, then forwards every active session's
//!   [`serve::ResultStream`]). With exactly one live session the
//!   writer blocks on that stream — the snapshot/Final publication is
//!   the wakeup, so an idle connection costs no polling at all; with
//!   several it falls back to a short non-blocking poll loop.
//!
//! Backpressure is strictly per-connection: a slow reader fills its own
//! outbound queue and blocks its own reader thread; search workers
//! never wait on a socket. Snapshots are not queued at all — the
//! result stream has watch semantics, so a client that cannot keep up
//! receives the *latest* snapshot and the ones it missed are counted
//! shed ([`NetStatsSnapshot::snapshots_shed`]), never buffered.
//!
//! Admission is two gates deep: an optional per-connection quota
//! ([`ServerConfig::client_quota`]) sheds a greedy tenant with
//! [`RejectCode::QuotaExceeded`] before the cluster's per-model
//! admission ever sees the request; cluster-side shedding and breaker
//! state map onto [`Frame::Reject`] with the same honest `retry_after`
//! the in-process API gets.

use crate::frame::{
    duration_to_us, FailKind, Frame, FrameReader, GameSpec, ReadError, RejectCode, WireResult,
    MAX_FRAME, PROTOCOL_VERSION,
};
use games::gomoku::Gomoku;
use games::hex::Hex;
use games::othello::Othello;
use games::tictactoe::TicTacToe;
use games::{connect4::Connect4, Game};
use mcts::{BatchEvaluator, Budget, MctsConfig, NodeArena, SearchError, UniformEvaluator};
use parking_lot::{Condvar, Mutex};
use serve::{
    AdmissionConfig, AdmissionController, ClusterTicket, DrainReport, Priority, Rejection,
    ResultStream, SearchRequest, ServeCluster, StreamItem, TicketStatus,
};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Front-end knobs. `Default` is sized for tests and demos; a real
/// deployment mostly raises `max_conns` and sets an `auth_token`.
#[derive(Clone)]
pub struct ServerConfig {
    /// Shared secret a client must present in `Hello`. `None` accepts
    /// any token (loopback benchmarking).
    pub auth_token: Option<String>,
    /// Connection cap; the acceptor refuses (with an `Error` frame)
    /// past it, bounding the thread count at `2 × max_conns + 1`.
    pub max_conns: usize,
    /// Per-frame length cap checked before any allocation.
    pub max_frame: usize,
    /// Bound on each connection's control-frame queue
    /// (`Accepted`/`Reject`/`StatsJson`). A full queue blocks that
    /// connection's reader — backpressure on the one slow client.
    pub outbound_queue: usize,
    /// Per-connection admission quota layered *before* the cluster's
    /// per-model gate; `None` disables the tenant gate.
    pub client_quota: Option<AdmissionConfig>,
    /// How long a fresh connection may take to present a valid `Hello`.
    pub handshake_timeout: Duration,
    /// How long a peer may sit mid-frame (bytes promised, not sent)
    /// before the server declares it stalled and closes.
    pub stall_timeout: Duration,
    /// Largest per-request playout budget; above it the submit is
    /// bounced as [`RejectCode::TooLarge`] without touching admission.
    pub max_playouts: u64,
    /// Longest move prefix a `Submit` may carry.
    pub max_moves: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            auth_token: None,
            max_conns: 256,
            max_frame: MAX_FRAME,
            outbound_queue: 64,
            client_quota: None,
            handshake_timeout: Duration::from_secs(5),
            stall_timeout: Duration::from_secs(10),
            max_playouts: 10_000_000,
            max_moves: 1024,
        }
    }
}

impl ServerConfig {
    /// Defaults overlaid with the `NET_*` environment knobs
    /// (`NET_AUTH_TOKEN`, `NET_MAX_CONNS`, `NET_OUTBOUND_QUEUE`,
    /// `NET_MAX_FRAME`); unparsable values fall back silently. The
    /// listen address itself is passed to [`NetServer::bind`] — the
    /// `NET_LISTEN_ADDR` convention is the caller's to honor.
    pub fn from_env() -> Self {
        let mut cfg = ServerConfig::default();
        if let Ok(tok) = std::env::var("NET_AUTH_TOKEN") {
            if !tok.is_empty() {
                cfg.auth_token = Some(tok);
            }
        }
        let parse = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<usize>().ok());
        if let Some(v) = parse("NET_MAX_CONNS") {
            cfg.max_conns = v.max(1);
        }
        if let Some(v) = parse("NET_OUTBOUND_QUEUE") {
            cfg.outbound_queue = v.max(1);
        }
        if let Some(v) = parse("NET_MAX_FRAME") {
            cfg.max_frame = v.max(64);
        }
        cfg
    }
}

/// Counters of everything the front door did, mirrored from atomics by
/// [`NetServer::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Connections accepted (past the handshake or not).
    pub accepted: u64,
    /// Connections refused at the cap.
    pub refused: u64,
    /// Handshakes that failed (bad token, bad version, no `Hello`).
    pub auth_failures: u64,
    /// Frames that failed to decode (the connection is closed after).
    pub decode_errors: u64,
    /// Connections closed for stalling mid-frame.
    pub stalls: u64,
    /// `Submit` frames received.
    pub submits: u64,
    /// Submits admitted end-to-end (quota and cluster both said yes).
    pub admitted: u64,
    /// Submits bounced with a `Reject` frame (either gate).
    pub rejected: u64,
    /// `Cancel` frames honored.
    pub cancels: u64,
    /// Snapshot frames written to sockets.
    pub snapshots_sent: u64,
    /// Snapshots superseded before a slow client's writer could send
    /// them (watch semantics: dropped, never queued).
    pub snapshots_shed: u64,
}

#[derive(Default)]
struct NetStats {
    accepted: AtomicU64,
    refused: AtomicU64,
    auth_failures: AtomicU64,
    decode_errors: AtomicU64,
    stalls: AtomicU64,
    submits: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    cancels: AtomicU64,
    snapshots_sent: AtomicU64,
    snapshots_shed: AtomicU64,
}

impl NetStats {
    fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            auth_failures: self.auth_failures.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            submits: self.submits.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            cancels: self.cancels.load(Ordering::Relaxed),
            snapshots_sent: self.snapshots_sent.load(Ordering::Relaxed),
            snapshots_shed: self.snapshots_shed.load(Ordering::Relaxed),
        }
    }
}

/// Builds (and implicitly keys) the evaluator for a game spec. The
/// server caches one evaluator per distinct spec, so every remote
/// session on the same game shares one backend `Arc` — cross-session
/// batch coalescing and per-model admission both key off that identity.
pub type EvalFactory = Box<dyn Fn(&GameSpec) -> Arc<dyn BatchEvaluator> + Send + Sync>;

fn uniform_factory(spec: &GameSpec) -> Arc<dyn BatchEvaluator> {
    match *spec {
        GameSpec::TicTacToe => Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        GameSpec::Connect4 => Arc::new(UniformEvaluator::for_game(&Connect4::new())),
        GameSpec::Gomoku { size, win } => Arc::new(UniformEvaluator::for_game(&Gomoku::new(
            size as usize,
            win as usize,
        ))),
        GameSpec::Othello { size } => {
            Arc::new(UniformEvaluator::for_game(&Othello::new(size as usize)))
        }
        GameSpec::Hex { size } => Arc::new(UniformEvaluator::for_game(&Hex::new(size as usize))),
    }
}

/// One active remote session on a connection: the writer's half (the
/// stream it forwards). The cancel handle lives separately in
/// [`ConnShared::tickets`] so the reader can cancel without contending
/// on the writer's list — which lets the writer block on a lone
/// session's stream instead of polling it.
struct SessionEntry {
    id: u64,
    /// The `Accepted` frame, held here (not in the control queue) so
    /// the writer structurally cannot emit a snapshot before it.
    announce: Option<Frame>,
    stream: ResultStream,
    last_seq: u64,
}

/// State shared between one connection's reader and writer.
struct ConnShared {
    outbound: Mutex<VecDeque<Frame>>,
    /// Reader waits here when the control queue is full.
    space: Condvar,
    /// Writer waits here (with a short timeout — snapshots arrive out
    /// of band) when it has nothing to send.
    work: Condvar,
    sessions: Mutex<Vec<SessionEntry>>,
    /// Live cancel handles by session id (reader-side: Cancel frames,
    /// duplicate-id checks, teardown). Pruned by the writer when a
    /// session reaches its terminal frame.
    tickets: Mutex<Vec<(u64, ClusterTicket)>>,
    /// Hard stop: both threads exit as soon as they see it.
    closed: AtomicBool,
    /// Soft stop: the writer flushes the control queue, then shuts the
    /// socket down (protocol-error goodbyes).
    closing: AtomicBool,
    /// Per-connection tenant quota (key 0), if configured.
    quota: Option<AdmissionController>,
}

impl ConnShared {
    fn push_frame(&self, cap: usize, frame: Frame) {
        let mut q = self.outbound.lock();
        while q.len() >= cap && !self.closed.load(Ordering::Acquire) {
            let (guard, _) = self.space.wait_timeout(q, Duration::from_millis(50));
            q = guard;
        }
        q.push_back(frame);
        self.work.notify_all();
    }

    fn close_now(&self) {
        self.closed.store(true, Ordering::Release);
        self.work.notify_all();
        self.space.notify_all();
    }

    fn cancel_all_sessions(&self) {
        for (_, ticket) in self.tickets.lock().iter() {
            ticket.cancel();
        }
    }

    fn prune_ticket(&self, id: u64) {
        self.tickets.lock().retain(|(tid, _)| *tid != id);
    }
}

struct ConnHandle {
    shared: Arc<ConnShared>,
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

struct ServerInner {
    cluster: Arc<ServeCluster>,
    cfg: ServerConfig,
    factory: EvalFactory,
    evaluators: Mutex<Vec<(GameSpec, Arc<dyn BatchEvaluator>)>>,
    shutdown: AtomicBool,
    conns: Mutex<Vec<ConnHandle>>,
    stats: NetStats,
}

impl ServerInner {
    fn evaluator_for(&self, spec: &GameSpec) -> Arc<dyn BatchEvaluator> {
        let mut cache = self.evaluators.lock();
        if let Some((_, e)) = cache.iter().find(|(s, _)| s == spec) {
            return Arc::clone(e);
        }
        let e = (self.factory)(spec);
        cache.push((*spec, Arc::clone(&e)));
        e
    }
}

/// The TCP front end over one [`ServeCluster`] (see module docs).
/// Dropping the server shuts it down immediately (zero drain timeout).
pub struct NetServer {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (use port 0 to let the OS pick — see
    /// [`NetServer::local_addr`]) and start accepting. Remote sessions
    /// run uniform-rollout evaluators built per game spec; use
    /// [`NetServer::bind_with_factory`] to serve real models.
    pub fn bind(
        addr: impl ToSocketAddrs,
        cluster: Arc<ServeCluster>,
        cfg: ServerConfig,
    ) -> io::Result<NetServer> {
        Self::bind_with_factory(addr, cluster, cfg, Box::new(uniform_factory))
    }

    /// [`NetServer::bind`] with a custom evaluator factory (one call
    /// per *distinct* game spec; the result is cached and shared).
    pub fn bind_with_factory(
        addr: impl ToSocketAddrs,
        cluster: Arc<ServeCluster>,
        cfg: ServerConfig,
        factory: EvalFactory,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(ServerInner {
            cluster,
            cfg,
            factory,
            evaluators: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            stats: NetStats::default(),
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("net-acceptor".into())
                .spawn(move || accept_loop(listener, inner))
                .expect("spawn acceptor")
        };
        Ok(NetServer {
            inner,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Front-door counters so far.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// The cluster behind the front door.
    pub fn cluster(&self) -> &Arc<ServeCluster> {
        &self.inner.cluster
    }

    /// Graceful stop: stop accepting, [`ServeCluster::drain`] with
    /// `timeout` (in-flight remote sessions finish; stragglers are
    /// cancelled at the deadline), give writers a beat to flush final
    /// frames, then close every connection and join all threads.
    pub fn shutdown(&mut self, timeout: Duration) -> DrainReport {
        self.inner.shutdown.store(true, Ordering::Release);
        let report = self.inner.cluster.drain(timeout);
        // Let per-connection writers deliver the Final/Failed frames
        // the drain just produced before the sockets go away.
        std::thread::sleep(Duration::from_millis(50));
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let mut conns = std::mem::take(&mut *self.inner.conns.lock());
        for c in &mut conns {
            c.shared.close_now();
            let _ = c.stream.shutdown(Shutdown::Both);
        }
        for mut c in conns {
            if let Some(h) = c.reader.take() {
                let _ = h.join();
            }
            if let Some(h) = c.writer.take() {
                let _ = h.join();
            }
        }
        report
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if !self.inner.shutdown.load(Ordering::Acquire) {
            self.shutdown(Duration::ZERO);
        }
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<ServerInner>) {
    while !inner.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Reap finished connections so the cap counts live ones.
                let live = {
                    let mut conns = inner.conns.lock();
                    conns.retain(|c| {
                        !(c.reader.as_ref().is_none_or(|h| h.is_finished())
                            && c.writer.as_ref().is_none_or(|h| h.is_finished()))
                    });
                    conns.len()
                };
                if live >= inner.cfg.max_conns {
                    inner.stats.refused.fetch_add(1, Ordering::Relaxed);
                    let mut s = stream;
                    let _ = s.set_nonblocking(false);
                    let _ = crate::frame::write_frame(
                        &mut s,
                        &Frame::Error {
                            message: "connection limit reached".into(),
                        },
                    );
                    let _ = s.shutdown(Shutdown::Both);
                    continue;
                }
                inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
                spawn_connection(stream, Arc::clone(&inner));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn spawn_connection(stream: TcpStream, inner: Arc<ServerInner>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_nonblocking(false);
    let shared = Arc::new(ConnShared {
        outbound: Mutex::new(VecDeque::new()),
        space: Condvar::new(),
        work: Condvar::new(),
        sessions: Mutex::new(Vec::new()),
        tickets: Mutex::new(Vec::new()),
        closed: AtomicBool::new(false),
        closing: AtomicBool::new(false),
        quota: inner.cfg.client_quota.map(AdmissionController::new),
    });
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let reader = {
        let shared = Arc::clone(&shared);
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("net-conn-reader".into())
            .spawn(move || reader_loop(reader_stream, shared, inner))
            .expect("spawn reader")
    };
    let writer = {
        let shared = Arc::clone(&shared);
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("net-conn-writer".into())
            .spawn(move || writer_loop(writer_stream, shared, inner))
            .expect("spawn writer")
    };
    inner.conns.lock().push(ConnHandle {
        shared,
        stream,
        reader: Some(reader),
        writer: Some(writer),
    });
}

/// Cancel every session this connection owns (freeing cluster admission
/// slots via the finalization hook) and stop both threads.
fn teardown(shared: &ConnShared) {
    shared.cancel_all_sessions();
    shared.close_now();
}

fn reader_loop(mut stream: TcpStream, shared: Arc<ConnShared>, inner: Arc<ServerInner>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut frames = FrameReader::new(inner.cfg.max_frame);
    // Handshake: one valid Hello within the timeout, or goodbye.
    let deadline = Instant::now() + inner.cfg.handshake_timeout;
    let hello = loop {
        if shared.closed.load(Ordering::Acquire) {
            return;
        }
        match frames.poll(&mut stream) {
            Ok(Some(f)) => break Some(f),
            Ok(None) => {
                if Instant::now() >= deadline {
                    break None;
                }
            }
            Err(_) => break None,
        }
    };
    let ok = matches!(
        &hello,
        Some(Frame::Hello { proto, token })
            if *proto == PROTOCOL_VERSION
                && inner.cfg.auth_token.as_ref().is_none_or(|t| t == token)
    );
    if !ok {
        inner.stats.auth_failures.fetch_add(1, Ordering::Relaxed);
        shared.push_frame(
            inner.cfg.outbound_queue,
            Frame::Error {
                message: "handshake rejected".into(),
            },
        );
        shared.closing.store(true, Ordering::Release);
        shared.work.notify_all();
        return;
    }
    shared.push_frame(
        inner.cfg.outbound_queue,
        Frame::Welcome {
            proto: PROTOCOL_VERSION,
        },
    );

    let mut stall_since: Option<Instant> = None;
    let mut buffered = 0usize;
    loop {
        if shared.closed.load(Ordering::Acquire) || shared.closing.load(Ordering::Acquire) {
            return;
        }
        match frames.poll(&mut stream) {
            Ok(Some(frame)) => {
                stall_since = None;
                match frame {
                    Frame::Submit {
                        id,
                        spec,
                        moves,
                        playouts,
                        time_ms,
                        max_nodes,
                        priority,
                    } => handle_submit(
                        &inner, &shared, id, spec, &moves, playouts, time_ms, max_nodes, priority,
                    ),
                    Frame::Cancel { id } => {
                        inner.stats.cancels.fetch_add(1, Ordering::Relaxed);
                        if let Some((_, t)) =
                            shared.tickets.lock().iter().find(|(tid, _)| *tid == id)
                        {
                            t.cancel();
                        }
                    }
                    Frame::StatsReq => {
                        let json = inner.cluster.stats().metrics_json();
                        shared.push_frame(inner.cfg.outbound_queue, Frame::StatsJson { json });
                    }
                    Frame::Goodbye => {
                        teardown(&shared);
                        return;
                    }
                    _ => {
                        // Server-bound direction only: a client sending
                        // server frames (or a second Hello) is confused.
                        inner.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                        protocol_error(&inner, &shared, "unexpected frame direction");
                        return;
                    }
                }
            }
            Ok(None) => {
                // No complete frame. A peer that has promised bytes and
                // stopped sending them is stalled, not idle.
                if frames.mid_frame() {
                    let progressed = frames_buffered(&frames) != buffered;
                    buffered = frames_buffered(&frames);
                    let since = *stall_since.get_or_insert_with(Instant::now);
                    if progressed {
                        stall_since = Some(Instant::now());
                    } else if since.elapsed() >= inner.cfg.stall_timeout {
                        inner.stats.stalls.fetch_add(1, Ordering::Relaxed);
                        protocol_error(&inner, &shared, "stalled mid-frame");
                        return;
                    }
                } else {
                    stall_since = None;
                }
            }
            Err(ReadError::Decode(_)) => {
                inner.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                protocol_error(&inner, &shared, "malformed frame");
                return;
            }
            Err(ReadError::Eof) | Err(ReadError::Io(_)) => {
                teardown(&shared);
                return;
            }
        }
    }
}

fn frames_buffered(r: &FrameReader) -> usize {
    // mid_frame() only says "non-empty"; progress detection needs the
    // byte count, tracked via the reader's Debug-free accessor below.
    r.buffered()
}

/// Send a final `Error` frame, then let the writer flush and close.
fn protocol_error(inner: &ServerInner, shared: &ConnShared, message: &str) {
    shared.push_frame(
        inner.cfg.outbound_queue,
        Frame::Error {
            message: message.into(),
        },
    );
    shared.cancel_all_sessions();
    shared.closing.store(true, Ordering::Release);
    shared.work.notify_all();
}

#[allow(clippy::too_many_arguments)]
fn handle_submit(
    inner: &Arc<ServerInner>,
    shared: &Arc<ConnShared>,
    id: u64,
    spec: GameSpec,
    moves: &[u16],
    playouts: u64,
    time_ms: u64,
    max_nodes: u64,
    priority: u8,
) {
    inner.stats.submits.fetch_add(1, Ordering::Relaxed);
    let reject = |code: RejectCode, retry: Duration| {
        inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
        shared.push_frame(
            inner.cfg.outbound_queue,
            Frame::Reject {
                id,
                code,
                retry_after_us: duration_to_us(retry),
            },
        );
    };
    if playouts == 0
        || moves.len() > inner.cfg.max_moves
        || priority > 2
        || spec.validate().is_err()
        || shared.tickets.lock().iter().any(|(tid, _)| *tid == id)
    {
        reject(RejectCode::BadRequest, Duration::ZERO);
        return;
    }
    if playouts > inner.cfg.max_playouts {
        reject(RejectCode::TooLarge, Duration::ZERO);
        return;
    }
    // Tenant gate first: one greedy connection exhausts its own quota,
    // not the model's budget for everyone.
    if let Some(q) = &shared.quota {
        if let Err(rej) = q.try_admit(0, playouts) {
            reject(RejectCode::QuotaExceeded, rej.retry_after);
            return;
        }
    }
    let evaluator = inner.evaluator_for(&spec);
    let priority = match priority {
        0 => Priority::Low,
        1 => Priority::Normal,
        _ => Priority::High,
    };
    // The wire counts tree memory in slots; everything behind it counts
    // bytes. Converted here, once, saturating: `n` slots are exactly the
    // `n × slot_bytes` bytes that `MctsConfig::node_budget` turns back
    // into `n`, and a count no arena can hold prices as "all of memory".
    let budget = Budget {
        playouts: Some(playouts),
        time: (time_ms > 0).then(|| Duration::from_millis(time_ms)),
        max_bytes: (max_nodes > 0).then(|| {
            usize::try_from(max_nodes)
                .unwrap_or(usize::MAX)
                .saturating_mul(NodeArena::slot_bytes())
        }),
    };
    let submitted = match spec {
        GameSpec::TicTacToe => {
            submit_game(inner, TicTacToe::new(), moves, evaluator, budget, priority)
        }
        GameSpec::Connect4 => {
            submit_game(inner, Connect4::new(), moves, evaluator, budget, priority)
        }
        GameSpec::Gomoku { size, win } => submit_game(
            inner,
            Gomoku::new(size as usize, win as usize),
            moves,
            evaluator,
            budget,
            priority,
        ),
        GameSpec::Othello { size } => submit_game(
            inner,
            Othello::new(size as usize),
            moves,
            evaluator,
            budget,
            priority,
        ),
        GameSpec::Hex { size } => submit_game(
            inner,
            Hex::new(size as usize),
            moves,
            evaluator,
            budget,
            priority,
        ),
    };
    match submitted {
        Ok(ticket) => {
            inner.stats.admitted.fetch_add(1, Ordering::Relaxed);
            let entry = SessionEntry {
                id,
                announce: Some(Frame::Accepted {
                    id,
                    shard: ticket.shard() as u32,
                }),
                stream: ticket.subscribe(),
                last_seq: 0,
            };
            shared.tickets.lock().push((id, ticket));
            shared.sessions.lock().push(entry);
            shared.work.notify_all();
        }
        Err(SubmitError::Bad) => {
            if let Some(q) = &shared.quota {
                q.release(0);
            }
            reject(RejectCode::BadRequest, Duration::ZERO);
        }
        Err(SubmitError::Shed(rej)) => {
            if let Some(q) = &shared.quota {
                q.release(0);
            }
            reject(rej.reason.into(), rej.retry_after);
        }
    }
}

enum SubmitError {
    /// Illegal move prefix or terminal root.
    Bad,
    /// The cluster shed it.
    Shed(Rejection),
}

fn submit_game<G: Game>(
    inner: &ServerInner,
    mut game: G,
    moves: &[u16],
    evaluator: Arc<dyn BatchEvaluator>,
    budget: Budget,
    priority: Priority,
) -> Result<ClusterTicket, SubmitError> {
    for &m in moves {
        if game.status().is_terminal() || !game.is_legal(m) {
            return Err(SubmitError::Bad);
        }
        game.apply(m);
    }
    if game.status().is_terminal() {
        return Err(SubmitError::Bad);
    }
    let config = MctsConfig {
        playouts: budget.playouts.unwrap_or(1) as usize,
        ..Default::default()
    };
    inner
        .cluster
        .submit(
            SearchRequest::new(game, evaluator)
                .config(config)
                .budget(budget)
                .priority(priority),
        )
        .map_err(SubmitError::Shed)
}

fn terminal_frame(id: u64, result: &WireResult, status: &TicketStatus) -> Frame {
    match status {
        TicketStatus::Done | TicketStatus::Running => Frame::Final {
            id,
            cancelled: false,
            result: result.clone(),
        },
        TicketStatus::Cancelled => Frame::Final {
            id,
            cancelled: true,
            result: result.clone(),
        },
        TicketStatus::Failed(err) => {
            let (kind, retry, message) = match err {
                SearchError::Panicked { payload } => {
                    (FailKind::Panicked, Duration::ZERO, payload.clone())
                }
                SearchError::EvaluatorFailed { reason } => {
                    (FailKind::EvaluatorFailed, Duration::ZERO, reason.clone())
                }
                SearchError::DeadlineExceeded => {
                    (FailKind::DeadlineExceeded, Duration::ZERO, String::new())
                }
                SearchError::Cancelled => (FailKind::Cancelled, Duration::ZERO, String::new()),
                SearchError::BackendUnavailable { retry_after } => (
                    FailKind::BackendUnavailable,
                    retry_after.unwrap_or(Duration::ZERO),
                    String::new(),
                ),
            };
            let mut message = message;
            message.truncate(200);
            Frame::Failed {
                id,
                kind,
                retry_after_us: duration_to_us(retry),
                message,
            }
        }
    }
}

/// Forward everything `e`'s stream has ready right now into `pending`:
/// announce first (ordering!), then the latest unseen snapshot(s), then
/// at most one terminal frame. Returns true when the session finished.
fn drain_session(
    e: &mut SessionEntry,
    pending: &mut Vec<Frame>,
    shared: &ConnShared,
    inner: &ServerInner,
) -> bool {
    if let Some(a) = e.announce.take() {
        pending.push(a);
    }
    while let Some(item) = e.stream.recv_timeout(Duration::ZERO) {
        match item {
            StreamItem::Partial(snap) => {
                if e.last_seq > 0 && snap.stats.seq > e.last_seq + 1 {
                    inner
                        .stats
                        .snapshots_shed
                        .fetch_add(snap.stats.seq - e.last_seq - 1, Ordering::Relaxed);
                }
                e.last_seq = snap.stats.seq;
                inner.stats.snapshots_sent.fetch_add(1, Ordering::Relaxed);
                pending.push(Frame::Snapshot {
                    id: e.id,
                    result: WireResult::from(&snap),
                });
            }
            StreamItem::Final(result, status) => {
                pending.push(terminal_frame(e.id, &WireResult::from(&result), &status));
                if let Some(q) = &shared.quota {
                    q.release(0);
                }
                return true;
            }
        }
    }
    false
}

fn writer_loop(mut stream: TcpStream, shared: Arc<ConnShared>, inner: Arc<ServerInner>) {
    let mut pending: Vec<Frame> = Vec::new();
    loop {
        if shared.closed.load(Ordering::Acquire) {
            break;
        }
        pending.clear();
        {
            let mut q = shared.outbound.lock();
            if !q.is_empty() {
                pending.extend(q.drain(..));
                shared.space.notify_all();
            }
        }
        {
            let mut sessions = shared.sessions.lock();
            let mut i = 0;
            while i < sessions.len() {
                if drain_session(&mut sessions[i], &mut pending, &shared, &inner) {
                    let id = sessions.remove(i).id;
                    shared.prune_ticket(id);
                } else {
                    i += 1;
                }
            }
        }
        if pending.is_empty() {
            if shared.closing.load(Ordering::Acquire) {
                // Goodbye flushed: close for real.
                let _ = stream.flush();
                let _ = stream.shutdown(Shutdown::Both);
                shared.close_now();
                break;
            }
            // Exactly one live session and nothing queued: block on its
            // stream instead of polling. The wakeup is the snapshot or
            // Final publication itself — zero idle wakeups, and the
            // terminal frame goes out the moment it exists (this
            // matters on core-starved hosts, where 1 ms poll naps
            // across many connections steal real time from the search
            // workers). The entry is lifted out of the shared list so
            // the reader never waits on a blocked writer; cancels and
            // duplicate-id checks go through `tickets`, which keeps the
            // session visible while it is lifted.
            let lone = {
                let mut sessions = shared.sessions.lock();
                if sessions.len() == 1 {
                    sessions.pop()
                } else {
                    None
                }
            };
            if let Some(mut e) = lone {
                // The reader may have pushed this entry after the scan
                // above: its Accepted frame must still precede any
                // snapshot the blocking recv returns.
                if let Some(a) = e.announce.take() {
                    pending.push(a);
                }
                let finished = match e.stream.recv_timeout(Duration::from_millis(5)) {
                    Some(StreamItem::Partial(snap)) => {
                        if e.last_seq > 0 && snap.stats.seq > e.last_seq + 1 {
                            inner
                                .stats
                                .snapshots_shed
                                .fetch_add(snap.stats.seq - e.last_seq - 1, Ordering::Relaxed);
                        }
                        e.last_seq = snap.stats.seq;
                        inner.stats.snapshots_sent.fetch_add(1, Ordering::Relaxed);
                        pending.push(Frame::Snapshot {
                            id: e.id,
                            result: WireResult::from(&snap),
                        });
                        // Grab anything else that is already ready.
                        drain_session(&mut e, &mut pending, &shared, &inner)
                    }
                    Some(StreamItem::Final(result, status)) => {
                        pending.push(terminal_frame(e.id, &WireResult::from(&result), &status));
                        if let Some(q) = &shared.quota {
                            q.release(0);
                        }
                        true
                    }
                    None => false,
                };
                if finished {
                    shared.prune_ticket(e.id);
                } else {
                    shared.sessions.lock().push(e);
                }
                if pending.is_empty() {
                    continue;
                }
            } else {
                // No sessions (or several — fall back to polling): nap
                // until the reader queues a control frame, with a short
                // cap so fresh snapshots are picked up.
                let q = shared.outbound.lock();
                if q.is_empty() {
                    let _ = shared.work.wait_timeout(q, Duration::from_millis(1));
                }
                continue;
            }
        }
        for f in &pending {
            if crate::frame::write_frame(&mut stream, f).is_err() {
                // Peer gone: cancel its sessions and stop both threads.
                teardown(&shared);
                return;
            }
        }
    }
}
