//! The calling side: a small blocking client over one connection.
//!
//! One [`Client`] multiplexes any number of concurrent sessions over
//! its connection — frames for different sessions interleave on the
//! wire and are de-interleaved here by id. The typical shapes:
//!
//! * fire-and-wait: [`Client::submit`] then [`Client::wait_outcome`];
//! * streaming: [`Client::submit`] then [`Client::recv`] in a loop,
//!   acting on each [`Event::Snapshot`] as it lands;
//! * cancel mid-run: [`Client::cancel`] from the same thread between
//!   `recv` calls (the stream still ends with exactly one terminal
//!   event for the session).

use crate::frame::{
    read_frame, us_to_duration, write_frame, FailKind, Frame, GameSpec, RejectCode, WireResult,
    MAX_FRAME, PROTOCOL_VERSION,
};
use serve::Priority;
use std::collections::VecDeque;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One search request as the client states it. Build with the chained
/// setters; `submit` assigns the session id.
#[derive(Debug, Clone)]
pub struct WireRequest {
    pub spec: GameSpec,
    /// Moves from the game's initial position to the root to search.
    pub moves: Vec<u16>,
    pub playouts: u64,
    /// 0 = no deadline.
    pub time_ms: u64,
    /// Tree-memory bound in slots; the server converts it to bytes
    /// (`n × NodeArena::slot_bytes()`, saturating). 0 = inherit the
    /// server default.
    pub max_nodes: u64,
    pub priority: Priority,
}

impl WireRequest {
    pub fn new(spec: GameSpec) -> Self {
        WireRequest {
            spec,
            moves: Vec::new(),
            playouts: 256,
            time_ms: 0,
            max_nodes: 0,
            priority: Priority::Normal,
        }
    }

    pub fn moves(mut self, moves: Vec<u16>) -> Self {
        self.moves = moves;
        self
    }

    pub fn playouts(mut self, playouts: u64) -> Self {
        self.playouts = playouts;
        self
    }

    pub fn time_ms(mut self, time_ms: u64) -> Self {
        self.time_ms = time_ms;
        self
    }

    pub fn max_nodes(mut self, max_nodes: u64) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    fn priority_byte(&self) -> u8 {
        match self.priority {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }
}

/// Something the server said about one of this connection's sessions.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Admitted and placed; snapshots follow.
    Accepted { id: u64, shard: u32 },
    /// Shed at the front door; nothing queued.
    Rejected {
        id: u64,
        code: RejectCode,
        retry_after: Duration,
    },
    /// A fresh anytime snapshot (`result.seq` strictly increases).
    Snapshot { id: u64, result: WireResult },
    /// Terminal: ran to budget (`cancelled == false`) or honored a
    /// cancel (`true`).
    Final {
        id: u64,
        cancelled: bool,
        result: WireResult,
    },
    /// Terminal: the session died server-side.
    Failed {
        id: u64,
        kind: FailKind,
        retry_after: Duration,
        message: String,
    },
}

impl Event {
    /// The session this event is about.
    pub fn id(&self) -> u64 {
        match self {
            Event::Accepted { id, .. }
            | Event::Rejected { id, .. }
            | Event::Snapshot { id, .. }
            | Event::Final { id, .. }
            | Event::Failed { id, .. } => *id,
        }
    }

    /// True for the three event kinds that end a session's stream.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Event::Rejected { .. } | Event::Final { .. } | Event::Failed { .. }
        )
    }
}

/// How one session ended, as [`Client::wait_outcome`] reports it.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Ran its full budget.
    Done(WireResult),
    /// Cancelled; carries the partial result at cancellation.
    Cancelled(WireResult),
    /// Died server-side.
    Failed { kind: FailKind, message: String },
    /// Never admitted.
    Rejected {
        code: RejectCode,
        retry_after: Duration,
    },
}

/// Blocking protocol client (see module docs).
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    /// Events read while looking for something else (e.g. snapshots
    /// that arrived while waiting for a `StatsJson`).
    pending: VecDeque<Event>,
    snapshots_seen: u64,
    max_frame: usize,
}

impl Client {
    /// Connect and run the `Hello`/`Welcome` handshake. A server
    /// without an auth token accepts any `token`.
    pub fn connect(addr: impl ToSocketAddrs, token: &str) -> io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_frame(
            &mut stream,
            &Frame::Hello {
                proto: PROTOCOL_VERSION,
                token: token.to_string(),
            },
        )?;
        match read_frame(&mut stream, MAX_FRAME)? {
            Frame::Welcome { .. } => Ok(Client {
                stream,
                next_id: 1,
                pending: VecDeque::new(),
                snapshots_seen: 0,
                max_frame: MAX_FRAME,
            }),
            Frame::Error { message } => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("server rejected handshake: {message}"),
            )),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected handshake reply: {other:?}"),
            )),
        }
    }

    /// Submit a search; returns the session id scoping all its events.
    /// The admission verdict arrives as the session's first event
    /// (`Accepted` or `Rejected`), not as this call's result.
    pub fn submit(&mut self, req: &WireRequest) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(
            &mut self.stream,
            &Frame::Submit {
                id,
                spec: req.spec,
                moves: req.moves.clone(),
                playouts: req.playouts,
                time_ms: req.time_ms,
                max_nodes: req.max_nodes,
                priority: req.priority_byte(),
            },
        )?;
        Ok(id)
    }

    /// Ask the server to cancel session `id` (its stream still ends
    /// with one terminal event — `Final { cancelled: true }` if the
    /// cancel won the race).
    pub fn cancel(&mut self, id: u64) -> io::Result<()> {
        write_frame(&mut self.stream, &Frame::Cancel { id })
    }

    /// Clean goodbye; the server tears the connection down.
    pub fn goodbye(mut self) -> io::Result<()> {
        write_frame(&mut self.stream, &Frame::Goodbye)
    }

    /// Fetch the cluster metrics dump
    /// ([`serve::ClusterStats::metrics_json`]). Session events arriving
    /// in the meantime are stashed for later [`Client::recv`] calls.
    pub fn stats(&mut self) -> io::Result<String> {
        write_frame(&mut self.stream, &Frame::StatsReq)?;
        loop {
            match read_frame(&mut self.stream, self.max_frame)? {
                Frame::StatsJson { json } => return Ok(json),
                other => {
                    let ev = self.frame_to_event(other)?;
                    self.pending.push_back(ev);
                }
            }
        }
    }

    /// Next event, blocking. Events interleave across this
    /// connection's sessions; route by [`Event::id`].
    pub fn recv(&mut self) -> io::Result<Event> {
        if let Some(ev) = self.pending.pop_front() {
            return Ok(ev);
        }
        let frame = read_frame(&mut self.stream, self.max_frame)?;
        self.frame_to_event(frame)
    }

    /// [`Client::recv`] bounded by a timeout; `Ok(None)` when it
    /// elapses with nothing new.
    pub fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Event>> {
        if let Some(ev) = self.pending.pop_front() {
            return Ok(Some(ev));
        }
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let got = match read_frame(&mut self.stream, self.max_frame) {
            Ok(frame) => Some(self.frame_to_event(frame)?),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                None
            }
            Err(e) => {
                self.stream.set_read_timeout(None)?;
                return Err(e);
            }
        };
        self.stream.set_read_timeout(None)?;
        Ok(got)
    }

    /// Block until session `id` reaches its terminal event, discarding
    /// (but counting) its snapshots; other sessions' events are stashed.
    pub fn wait_outcome(&mut self, id: u64) -> io::Result<Outcome> {
        // Pending events for this id first.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].id() == id {
                let ev = self.pending.remove(i).unwrap();
                if let Some(outcome) = Self::terminal_outcome(ev) {
                    return Ok(outcome);
                }
            } else {
                i += 1;
            }
        }
        loop {
            let frame = read_frame(&mut self.stream, self.max_frame)?;
            let ev = self.frame_to_event(frame)?;
            if ev.id() != id {
                self.pending.push_back(ev);
                continue;
            }
            if let Some(outcome) = Self::terminal_outcome(ev) {
                return Ok(outcome);
            }
        }
    }

    /// Snapshots this client has received over its lifetime (all
    /// sessions).
    pub fn snapshots_seen(&self) -> u64 {
        self.snapshots_seen
    }

    fn terminal_outcome(ev: Event) -> Option<Outcome> {
        match ev {
            Event::Final {
                cancelled, result, ..
            } => Some(if cancelled {
                Outcome::Cancelled(result)
            } else {
                Outcome::Done(result)
            }),
            Event::Failed { kind, message, .. } => Some(Outcome::Failed { kind, message }),
            Event::Rejected {
                code, retry_after, ..
            } => Some(Outcome::Rejected { code, retry_after }),
            Event::Accepted { .. } | Event::Snapshot { .. } => None,
        }
    }

    fn frame_to_event(&mut self, frame: Frame) -> io::Result<Event> {
        Ok(match frame {
            Frame::Accepted { id, shard } => Event::Accepted { id, shard },
            Frame::Reject {
                id,
                code,
                retry_after_us,
            } => Event::Rejected {
                id,
                code,
                retry_after: us_to_duration(retry_after_us),
            },
            Frame::Snapshot { id, result } => {
                self.snapshots_seen += 1;
                Event::Snapshot { id, result }
            }
            Frame::Final {
                id,
                cancelled,
                result,
            } => Event::Final {
                id,
                cancelled,
                result,
            },
            Frame::Failed {
                id,
                kind,
                retry_after_us,
                message,
            } => Event::Failed {
                id,
                kind,
                retry_after: us_to_duration(retry_after_us),
                message,
            },
            Frame::Error { message } => {
                return Err(io::Error::other(format!("server error: {message}")))
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected frame from server: {other:?}"),
                ))
            }
        })
    }
}
