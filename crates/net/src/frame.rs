//! The wire format: length-prefixed binary frames, little-endian
//! throughout.
//!
//! ```text
//! frame    := len:u32 | body
//! body     := type:u8 | payload          (len counts the body)
//! str      := n:u16 | utf8[n]
//! gamespec := tag:u8 | params            (see GameSpec)
//! result   := seq:u64 | playouts:u64 | nodes:u64 | value:f32
//!           | n:u16 | visits:u32[n] | probs:f32[n]
//! ```
//!
//! Decoding is hardened against hostile input: the declared length is
//! checked against [`MAX_FRAME`]/`max_frame` **before** any allocation,
//! every read goes through the checked `try_*` cursor (truncation yields
//! [`DecodeError::Truncated`], never a panic), element counts are
//! verified against the bytes actually present before a vector is
//! sized, and unknown type/enum bytes come back as typed errors.

use bytes::{Buf, BufMut};
use mcts::SearchResult;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Protocol version carried in `Hello`/`Welcome`. A server answers a
/// mismatched `Hello` with `Error` and closes.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default cap on a frame's declared body length. Nothing legitimate
/// comes close (the largest frame is a `Snapshot` for a big board:
/// a few KiB); a hostile 4 GiB length dies here before any allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Typed decode failure. Every malformed input maps to one of these —
/// the decoder has no panicking path and allocates nothing it has not
/// already seen bytes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the field it promised.
    Truncated,
    /// The length prefix exceeds the frame cap (or is zero).
    Oversized { declared: usize, max: usize },
    /// Unrecognized frame-type byte.
    UnknownType(u8),
    /// A field holds an out-of-range or malformed value (enum byte,
    /// UTF-8, board size, element count); the message names the field.
    BadValue(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame payload truncated"),
            DecodeError::Oversized { declared, max } => {
                write!(f, "declared frame length {declared} outside 1..={max}")
            }
            DecodeError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            DecodeError::BadValue(what) => write!(f, "bad field value: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Which game a `Submit` plays, with its board parameters. Decoding
/// validates the parameter ranges (they mirror the game constructors'
/// asserts), so the server's game factory never sees an unbuildable spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GameSpec {
    TicTacToe,
    Connect4,
    Gomoku { size: u8, win: u8 },
    Othello { size: u8 },
    Hex { size: u8 },
}

impl GameSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            GameSpec::TicTacToe => out.put_u8(0),
            GameSpec::Connect4 => out.put_u8(1),
            GameSpec::Gomoku { size, win } => {
                out.put_u8(2);
                out.put_u8(size);
                out.put_u8(win);
            }
            GameSpec::Othello { size } => {
                out.put_u8(3);
                out.put_u8(size);
            }
            GameSpec::Hex { size } => {
                out.put_u8(4);
                out.put_u8(size);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let spec = match buf.try_get_u8().ok_or(DecodeError::Truncated)? {
            0 => GameSpec::TicTacToe,
            1 => GameSpec::Connect4,
            2 => {
                let size = buf.try_get_u8().ok_or(DecodeError::Truncated)?;
                let win = buf.try_get_u8().ok_or(DecodeError::Truncated)?;
                GameSpec::Gomoku { size, win }
            }
            3 => {
                let size = buf.try_get_u8().ok_or(DecodeError::Truncated)?;
                GameSpec::Othello { size }
            }
            4 => {
                let size = buf.try_get_u8().ok_or(DecodeError::Truncated)?;
                GameSpec::Hex { size }
            }
            _ => return Err(DecodeError::BadValue("game tag")),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Range-check the board parameters against what the constructors
    /// accept, so instantiating a validated spec cannot hit an assert.
    pub fn validate(&self) -> Result<(), DecodeError> {
        let ok = match *self {
            GameSpec::TicTacToe | GameSpec::Connect4 => true,
            GameSpec::Gomoku { size, win } => (2..=32).contains(&size) && win >= 2 && win <= size,
            GameSpec::Othello { size } => (4..=16).contains(&size) && size % 2 == 0,
            GameSpec::Hex { size } => (2..=19).contains(&size),
        };
        if ok {
            Ok(())
        } else {
            Err(DecodeError::BadValue("board parameters"))
        }
    }
}

/// Why the server bounced a `Submit` (the wire image of
/// [`serve::RejectReason`] plus the two front-end-only reasons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    RateLimited,
    QueueFull,
    TooLarge,
    Unhealthy,
    Draining,
    /// The *client's* per-connection quota, not the model's budget.
    QuotaExceeded,
    /// Malformed request (illegal move, terminal root, zero budget).
    BadRequest,
    /// A byte quota on arena memory: the session's arena would exceed
    /// its per-session quota (terminal — zero `retry_after_us`) or the
    /// model's aggregate byte budget is full (transient — bytes return
    /// as sessions finalize).
    OverMemory,
}

impl RejectCode {
    fn to_u8(self) -> u8 {
        match self {
            RejectCode::RateLimited => 0,
            RejectCode::QueueFull => 1,
            RejectCode::TooLarge => 2,
            RejectCode::Unhealthy => 3,
            RejectCode::Draining => 4,
            RejectCode::QuotaExceeded => 5,
            RejectCode::BadRequest => 6,
            RejectCode::OverMemory => 7,
        }
    }

    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        Ok(match v {
            0 => RejectCode::RateLimited,
            1 => RejectCode::QueueFull,
            2 => RejectCode::TooLarge,
            3 => RejectCode::Unhealthy,
            4 => RejectCode::Draining,
            5 => RejectCode::QuotaExceeded,
            6 => RejectCode::BadRequest,
            7 => RejectCode::OverMemory,
            _ => return Err(DecodeError::BadValue("reject code")),
        })
    }

    /// True for rejections worth retrying on this server after the
    /// carried hint (vs failing over or fixing the request).
    /// `OverMemory` is listed even though the per-session-quota flavor
    /// is terminal: the carried `retry_after_us` disambiguates (zero ⇒
    /// shrink the request instead of waiting), matching the serve
    /// layer's convention for `TooLarge`.
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            RejectCode::RateLimited
                | RejectCode::QueueFull
                | RejectCode::Unhealthy
                | RejectCode::QuotaExceeded
                | RejectCode::OverMemory
        )
    }
}

impl From<serve::RejectReason> for RejectCode {
    fn from(r: serve::RejectReason) -> Self {
        match r {
            serve::RejectReason::RateLimited => RejectCode::RateLimited,
            serve::RejectReason::QueueFull => RejectCode::QueueFull,
            serve::RejectReason::TooLarge => RejectCode::TooLarge,
            serve::RejectReason::Unhealthy => RejectCode::Unhealthy,
            serve::RejectReason::Draining => RejectCode::Draining,
            serve::RejectReason::OverMemory => RejectCode::OverMemory,
        }
    }
}

/// How a session died (the wire image of [`mcts::SearchError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    Panicked,
    EvaluatorFailed,
    DeadlineExceeded,
    Cancelled,
    BackendUnavailable,
}

impl FailKind {
    fn to_u8(self) -> u8 {
        match self {
            FailKind::Panicked => 0,
            FailKind::EvaluatorFailed => 1,
            FailKind::DeadlineExceeded => 2,
            FailKind::Cancelled => 3,
            FailKind::BackendUnavailable => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        Ok(match v {
            0 => FailKind::Panicked,
            1 => FailKind::EvaluatorFailed,
            2 => FailKind::DeadlineExceeded,
            3 => FailKind::Cancelled,
            4 => FailKind::BackendUnavailable,
            _ => return Err(DecodeError::BadValue("failure kind")),
        })
    }
}

/// The searchable part of a [`SearchResult`] as it crosses the wire:
/// the snapshot sequence number, headline counters, root value, and the
/// per-action visit/probability vectors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireResult {
    pub seq: u64,
    pub playouts: u64,
    pub nodes: u64,
    pub value: f32,
    pub visits: Vec<u32>,
    pub probs: Vec<f32>,
}

impl From<&SearchResult> for WireResult {
    fn from(r: &SearchResult) -> Self {
        WireResult {
            seq: r.stats.seq,
            playouts: r.stats.playouts,
            nodes: r.stats.nodes,
            value: r.value,
            visits: r.visits.clone(),
            probs: r.probs.clone(),
        }
    }
}

impl WireResult {
    /// Action with the most visits (ties to the lowest index); `None`
    /// for an empty (pre-first-slice) result.
    pub fn best_action(&self) -> Option<u16> {
        self.visits
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .filter(|(_, &v)| v > 0)
            .map(|(a, _)| a as u16)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.put_u64_le(self.seq);
        out.put_u64_le(self.playouts);
        out.put_u64_le(self.nodes);
        out.put_f32_le(self.value);
        let n = self.visits.len().min(u16::MAX as usize);
        out.put_u16_le(n as u16);
        for &v in &self.visits[..n] {
            out.put_u32_le(v);
        }
        for &p in &self.probs[..n.min(self.probs.len())] {
            out.put_f32_le(p);
        }
        for _ in self.probs.len()..n {
            out.put_f32_le(0.0);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let seq = buf.try_get_u64_le().ok_or(DecodeError::Truncated)?;
        let playouts = buf.try_get_u64_le().ok_or(DecodeError::Truncated)?;
        let nodes = buf.try_get_u64_le().ok_or(DecodeError::Truncated)?;
        let value = buf.try_get_f32_le().ok_or(DecodeError::Truncated)?;
        let n = buf.try_get_u16_le().ok_or(DecodeError::Truncated)? as usize;
        // The vectors claim 8n bytes: refuse before allocating if the
        // payload cannot possibly hold them.
        if buf.remaining() < n * 8 {
            return Err(DecodeError::Truncated);
        }
        let mut visits = Vec::with_capacity(n);
        for _ in 0..n {
            visits.push(buf.try_get_u32_le().ok_or(DecodeError::Truncated)?);
        }
        let mut probs = Vec::with_capacity(n);
        for _ in 0..n {
            probs.push(buf.try_get_f32_le().ok_or(DecodeError::Truncated)?);
        }
        Ok(WireResult {
            seq,
            playouts,
            nodes,
            value,
            visits,
            probs,
        })
    }
}

/// One protocol message, either direction. Client→server: `Hello`,
/// `Submit`, `Cancel`, `StatsReq`, `Goodbye`. Server→client: `Welcome`,
/// `Accepted`, `Reject`, `Snapshot`, `Final`, `Failed`, `StatsJson`,
/// `Error`.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake opener; `token` authenticates the connection.
    Hello { proto: u32, token: String },
    /// Start a search. `id` is client-chosen and scopes every later
    /// frame about this session. `time_ms`/`max_nodes` of 0 mean
    /// "unbounded"/"inherit"; `max_nodes` counts tree slots, which the
    /// server turns into a byte bound on arrival. `priority` is 0 Low /
    /// 1 Normal / 2 High.
    Submit {
        id: u64,
        spec: GameSpec,
        moves: Vec<u16>,
        playouts: u64,
        time_ms: u64,
        max_nodes: u64,
        priority: u8,
    },
    /// Cancel a previously submitted session.
    Cancel { id: u64 },
    /// Ask for the cluster metrics dump.
    StatsReq,
    /// Clean close: the server tears the connection down without
    /// counting it as a fault.
    Goodbye,
    /// Handshake accepted.
    Welcome { proto: u32 },
    /// The submit was admitted and placed on `shard`; snapshots follow.
    Accepted { id: u64, shard: u32 },
    /// The submit was shed. `retry_after_us` is the back-off hint
    /// (zero for the terminal codes).
    Reject {
        id: u64,
        code: RejectCode,
        retry_after_us: u64,
    },
    /// A fresh anytime snapshot (`result.seq` strictly increases per
    /// session; superseded snapshots a slow link missed are shed,
    /// not queued).
    Snapshot { id: u64, result: WireResult },
    /// Terminal: the session ran its budget (`cancelled == false`) or
    /// honored a cancel (`true`). Exactly one terminal frame per
    /// accepted session.
    Final {
        id: u64,
        cancelled: bool,
        result: WireResult,
    },
    /// Terminal: the session died; carries the last good snapshot.
    Failed {
        id: u64,
        kind: FailKind,
        retry_after_us: u64,
        message: String,
    },
    /// The [`serve::ClusterStats::metrics_json`] dump.
    StatsJson { json: String },
    /// Protocol-level fault (bad handshake, malformed frame); the
    /// server closes after sending it.
    Error { message: String },
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let b = s.as_bytes();
    let n = b.len().min(u16::MAX as usize);
    out.put_u16_le(n as u16);
    out.put_slice(&b[..n]);
}

fn get_str(buf: &mut &[u8]) -> Result<String, DecodeError> {
    let n = buf.try_get_u16_le().ok_or(DecodeError::Truncated)? as usize;
    let bytes = buf.try_take_bytes(n).ok_or(DecodeError::Truncated)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadValue("utf-8 string"))
}

impl Frame {
    /// Append the frame body (type byte + payload) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { proto, token } => {
                out.put_u8(0x01);
                out.put_u32_le(*proto);
                put_str(out, token);
            }
            Frame::Submit {
                id,
                spec,
                moves,
                playouts,
                time_ms,
                max_nodes,
                priority,
            } => {
                out.put_u8(0x02);
                out.put_u64_le(*id);
                spec.encode(out);
                let n = moves.len().min(u16::MAX as usize);
                out.put_u16_le(n as u16);
                for &m in &moves[..n] {
                    out.put_u16_le(m);
                }
                out.put_u64_le(*playouts);
                out.put_u64_le(*time_ms);
                out.put_u64_le(*max_nodes);
                out.put_u8(*priority);
            }
            Frame::Cancel { id } => {
                out.put_u8(0x03);
                out.put_u64_le(*id);
            }
            Frame::StatsReq => out.put_u8(0x04),
            Frame::Goodbye => out.put_u8(0x05),
            Frame::Welcome { proto } => {
                out.put_u8(0x81);
                out.put_u32_le(*proto);
            }
            Frame::Accepted { id, shard } => {
                out.put_u8(0x82);
                out.put_u64_le(*id);
                out.put_u32_le(*shard);
            }
            Frame::Reject {
                id,
                code,
                retry_after_us,
            } => {
                out.put_u8(0x83);
                out.put_u64_le(*id);
                out.put_u8(code.to_u8());
                out.put_u64_le(*retry_after_us);
            }
            Frame::Snapshot { id, result } => {
                out.put_u8(0x84);
                out.put_u64_le(*id);
                result.encode(out);
            }
            Frame::Final {
                id,
                cancelled,
                result,
            } => {
                out.put_u8(0x85);
                out.put_u64_le(*id);
                out.put_u8(u8::from(*cancelled));
                result.encode(out);
            }
            Frame::Failed {
                id,
                kind,
                retry_after_us,
                message,
            } => {
                out.put_u8(0x86);
                out.put_u64_le(*id);
                out.put_u8(kind.to_u8());
                out.put_u64_le(*retry_after_us);
                put_str(out, message);
            }
            Frame::StatsJson { json } => {
                out.put_u8(0x87);
                let b = json.as_bytes();
                let n = b.len().min(u32::MAX as usize);
                out.put_u32_le(n as u32);
                out.put_slice(&b[..n]);
            }
            Frame::Error { message } => {
                out.put_u8(0x88);
                put_str(out, message);
            }
        }
    }

    /// Decode a frame body (as framed by [`write_frame`]: type byte +
    /// payload, the length prefix already stripped and validated).
    /// Trailing bytes after the payload are a [`DecodeError::BadValue`]
    /// — a frame says exactly what it means.
    pub fn decode(body: &[u8]) -> Result<Frame, DecodeError> {
        let mut buf = body;
        let ty = buf.try_get_u8().ok_or(DecodeError::Truncated)?;
        let frame = match ty {
            0x01 => Frame::Hello {
                proto: buf.try_get_u32_le().ok_or(DecodeError::Truncated)?,
                token: get_str(&mut buf)?,
            },
            0x02 => {
                let id = buf.try_get_u64_le().ok_or(DecodeError::Truncated)?;
                let spec = GameSpec::decode(&mut buf)?;
                let n = buf.try_get_u16_le().ok_or(DecodeError::Truncated)? as usize;
                if buf.remaining() < n * 2 {
                    return Err(DecodeError::Truncated);
                }
                let mut moves = Vec::with_capacity(n);
                for _ in 0..n {
                    moves.push(buf.try_get_u16_le().ok_or(DecodeError::Truncated)?);
                }
                Frame::Submit {
                    id,
                    spec,
                    moves,
                    playouts: buf.try_get_u64_le().ok_or(DecodeError::Truncated)?,
                    time_ms: buf.try_get_u64_le().ok_or(DecodeError::Truncated)?,
                    max_nodes: buf.try_get_u64_le().ok_or(DecodeError::Truncated)?,
                    priority: buf.try_get_u8().ok_or(DecodeError::Truncated)?,
                }
            }
            0x03 => Frame::Cancel {
                id: buf.try_get_u64_le().ok_or(DecodeError::Truncated)?,
            },
            0x04 => Frame::StatsReq,
            0x05 => Frame::Goodbye,
            0x81 => Frame::Welcome {
                proto: buf.try_get_u32_le().ok_or(DecodeError::Truncated)?,
            },
            0x82 => Frame::Accepted {
                id: buf.try_get_u64_le().ok_or(DecodeError::Truncated)?,
                shard: buf.try_get_u32_le().ok_or(DecodeError::Truncated)?,
            },
            0x83 => Frame::Reject {
                id: buf.try_get_u64_le().ok_or(DecodeError::Truncated)?,
                code: RejectCode::from_u8(buf.try_get_u8().ok_or(DecodeError::Truncated)?)?,
                retry_after_us: buf.try_get_u64_le().ok_or(DecodeError::Truncated)?,
            },
            0x84 => Frame::Snapshot {
                id: buf.try_get_u64_le().ok_or(DecodeError::Truncated)?,
                result: WireResult::decode(&mut buf)?,
            },
            0x85 => Frame::Final {
                id: buf.try_get_u64_le().ok_or(DecodeError::Truncated)?,
                cancelled: match buf.try_get_u8().ok_or(DecodeError::Truncated)? {
                    0 => false,
                    1 => true,
                    _ => return Err(DecodeError::BadValue("cancelled flag")),
                },
                result: WireResult::decode(&mut buf)?,
            },
            0x86 => Frame::Failed {
                id: buf.try_get_u64_le().ok_or(DecodeError::Truncated)?,
                kind: FailKind::from_u8(buf.try_get_u8().ok_or(DecodeError::Truncated)?)?,
                retry_after_us: buf.try_get_u64_le().ok_or(DecodeError::Truncated)?,
                message: get_str(&mut buf)?,
            },
            0x87 => {
                let n = buf.try_get_u32_le().ok_or(DecodeError::Truncated)? as usize;
                let bytes = buf.try_take_bytes(n).ok_or(DecodeError::Truncated)?;
                Frame::StatsJson {
                    json: String::from_utf8(bytes.to_vec())
                        .map_err(|_| DecodeError::BadValue("utf-8 string"))?,
                }
            }
            0x88 => Frame::Error {
                message: get_str(&mut buf)?,
            },
            other => return Err(DecodeError::UnknownType(other)),
        };
        if buf.remaining() != 0 {
            return Err(DecodeError::BadValue("trailing bytes"));
        }
        Ok(frame)
    }
}

/// The retry hint as it crosses the wire (µs, saturating).
pub fn duration_to_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Inverse of [`duration_to_us`].
pub fn us_to_duration(us: u64) -> Duration {
    Duration::from_micros(us)
}

/// Serialize one frame onto a stream: `len:u32` prefix then the body.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let mut body = Vec::with_capacity(64);
    frame.encode(&mut body);
    let mut msg = Vec::with_capacity(body.len() + 4);
    msg.put_u32_le(body.len() as u32);
    msg.put_slice(&body);
    w.write_all(&msg)
}

/// Blocking read of one complete frame (the client side, where waiting
/// is the point). Protocol violations surface as
/// `io::ErrorKind::InvalidData` wrapping the [`DecodeError`].
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> io::Result<Frame> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > max_frame {
        return Err(DecodeError::Oversized {
            declared: len,
            max: max_frame,
        }
        .into());
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Frame::decode(&body).map_err(Into::into)
}

/// What [`FrameReader::poll`] can fail with.
#[derive(Debug)]
pub enum ReadError {
    /// Peer closed the connection (EOF at any point).
    Eof,
    /// Transport fault (not `WouldBlock`/`TimedOut` — those are the
    /// reader's "nothing yet" and come back as `Ok(None)`).
    Io(io::Error),
    /// Well-framed garbage: typed decode failure.
    Decode(DecodeError),
}

/// Incremental frame reader for the server side: feed it a socket with
/// a read timeout and it accumulates bytes across timeouts, yielding a
/// frame only when one is complete. Between polls,
/// [`FrameReader::mid_frame`] says whether the peer has left a frame
/// half-written (the stall-detection signal).
pub struct FrameReader {
    max_frame: usize,
    buf: Vec<u8>,
    /// Total bytes wanted before the next decode step: 4 while the
    /// length prefix is incomplete, then 4 + body length.
    need: usize,
}

impl FrameReader {
    pub fn new(max_frame: usize) -> Self {
        FrameReader {
            max_frame,
            buf: Vec::with_capacity(256),
            need: 4,
        }
    }

    /// True when a frame is partially received (some bytes of the
    /// prefix or body have arrived but not all).
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Bytes buffered toward the incomplete frame (stall detection
    /// compares this across polls to distinguish slow from dead).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pull bytes from `r` until a full frame is assembled, the read
    /// would block, or the stream errors. `Ok(None)` means "no complete
    /// frame yet" (timeout expired); call again later.
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Option<Frame>, ReadError> {
        let mut chunk = [0u8; 4096];
        loop {
            if self.buf.len() >= self.need {
                if self.need == 4 {
                    let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap()) as usize;
                    if len == 0 || len > self.max_frame {
                        return Err(ReadError::Decode(DecodeError::Oversized {
                            declared: len,
                            max: self.max_frame,
                        }));
                    }
                    self.need = 4 + len;
                    continue; // the body may already be buffered
                }
                let frame = Frame::decode(&self.buf[4..self.need]).map_err(ReadError::Decode)?;
                self.buf.drain(..self.need);
                self.need = 4;
                return Ok(Some(frame));
            }
            match r.read(&mut chunk) {
                Ok(0) => return Err(ReadError::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
    }
}
