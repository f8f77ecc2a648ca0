//! Network front end for the serving cluster: every capability the
//! in-process [`serve::ServeCluster`] API offers — budgeted sessions,
//! streamed anytime snapshots, cancellation, admission shedding with
//! honest `retry_after` hints, circuit-breaker state, metrics — made
//! reachable over TCP by remote, multi-tenant clients.
//!
//! Dependency-free by construction: `std::net` blocking sockets and
//! the vendored `bytes` cursor, no async runtime. The protocol is a
//! length-prefixed little-endian binary framing (see [`frame`] for the
//! grammar and the hardened decoder); the server ([`NetServer`]) is a
//! fixed acceptor plus two threads per connection with strictly
//! per-connection backpressure; the client ([`Client`]) is a small
//! blocking handle that multiplexes sessions by id.
//!
//! ```no_run
//! use net::{Client, GameSpec, NetServer, Outcome, ServerConfig, WireRequest};
//! use serve::{ClusterConfig, ServeCluster};
//! use std::sync::Arc;
//!
//! let cluster = Arc::new(ServeCluster::new(ClusterConfig::default()));
//! let mut server =
//!     NetServer::bind("127.0.0.1:0", cluster, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr(), "").unwrap();
//! let id = client
//!     .submit(&WireRequest::new(GameSpec::Gomoku { size: 9, win: 5 }).playouts(512))
//!     .unwrap();
//! match client.wait_outcome(id).unwrap() {
//!     Outcome::Done(result) => println!("best move: {:?}", result.best_action()),
//!     other => println!("not admitted: {other:?}"),
//! }
//! server.shutdown(std::time::Duration::from_secs(5));
//! ```

pub mod client;
pub mod frame;
pub mod server;

pub use client::{Client, Event, Outcome, WireRequest};
pub use frame::{
    DecodeError, FailKind, Frame, FrameReader, GameSpec, ReadError, RejectCode, WireResult,
    MAX_FRAME, PROTOCOL_VERSION,
};
pub use server::{EvalFactory, NetServer, NetStatsSnapshot, ServerConfig};
