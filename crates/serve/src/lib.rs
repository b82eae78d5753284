#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Resident legalization service for the 3D-Flow reproduction.
//!
//! `flow3d serve` keeps parsed designs, their bin-grid adjacency, and
//! per-worker search scratch resident in one long-lived process, so the
//! per-request cost of an ECO drops to the incremental work itself —
//! the dominant parse/build/allocate cost is paid once at `load`. The
//! crate has three layers:
//!
//! * [`protocol`] — the wire format: 4-byte big-endian length-prefixed
//!   JSON frames (built on [`flow3d_obs::Json`], std only), the
//!   [`protocol::Request`] schema, response shapes, and error codes.
//! * [`server`] — [`Server`]: case registry of warm
//!   [`flow3d_core::EcoEngine`]s and bounded admission. Each request
//!   runs on its connection's thread; requests on one case take turns
//!   in admission order (the warm caches and the determinism contract
//!   depend on that), while distinct cases run side by side up to
//!   [`ServerConfig::workers`] at once. Every request is timed into a
//!   server-level latency histogram and answered with a per-request
//!   telemetry-v2 run report.
//!   Live telemetry rides on `flow3d-obs` v3: a rolling window of
//!   per-request samples behind the `metrics` wire command (windowed
//!   p50/p90/p99 latency, throughput, queue depth, error rate — JSON
//!   and Prometheus text), a structured JSONL event log
//!   ([`ServerConfig::log_path`]), a flight recorder dumped on request
//!   errors and shutdown ([`ServerConfig::flight_path`]), and
//!   per-request Chrome-trace export ([`ServerConfig::trace_dir`]).
//! * [`client`] — [`Client`]: a small blocking client over any
//!   `Read + Write` stream, used by `flow3d request` and the tests.
//!
//! The protocol and operational model are specified in `SERVING.md` at
//! the repository root. Results over the service are bit-identical to
//! the one-shot CLI on the same inputs; residency only carries reusable
//! capacity, never state that can influence a result.
//!
//! # Example
//!
//! An in-process round trip over a Unix socket pair:
//!
//! ```
//! # #[cfg(unix)] fn main() {
//! use flow3d_serve::{Client, Json, Server, ServerConfig};
//!
//! let server = Server::new(ServerConfig::default()).unwrap();
//! let (ours, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
//! let handler = server.clone();
//! std::thread::spawn(move || handler.handle_connection(theirs));
//!
//! let mut client = Client::new(ours);
//! let ping = Json::parse(r#"{"cmd": "ping", "id": 1}"#).unwrap();
//! let reply = client.request(&ping).unwrap();
//! assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
//!
//! let bye = Json::parse(r#"{"cmd": "shutdown"}"#).unwrap();
//! client.request(&bye).unwrap();
//! server.join();
//! # }
//! # #[cfg(not(unix))] fn main() {}
//! ```

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use flow3d_obs::Json;
pub use protocol::{
    read_frame, write_frame, FrameError, MoveSpec, Request, MAX_CONNECTIONS, MAX_FRAME,
};
pub use server::{Server, ServerConfig};
