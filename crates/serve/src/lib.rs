//! The serving shell for FlashFuser's compilation service.
//!
//! A dependency-free (std-only) HTTP/1.1 server built for exactly one
//! job: putting a long-lived, concurrency-safe front door in front of
//! an expensive, memoizable computation. The fusion search is costly
//! (paper Tab. 8) but pure, so a serving deployment wants one shared
//! plan cache and single-flight coalescing across *all* concurrent
//! requests — which requires a process that outlives any one request.
//! And because real clients amortize handshakes, connections are
//! persistent: HTTP/1.1 keep-alive with pipelining, multiplexed by a
//! single readiness reactor rather than a thread per connection.
//!
//! This crate contains the generic machinery only; it knows nothing
//! about chains, plans or compilers:
//!
//! * [`http`] — an incremental HTTP/1.1 parser/encoder with hard size
//!   caps and parse-time keep-alive negotiation (1.1 defaults to
//!   keep-alive, 1.0 to close, `Connection` header tokens override);
//! * [`reactor`] — std-only readiness polling (`poll(2)` declared
//!   directly on Linux, a sleep-scan fallback elsewhere) plus the
//!   self-pipe waker other threads use to interrupt it;
//! * [`conn`] — the per-connection state machine (`Reading` →
//!   `Dispatched` → back, with a `Draining` close handshake), its
//!   buffers, and the per-*request* read deadline that keeps slowloris
//!   protection intact on long-lived connections;
//! * [`queue`] — the bounded admission queue: backpressure by
//!   construction, drain-on-close for graceful shutdown;
//! * [`server`] — reactor (listener included) + fixed worker pool,
//!   wired to a [`Handler`] implementation; the reactor answers every
//!   saturation `503` + `Retry-After` itself — a full queue *without*
//!   costing the client its connection, a socket over the connection
//!   limit as a short-lived reject-only connection;
//! * [`stats`] — relaxed-atomic counters and log-bucketed latency
//!   histograms (p50/p99 in O(64) with no allocation per sample);
//! * [`client`] — the minimal blocking client the load generator and
//!   tests use (one-shot helpers plus a pipelining-capable keep-alive
//!   [`client::Connection`]), so the verification path needs no
//!   external tooling.
//!
//! The application side (routing, JSON bodies, the compiler itself)
//! lives in the `flashfuser` facade crate's `service` module, which
//! implements [`Handler`]; the dependency points that way so this shell
//! stays reusable and cycle-free.

pub mod client;
pub mod conn;
pub mod http;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod stats;

pub use http::{Request, Response};
pub use server::{Handler, ServeOptions, Server};
pub use stats::{LatencyHistogram, ServeStats};
