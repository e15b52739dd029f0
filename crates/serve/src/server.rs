//! The serving shell: a readiness reactor owning the listener and every
//! connection, a bounded queue, a fixed worker pool, and a
//! graceful-shutdown protocol.
//!
//! ```text
//!   listener ──accept──▶ reactor (poll) ──try_push──▶ [queue] ──pop──▶ worker × N
//!      │ past the reserve?  │   ▲    │ full? / too many conns?           │
//!      └──▶ drop            │   └────┴──▶ 503 staged on the connection   └─▶ Handler
//!                           │  completions (waker)◀───────────────────────────┘
//! ```
//!
//! * The **reactor** is a single thread and the only one that touches a
//!   socket. The nonblocking listener sits in its [`crate::reactor`]
//!   `poll` set beside every live connection; when it is readable the
//!   reactor accepts until `WouldBlock`, and only past
//!   `max_connections` + `REJECT_RESERVE` (64) sockets does it drop new
//!   ones outright (a dropped connection is still backpressure). It
//!   reads nonblocking sockets into per-connection buffers, cuts
//!   complete requests off the front ([`crate::conn`] keeps pipelined
//!   surplus), dispatches at most one request per connection into the
//!   admission queue, and writes completed responses back. Keep-alive
//!   is the default (HTTP/1.1 semantics), bounded by a per-connection
//!   request budget and a per-request read deadline — re-armed for
//!   every request, so slowloris protection does not weaken on
//!   long-lived connections.
//! * **Workers** only compute: pop a request, run the [`Handler`]
//!   (panics cost a 500, not a thread), hand the response back to the
//!   reactor via the completion list + waker.
//! * **Saturation** is answered in one place, the reactor, with `503` +
//!   `Retry-After` staged on the connection. A full queue *keeps the
//!   connection open* — a rejected request must not cost the client
//!   its warm connection. A socket arriving over `max_connections` is
//!   adopted as a reject-only connection: the 503 goes out with
//!   `Connection: close` and the ordinary `Draining` handshake reads
//!   off whatever the peer sends, so the close is a FIN, not an RST
//!   racing the response. Parse errors close, as HTTP requires once
//!   framing is lost.
//! * **Shutdown** is a control signal (a [`Response::shutdown`] flag
//!   set by the handler, or [`Server::shutdown`] called directly): the
//!   reactor is woken through its self-pipe and closes the listener,
//!   admissions stop, dispatched requests complete and flush, workers
//!   exit.

use crate::conn::{Conn, ConnState, Fill};
use crate::http::{self, HttpError, Request, Response};
use crate::queue::{Push, Queue};
use crate::reactor::{self, Interest, WakeReceiver, Waker};
use crate::stats::ServeStats;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The application side of the server: maps one parsed request to one
/// response. Implementations must be callable from many worker threads
/// at once.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for `request`.
    fn handle(&self, request: &Request) -> Response;
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads; `0` uses the host's available parallelism.
    pub workers: usize,
    /// Admission-queue depth (`0` is clamped to 1). Bounds worst-case
    /// queueing delay; beyond it the server answers 503.
    pub queue_depth: usize,
    /// Total budget for reading one request (head + body), re-armed per
    /// request. A peer trickling one byte per second cannot hold a
    /// connection slot any longer than a stalled one, no matter how
    /// many requests it already completed.
    pub read_timeout: Duration,
    /// Request-body cap in bytes; larger payloads answer 413.
    pub max_body_bytes: usize,
    /// Live-connection cap; beyond it new sockets are answered `503` +
    /// `Connection: close` and never served.
    pub max_connections: usize,
    /// Requests served per connection before the server answers
    /// `Connection: close` (bounds per-connection state lifetime).
    pub max_requests_per_conn: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            max_body_bytes: http::DEFAULT_MAX_BODY_BYTES,
            max_connections: 1024,
            max_requests_per_conn: 1024,
        }
    }
}

/// One request handed from the reactor to the worker pool.
struct Job {
    token: u64,
    request: Request,
    at: Instant,
}

/// One finished response handed back from a worker to the reactor.
struct Completion {
    token: u64,
    response: Response,
    at: Instant,
}

/// State shared between the workers and the reactor thread.
struct ReactorShared {
    /// Responses computed but not yet staged onto their connection.
    completions: Mutex<Vec<Completion>>,
    /// Pops the reactor out of `poll` after pushing a completion.
    waker: Waker,
}

/// Coordinates the one-shot transition into shutdown.
struct ShutdownSignal {
    flag: AtomicBool,
    queue: Arc<Queue<Job>>,
    waker: Waker,
}

impl ShutdownSignal {
    /// Begins shutdown exactly once: close admissions and wake the
    /// reactor, which closes the listener.
    fn trigger(&self) {
        if self.flag.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        self.waker.wake();
    }

    fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] (or let the handler trigger it) and then join
/// via [`Server::shutdown`]/[`Server::wait`].
pub struct Server {
    addr: SocketAddr,
    signal: Arc<ShutdownSignal>,
    reactor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port) and starts the
    /// reactor and the worker pool.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the listener cannot bind or
    /// be made nonblocking, the waker pair cannot be created, or a
    /// thread cannot spawn.
    pub fn start(
        addr: impl ToSocketAddrs,
        handler: Arc<dyn Handler>,
        stats: Arc<ServeStats>,
        options: ServeOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (waker, wake_rx) = reactor::wake_pair()?;
        let queue = Arc::new(Queue::new(options.queue_depth));
        let signal = Arc::new(ShutdownSignal {
            flag: AtomicBool::new(false),
            queue: Arc::clone(&queue),
            waker: waker.clone(),
        });
        let shared = Arc::new(ReactorShared {
            completions: Mutex::new(Vec::new()),
            waker,
        });
        let workers_n = if options.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            options.workers
        };
        // If any later spawn fails, already-spawned threads must not be
        // leaked blocked forever: close the queue, wake the reactor,
        // join what exists, then surface the error.
        let cleanup = |threads: Vec<JoinHandle<()>>, e: io::Error| -> io::Error {
            queue.close();
            shared.waker.wake();
            for thread in threads {
                let _ = thread.join();
            }
            e
        };
        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let queue = Arc::clone(&queue);
            let handler = Arc::clone(&handler);
            let stats = Arc::clone(&stats);
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&queue, &*handler, &stats, &shared));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => return Err(cleanup(workers, e)),
            }
        }
        let reactor = {
            let ctx = ReactorCtx {
                listener: Some(listener),
                shared: Arc::clone(&shared),
                queue: Arc::clone(&queue),
                signal: Arc::clone(&signal),
                stats,
                options,
            };
            let spawned = std::thread::Builder::new()
                .name("serve-reactor".to_string())
                .spawn(move || reactor_loop(ctx, wake_rx));
            match spawned {
                Ok(handle) => handle,
                Err(e) => return Err(cleanup(workers, e)),
            }
        };
        Ok(Server {
            addr,
            signal,
            reactor,
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Triggers graceful shutdown and joins every thread: admissions
    /// stop, dispatched requests finish and flush, workers exit.
    pub fn shutdown(self) {
        self.signal.trigger();
        self.join();
    }

    /// Blocks until the server shuts down through some other path (the
    /// `/admin/shutdown` control endpoint), then joins every thread.
    pub fn wait(self) {
        self.join();
    }

    fn join(self) {
        let _ = self.reactor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Reject-only connections the reactor will hold at once; past
/// `max_connections` plus this many sockets it drops new ones on
/// accept (an extreme-flood valve).
const REJECT_RESERVE: usize = 64;

/// How long the listener leaves the poll set after an `accept` error
/// other than `WouldBlock` (`EMFILE` under a flood, `ECONNABORTED`), so
/// the reactor drains the connections holding the descriptors instead
/// of spinning on the listener.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

fn worker_loop(
    queue: &Queue<Job>,
    handler: &dyn Handler,
    stats: &ServeStats,
    shared: &ReactorShared,
) {
    while let Some(job) = queue.pop() {
        stats.queue_wait.record_duration(job.at.elapsed());
        stats.in_flight.fetch_add(1, Ordering::Relaxed);
        // A panicking handler must cost one 500, not one worker thread
        // (the pool is fixed; a shrunk pool is a silent capacity leak).
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handler.handle(&job.request)
        }))
        .unwrap_or_else(|_| {
            Response::json(500, "{\"error\": \"internal error handling request\"}")
        });
        stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        shared.completions.lock().unwrap().push(Completion {
            token: job.token,
            response,
            at: job.at,
        });
        shared.waker.wake();
    }
}

/// Everything the reactor thread owns by value.
struct ReactorCtx {
    /// The nonblocking listener; dropped once shutdown begins, so late
    /// connects are refused.
    listener: Option<TcpListener>,
    shared: Arc<ReactorShared>,
    queue: Arc<Queue<Job>>,
    signal: Arc<ShutdownSignal>,
    stats: Arc<ServeStats>,
    options: ServeOptions,
}

/// How long after shutdown the reactor keeps flushing and draining
/// before force-closing whatever remains.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

fn reactor_loop(mut ctx: ReactorCtx, mut wake_rx: WakeReceiver) {
    // Pipelining backpressure: a connection's unparsed buffer may hold
    // one maximal request plus a chunk of the next before the reactor
    // stops reading it until responses drain the front.
    let high_water = ctx.options.max_body_bytes + http::MAX_HEAD_BYTES + 4096;
    let max_conns = ctx.options.max_connections.max(1);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    // Jobs pushed but not yet completed (their connection may die
    // first; the count must survive that).
    let mut outstanding: usize = 0;
    let mut grace: Option<Instant> = None;
    // `poll` reported the listener readable: accept on this pass. Only
    // then — an unconditional accept costs an `EAGAIN` per wake-up.
    let mut acceptable = false;
    // After an accept error the listener sits out of the poll set
    // until this instant.
    let mut backoff: Option<Instant> = None;

    loop {
        let now = Instant::now();

        // 1. Accept until `WouldBlock`; admissions end with shutdown.
        if ctx.signal.is_triggered() {
            ctx.listener = None;
        }
        if let Some(listener) = ctx.listener.as_ref().filter(|_| acceptable) {
            loop {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        backoff = Some(now + ACCEPT_BACKOFF);
                        break;
                    }
                };
                ctx.stats.accepted.fetch_add(1, Ordering::Relaxed);
                if conns.len() >= max_conns + REJECT_RESERVE {
                    ctx.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                    continue; // flood valve: drop without ceremony
                }
                let Ok(mut conn) = Conn::new(stream, ctx.options.read_timeout) else {
                    continue;
                };
                // Connections already on their way out hold no slot.
                if conns.len() >= max_conns
                    && conns.values().filter(|c| !c.close_after_flush).count() >= max_conns
                {
                    // Reject-only: the 503 goes out first, then the
                    // `Draining` handshake reads off the request so the
                    // close cannot RST the response away.
                    ctx.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                    conn.stage(&saturated("too many connections"), false);
                    conn.close_after_flush = true;
                }
                conns.insert(next_token, conn);
                next_token += 1;
            }
        }
        acceptable = false;

        // 2. Stage completed responses.
        let done: Vec<Completion> = std::mem::take(&mut *ctx.shared.completions.lock().unwrap());
        for completion in done {
            outstanding -= 1;
            let wants_shutdown = completion.response.shutdown;
            if let Some(conn) = conns.get_mut(&completion.token) {
                let keep = conn.pending_keep && !wants_shutdown && !ctx.signal.is_triggered();
                conn.stage(&completion.response, keep);
                conn.served += 1;
                ctx.stats.count_status(completion.response.status);
                ctx.stats.latency.record_duration(completion.at.elapsed());
                if keep {
                    conn.state = ConnState::Reading;
                    conn.deadline = Instant::now() + ctx.options.read_timeout;
                } else {
                    conn.state = ConnState::Reading;
                    conn.close_after_flush = true;
                }
            } else {
                // The connection died while its request was in flight.
                ctx.stats.dropped.fetch_add(1, Ordering::Relaxed);
            }
            if wants_shutdown {
                ctx.signal.trigger();
            }
        }

        // 3. Advance every connection's state machine; drop the dead.
        conns.retain(|&token, conn| advance(token, conn, now, &ctx, &mut outstanding));

        // 4. Shutdown: once nothing is dispatched and every buffer has
        // flushed (or the grace period expires), close up shop.
        if ctx.signal.is_triggered() {
            let grace_at = *grace.get_or_insert(now + SHUTDOWN_GRACE);
            let all_flushed = conns
                .values()
                .all(|c| c.write_buf.is_empty() && c.state != ConnState::Dispatched);
            if (outstanding == 0 && all_flushed && conns.is_empty()) || now >= grace_at {
                return;
            }
        }

        // 5. Sleep until a socket is ready, a deadline is due, or a
        // waker byte arrives (completion, shutdown). The listener rides
        // at index 1 unless it is closed or backing off.
        let mut entries: Vec<(std::os::unix::io::RawFd, Interest)> =
            vec![(wake_rx.raw_fd(), Interest::READ)];
        let mut tokens: Vec<u64> = vec![u64::MAX];
        let mut next_deadline: Option<Instant> = grace;
        backoff = backoff.filter(|&until| now < until);
        if let Some(until) = backoff {
            next_deadline = Some(next_deadline.map_or(until, |d| d.min(until)));
        }
        let listening = ctx.listener.as_ref().filter(|_| backoff.is_none());
        if let Some(listener) = listening {
            entries.push((listener.as_raw_fd(), Interest::READ));
            tokens.push(u64::MAX);
        }
        for (&token, conn) in &conns {
            let interest = conn.interest(high_water);
            if interest.read || interest.write {
                entries.push((conn.raw_fd(), interest));
                tokens.push(token);
            }
            if conn.state != ConnState::Dispatched {
                next_deadline = Some(next_deadline.map_or(conn.deadline, |d| d.min(conn.deadline)));
            }
        }
        let timeout = next_deadline.map(|d| d.saturating_duration_since(now));
        let ready = reactor::wait(&entries, timeout).unwrap_or_default();

        // 6. Service readiness: pull bytes (or drain the closing
        // handshake); the next advance pass does the parsing.
        let mut dead: Vec<u64> = Vec::new();
        for idx in ready {
            if idx == 0 {
                wake_rx.drain();
                continue;
            }
            if idx == 1 && listening.is_some() {
                acceptable = true;
                continue;
            }
            let token = tokens[idx];
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            let outcome = if conn.state == ConnState::Draining {
                conn.drain_discard()
            } else {
                conn.fill(high_water)
            };
            match outcome {
                Ok(Fill::Eof) if conn.state == ConnState::Draining => dead.push(token),
                Ok(_) => {}
                Err(_) => {
                    if !conn.write_buf.is_empty() {
                        ctx.stats.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    dead.push(token);
                }
            }
        }
        for token in dead {
            conns.remove(&token);
        }
    }
}

/// Advances one connection: flush, parse, dispatch, enforce deadlines.
/// Returns `false` when the connection should be dropped.
fn advance(
    token: u64,
    conn: &mut Conn,
    now: Instant,
    ctx: &ReactorCtx,
    outstanding: &mut usize,
) -> bool {
    let (stats, options) = (&*ctx.stats, &ctx.options);
    if flush_or_drop(conn, stats).is_err() {
        return false;
    }
    match conn.state {
        ConnState::Draining => {
            match conn.drain_discard() {
                Ok(Fill::Eof) | Err(_) => return false,
                Ok(_) => {}
            }
            now < conn.deadline
        }
        ConnState::Dispatched => true,
        ConnState::Reading => {
            if !conn.close_after_flush {
                // Cut and answer as many requests as possible without a
                // worker (errors, 503s); dispatch at most one.
                loop {
                    match conn.next_request(options.max_body_bytes) {
                        Ok(Some(request)) => {
                            let keep_req = request.keep_alive
                                && conn.served + 1 < options.max_requests_per_conn.max(1);
                            match ctx.queue.try_push(Job {
                                token,
                                request,
                                at: Instant::now(),
                            }) {
                                Push::Admitted => {
                                    *outstanding += 1;
                                    if conn.served > 0 {
                                        stats.reused.fetch_add(1, Ordering::Relaxed);
                                    }
                                    conn.pending_keep = keep_req;
                                    conn.state = ConnState::Dispatched;
                                    break;
                                }
                                Push::Saturated(_) => {
                                    // Backpressure must not cost the
                                    // client its warm connection: answer
                                    // inline and keep listening.
                                    stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                                    conn.stage(&saturated("admission queue is full"), keep_req);
                                    conn.served += 1;
                                    if keep_req {
                                        conn.deadline = now + options.read_timeout;
                                        continue;
                                    }
                                    conn.close_after_flush = true;
                                    break;
                                }
                                Push::Closed(_) => {
                                    let response = Response::json(
                                        503,
                                        "{\"error\": \"server is shutting down\", \"retry\": true}",
                                    );
                                    conn.stage(&response, false);
                                    conn.close_after_flush = true;
                                    break;
                                }
                            }
                        }
                        Ok(None) => {
                            if conn.peer_eof {
                                if conn.read_buf.is_empty() {
                                    // Clean end of a keep-alive session.
                                    if conn.write_buf.is_empty() {
                                        return false;
                                    }
                                    conn.close_after_flush = true;
                                } else {
                                    // EOF mid-request: typed 400.
                                    stage_error(conn, &HttpError::Truncated, stats);
                                }
                            } else if now >= conn.deadline {
                                if conn.read_buf.is_empty() {
                                    // Idle timeout: quiet close (the
                                    // standard keep-alive discipline).
                                    if conn.write_buf.is_empty() {
                                        return false;
                                    }
                                    conn.close_after_flush = true;
                                } else {
                                    // Trickling peer: the per-request
                                    // read deadline fired mid-request.
                                    let response = Response::json(
                                        400,
                                        "{\"error\": \"request read deadline exceeded\"}",
                                    );
                                    stats.count_status(response.status);
                                    conn.stage(&response, false);
                                    conn.close_after_flush = true;
                                }
                            } else if ctx.signal.is_triggered() && conn.write_buf.is_empty() {
                                // Shutting down and nothing pending
                                // here: close now rather than waiting
                                // out the read deadline.
                                return false;
                            }
                            break;
                        }
                        Err(error) => {
                            stage_error(conn, &error, stats);
                            break;
                        }
                    }
                }
            }
            if flush_or_drop(conn, stats).is_err() {
                return false;
            }
            if conn.close_after_flush
                && conn.write_buf.is_empty()
                && conn.state != ConnState::Draining
            {
                if conn.peer_eof {
                    // Peer already finished sending: no RST hazard,
                    // close outright.
                    return false;
                }
                conn.begin_drain(now);
            }
            true
        }
    }
}

/// The backpressure answer: `503` + `Retry-After: 1`.
fn saturated(why: &str) -> Response {
    let mut response = Response::json(
        503,
        format!("{{\"error\": \"server saturated: {why}\", \"retry\": true}}"),
    );
    response.retry_after = Some(1);
    response
}

/// Flushes staged bytes; on a dead socket counts the loss and errors.
fn flush_or_drop(conn: &mut Conn, stats: &ServeStats) -> Result<(), ()> {
    match conn.flush() {
        Ok(_) => Ok(()),
        Err(_) => {
            if !conn.write_buf.is_empty() {
                stats.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Err(())
        }
    }
}

/// Stages the typed response for a request that never parsed and marks
/// the connection for close (HTTP framing is lost after a parse error).
fn stage_error(conn: &mut Conn, error: &HttpError, stats: &ServeStats) {
    let response = error_response(error);
    stats.count_status(response.status);
    conn.stage(&response, false);
    conn.close_after_flush = true;
}

/// The response for a request that never parsed.
fn error_response(error: &HttpError) -> Response {
    Response::json(
        error.status(),
        format!("{{\"error\": \"{}\"}}", escape_for_json(&error.to_string())),
    )
}

/// Minimal JSON string escaping for error messages (the full escaper
/// lives in `flashfuser-core`; this crate is dependency-free).
fn escape_for_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use std::net::TcpStream;

    /// Echoes method + path; `/die` asks for shutdown.
    struct Echo;

    /// How long `Echo` keeps a worker busy on `/hold`, to make
    /// saturation deterministic.
    const HOLD: Duration = Duration::from_millis(500);

    impl Handler for Echo {
        fn handle(&self, request: &Request) -> Response {
            if request.path == "/panic" {
                panic!("handler bug");
            }
            if request.path == "/hold" {
                std::thread::sleep(HOLD);
            }
            let mut response = Response::json(
                200,
                format!(
                    "{{\"method\": \"{}\", \"path\": \"{}\", \"body_len\": {}}}",
                    request.method,
                    request.path,
                    request.body.len()
                ),
            );
            if request.path == "/die" {
                response.shutdown = true;
            }
            response
        }
    }

    fn start_echo(options: ServeOptions) -> (Server, Arc<ServeStats>) {
        start_echo_on("127.0.0.1", options)
    }

    fn start_echo_on(host: &str, options: ServeOptions) -> (Server, Arc<ServeStats>) {
        let stats = Arc::new(ServeStats::new());
        let server = Server::start((host, 0), Arc::new(Echo), Arc::clone(&stats), options)
            .expect("bind ephemeral port");
        (server, stats)
    }

    #[test]
    fn serves_requests_and_shuts_down_cleanly() {
        // A wildcard bind is served (and shut down) through loopback
        // exactly like a loopback bind.
        for host in ["127.0.0.1", "0.0.0.0"] {
            serves_and_shuts_down_on(host);
        }
    }

    fn serves_and_shuts_down_on(host: &str) {
        let (server, stats) = start_echo_on(
            host,
            ServeOptions {
                workers: 2,
                ..ServeOptions::default()
            },
        );
        let addr = SocketAddr::from(([127, 0, 0, 1], server.addr().port()));
        let r = client::post(addr, "/compile", b"hello").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(
            r.body_utf8(),
            "{\"method\": \"POST\", \"path\": \"/compile\", \"body_len\": 5}"
        );
        let r = client::get(addr, "/healthz").unwrap();
        assert_eq!(r.status, 200);
        server.shutdown();
        assert_eq!(stats.ok_responses.load(Ordering::Relaxed), 2);
        assert_eq!(stats.latency.count(), 2);
        // Post-shutdown connections are refused or reset, never served.
        assert!(client::get(addr, "/healthz").is_err());
    }

    #[test]
    fn handler_triggered_shutdown_unblocks_wait() {
        let (server, _stats) = start_echo(ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        });
        let addr = server.addr();
        let r = client::get(addr, "/die").unwrap();
        assert_eq!(r.status, 200);
        // The control response was written *before* shutdown began.
        server.wait();
    }

    #[test]
    fn saturated_queue_answers_503_with_retry_hint() {
        let (server, stats) = start_echo(ServeOptions {
            workers: 1,
            queue_depth: 1,
            ..ServeOptions::default()
        });
        let addr = server.addr();
        let mut statuses = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6)
                .map(|_| scope.spawn(move || client::get(addr, "/hold").unwrap()))
                .collect();
            for h in handles {
                statuses.push(h.join().unwrap());
            }
        });
        let rejected: Vec<_> = statuses.iter().filter(|r| r.status == 503).collect();
        let served = statuses.iter().filter(|r| r.status == 200).count();
        // With 1 worker holding a request for `HOLD` and a queue of
        // depth 1, at most 1 + (1 per `HOLD` drain) requests can be
        // admitted while the rest of the burst arrives within
        // milliseconds — so at least 3 of 6 see the 503, and every
        // request gets *some* definitive answer (nothing hangs).
        assert!(rejected.len() >= 3, "got {} rejections", rejected.len());
        assert!(served >= 1, "admitted requests must still be served");
        assert_eq!(served + rejected.len(), 6, "every request was answered");
        for r in &rejected {
            assert_eq!(r.headers.get("retry-after").map(String::as_str), Some("1"));
            assert!(r.body_utf8().contains("saturated"));
        }
        server.shutdown();
        assert_eq!(
            stats.rejected_busy.load(Ordering::Relaxed),
            rejected.len() as u64
        );
    }

    #[test]
    fn saturation_does_not_cost_a_keep_alive_client_its_connection() {
        let (server, stats) = start_echo(ServeOptions {
            workers: 1,
            queue_depth: 1,
            ..ServeOptions::default()
        });
        let addr = server.addr();
        // Two slow requests occupy worker + queue — staggered, so the
        // first is popped into the worker before the second arrives to
        // fill the queue slot (fired together on one core, both can
        // race the pop and bounce, leaving the queue empty).
        let hold_a = std::thread::spawn(move || client::get(addr, "/hold"));
        std::thread::sleep(Duration::from_millis(150));
        let hold_b = std::thread::spawn(move || client::get(addr, "/hold"));
        std::thread::sleep(Duration::from_millis(150));
        let mut conn = client::Connection::open(addr).unwrap();
        let rejected = conn.request("GET", "/burst", b"").unwrap();
        assert_eq!(rejected.status, 503, "worker + queue held -> inline 503");
        assert_eq!(
            rejected.headers.get("retry-after").map(String::as_str),
            Some("1"),
            "inline 503 carries the retry hint"
        );
        // Once the holds drain, the SAME connection gets served: the
        // 503 kept it usable.
        assert!(hold_a.join().unwrap().is_ok());
        assert!(hold_b.join().unwrap().is_ok());
        let served = conn.request("GET", "/burst", b"").unwrap();
        assert_eq!(served.status, 200, "connection never recovered after a 503");
        drop(conn);
        server.shutdown();
        assert!(stats.rejected_busy.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn handler_panic_costs_a_500_not_a_worker() {
        let (server, stats) = start_echo(ServeOptions {
            workers: 1, // the pool IS one worker; losing it would hang
            ..ServeOptions::default()
        });
        let addr = server.addr();
        let r = client::get(addr, "/panic").unwrap();
        assert_eq!(r.status, 500);
        // The sole worker survived and keeps serving.
        let r = client::get(addr, "/ok").unwrap();
        assert_eq!(r.status, 200);
        server.shutdown();
        assert_eq!(stats.server_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn trickling_peer_is_bounded_by_the_total_read_deadline() {
        let (server, stats) = start_echo(ServeOptions {
            workers: 1,
            read_timeout: Duration::from_millis(250),
            ..ServeOptions::default()
        });
        let addr = server.addr();
        // One byte every 100 ms keeps any *per-read* timeout from
        // firing; only an overall deadline frees the connection slot.
        let mut slow = TcpStream::connect(addr).unwrap();
        for _ in 0..8 {
            use std::io::Write;
            if slow.write_all(b"G").is_err() {
                break; // server gave up on us — exactly the point
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        // The pool must be free despite `slow` never completing a
        // request.
        let ok = client::get(addr, "/after-trickle").unwrap();
        assert_eq!(ok.status, 200);
        drop(slow);
        server.shutdown();
        assert!(
            stats.client_errors.load(Ordering::Relaxed) >= 1,
            "the trickler was answered 400, not serviced forever"
        );
    }

    #[test]
    fn keep_alive_deadline_rearms_per_request_not_per_connection() {
        let (server, stats) = start_echo(ServeOptions {
            workers: 1,
            read_timeout: Duration::from_millis(300),
            ..ServeOptions::default()
        });
        let addr = server.addr();
        let mut conn = client::Connection::open(addr).unwrap();
        // Two full requests spaced most of a deadline apart: each one
        // re-arms the clock, so the connection survives well past
        // 1 x read_timeout of total wall time.
        for _ in 0..3 {
            let r = conn.request("GET", "/ping", b"").unwrap();
            assert_eq!(r.status, 200);
            std::thread::sleep(Duration::from_millis(200));
        }
        // Now trickle the NEXT request: the per-request deadline must
        // fire even though the connection as a whole has been healthy
        // for ~600 ms already.
        conn.send_raw(b"GET /tric").unwrap();
        let r = conn.recv();
        // The server answers 400 (deadline mid-head) and closes.
        match r {
            Ok(resp) => assert_eq!(resp.status, 400),
            Err(_) => panic!("expected a 400 before close, got a dead socket"),
        }
        server.shutdown();
        assert!(stats.client_errors.load(Ordering::Relaxed) >= 1);
        assert_eq!(stats.ok_responses.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn request_budget_closes_the_connection_politely() {
        let (server, _stats) = start_echo(ServeOptions {
            workers: 1,
            max_requests_per_conn: 3,
            ..ServeOptions::default()
        });
        let addr = server.addr();
        let mut conn = client::Connection::open(addr).unwrap();
        for i in 0..3 {
            let r = conn.request("GET", "/budget", b"").unwrap();
            assert_eq!(r.status, 200);
            let is_last = i == 2;
            assert_eq!(
                r.headers.get("connection").map(String::as_str),
                Some(if is_last { "close" } else { "keep-alive" }),
                "request {i} negotiated the wrong connection header"
            );
        }
        // The budget is spent; the server has closed its side.
        assert!(conn.request("GET", "/past-budget", b"").is_err());
        server.shutdown();
    }

    #[test]
    fn unparseable_requests_get_typed_errors_not_hangs() {
        let (server, stats) = start_echo(ServeOptions {
            workers: 1,
            read_timeout: Duration::from_millis(200),
            ..ServeOptions::default()
        });
        let addr = server.addr();
        let raw = client::raw(addr, b"THIS IS NOT HTTP\r\n\r\n").unwrap();
        assert_eq!(raw.status, 400);
        // A client that connects and sends nothing is quietly closed at
        // the deadline and its slot reclaimed.
        let idle = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        drop(idle);
        let ok = client::get(addr, "/after").unwrap();
        assert_eq!(ok.status, 200);
        server.shutdown();
        assert!(stats.client_errors.load(Ordering::Relaxed) >= 1);
    }

    /// An echo server with one connection slot, and the keep-alive peer
    /// holding it.
    fn start_full() -> (Server, Arc<ServeStats>, client::Connection) {
        let (server, stats) = start_echo(ServeOptions {
            workers: 1,
            max_connections: 1,
            ..ServeOptions::default()
        });
        let mut peer = client::Connection::open(server.addr()).unwrap();
        assert_eq!(peer.request("GET", "/first", b"").unwrap().status, 200);
        (server, stats, peer)
    }

    #[test]
    fn over_limit_sockets_get_a_503_and_a_clean_close() {
        let (server, stats, mut peer) = start_full();
        let addr = server.addr();
        // Writes `bytes`, reads to the FIN; an RST fails either call.
        let exchange = |bytes: &[u8]| {
            use std::io::{Read, Write};
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            stream.write_all(bytes).expect("server drained the request");
            let mut response = Vec::new();
            stream.read_to_end(&mut response).expect("FIN, not RST");
            String::from_utf8(response).unwrap()
        };
        let oversized = [
            format!(
                "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                2 * http::DEFAULT_MAX_BODY_BYTES
            )
            .as_bytes(),
            &vec![b'x'; 2 * http::DEFAULT_MAX_BODY_BYTES],
        ]
        .concat();
        for request in [
            &b"GET /second HTTP/1.1\r\n\r\n"[..],
            &oversized,
            b"THIS IS NOT HTTP\r\n\r\n",
        ] {
            let text = exchange(request);
            assert!(text.starts_with("HTTP/1.1 503 "), "{text}");
            assert!(text.contains("Retry-After: 1\r\n"), "{text}");
            assert!(text.contains("Connection: close\r\n"), "{text}");
            assert!(text.contains("too many connections"), "{text}");
        }
        assert_eq!(stats.rejected_busy.load(Ordering::Relaxed), 3);
        // The established peer never noticed.
        assert_eq!(peer.request("GET", "/still", b"").unwrap().status, 200);
        // Once it leaves, its slot serves the next socket.
        drop(peer);
        let deadline = Instant::now() + Duration::from_secs(2);
        while client::get(addr, "/next").unwrap().status != 200 {
            assert!(Instant::now() < deadline, "the slot was never reclaimed");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    #[test]
    fn a_flood_past_the_reserve_is_dropped_not_adopted() {
        let (server, stats, mut peer) = start_full();
        let addr = server.addr();
        // Silent sockets, all held open: each adopted one sits in the
        // reactor for the whole drain budget.
        let flood: Vec<TcpStream> = (0..REJECT_RESERVE + 32)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        let mut answered = 0;
        for mut stream in &flood {
            use std::io::Read;
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut response = Vec::new();
            let _ = stream.read_to_end(&mut response);
            if response.starts_with(b"HTTP/1.1 503 ") {
                answered += 1;
            } else {
                assert!(response.is_empty(), "dropped sockets see no bytes");
            }
        }
        assert!(
            (1..=REJECT_RESERVE).contains(&answered),
            "{answered} reject-only connections against a reserve of {REJECT_RESERVE}"
        );
        assert_eq!(
            stats.rejected_busy.load(Ordering::Relaxed),
            flood.len() as u64,
            "answered or dropped, every over-limit socket was counted"
        );
        assert_eq!(peer.request("GET", "/still", b"").unwrap().status, 200);
        server.shutdown();
        assert_eq!(
            stats.accepted.load(Ordering::Relaxed),
            flood.len() as u64 + 1,
            "the peer and every flood socket were accepted exactly once"
        );
    }
}
