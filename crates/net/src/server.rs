//! The socket server: a `std::net` TCP listener, one reader and one
//! response-pump thread per connection, and a sharded engine behind an
//! admission layer.
//!
//! ## Threading model (and why not an async runtime)
//!
//! The server is deliberately built on blocking `std::net` sockets and
//! plain threads: the engine below it is a thread-per-core worker pool
//! with *bounded queues*, so the concurrency the server must sustain is
//! bounded by design — `max_connections` × (reader + pump) threads is a
//! few hundred OS threads at the configured limits, well inside what
//! the OS schedules efficiently, and every instrument in the repo
//! (panic isolation, drain-then-join shutdown, the persistent racer
//! pool) composes with plain threads without an executor in the
//! middle. An async runtime would buy connection counts this service
//! cannot use (the engine saturates long before 10k sockets) at the
//! price of a second scheduler and a dependency the build must vendor.
//! See DESIGN.md for the full decision record.
//!
//! A request the engine must solve crosses four threads: the reader
//! parses it, a shard worker answers it, the pump writes the reply, and
//! each hand-off between them is a queue and a wake-up. A repeated
//! instance the shard's exact LRU already holds crosses one: the reader
//! answers it itself when its connection has nothing outstanding (see
//! *Edge answers* below), so a warm connection wakes no worker and no
//! pump at all.
//!
//! ## Connection life cycle
//!
//! The *reader* thread owns framing (newline-delimited canonical JSON),
//! parse/quota admission, edge answers and batching: it greedily drains
//! every complete frame already buffered before touching the socket
//! again — scanning lines *in place* and compacting the read buffer once
//! per read, so framing allocates nothing in steady state — and a
//! pipelined burst becomes one [`EngineShards::try_submit_batch`]
//! hand-off. The *pump* thread drains the connection's reply channel
//! with a **corked vectored write**: every response already queued (up
//! to [`CORK_MAX`]) is rendered into pooled buffers and shipped in one
//! `writev`, so a burst of N responses costs one syscall and one writer
//! lock instead of N of each. The cork only holds frames that were
//! already waiting — the moment the queue runs dry the batch flushes,
//! so an isolated response still leaves immediately (the quiescence
//! bound; see DESIGN.md). Both sides write whole frames under one
//! mutex, so frames never interleave mid-line. A full in-flight window
//! parks the reader — TCP backpressure, not an error; see
//! [`admission`](crate::admission).
//!
//! ## Edge answers
//!
//! After quota admission, a schedule request on a connection with
//! *nothing outstanding* — no batch pending on the reader and no slot
//! of the in-flight window held, so every earlier reply is already on
//! the wire — is probed in its shard's exact LRU
//! ([`EngineShards::answer_from_cache`]). On a hit the reader renders
//! the shared outcome with `cache_hit: true` into a recycled buffer of
//! its own cork, byte for byte the reply the engine's hit path would
//! send; the answer takes no window slot. The reader writes that cork
//! before it hands any later request to the engine and before it writes
//! any other frame, and at the end of each read pass, so replies keep
//! the connection's request order. A miss, a busy connection and a
//! closed fleet take the engine path unchanged; an edge probe that
//! misses counts nothing, and the worker's own lookup counts the miss.
//! Answering every hit at the edge would let it overtake an earlier
//! request still on a worker, which is why the rule asks for an idle
//! connection.
//!
//! Connections live in the sharded slab [`ConnRegistry`]; finished
//! reader handles are buried there and reaped opportunistically, so a
//! long-running server retains a bounded number of handles (see
//! [`registry`](crate::registry)).
//!
//! ## Shutdown
//!
//! `shutdown` is drain-then-close: stop accepting, half-close every
//! connection's read side (readers wind down after their current
//! batch and write their edge cork), drain the engine shards (every
//! accepted request reaches its reply channel), then join the readers —
//! each of which joins its own pump, which exits only after writing out
//! everything the engine produced. No accepted request is dropped.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use amp_service::{EngineConfig, EngineShards, ScheduleRequest, ServiceError};
use crossbeam::channel::{self, Sender};
use parking_lot::Mutex;

use crate::admission::{InflightWindow, QuotaConfig, TenantQuotas};
use crate::metrics::{NetMetrics, NetSnapshot};
use crate::proto::{self, WireRequest};
use crate::registry::{ConnRegistry, ConnToken};
use crate::wire::{self, BufPool, CORK_MAX};

/// Sizing and limits of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Engine shards (≥ 1); requests route by instance fingerprint.
    pub shards: usize,
    /// Per-shard engine sizing.
    pub per_shard: EngineConfig,
    /// Connections served concurrently; beyond it, new connections get
    /// a typed error frame and a clean close.
    pub max_connections: usize,
    /// Longest accepted frame in bytes; longer lines are answered with
    /// `FRAME_TOO_LARGE` and discarded (the connection survives).
    pub max_line_bytes: usize,
    /// Longest accepted task chain per request.
    pub max_tasks: usize,
    /// Per-connection in-flight window (backpressure bound).
    pub window: usize,
    /// Per-tenant token-bucket quota; `None` disables quotas.
    pub quota: Option<QuotaConfig>,
    /// Most requests per engine hand-off.
    pub batch_max: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = thread::available_parallelism().map_or(4, usize::from);
        let shards = 4;
        let workers = (cores / shards).max(1);
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards,
            per_shard: EngineConfig {
                workers,
                racer_threads: workers,
                queue_depth: 256,
                cache_capacity: 1024,
                cache_shards: 8,
                ..EngineConfig::default()
            },
            max_connections: 64,
            max_line_bytes: 64 * 1024,
            max_tasks: 512,
            window: 64,
            quota: None,
            batch_max: 32,
        }
    }
}

/// State shared by the acceptor and every connection thread.
struct Shared {
    shards: EngineShards,
    net: NetMetrics,
    quotas: TenantQuotas,
    cfg: ServerConfig,
    closing: AtomicBool,
    /// Live connections (sharded slab) + the JoinHandle graveyard.
    registry: ConnRegistry,
}

/// One frame-oriented socket writer; whole frames only, shared between
/// the reader (direct rejections, control responses) and the pump.
struct ConnWriter {
    stream: TcpStream,
    /// Set on the first write failure; later writes become no-ops so a
    /// dead client cannot wedge the drain path.
    broken: bool,
}

impl ConnWriter {
    /// Writes one newline-terminated frame.
    fn write_frame(&mut self, frame: &str) {
        if self.broken {
            return;
        }
        if wire::write_frames(&mut self.stream, &[frame]).is_err() {
            self.broken = true;
        }
    }

    /// Writes a cork of already-newline-terminated frames in one
    /// vectored write.
    fn write_cork(&mut self, frames: &[String]) {
        if self.broken {
            return;
        }
        if wire::write_frames(&mut self.stream, frames).is_err() {
            self.broken = true;
        }
    }
}

/// A running socket front end.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the acceptor thread.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            shards: EngineShards::start(cfg.shards, &cfg.per_shard),
            net: NetMetrics::new(),
            quotas: TenantQuotas::new(cfg.quota),
            registry: ConnRegistry::new(cfg.max_connections),
            cfg,
            closing: AtomicBool::new(false),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = thread::Builder::new()
            .name("amp-net-acceptor".to_string())
            .spawn(move || accept_loop(&listener, &acceptor_shared))?;
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wire-layer counters.
    #[must_use]
    pub fn net_snapshot(&self) -> NetSnapshot {
        self.shared.net.snapshot()
    }

    /// The full status snapshot served by the `{"op":"status"}` control
    /// frame: wire counters plus the sharded fleet status (aggregate
    /// and per-shard service metrics and cache hit/miss counters).
    #[must_use]
    pub fn status_json(&self) -> String {
        status_json(&self.shared)
    }

    /// Direct access to the engine fleet (tests, embedders).
    #[must_use]
    pub fn shards(&self) -> &EngineShards {
        &self.shared.shards
    }

    /// JoinHandles currently retained for connection threads (buried
    /// awaiting reap + attached to live connections). The handle-leak
    /// regression test asserts this stays bounded as connections churn.
    #[must_use]
    pub fn retained_reader_handles(&self) -> usize {
        self.shared.registry.retained_handles()
    }

    /// Graceful drain-then-close shutdown; dropping does the same.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.closing.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = acceptor.join();
        // Half-close every connection: readers see EOF after finishing
        // the frames already buffered, so admissions stop per-socket.
        self.shared.registry.half_close_all();
        // Fleet drain: every accepted request reaches its reply channel.
        self.shared.shards.drain();
        // Readers join their own pumps (which write out the drained
        // responses) before exiting; joining the readers joins it all.
        for handle in self.shared.registry.take_reader_handles() {
            let _ = handle.join();
        }
        // Readers that closed concurrently buried their own handles.
        self.shared.registry.reap();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The full status snapshot (shared by the control frame and
/// [`Server::status_json`]).
fn status_json(shared: &Shared) -> String {
    format!(
        "{{\"net\":{},\"fleet\":{}}}",
        shared.net.snapshot().to_json(),
        shared.shards.status_json()
    )
}

/// One newline-terminated error frame ([`proto::render_error_line`]).
fn error_frame(id: Option<u64>, code: &str, message: &str) -> String {
    let mut frame = String::new();
    proto::render_error_line(id, code, message, &mut frame);
    frame
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.closing.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.closing.load(Ordering::SeqCst) {
            return;
        }
        // Opportunistic reap: join readers that finished since the last
        // accept, so retained handles track churn, not lifetime.
        shared.registry.reap();
        let Ok(registered) = stream.try_clone() else {
            shared.net.connection_refused();
            continue;
        };
        let token = match shared.registry.register(registered) {
            Ok(token) => token,
            Err(_stream_back) => {
                shared.net.connection_refused();
                let mut writer = ConnWriter {
                    stream,
                    broken: false,
                };
                writer.write_frame(&error_frame(
                    None,
                    "TOO_MANY_CONNECTIONS",
                    &format!(
                        "server serves at most {} concurrent connections",
                        shared.cfg.max_connections
                    ),
                ));
                continue;
            }
        };
        let conn_shared = Arc::clone(shared);
        let reader_token = token.clone();
        let spawned = thread::Builder::new()
            .name(format!("amp-net-conn-{}", token.conn_id))
            .spawn(move || serve_connection(&conn_shared, stream, reader_token));
        match spawned {
            Ok(handle) => {
                // If the reader already finished and deregistered, the
                // handle comes back — bury it for the next reap.
                if let Some(handle) = shared.registry.attach_reader(&token, handle) {
                    shared.registry.bury(handle);
                }
            }
            Err(_) => {
                // Spawn failure degrades to a refused connection.
                shared.registry.deregister(&token);
                shared.net.connection_refused();
            }
        }
    }
}

/// One connection's reader: its context, plus what it holds between
/// socket reads — the batch bound for the engine and the replies it
/// answered itself.
struct Conn<'a> {
    shared: &'a Arc<Shared>,
    writer: &'a Arc<Mutex<ConnWriter>>,
    window: &'a Arc<InflightWindow>,
    reply_tx: &'a Sender<amp_service::ScheduleResponse>,
    /// Metrics stripe key (the connection id).
    stripe: usize,
    /// Admitted requests not yet handed to the engine.
    batch: Vec<ScheduleRequest>,
    /// Replies answered at the edge and not yet written. Written before
    /// any later frame of this connection leaves or reaches the engine.
    edge: Vec<String>,
    /// Recycled buffers for `edge`.
    pool: BufPool,
}

impl Conn<'_> {
    /// Writes a newline-terminated frame produced by the reader itself
    /// (rejections, control responses), after the edge cork.
    fn write_direct(&mut self, frame: &str) {
        self.write_edge();
        self.writer.lock().write_frame(frame);
        self.shared.net.frame_out(self.stripe);
    }

    /// Writes the edge cork in one vectored write.
    fn write_edge(&mut self) {
        if self.edge.is_empty() {
            return;
        }
        self.writer.lock().write_cork(&self.edge);
        self.shared
            .net
            .edge_out(self.stripe, self.edge.len() as u64);
        for buf in self.edge.drain(..) {
            self.pool.give(buf);
        }
    }

    /// Writes the edge cork, then hands the pending batch to the engine;
    /// bounced members are answered with their typed error right here.
    /// The cork goes first, so no reply the engine makes for a later
    /// request can reach the wire ahead of it.
    fn flush(&mut self) {
        self.write_edge();
        if self.batch.is_empty() {
            return;
        }
        let n = self.batch.len() as u64;
        // Admission is counted *before* the hand-off: the engine can
        // answer a member the instant it is enqueued, and the response
        // pump's decrement must never beat this increment.
        self.shared.net.requests_admitted(self.stripe, n);
        let submission = self
            .shared
            .shards
            .try_submit_batch(std::mem::take(&mut self.batch), self.reply_tx);
        self.shared.net.batch_submitted(self.stripe, n);
        if !submission.rejected.is_empty() {
            self.shared
                .net
                .requests_bounced(self.stripe, submission.rejected.len() as u64);
        }
        for (request, error) in submission.rejected {
            // The slot acquired for this member frees now; accepted
            // members free theirs when the pump writes the response.
            self.window.release();
            match error {
                ServiceError::Overloaded => self.shared.net.rejected_overload(),
                ServiceError::ShuttingDown => self.shared.net.rejected_shutdown(),
                _ => {}
            }
            self.write_direct(&error_frame(
                Some(request.id),
                error.code(),
                &error.to_string(),
            ));
        }
    }

    /// Answers `request` on this thread from its shard's exact LRU, if
    /// the connection has nothing outstanding: no batch pending and no
    /// slot of the window held, so every earlier reply is on the wire or
    /// in the edge cork ahead of this one. Returns whether it did. An
    /// edge answer takes no window slot.
    fn answer_at_edge(&mut self, request: &ScheduleRequest) -> bool {
        if !self.batch.is_empty() || self.window.in_flight() > 0 {
            return false;
        }
        let Some(outcome) = self.shared.shards.answer_from_cache(request) else {
            return false;
        };
        let mut buf = self.pool.rent();
        proto::render_outcome_line(request.id, &outcome, true, &mut buf);
        self.edge.push(buf);
        self.shared.net.edge_answered(self.stripe);
        if self.edge.len() >= CORK_MAX {
            self.write_edge();
        }
        true
    }

    /// Parses and admits one frame. Answers it at the edge when it can,
    /// pushes it onto the batch when it must go to the engine, and
    /// answers everything else immediately.
    fn handle_line(&mut self, line: &[u8]) {
        let text = match std::str::from_utf8(line) {
            Ok(t) => t.trim_end_matches('\r'),
            Err(_) => {
                self.shared.net.frame_in(self.stripe);
                self.shared.net.parse_error();
                self.write_direct(&error_frame(
                    None,
                    "PARSE_ERROR",
                    "frame is not valid UTF-8",
                ));
                return;
            }
        };
        if text.trim().is_empty() {
            // Blank lines are tolerated (interactive clients, netcat).
            return;
        }
        self.shared.net.frame_in(self.stripe);
        match proto::parse_request(text, self.shared.cfg.max_tasks) {
            Err((id, err)) => {
                self.shared.net.parse_error();
                self.write_direct(&error_frame(id, err.code, &err.message));
            }
            Ok(WireRequest::Ping) => {
                self.write_direct("{\"ok\":\"pong\",\"op\":\"ping\"}\n");
            }
            Ok(WireRequest::Status) => {
                let status = status_json(self.shared);
                self.write_direct(&format!("{{\"ok\":{status},\"op\":\"status\"}}\n"));
            }
            Ok(WireRequest::Schedule { request, tenant }) => {
                if !self.shared.quotas.admit(&tenant, Instant::now()) {
                    self.shared.net.rejected_quota();
                    self.write_direct(&error_frame(
                        Some(request.id),
                        "QUOTA_EXCEEDED",
                        &format!("tenant {tenant:?} is over its request quota"),
                    ));
                    return;
                }
                if self.answer_at_edge(&request) {
                    return;
                }
                if !self.window.try_acquire() {
                    // Window full: ship what we have so responses keep
                    // flowing, then park until a slot frees. This stall
                    // is the backpressure — the socket is simply not
                    // read while we wait.
                    self.flush();
                    self.window.acquire();
                }
                self.batch.push(request);
            }
        }
    }
}

/// The response pump: engine replies → wire frames, in arrival order,
/// corked. `recv` blocks for the first response; everything else
/// already queued (up to [`CORK_MAX`]) joins the same vectored write.
/// Quiescence is the flush: `try_recv` running dry ends the cork, so a
/// lone response is never held back waiting for company.
fn pump_loop(
    reply_rx: &channel::Receiver<amp_service::ScheduleResponse>,
    writer: &Mutex<ConnWriter>,
    window: &InflightWindow,
    shared: &Shared,
    stripe: usize,
) {
    let mut pool = BufPool::new(CORK_MAX);
    let mut cork: Vec<String> = Vec::with_capacity(CORK_MAX);
    while let Ok(first) = reply_rx.recv() {
        let mut buf = pool.rent();
        proto::render_response_line(&first, &mut buf);
        cork.push(buf);
        while cork.len() < CORK_MAX {
            match reply_rx.try_recv() {
                Ok(response) => {
                    let mut buf = pool.rent();
                    proto::render_response_line(&response, &mut buf);
                    cork.push(buf);
                }
                Err(_) => break,
            }
        }
        writer.lock().write_cork(&cork);
        shared.net.responses_out(stripe, cork.len() as u64);
        window.release_n(cork.len());
        for buf in cork.drain(..) {
            pool.give(buf);
        }
    }
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream, token: ConnToken) {
    shared.net.connection_opened();
    let stripe = token.conn_id as usize;
    let _ = stream.set_nodelay(true);
    // A dead-slow client blocks the pump at most this long per frame;
    // after that the writer goes `broken` and drains become no-ops.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let close = |shared: &Arc<Shared>, token: &ConnToken| {
        // Join other finished readers first, then bury our own handle
        // (never reap after burying self — that would be a self-join).
        shared.registry.reap();
        if let Some(own) = shared.registry.deregister(token) {
            shared.registry.bury(own);
        }
        shared.net.connection_closed();
    };
    let Ok(write_half) = stream.try_clone() else {
        close(shared, &token);
        return;
    };
    let writer = Arc::new(Mutex::new(ConnWriter {
        stream: write_half,
        broken: false,
    }));
    let window = Arc::new(InflightWindow::new(shared.cfg.window));
    let (reply_tx, reply_rx) = channel::unbounded();
    let pump_writer = Arc::clone(&writer);
    let pump_window = Arc::clone(&window);
    let pump_shared = Arc::clone(shared);
    let pump = thread::Builder::new()
        .name(format!("amp-net-pump-{}", token.conn_id))
        .spawn(move || {
            pump_loop(&reply_rx, &pump_writer, &pump_window, &pump_shared, stripe);
        });
    let Ok(pump) = pump else {
        // Without a pump no response can ever leave; refuse the
        // connection instead of accepting requests into a void.
        close(shared, &token);
        return;
    };

    let mut conn = Conn {
        shared,
        writer: &writer,
        window: &window,
        reply_tx: &reply_tx,
        stripe,
        batch: Vec::new(),
        edge: Vec::with_capacity(CORK_MAX),
        pool: BufPool::new(CORK_MAX),
    };
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    // When a line overruns `max_line_bytes` we answer once, then
    // discard bytes until its terminating newline.
    let mut discarding = false;
    loop {
        // Greedy drain: consume every complete frame already buffered
        // before the next syscall — this is what turns a pipelined
        // burst into one batch. Lines are scanned in place (no per-line
        // buffer) and the read buffer is compacted once per pass.
        let mut consumed = 0;
        while let Some(pos) = buf[consumed..].iter().position(|&b| b == b'\n') {
            let line = &buf[consumed..consumed + pos];
            if discarding {
                discarding = false;
            } else if line.len() > shared.cfg.max_line_bytes {
                // The size limit applies to complete lines too, not
                // just lines still accumulating — whether an oversized
                // frame arrived in one read or many must not change its
                // answer.
                shared.net.oversized_frame();
                conn.write_direct(&error_frame(
                    None,
                    "FRAME_TOO_LARGE",
                    &format!(
                        "frame exceeds {} bytes; it was discarded",
                        shared.cfg.max_line_bytes
                    ),
                ));
            } else {
                conn.handle_line(line);
                if conn.batch.len() >= shared.cfg.batch_max {
                    conn.flush();
                }
            }
            consumed += pos + 1;
        }
        if consumed > 0 {
            buf.copy_within(consumed.., 0);
            buf.truncate(buf.len() - consumed);
        }
        if !discarding && buf.len() > shared.cfg.max_line_bytes {
            shared.net.oversized_frame();
            conn.write_direct(&error_frame(
                None,
                "FRAME_TOO_LARGE",
                &format!(
                    "frame exceeds {} bytes; it was discarded",
                    shared.cfg.max_line_bytes
                ),
            ));
            buf.clear();
            discarding = true;
        } else if discarding {
            buf.clear();
        }
        // Nothing more is buffered: ship the edge cork and the batch
        // before blocking.
        conn.flush();
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    conn.flush();
    // Dropping the reader's sender lets the pump exit once the engine
    // has answered everything this connection submitted; joining it
    // guarantees every response was written before we tear down.
    // (`conn` borrows `reply_tx`, so it must go first.)
    drop(conn);
    drop(reply_tx);
    let _ = pump.join();
    close(shared, &token);
}
