//! The TCP front end: accept loop, per-connection HTTP handling, the
//! `/healthz`, `/metrics`, `/v1/predict` and `/v1/sweep` endpoints, and
//! scheduler worker lifecycle.
//!
//! Threading model: `N = workers` scheduler threads each own an
//! [`InferenceSession`] sharing the server's one model (weights are
//! never copied); the accept loop spawns one scoped thread per
//! connection. Everything runs under `std::thread::scope`, so the
//! server borrows its model and graph for the whole serve call and
//! needs no `'static` plumbing.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use circuit_graph::CircuitGraph;
use circuitgps::{
    sweep_pairs, CandidatePairs, CircuitGps, InferenceSession, SweepConfig, SweepTask,
};
use cirgps_failpoints::FailAction;
use subgraph_sample::{SamplerConfig, XcNormalizer};

use crate::engine::{Engine, SubmitError, TaskKind};
use crate::http::{
    finish_chunked, read_request_limited, response_bytes, write_chunk, write_chunked_head,
    write_response, IngressLimits, Request, RequestError,
};
use crate::json::{escape, Json};
use crate::metrics::Metrics;

/// Tunables of the serving daemon; see `docs/serving.md` for how they
/// interact with throughput and latency.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush a batch at this many queries (the tape-free engine's sweet
    /// spot is around 32 on the bench workload).
    pub max_batch: usize,
    /// Flush a partial batch after this long (the latency bound an idle
    /// singleton request pays while the batcher hopes for company).
    pub max_wait: Duration,
    /// Scheduler threads, each with its own session and sample cache.
    pub workers: usize,
    /// Bounded queue depth; beyond it requests get `503`.
    pub queue_capacity: usize,
    /// Per-worker prepared-sample cache capacity.
    pub cache_capacity: usize,
    /// Subgraph sampler for pair queries (ground queries use the same
    /// node cap at 2 hops, the training convention).
    pub sampler: SamplerConfig,
    /// Per-connection socket *write* timeout (a peer that stops reading
    /// its response cannot wedge a connection thread forever). Read-side
    /// timing is governed by `idle_timeout` and `ingress_timeout`.
    pub read_timeout: Duration,
    /// How long a graceful drain ([`Server::begin_drain`]) waits for
    /// open connections to finish before force-closing them.
    pub drain_timeout: Duration,
    /// Per-request deadline: a predict request not fully answered within
    /// this window gets `504` instead of stranding the client behind a
    /// stalled batch.
    pub request_timeout: Duration,
    /// Largest accepted request body; bigger declarations get `413`.
    pub max_body_bytes: usize,
    /// Most headers accepted per request; more gets `400`.
    pub max_headers: usize,
    /// How long a keep-alive connection may sit idle *between* requests
    /// before the daemon closes it (separate from `ingress_timeout`,
    /// which bounds a request already in flight).
    pub idle_timeout: Duration,
    /// Wall-clock budget for reading one request, armed at its first
    /// byte. A slow-loris body that dribbles in past this deadline gets
    /// `408` instead of holding a thread open indefinitely.
    pub ingress_timeout: Duration,
    /// Open-connection cap: accepts beyond it are shed immediately with
    /// `503` + `Retry-After` instead of piling up threads.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            max_wait: Duration::from_micros(2000),
            workers: 2,
            queue_capacity: 1024,
            cache_capacity: 65_536,
            sampler: SamplerConfig {
                hops: 1,
                max_nodes: 2048,
            },
            read_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
            max_body_bytes: crate::http::MAX_BODY_BYTES,
            max_headers: crate::http::MAX_HEADERS,
            idle_timeout: Duration::from_secs(60),
            ingress_timeout: Duration::from_secs(10),
            max_connections: 256,
        }
    }
}

/// Shared per-connection deadline latch: armed at a request's first
/// byte, disarmed between requests. Lives behind an `Arc` because the
/// connection loop owns the write half while the `BufReader` owns the
/// [`DeadlineStream`] wrapping the read half.
#[derive(Debug, Default)]
struct DeadlineGate {
    deadline: Mutex<Option<Instant>>,
}

impl DeadlineGate {
    fn get(&self) -> Option<Instant> {
        *self.deadline.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn set(&self, d: Option<Instant>) {
        *self.deadline.lock().unwrap_or_else(PoisonError::into_inner) = d;
    }
}

/// Read wrapper that turns a `TcpStream`'s socket timeouts into two
/// deterministic signals: [`std::io::ErrorKind::WouldBlock`] for an idle
/// keep-alive connection (no request in flight) and
/// [`std::io::ErrorKind::TimedOut`] for a request that blew its ingress
/// deadline mid-read (slow-loris). The HTTP layer maps the former to a
/// silent close and the latter to `408`.
#[derive(Debug)]
struct DeadlineStream {
    inner: TcpStream,
    idle: Duration,
    ingress: Duration,
    gate: Arc<DeadlineGate>,
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // Chaos hook: `delay:MS` here models a stalled read path; with a
        // request in flight the delay consumes the ingress deadline and
        // the request is shed with 408.
        cirgps_failpoints::eval("serve.ingress.read");
        loop {
            let armed = self.gate.get();
            let timeout = match armed {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "request read deadline exceeded",
                        ));
                    }
                    deadline - now
                }
                None => self.idle,
            };
            let _ = self
                .inner
                .set_read_timeout(Some(timeout.max(Duration::from_millis(1))));
            match self.inner.read(buf) {
                Ok(n) => {
                    if n > 0 && armed.is_none() {
                        self.gate.set(Some(Instant::now() + self.ingress));
                    }
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if armed.is_none() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::WouldBlock,
                            "idle keep-alive timeout",
                        ));
                    }
                    // Armed: loop back and re-check the wall clock (the
                    // socket timeout may have fired marginally early).
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Open-connection registry: write halves of every live connection, so
/// a drain can count stragglers and force-close them at the deadline.
#[derive(Debug, Default)]
struct ConnRegistry {
    next_id: u64,
    streams: HashMap<u64, TcpStream>,
}

/// A warm serving instance: one model, one design graph, one engine.
///
/// Construct with [`Server::new`], then call [`Server::serve`] with a
/// bound listener; `serve` blocks until [`Server::shutdown`].
#[derive(Debug)]
pub struct Server {
    model: CircuitGps,
    graph: CircuitGraph,
    xcn: XcNormalizer,
    design: String,
    engine: Engine,
    cfg: ServeConfig,
    shutdown: AtomicBool,
    draining: AtomicBool,
    connections: Mutex<ConnRegistry>,
    started: Instant,
}

/// Most request bytes [`shed_connection`] reads (and discards) from a
/// shed client before closing.
const SHED_DRAIN_BYTES: usize = 64 * 1024;
/// Longest [`shed_connection`] keeps the accept thread waiting for a
/// shed client's request bytes.
const SHED_DRAIN_TIME: Duration = Duration::from_millis(100);

/// Answers a connection over the cap with `503` + `Retry-After` and
/// closes it. Closing a socket whose request bytes were never read makes
/// the kernel send an RST, which can destroy the 503 before the client
/// reads it; so the write side is half-closed first and the request is
/// drained, bounded in bytes and time, before the socket drops.
fn shed_connection(mut stream: TcpStream, retry_after: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = write_response(
        &mut stream,
        503,
        "application/json",
        &[("retry-after", retry_after), ("connection", "close")],
        b"{\"error\":\"too many connections, retry later\"}",
    );
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + SHED_DRAIN_TIME;
    let mut buf = [0u8; 4096];
    let mut left = SHED_DRAIN_BYTES;
    while left > 0 {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() || stream.set_read_timeout(Some(remaining)).is_err() {
            break;
        }
        let want = left.min(buf.len());
        match stream.read(&mut buf[..want]) {
            Ok(0) | Err(_) => break,
            Ok(n) => left -= n,
        }
    }
}

impl Server {
    /// Builds a server over `graph` (the design named `design`), fitting
    /// the XC normalizer on that graph — the same convention
    /// `cirgps predict` uses.
    ///
    /// # Panics
    ///
    /// Panics if the config is inconsistent (zero workers, zero batch,
    /// queue smaller than one batch, cache smaller than one batch).
    pub fn new(model: CircuitGps, graph: CircuitGraph, design: String, cfg: ServeConfig) -> Self {
        assert!(cfg.workers > 0, "need at least one scheduler worker");
        assert!(
            cfg.cache_capacity >= cfg.max_batch,
            "cache must hold at least one batch"
        );
        let engine = Engine::new(cfg.max_batch, cfg.max_wait, cfg.queue_capacity);
        let xcn = XcNormalizer::fit(&[&graph]);
        Server {
            model,
            graph,
            xcn,
            design,
            engine,
            cfg,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            connections: Mutex::new(ConnRegistry::default()),
            started: Instant::now(),
        }
    }

    /// The engine (metrics access for benches and tests).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The wrapped model (e.g. for computing reference predictions in
    /// tests).
    pub fn model(&self) -> &CircuitGps {
        &self.model
    }

    /// The served graph.
    pub fn graph(&self) -> &CircuitGraph {
        &self.graph
    }

    /// Opens a fresh session against this server's model and graph —
    /// exactly what a scheduler worker runs, so tests and benches can
    /// compute direct (unserved) reference predictions.
    pub fn session(&self) -> InferenceSession<'_> {
        InferenceSession::shared(&self.model, self.xcn.clone(), &self.graph, self.cfg.sampler)
            .with_batch_size(self.cfg.max_batch)
            .with_cache_capacity(self.cfg.cache_capacity)
    }

    /// Runs the daemon on `listener` until [`Server::shutdown`] or
    /// [`Server::begin_drain`]: spawns the scheduler workers, then
    /// accepts connections.
    ///
    /// On drain the exit sequence is ordered for zero dropped work:
    /// the listener closes first (new connections are refused), open
    /// connections get up to `drain_timeout` to finish their in-flight
    /// and queued requests (the engine's queue stays open and its
    /// workers keep answering), stragglers are force-closed, and only
    /// then does the engine shut down.
    pub fn serve(&self, listener: TcpListener) {
        std::thread::scope(|s| {
            for _ in 0..self.cfg.workers {
                s.spawn(|| {
                    let mut session = self.session();
                    self.engine.run_worker(&mut session);
                });
            }
            for stream in listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) || self.draining.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Accept-level shedding: past the connection cap, answer
                // 503 on the accept thread and close instead of spawning
                // yet another thread for a load we cannot serve.
                if self.conns().streams.len() >= self.cfg.max_connections {
                    Metrics::inc(&self.engine.metrics().rejected_max_conns);
                    shed_connection(stream, &self.retry_after_secs().to_string());
                    continue;
                }
                s.spawn(move || self.handle_connection(stream));
            }
            // Refuse new connections from this instant: queued backlog
            // connections get RST, fresh connects ECONNREFUSED.
            drop(listener);

            // Give open connections the drain window to finish. Their
            // submits still succeed (the queue is open) and the workers
            // are still running, so every accepted request is answered —
            // the deadline only bounds how long we wait for slow peers.
            let deadline = Instant::now() + self.cfg.drain_timeout;
            loop {
                let open = self.conns().streams.len();
                if open == 0 || Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            // Force-close stragglers (blocked reads/writes error out and
            // their threads exit promptly).
            for stream in self.conns().streams.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            // Only now stop the engine: workers drain the backlog (every
            // enqueued job still computes) and exit.
            self.engine.shutdown();
        });
    }

    /// Stops [`Server::serve`]: sets the flag, closes the queue (pending
    /// jobs still complete) and pokes `addr` so the blocking `accept`
    /// returns. Keep-alive connections close after their in-flight
    /// request; idle connections are force-closed after `drain_timeout`.
    pub fn shutdown(&self, addr: SocketAddr) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.engine.shutdown();
        let _ = TcpStream::connect(addr);
    }

    /// Starts a graceful drain (the SIGTERM path): stop accepting new
    /// connections, keep answering everything already accepted or
    /// queued, and let [`Server::serve`] return once connections finish
    /// (or `drain_timeout` passes). `/healthz` reports `"draining"` so
    /// load balancers stop routing here; new predict submissions on
    /// *existing* keep-alive connections still succeed until their
    /// connection closes.
    pub fn begin_drain(&self, addr: SocketAddr) {
        self.draining.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
    }

    /// Whether a graceful drain is in progress.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn conns(&self) -> std::sync::MutexGuard<'_, ConnRegistry> {
        self.connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The load-aware `Retry-After` advertised on `503`: the predicted
    /// time to drain the current backlog (`ceil(depth / max_batch)`
    /// batches at the recent EWMA service time across the workers),
    /// clamped to `[1, 30]` seconds. An idle or cold server advertises
    /// the 1-second floor; a deeply backed-up one tells clients to stay
    /// away longer instead of dogpiling every second.
    fn retry_after_secs(&self) -> u64 {
        let depth = self.engine.queue_depth() as u64;
        let batch = self.engine.max_batch().max(1) as u64;
        let workers = self.cfg.workers.max(1) as u64;
        let est_us = depth
            .div_ceil(batch)
            .saturating_mul(self.engine.recent_batch_us())
            / workers;
        let secs = est_us.div_ceil(1_000_000).clamp(1, 30);
        self.engine
            .metrics()
            .retry_after_s
            .store(secs, Ordering::Relaxed);
        secs
    }

    /// Writes one buffered response, honoring the `serve.ingress.write`
    /// chaos hook (`truncate:N` cuts the wire mid-response, `error`
    /// drops it entirely — both then poison the connection like a real
    /// broken pipe would).
    fn write_reply(
        &self,
        writer: &mut TcpStream,
        status: u16,
        content_type: &str,
        extra: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<()> {
        match cirgps_failpoints::eval("serve.ingress.write") {
            Some(FailAction::Truncate(n)) => {
                let mut wire = response_bytes(status, content_type, extra, body);
                wire.truncate(n as usize);
                writer.write_all(&wire)?;
                let _ = writer.flush();
                Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "torn response (failpoint)",
                ))
            }
            Some(FailAction::Error) => Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "response write failed (failpoint)",
            )),
            None => write_response(writer, status, content_type, extra, body),
        }
    }

    fn handle_connection(&self, stream: TcpStream) {
        let _ = stream.set_write_timeout(Some(self.cfg.read_timeout));
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        // Register for the drain accounting; the guard deregisters on
        // every exit path, including a panic in routing.
        let id = {
            let mut reg = self.conns();
            let id = reg.next_id;
            reg.next_id += 1;
            if let Ok(clone) = stream.try_clone() {
                reg.streams.insert(id, clone);
            }
            id
        };
        struct Deregister<'a>(&'a Server, u64);
        impl Drop for Deregister<'_> {
            fn drop(&mut self) {
                self.0.conns().streams.remove(&self.1);
            }
        }
        let _guard = Deregister(self, id);

        let gate = Arc::new(DeadlineGate::default());
        let mut reader = BufReader::new(DeadlineStream {
            inner: read_half,
            idle: self.cfg.idle_timeout,
            ingress: self.cfg.ingress_timeout,
            gate: gate.clone(),
        });
        let mut writer = stream;
        let limits = IngressLimits {
            max_body_bytes: self.cfg.max_body_bytes,
            max_headers: self.cfg.max_headers,
        };
        let metrics = self.engine.metrics();
        loop {
            // Between requests the connection is idle, not mid-request:
            // the ingress deadline re-arms at the next first byte.
            gate.set(None);
            match read_request_limited(&mut reader, &limits) {
                Ok(Some(req)) => {
                    // During shutdown/drain the keep-alive loop must not
                    // spin on a chatty client forever: answer this
                    // request (workers drain the backlog anyway), then
                    // close.
                    let close = req.close
                        || self.shutdown.load(Ordering::SeqCst)
                        || self.draining.load(Ordering::SeqCst);
                    // The request is fully read; its predict/sweep time
                    // is governed by `request_timeout`, not the ingress
                    // deadline.
                    gate.set(None);
                    // Sweeps stream a chunked body directly to the
                    // socket (their length is unknown up front), so they
                    // bypass the buffered `route` path.
                    let path = req.path.split('?').next().unwrap_or("");
                    if req.method == "POST" && path == "/v1/sweep" {
                        match self.handle_sweep(&req.body, &mut writer) {
                            Ok(()) if !close => continue,
                            Ok(()) => return,
                            Err(SweepError::Bad(msg)) => {
                                Metrics::inc(&metrics.http_bad_request);
                                let body = format!("{{\"error\":\"{}\"}}", escape(&msg));
                                if self
                                    .write_reply(
                                        &mut writer,
                                        400,
                                        "application/json",
                                        &[],
                                        body.as_bytes(),
                                    )
                                    .is_err()
                                    || close
                                {
                                    return;
                                }
                                continue;
                            }
                            Err(SweepError::Io) => return,
                        }
                    }
                    let (status, content_type, body) = self.route(&req);
                    // Backpressure is transient — tell clients when to
                    // come back. The value is load-aware: it scales with
                    // the predicted backlog drain time (docs/serving.md
                    // recommends exponential backoff from that floor).
                    let retry_after;
                    let extra: &[(&str, &str)] = if status == 503 {
                        retry_after = self.retry_after_secs().to_string();
                        &[("retry-after", &retry_after)]
                    } else {
                        &[]
                    };
                    if close {
                        // Free the connection slot before the last reply
                        // goes out: a client that reconnects as soon as it
                        // has read this reply must not be shed by a slot
                        // this thread is about to release.
                        self.conns().streams.remove(&id);
                    }
                    if self
                        .write_reply(&mut writer, status, content_type, extra, body.as_bytes())
                        .is_err()
                        || close
                    {
                        return;
                    }
                }
                Ok(None) => return,
                Err(RequestError::Bad(msg)) => {
                    Metrics::inc(&metrics.http_bad_request);
                    let body = format!("{{\"error\":\"{}\"}}", escape(&msg));
                    let _ = self.write_reply(
                        &mut writer,
                        400,
                        "application/json",
                        &[],
                        body.as_bytes(),
                    );
                    return;
                }
                Err(RequestError::TooLarge(msg)) => {
                    // The oversized body was never read, so the stream
                    // position is unknown — answer and close.
                    Metrics::inc(&metrics.requests_too_large);
                    let body = format!("{{\"error\":\"{}\"}}", escape(&msg));
                    let _ = self.write_reply(
                        &mut writer,
                        413,
                        "application/json",
                        &[("connection", "close")],
                        body.as_bytes(),
                    );
                    return;
                }
                Err(RequestError::Timeout) => {
                    Metrics::inc(&metrics.requests_ingress_timeout);
                    let _ = self.write_reply(
                        &mut writer,
                        408,
                        "application/json",
                        &[("connection", "close")],
                        b"{\"error\":\"request read deadline exceeded\"}",
                    );
                    return;
                }
                Err(RequestError::Io(e)) => {
                    if e.kind() == std::io::ErrorKind::WouldBlock {
                        // Idle keep-alive expiry — a normal lifecycle
                        // event, closed silently.
                        Metrics::inc(&metrics.connections_idle_closed);
                    }
                    return;
                }
            }
        }
    }

    fn route(&self, req: &Request) -> (u16, &'static str, String) {
        let metrics = self.engine.metrics();
        let path = req.path.split('?').next().unwrap_or("");
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => {
                Metrics::inc(&metrics.http_healthz);
                (200, "application/json", self.healthz_body())
            }
            ("GET", "/metrics") => {
                Metrics::inc(&metrics.http_metrics);
                (
                    200,
                    "text/plain; version=0.0.4",
                    metrics.render(
                        self.engine.queue_depth(),
                        self.is_draining(),
                        self.engine.in_brownout(),
                        self.engine.recent_batch_us(),
                        circuitgps::Backend::active().name(),
                    ),
                )
            }
            ("POST", "/v1/predict") => match self.handle_predict(&req.body) {
                Ok(body) => {
                    Metrics::inc(&metrics.http_predict);
                    (200, "application/json", body)
                }
                Err(PredictError::Bad(msg)) => {
                    Metrics::inc(&metrics.http_bad_request);
                    (
                        400,
                        "application/json",
                        format!("{{\"error\":\"{}\"}}", escape(&msg)),
                    )
                }
                Err(PredictError::Overloaded) => (
                    503,
                    "application/json",
                    "{\"error\":\"queue full, retry later\"}".into(),
                ),
                Err(PredictError::Shed) => (
                    503,
                    "application/json",
                    "{\"error\":\"overloaded (admission control), retry later\"}".into(),
                ),
                Err(PredictError::ShuttingDown) => (
                    503,
                    "application/json",
                    "{\"error\":\"shutting down\"}".into(),
                ),
                Err(PredictError::Timeout) => {
                    Metrics::inc(&metrics.requests_timeout);
                    (
                        504,
                        "application/json",
                        "{\"error\":\"deadline exceeded\"}".into(),
                    )
                }
            },
            ("POST" | "GET", _) => {
                Metrics::inc(&metrics.http_bad_request);
                (
                    404,
                    "application/json",
                    format!("{{\"error\":\"no route {}\"}}", escape(path)),
                )
            }
            _ => {
                Metrics::inc(&metrics.http_bad_request);
                (
                    405,
                    "application/json",
                    "{\"error\":\"method not allowed\"}".into(),
                )
            }
        }
    }

    fn healthz_body(&self) -> String {
        format!(
            "{{\"status\":\"{}\",\"design\":\"{}\",\"graph_nodes\":{},\"graph_edges\":{},\
             \"workers\":{},\"max_batch\":{},\"max_wait_us\":{},\"uptime_s\":{}}}",
            if self.is_draining() { "draining" } else { "ok" },
            escape(&self.design),
            self.graph.num_nodes(),
            self.graph.num_edges(),
            self.cfg.workers,
            self.cfg.max_batch,
            self.cfg.max_wait.as_micros(),
            self.started.elapsed().as_secs()
        )
    }

    fn handle_predict(&self, body: &[u8]) -> Result<String, PredictError> {
        let text = std::str::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
        let doc = Json::parse(text).map_err(|e| bad(&format!("bad JSON: {e}")))?;
        let task = doc
            .get("task")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing \"task\" (expected link|cap|ground)"))?;
        let n = self.graph.num_nodes() as u32;

        let (kind, keys, label) = match task {
            "link" | "cap" => {
                let pairs = doc
                    .get("pairs")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("missing \"pairs\" array of [a,b] pairs"))?;
                let mut keys = Vec::with_capacity(pairs.len());
                for (i, p) in pairs.iter().enumerate() {
                    let pair = p
                        .as_arr()
                        .filter(|a| a.len() == 2)
                        .ok_or_else(|| bad(&format!("pairs[{i}] is not a two-element array")))?;
                    let a = node_id(&pair[0], n, &format!("pairs[{i}][0]"))
                        .map_err(PredictError::Bad)?;
                    let b = node_id(&pair[1], n, &format!("pairs[{i}][1]"))
                        .map_err(PredictError::Bad)?;
                    if a == b {
                        return Err(bad(&format!(
                            "pairs[{i}] has identical endpoints (use task \"ground\" for nodes)"
                        )));
                    }
                    keys.push((a, b));
                }
                let kind = if task == "link" {
                    TaskKind::Link
                } else {
                    TaskKind::Coupling
                };
                (
                    kind,
                    keys,
                    if task == "link" { "probs" } else { "caps_norm" },
                )
            }
            "ground" => {
                let nodes = doc
                    .get("nodes")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("missing \"nodes\" array of node ids"))?;
                let keys = nodes
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        node_id(v, n, &format!("nodes[{i}]"))
                            .map(|id| (id, id))
                            .map_err(PredictError::Bad)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                (TaskKind::Ground, keys, "caps_norm")
            }
            other => return Err(bad(&format!("unknown task {other:?}"))),
        };
        if keys.is_empty() {
            return Err(bad("empty query list"));
        }
        // A request larger than the queue can *never* be enqueued, so a
        // retryable 503 would strand the client — tell it to split.
        let cap = self.engine.queue_capacity();
        if keys.len() > cap {
            return Err(bad(&format!(
                "request of {} queries exceeds the queue capacity {cap}; \
                 split it into smaller requests",
                keys.len()
            )));
        }

        // Admission control: once the EWMA service time is warm, shed
        // requests whose predicted queue sojourn already exceeds their
        // deadline — answering 503 now beats making the client wait the
        // full `request_timeout` for a guaranteed 504.
        let per_batch_us = self.engine.recent_batch_us();
        if per_batch_us > 0 {
            let backlog = (self.engine.queue_depth() + keys.len()) as u64;
            let batch = self.engine.max_batch().max(1) as u64;
            let workers = self.cfg.workers.max(1) as u64;
            let est_us = backlog.div_ceil(batch).saturating_mul(per_batch_us) / workers;
            if est_us > self.cfg.request_timeout.as_micros() as u64 {
                Metrics::inc(&self.engine.metrics().rejected_admission);
                return Err(PredictError::Shed);
            }
        }

        let slot = self.engine.submit(kind, &keys).map_err(|e| match e {
            SubmitError::QueueFull => PredictError::Overloaded,
            SubmitError::ShuttingDown => PredictError::ShuttingDown,
            // Unreachable from HTTP: pair endpoints were validated above.
            SubmitError::IdenticalEndpoints { index } => {
                PredictError::Bad(format!("pairs[{index}] has identical endpoints"))
            }
        })?;
        let preds = slot
            .wait_deadline(self.cfg.request_timeout)
            .ok_or(PredictError::Timeout)?;

        let mut out = String::with_capacity(16 * preds.len() + 64);
        out.push_str(&format!("{{\"task\":\"{task}\",\"{label}\":["));
        for (i, p) in preds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Shortest round-trip formatting: the printed value parses
            // back to the identical f32 (the protocol's exactness
            // contract; see docs/serving.md).
            out.push_str(&format!("{p}"));
        }
        out.push_str(&format!("],\"count\":{}}}", preds.len()));
        Ok(out)
    }

    /// Runs one planned sweep on the connection thread, streaming a
    /// chunked JSONL body: one line per pair in input order, then a
    /// `{"done":true,...}` trailer with the planner stats. Bypasses the
    /// engine queue — a sweep is a bulk job with its own batching, not a
    /// latency-sensitive query — and shares the server's model, so it is
    /// bitwise-identical to `/v1/predict` on the same pairs.
    fn handle_sweep(
        &self,
        body: &[u8],
        writer: &mut impl std::io::Write,
    ) -> Result<(), SweepError> {
        let (task, input, chunk) = self.parse_sweep(body).map_err(SweepError::Bad)?;
        let metrics = self.engine.metrics();
        Metrics::inc(&metrics.http_sweep);
        if write_chunked_head(writer, 200, "application/jsonl").is_err() {
            return Err(SweepError::Io);
        }

        let cfg = SweepConfig {
            task,
            sampler: self.cfg.sampler,
            chunk,
            threads: 1,
        };
        let label = match task {
            SweepTask::Link => "prob",
            SweepTask::Coupling => "cap_norm",
        };
        let mut io_err = false;
        let mut buf = String::new();
        let mut emit = |ps: &[(u32, u32)], vs: &[f32]| -> bool {
            // Chaos hook: a client that disconnects mid-stream surfaces
            // here as a write error on the next chunk.
            if cirgps_failpoints::eval("serve.sweep.chunk").is_some() {
                io_err = true;
                return false;
            }
            buf.clear();
            for (&(a, b), v) in ps.iter().zip(vs) {
                // Shortest round-trip formatting, same exactness contract
                // as `/v1/predict`.
                buf.push_str(&format!("{{\"a\":{a},\"b\":{b},\"{label}\":{v}}}\n"));
            }
            if write_chunk(writer, buf.as_bytes()).is_err() {
                io_err = true;
                return false;
            }
            true
        };
        let stats = match input {
            SweepInput::Pairs(list) => {
                sweep_pairs(&self.model, &self.xcn, &self.graph, list, &cfg, &mut emit)
            }
            SweepInput::Enumerate {
                per_node_cap,
                max_pairs,
            } => {
                let it = CandidatePairs::new(&self.graph, per_node_cap, max_pairs);
                sweep_pairs(&self.model, &self.xcn, &self.graph, it, &cfg, &mut emit)
            }
        };
        if io_err {
            return Err(SweepError::Io);
        }
        metrics
            .sweep_pairs_total
            .fetch_add(stats.pairs as u64, Ordering::Relaxed);
        metrics
            .sweep_forwards_total
            .fetch_add(stats.unique_forwards as u64, Ordering::Relaxed);
        let trailer = format!(
            "{{\"done\":true,\"pairs\":{},\"chunks\":{},\"unique_forwards\":{},\"dedup_hits\":{}}}\n",
            stats.pairs, stats.chunks, stats.unique_forwards, stats.dedup_hits
        );
        if write_chunk(writer, trailer.as_bytes()).is_err() || finish_chunked(writer).is_err() {
            return Err(SweepError::Io);
        }
        Ok(())
    }

    /// Validates a sweep request body. Everything here happens *before*
    /// the chunked head goes out, so failures still get a clean `400`.
    fn parse_sweep(&self, body: &[u8]) -> Result<(SweepTask, SweepInput, usize), String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let doc = Json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
        let task = match doc.get("task").and_then(Json::as_str) {
            Some("link") => SweepTask::Link,
            Some("cap") => SweepTask::Coupling,
            Some(other) => return Err(format!("unknown task {other:?} (expected link|cap)")),
            None => return Err("missing \"task\" (expected link|cap)".into()),
        };
        let chunk = match doc.get("chunk") {
            None => 2048usize,
            Some(v) => v
                .as_u32()
                .filter(|&c| c > 0)
                .ok_or_else(|| "\"chunk\" must be a positive integer".to_string())?
                as usize,
        };
        let n = self.graph.num_nodes() as u32;
        let input = match (doc.get("pairs"), doc.get("enumerate")) {
            (Some(_), Some(_)) => {
                return Err("provide either \"pairs\" or \"enumerate\", not both".into())
            }
            (Some(p), None) => {
                let pairs = p
                    .as_arr()
                    .ok_or_else(|| "\"pairs\" must be an array of [a,b] pairs".to_string())?;
                if pairs.is_empty() {
                    return Err("empty pair list".into());
                }
                let mut keys = Vec::with_capacity(pairs.len());
                for (i, p) in pairs.iter().enumerate() {
                    let pair = p
                        .as_arr()
                        .filter(|a| a.len() == 2)
                        .ok_or_else(|| format!("pairs[{i}] is not a two-element array"))?;
                    let a = node_id(&pair[0], n, &format!("pairs[{i}][0]"))?;
                    let b = node_id(&pair[1], n, &format!("pairs[{i}][1]"))?;
                    if a == b {
                        return Err(format!("pairs[{i}] has identical endpoints"));
                    }
                    keys.push((a, b));
                }
                SweepInput::Pairs(keys)
            }
            (None, Some(e)) => {
                let cap_field = |name: &str| -> Result<usize, String> {
                    match e.get(name) {
                        None => Ok(0),
                        Some(v) => v.as_u32().map(|c| c as usize).ok_or_else(|| {
                            format!("\"enumerate.{name}\" must be a non-negative integer")
                        }),
                    }
                };
                SweepInput::Enumerate {
                    per_node_cap: cap_field("per_node_cap")?,
                    max_pairs: cap_field("max_pairs")?,
                }
            }
            (None, None) => {
                return Err("missing \"pairs\" array or \"enumerate\" object".into());
            }
        };
        Ok((task, input, chunk))
    }
}

/// The pair source of a sweep request.
enum SweepInput {
    /// Explicit `[a,b]` pairs from the request body.
    Pairs(Vec<(u32, u32)>),
    /// Planner-enumerated candidates (`0` = unlimited for both caps).
    Enumerate {
        per_node_cap: usize,
        max_pairs: usize,
    },
}

/// Sweep failure modes: `Bad` happens before any bytes go out (normal
/// `400`); `Io` means the chunked stream broke and the connection is
/// unusable.
enum SweepError {
    Bad(String),
    Io,
}

fn node_id(v: &Json, num_nodes: u32, what: &str) -> Result<u32, String> {
    let id = v
        .as_u32()
        .ok_or_else(|| format!("{what} is not a non-negative integer"))?;
    if id >= num_nodes {
        return Err(format!(
            "{what} = {id} out of range (graph has {num_nodes} nodes)"
        ));
    }
    Ok(id)
}

enum PredictError {
    Bad(String),
    Overloaded,
    Shed,
    ShuttingDown,
    Timeout,
}

fn bad(msg: &str) -> PredictError {
    PredictError::Bad(msg.to_string())
}
