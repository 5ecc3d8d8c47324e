//! The TCP daemon: a bounded worker pool serving the framed protocol over one shared
//! [`TraceRepo`] and its [`Engine`](rprism::Engine).
//!
//! ## Concurrency model
//!
//! The listener thread accepts connections and hands them to a fixed pool of worker
//! threads over a bounded queue ([`ServerConfig::backlog`]). Each worker owns one
//! connection at a time and runs its request/response loop to completion. All workers
//! share one `Arc<TraceRepo>` — and therefore one `Engine`, whose `Send + Sync`
//! prepared/correlation caches are exactly what turns N clients diffing the same pairs
//! into cache hits (the stress test in `rprism-core` pins the engine-level guarantee;
//! `BENCH_5.json` records the resulting request throughput).
//!
//! ## Overload
//!
//! When every worker is busy *and* the queue is full, further connections are not
//! silently parked: the listener answers each with one [`Response::Busy`] frame
//! carrying a retry hint and closes it — an explicit, machine-readable shed that a
//! retrying [`Client`](crate::Client) turns into bounded backoff. Saturation is
//! also the memory-pressure signal: each shed shrinks the prepared cache to
//! [`ServerConfig::cache_low_watermark`], degrading reads to re-streaming blobs
//! rather than ever refusing them.
//!
//! ## Failure containment
//!
//! A connection's errors never leave the connection: an undecodable message is
//! answered with an error frame and the loop continues; a transport-level failure
//! (checksum mismatch, truncated frame, I/O error) is answered best-effort and the
//! connection closed. Workers catch panics per connection (`catch_unwind`), so even a
//! bug in a single request cannot take the daemon down.
//!
//! ## Shutdown
//!
//! A [`Request::Shutdown`] flips the shared stop flag and is acknowledged immediately.
//! The listener stops accepting, the connection queue is closed and drained, and
//! every worker finishes the requests already in flight before exiting —
//! [`Server::run`] returns only after the pool has joined.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rprism::{
    AnchoredDiffOptions, DiffAlgorithm, Engine, LcsDiffOptions, PreparedTrace, RegressionInput,
    ViewsDiffOptions, Watch,
};
use rprism_format::frame::{read_frame, write_frame};
use rprism_format::{TailBatch, TailDecoder};
use rprism_obs::{Counter, Obs};
use rprism_trace::EntryBatch;

use crate::proto::{
    Request, Response, WireAlgorithm, WireDiff, WireReport, WireStats, WireWatchEvent,
};

/// Maps a wire algorithm override to a concrete [`DiffAlgorithm`] with the default
/// options of its family — only the algorithm choice travels on the wire; tuning
/// stays a server-side concern.
fn algorithm_for(wire: WireAlgorithm) -> DiffAlgorithm {
    match wire {
        WireAlgorithm::Views => DiffAlgorithm::Views(ViewsDiffOptions::default()),
        WireAlgorithm::Lcs => DiffAlgorithm::Lcs(LcsDiffOptions::default()),
        WireAlgorithm::Anchored => DiffAlgorithm::Anchored(AnchoredDiffOptions::default()),
    }
}
use crate::repo::{RepoOptions, TraceRepo, DEFAULT_CACHE_BUDGET};
use crate::{Result, ServerError};

/// Default per-request transport deadline ([`ServerConfig::request_deadline`]): how
/// long a worker waits for the rest of a frame once its first byte arrived, and how
/// long a response write may take. A peer that stalls mid-frame has lost framing
/// sync anyway, so this closes the connection.
const FRAME_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Default [`ServerConfig::busy_retry_ms`] hint in a shed [`Response::Busy`] frame.
const DEFAULT_BUSY_RETRY_MS: u32 = 100;

/// The poll quantum of idle waits (between frames on a connection, and in the accept
/// loop): how quickly a blocked worker or the listener notices the stop flag.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The address to bind (e.g. `127.0.0.1:7171`; port 0 picks an ephemeral port).
    pub addr: String,
    /// The repository directory (must exist and be writable).
    pub repo_dir: std::path::PathBuf,
    /// Worker threads serving connections (defaults to [`rprism_trace::par::workers`],
    /// minimum 2 so a long request cannot starve the shutdown path). Each open
    /// connection occupies one worker for its lifetime, so size the pool for the
    /// expected peak of *concurrent connections* — further connections queue (with
    /// back-pressure) until a worker frees up.
    pub threads: usize,
    /// Byte budget of the prepared-handle cache.
    pub cache_budget: u64,
    /// Maximum accepted frame payload (uploads larger than this are rejected).
    pub max_frame: u64,
    /// Accepted connections that may wait for a free worker before the listener
    /// sheds new ones with [`Response::Busy`] (defaults to `2 × threads`).
    pub backlog: usize,
    /// The backoff hint carried in a shed [`Response::Busy`] frame.
    pub busy_retry_ms: u32,
    /// The prepared-cache size the server shrinks to when it sheds load (defaults
    /// to half the budget). Shrinking degrades reads to re-streaming blobs; it
    /// never refuses them.
    pub cache_low_watermark: u64,
    /// When `true` (the default), puts fsync the staged blob and the repository
    /// directory around the rename-commit (see [`RepoOptions::durable`]).
    pub durable: bool,
    /// Per-request transport deadline: the time budget for reading the rest of a
    /// request frame after its first byte, and for writing a response frame. This
    /// bounds the *transport* phases of a request — a slow peer cannot pin a
    /// worker — not the analysis compute between them.
    pub request_deadline: Duration,
    /// The analysis engine configuration shared by every request.
    pub engine: Engine,
    /// The observability domain the daemon records into. `None` (the default) makes
    /// [`Server::bind`] create a fresh enabled [`Obs`] — a daemon always answers
    /// [`Request::Metrics`] and [`Request::ObsTrace`]; pass an explicit observer to
    /// share a domain (tests) or [`Obs::disabled`] to strip instrumentation.
    pub obs: Option<Obs>,
    /// When set, any request whose handler runs at least this many milliseconds is
    /// logged to stderr as one structured `slow-request` line with its per-phase
    /// breakdown. `None` (the default) disables the log.
    pub slow_request_ms: Option<u64>,
    /// When set, the server serializes its own recent execution (the span ring, as
    /// a canonical binary `.rtr` trace) to this path on shutdown.
    pub obs_trace_path: Option<std::path::PathBuf>,
}

impl ServerConfig {
    /// A configuration with the defaults: one worker per core (min 2), a 256 MiB
    /// prepared-cache budget, 64 MiB frames, a `2 × threads` backlog, durable
    /// puts, a 60 s request deadline, and a default [`Engine`].
    pub fn new(addr: impl Into<String>, repo_dir: impl Into<std::path::PathBuf>) -> Self {
        let threads = rprism_trace::par::workers().max(2);
        ServerConfig {
            addr: addr.into(),
            repo_dir: repo_dir.into(),
            threads,
            cache_budget: DEFAULT_CACHE_BUDGET,
            max_frame: rprism_format::frame::DEFAULT_MAX_PAYLOAD,
            backlog: threads * 2,
            busy_retry_ms: DEFAULT_BUSY_RETRY_MS,
            cache_low_watermark: DEFAULT_CACHE_BUDGET / 2,
            durable: true,
            request_deadline: FRAME_READ_TIMEOUT,
            engine: Engine::new(),
            obs: None,
            slow_request_ms: None,
            obs_trace_path: None,
        }
    }
}

/// A bound (but not yet running) trace-repository daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    repo: Arc<TraceRepo>,
    threads: usize,
    max_frame: u64,
    backlog: usize,
    busy_retry_ms: u32,
    cache_low_watermark: u64,
    request_deadline: Duration,
    stop: Arc<AtomicBool>,
    obs: Obs,
    slow_request_ms: Option<u64>,
    obs_trace_path: Option<std::path::PathBuf>,
    requests_served: Counter,
}

impl Server {
    /// Binds the listener and opens the repository (running its startup recovery:
    /// orphan sweep and quarantine of damaged blobs). Fails fast — a missing or
    /// unwritable repository directory or an unbindable address is a startup error,
    /// not a latent runtime one.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Repo`] for repository problems and
    /// [`ServerError::Io`] when the address cannot be bound.
    pub fn bind(config: ServerConfig) -> Result<Server> {
        let obs = config.obs.unwrap_or_else(Obs::enabled);
        let repo = TraceRepo::open_with(
            &config.repo_dir,
            config.engine.clone(),
            RepoOptions {
                cache_budget: config.cache_budget,
                durable: config.durable,
                obs: obs.clone(),
                ..RepoOptions::default()
            },
        )?;
        let listener = TcpListener::bind(resolve(&config.addr)?)?;
        Ok(Server {
            listener,
            repo: Arc::new(repo),
            threads: config.threads.max(2),
            max_frame: config.max_frame,
            backlog: config.backlog.max(1),
            busy_retry_ms: config.busy_retry_ms,
            cache_low_watermark: config.cache_low_watermark,
            request_deadline: config.request_deadline,
            stop: Arc::new(AtomicBool::new(false)),
            requests_served: obs.counter("server.requests_total"),
            slow_request_ms: config.slow_request_ms,
            obs_trace_path: config.obs_trace_path,
            obs,
        })
    }

    /// The bound address (the actual port when the config asked for port 0).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Io`] when the socket cannot report its address.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// A handle that can stop this server from another thread (equivalent to a
    /// [`Request::Shutdown`] arriving on the wire).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Runs the daemon until a shutdown request (or [`Server::stop_handle`]) stops it,
    /// then drains in-flight requests and joins the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Io`] only for listener-level failures; per-connection
    /// errors are contained and answered on their own connections.
    pub fn run(self) -> Result<()> {
        self.listener.set_nonblocking(true)?;
        let (queue_tx, queue_rx) = sync_channel::<TcpStream>(self.backlog);
        let queue_rx = Arc::new(Mutex::new(queue_rx));
        let outcome = std::thread::scope(|scope| {
            for _ in 0..self.threads {
                let worker = Worker {
                    repo: Arc::clone(&self.repo),
                    stop: Arc::clone(&self.stop),
                    obs: self.obs.clone(),
                    slow_request_ms: self.slow_request_ms,
                    requests_served: self.requests_served.clone(),
                    max_frame: self.max_frame,
                    request_deadline: self.request_deadline,
                };
                let queue_rx = Arc::clone(&queue_rx);
                scope.spawn(move || loop {
                    // Take the next queued connection; the queue closing is the pool's
                    // signal to exit (after the in-flight connection finished).
                    let next = queue_rx.lock().expect("queue poisoned").recv();
                    match next {
                        Ok(mut stream) => worker.serve_connection(&mut stream),
                        Err(_) => break,
                    }
                });
            }

            while !self.stop.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        match queue_tx.try_send(stream) {
                            Ok(()) => {}
                            Err(TrySendError::Full(stream)) => self.shed(stream),
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(IDLE_POLL);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(ServerError::Io(e)),
                }
            }
            // Closing the queue drains it: workers finish queued and in-flight
            // connections, then exit; the scope joins them.
            drop(queue_tx);
            Ok(())
        });
        // The pool has joined: the ring now holds the daemon's complete recent
        // execution, so this dump and a final ObsTrace answer agree. Best-effort —
        // a failed dump is logged, not a shutdown error.
        if let Some(path) = &self.obs_trace_path {
            let trace = self.obs.self_trace("rprism-server");
            let written = rprism_format::trace_to_bytes(&trace, rprism_format::Encoding::Binary)
                .map_err(std::io::Error::other)
                .and_then(|bytes| std::fs::write(path, bytes));
            if let Err(e) = written {
                eprintln!(
                    "rprism-server: cannot write obs trace to {}: {e}",
                    path.display()
                );
            }
        }
        outcome
    }

    /// Sheds one connection under saturation: answer a single [`Response::Busy`]
    /// frame (best-effort, bounded write) and close. Saturation doubles as the
    /// memory-pressure signal, so the prepared cache shrinks to the low watermark —
    /// future reads may re-stream blobs, but nothing is refused.
    fn shed(&self, mut stream: TcpStream) {
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        let busy = Response::Busy {
            retry_after_ms: self.busy_retry_ms,
        };
        let mut frame = Vec::new();
        let _ = write_frame(&mut frame, &busy.encode());
        let _ = stream.write_all(&frame);
        self.repo.shrink_cache(self.cache_low_watermark);
    }
}

fn resolve(addr: &str) -> Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| ServerError::Io(std::io::Error::other(format!("cannot resolve {addr:?}"))))
}

/// The connection-stream seam: what a server worker needs from a transport. The
/// production implementation is [`TcpStream`]; the in-module unit tests drive the
/// request loop over an in-memory duplex with injected faults, pinning the loop's
/// behavior against torn frames without a socket in sight.
pub trait Conn: Read + Write + Send {
    /// Reads available bytes without consuming them (`Ok(0)` means peer closed).
    fn peek(&mut self, buf: &mut [u8]) -> std::io::Result<usize>;
    /// Bounds subsequent reads (`WouldBlock`/`TimedOut` on expiry).
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()>;
    /// Bounds subsequent writes.
    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()>;
    /// Disables Nagle batching where that concept exists; a no-op elsewhere.
    fn set_nodelay(&mut self, nodelay: bool) -> std::io::Result<()> {
        let _ = nodelay;
        Ok(())
    }
}

impl Conn for TcpStream {
    fn peek(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        TcpStream::peek(self, buf)
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }

    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }

    fn set_nodelay(&mut self, nodelay: bool) -> std::io::Result<()> {
        TcpStream::set_nodelay(self, nodelay)
    }
}

/// Per-worker state: everything a connection handler needs, cheap to clone into the
/// pool.
struct Worker {
    repo: Arc<TraceRepo>,
    stop: Arc<AtomicBool>,
    obs: Obs,
    slow_request_ms: Option<u64>,
    requests_served: Counter,
    max_frame: u64,
    request_deadline: Duration,
}

/// Per-connection live-watch state ([`Request::WatchStart`] … final
/// [`Request::PutStream`]): the stored old trace, the push-driven decoder resuming
/// across arbitrary chunk boundaries, and the engine's incremental diff session.
/// The session is created lazily, on the first chunk that completes the stream
/// header — a watch can legally start with a chunk too short to even name the trace.
/// Any failure mid-watch drops this state, so a later chunk on the same connection
/// gets a structured "no active watch" error instead of feeding a dead session.
struct WatchState {
    old: PreparedTrace,
    decoder: TailDecoder,
    watch: Option<Watch>,
    max_sequences: usize,
}

impl Worker {
    /// Serves one connection to completion. Panics are contained per connection.
    fn serve_connection<C: Conn>(&self, stream: &mut C) {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if let Err(e) = self.connection_loop(stream) {
                // Best effort: tell the peer what went wrong before closing.
                let response = Response::Error {
                    message: e.to_string(),
                };
                let _ = write_response(stream, &response);
            }
        }));
        if outcome.is_err() {
            let response = Response::Error {
                message: "internal server error (request handler panicked)".into(),
            };
            let _ = write_response(stream, &response);
        }
    }

    /// The request/response loop. Returns `Ok` on clean close (peer done, or
    /// post-shutdown), `Err` when the transport is no longer trustworthy.
    fn connection_loop<C: Conn>(&self, stream: &mut C) -> Result<()> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(self.request_deadline))?;
        // The connection's live-watch state, if a watch is open. Strictly
        // per-connection: it dies with the loop, and a second WatchStart replaces it.
        let mut watch: Option<WatchState> = None;
        loop {
            // Idle wait: poll (peek, no bytes consumed) for the next frame's first
            // byte, so a worker parked on an idle connection notices a shutdown and
            // releases itself instead of blocking the drain.
            stream.set_read_timeout(Some(IDLE_POLL))?;
            let mut probe = [0u8; 1];
            match stream.peek(&mut probe) {
                Ok(0) => return Ok(()), // peer closed between frames
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if self.stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ServerError::Io(e)),
            }
            // A frame is arriving: switch to the request deadline for its body.
            stream.set_read_timeout(Some(self.request_deadline))?;
            let payload = match read_frame(stream, self.max_frame) {
                Ok(Some(payload)) => payload,
                // Clean end of stream between frames: the peer is done.
                Ok(None) => return Ok(()),
                Err(e) => return Err(ServerError::Proto(e)),
            };
            // A decode failure is a *request* problem, not a transport one: answer it
            // and keep the connection.
            let response = match Request::decode(&payload) {
                Ok(request) => {
                    let is_shutdown = matches!(request, Request::Shutdown);
                    let kind = request_span_name(&request);
                    // Per-request span + phase scope: the handler's inner spans
                    // (repo I/O, pipeline phases) accumulate into this thread's
                    // scope, which the slow-request log drains into its breakdown.
                    rprism_obs::begin_phases();
                    let started = Instant::now();
                    let response = {
                        let _request = self.obs.span(kind);
                        self.handle(request, &mut watch)
                    };
                    let phases = rprism_obs::take_phases();
                    self.requests_served.inc();
                    if let Some(slow_ms) = self.slow_request_ms {
                        let elapsed = started.elapsed();
                        if elapsed.as_millis() as u64 >= slow_ms {
                            log_slow_request(kind, elapsed, &phases);
                        }
                    }
                    if is_shutdown {
                        write_response(stream, &response)?;
                        return Ok(());
                    }
                    response
                }
                Err(e) => Response::Error {
                    message: format!("malformed request: {e}"),
                },
            };
            write_response(stream, &response)?;
            if self.stop.load(Ordering::SeqCst) {
                // Drain semantics: the request that was in flight got its response;
                // new requests belong to a restarted server.
                return Ok(());
            }
        }
    }

    /// Executes one request. Every failure becomes a structured response frame:
    /// a quarantined blob answers [`Response::Corrupt`] (the hash-bearing variant
    /// clients heal by re-uploading), everything else [`Response::Error`].
    fn handle(&self, request: Request, watch: &mut Option<WatchState>) -> Response {
        match self.try_handle(request, watch) {
            Ok(response) => response,
            Err(e @ ServerError::CorruptTrace { hash }) => Response::Corrupt {
                hash,
                message: e.to_string(),
            },
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        }
    }

    fn try_handle(&self, request: Request, watch: &mut Option<WatchState>) -> Result<Response> {
        let engine = self.repo.engine();
        match request {
            Request::Put { bytes } => {
                let (hash, deduped, entries) = self.repo.put_bytes(&bytes)?;
                Ok(Response::PutOk {
                    hash,
                    deduped,
                    entries,
                })
            }
            Request::Get { hash } => Ok(Response::GetOk {
                bytes: self.repo.get_bytes(hash)?,
            }),
            Request::List => Ok(Response::ListOk {
                entries: self.repo.list(),
            }),
            Request::Diff {
                left,
                right,
                max_sequences,
                algorithm,
            } => {
                let left = self.repo.prepared(left)?;
                let right = self.repo.prepared(right)?;
                let result = match algorithm {
                    None => engine.diff(&left, &right)?,
                    Some(wire) => {
                        engine.diff_with_algorithm(&left, &right, &algorithm_for(wire))?
                    }
                };
                let rendered = engine.render_diff(&result, &left, &right, max_sequences as usize);
                Ok(Response::DiffOk(WireDiff::from_result(&result, rendered)))
            }
            Request::Analyze {
                old_regressing,
                new_regressing,
                old_passing,
                new_passing,
                mode,
                max_sequences,
                algorithm,
            } => {
                let mut input = RegressionInput::new(
                    self.repo.prepared(old_regressing)?,
                    self.repo.prepared(new_regressing)?,
                    self.repo.prepared(old_passing)?,
                    self.repo.prepared(new_passing)?,
                );
                if let Some(mode) = mode {
                    input = input.with_mode(mode);
                }
                let report = match algorithm {
                    None => engine.analyze(&input)?,
                    Some(wire) => engine.analyze_with_algorithm(&input, &algorithm_for(wire))?,
                };
                // Render under the caller's sequence bound (engine defaults for the
                // rest) so remote reports read exactly like local ones.
                let render = rprism_regress::RenderOptions {
                    max_regression_sequences: max_sequences as usize,
                    ..*engine.render_options()
                };
                let rendered = rprism_regress::render_report_with(
                    &report,
                    &render,
                    |idx| input.old_regressing.describe_entry(idx),
                    |idx| input.new_regressing.describe_entry(idx),
                );
                Ok(Response::AnalyzeOk(WireReport::from_report(
                    &report, rendered,
                )))
            }
            Request::Check { hash, overrides } => {
                let mut config = rprism::CheckConfig::default();
                for (rule, severity) in overrides {
                    config = config
                        .with_severity(&rule, severity)
                        .map_err(ServerError::Remote)?;
                }
                // Stream the stored blob straight through the checker's fold — same
                // code path and rule registry as a local `rprism check`, so the
                // structured report (and the client's rendering of it) is identical.
                let bytes = self.repo.get_bytes(hash)?;
                let report = engine.check_reader_with(&bytes[..], config)?;
                Ok(Response::CheckOk(Box::new(report)))
            }
            Request::WatchStart { old, max_sequences } => {
                // Replacing an unfinished watch is allowed — the old state just drops.
                *watch = Some(WatchState {
                    old: self.repo.prepared(old)?,
                    decoder: TailDecoder::new(),
                    watch: None,
                    max_sequences: max_sequences as usize,
                });
                Ok(Response::WatchStarted)
            }
            Request::PutStream { bytes, last } => {
                let mut state = watch.take().ok_or_else(|| {
                    ServerError::Remote(
                        "PutStream without an active watch (send WatchStart first)".into(),
                    )
                })?;
                // Errors (decode failures) leave the state dropped, so
                // later chunks fail structurally instead of feeding a dead session.
                let response = self.fold_chunk(&mut state, &bytes, last)?;
                if !last {
                    *watch = Some(state);
                }
                Ok(response)
            }
            Request::Stats => Ok(Response::StatsOk(WireStats {
                requests_served: self.requests_served.get(),
                ..self.repo.stats()
            })),
            Request::Metrics => {
                // Refresh the point-in-time gauges (repo.blobs, cache.weight_bytes,
                // …) so the scrape reflects the repository as of this request.
                let _ = self.repo.stats();
                Ok(Response::MetricsOk {
                    text: self.obs.snapshot().render_prometheus("rprism"),
                })
            }
            Request::ObsTrace => {
                let trace = self.obs.self_trace("rprism-server");
                let bytes = rprism_format::trace_to_bytes(&trace, rprism_format::Encoding::Binary)
                    .map_err(ServerError::Format)?;
                Ok(Response::ObsTraceOk { bytes })
            }
            Request::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                Ok(Response::ShutdownOk)
            }
        }
    }

    /// Folds one [`Request::PutStream`] chunk into the watch: decode what is now
    /// decodable, push it through the engine's incremental session, and answer with
    /// the chunk's provisional events — or, on the last chunk, drain the decoder
    /// under strict end-of-stream semantics, finish the session, and answer
    /// [`Response::WatchDone`] with the authoritative diff.
    fn fold_chunk(&self, state: &mut WatchState, bytes: &[u8], last: bool) -> Result<Response> {
        let engine = self.repo.engine();
        state
            .decoder
            .push_bytes(bytes)
            .map_err(ServerError::Format)?;
        let mut events: Vec<WireWatchEvent> = Vec::new();
        let mut batch = EntryBatch::new();
        loop {
            // The session exists only once the stream header has arrived and named
            // the trace; until then every chunk is Pending with no events.
            if state.watch.is_none() {
                match state.decoder.meta() {
                    Some(meta) => state.watch = Some(engine.watch(&state.old, meta.clone())),
                    None => break,
                }
            }
            match state
                .decoder
                .read_refs(&mut batch, rprism::BATCH_ENTRIES)
                .map_err(ServerError::Format)?
            {
                TailBatch::Entries(_) => {
                    let session = state.watch.as_mut().expect("session exists past header");
                    for event in session.push_batch(&batch) {
                        events.push(WireWatchEvent::from_event(&event));
                    }
                }
                TailBatch::Pending | TailBatch::End => break,
            }
        }
        if !last {
            return Ok(Response::WatchEvent { events });
        }
        // Final chunk: strict end-of-input drain (a binary stream cut mid-record is
        // truncation *now*; JSONL gets its final-line grace), then the authoritative
        // verdict, rendered exactly as a batch Diff of the same pair would be.
        batch.clear();
        state
            .decoder
            .finish_refs(&mut batch)
            .map_err(ServerError::Format)?;
        if state.watch.is_none() {
            let meta = state
                .decoder
                .meta()
                .expect("finish parsed the header or errored")
                .clone();
            state.watch = Some(engine.watch(&state.old, meta));
        }
        let mut session = state.watch.take().expect("session exists at finish");
        if !batch.is_empty() {
            for event in session.push_batch(&batch) {
                events.push(WireWatchEvent::from_event(&event));
            }
        }
        let outcome = session.finish()?;
        events.extend(outcome.events.iter().map(WireWatchEvent::from_event));
        let rendered = engine.render_diff(
            &outcome.result,
            &state.old,
            &outcome.new_trace,
            state.max_sequences,
        );
        Ok(Response::WatchDone {
            events,
            diff: WireDiff::from_result(&outcome.result, rendered),
        })
    }
}

/// The `request.*` span name of a request kind — the top level of the span
/// taxonomy (each handler's inner spans nest under it in the self-trace).
fn request_span_name(request: &Request) -> &'static str {
    match request {
        Request::Put { .. } => "request.put",
        Request::Get { .. } => "request.get",
        Request::List => "request.list",
        Request::Diff { .. } => "request.diff",
        Request::Analyze { .. } => "request.analyze",
        Request::Check { .. } => "request.check",
        Request::WatchStart { .. } => "request.watch_start",
        Request::PutStream { .. } => "request.put_stream",
        Request::Stats => "request.stats",
        Request::Shutdown => "request.shutdown",
        Request::Metrics => "request.metrics",
        Request::ObsTrace => "request.obs_trace",
    }
}

/// Formats one structured `slow-request` line: the request kind, its total handler
/// time, and every phase the handler recorded (`key=value` pairs, one line, grep-
/// and split-friendly). The request's own span is elided — it duplicates `total_us`.
fn slow_request_line(kind: &str, elapsed: Duration, phases: &[(&'static str, u64)]) -> String {
    let mut line = format!("slow-request kind={kind} total_us={}", elapsed.as_micros());
    for (name, us) in phases {
        if *name != kind {
            line.push_str(&format!(" {name}_us={us}"));
        }
    }
    line
}

fn log_slow_request(kind: &str, elapsed: Duration, phases: &[(&'static str, u64)]) {
    eprintln!("{}", slow_request_line(kind, elapsed, phases));
}

/// Frames and writes one response in a single `write_all` (the frame is built in
/// memory first, so a partial transport write can never emit a torn prefix that
/// looks like the start of a valid frame followed by silence).
fn write_response<C: Conn>(stream: &mut C, response: &Response) -> Result<()> {
    let mut frame = Vec::new();
    write_frame(&mut frame, &response.encode()).map_err(ServerError::Proto)?;
    stream.write_all(&frame)?;
    stream.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// An in-memory [`Conn`]: scripted input bytes on one side, captured output on
    /// the other. Timeouts are no-ops — exhausted input reads as peer-closed, so
    /// the request loop terminates instead of polling.
    struct MemConn {
        input: Vec<u8>,
        pos: usize,
        output: Vec<u8>,
    }

    impl MemConn {
        fn new(input: Vec<u8>) -> Self {
            MemConn {
                input,
                pos: 0,
                output: Vec::new(),
            }
        }

        /// The response frames the worker wrote, decoded in order.
        fn responses(&self) -> Vec<Response> {
            let mut cursor = &self.output[..];
            let mut out = Vec::new();
            while let Ok(Some(payload)) = read_frame(&mut cursor, u64::MAX) {
                out.push(Response::decode(&payload).expect("response decodes"));
            }
            out
        }
    }

    impl Read for MemConn {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.input.len() - self.pos);
            buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for MemConn {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Conn for MemConn {
        fn peek(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.input.len() - self.pos);
            buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
            Ok(n)
        }

        fn set_read_timeout(&mut self, _timeout: Option<Duration>) -> std::io::Result<()> {
            Ok(())
        }

        fn set_write_timeout(&mut self, _timeout: Option<Duration>) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn temp_repo(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rprism-worker-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn worker(dir: &PathBuf) -> Worker {
        worker_with(dir, Engine::new(), Obs::enabled())
    }

    fn worker_with(dir: &PathBuf, engine: Engine, obs: Obs) -> Worker {
        let options = RepoOptions {
            obs: obs.clone(),
            ..RepoOptions::default()
        };
        Worker {
            repo: Arc::new(TraceRepo::open_with(dir, engine, options).unwrap()),
            stop: Arc::new(AtomicBool::new(false)),
            requests_served: obs.counter("server.requests_total"),
            obs,
            slow_request_ms: None,
            max_frame: rprism_format::frame::DEFAULT_MAX_PAYLOAD,
            request_deadline: FRAME_READ_TIMEOUT,
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn malformed_requests_are_answered_and_the_connection_survives() {
        let dir = temp_repo("malformed");
        let worker = worker(&dir);
        // An undecodable request followed by a valid one on the same connection.
        let mut input = framed(b"this is not a request");
        input.extend(framed(&Request::List.encode()));
        let mut conn = MemConn::new(input);
        worker.serve_connection(&mut conn);
        let responses = conn.responses();
        assert_eq!(responses.len(), 2, "both frames answered: {responses:?}");
        assert!(matches!(&responses[0], Response::Error { .. }));
        assert!(matches!(&responses[1], Response::ListOk { entries } if entries.is_empty()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_request_frame_is_a_contained_transport_error() {
        let dir = temp_repo("torn-frame");
        let worker = worker(&dir);
        // A connection cut mid-frame: valid length prefix, half the payload.
        let mut torn = framed(&Request::List.encode());
        torn.truncate(torn.len() - 3);
        let mut conn = MemConn::new(torn);
        worker.serve_connection(&mut conn);
        let responses = conn.responses();
        assert_eq!(responses.len(), 1);
        assert!(
            matches!(&responses[0], Response::Error { message } if message.contains("truncated")),
            "got {responses:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two source programs whose traces share a long common prefix (an "ordinary
    /// evolution"): the incremental scan emits provisional matches well before the
    /// upload ends.
    fn evolution_pair(engine: &Engine) -> (PreparedTrace, PreparedTrace) {
        let old_src = "class C extends Object { Int x; Unit set(Int v) { this.x = v; } }
             main { let c = new C(0); c.set(1); c.set(2); c.set(3); c.set(4); }";
        let new_src = "class C extends Object { Int x; Unit set(Int v) { this.x = v; } }
             main { let c = new C(0); c.set(1); c.set(2); c.set(3); c.set(99); }";
        (
            engine.trace_source(old_src, "old").unwrap(),
            engine.trace_source(new_src, "new").unwrap(),
        )
    }

    #[test]
    fn chunked_watch_answers_the_exact_batch_diff() {
        let dir = temp_repo("watch-equiv");
        let worker = worker(&dir);
        let engine = worker.repo.engine();
        let (old, new) = evolution_pair(engine);
        let old_bytes =
            rprism_format::trace_to_bytes(old.trace(), rprism_format::Encoding::Binary).unwrap();
        let new_bytes =
            rprism_format::trace_to_bytes(new.trace(), rprism_format::Encoding::Binary).unwrap();
        let (old_hash, _, _) = worker.repo.put_bytes(&old_bytes).unwrap();
        let (new_hash, _, _) = worker.repo.put_bytes(&new_bytes).unwrap();

        // One connection: start a watch, stream the new trace in 64-byte chunks
        // (cut mid-record, mid-varint, wherever the boundary lands), then ask for
        // the batch diff of the same stored pair.
        let mut input = framed(
            &Request::WatchStart {
                old: old_hash,
                max_sequences: 8,
            }
            .encode(),
        );
        let chunks: Vec<&[u8]> = new_bytes.chunks(64).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            input.extend(framed(
                &Request::PutStream {
                    bytes: chunk.to_vec(),
                    last: i == chunks.len() - 1,
                }
                .encode(),
            ));
        }
        input.extend(framed(
            &Request::Diff {
                left: old_hash,
                right: new_hash,
                max_sequences: 8,
                algorithm: None,
            }
            .encode(),
        ));
        let mut conn = MemConn::new(input);
        worker.serve_connection(&mut conn);

        let responses = conn.responses();
        assert_eq!(responses.len(), chunks.len() + 2, "got {responses:?}");
        assert!(matches!(&responses[0], Response::WatchStarted));
        let mut provisional = 0usize;
        for response in &responses[1..chunks.len()] {
            match response {
                Response::WatchEvent { events } => provisional += events.len(),
                other => panic!("expected WatchEvent, got {other:?}"),
            }
        }
        assert!(
            provisional > 0,
            "an ordinary evolution must produce provisional events before the upload ends"
        );
        let (done_events, watch_diff) = match &responses[chunks.len()] {
            Response::WatchDone { events, diff } => (events, diff),
            other => panic!("expected WatchDone, got {other:?}"),
        };
        assert!(done_events
            .iter()
            .all(|e| !matches!(e, WireWatchEvent::Difference { .. })));
        let batch_diff = match &responses[chunks.len() + 1] {
            Response::DiffOk(diff) => diff,
            other => panic!("expected DiffOk, got {other:?}"),
        };
        // The watch's final answer is the batch answer — matching, sequences,
        // compare count, and the rendered report, byte for byte.
        assert_eq!(watch_diff, batch_diff);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_stream_without_watch_start_is_refused_and_the_connection_survives() {
        let dir = temp_repo("watch-orphan-chunk");
        let worker = worker(&dir);
        let mut input = framed(
            &Request::PutStream {
                bytes: vec![1, 2, 3],
                last: false,
            }
            .encode(),
        );
        input.extend(framed(&Request::List.encode()));
        let mut conn = MemConn::new(input);
        worker.serve_connection(&mut conn);
        let responses = conn.responses();
        assert_eq!(responses.len(), 2, "got {responses:?}");
        assert!(
            matches!(&responses[0], Response::Error { message }
                if message.contains("without an active watch")),
            "got {responses:?}"
        );
        assert!(matches!(&responses[1], Response::ListOk { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_and_obs_trace_answer_over_the_wire() {
        let dir = temp_repo("obs-wire");
        let obs = Obs::enabled();
        let worker = worker_with(&dir, Engine::new(), obs.clone());
        let (old, _) = evolution_pair(worker.repo.engine());
        let bytes =
            rprism_format::trace_to_bytes(old.trace(), rprism_format::Encoding::Binary).unwrap();
        let (hash, _, _) = worker.repo.put_bytes(&bytes).unwrap();

        // One connection: a get (generating repo spans), a metrics scrape, then the
        // self-trace fetch.
        let mut input = framed(&Request::Get { hash }.encode());
        input.extend(framed(&Request::Metrics.encode()));
        input.extend(framed(&Request::ObsTrace.encode()));
        let mut conn = MemConn::new(input);
        worker.serve_connection(&mut conn);
        let responses = conn.responses();
        assert_eq!(responses.len(), 3, "got {responses:?}");
        assert!(matches!(&responses[0], Response::GetOk { .. }));
        let text = match &responses[1] {
            Response::MetricsOk { text } => text,
            other => panic!("expected MetricsOk, got {other:?}"),
        };
        // Counters, gauges and span histograms all reach the exposition; the gauge
        // refresh ran as part of the scrape.
        assert!(text.contains("rprism_repo_blobs 1"), "{text}");
        assert!(text.contains("rprism_request_get_count 1"), "{text}");
        assert!(
            text.contains("# TYPE rprism_server_requests_total counter"),
            "{text}"
        );
        let trace_bytes = match &responses[2] {
            Response::ObsTraceOk { bytes } => bytes,
            other => panic!("expected ObsTraceOk, got {other:?}"),
        };
        // The self-trace is a loadable, lint-clean rprism trace.
        worker
            .repo
            .engine()
            .load_prepared_reader(&trace_bytes[..])
            .expect("self-trace loads like any stored trace");
        let trace = rprism_format::trace_from_bytes(trace_bytes).unwrap();
        assert_eq!(trace.meta.name, "rprism-server");
        let report = rprism_check::check_trace(&trace);
        assert!(
            report.is_clean(),
            "self-trace must be lint-clean: {report:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slow_request_breakdown_names_the_phases() {
        let line = slow_request_line(
            "request.get",
            Duration::from_micros(1500),
            &[("repo.get", 1200), ("request.get", 1500)],
        );
        // The request's own span is elided (it duplicates total_us); inner phases
        // appear as key=value pairs.
        assert_eq!(
            line,
            "slow-request kind=request.get total_us=1500 repo.get_us=1200"
        );
    }

    #[test]
    fn corrupted_frame_bytes_are_caught_by_the_checksum() {
        let dir = temp_repo("flipped");
        let worker = worker(&dir);
        let mut input = framed(&Request::List.encode());
        let mid = input.len() / 2;
        input[mid] ^= 0x40;
        let mut conn = MemConn::new(input);
        worker.serve_connection(&mut conn);
        let responses = conn.responses();
        assert_eq!(responses.len(), 1);
        assert!(
            matches!(&responses[0], Response::Error { .. }),
            "got {responses:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
