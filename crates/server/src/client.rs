//! The blocking client of the trace-repository daemon.
//!
//! One [`Client`] is one TCP connection running the strict request/response
//! alternation of [`proto`](crate::proto). Every operation is a method returning a
//! typed result; server-side failures arrive as [`ServerError::Remote`] with the
//! server's message. Connect, read and write are all bounded by the timeout given to
//! [`Client::connect`] — a dead or unroutable address yields an `Err`, never a hang.
//!
//! ## Retries
//!
//! A client carries a [`RetryPolicy`]. [`Client::connect`] disables it (one attempt,
//! errors surface immediately — the historical behavior);
//! [`Client::connect_with_retry`] enables capped exponential backoff with
//! decorrelated jitter. Retrying is **idempotency-gated**: every request except
//! `Shutdown` is safe to repeat (puts are content-addressed — re-uploading converges
//! on the same hash with nothing written twice; diffs and analyses are pure reads),
//! so a transport failure mid-exchange reconnects and replays. A server
//! [`Response::Busy`] shed is retried for any request, honoring the server's
//! `retry_after_ms` hint as the backoff floor. A complete response frame that does
//! not decode — a foreign protocol version, an unknown tag, a malformed field — is
//! final: the peer would answer a replay the same way.
//!
//! Retries, Busy backoffs and deadline expiries used to be invisible — a client
//! could be limping through three attempts per call and nothing showed it. They now
//! count into the process-global observer ([`rprism_obs::global`]) as
//! `client.retries`, `client.busy_backoffs` and `client.deadline_hits`, which
//! `rprism remote metrics` prints alongside the server's scrape.

use std::io::BufWriter;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::time::Duration;

use rprism::{AnalysisMode, CheckReport, Severity};
use rprism_format::frame::{read_frame, write_frame, DEFAULT_MAX_PAYLOAD};

use crate::proto::{
    RepoEntry, Request, Response, WireAlgorithm, WireDiff, WireReport, WireStats, WireWatchEvent,
};
use crate::{Result, ServerError};

/// The outcome of a [`Client::put_bytes`]/[`Client::put_path`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PutOutcome {
    /// The trace's content hash — the key for every later request.
    pub hash: u64,
    /// `true` when the server already held this content.
    pub deduped: bool,
    /// Number of entries in the uploaded trace.
    pub entries: u64,
}

/// How a [`Client`] retries failed exchanges: up to `max_attempts` tries, sleeping
/// a capped, decorrelated-jitter backoff between them (`sleep = min(cap,
/// uniform(base, 3 × previous))`, the AWS "decorrelated jitter" recipe — it spreads
/// a thundering herd of retriers without the lockstep of pure exponential doubling).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (1 = no retry).
    pub max_attempts: u32,
    /// The minimum backoff between attempts.
    pub base: Duration,
    /// The maximum backoff between attempts (a server Busy hint may exceed it).
    pub cap: Duration,
    /// Seed of the jitter sequence; fixed so a given client's schedule is
    /// reproducible in tests. Vary it per client if many start simultaneously.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Four attempts, 25 ms base, 1 s cap.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            seed: 0x243f_6a88_85a3_08d3,
        }
    }
}

impl RetryPolicy {
    /// The no-retry policy: one attempt, failures surface immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// This policy with a different jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A blocking connection to an `rprism-server` daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// The address given to connect, kept for retry-driven reconnects.
    addr: String,
    timeout: Duration,
    max_frame: u64,
    retry: RetryPolicy,
    /// Jitter state (xorshift64*), seeded from the policy.
    rng: u64,
    /// Set after any transport failure (timeout, I/O error, bad frame). The protocol
    /// is a strict request/response alternation, so once an exchange is cut short the
    /// stream may hold a stale late response — every further call on this connection
    /// is refused instead of risking an off-by-one answer. Reconnect to recover
    /// (retrying clients do so automatically).
    poisoned: bool,
}

impl Client {
    /// Connects with a bound: the TCP connect attempts share one `timeout`-sized
    /// deadline across every resolved candidate address, and every later read/write
    /// respects `timeout` — a dead or unroutable address returns [`ServerError::Io`]
    /// instead of hanging. (Name resolution itself goes through the OS resolver,
    /// whose own timeout the std library cannot bound; numeric addresses resolve
    /// instantly.)
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Io`] when the address does not resolve, refuses, or
    /// times out.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Client> {
        Self::connect_with_retry(addr, timeout, RetryPolicy::none())
    }

    /// [`Client::connect`] with a [`RetryPolicy`]: the connect itself retries on
    /// refusal (a restarting server comes back), and every later operation retries
    /// idempotent requests across transport failures and server Busy sheds,
    /// reconnecting as needed (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Io`] when the address does not resolve, or still
    /// refuses or times out after the policy's attempts.
    pub fn connect_with_retry(addr: &str, timeout: Duration, retry: RetryPolicy) -> Result<Client> {
        let mut rng = seed_rng(retry.seed);
        let mut previous = retry.base;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match Self::connect_stream(addr, timeout) {
                Ok(stream) => {
                    return Ok(Client {
                        stream,
                        addr: addr.to_owned(),
                        timeout,
                        max_frame: DEFAULT_MAX_PAYLOAD,
                        retry,
                        rng,
                        poisoned: false,
                    })
                }
                Err(e) if attempt < retry.max_attempts => {
                    rprism_obs::global().counter("client.retries").inc();
                    previous = backoff(&retry, &mut rng, previous, None);
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One bounded TCP dial across every resolved candidate address.
    fn connect_stream(addr: &str, timeout: Duration) -> Result<TcpStream> {
        let deadline = std::time::Instant::now() + timeout;
        let mut last_error: Option<std::io::Error> = None;
        for candidate in addr.to_socket_addrs()? {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                break;
            }
            match TcpStream::connect_timeout(&candidate, remaining) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    return Ok(stream);
                }
                Err(e) => last_error = Some(e),
            }
        }
        Err(ServerError::Io(last_error.unwrap_or_else(|| {
            std::io::Error::other(format!(
                "address {addr:?} did not resolve (or the connect deadline passed)"
            ))
        })))
    }

    /// Raises (or lowers) the largest response frame this client accepts, for talking
    /// to servers configured with a non-default
    /// [`ServerConfig::max_frame`](crate::ServerConfig). Defaults to
    /// [`DEFAULT_MAX_PAYLOAD`] (64 MiB).
    pub fn set_max_frame(&mut self, max_frame: u64) {
        self.max_frame = max_frame;
    }

    /// One operation under the retry policy: reconnect when poisoned, exchange,
    /// and — for a torn exchange of a retryable request, or a Busy shed — back off
    /// and try again. A completed exchange is never retried otherwise, whether it
    /// reports a server-side failure ([`ServerError::Remote`],
    /// [`ServerError::CorruptTrace`]) or fails to decode ([`ServerError::Proto`]):
    /// the answer is deterministic until someone changes the repository or the peer.
    fn call(&mut self, request: &Request) -> Result<Response> {
        let mut previous = self.retry.base;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if self.poisoned && self.retry.max_attempts > 1 {
                match Self::connect_stream(&self.addr, self.timeout) {
                    Ok(stream) => {
                        self.stream = stream;
                        self.poisoned = false;
                    }
                    Err(e) => {
                        if attempt >= self.retry.max_attempts || !retryable(request) {
                            return Err(e);
                        }
                        rprism_obs::global().counter("client.retries").inc();
                        previous = backoff(&self.retry, &mut self.rng, previous, None);
                        continue;
                    }
                }
            }
            let (e, hint) = match self.call_once(request) {
                Ok(Ok(response)) => return Ok(response),
                // A shed: any request is safe to retry — the server read nothing.
                // Honor its backoff hint as the floor.
                Ok(Err(ServerError::Busy { retry_after_ms })) => {
                    rprism_obs::global().counter("client.busy_backoffs").inc();
                    let hint = Duration::from_millis(u64::from(retry_after_ms));
                    (ServerError::Busy { retry_after_ms }, Some(hint))
                }
                Ok(Err(e)) => return Err(e),
                // A torn exchange: only idempotent requests replay.
                Err(e) => {
                    if deadline_expired(&e) {
                        rprism_obs::global().counter("client.deadline_hits").inc();
                    }
                    if !retryable(request) {
                        return Err(e);
                    }
                    (e, None)
                }
            };
            if attempt >= self.retry.max_attempts {
                return Err(e);
            }
            rprism_obs::global().counter("client.retries").inc();
            previous = backoff(&self.retry, &mut self.rng, previous, hint);
        }
    }

    /// One request/response exchange. The outer `Err` is a torn exchange — an I/O
    /// failure, an early EOF, or a truncated or damaged frame — and poisons the
    /// connection (see the `poisoned` field). The inner result is the complete
    /// answer: a response, a server-reported failure (a [`Response::Error`] does not
    /// poison — the protocol is intact), or a frame that does not decode.
    fn call_once(&mut self, request: &Request) -> Result<Result<Response>> {
        if self.poisoned {
            return Err(ServerError::Io(std::io::Error::other(
                "connection poisoned by an earlier transport error; reconnect",
            )));
        }
        let encoded = request.encode();
        // Pre-flight the frame bound: the server rejects an oversized declared length
        // before reading the payload and closes, which would surface here as an
        // opaque broken pipe mid-write. Refuse locally with the real reason instead.
        if encoded.len() as u64 > self.max_frame {
            return Ok(Err(ServerError::Remote(format!(
                "request of {} bytes exceeds the {}-byte frame limit (raise it on both \
                 sides: Client::set_max_frame / ServerConfig::max_frame, or \
                 --max-frame-bytes on the command line)",
                encoded.len(),
                self.max_frame
            ))));
        }
        let exchange = (|| {
            let mut out = BufWriter::new(&self.stream);
            write_frame(&mut out, &encoded).map_err(proto_error)?;
            drop(out);
            let mut input = &self.stream;
            read_frame(&mut input, self.max_frame)
                .map_err(proto_error)?
                .ok_or_else(|| {
                    ServerError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection before responding",
                    ))
                })
        })();
        let decoded = exchange.map(|payload| Response::decode(&payload));
        self.poisoned = !matches!(decoded, Ok(Ok(_)));
        let response = match decoded? {
            Ok(response) => response,
            Err(e) => return Ok(Err(ServerError::Proto(e))),
        };
        Ok(match response {
            Response::Error { message } => Err(ServerError::Remote(message)),
            // The server closes a shed connection after the Busy frame; mark the
            // stream dead so a retry dials fresh.
            Response::Busy { retry_after_ms } => {
                self.poisoned = true;
                Err(ServerError::Busy { retry_after_ms })
            }
            Response::Corrupt { hash, .. } => Err(ServerError::CorruptTrace { hash }),
            other => Ok(other),
        })
    }

    /// Uploads a serialized trace (either encoding), returning its content hash and
    /// whether the server already held it.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Remote`] when the server rejects the upload (corrupt
    /// bytes, frame too large) and transport errors as [`ServerError::Io`]/
    /// [`ServerError::Proto`].
    pub fn put_bytes(&mut self, bytes: Vec<u8>) -> Result<PutOutcome> {
        match self.call(&Request::Put { bytes })? {
            Response::PutOk {
                hash,
                deduped,
                entries,
            } => Ok(PutOutcome {
                hash,
                deduped,
                entries,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Uploads a trace file.
    ///
    /// # Errors
    ///
    /// Like [`Client::put_bytes`], plus [`ServerError::Io`] when the file cannot be
    /// read.
    pub fn put_path(&mut self, path: impl AsRef<Path>) -> Result<PutOutcome> {
        self.put_bytes(std::fs::read(path.as_ref())?)
    }

    /// Downloads the stored blob of a content hash.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Remote`] for unknown hashes.
    pub fn get(&mut self, hash: u64) -> Result<Vec<u8>> {
        match self.call(&Request::Get { hash })? {
            Response::GetOk { bytes } => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }

    /// Lists the repository.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn list(&mut self) -> Result<Vec<RepoEntry>> {
        match self.call(&Request::List)? {
            Response::ListOk { entries } => Ok(entries),
            other => Err(unexpected(other)),
        }
    }

    /// Semantically differences two stored traces on the server.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Remote`] for unknown hashes or a failed diff.
    pub fn diff(&mut self, left: u64, right: u64, max_sequences: u64) -> Result<WireDiff> {
        self.diff_with_algorithm(left, right, max_sequences, None)
    }

    /// [`Client::diff`] with an explicit differencing-algorithm override; `None`
    /// uses the server engine's default and leaves the override byte off the frame.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Remote`] for unknown hashes or a failed diff, and
    /// [`ServerError::Proto`] (`UnsupportedVersion`) when the server answers in a
    /// protocol version other than [`PROTO_VERSION`](crate::proto::PROTO_VERSION).
    pub fn diff_with_algorithm(
        &mut self,
        left: u64,
        right: u64,
        max_sequences: u64,
        algorithm: Option<WireAlgorithm>,
    ) -> Result<WireDiff> {
        match self.call(&Request::Diff {
            left,
            right,
            max_sequences,
            algorithm,
        })? {
            Response::DiffOk(diff) => Ok(diff),
            other => Err(unexpected(other)),
        }
    }

    /// Runs the regression-cause analysis over four stored traces on the server
    /// (`hashes` in the order old-regressing, new-regressing, old-passing,
    /// new-passing). `max_sequences` bounds how many regression-related sequences the
    /// server renders into the textual report.
    ///
    /// The report's signatures hold [`Symbol`](rprism_trace::Symbol)s of this process:
    /// every distinct name a server sends is interned and kept for the life of the
    /// process, so a client that talks to many servers, or to an untrusted one, grows
    /// by every name it receives.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Remote`] for unknown hashes or a failed analysis.
    pub fn analyze(
        &mut self,
        hashes: [u64; 4],
        mode: Option<AnalysisMode>,
        max_sequences: u64,
    ) -> Result<WireReport> {
        self.analyze_with_algorithm(hashes, mode, max_sequences, None)
    }

    /// [`Client::analyze`] with an explicit differencing-algorithm override;
    /// `None` uses the server engine's default (see
    /// [`Client::diff_with_algorithm`] for the compatibility contract).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Remote`] for unknown hashes or a failed analysis.
    pub fn analyze_with_algorithm(
        &mut self,
        hashes: [u64; 4],
        mode: Option<AnalysisMode>,
        max_sequences: u64,
        algorithm: Option<WireAlgorithm>,
    ) -> Result<WireReport> {
        match self.call(&Request::Analyze {
            old_regressing: hashes[0],
            new_regressing: hashes[1],
            old_passing: hashes[2],
            new_passing: hashes[3],
            mode,
            max_sequences,
            algorithm,
        })? {
            Response::AnalyzeOk(report) => Ok(report),
            other => Err(unexpected(other)),
        }
    }

    /// Runs the `rprism-check` static analysis over a stored trace on the server,
    /// with per-rule severity `overrides` applied over the rule defaults. Returns the full structured report; rendering it locally
    /// produces byte-identical output to a local `rprism check` of the same blob.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Remote`] for unknown hashes and unknown rule ids, and
    /// [`ServerError::Proto`] (`UnsupportedVersion`) when the server answers in
    /// another protocol version.
    pub fn check(&mut self, hash: u64, overrides: &[(String, Severity)]) -> Result<CheckReport> {
        match self.call(&Request::Check {
            hash,
            overrides: overrides.to_vec(),
        })? {
            Response::CheckOk(report) => Ok(*report),
            other => Err(unexpected(other)),
        }
    }

    /// Opens a live watch against the stored trace `old`: the connection enters
    /// watch mode, and [`Client::watch_chunk`] / [`Client::watch_finish`] stream the
    /// new trace's serialized bytes up as they are produced. `max_sequences` bounds the final report's rendering, exactly as
    /// in [`Client::diff`].
    ///
    /// Watch requests are **stateful** and therefore never retried: a torn exchange
    /// mid-watch surfaces as an error, and the caller restarts the watch from the
    /// beginning (the server discards the half-fed session with the connection).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Remote`] for unknown hashes, and
    /// [`ServerError::Proto`] (`UnsupportedVersion`) when the server answers in
    /// another protocol version.
    pub fn watch_start(&mut self, old: u64, max_sequences: u64) -> Result<()> {
        match self.call(&Request::WatchStart { old, max_sequences })? {
            Response::WatchStarted => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Sends one chunk of the watched trace's serialized bytes — cut anywhere, even
    /// mid-record — and returns the provisional events the server's incremental
    /// diff produced from it (often empty: the chunk may not have completed a
    /// record, or completed only entries that match so far).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Remote`] when no watch is active, and transport errors
    /// as [`ServerError::Io`].
    pub fn watch_chunk(&mut self, bytes: Vec<u8>) -> Result<Vec<WireWatchEvent>> {
        match self.call(&Request::PutStream { bytes, last: false })? {
            Response::WatchEvent { events } => Ok(events),
            other => Err(unexpected(other)),
        }
    }

    /// Sends the final chunk (may be empty) and closes the watch: the server drains
    /// its decoder under strict end-of-stream semantics, finishes the incremental
    /// session, and answers with the reconciliation events plus the authoritative
    /// diff — byte-identical to a [`Client::diff`] of the same pair.
    ///
    /// # Errors
    ///
    /// As [`Client::watch_chunk`], plus [`ServerError::Remote`] when the streamed
    /// bytes end mid-record in the binary encoding (truncation is only decidable
    /// here).
    pub fn watch_finish(&mut self, bytes: Vec<u8>) -> Result<(Vec<WireWatchEvent>, WireDiff)> {
        match self.call(&Request::PutStream { bytes, last: true })? {
            Response::WatchDone { events, diff } => Ok((events, diff)),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server's statistics snapshot.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn stats(&mut self) -> Result<WireStats> {
        match self.call(&Request::Stats)? {
            Response::StatsOk(stats) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server's metrics rendered in the Prometheus text exposition
    /// format: every counter, gauge and span-latency summary the daemon registered,
    /// sorted by name.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Proto`] (`UnsupportedVersion`) when the server answers
    /// in another protocol version, and transport errors as [`ServerError::Io`].
    pub fn metrics(&mut self) -> Result<String> {
        match self.call(&Request::Metrics)? {
            Response::MetricsOk { text } => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server's **self-trace**: its recent execution — request spans,
    /// repository I/O, pipeline phases — replayed onto the trace model and
    /// serialized as canonical binary `.rtr` bytes, loadable and checkable like any
    /// stored trace.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Proto`] (`UnsupportedVersion`) when the server answers
    /// in another protocol version, and transport errors as [`ServerError::Io`].
    pub fn obs_trace(&mut self) -> Result<Vec<u8>> {
        match self.call(&Request::ObsTrace)? {
            Response::ObsTraceOk { bytes } => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to shut down gracefully (in-flight requests drain first).
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

/// Whether a request is safe to replay after a torn exchange. Everything except
/// `Shutdown` and the watch requests: puts are content-addressed (a replay
/// converges on the same hash without writing twice) and every other request is a
/// pure read. A lost shutdown acknowledgement is *not* replayed — the first
/// attempt may well have stopped the server, and "connection refused" would mask
/// that success. Watch requests are stateful (the server accumulates a
/// per-connection session), so replaying one after a reconnect would feed a fresh
/// connection that has no session — the caller restarts the watch instead.
fn retryable(request: &Request) -> bool {
    !matches!(
        request,
        Request::Shutdown | Request::WatchStart { .. } | Request::PutStream { .. }
    )
}

/// Seeds the xorshift64* jitter state (zero is a fixed point; displace it).
fn seed_rng(seed: u64) -> u64 {
    if seed == 0 {
        0x9e37_79b9_7f4a_7c15
    } else {
        seed
    }
}

fn next_rand(rng: &mut u64) -> u64 {
    let mut x = *rng;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *rng = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Sleeps one decorrelated-jitter step and returns it: uniform in
/// `[base, max(base, min(cap, 3 × previous))]`, floored by a server-provided
/// `hint` (a Busy `retry_after_ms` may exceed the cap — the server knows best).
fn backoff(
    policy: &RetryPolicy,
    rng: &mut u64,
    previous: Duration,
    hint: Option<Duration>,
) -> Duration {
    let base = policy.base.max(Duration::from_millis(1));
    let upper = previous.saturating_mul(3).min(policy.cap).max(base);
    let span = upper.saturating_sub(base).as_nanos() as u64;
    let jitter = base + Duration::from_nanos(if span == 0 { 0 } else { next_rand(rng) % span });
    let sleep = jitter.max(hint.unwrap_or(Duration::ZERO));
    std::thread::sleep(sleep);
    sleep
}

/// Whether an error is the client-side deadline expiring (the read/write timeout
/// given to [`Client::connect`]), as opposed to any other transport failure.
fn deadline_expired(e: &ServerError) -> bool {
    matches!(e, ServerError::Io(io) if matches!(
        io.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    ))
}

fn unexpected(response: Response) -> ServerError {
    ServerError::Remote(format!("unexpected response {response:?}"))
}

/// Frame-level failures on the client side are transport problems; keep the io kind
/// when there is one so timeouts stay recognizable.
fn proto_error(e: rprism_format::FormatError) -> ServerError {
    match e {
        rprism_format::FormatError::Io(io) => ServerError::Io(io),
        other => ServerError::Proto(other),
    }
}
