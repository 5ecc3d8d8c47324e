//! The framed wire protocol of the trace-repository daemon.
//!
//! Every message travels as one frame ([`rprism_format::frame`]): a canonical LEB128
//! length prefix, the payload, and the FNV-64 checksum of the payload — the varint and
//! checksum machinery of the on-disk trace format, reused on the wire. Inside a frame,
//! the payload opens with the protocol version byte and a message tag, followed by the
//! message fields in the same primitive vocabulary the binary trace encoding uses
//! (varints, length-prefixed UTF-8 strings, length-prefixed byte blobs).
//!
//! The protocol is a strict request/response alternation per connection: the client
//! writes one request frame, the server answers with exactly one response frame, and
//! either side may close between exchanges. Malformed input never kills the server —
//! an undecodable frame or message is answered with [`Response::Error`] (and the
//! connection closed when the stream itself can no longer be trusted, e.g. after a
//! checksum mismatch).
//!
//! Results cross the wire in **canonical, process-independent form**: matchings as
//! normalized index pairs, difference sequences as index lists, and [`DiffSignature`]s
//! in their canonical set order, each interned symbol spelled out as its string. The
//! encoder reads the strings straight from the symbols; the decoder interns them into
//! the receiving process and obtains signatures equal to what a local analysis of the
//! same traces would produce. Only clients decode responses, so the daemon never
//! interns a response string. The `remote_equivalence` integration suite pins exactly
//! that.
//!
//! A result type that exists locally is also its wire type: [`WireDiff`] and
//! [`WireReport`] hold [`DiffSequence`]s and [`DiffSignature`]s themselves, and
//! [`WireStats`] is what the repository's `stats` returns. Sequence indices encode as
//! varints; decoding one that does not fit `usize` is an error, and every list is
//! reserved no larger than the bytes left can hold. [`WireWatchEvent`] is the one
//! mirror type left, a `u64`-indexed copy of [`ProvisionalEvent`].

use rprism::check::{rules, Diagnostic};
use rprism::{
    AnalysisMode, CheckReport, ProvisionalEvent, RegressionReport, Severity, TraceDiffResult,
};
use rprism_diff::DiffSequence;
use rprism_format::error::{FormatError, Result as FormatResult};
use rprism_format::varint::{self, ByteSource as _};
use rprism_regress::DiffSignature;
use rprism_trace::{intern, EventKind, Symbol, ValueFingerprint};

/// The wire form of a difference signature is the signature itself; the name stays
/// for callers that spell the wire types.
pub use rprism_regress::DiffSignature as WireSignature;

/// The wire-protocol version; bumped on any message change. Every payload starts
/// with this byte. Client and server ship in one binary, so encoders stamp it and
/// decoders accept it alone: a frame with any other version byte is refused with
/// [`FormatError::UnsupportedVersion`], which the server answers with an error frame
/// while keeping the connection open.
pub const PROTO_VERSION: u8 = 5;

const TAG_PUT: u8 = 0x01;
const TAG_GET: u8 = 0x02;
const TAG_LIST: u8 = 0x03;
const TAG_DIFF: u8 = 0x04;
const TAG_ANALYZE: u8 = 0x05;
const TAG_STATS: u8 = 0x06;
const TAG_SHUTDOWN: u8 = 0x07;
const TAG_CHECK: u8 = 0x08;
const TAG_WATCH_START: u8 = 0x09;
const TAG_PUT_STREAM: u8 = 0x0a;
const TAG_METRICS: u8 = 0x0b;
const TAG_OBS_TRACE: u8 = 0x0c;

const TAG_PUT_OK: u8 = 0x81;
const TAG_GET_OK: u8 = 0x82;
const TAG_LIST_OK: u8 = 0x83;
const TAG_DIFF_OK: u8 = 0x84;
const TAG_ANALYZE_OK: u8 = 0x85;
const TAG_STATS_OK: u8 = 0x86;
const TAG_SHUTDOWN_OK: u8 = 0x87;
const TAG_CHECK_OK: u8 = 0x88;
const TAG_WATCH_STARTED: u8 = 0x89;
const TAG_WATCH_EVENT: u8 = 0x8a;
const TAG_WATCH_DONE: u8 = 0x8b;
const TAG_CHECK_DENIED: u8 = 0x8c;
const TAG_METRICS_OK: u8 = 0x8d;
const TAG_OBS_TRACE_OK: u8 = 0x8e;
const TAG_BUSY: u8 = 0xfd;
const TAG_CORRUPT: u8 = 0xfe;
const TAG_ERROR: u8 = 0xff;

/// The differencing algorithm a [`Request::Diff`] / [`Request::Analyze`] asks the
/// server to use. The server applies its configured options for the chosen family;
/// only the algorithm itself travels on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireAlgorithm {
    /// Views-based differencing (§3.3) — the server default.
    Views,
    /// The quadratic LCS baseline (§3.2).
    Lcs,
    /// Anchor-based (patience/histogram) differencing: near-linear on huge traces,
    /// verdict-equivalent to the exact modes but matchings may legitimately differ.
    Anchored,
}

/// One client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Store a serialized trace (either encoding); the server replies with its
    /// content hash and whether it was already present.
    Put {
        /// The serialized trace bytes, exactly as they would sit in a file.
        bytes: Vec<u8>,
    },
    /// Fetch the stored blob of a content hash.
    Get {
        /// The content hash ([`rprism_format::content_hash`]) of the trace.
        hash: u64,
    },
    /// List the repository's traces.
    List,
    /// Semantically difference two stored traces.
    Diff {
        /// Content hash of the left (old) trace.
        left: u64,
        /// Content hash of the right (new) trace.
        right: u64,
        /// How many difference sequences the server renders into the textual report.
        max_sequences: u64,
        /// Differencing-algorithm override (`None` uses the server engine's default).
        ///
        /// Encoded as an *optional trailing byte*: a request without an override ends
        /// after `max_sequences`. The frame carries [`PROTO_VERSION`] either way; a
        /// peer of another version is refused with
        /// [`FormatError::UnsupportedVersion`].
        algorithm: Option<WireAlgorithm>,
    },
    /// Run the §4.1 regression-cause analysis over four stored traces.
    Analyze {
        /// Content hash of the old-version, regressing-test trace.
        old_regressing: u64,
        /// Content hash of the new-version, regressing-test trace.
        new_regressing: u64,
        /// Content hash of the old-version, passing-test trace.
        old_passing: u64,
        /// Content hash of the new-version, passing-test trace.
        new_passing: u64,
        /// Analysis-mode override (`None` uses the server engine's default).
        mode: Option<AnalysisMode>,
        /// How many regression-related sequences the server renders into the textual
        /// report.
        max_sequences: u64,
        /// Differencing-algorithm override, trailing-optional exactly as in
        /// [`Request::Diff`].
        algorithm: Option<WireAlgorithm>,
    },
    /// Run the `rprism-check` static analysis over a stored trace.
    Check {
        /// The content hash of the trace to check.
        hash: u64,
        /// Per-rule severity overrides (`rule id → severity`), applied in order on
        /// top of the rule defaults — the wire form of
        /// [`CheckConfig::overrides`](rprism::CheckConfig::overrides).
        overrides: Vec<(String, Severity)>,
    },
    /// Open a live watch against a stored trace: the connection enters watch mode,
    /// and subsequent [`Request::PutStream`] chunks carry the growing new trace. The
    /// strict one-request/one-response alternation is preserved — every chunk is
    /// individually acknowledged.
    WatchStart {
        /// Content hash of the stored old (left) trace to diff against.
        old: u64,
        /// How many difference sequences the server renders into the final report.
        max_sequences: u64,
    },
    /// One chunk of the watched trace's serialized bytes (either encoding), cut at
    /// **arbitrary** byte boundaries — mid-record, mid-varint, even mid-header. The
    /// server resumes decoding exactly where the previous chunk stopped. Only valid
    /// after [`Request::WatchStart`] on the same connection.
    PutStream {
        /// The next serialized bytes, appended to everything sent before.
        bytes: Vec<u8>,
        /// `true` on the final chunk: the server drains its decoder with strict
        /// end-of-input semantics and answers [`Response::WatchDone`].
        last: bool,
    },
    /// Repository and cache statistics.
    Stats,
    /// The server's metrics rendered in the Prometheus text exposition format.
    /// Rendering happens server-side from one consistent snapshot, so what a client
    /// prints is byte-identical to what the server saw.
    Metrics,
    /// The server's own recent execution — its pipeline/repo/request spans plus a
    /// metric snapshot — serialized as a canonical binary trace blob. The blob loads
    /// like any stored trace: `rprism check`, `rprism diff`,
    /// `Engine::load_prepared_reader` all accept it.
    ObsTrace,
    /// Gracefully stop the daemon: in-flight requests drain, then the listener exits.
    Shutdown,
}

/// One server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Outcome of a [`Request::Put`].
    PutOk {
        /// The trace's content hash — the key for every later request.
        hash: u64,
        /// `true` when the repository already held this content (nothing was written).
        deduped: bool,
        /// Number of entries in the trace.
        entries: u64,
    },
    /// The stored blob bytes of a [`Request::Get`].
    GetOk {
        /// The blob exactly as stored.
        bytes: Vec<u8>,
    },
    /// The repository listing of a [`Request::List`].
    ListOk {
        /// One row per stored trace.
        entries: Vec<RepoEntry>,
    },
    /// The result of a [`Request::Diff`].
    DiffOk(WireDiff),
    /// The result of a [`Request::Analyze`]. Decoding it interns every class, method
    /// and field name of its signatures into the process-global interner, which never
    /// frees a string: a long-lived client keeps every distinct name it is sent.
    AnalyzeOk(WireReport),
    /// The result of a [`Request::Check`]: the full structured [`CheckReport`], not a
    /// rendering — the client renders locally with the same code a local check uses,
    /// so `rprism remote check` output is byte-identical to `rprism check` over the same blob. Diagnostic rule ids are
    /// spelled out as strings on the wire and mapped back through the static rule
    /// registry on decode (an unknown id is a decode error).
    CheckOk(Box<CheckReport>),
    /// Acknowledges a [`Request::WatchStart`]: the old trace is loaded and the
    /// connection is in watch mode.
    WatchStarted,
    /// Acknowledges a non-final [`Request::PutStream`] chunk with the provisional
    /// events the chunk produced (possibly none — e.g. the chunk ended mid-record).
    WatchEvent {
        /// Provisional events, in emission order.
        events: Vec<WireWatchEvent>,
    },
    /// Answers the final [`Request::PutStream`] chunk: the reconciliation events the
    /// finish produced plus the authoritative diff, byte-identical to a
    /// [`Request::Diff`] of the same pair.
    WatchDone {
        /// Final reconciliation events (authoritative pairs never reported
        /// provisionally, then retractions of provisional pairs the verdict dropped).
        events: Vec<WireWatchEvent>,
        /// The authoritative diff, rendered with the watch's `max_sequences`.
        diff: WireDiff,
    },
    /// The server's ingest check denied the watched trace mid-stream: the full
    /// structured report travels back, the watch is torn down, and the connection
    /// stays open. Unlike [`Response::Error`], the client can render the diagnostics
    /// exactly as a local denied check would.
    CheckDenied(Box<CheckReport>),
    /// The statistics snapshot of a [`Request::Stats`].
    StatsOk(WireStats),
    /// The Prometheus text exposition of a [`Request::Metrics`].
    MetricsOk {
        /// The rendered exposition, exactly as the server would serve it.
        text: String,
    },
    /// The serialized self-trace of a [`Request::ObsTrace`].
    ObsTraceOk {
        /// The canonical binary `.rtr` bytes of the server's self-trace.
        bytes: Vec<u8>,
    },
    /// Acknowledges a [`Request::Shutdown`]; the daemon stops accepting connections.
    ShutdownOk,
    /// The server is saturated and shed this connection before serving any request;
    /// the connection closes after this frame. Clients with a retry policy back off
    /// at least the hinted delay and reconnect.
    Busy {
        /// Server-suggested minimum backoff before retrying.
        retry_after_ms: u32,
    },
    /// The named blob failed verification when read back and was quarantined. The
    /// repository stays up, and re-uploading the trace heals the entry — unlike
    /// [`Response::Error`], this failure names the hash so clients can do exactly
    /// that.
    Corrupt {
        /// The content hash whose blob was quarantined.
        hash: u64,
        /// Human-readable detail.
        message: String,
    },
    /// The request failed; the connection stays open unless the transport itself is
    /// compromised.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

/// One repository listing row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepoEntry {
    /// Content hash (the repository key).
    pub hash: u64,
    /// The trace's `meta.name`.
    pub name: String,
    /// Number of entries.
    pub entries: u64,
    /// On-disk blob size in bytes.
    pub bytes: u64,
}

/// A [`TraceDiffResult`] in canonical wire form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDiff {
    /// The differencing algorithm label (`"views"`, `"lcs"`).
    pub algorithm: String,
    /// Entry count of the left trace.
    pub left_len: u64,
    /// Entry count of the right trace.
    pub right_len: u64,
    /// The normalized similarity pairs of the matching (ascending left index).
    pub pairs: Vec<(u64, u64)>,
    /// The difference sequences, exactly as the local result holds them.
    pub sequences: Vec<DiffSequence>,
    /// Deterministic compare-operation count of the run.
    pub compare_ops: u64,
    /// Number of differing entries.
    pub num_differences: u64,
    /// The server-rendered textual diff (bounded by the request's `max_sequences`).
    pub rendered: String,
}

impl WireDiff {
    /// Builds the wire form of a local result plus its rendering.
    pub fn from_result(result: &TraceDiffResult, rendered: String) -> Self {
        WireDiff {
            algorithm: result.algorithm.to_owned(),
            left_len: result.matching.left_len() as u64,
            right_len: result.matching.right_len() as u64,
            pairs: result
                .matching
                .normalized_pairs()
                .iter()
                .map(|&(l, r)| (l as u64, r as u64))
                .collect(),
            sequences: result.sequences.clone(),
            compare_ops: result.cost.compare_ops,
            num_differences: result.num_differences() as u64,
            rendered,
        }
    }

    /// The matching pairs as `usize` tuples, as
    /// [`Matching::normalized_pairs`](rprism_diff::Matching::normalized_pairs) holds them.
    pub fn pairs_local(&self) -> Vec<(usize, usize)> {
        self.pairs
            .iter()
            .map(|&(l, r)| (l as usize, r as usize))
            .collect()
    }

    /// Number of difference sequences.
    pub fn num_sequences(&self) -> usize {
        self.sequences.len()
    }
}

/// A [`ProvisionalEvent`] in wire form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireWatchEvent {
    /// The pair entered the provisional similarity set.
    Match {
        /// Old-trace entry index.
        left: u64,
        /// New-trace entry index.
        right: u64,
    },
    /// A previously emitted pair was retracted.
    Invalidate {
        /// Old-trace entry index.
        left: u64,
        /// New-trace entry index.
        right: u64,
    },
    /// A provisionally divergent region; either side may be empty, never both.
    Difference {
        /// Skipped old-trace entry indices.
        left: Vec<u64>,
        /// Skipped new-trace entry indices.
        right: Vec<u64>,
    },
}

impl WireWatchEvent {
    /// Builds the wire form of a local provisional event.
    pub fn from_event(event: &ProvisionalEvent) -> Self {
        match event {
            ProvisionalEvent::Match { left, right } => WireWatchEvent::Match {
                left: *left as u64,
                right: *right as u64,
            },
            ProvisionalEvent::Invalidate { left, right } => WireWatchEvent::Invalidate {
                left: *left as u64,
                right: *right as u64,
            },
            ProvisionalEvent::Difference { left, right } => WireWatchEvent::Difference {
                left: left.iter().map(|&i| i as u64).collect(),
                right: right.iter().map(|&i| i as u64).collect(),
            },
        }
    }

    /// The event as the local type (for rendering and equivalence checks).
    pub fn to_event(&self) -> ProvisionalEvent {
        match self {
            WireWatchEvent::Match { left, right } => ProvisionalEvent::Match {
                left: *left as usize,
                right: *right as usize,
            },
            WireWatchEvent::Invalidate { left, right } => ProvisionalEvent::Invalidate {
                left: *left as usize,
                right: *right as usize,
            },
            WireWatchEvent::Difference { left, right } => ProvisionalEvent::Difference {
                left: left.iter().map(|&i| i as usize).collect(),
                right: right.iter().map(|&i| i as usize).collect(),
            },
        }
    }
}

/// A [`RegressionReport`] in canonical wire form.
#[derive(Clone, Debug, PartialEq)]
pub struct WireReport {
    /// The differencing algorithm label.
    pub algorithm: String,
    /// The analysis mode that produced D.
    pub mode: AnalysisMode,
    /// The suspected differences A, in canonical order.
    pub suspected: Vec<DiffSignature>,
    /// The expected differences B, in canonical order.
    pub expected: Vec<DiffSignature>,
    /// The regression differences C, in canonical order.
    pub regression: Vec<DiffSignature>,
    /// The candidate causes D, in canonical order.
    pub candidates: Vec<DiffSignature>,
    /// Every suspected-comparison difference sequence with its regression verdict.
    pub sequences: Vec<(DiffSequence, bool)>,
    /// Total compare operations across the three differencing runs.
    pub compare_ops: u64,
    /// The server-rendered textual report.
    pub rendered: String,
}

impl WireReport {
    /// Builds the wire form of a local report plus its rendering.
    pub fn from_report(report: &RegressionReport, rendered: String) -> Self {
        WireReport {
            algorithm: report.algorithm.to_owned(),
            mode: report.mode,
            suspected: report.suspected.as_slice().to_vec(),
            expected: report.expected.as_slice().to_vec(),
            regression: report.regression.as_slice().to_vec(),
            candidates: report.candidates.as_slice().to_vec(),
            sequences: (report.suspected_diff.sequences.iter().cloned())
                .zip(report.verdicts.iter().copied())
                .collect(),
            compare_ops: report.compare_ops,
            rendered,
        }
    }

    /// The regression-related verdicts, in sequence order.
    pub fn verdicts(&self) -> Vec<bool> {
        self.sequences.iter().map(|(_, related)| *related).collect()
    }
}

/// A repository/cache statistics snapshot: what [`TraceRepo::stats`] returns, with
/// `requests_served` set by the server.
///
/// [`TraceRepo::stats`]: crate::TraceRepo::stats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Number of stored blobs.
    pub blobs: u64,
    /// Total on-disk blob bytes.
    pub blob_bytes: u64,
    /// Prepared handles currently cached.
    pub prepared_cached: u64,
    /// Weight of the cached handles against the byte budget.
    pub prepared_cached_bytes: u64,
    /// The configured prepared-cache byte budget.
    pub cache_budget_bytes: u64,
    /// Prepared-cache hits since startup.
    pub prepared_hits: u64,
    /// Prepared-cache misses (streaming loads) since startup.
    pub prepared_misses: u64,
    /// Prepared handles evicted by the byte budget since startup.
    pub evictions: u64,
    /// Uploads deduplicated against existing content since startup.
    pub dedup_hits: u64,
    /// Requests served since startup (all kinds).
    pub requests_served: u64,
    /// View correlations the shared engine actually built.
    pub correlation_builds: u64,
    /// Trace pairs currently in the engine's correlation cache.
    pub cached_correlations: u64,
    /// Orphaned staging files swept by startup recovery.
    pub orphans_removed: u64,
    /// Blobs quarantined after failing content verification.
    pub quarantined: u64,
    /// Watermark-triggered prepared-cache shrinks.
    pub cache_shrinks: u64,
}

// ---------------------------------------------------------------------------
// Primitive encode/decode
// ---------------------------------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, value: u64) {
    varint::write_u64(buf, value);
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// A cursor over a message payload; all errors are [`FormatError::Corrupt`] with the
/// byte offset inside the payload.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn corrupt(&self, detail: impl Into<String>) -> FormatError {
        FormatError::Corrupt {
            offset: self.pos as u64,
            detail: detail.into(),
        }
    }

    fn u8(&mut self) -> FormatResult<u8> {
        let byte = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.corrupt("message truncated"))?;
        self.pos += 1;
        Ok(byte)
    }

    fn u64(&mut self) -> FormatResult<u64> {
        let mut source = varint::SliceSource::new(&self.bytes[self.pos..], self.pos as u64);
        let value = varint::read_u64(&mut source)?;
        self.pos = source.offset() as usize;
        Ok(value)
    }

    fn bool(&mut self) -> FormatResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.corrupt(format!("invalid boolean byte {other:#04x}"))),
        }
    }

    fn bytes(&mut self) -> FormatResult<Vec<u8>> {
        self.slice().map(<[u8]>::to_vec)
    }

    /// A length-prefixed field, borrowed from the payload.
    fn slice(&mut self) -> FormatResult<&'a [u8]> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| self.corrupt("length overflows usize"))?;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| self.corrupt(format!("field of {len} bytes overruns the message")))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn str(&mut self) -> FormatResult<String> {
        self.str_ref().map(str::to_owned)
    }

    /// A string field, borrowed from the payload.
    fn str_ref(&mut self) -> FormatResult<&'a str> {
        let bytes = self.slice()?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("string is not valid UTF-8"))
    }

    /// A string field interned into this process (see the module docs).
    fn symbol(&mut self) -> FormatResult<Symbol> {
        self.str_ref().map(intern)
    }

    fn u64s(&mut self) -> FormatResult<Vec<u64>> {
        let count = self.u64()?;
        let mut out = Vec::with_capacity(self.capacity(count, 1));
        for _ in 0..count {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// The number of undecoded bytes.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The capacity to reserve for `count` items that take at least `min_bytes`
    /// each: the count, bounded by what the undecoded bytes can hold, so a forged
    /// count cannot reserve more than the message carries.
    fn capacity(&self, count: u64, min_bytes: usize) -> usize {
        let bound = self.remaining() / min_bytes;
        usize::try_from(count).map_or(bound, |n| n.min(bound))
    }

    /// `true` while undecoded bytes remain — the gate for trailing-optional fields
    /// (read the field iff a newer client appended it; [`Dec::finish`] still rejects
    /// anything left over after every decoder ran).
    fn has_remaining(&self) -> bool {
        self.pos < self.bytes.len()
    }

    fn finish(&self) -> FormatResult<()> {
        if self.pos != self.bytes.len() {
            return Err(self.corrupt(format!(
                "{} trailing bytes after the message",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn kind_byte(kind: EventKind) -> u8 {
    match kind {
        EventKind::Get => 1,
        EventKind::Set => 2,
        EventKind::Call => 3,
        EventKind::Return => 4,
        EventKind::Init => 5,
        EventKind::Fork => 6,
        EventKind::End => 7,
    }
}

fn byte_kind(byte: u8, dec: &Dec<'_>) -> FormatResult<EventKind> {
    Ok(match byte {
        1 => EventKind::Get,
        2 => EventKind::Set,
        3 => EventKind::Call,
        4 => EventKind::Return,
        5 => EventKind::Init,
        6 => EventKind::Fork,
        7 => EventKind::End,
        other => return Err(dec.corrupt(format!("unknown event kind {other:#04x}"))),
    })
}

fn mode_byte(mode: Option<AnalysisMode>) -> u8 {
    match mode {
        None => 0,
        Some(AnalysisMode::Intersect) => 1,
        Some(AnalysisMode::SubtractRegressionSet) => 2,
    }
}

fn byte_mode(byte: u8, dec: &Dec<'_>) -> FormatResult<Option<AnalysisMode>> {
    Ok(match byte {
        0 => None,
        1 => Some(AnalysisMode::Intersect),
        2 => Some(AnalysisMode::SubtractRegressionSet),
        other => return Err(dec.corrupt(format!("unknown analysis mode {other:#04x}"))),
    })
}

fn algorithm_byte(algorithm: WireAlgorithm) -> u8 {
    match algorithm {
        WireAlgorithm::Views => 1,
        WireAlgorithm::Lcs => 2,
        WireAlgorithm::Anchored => 3,
    }
}

fn byte_algorithm(byte: u8, dec: &Dec<'_>) -> FormatResult<WireAlgorithm> {
    Ok(match byte {
        1 => WireAlgorithm::Views,
        2 => WireAlgorithm::Lcs,
        3 => WireAlgorithm::Anchored,
        other => return Err(dec.corrupt(format!("unknown diff algorithm {other:#04x}"))),
    })
}

fn severity_byte(severity: Severity) -> u8 {
    match severity {
        Severity::Info => 1,
        Severity::Warning => 2,
        Severity::Error => 3,
    }
}

fn byte_severity(byte: u8, dec: &Dec<'_>) -> FormatResult<Severity> {
    Ok(match byte {
        1 => Severity::Info,
        2 => Severity::Warning,
        3 => Severity::Error,
        other => return Err(dec.corrupt(format!("unknown severity {other:#04x}"))),
    })
}

fn put_overrides(buf: &mut Vec<u8>, overrides: &[(String, Severity)]) {
    put_u64(buf, overrides.len() as u64);
    for (rule, severity) in overrides {
        put_str(buf, rule);
        buf.push(severity_byte(*severity));
    }
}

fn get_overrides(dec: &mut Dec<'_>) -> FormatResult<Vec<(String, Severity)>> {
    let count = dec.u64()?;
    let mut out = Vec::new();
    for _ in 0..count {
        let rule = dec.str()?;
        let severity_raw = dec.u8()?;
        out.push((rule, byte_severity(severity_raw, dec)?));
    }
    Ok(out)
}

fn put_check_report(buf: &mut Vec<u8>, report: &CheckReport) {
    put_str(buf, &report.trace_name);
    put_u64(buf, report.entries as u64);
    put_u64(buf, report.threads as u64);
    put_u64(buf, report.suppressed as u64);
    put_u64(buf, report.diagnostics.len() as u64);
    for diagnostic in &report.diagnostics {
        put_str(buf, diagnostic.rule_id);
        buf.push(severity_byte(diagnostic.severity));
        put_u64(buf, diagnostic.entry_index as u64);
        put_str(buf, &diagnostic.message);
        put_u64(buf, diagnostic.related_entries.len() as u64);
        for &related in &diagnostic.related_entries {
            put_u64(buf, related as u64);
        }
    }
}

fn get_usize(dec: &mut Dec<'_>) -> FormatResult<usize> {
    let value = dec.u64()?;
    usize::try_from(value).map_err(|_| dec.corrupt("count overflows usize"))
}

fn get_check_report(dec: &mut Dec<'_>) -> FormatResult<CheckReport> {
    let trace_name = dec.str()?;
    let entries = get_usize(dec)?;
    let threads = get_usize(dec)?;
    let suppressed = get_usize(dec)?;
    let count = dec.u64()?;
    let mut diagnostics = Vec::new();
    for _ in 0..count {
        let rule_id = dec.str()?;
        // Rule ids live in the static registry; mapping the wire string back
        // through it both validates the id and recovers the `&'static str` the
        // diagnostic model carries.
        let rule_id = rules::rule(&rule_id)
            .ok_or_else(|| dec.corrupt(format!("unknown rule id {rule_id:?}")))?
            .id;
        let severity_raw = dec.u8()?;
        let severity = byte_severity(severity_raw, dec)?;
        let entry_index = get_usize(dec)?;
        let message = dec.str()?;
        let related_count = dec.u64()?;
        let mut related_entries = Vec::new();
        for _ in 0..related_count {
            related_entries.push(get_usize(dec)?);
        }
        diagnostics.push(Diagnostic {
            rule_id,
            severity,
            entry_index,
            message,
            related_entries,
        });
    }
    Ok(CheckReport {
        trace_name,
        entries,
        threads,
        suppressed,
        diagnostics,
    })
}

fn put_watch_events(buf: &mut Vec<u8>, events: &[WireWatchEvent]) {
    put_u64(buf, events.len() as u64);
    for event in events {
        match event {
            WireWatchEvent::Match { left, right } => {
                buf.push(1);
                put_u64(buf, *left);
                put_u64(buf, *right);
            }
            WireWatchEvent::Invalidate { left, right } => {
                buf.push(2);
                put_u64(buf, *left);
                put_u64(buf, *right);
            }
            WireWatchEvent::Difference { left, right } => {
                buf.push(3);
                put_u64(buf, left.len() as u64);
                for &i in left {
                    put_u64(buf, i);
                }
                put_u64(buf, right.len() as u64);
                for &i in right {
                    put_u64(buf, i);
                }
            }
        }
    }
}

fn get_watch_events(dec: &mut Dec<'_>) -> FormatResult<Vec<WireWatchEvent>> {
    let count = dec.u64()?;
    let mut out = Vec::new();
    for _ in 0..count {
        out.push(match dec.u8()? {
            1 => WireWatchEvent::Match {
                left: dec.u64()?,
                right: dec.u64()?,
            },
            2 => WireWatchEvent::Invalidate {
                left: dec.u64()?,
                right: dec.u64()?,
            },
            3 => WireWatchEvent::Difference {
                left: dec.u64s()?,
                right: dec.u64s()?,
            },
            other => return Err(dec.corrupt(format!("unknown watch event kind {other:#04x}"))),
        });
    }
    Ok(out)
}

fn put_indices(buf: &mut Vec<u8>, indices: &[usize]) {
    put_u64(buf, indices.len() as u64);
    for &i in indices {
        put_u64(buf, i as u64);
    }
}

/// A count-prefixed list of entry indices; an index that does not fit `usize` is a
/// decode error.
fn get_indices(dec: &mut Dec<'_>) -> FormatResult<Vec<usize>> {
    let count = dec.u64()?;
    let mut out = Vec::with_capacity(dec.capacity(count, 1));
    for _ in 0..count {
        out.push(get_usize(dec)?);
    }
    Ok(out)
}

fn put_sequence(buf: &mut Vec<u8>, sequence: &DiffSequence) {
    put_indices(buf, &sequence.left);
    put_indices(buf, &sequence.right);
}

fn get_sequence(dec: &mut Dec<'_>) -> FormatResult<DiffSequence> {
    Ok(DiffSequence {
        left: get_indices(dec)?,
        right: get_indices(dec)?,
    })
}

fn put_diff(buf: &mut Vec<u8>, diff: &WireDiff) {
    put_str(buf, &diff.algorithm);
    put_u64(buf, diff.left_len);
    put_u64(buf, diff.right_len);
    put_u64(buf, diff.pairs.len() as u64);
    for &(l, r) in &diff.pairs {
        put_u64(buf, l);
        put_u64(buf, r);
    }
    put_u64(buf, diff.sequences.len() as u64);
    for sequence in &diff.sequences {
        put_sequence(buf, sequence);
    }
    put_u64(buf, diff.compare_ops);
    put_u64(buf, diff.num_differences);
    put_str(buf, &diff.rendered);
}

fn get_diff(dec: &mut Dec<'_>) -> FormatResult<WireDiff> {
    let algorithm = dec.str()?;
    let left_len = dec.u64()?;
    let right_len = dec.u64()?;
    let pair_count = dec.u64()?;
    let mut pairs = Vec::with_capacity(dec.capacity(pair_count, 2));
    for _ in 0..pair_count {
        let l = dec.u64()?;
        let r = dec.u64()?;
        pairs.push((l, r));
    }
    let sequence_count = dec.u64()?;
    // Each sequence takes at least its two counts.
    let mut sequences = Vec::with_capacity(dec.capacity(sequence_count, 2));
    for _ in 0..sequence_count {
        sequences.push(get_sequence(dec)?);
    }
    Ok(WireDiff {
        algorithm,
        left_len,
        right_len,
        pairs,
        sequences,
        compare_ops: dec.u64()?,
        num_differences: dec.u64()?,
        rendered: dec.str()?,
    })
}

fn put_signature(buf: &mut Vec<u8>, signature: &DiffSignature) {
    buf.push(kind_byte(signature.kind));
    match signature.name {
        None => buf.push(0),
        Some(name) => {
            buf.push(1);
            put_str(buf, name.as_str());
        }
    }
    put_u64(buf, signature.operands.len() as u64);
    for &(class, fp) in signature.operands.iter() {
        put_str(buf, class.as_str());
        put_u64(buf, fp.0);
    }
    put_str(buf, signature.method.as_str());
    put_str(buf, signature.active_class.as_str());
}

fn get_signature(dec: &mut Dec<'_>) -> FormatResult<DiffSignature> {
    let kind_raw = dec.u8()?;
    let kind = byte_kind(kind_raw, dec)?;
    let name = if dec.bool()? {
        Some(dec.symbol()?)
    } else {
        None
    };
    let operand_count = dec.u64()?;
    // Each operand takes at least two bytes: a class length and a fingerprint.
    let mut operands = Vec::with_capacity(dec.capacity(operand_count, 2));
    for _ in 0..operand_count {
        let class = dec.symbol()?;
        let fp = dec.u64()?;
        operands.push((class, ValueFingerprint(fp)));
    }
    Ok(DiffSignature {
        kind,
        name,
        operands: operands.into(),
        method: dec.symbol()?,
        active_class: dec.symbol()?,
    })
}

fn put_signatures(buf: &mut Vec<u8>, signatures: &[DiffSignature]) {
    put_u64(buf, signatures.len() as u64);
    for signature in signatures {
        put_signature(buf, signature);
    }
}

fn get_signatures(dec: &mut Dec<'_>) -> FormatResult<Vec<DiffSignature>> {
    let count = dec.u64()?;
    // Each signature takes at least five bytes: kind, name flag, operand count,
    // method and class lengths.
    let mut out = Vec::with_capacity(dec.capacity(count, 5));
    for _ in 0..count {
        out.push(get_signature(dec)?);
    }
    Ok(out)
}

fn header(tag: u8) -> Vec<u8> {
    vec![PROTO_VERSION, tag]
}

fn open(bytes: &[u8]) -> FormatResult<(u8, Dec<'_>)> {
    let mut dec = Dec::new(bytes);
    let version = dec.u8()?;
    if version != PROTO_VERSION {
        return Err(FormatError::UnsupportedVersion {
            found: u16::from(version),
            supported: u16::from(PROTO_VERSION),
        });
    }
    Ok((dec.u8()?, dec))
}

impl Request {
    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Put { bytes } => {
                let mut buf = header(TAG_PUT);
                put_bytes(&mut buf, bytes);
                buf
            }
            Request::Get { hash } => {
                let mut buf = header(TAG_GET);
                put_u64(&mut buf, *hash);
                buf
            }
            Request::List => header(TAG_LIST),
            Request::Diff {
                left,
                right,
                max_sequences,
                algorithm,
            } => {
                let mut buf = header(TAG_DIFF);
                put_u64(&mut buf, *left);
                put_u64(&mut buf, *right);
                put_u64(&mut buf, *max_sequences);
                // Trailing-optional: absent means "server default" and reproduces the
                // pre-override frame byte for byte.
                if let Some(algorithm) = algorithm {
                    buf.push(algorithm_byte(*algorithm));
                }
                buf
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
                let mut buf = header(TAG_ANALYZE);
                for hash in [old_regressing, new_regressing, old_passing, new_passing] {
                    put_u64(&mut buf, *hash);
                }
                buf.push(mode_byte(*mode));
                put_u64(&mut buf, *max_sequences);
                if let Some(algorithm) = algorithm {
                    buf.push(algorithm_byte(*algorithm));
                }
                buf
            }
            Request::Check { hash, overrides } => {
                let mut buf = header(TAG_CHECK);
                put_u64(&mut buf, *hash);
                put_overrides(&mut buf, overrides);
                buf
            }
            Request::WatchStart { old, max_sequences } => {
                let mut buf = header(TAG_WATCH_START);
                put_u64(&mut buf, *old);
                put_u64(&mut buf, *max_sequences);
                buf
            }
            Request::PutStream { bytes, last } => {
                let mut buf = header(TAG_PUT_STREAM);
                put_bytes(&mut buf, bytes);
                buf.push(u8::from(*last));
                buf
            }
            Request::Stats => header(TAG_STATS),
            Request::Metrics => header(TAG_METRICS),
            Request::ObsTrace => header(TAG_OBS_TRACE),
            Request::Shutdown => header(TAG_SHUTDOWN),
        }
    }

    /// Decodes a frame payload into a request.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] on a version mismatch, unknown tag, or malformed field
    /// — the server answers these with a structured error frame.
    pub fn decode(bytes: &[u8]) -> FormatResult<Request> {
        let (tag, mut dec) = open(bytes)?;
        let request = match tag {
            TAG_PUT => Request::Put {
                bytes: dec.bytes()?,
            },
            TAG_GET => Request::Get { hash: dec.u64()? },
            TAG_LIST => Request::List,
            TAG_DIFF => {
                let left = dec.u64()?;
                let right = dec.u64()?;
                let max_sequences = dec.u64()?;
                let algorithm = if dec.has_remaining() {
                    let raw = dec.u8()?;
                    Some(byte_algorithm(raw, &dec)?)
                } else {
                    None
                };
                Request::Diff {
                    left,
                    right,
                    max_sequences,
                    algorithm,
                }
            }
            TAG_ANALYZE => {
                let old_regressing = dec.u64()?;
                let new_regressing = dec.u64()?;
                let old_passing = dec.u64()?;
                let new_passing = dec.u64()?;
                let mode_raw = dec.u8()?;
                let mode = byte_mode(mode_raw, &dec)?;
                let max_sequences = dec.u64()?;
                let algorithm = if dec.has_remaining() {
                    let raw = dec.u8()?;
                    Some(byte_algorithm(raw, &dec)?)
                } else {
                    None
                };
                Request::Analyze {
                    old_regressing,
                    new_regressing,
                    old_passing,
                    new_passing,
                    mode,
                    max_sequences,
                    algorithm,
                }
            }
            TAG_CHECK => Request::Check {
                hash: dec.u64()?,
                overrides: get_overrides(&mut dec)?,
            },
            TAG_WATCH_START => Request::WatchStart {
                old: dec.u64()?,
                max_sequences: dec.u64()?,
            },
            TAG_PUT_STREAM => Request::PutStream {
                bytes: dec.bytes()?,
                last: dec.bool()?,
            },
            TAG_STATS => Request::Stats,
            TAG_METRICS => Request::Metrics,
            TAG_OBS_TRACE => Request::ObsTrace,
            TAG_SHUTDOWN => Request::Shutdown,
            other => return Err(dec.corrupt(format!("unknown request tag {other:#04x}"))),
        };
        dec.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Serializes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::PutOk {
                hash,
                deduped,
                entries,
            } => {
                let mut buf = header(TAG_PUT_OK);
                put_u64(&mut buf, *hash);
                buf.push(u8::from(*deduped));
                put_u64(&mut buf, *entries);
                buf
            }
            Response::GetOk { bytes } => {
                let mut buf = header(TAG_GET_OK);
                put_bytes(&mut buf, bytes);
                buf
            }
            Response::ListOk { entries } => {
                let mut buf = header(TAG_LIST_OK);
                put_u64(&mut buf, entries.len() as u64);
                for entry in entries {
                    put_u64(&mut buf, entry.hash);
                    put_str(&mut buf, &entry.name);
                    put_u64(&mut buf, entry.entries);
                    put_u64(&mut buf, entry.bytes);
                }
                buf
            }
            Response::DiffOk(diff) => {
                let mut buf = header(TAG_DIFF_OK);
                put_diff(&mut buf, diff);
                buf
            }
            Response::AnalyzeOk(report) => {
                let mut buf = header(TAG_ANALYZE_OK);
                put_str(&mut buf, &report.algorithm);
                buf.push(mode_byte(Some(report.mode)));
                for set in [
                    &report.suspected,
                    &report.expected,
                    &report.regression,
                    &report.candidates,
                ] {
                    put_signatures(&mut buf, set);
                }
                put_u64(&mut buf, report.sequences.len() as u64);
                for (sequence, related) in &report.sequences {
                    put_sequence(&mut buf, sequence);
                    buf.push(u8::from(*related));
                }
                put_u64(&mut buf, report.compare_ops);
                put_str(&mut buf, &report.rendered);
                buf
            }
            Response::CheckOk(report) => {
                let mut buf = header(TAG_CHECK_OK);
                put_check_report(&mut buf, report);
                buf
            }
            Response::WatchStarted => header(TAG_WATCH_STARTED),
            Response::WatchEvent { events } => {
                let mut buf = header(TAG_WATCH_EVENT);
                put_watch_events(&mut buf, events);
                buf
            }
            Response::WatchDone { events, diff } => {
                let mut buf = header(TAG_WATCH_DONE);
                put_watch_events(&mut buf, events);
                put_diff(&mut buf, diff);
                buf
            }
            Response::CheckDenied(report) => {
                let mut buf = header(TAG_CHECK_DENIED);
                put_check_report(&mut buf, report);
                buf
            }
            Response::StatsOk(stats) => {
                let mut buf = header(TAG_STATS_OK);
                for value in [
                    stats.blobs,
                    stats.blob_bytes,
                    stats.prepared_cached,
                    stats.prepared_cached_bytes,
                    stats.cache_budget_bytes,
                    stats.prepared_hits,
                    stats.prepared_misses,
                    stats.evictions,
                    stats.dedup_hits,
                    stats.requests_served,
                    stats.correlation_builds,
                    stats.cached_correlations,
                    stats.orphans_removed,
                    stats.quarantined,
                    stats.cache_shrinks,
                ] {
                    put_u64(&mut buf, value);
                }
                buf
            }
            Response::MetricsOk { text } => {
                let mut buf = header(TAG_METRICS_OK);
                put_str(&mut buf, text);
                buf
            }
            Response::ObsTraceOk { bytes } => {
                let mut buf = header(TAG_OBS_TRACE_OK);
                put_bytes(&mut buf, bytes);
                buf
            }
            Response::ShutdownOk => header(TAG_SHUTDOWN_OK),
            Response::Busy { retry_after_ms } => {
                let mut buf = header(TAG_BUSY);
                put_u64(&mut buf, u64::from(*retry_after_ms));
                buf
            }
            Response::Corrupt { hash, message } => {
                let mut buf = header(TAG_CORRUPT);
                put_u64(&mut buf, *hash);
                put_str(&mut buf, message);
                buf
            }
            Response::Error { message } => {
                let mut buf = header(TAG_ERROR);
                put_str(&mut buf, message);
                buf
            }
        }
    }

    /// Decodes a frame payload into a response.
    ///
    /// An [`AnalyzeOk`](Response::AnalyzeOk) interns the distinct names of its
    /// signatures into this process for good (see the variant); no other response
    /// interns anything.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] on a version mismatch, unknown tag, or malformed field.
    pub fn decode(bytes: &[u8]) -> FormatResult<Response> {
        let (tag, mut dec) = open(bytes)?;
        let response = match tag {
            TAG_PUT_OK => Response::PutOk {
                hash: dec.u64()?,
                deduped: dec.bool()?,
                entries: dec.u64()?,
            },
            TAG_GET_OK => Response::GetOk {
                bytes: dec.bytes()?,
            },
            TAG_LIST_OK => {
                let count = dec.u64()?;
                let mut entries = Vec::new();
                for _ in 0..count {
                    entries.push(RepoEntry {
                        hash: dec.u64()?,
                        name: dec.str()?,
                        entries: dec.u64()?,
                        bytes: dec.u64()?,
                    });
                }
                Response::ListOk { entries }
            }
            TAG_DIFF_OK => Response::DiffOk(get_diff(&mut dec)?),
            TAG_ANALYZE_OK => {
                let algorithm = dec.str()?;
                let mode_raw = dec.u8()?;
                let mode = byte_mode(mode_raw, &dec)?
                    .ok_or_else(|| dec.corrupt("report mode cannot be the default marker"))?;
                let suspected = get_signatures(&mut dec)?;
                let expected = get_signatures(&mut dec)?;
                let regression = get_signatures(&mut dec)?;
                let candidates = get_signatures(&mut dec)?;
                let sequence_count = dec.u64()?;
                // Each sequence takes at least its two counts and its verdict byte.
                let mut sequences = Vec::with_capacity(dec.capacity(sequence_count, 3));
                for _ in 0..sequence_count {
                    let sequence = get_sequence(&mut dec)?;
                    let related = dec.bool()?;
                    sequences.push((sequence, related));
                }
                Response::AnalyzeOk(WireReport {
                    algorithm,
                    mode,
                    suspected,
                    expected,
                    regression,
                    candidates,
                    sequences,
                    compare_ops: dec.u64()?,
                    rendered: dec.str()?,
                })
            }
            TAG_CHECK_OK => Response::CheckOk(Box::new(get_check_report(&mut dec)?)),
            TAG_WATCH_STARTED => Response::WatchStarted,
            TAG_WATCH_EVENT => Response::WatchEvent {
                events: get_watch_events(&mut dec)?,
            },
            TAG_WATCH_DONE => {
                let events = get_watch_events(&mut dec)?;
                let diff = get_diff(&mut dec)?;
                Response::WatchDone { events, diff }
            }
            TAG_CHECK_DENIED => Response::CheckDenied(Box::new(get_check_report(&mut dec)?)),
            TAG_STATS_OK => {
                let mut values = [0u64; 15];
                for value in &mut values {
                    *value = dec.u64()?;
                }
                Response::StatsOk(WireStats {
                    blobs: values[0],
                    blob_bytes: values[1],
                    prepared_cached: values[2],
                    prepared_cached_bytes: values[3],
                    cache_budget_bytes: values[4],
                    prepared_hits: values[5],
                    prepared_misses: values[6],
                    evictions: values[7],
                    dedup_hits: values[8],
                    requests_served: values[9],
                    correlation_builds: values[10],
                    cached_correlations: values[11],
                    orphans_removed: values[12],
                    quarantined: values[13],
                    cache_shrinks: values[14],
                })
            }
            TAG_METRICS_OK => Response::MetricsOk { text: dec.str()? },
            TAG_OBS_TRACE_OK => Response::ObsTraceOk {
                bytes: dec.bytes()?,
            },
            TAG_SHUTDOWN_OK => Response::ShutdownOk,
            TAG_BUSY => Response::Busy {
                retry_after_ms: u32::try_from(dec.u64()?)
                    .map_err(|_| dec.corrupt("retry_after_ms overflows u32"))?,
            },
            TAG_CORRUPT => Response::Corrupt {
                hash: dec.u64()?,
                message: dec.str()?,
            },
            TAG_ERROR => Response::Error {
                message: dec.str()?,
            },
            other => return Err(dec.corrupt(format!("unknown response tag {other:#04x}"))),
        };
        dec.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        let decoded = Request::decode(&request.encode()).unwrap();
        assert_eq!(decoded, request);
    }

    fn round_trip_response(response: Response) {
        let decoded = Response::decode(&response.encode()).unwrap();
        assert_eq!(decoded, response);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Put {
            bytes: b"blob".to_vec(),
        });
        round_trip_request(Request::Get { hash: 0xdead_beef });
        round_trip_request(Request::List);
        round_trip_request(Request::Diff {
            left: 1,
            right: u64::MAX,
            max_sequences: 5,
            algorithm: None,
        });
        for algorithm in [
            WireAlgorithm::Views,
            WireAlgorithm::Lcs,
            WireAlgorithm::Anchored,
        ] {
            round_trip_request(Request::Diff {
                left: 1,
                right: u64::MAX,
                max_sequences: 5,
                algorithm: Some(algorithm),
            });
        }
        round_trip_request(Request::Analyze {
            old_regressing: 1,
            new_regressing: 2,
            old_passing: 3,
            new_passing: 4,
            mode: Some(AnalysisMode::SubtractRegressionSet),
            max_sequences: 5,
            algorithm: Some(WireAlgorithm::Anchored),
        });
        round_trip_request(Request::Analyze {
            old_regressing: 1,
            new_regressing: 2,
            old_passing: 3,
            new_passing: 4,
            mode: None,
            max_sequences: 10,
            algorithm: None,
        });
        round_trip_request(Request::Check {
            hash: 7,
            overrides: vec![],
        });
        round_trip_request(Request::Check {
            hash: 0xfeed,
            overrides: vec![
                ("data-race".to_owned(), Severity::Error),
                ("unclosed-call".to_owned(), Severity::Warning),
                ("use-after-death".to_owned(), Severity::Info),
            ],
        });
        round_trip_request(Request::WatchStart {
            old: 0xdead_beef,
            max_sequences: 12,
        });
        round_trip_request(Request::PutStream {
            bytes: vec![0x00, 0xff, 0x7f],
            last: false,
        });
        round_trip_request(Request::PutStream {
            bytes: vec![],
            last: true,
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::ObsTrace);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn pre_override_diff_and_analyze_frames_still_decode() {
        // The algorithm override is a trailing-optional byte: frames hand-built the
        // way a pre-override client built them (no byte) must decode to `None`, and a
        // request without an override must emit exactly that legacy frame.
        let mut legacy_diff = vec![PROTO_VERSION, 0x04];
        for value in [7u64, 9, 3] {
            put_u64(&mut legacy_diff, value);
        }
        assert_eq!(
            Request::decode(&legacy_diff).unwrap(),
            Request::Diff {
                left: 7,
                right: 9,
                max_sequences: 3,
                algorithm: None,
            }
        );
        assert_eq!(
            Request::Diff {
                left: 7,
                right: 9,
                max_sequences: 3,
                algorithm: None,
            }
            .encode(),
            legacy_diff
        );

        let mut legacy_analyze = vec![PROTO_VERSION, 0x05];
        for hash in [1u64, 2, 3, 4] {
            put_u64(&mut legacy_analyze, hash);
        }
        legacy_analyze.push(0); // mode: engine default
        put_u64(&mut legacy_analyze, 6);
        assert_eq!(
            Request::decode(&legacy_analyze).unwrap(),
            Request::Analyze {
                old_regressing: 1,
                new_regressing: 2,
                old_passing: 3,
                new_passing: 4,
                mode: None,
                max_sequences: 6,
                algorithm: None,
            }
        );

        // An unknown algorithm byte is rejected, not silently defaulted.
        let mut bad = legacy_diff.clone();
        bad.push(9);
        assert!(Request::decode(&bad).is_err());
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::PutOk {
            hash: 42,
            deduped: true,
            entries: 7,
        });
        round_trip_response(Response::GetOk {
            bytes: vec![1, 2, 3],
        });
        round_trip_response(Response::ListOk {
            entries: vec![RepoEntry {
                hash: 9,
                name: "daikon".into(),
                entries: 120,
                bytes: 4096,
            }],
        });
        round_trip_response(Response::DiffOk(WireDiff {
            algorithm: "views".into(),
            left_len: 10,
            right_len: 11,
            pairs: vec![(0, 0), (2, 3)],
            sequences: vec![DiffSequence {
                left: vec![1],
                right: vec![1, 2],
            }],
            compare_ops: 999,
            num_differences: 3,
            rendered: "semantic diff…".into(),
        }));
        round_trip_response(Response::AnalyzeOk(WireReport {
            algorithm: "views".into(),
            mode: AnalysisMode::Intersect,
            suspected: vec![DiffSignature {
                kind: EventKind::Set,
                name: Some(intern("field")),
                operands: vec![
                    (intern("C"), ValueFingerprint(0xfeed)),
                    (intern("Int"), ValueFingerprint(2)),
                ]
                .into(),
                method: intern("m"),
                active_class: intern("App"),
            }],
            expected: vec![],
            regression: vec![],
            candidates: vec![],
            sequences: vec![(
                DiffSequence {
                    left: vec![],
                    right: vec![4],
                },
                true,
            )],
            compare_ops: 123,
            rendered: "report".into(),
        }));
        round_trip_response(Response::CheckOk(Box::new(CheckReport {
            trace_name: "daikon".into(),
            entries: 120,
            threads: 2,
            suppressed: 1,
            diagnostics: vec![Diagnostic {
                rule_id: rules::rule("data-race").unwrap().id,
                severity: Severity::Warning,
                entry_index: 17,
                message: "write/write conflict".into(),
                related_entries: vec![3, 9],
            }],
        })));
        round_trip_response(Response::CheckOk(Box::default()));
        round_trip_response(Response::StatsOk(WireStats {
            blobs: 1,
            blob_bytes: 2,
            prepared_cached: 3,
            prepared_cached_bytes: 4,
            cache_budget_bytes: 5,
            prepared_hits: 6,
            prepared_misses: 7,
            evictions: 8,
            dedup_hits: 9,
            requests_served: 10,
            correlation_builds: 11,
            cached_correlations: 12,
            orphans_removed: 13,
            quarantined: 14,
            cache_shrinks: 15,
        }));
        round_trip_response(Response::WatchStarted);
        round_trip_response(Response::WatchEvent { events: vec![] });
        round_trip_response(Response::WatchEvent {
            events: vec![
                WireWatchEvent::Match { left: 0, right: 0 },
                WireWatchEvent::Invalidate { left: 3, right: 4 },
                WireWatchEvent::Difference {
                    left: vec![5, 6],
                    right: vec![],
                },
            ],
        });
        round_trip_response(Response::WatchDone {
            events: vec![WireWatchEvent::Match { left: 9, right: 9 }],
            diff: WireDiff {
                algorithm: "views".into(),
                left_len: 10,
                right_len: 10,
                pairs: vec![(0, 0)],
                sequences: vec![],
                compare_ops: 77,
                num_differences: 0,
                rendered: "no differences\n".into(),
            },
        });
        round_trip_response(Response::CheckDenied(Box::new(CheckReport {
            trace_name: "denied".into(),
            entries: 5,
            threads: 1,
            suppressed: 0,
            diagnostics: vec![Diagnostic {
                rule_id: rules::rule("data-race").unwrap().id,
                severity: Severity::Error,
                entry_index: 2,
                message: "boom".into(),
                related_entries: vec![0],
            }],
        })));
        round_trip_response(Response::MetricsOk {
            text: "# TYPE rprism_cache_hits counter\nrprism_cache_hits 3\n".into(),
        });
        round_trip_response(Response::ObsTraceOk {
            bytes: vec![0x52, 0x54, 0x52, 0x00],
        });
        round_trip_response(Response::ShutdownOk);
        round_trip_response(Response::Busy {
            retry_after_ms: 250,
        });
        round_trip_response(Response::Corrupt {
            hash: 0xfeed_f00d,
            message: "checksum mismatch".into(),
        });
        round_trip_response(Response::Error {
            message: "nope".into(),
        });
    }

    #[test]
    fn malformed_messages_are_structured_errors() {
        assert!(Request::decode(&[]).is_err());
        // Wrong protocol version.
        assert!(matches!(
            Request::decode(&[99, TAG_LIST]),
            Err(FormatError::UnsupportedVersion { found: 99, .. })
        ));
        // Unknown tag.
        assert!(Request::decode(&[PROTO_VERSION, 0x7f]).is_err());
        // Trailing garbage.
        assert!(Request::decode(&[PROTO_VERSION, TAG_LIST, 0x00]).is_err());
        // Truncated field.
        let mut put = Request::Put {
            bytes: vec![1; 100],
        }
        .encode();
        put.truncate(10);
        assert!(Request::decode(&put).is_err());
        // Forged pair, sequence and index counts are refused without reserving for
        // them.
        for counts in [[u64::MAX, 0, 0], [0, u64::MAX, 0], [0, 1, u64::MAX]] {
            let mut diff = vec![PROTO_VERSION, TAG_DIFF_OK];
            put_str(&mut diff, "views");
            for value in [9, 9].into_iter().chain(counts) {
                put_u64(&mut diff, value);
            }
            assert!(Response::decode(&diff).is_err());
        }
        // A request is not a response and vice versa.
        assert!(Response::decode(&Request::List.encode()).is_err());
        assert!(Request::decode(&Response::ShutdownOk.encode()).is_err());
    }

    #[test]
    fn current_frames_are_pinned_byte_for_byte() {
        // Hand-built frames of the current version decode to the expected messages,
        // and the encoders emit exactly these bytes.
        let mut get = vec![PROTO_VERSION, 0x02];
        put_u64(&mut get, 0xfeed);
        let mut check = vec![PROTO_VERSION, 0x08];
        put_u64(&mut check, 42);
        put_u64(&mut check, 0); // no overrides
        let mut watch = vec![PROTO_VERSION, 0x09];
        put_u64(&mut watch, 7);
        put_u64(&mut watch, 3);
        for (frame, request) in [
            (get, Request::Get { hash: 0xfeed }),
            (vec![PROTO_VERSION, 0x06], Request::Stats),
            (
                check,
                Request::Check {
                    hash: 42,
                    overrides: vec![],
                },
            ),
            (
                watch,
                Request::WatchStart {
                    old: 7,
                    max_sequences: 3,
                },
            ),
        ] {
            assert_eq!(Request::decode(&frame).unwrap(), request);
            assert_eq!(request.encode(), frame);
        }
    }

    /// The four roles of every case study as streamed handles of the default engine,
    /// with the scenario's analysis mode.
    fn case_study_inputs(engine: &rprism::Engine) -> Vec<(String, rprism::RegressionInput)> {
        use rprism_format::{trace_to_bytes, Encoding};
        rprism_workloads::casestudies::all()
            .into_iter()
            .map(|scenario| {
                let traces = scenario.trace_all().unwrap();
                let [a, b, c, d] = traces.handles().map(|handle| {
                    let bytes = trace_to_bytes(handle.trace(), Encoding::Binary).unwrap();
                    engine.load_prepared_reader(bytes.as_slice()).unwrap()
                });
                let input =
                    rprism::RegressionInput::new(a, b, c, d).with_mode(scenario.analysis_mode());
                (scenario.name, input)
            })
            .collect()
    }

    /// The suspected-pair diff of every case study in wire form, without a rendering.
    fn case_study_diffs() -> Vec<(String, WireDiff)> {
        let engine = rprism::Engine::new();
        case_study_inputs(&engine)
            .into_iter()
            .map(|(name, input)| {
                let diff = engine
                    .diff(&input.old_regressing, &input.new_regressing)
                    .unwrap();
                (name, WireDiff::from_result(&diff, String::new()))
            })
            .collect()
    }

    /// The encoded `AnalyzeOk` frame of every case study: default engine, streamed
    /// handles, no rendering.
    fn case_study_analyze_frames() -> Vec<(String, Vec<u8>)> {
        let engine = rprism::Engine::new();
        case_study_inputs(&engine)
            .into_iter()
            .map(|(name, input)| {
                let report = engine.analyze(&input).unwrap();
                let frame =
                    Response::AnalyzeOk(WireReport::from_report(&report, String::new())).encode();
                (name, frame)
            })
            .collect()
    }

    /// Checks each frame's length and FNV-64 against `pinned`, and that decoding a
    /// frame and encoding it again gives the same bytes.
    fn assert_frames_pinned(frames: &[(String, Vec<u8>)], pinned: &[(&str, usize, u64)]) {
        let got: Vec<(&str, usize, u64)> = frames
            .iter()
            .map(|(name, frame)| {
                let mut digest = rprism_format::Fnv64::new();
                digest.update(frame);
                (name.as_str(), frame.len(), digest.finish())
            })
            .collect();
        assert_eq!(got, pinned);
        for (name, frame) in frames {
            let decoded = Response::decode(frame).unwrap();
            assert_eq!(&decoded.encode(), frame, "{name}: decode re-encodes");
        }
    }

    #[test]
    fn case_study_analyze_frames_are_pinned_byte_for_byte() {
        let pinned: [(&str, usize, u64); 4] = [
            ("daikon", 16157, 0x617a_a497_2cf6_a7b5),
            ("xalan-1725", 12982, 0x2239_ae32_daa3_bbb8),
            ("xalan-1802", 50324, 0xf485_92ff_9ad6_cc7d),
            ("derby-1633", 10119, 0xbe01_47d5_0a20_f870),
        ];
        assert_frames_pinned(&case_study_analyze_frames(), &pinned);
    }

    #[test]
    fn case_study_diff_and_watch_done_frames_are_pinned_byte_for_byte() {
        let diffs = case_study_diffs();
        let frames: Vec<(String, Vec<u8>)> = (diffs.iter())
            .map(|(name, diff)| (name.clone(), Response::DiffOk(diff.clone()).encode()))
            .collect();
        let pinned: [(&str, usize, u64); 4] = [
            ("daikon", 1276, 0xbd4e_57c8_e2b1_f534),
            ("xalan-1725", 422, 0x6106_8ada_bc6d_2fde),
            ("xalan-1802", 1085, 0x6ee8_5400_4ae3_5a73),
            ("derby-1633", 661, 0x1c9c_4ac5_1ce9_fbc3),
        ];
        assert_frames_pinned(&frames, &pinned);

        // One WatchDone with every event kind and the daikon diff.
        let watch_done = Response::WatchDone {
            events: vec![
                WireWatchEvent::Match { left: 0, right: 0 },
                WireWatchEvent::Difference {
                    left: vec![1, 2],
                    right: vec![],
                },
                WireWatchEvent::Match {
                    left: 300,
                    right: 129,
                },
                WireWatchEvent::Invalidate {
                    left: 300,
                    right: 129,
                },
                WireWatchEvent::Difference {
                    left: vec![],
                    right: vec![1, 128, 70_000],
                },
            ],
            diff: diffs[0].1.clone(),
        };
        assert_frames_pinned(
            &[("watch-done".to_owned(), watch_done.encode())],
            &[("watch-done", 1304, 0x1620_e0f6_9a24_79e6)],
        );
    }

    #[test]
    fn stats_ok_field_order_is_pinned() {
        // The Stats frame is 15 varints in this exact order; reordering the
        // `WireStats` fields (e.g. while re-plumbing them onto the metrics registry)
        // would silently corrupt every older client. Sequential values make any
        // swap visible.
        let stats = WireStats {
            blobs: 1,
            blob_bytes: 2,
            prepared_cached: 3,
            prepared_cached_bytes: 4,
            cache_budget_bytes: 5,
            prepared_hits: 6,
            prepared_misses: 7,
            evictions: 8,
            dedup_hits: 9,
            requests_served: 10,
            correlation_builds: 11,
            cached_correlations: 12,
            orphans_removed: 13,
            quarantined: 14,
            cache_shrinks: 15,
        };
        let mut expected = vec![PROTO_VERSION, 0x86];
        for value in 1u64..=15 {
            put_u64(&mut expected, value);
        }
        assert_eq!(Response::StatsOk(stats).encode(), expected);
    }

    #[test]
    fn wire_watch_events_convert_to_local_events_and_back() {
        let events = [
            ProvisionalEvent::Match { left: 1, right: 2 },
            ProvisionalEvent::Invalidate { left: 1, right: 2 },
            ProvisionalEvent::Difference {
                left: vec![3],
                right: vec![4, 5],
            },
        ];
        for event in &events {
            let wire = WireWatchEvent::from_event(event);
            assert_eq!(&wire.to_event(), event);
        }
    }

    #[test]
    fn unknown_rule_ids_and_severities_are_decode_errors() {
        let report = CheckReport {
            trace_name: "t".into(),
            entries: 1,
            threads: 1,
            suppressed: 0,
            diagnostics: vec![Diagnostic {
                rule_id: rules::rule("end-stack").unwrap().id,
                severity: Severity::Warning,
                entry_index: 0,
                message: "m".into(),
                related_entries: vec![],
            }],
        };
        let good = Response::CheckOk(Box::new(report)).encode();
        // Corrupt the rule-id string ("end-stack" is the first string after the
        // trace name and the four counts) into an unknown one.
        let mut bad = good.clone();
        let at = find(&bad, b"end-stack");
        bad[at] = b'x';
        let error = Response::decode(&bad).unwrap_err();
        assert!(error.to_string().contains("unknown rule id"), "got {error}");
        // An out-of-range severity byte is refused too.
        let mut bad = good;
        let at = find(&bad, b"end-stack") + "end-stack".len();
        assert!(bad[at] <= 3, "expected the severity byte after the rule id");
        bad[at] = 9;
        let error = Response::decode(&bad).unwrap_err();
        assert!(
            error.to_string().contains("unknown severity"),
            "got {error}"
        );
    }

    fn find(haystack: &[u8], needle: &[u8]) -> usize {
        haystack
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("needle present")
    }

    #[test]
    fn analyze_wire_bytes_do_not_depend_on_set_insertion_order() {
        let engine = rprism::Engine::new();
        let trace = |min: i64, doc: &str| {
            let src = format!(
                r#"
                class Num extends Object {{ Int min; Int max; }}
                class SP extends Object {{
                    Num conv; Int n;
                    Unit setup(Str ty) {{ if (ty == "html") {{ this.conv = new Num({min}, 127); }} }}
                    Unit work(Int v) {{ this.n = this.n + v + {min}; }}
                }}
                main {{ let sp = new SP(null, 0); sp.setup("{doc}"); sp.work(1); sp.work(2); }}
                "#
            );
            engine.trace_source(&src, doc).unwrap()
        };
        let input = rprism::RegressionInput::new(
            trace(32, "html"),
            trace(1, "html"),
            trace(32, "text"),
            trace(1, "text"),
        );
        let report = engine.analyze(&input).unwrap();
        assert!(
            report.suspected.len() > 1,
            "the scenario must differ in several entries"
        );
        // The same sets, each refilled in one insertion order and in its reverse and
        // put in canonical order.
        let refilled = |reverse: bool| {
            let mut wire = WireReport::from_report(&report, String::new());
            for set in [
                &mut wire.suspected,
                &mut wire.expected,
                &mut wire.regression,
                &mut wire.candidates,
            ] {
                if reverse {
                    set.reverse();
                }
                set.sort();
            }
            Response::AnalyzeOk(wire).encode()
        };
        let as_reported = Response::AnalyzeOk(WireReport::from_report(&report, String::new()));
        assert_eq!(refilled(false), as_reported.encode());
        assert_eq!(refilled(false), refilled(true));
    }

    #[test]
    fn wire_signatures_re_intern_to_equal_signatures() {
        let engine = rprism::Engine::new();
        let old = engine
            .trace_source(
                "class C extends Object { Int x; Unit set(Int v) { this.x = v; } }
                 main { let c = new C(0); c.set(32); }",
                "old",
            )
            .unwrap();
        let new = engine
            .trace_source(
                "class C extends Object { Int x; Unit set(Int v) { this.x = v; } }
                 main { let c = new C(0); c.set(1); }",
                "new",
            )
            .unwrap();
        // The suspected set A of old vs new: every unmatched entry's signature.
        let input = rprism::RegressionInput::new(old.clone(), new.clone(), old, new);
        let set = engine.analyze(&input).unwrap().suspected;
        assert!(!set.is_empty());
        let mut frame = Vec::new();
        put_signatures(&mut frame, set.as_slice());
        let back = get_signatures(&mut Dec::new(&frame)).unwrap();
        assert_eq!(back, set.as_slice());
    }
}
