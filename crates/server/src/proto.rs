//! The framed wire protocol of the trace-repository daemon.
//!
//! Every message travels as one frame ([`rprism_format::frame`]): a canonical LEB128
//! length prefix, the payload, and the FNV-64 checksum of the payload — the varint and
//! checksum machinery of the on-disk trace format, reused on the wire. Inside a frame,
//! the payload is the protocol version byte followed by the message.
//!
//! The protocol is a strict request/response alternation per connection: the client
//! writes one request frame, the server answers with exactly one response frame, and
//! either side may close between exchanges. Malformed input never kills the server —
//! an undecodable frame or message is answered with [`Response::Error`] (and the
//! connection closed when the stream itself can no longer be trusted, e.g. after a
//! checksum mismatch).
//!
//! # How a message is described
//!
//! Every wire type is described once, and that one description both writes and reads
//! it: a private `Wire` trait, implemented once per type.
//!
//! - The primitives are those of the binary trace encoding. A `u64` or `usize` is a
//!   LEB128 varint; a `usize` that does not fit is a decode error. A `bool` is one
//!   byte, 0 or 1, and any other byte is an error. Byte blobs and UTF-8 strings are
//!   length-prefixed; a string is validated where it lies in the payload, then copied
//!   once. A symbol travels as its string.
//! - A list is its count, then its items; a pair is its two halves.
//! - Every struct and tagged enum is one entry of a single `wire!` table, which
//!   defines the protocol's own types in this module. A struct is its fields in
//!   declaration order. An enum is its variant's tag byte (the `= tag` of each
//!   variant), then that variant's fields. The byte enums ([`EventKind`],
//!   [`WireAlgorithm`], [`Severity`]) are enums whose variants carry nothing.
//!   Reordering a field or a variant's fields changes the bytes.
//!
//! Four fields have a form of their own, each written in one place:
//!
//! - The algorithm override of [`Request::Diff`] and [`Request::Analyze`] is
//!   *trailing-optional*: it is absent when `None`, so a request without one ends
//!   after its last other field, and it is read exactly when bytes remain.
//! - A request's [`AnalysisMode`] override is one byte, with 0 for the engine default;
//!   a report's mode refuses 0.
//! - A diagnostic's rule id is mapped back through the static rule registry; an
//!   unknown id is a decode error.
//! - [`Response::Busy`]'s `u32` is a varint that must fit.
//!
//! Decoding reserves no list larger than the bytes left can hold. Each type knows the
//! fewest bytes it encodes to, and a list's count is bounded by the undecoded bytes
//! divided by that minimum, so a forged count cannot make a small message reserve a
//! large buffer.
//!
//! # Canonical results
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
//! [`WireStats`] is what the repository's `stats` returns. [`WireWatchEvent`] is the
//! one mirror type left, a `u64`-indexed copy of [`ProvisionalEvent`].

use rprism::check::{rules, Diagnostic};
use rprism::{
    AnalysisMode, CheckReport, ProvisionalEvent, RegressionReport, Severity, TraceDiffResult,
};
use rprism_diff::DiffSequence;
use rprism_format::error::{FormatError, Result as FormatResult};
use rprism_format::varint;
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

/// A type with one wire form: `put` writes it and `get` reads it back.
///
/// The impls a list's items pass through (varints, pairs, lists and every `wire!`
/// entry) are `#[inline]`: as calls between codegen units, a 10K-pair `DiffOk`
/// decodes at half the speed.
trait Wire: Sized {
    /// The fewest bytes one encoded value takes; bounds a list's reservation.
    const MIN: usize;

    fn put(&self, buf: &mut Vec<u8>);

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self>;
}

/// Derives each listed type's [`Wire`] impl from one description of it (see the
/// module docs): a struct is its fields in order; an enum is a tag byte, then the
/// variant's fields in order, and an unknown tag is refused as `unknown <what>
/// <tag>`. A `pub` item is also defined here, attributes and docs included; an
/// `impl` item is defined elsewhere. A tuple variant names its one field.
macro_rules! wire {
    () => {};
    (
        $(#[$attr:meta])*
        pub struct $s:ident { $($(#[$fattr:meta])* pub $f:ident: $t:ty),* $(,)? }
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        pub struct $s { $($(#[$fattr])* pub $f: $t),* }
        wire!(impl struct $s { $($f: $t),* } $($rest)*);
    };
    (impl struct $s:ident { $($f:ident: $t:ty),* $(,)? } $($rest:tt)*) => {
        impl Wire for $s {
            const MIN: usize = 0 $(+ <$t as Wire>::MIN)*;

            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                let $s { $($f),* } = self;
                $($f.put(buf);)*
            }

            #[inline]
            fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
                Ok($s { $($f: <$t as Wire>::get(dec)?),* })
            }
        }
        wire!($($rest)*);
    };
    (
        $(#[$attr:meta])*
        pub enum $e:ident $what:literal {
            $($(#[$vattr:meta])* $v:ident
                $(($b:ident: $bt:ty))?
                $({ $($(#[$fattr:meta])* $f:ident: $t:ty),* $(,)? })?
            = $tag:literal),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        pub enum $e { $($(#[$vattr])* $v $(($bt))? $({ $($(#[$fattr])* $f: $t),* })?),* }
        wire!(impl enum $e $what { $($v $(($b: $bt))? $({ $($f: $t),* })? = $tag),* } $($rest)*);
    };
    (
        impl enum $e:ident $what:literal {
            $($v:ident $(($b:ident: $bt:ty))? $({ $($f:ident: $t:ty),* $(,)? })? = $tag:literal),*
            $(,)?
        }
        $($rest:tt)*
    ) => {
        impl Wire for $e {
            /// The tag byte.
            const MIN: usize = 1;

            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($e::$v $(($b))? $({ $($f),* })? => {
                        buf.push($tag);
                        $($b.put(buf);)?
                        $($($f.put(buf);)*)?
                    })*
                }
            }

            #[inline]
            fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
                Ok(match dec.u8()? {
                    $($tag => $e::$v
                        $((<$bt as Wire>::get(dec)?))?
                        $({ $($f: <$t as Wire>::get(dec)?),* })?,)*
                    other => return Err(dec.unknown($what, other)),
                })
            }
        }
        wire!($($rest)*);
    };
}

wire! {
    /// The differencing algorithm a [`Request::Diff`] / [`Request::Analyze`] asks the
    /// server to use. The server applies its configured options for the chosen family;
    /// only the algorithm itself travels on the wire.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum WireAlgorithm "diff algorithm" {
        /// Views-based differencing (§3.3) — the server default.
        Views = 1,
        /// The quadratic LCS baseline (§3.2).
        Lcs = 2,
        /// Anchor-based (patience/histogram) differencing: near-linear on huge traces,
        /// verdict-equivalent to the exact modes but matchings may legitimately differ.
        Anchored = 3,
    }

    /// One client request.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Request "request tag" {
        /// Store a serialized trace (either encoding); the server replies with its
        /// content hash and whether it was already present.
        Put {
            /// The serialized trace bytes, exactly as they would sit in a file.
            bytes: Vec<u8>,
        } = 0x01,
        /// Fetch the stored blob of a content hash.
        Get {
            /// The content hash ([`rprism_format::content_hash`]) of the trace.
            hash: u64,
        } = 0x02,
        /// List the repository's traces.
        List = 0x03,
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
        } = 0x04,
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
        } = 0x05,
        /// Run the `rprism-check` static analysis over a stored trace.
        Check {
            /// The content hash of the trace to check.
            hash: u64,
            /// Per-rule severity overrides (`rule id → severity`), applied in order on
            /// top of the rule defaults — the wire form of
            /// [`CheckConfig::overrides`](rprism::CheckConfig::overrides).
            overrides: Vec<(String, Severity)>,
        } = 0x08,
        /// Open a live watch against a stored trace: the connection enters watch mode,
        /// and subsequent [`Request::PutStream`] chunks carry the growing new trace. The
        /// strict one-request/one-response alternation is preserved — every chunk is
        /// individually acknowledged.
        WatchStart {
            /// Content hash of the stored old (left) trace to diff against.
            old: u64,
            /// How many difference sequences the server renders into the final report.
            max_sequences: u64,
        } = 0x09,
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
        } = 0x0a,
        /// Repository and cache statistics.
        Stats = 0x06,
        /// The server's metrics rendered in the Prometheus text exposition format.
        /// Rendering happens server-side from one consistent snapshot, so what a client
        /// prints is byte-identical to what the server saw.
        Metrics = 0x0b,
        /// The server's own recent execution — its pipeline/repo/request spans plus a
        /// metric snapshot — serialized as a canonical binary trace blob. The blob loads
        /// like any stored trace: `rprism check`, `rprism diff`,
        /// `Engine::load_prepared_reader` all accept it.
        ObsTrace = 0x0c,
        /// Gracefully stop the daemon: in-flight requests drain, then the listener exits.
        Shutdown = 0x07,
    }

    /// One server response.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Response "response tag" {
        /// Outcome of a [`Request::Put`].
        PutOk {
            /// The trace's content hash — the key for every later request.
            hash: u64,
            /// `true` when the repository already held this content (nothing was written).
            deduped: bool,
            /// Number of entries in the trace.
            entries: u64,
        } = 0x81,
        /// The stored blob bytes of a [`Request::Get`].
        GetOk {
            /// The blob exactly as stored.
            bytes: Vec<u8>,
        } = 0x82,
        /// The repository listing of a [`Request::List`].
        ListOk {
            /// One row per stored trace.
            entries: Vec<RepoEntry>,
        } = 0x83,
        /// The result of a [`Request::Diff`].
        DiffOk(diff: WireDiff) = 0x84,
        /// The result of a [`Request::Analyze`]. Decoding it interns every class, method
        /// and field name of its signatures into the process-global interner, which never
        /// frees a string: a long-lived client keeps every distinct name it is sent.
        AnalyzeOk(report: WireReport) = 0x85,
        /// The result of a [`Request::Check`]: the full structured [`CheckReport`], not a
        /// rendering — the client renders locally with the same code a local check uses,
        /// so `rprism remote check` output is byte-identical to `rprism check` over the
        /// same blob. Diagnostic rule ids are spelled out as strings on the wire and
        /// mapped back through the static rule registry on decode (an unknown id is a
        /// decode error).
        CheckOk(report: Box<CheckReport>) = 0x88,
        /// Acknowledges a [`Request::WatchStart`]: the old trace is loaded and the
        /// connection is in watch mode.
        WatchStarted = 0x89,
        /// Acknowledges a non-final [`Request::PutStream`] chunk with the provisional
        /// events the chunk produced (possibly none — e.g. the chunk ended mid-record).
        WatchEvent {
            /// Provisional events, in emission order.
            events: Vec<WireWatchEvent>,
        } = 0x8a,
        /// Answers the final [`Request::PutStream`] chunk: the reconciliation events the
        /// finish produced plus the authoritative diff, byte-identical to a
        /// [`Request::Diff`] of the same pair.
        WatchDone {
            /// Final reconciliation events (authoritative pairs never reported
            /// provisionally, then retractions of provisional pairs the verdict dropped).
            events: Vec<WireWatchEvent>,
            /// The authoritative diff, rendered with the watch's `max_sequences`.
            diff: WireDiff,
        } = 0x8b,
        // Tag 0x8c is retired: it answered a watch denied by an ingest-time check,
        // which no longer exists. Never reuse it.
        /// The statistics snapshot of a [`Request::Stats`].
        StatsOk(stats: WireStats) = 0x86,
        /// The Prometheus text exposition of a [`Request::Metrics`].
        MetricsOk {
            /// The rendered exposition, exactly as the server would serve it.
            text: String,
        } = 0x8d,
        /// The serialized self-trace of a [`Request::ObsTrace`].
        ObsTraceOk {
            /// The canonical binary `.rtr` bytes of the server's self-trace.
            bytes: Vec<u8>,
        } = 0x8e,
        /// Acknowledges a [`Request::Shutdown`]; the daemon stops accepting connections.
        ShutdownOk = 0x87,
        /// The server is saturated and shed this connection before serving any request;
        /// the connection closes after this frame. Clients with a retry policy back off
        /// at least the hinted delay and reconnect.
        Busy {
            /// Server-suggested minimum backoff before retrying.
            retry_after_ms: u32,
        } = 0xfd,
        /// The named blob failed verification when read back and was quarantined. The
        /// repository stays up, and re-uploading the trace heals the entry — unlike
        /// [`Response::Error`], this failure names the hash so clients can do exactly
        /// that.
        Corrupt {
            /// The content hash whose blob was quarantined.
            hash: u64,
            /// Human-readable detail.
            message: String,
        } = 0xfe,
        /// The request failed; the connection stays open unless the transport itself is
        /// compromised.
        Error {
            /// Human-readable failure description.
            message: String,
        } = 0xff,
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

    /// A [`ProvisionalEvent`] in wire form.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum WireWatchEvent "watch event kind" {
        /// The pair entered the provisional similarity set.
        Match {
            /// Old-trace entry index.
            left: u64,
            /// New-trace entry index.
            right: u64,
        } = 1,
        /// A previously emitted pair was retracted.
        Invalidate {
            /// Old-trace entry index.
            left: u64,
            /// New-trace entry index.
            right: u64,
        } = 2,
        /// A provisionally divergent region; either side may be empty, never both.
        Difference {
            /// Skipped old-trace entry indices.
            left: Vec<u64>,
            /// Skipped new-trace entry indices.
            right: Vec<u64>,
        } = 3,
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

    // Types of other crates: their wire form only.
    impl struct DiffSequence { left: Vec<usize>, right: Vec<usize> }
    impl struct DiffSignature {
        kind: EventKind,
        name: Option<Symbol>,
        operands: Box<[(Symbol, ValueFingerprint)]>,
        method: Symbol,
        active_class: Symbol,
    }
    impl struct Diagnostic {
        rule_id: &'static str,
        severity: Severity,
        entry_index: usize,
        message: String,
        related_entries: Vec<usize>,
    }
    impl struct CheckReport {
        trace_name: String,
        entries: usize,
        threads: usize,
        suppressed: usize,
        diagnostics: Vec<Diagnostic>,
    }
    impl enum EventKind "event kind" {
        Get = 1, Set = 2, Call = 3, Return = 4, Init = 5, Fork = 6, End = 7,
    }
    impl enum Severity "severity" { Info = 1, Warning = 2, Error = 3 }
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

// ---------------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------------

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

    #[inline]
    fn u8(&mut self) -> FormatResult<u8> {
        let byte = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.corrupt("message truncated"))?;
        self.pos += 1;
        Ok(byte)
    }

    /// The error for a tag byte no variant of `what` carries.
    #[cold]
    fn unknown(&self, what: &str, tag: u8) -> FormatError {
        self.corrupt(format!("unknown {what} {tag:#04x}"))
    }

    /// A length-prefixed field, borrowed from the payload.
    fn slice(&mut self) -> FormatResult<&'a [u8]> {
        let len = u64::get(self)?;
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

    /// A string field, borrowed from the payload.
    fn str(&mut self) -> FormatResult<&'a str> {
        let bytes = self.slice()?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("string is not valid UTF-8"))
    }

    /// The capacity to reserve for `count` items that take at least `min_bytes`
    /// each: the count, bounded by what the undecoded bytes can hold, so a forged
    /// count cannot reserve more than the message carries.
    fn capacity(&self, count: u64, min_bytes: usize) -> usize {
        let bound = (self.bytes.len() - self.pos) / min_bytes.max(1);
        usize::try_from(count).map_or(bound, |n| n.min(bound))
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

fn len_prefixed(buf: &mut Vec<u8>, bytes: &[u8]) {
    bytes.len().put(buf);
    buf.extend_from_slice(bytes);
}

impl Wire for u64 {
    const MIN: usize = 1;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        varint::write_u64(buf, *self);
    }

    #[inline]
    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        let (value, len) = varint::decode(&dec.bytes[dec.pos..], dec.pos as u64)?;
        dec.pos += len;
        Ok(value)
    }
}

impl Wire for usize {
    const MIN: usize = 1;

    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u64).put(buf);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        let value = u64::get(dec)?;
        usize::try_from(value).map_err(|_| dec.corrupt("count overflows usize"))
    }
}

/// Busy's retry hint, a varint that must fit.
impl Wire for u32 {
    const MIN: usize = 1;

    fn put(&self, buf: &mut Vec<u8>) {
        u64::from(*self).put(buf);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        let value = u64::get(dec)?;
        u32::try_from(value).map_err(|_| dec.corrupt("retry_after_ms overflows u32"))
    }
}

impl Wire for bool {
    const MIN: usize = 1;

    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        match dec.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(dec.corrupt(format!("invalid boolean byte {other:#04x}"))),
        }
    }
}

/// A byte blob, length-prefixed.
impl Wire for Vec<u8> {
    const MIN: usize = 1;

    fn put(&self, buf: &mut Vec<u8>) {
        len_prefixed(buf, self);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        dec.slice().map(<[u8]>::to_vec)
    }
}

/// UTF-8, length-prefixed; decoding validates the borrowed bytes, then copies once.
impl Wire for String {
    const MIN: usize = 1;

    fn put(&self, buf: &mut Vec<u8>) {
        len_prefixed(buf, self.as_bytes());
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        dec.str().map(str::to_owned)
    }
}

/// A symbol travels as its string and is interned only when decoded (see the module
/// docs).
impl Wire for Symbol {
    const MIN: usize = 1;

    fn put(&self, buf: &mut Vec<u8>) {
        len_prefixed(buf, self.as_str().as_bytes());
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        dec.str().map(intern)
    }
}

/// A rule id, the wire's one static string: mapped back through the rule registry,
/// which validates it and recovers the `&'static str` a [`Diagnostic`] carries.
impl Wire for &'static str {
    const MIN: usize = 1;

    fn put(&self, buf: &mut Vec<u8>) {
        len_prefixed(buf, self.as_bytes());
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        let id = dec.str()?;
        Ok(rules::rule(id)
            .ok_or_else(|| dec.corrupt(format!("unknown rule id {id:?}")))?
            .id)
    }
}

impl Wire for ValueFingerprint {
    const MIN: usize = 1;

    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        u64::get(dec).map(ValueFingerprint)
    }
}

/// A list: its count, then its items.
impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 1;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.len().put(buf);
        for item in self {
            item.put(buf);
        }
    }

    #[inline]
    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        let count = u64::get(dec)?;
        let mut out = Vec::with_capacity(dec.capacity(count, T::MIN));
        for _ in 0..count {
            out.push(T::get(dec)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Box<[T]> {
    const MIN: usize = 1;

    fn put(&self, buf: &mut Vec<u8>) {
        self.len().put(buf);
        for item in self.iter() {
            item.put(buf);
        }
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        Vec::get(dec).map(Vec::into_boxed_slice)
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN: usize = T::MIN;

    fn put(&self, buf: &mut Vec<u8>) {
        (**self).put(buf);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        T::get(dec).map(Box::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN: usize = A::MIN + B::MIN;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }

    #[inline]
    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        Ok((A::get(dec)?, B::get(dec)?))
    }
}

/// An optional name: a strict 0/1 flag, then the symbol when present.
impl Wire for Option<Symbol> {
    const MIN: usize = 1;

    fn put(&self, buf: &mut Vec<u8>) {
        self.is_some().put(buf);
        if let Some(symbol) = self {
            symbol.put(buf);
        }
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        Ok(if bool::get(dec)? {
            Some(Symbol::get(dec)?)
        } else {
            None
        })
    }
}

/// A request's analysis-mode override: one byte, 0 for the engine default.
impl Wire for Option<AnalysisMode> {
    const MIN: usize = 1;

    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            None => 0,
            Some(AnalysisMode::Intersect) => 1,
            Some(AnalysisMode::SubtractRegressionSet) => 2,
        });
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        Ok(match dec.u8()? {
            0 => None,
            1 => Some(AnalysisMode::Intersect),
            2 => Some(AnalysisMode::SubtractRegressionSet),
            other => return Err(dec.unknown("analysis mode", other)),
        })
    }
}

/// A report's analysis mode: the override's byte, which may not be the default marker.
impl Wire for AnalysisMode {
    const MIN: usize = 1;

    fn put(&self, buf: &mut Vec<u8>) {
        Some(*self).put(buf);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        Option::get(dec)?.ok_or_else(|| dec.corrupt("report mode cannot be the default marker"))
    }
}

/// The algorithm override, trailing-optional: absent when `None`, so a request
/// without one ends after its last field, and read exactly when bytes remain. Only
/// ever the last field of a message.
impl Wire for Option<WireAlgorithm> {
    const MIN: usize = 0;

    fn put(&self, buf: &mut Vec<u8>) {
        if let Some(algorithm) = self {
            algorithm.put(buf);
        }
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        if dec.pos < dec.bytes.len() {
            WireAlgorithm::get(dec).map(Some)
        } else {
            Ok(None)
        }
    }
}

/// A message's payload: the version byte, then the message.
fn to_payload(message: &impl Wire) -> Vec<u8> {
    let mut buf = vec![PROTO_VERSION];
    message.put(&mut buf);
    buf
}

/// Reads a whole payload as one message; a foreign version byte or a byte left over
/// is an error.
fn from_payload<M: Wire>(bytes: &[u8]) -> FormatResult<M> {
    let mut dec = Dec::new(bytes);
    let version = dec.u8()?;
    if version != PROTO_VERSION {
        return Err(FormatError::UnsupportedVersion {
            found: u16::from(version),
            supported: u16::from(PROTO_VERSION),
        });
    }
    let message = M::get(&mut dec)?;
    dec.finish()?;
    Ok(message)
}

impl Request {
    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        to_payload(self)
    }

    /// Decodes a frame payload into a request.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] on a version mismatch, unknown tag, or malformed field
    /// — the server answers these with a structured error frame.
    pub fn decode(bytes: &[u8]) -> FormatResult<Request> {
        from_payload(bytes)
    }
}

impl Response {
    /// Serializes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        to_payload(self)
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
        from_payload(bytes)
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
            u64::put(&value, &mut legacy_diff);
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
            u64::put(&hash, &mut legacy_analyze);
        }
        legacy_analyze.push(0); // mode: engine default
        u64::put(&6, &mut legacy_analyze);
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
            Request::decode(&[99, 0x03]),
            Err(FormatError::UnsupportedVersion { found: 99, .. })
        ));
        // Unknown tag.
        assert!(Request::decode(&[PROTO_VERSION, 0x7f]).is_err());
        // Trailing garbage.
        assert!(Request::decode(&[PROTO_VERSION, 0x03, 0x00]).is_err());
        // Truncated field.
        let mut put = Request::Put {
            bytes: vec![1; 100],
        }
        .encode();
        put.truncate(10);
        assert!(Request::decode(&put).is_err());
        // A forged count on any list is refused without reserving for it. Each case
        // is a whole message around one list's count: with count 0 it decodes, with
        // `u64::MAX` it is an error.
        let varints = |values: &[u64]| {
            let mut buf = Vec::new();
            values.iter().for_each(|value| value.put(&mut buf));
            buf
        };
        let text = |s: &str| {
            let mut buf = Vec::new();
            s.to_owned().put(&mut buf);
            buf
        };
        let diff = |before: &[u64], after: &[u64]| {
            let tail = [varints(after), varints(&[0, 0]), text("")].concat();
            (
                0x84,
                [text("views"), varints(&[9, 9]), varints(before)].concat(),
                tail,
            )
        };
        let report = [text("t"), varints(&[1, 1, 0])].concat();
        let diagnostic = [text("end-stack"), vec![2], varints(&[0]), text("m")].concat();
        let related = [report.clone(), varints(&[1]), diagnostic].concat();
        let cases = [
            ("DiffOk pairs", diff(&[], &[0])),
            ("DiffOk sequences", diff(&[0], &[])),
            ("a sequence's indices", diff(&[0, 1], &[0])),
            ("ListOk entries", (0x83, vec![], vec![])),
            ("Check overrides", (0x08, varints(&[42]), vec![])),
            ("CheckOk diagnostics", (0x88, report, vec![])),
            ("a diagnostic's related entries", (0x88, related, vec![])),
            ("WatchEvent events", (0x8a, vec![], vec![])),
            ("Difference left", (0x8a, vec![1, 3], varints(&[0]))),
            ("Difference right", (0x8a, vec![1, 3, 0], vec![])),
        ];
        for (list, (tag, before, after)) in cases {
            for count in [0, u64::MAX] {
                let frame = [vec![PROTO_VERSION, tag], before.clone()].concat();
                let frame = [frame, varints(&[count]), after.clone()].concat();
                let decoded = if tag < 0x80 {
                    Request::decode(&frame).map(drop)
                } else {
                    Response::decode(&frame).map(drop)
                };
                assert_eq!(decoded.is_ok(), count == 0, "{list}, count {count}");
            }
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
        u64::put(&0xfeed, &mut get);
        let mut check = vec![PROTO_VERSION, 0x08];
        u64::put(&42, &mut check);
        u64::put(&0, &mut check); // no overrides
        let mut watch = vec![PROTO_VERSION, 0x09];
        u64::put(&7, &mut watch);
        u64::put(&3, &mut watch);
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
            u64::put(&value, &mut expected);
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
        set.as_slice().to_vec().put(&mut frame);
        let back = Vec::<DiffSignature>::get(&mut Dec::new(&frame)).unwrap();
        assert_eq!(back, set.as_slice());
    }
}
