//! # rprism-format
//!
//! The portable on-disk trace format of the RPrism reproduction: a versioned container
//! for [`Trace`]s with two interchangeable encodings and fully streaming readers and
//! writers. This is the system's ingestion boundary — the paper's case studies analyze
//! traces captured from real programs, and this crate is how such externally captured
//! traces get in (and how every trace the in-process VM produces gets out).
//!
//! ## Encodings
//!
//! * [`Encoding::Binary`] (`.rtr`) — the compact interchange form: a `RPTR` magic +
//!   version header, a deduplicated define-before-use string table, varint-packed
//!   entry records, and a footer with the entry count and an FNV-1a 64 checksum of the
//!   whole stream. The full byte-level grammar is documented in [`binary`].
//! * [`Encoding::Jsonl`] (`.jsonl`) — a line-oriented JSON text form for human
//!   authoring and external tooling: a header line, one self-describing object per
//!   entry, and an optional trailer (strict schema; unknown keys are rejected).
//!   The line schema is documented in [`jsonl`].
//!
//! Both encodings are **deterministic and byte-stable**: encoding a trace, decoding it,
//! and encoding the result reproduces the first byte stream exactly. The committed
//! golden corpus under `tests/corpus/` pins this down for the four case studies.
//!
//! ## Streaming
//!
//! [`TraceWriter`] pushes each entry straight to the underlying `Write`, and
//! [`TraceReader`] hands out decoded entries a bounded batch at a time, as owned
//! [`TraceEntry`]s or as an [`EntryBatch`] of symbols. Neither ever materializes more
//! than one batch beyond the [`Trace`] the caller is building, so arbitrarily long
//! traces stream through bounded memory (plus the string table).
//!
//! ## Errors
//!
//! Malformed input is a value, not a panic: every reader returns [`FormatError`] —
//! wrong magic, unsupported version, truncation, corrupt records, checksum mismatches,
//! schema violations — with byte offsets (binary) or line numbers (JSONL).
//!
//! The integrity guarantees differ by encoding, on purpose. **Binary** is the
//! interchange form: the checksummed, entry-counted footer means truncating the stream
//! at *any* byte or flipping *any* single byte yields `Err` (the corruption property
//! tests assert exactly this, exhaustively). **JSONL** is the authoring form: damage
//! inside a line and a wrong trailer count are detected, but because the trailer is
//! optional (hand-written files need not maintain a count), a file cut precisely at a
//! line boundary reads as a shorter trace. Use the binary encoding when integrity
//! matters more than editability.
//!
//! ## Quickstart
//!
//! ```
//! use rprism_format::{read_trace_path, write_trace_path, Encoding};
//! use rprism_trace::{Trace, TraceMeta};
//!
//! let dir = std::env::temp_dir().join(format!("rprism-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("demo.rtr");
//!
//! let mut trace = Trace::new(TraceMeta::new("demo", "v1", "t1"));
//! // … record entries …
//! write_trace_path(&trace, &path, Encoding::Binary)?;
//! let loaded = read_trace_path(&path)?; // encoding is sniffed from the content
//! assert_eq!(loaded, trace);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), rprism_format::FormatError>(())
//! ```
//!
//! On the command line the same files feed the `rprism` binary:
//! `rprism diff a.rtr b.rtr` runs the views-based semantic diff over two stored traces.

pub mod binary;
pub mod error;
pub mod fault;
pub mod frame;
pub mod json;
pub mod jsonl;
pub mod tail;
pub mod varint;
mod window;

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use rprism_trace::{EntryBatch, Trace, TraceEntry, TraceMeta};

pub use binary::{BinaryTraceReader, BinaryTraceWriter, Fnv64, FORMAT_VERSION, MAGIC};
pub use error::{FormatError, Result};
pub use jsonl::{JsonlTraceReader, JsonlTraceWriter, JSONL_VERSION};
pub use tail::TailDecoder;

use window::Window;

/// The UTF-8 byte-order mark a stream may open with; it is not part of the trace.
pub(crate) const BOM: [u8; 3] = [0xef, 0xbb, 0xbf];

/// Outcome of one tail-mode batch read over a growing stream
/// ([`TraceReader::read_batch_tail`], [`TraceReader::read_refs_tail`] and the
/// per-encoding readers' forms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailBatch {
    /// This many entries were decoded into the output batch (non-zero unless the
    /// call asked for none).
    Entries(usize),
    /// No complete entry is available right now; try again after the source grows.
    Pending,
    /// The verified end of the trace was reached with no further entries.
    End,
}

impl TailBatch {
    /// The outcome of a batch of `read` entries that stopped where the input ran dry
    /// (`dry`), at the verified end (`done`), or at its size limit.
    pub(crate) fn after(read: usize, dry: bool, done: bool) -> Self {
        match read {
            0 if dry => TailBatch::Pending,
            0 if done => TailBatch::End,
            n => TailBatch::Entries(n),
        }
    }
}

/// The two on-disk encodings of a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Encoding {
    /// Compact binary encoding (`.rtr`): magic + version header, deduplicated string
    /// table, varint-packed events, checksummed footer.
    #[default]
    Binary,
    /// Line-oriented JSON text encoding (`.jsonl`): human-authorable, strict schema.
    Jsonl,
}

impl Encoding {
    /// The conventional file extension of this encoding (`rtr` / `jsonl`).
    pub fn extension(self) -> &'static str {
        match self {
            Encoding::Binary => "rtr",
            Encoding::Jsonl => "jsonl",
        }
    }

    /// Picks the encoding conventionally associated with a path's extension:
    /// `.jsonl`/`.json` mean JSONL, everything else means binary.
    pub fn for_path(path: &Path) -> Encoding {
        match path.extension().and_then(|e| e.to_str()) {
            Some("jsonl") | Some("json") => Encoding::Jsonl,
            _ => Encoding::Binary,
        }
    }
}

impl std::fmt::Display for Encoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Encoding::Binary => "binary",
            Encoding::Jsonl => "jsonl",
        })
    }
}

impl std::str::FromStr for Encoding {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "binary" | "rtr" => Ok(Encoding::Binary),
            "jsonl" | "json" | "text" => Ok(Encoding::Jsonl),
            other => Err(format!(
                "unknown encoding {other:?} (expected `binary` or `jsonl`)"
            )),
        }
    }
}

/// A streaming trace writer over either encoding: entries go to the underlying stream
/// one at a time.
pub enum TraceWriter<W: Write> {
    /// Writing the binary encoding.
    Binary(BinaryTraceWriter<W>),
    /// Writing the JSONL encoding.
    Jsonl(JsonlTraceWriter<W>),
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace stream in the given encoding, writing the header immediately.
    pub fn new(out: W, meta: &TraceMeta, encoding: Encoding) -> Result<Self> {
        Ok(match encoding {
            Encoding::Binary => TraceWriter::Binary(BinaryTraceWriter::new(out, meta)?),
            Encoding::Jsonl => TraceWriter::Jsonl(JsonlTraceWriter::new(out, meta)?),
        })
    }

    /// Appends one entry. The entry's `eid` is ignored; ids are implicit in order.
    pub fn write_entry(&mut self, entry: &TraceEntry) -> Result<()> {
        match self {
            TraceWriter::Binary(w) => w.write_entry(entry),
            TraceWriter::Jsonl(w) => w.write_entry(entry),
        }
    }

    /// Writes the footer/trailer, flushes, and returns the underlying writer. Streams
    /// that are never finished read back as truncated (binary) or trailer-less (JSONL).
    pub fn finish(self) -> Result<W> {
        match self {
            TraceWriter::Binary(w) => w.finish(),
            TraceWriter::Jsonl(w) => w.finish(),
        }
    }
}

/// A streaming trace reader over either encoding, produced by [`TraceReader::new`]
/// (content sniffing) or the per-encoding constructors.
pub enum TraceReader<R: Read> {
    /// Reading the binary encoding.
    Binary(BinaryTraceReader<R>),
    /// Reading the JSONL encoding.
    Jsonl(JsonlTraceReader<R>),
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace stream, sniffing the encoding from its first bytes.
    ///
    /// A UTF-8 byte-order mark is accepted and stripped first (text editors and
    /// Windows tooling routinely prepend one). After that, streams opening with the
    /// `RPTR` magic are binary — including damaged binary streams, so header problems
    /// surface as precise binary diagnostics ([`FormatError::UnsupportedVersion`],
    /// reserved-flag corruption) rather than JSONL parse noise. A stream that ends
    /// inside the magic itself (e.g. a binary trace cut off mid-upload) reports
    /// truncation instead of being misread as JSONL, and an empty stream reports a
    /// dedicated message. Everything else is treated as JSONL.
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] when the stream is empty, ends inside a binary
    /// header, or the header of the sniffed encoding is invalid.
    pub fn new(input: R) -> Result<Self> {
        Self::sniff(Window::new(input))
    }

    /// [`Self::new`] over a window that may already hold the stream's first bytes. A
    /// BOM is stepped past: offsets and checksums count from the byte after it.
    pub(crate) fn sniff(mut window: Window<R>) -> Result<Self> {
        window.ensure(BOM.len() + MAGIC.len())?;
        if window.ahead().starts_with(&BOM) {
            window.skip_prefix(BOM.len());
        }
        let head = window.ahead();
        if head.is_empty() {
            return Err(FormatError::Corrupt {
                offset: 0,
                detail: "empty trace stream (expected an RPTR binary header or a JSONL \
                         header line)"
                    .into(),
            });
        }
        if head.len() < MAGIC.len() && MAGIC.starts_with(head) {
            // The whole stream is a strict prefix of the binary magic: a truncated
            // binary trace, not a JSONL document.
            return Err(FormatError::Truncated {
                offset: head.len() as u64,
            });
        }
        Ok(if head.starts_with(&MAGIC) {
            TraceReader::Binary(BinaryTraceReader::from_window(window)?)
        } else {
            TraceReader::Jsonl(JsonlTraceReader::from_window(window)?)
        })
    }

    /// Appends received bytes to the reader's window, as if its input had read them.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        match self {
            TraceReader::Binary(r) => r.window.push(bytes),
            TraceReader::Jsonl(r) => r.window.push(bytes),
        }
    }

    /// The trace metadata from the stream header.
    pub fn meta(&self) -> &TraceMeta {
        match self {
            TraceReader::Binary(r) => r.meta(),
            TraceReader::Jsonl(r) => r.meta(),
        }
    }

    /// Which encoding the stream turned out to use.
    pub fn encoding(&self) -> Encoding {
        match self {
            TraceReader::Binary(_) => Encoding::Binary,
            TraceReader::Jsonl(_) => Encoding::Jsonl,
        }
    }

    /// Decodes the next entry, or `Ok(None)` after the verified end of the stream.
    pub fn next_entry(&mut self) -> Result<Option<TraceEntry>> {
        match self {
            TraceReader::Binary(r) => r.next_entry(),
            TraceReader::Jsonl(r) => r.next_entry(),
        }
    }

    /// Decodes up to `max` entries into `out` (cleared first) from a stream that may
    /// still be growing. An input that ends mid-record yields whatever complete
    /// entries preceded the cut and then the [`TailBatch::Pending`] state instead of a
    /// truncation error: the partial record's bytes are retained, and calling again
    /// after the source grows resumes exactly where decoding stopped. When the caller
    /// decides the source has stopped growing, it switches to [`Self::next_entry`] /
    /// [`Self::read_refs`], which apply each encoding's strict end-of-stream
    /// semantics to whatever remains.
    ///
    /// # Errors
    ///
    /// Propagates the first *corruption* error (bad tags, checksum/trailer mismatches,
    /// schema violations); running out of bytes is never an error in this mode.
    pub fn read_batch_tail(&mut self, out: &mut Vec<TraceEntry>, max: usize) -> Result<TailBatch> {
        out.clear();
        match self {
            TraceReader::Binary(r) => r.read_batch_tail(out, max),
            TraceReader::Jsonl(r) => r.read_batch_tail(out, max),
        }
    }

    /// Decodes up to `max` further entries into `out` (appending) under the strict
    /// end-of-stream semantics, returning how many arrived, `0` only after the
    /// verified end of the stream.
    pub(crate) fn append_batch(&mut self, out: &mut Vec<TraceEntry>, max: usize) -> Result<usize> {
        match self {
            TraceReader::Binary(r) => r.read_batch(out, max),
            TraceReader::Jsonl(r) => {
                let mut read = 0;
                while read < max {
                    let Some(entry) = r.next_entry()? else { break };
                    out.push(entry);
                    read += 1;
                }
                Ok(read)
            }
        }
    }

    /// Decodes up to `max` further entries into `out` (cleared first) at the level of
    /// symbols — the form ingest, check and watch consume — returning how many
    /// arrived, `0` only after the verified end of the stream. Binary input never
    /// builds a [`TraceEntry`] (see [`BinaryTraceReader::read_refs`]); JSONL entries
    /// are decoded and go through the [`EntryBatch::push`] adapter.
    ///
    /// # Errors
    ///
    /// Propagates the first decode error.
    pub fn read_refs(&mut self, out: &mut EntryBatch, max: usize) -> Result<usize> {
        out.clear();
        self.append_refs(out, max)
    }

    /// [`Self::read_refs`] without clearing `out` first.
    pub(crate) fn append_refs(&mut self, out: &mut EntryBatch, max: usize) -> Result<usize> {
        if let TraceReader::Binary(r) = self {
            return r.read_refs(out, max);
        }
        let mut entries = Vec::new();
        let read = self.append_batch(&mut entries, max)?;
        entries.iter().for_each(|entry| out.push(entry));
        Ok(read)
    }

    /// The tail-mode form of [`Self::read_refs`], with [`Self::read_batch_tail`]'s
    /// semantics.
    ///
    /// # Errors
    ///
    /// Exactly [`Self::read_batch_tail`]'s.
    pub fn read_refs_tail(&mut self, out: &mut EntryBatch, max: usize) -> Result<TailBatch> {
        out.clear();
        if let TraceReader::Binary(r) = self {
            return r.read_refs_tail(out, max);
        }
        let mut entries = Vec::new();
        let outcome = self.read_batch_tail(&mut entries, max)?;
        entries.iter().for_each(|entry| out.push(entry));
        Ok(outcome)
    }

    /// Reads all remaining entries into a [`Trace`], validating the stream end.
    pub fn into_trace(mut self) -> Result<Trace> {
        let mut trace = Trace::new(self.meta().clone());
        while self.append_batch(&mut trace.entries, usize::MAX)? > 0 {}
        // Entry ids are stream positions: renumber past entries a caller already took.
        if let Some(taken) = trace.entries.first().map(|entry| entry.eid.0) {
            for entry in &mut trace.entries {
                entry.eid.0 -= taken;
            }
        }
        Ok(trace)
    }
}

/// Serializes a whole trace to a `Write` in the given encoding.
pub fn write_trace(trace: &Trace, out: impl Write, encoding: Encoding) -> Result<()> {
    let mut writer = TraceWriter::new(out, &trace.meta, encoding)?;
    for entry in trace {
        writer.write_entry(entry)?;
    }
    writer.finish()?;
    Ok(())
}

/// Serializes a whole trace to a freshly created file in the given encoding.
pub fn write_trace_path(trace: &Trace, path: impl AsRef<Path>, encoding: Encoding) -> Result<()> {
    let file = File::create(path.as_ref())?;
    write_trace(trace, BufWriter::new(file), encoding)
}

/// Serializes a whole trace to bytes in the given encoding.
pub fn trace_to_bytes(trace: &Trace, encoding: Encoding) -> Result<Vec<u8>> {
    let mut writer = TraceWriter::new(Vec::new(), &trace.meta, encoding)?;
    for entry in trace {
        writer.write_entry(entry)?;
    }
    writer.finish()
}

/// Deserializes a whole trace from a reader, sniffing the encoding.
pub fn read_trace(input: impl Read) -> Result<Trace> {
    TraceReader::new(input)?.into_trace()
}

/// Deserializes a whole trace from a file, sniffing the encoding.
pub fn read_trace_path(path: impl AsRef<Path>) -> Result<Trace> {
    read_trace(File::open(path.as_ref())?)
}

/// Deserializes a whole trace from bytes, sniffing the encoding.
pub fn trace_from_bytes(bytes: &[u8]) -> Result<Trace> {
    read_trace(bytes)
}

/// What [`content_summary`] learns about a trace stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContentSummary {
    /// The encoding-independent content hash (see [`content_hash`]).
    pub hash: u64,
    /// Number of entries in the stream.
    pub entries: u64,
    /// The trace metadata from the stream header.
    pub meta: TraceMeta,
    /// The encoding the stream turned out to use.
    pub encoding: Encoding,
}

/// An `io::Write` that discards its bytes into a running [`Fnv64`] — the sink behind
/// the re-encoding content hash.
struct HashSink {
    hash: Fnv64,
}

impl Write for HashSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.hash.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The **encoding-independent content hash** of a serialized trace: the FNV-1a 64 of
/// the canonical *binary* encoding of the trace the bytes decode to.
///
/// Because the binary encoding is deterministic and byte-stable, two streams that
/// decode to the same trace — a `.rtr` file and its JSONL conversion, or the same
/// upload sent twice — hash identically. This is the content-addressing key of the
/// `rprism-server` trace repository: re-uploads deduplicate regardless of which
/// encoding the client happened to send.
///
/// The input itself picks how the hash is computed:
///
/// * **Binary in the canonical layout** (see [`binary`]) — every stream
///   [`BinaryTraceWriter`] produced — *is* its canonical encoding. One pass of the
///   walk every binary read runs checks the bytes without building an entry, and
///   the hash is the FNV-1a 64 of the stream itself.
/// * **Anything else** — JSONL, or binary laid out differently (a string defined
///   early, twice, or never used) — is decoded a batch at a time and each entry is
///   re-encoded into the hash; the trace is never materialized.
///
/// A leading UTF-8 byte-order mark is not part of the trace: a stream hashes like its
/// BOM-less form.
///
/// The input is fully validated either way (footer checksum, trailer count, schema),
/// so a corrupt stream yields exactly the error [`trace_from_bytes`] reports, never a
/// hash. Hashing never interns: the names of a rejected upload leave nothing behind
/// in the process-global interner.
///
/// # Errors
///
/// Returns the stream's first [`FormatError`] (empty/truncated/corrupt input or an
/// unsupported version).
pub fn content_hash(bytes: &[u8]) -> Result<u64> {
    content_summary(bytes).map(|summary| summary.hash)
}

/// [`content_hash`] plus the entry count, metadata and detected encoding — everything a
/// trace repository records about a blob without materializing it. Canonical binary
/// input takes the validating walk, everything else the decode-and-re-encode pass
/// (see [`content_hash`]).
///
/// # Errors
///
/// Returns the stream's first [`FormatError`], the same one [`trace_from_bytes`]
/// reports.
pub fn content_summary(bytes: &[u8]) -> Result<ContentSummary> {
    let body = bytes.strip_prefix(&BOM).unwrap_or(bytes);
    if body.starts_with(&MAGIC) {
        let reader = BinaryTraceReader::new(body)?;
        let meta = reader.meta().clone();
        if let (entries, Some(hash)) = reader.validate()? {
            return Ok(ContentSummary {
                hash,
                entries,
                meta,
                encoding: Encoding::Binary,
            });
        }
    }
    reencoded_summary(bytes)
}

/// [`content_summary`] by decoding every entry and re-encoding it canonically into
/// the hash: the path for JSONL and non-canonical binary input.
fn reencoded_summary(input: &[u8]) -> Result<ContentSummary> {
    let mut reader = TraceReader::new(input)?;
    let meta = reader.meta().clone();
    let encoding = reader.encoding();
    let mut writer = TraceWriter::new(HashSink { hash: Fnv64::new() }, &meta, Encoding::Binary)?;
    let mut entries = 0u64;
    let mut batch = Vec::new();
    while reader.append_batch(&mut batch, 256)? > 0 {
        for entry in batch.drain(..) {
            writer.write_entry(&entry)?;
            entries += 1;
        }
    }
    let sink = writer.finish()?;
    Ok(ContentSummary {
        hash: sink.hash.finish(),
        entries,
        meta,
        encoding,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_trace::testgen::{arbitrary_entry, Rng};
    use std::io::BufReader;

    fn sample_trace(seed: u64, len: usize) -> Trace {
        let mut rng = Rng::new(seed);
        let mut t = Trace::new(TraceMeta::new("facade", "v1", "t1"));
        for _ in 0..len {
            t.push(arbitrary_entry(&mut rng));
        }
        t
    }

    #[test]
    fn sniffing_dispatches_on_content_not_extension() {
        let trace = sample_trace(1, 40);
        for encoding in [Encoding::Binary, Encoding::Jsonl] {
            let bytes = trace_to_bytes(&trace, encoding).unwrap();
            let reader = TraceReader::new(BufReader::new(bytes.as_slice())).unwrap();
            assert_eq!(reader.encoding(), encoding);
            assert_eq!(reader.into_trace().unwrap(), trace);
        }
    }

    #[test]
    fn empty_input_is_an_error_not_a_panic() {
        assert!(trace_from_bytes(b"").is_err());
        assert!(trace_from_bytes(b"RPT").is_err());
        assert!(trace_from_bytes(b"garbage that is not json").is_err());
    }

    #[test]
    fn path_round_trip_with_sniffing() {
        let dir = std::env::temp_dir().join(format!("rprism-format-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = sample_trace(7, 25);
        for encoding in [Encoding::Binary, Encoding::Jsonl] {
            let path = dir.join(format!("t.{}", encoding.extension()));
            write_trace_path(&trace, &path, encoding).unwrap();
            assert_eq!(read_trace_path(&path).unwrap(), trace);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crlf_jsonl_loads_through_the_sniffing_path() {
        // The CRLF regression fixture must load through the unified sniffing reader
        // too, not only the direct JSONL reader (covered in `jsonl::tests`).
        let trace = sample_trace(21, 25);
        let text = String::from_utf8(trace_to_bytes(&trace, Encoding::Jsonl).unwrap()).unwrap();
        let crlf = text.replace('\n', "\r\n");
        let reader = TraceReader::new(BufReader::new(crlf.as_bytes())).unwrap();
        assert_eq!(reader.encoding(), Encoding::Jsonl);
        assert_eq!(reader.into_trace().unwrap(), trace);
    }

    #[test]
    fn content_hash_is_equal_across_encodings() {
        let trace = sample_trace(13, 60);
        let binary = trace_to_bytes(&trace, Encoding::Binary).unwrap();
        let jsonl = trace_to_bytes(&trace, Encoding::Jsonl).unwrap();
        let from_binary = content_hash(binary.as_slice()).unwrap();
        let from_jsonl = content_hash(jsonl.as_slice()).unwrap();
        assert_eq!(
            from_binary, from_jsonl,
            "the repo key must not depend on the serialization a client chose"
        );
        // And a CRLF re-lining of the text form still names the same trace.
        let crlf = String::from_utf8(jsonl).unwrap().replace('\n', "\r\n");
        assert_eq!(content_hash(crlf.as_bytes()).unwrap(), from_binary);

        // Different content (or different metadata) hashes differently.
        let other = sample_trace(14, 60);
        let other_bytes = trace_to_bytes(&other, Encoding::Binary).unwrap();
        assert_ne!(content_hash(other_bytes.as_slice()).unwrap(), from_binary);

        let summary = content_summary(binary.as_slice()).unwrap();
        assert_eq!(summary.hash, from_binary);
        assert_eq!(summary.entries, trace.len() as u64);
        assert_eq!(summary.meta, trace.meta);
        assert_eq!(summary.encoding, Encoding::Binary);
    }

    #[test]
    fn content_hash_of_damaged_streams_is_an_error() {
        let trace = sample_trace(15, 40);
        let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
        assert!(content_hash(&bytes[..bytes.len() - 3]).is_err());
        assert!(content_hash(&b""[..]).is_err());
    }

    /// A `Read` over a shared queue that can grow between reads — `Ok(0)` whenever the
    /// queue is momentarily empty, like a tailed file at its current end.
    struct GrowingSource(std::rc::Rc<std::cell::RefCell<std::collections::VecDeque<u8>>>);

    impl Read for GrowingSource {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let mut queue = self.0.borrow_mut();
            let n = buf.len().min(queue.len());
            for slot in buf.iter_mut().take(n) {
                *slot = queue.pop_front().unwrap();
            }
            Ok(n)
        }
    }

    #[test]
    fn read_batch_tail_resumes_after_the_source_grows() {
        // Regression for tailing a growing file: a stream cut mid-record must be a
        // resumable Pending state, and decoding must pick up exactly where it stopped
        // once the rest of the bytes arrive — for both encodings.
        let trace = sample_trace(31, 30);
        for encoding in [Encoding::Binary, Encoding::Jsonl] {
            let bytes = trace_to_bytes(&trace, encoding).unwrap();
            let queue =
                std::rc::Rc::new(std::cell::RefCell::new(std::collections::VecDeque::new()));
            let cuts = [bytes.len() / 3, 2 * bytes.len() / 3, bytes.len()];
            queue.borrow_mut().extend(bytes[..cuts[0]].iter().copied());
            let mut reader =
                TraceReader::new(BufReader::new(GrowingSource(queue.clone()))).unwrap();
            let mut got = Vec::new();
            let mut batch = Vec::new();
            let mut ended = false;
            let mut fed = cuts[0];
            for &cut in &cuts[1..] {
                loop {
                    match reader.read_batch_tail(&mut batch, 8).unwrap() {
                        TailBatch::Entries(n) => {
                            assert_eq!(n, batch.len());
                            got.append(&mut batch);
                        }
                        TailBatch::Pending => break,
                        TailBatch::End => {
                            ended = true;
                            break;
                        }
                    }
                }
                assert!(!ended, "stream ended before all bytes were fed");
                queue.borrow_mut().extend(bytes[fed..cut].iter().copied());
                fed = cut;
            }
            loop {
                match reader.read_batch_tail(&mut batch, 8).unwrap() {
                    TailBatch::Entries(_) => got.append(&mut batch),
                    TailBatch::Pending => panic!("{encoding}: pending after full stream"),
                    TailBatch::End => break,
                }
            }
            assert_eq!(got.len(), trace.len(), "{encoding}");
            for (a, b) in got.iter().zip(trace.iter()) {
                assert_eq!(a, b, "{encoding}");
            }
        }
    }

    #[test]
    fn strict_truncation_does_not_poison_a_binary_reader() {
        // The latent strict-reader edge case: `next_entry` on a file that ends
        // mid-record used to consume the partial record irrecoverably, so retrying
        // after the file grew mis-decoded from the middle of a record. Now the error
        // is still reported (strict mode) but the reader stays at the last record
        // boundary and the retry succeeds.
        let trace = sample_trace(17, 25);
        let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
        let queue = std::rc::Rc::new(std::cell::RefCell::new(std::collections::VecDeque::new()));
        let cut = bytes.len() / 2;
        queue.borrow_mut().extend(bytes[..cut].iter().copied());
        let mut reader = TraceReader::new(BufReader::new(GrowingSource(queue.clone()))).unwrap();
        let mut got = Vec::new();
        loop {
            match reader.next_entry() {
                Ok(None) => panic!("stream must not end cleanly without a footer"),
                Ok(Some(entry)) => got.push(entry),
                Err(FormatError::Truncated { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        queue.borrow_mut().extend(bytes[cut..].iter().copied());
        while let Some(entry) = reader.next_entry().unwrap() {
            got.push(entry);
        }
        assert_eq!(got.len(), trace.len());
        for (a, b) in got.iter().zip(trace.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn encoding_conventions() {
        assert_eq!(Encoding::for_path(Path::new("a.rtr")), Encoding::Binary);
        assert_eq!(Encoding::for_path(Path::new("a.jsonl")), Encoding::Jsonl);
        assert_eq!(Encoding::for_path(Path::new("a")), Encoding::Binary);
        assert_eq!("jsonl".parse::<Encoding>().unwrap(), Encoding::Jsonl);
        assert_eq!("binary".parse::<Encoding>().unwrap(), Encoding::Binary);
        assert!("xml".parse::<Encoding>().is_err());
        assert_eq!(Encoding::Binary.to_string(), "binary");
    }
}
