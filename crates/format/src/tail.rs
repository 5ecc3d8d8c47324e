//! Push-driven decoding of a trace that arrives as raw byte chunks.
//!
//! [`TailDecoder`] adapts the pull-oriented [`TraceReader`] to the
//! shape a streaming upload has on the receiving side: bytes arrive in arbitrary
//! chunks (network frames, pipe reads, file-tail polls), and the receiver wants every
//! entry that is decodable *so far* without ever blocking on more input. It is the
//! decode stage of the live-watch path: the `rprism-server` feeds each `PutStream`
//! frame's payload in and folds the entries into its incremental diff session.
//!
//! Lifecycle:
//!
//! 1. [`TailDecoder::push_bytes`] appends a chunk. Until enough bytes have arrived to
//!    parse the stream header (encoding sniff included), the decoder stashes them;
//!    once the header parses, [`meta`](TailDecoder::meta) becomes available.
//! 2. [`TailDecoder::read_batch`] drains up to a batch of fully decodable entries,
//!    reporting [`TailBatch::Pending`] while the stream currently ends mid-record and
//!    [`TailBatch::End`] once the verified end (binary footer / JSONL trailer) is
//!    reached.
//! 3. When the sender declares the upload complete, [`TailDecoder::finish`] applies
//!    the encoding's strict end-of-stream semantics to whatever remains: a binary
//!    stream still pending reports truncation; a JSONL stream gets the
//!    unterminated-final-line grace and its implicit trailer-less end.
//!
//! The decoder owns a [`TraceReader`] whose input is always dry: a pushed chunk is
//! copied once, onto the end of that reader's byte window, and decoding reads it
//! there. The bytes of a record (or JSONL line) cut short by the current end of the
//! stream stay in the window until the rest arrives.

use std::io::Empty;

use rprism_trace::{EntryBatch, TraceEntry, TraceMeta};

use crate::error::{FormatError, Result};
use crate::window::Window;
use crate::{TailBatch, TraceReader, BOM, MAGIC};

/// See the module docs.
#[derive(Default)]
pub struct TailDecoder {
    /// Bytes received before the header could be parsed.
    stash: Vec<u8>,
    /// The reader, once the header has parsed; pushed bytes go onto its window.
    reader: Option<TraceReader<Empty>>,
}

impl TailDecoder {
    /// A decoder with no bytes yet.
    pub fn new() -> Self {
        TailDecoder::default()
    }

    /// Appends one chunk of the incoming stream. Returns `Ok(())` while the stream is
    /// well-formed so far; header-level damage (bad magic, unsupported version, a
    /// malformed JSONL header line) surfaces here as soon as it is decidable.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        match &mut self.reader {
            Some(reader) => {
                reader.push(bytes);
                Ok(())
            }
            None => {
                self.stash.extend_from_slice(bytes);
                self.try_open()
            }
        }
    }

    /// Attempts to construct the reader from the stash. Insufficient data is not an
    /// error — the decoder simply stays in the stashing state.
    fn try_open(&mut self) -> Result<()> {
        if !self.header_could_be_complete() {
            return Ok(());
        }
        match TraceReader::sniff(self.stash_window()) {
            Ok(reader) => {
                self.stash.clear();
                self.reader = Some(reader);
                Ok(())
            }
            // The header itself is still arriving: keep stashing. (The abandoned
            // reader is dropped; the stash still holds every byte.)
            Err(FormatError::Truncated { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// A window holding the stashed bytes over an input that is always dry.
    fn stash_window(&self) -> Window<Empty> {
        let mut window = Window::new(std::io::empty());
        window.push(&self.stash);
        window
    }

    /// Whether the stash plausibly contains a complete header. Binary headers are
    /// variable-length, so construction is attempted and a truncation result means
    /// "wait"; JSONL headers are exactly one non-blank line, so construction waits for
    /// a newline (otherwise a half-written header line would be misparsed).
    fn header_could_be_complete(&self) -> bool {
        let content = self
            .stash
            .strip_prefix(BOM.as_slice())
            .unwrap_or(&self.stash);
        if content.is_empty() {
            return false;
        }
        if MAGIC.starts_with(&content[..content.len().min(MAGIC.len())]) {
            // A (prefix of a) binary stream: the reader reports truncation while the
            // header is incomplete, which `try_open` treats as "wait".
            return true;
        }
        // JSONL: wait until a complete non-blank line has arrived, i.e. until the
        // bytes up to the last newline hold more than whitespace.
        let lines = content.iter().rposition(|&b| b == b'\n').unwrap_or(0);
        content[..lines].iter().any(|b| !b.is_ascii_whitespace())
    }

    /// The stream's metadata, once enough bytes have arrived to parse the header
    /// (still available after [`TailDecoder::finish`]).
    pub fn meta(&self) -> Option<&TraceMeta> {
        self.reader.as_ref().map(TraceReader::meta)
    }

    /// Decodes up to `max` currently-available entries into `out` (cleared first).
    /// [`TailBatch::Pending`] covers both "mid-record" and "header still arriving".
    ///
    /// # Errors
    ///
    /// Propagates corruption (never plain lack of bytes).
    pub fn read_batch(&mut self, out: &mut Vec<TraceEntry>, max: usize) -> Result<TailBatch> {
        out.clear();
        match &mut self.reader {
            Some(reader) => reader.read_batch_tail(out, max),
            None => Ok(TailBatch::Pending),
        }
    }

    /// [`Self::read_batch`] at the level of symbols: decodes up to `max`
    /// currently-available entries into `out` (cleared first) without building any
    /// [`TraceEntry`] from binary input (see [`TraceReader::read_refs_tail`]).
    ///
    /// # Errors
    ///
    /// Exactly [`Self::read_batch`]'s.
    pub fn read_refs(&mut self, out: &mut EntryBatch, max: usize) -> Result<TailBatch> {
        out.clear();
        match &mut self.reader {
            Some(reader) => reader.read_refs_tail(out, max),
            None => Ok(TailBatch::Pending),
        }
    }

    /// Declares the stream complete and drains everything that remains under the
    /// encoding's strict end-of-stream semantics, appending to `out` (NOT cleared:
    /// this is the final flush after a `read_batch` loop).
    ///
    /// # Errors
    ///
    /// A binary stream that never reached its footer reports truncation; a JSONL
    /// stream applies the unterminated-final-line grace and the trailer checks; a
    /// stream too short to even parse a header reports what `TraceReader::new` would.
    pub fn finish(&mut self, out: &mut Vec<TraceEntry>) -> Result<()> {
        let reader = self.strict_reader()?;
        while reader.append_batch(out, usize::MAX)? > 0 {}
        Ok(())
    }

    /// [`Self::finish`] at the level of symbols, appending to `out` (NOT cleared: this
    /// is the final flush after a [`Self::read_refs`] loop).
    ///
    /// # Errors
    ///
    /// Exactly [`Self::finish`]'s.
    pub fn finish_refs(&mut self, out: &mut EntryBatch) -> Result<()> {
        let reader = self.strict_reader()?;
        while reader.append_refs(out, usize::MAX)? > 0 {}
        Ok(())
    }

    /// The reader [`Self::finish`] drains under strict end-of-stream semantics. When
    /// the header never opened in tail mode (e.g. an unterminated JSONL header line,
    /// or a binary header cut short), strict semantics decide: the stash is parsed as
    /// a complete stream — a truncated binary header errors here, a graced JSONL
    /// fragment reads through. The reader stays, so [`Self::meta`] still answers.
    fn strict_reader(&mut self) -> Result<&mut TraceReader<Empty>> {
        if self.reader.is_none() {
            let window = self.stash_window();
            self.stash = Vec::new();
            self.reader = Some(TraceReader::sniff(window)?);
        }
        Ok(self.reader.as_mut().expect("opened above"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{trace_to_bytes, Encoding};
    use rprism_trace::testgen::{arbitrary_entry, Rng};
    use rprism_trace::Trace;

    fn sample_trace(seed: u64, len: usize) -> Trace {
        let mut rng = Rng::new(seed);
        let mut t = Trace::new(TraceMeta::new("tailed", "v1", "t1"));
        for _ in 0..len {
            t.push(arbitrary_entry(&mut rng));
        }
        t
    }

    fn drip_feed(bytes: &[u8], chunk: usize, expected: &Trace) {
        let mut decoder = TailDecoder::new();
        let mut got = Vec::new();
        let mut batch = Vec::new();
        for piece in bytes.chunks(chunk.max(1)) {
            decoder.push_bytes(piece).unwrap();
            while let TailBatch::Entries(n) = decoder.read_batch(&mut batch, 16).unwrap() {
                assert_eq!(n, batch.len());
                got.append(&mut batch);
            }
        }
        decoder.finish(&mut got).unwrap();
        assert_eq!(got.len(), expected.len());
        for (a, b) in got.iter().zip(expected.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn drip_fed_chunks_decode_identically_both_encodings() {
        let trace = sample_trace(3, 60);
        for encoding in [Encoding::Binary, Encoding::Jsonl] {
            let bytes = trace_to_bytes(&trace, encoding).unwrap();
            // Behind a byte-order mark too, which chunks of 1 and 2 bytes split.
            let with_bom = [BOM.as_slice(), &bytes].concat();
            for bytes in [bytes, with_bom] {
                for chunk in [1, 2, 7, 64, bytes.len()] {
                    drip_feed(&bytes, chunk, &trace);
                }
            }
        }
    }

    #[test]
    fn binary_footer_is_a_verified_end() {
        let trace = sample_trace(5, 10);
        let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
        let mut decoder = TailDecoder::new();
        decoder.push_bytes(&bytes).unwrap();
        let mut batch = Vec::new();
        let mut total = 0;
        loop {
            match decoder.read_batch(&mut batch, 4).unwrap() {
                TailBatch::Entries(n) => total += n,
                TailBatch::End => break,
                TailBatch::Pending => panic!("complete stream reported pending"),
            }
        }
        assert_eq!(total, trace.len());
    }

    #[test]
    fn incomplete_binary_stream_fails_at_finish_not_before() {
        let trace = sample_trace(8, 20);
        let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
        let mut decoder = TailDecoder::new();
        decoder.push_bytes(&bytes[..bytes.len() - 4]).unwrap();
        let mut out = Vec::new();
        while let TailBatch::Entries(_) = decoder.read_batch(&mut out, 16).unwrap() {}
        assert!(matches!(
            decoder.finish(&mut Vec::new()),
            Err(FormatError::Truncated { .. })
        ));
    }

    #[test]
    fn jsonl_partial_final_line_gets_the_strict_grace_at_finish() {
        let trace = sample_trace(9, 5);
        let text = String::from_utf8(trace_to_bytes(&trace, Encoding::Jsonl).unwrap()).unwrap();
        // Drop the trailer and the final newline of the last entry line.
        let without_trailer = text.rsplit_once('\n').unwrap().0; // strip trailing '\n'
        let without_trailer = without_trailer.rsplit_once('\n').unwrap().0; // strip trailer line
        let mut decoder = TailDecoder::new();
        decoder.push_bytes(without_trailer.as_bytes()).unwrap();
        let mut got = Vec::new();
        let mut batch = Vec::new();
        while let TailBatch::Entries(_) = decoder.read_batch(&mut batch, 16).unwrap() {
            got.append(&mut batch);
        }
        // The last line is unterminated, so tail mode holds it back …
        assert_eq!(got.len(), trace.len() - 1);
        // … and the strict finish applies the hand-authoring grace.
        decoder.finish(&mut got).unwrap();
        assert_eq!(got.len(), trace.len());
    }

    #[test]
    fn corrupt_header_fails_fast() {
        let mut decoder = TailDecoder::new();
        let err = decoder
            .push_bytes(b"RPTR\xff\xff\x00\x00rest of a bad stream")
            .unwrap_err();
        assert!(matches!(err, FormatError::UnsupportedVersion { .. }));
    }

    #[test]
    fn empty_stream_fails_at_finish() {
        let mut decoder = TailDecoder::new();
        assert!(matches!(
            decoder.read_batch(&mut Vec::new(), 8).unwrap(),
            TailBatch::Pending
        ));
        assert!(decoder.finish(&mut Vec::new()).is_err());
    }
}
