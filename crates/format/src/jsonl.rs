//! The line-oriented JSONL text encoding (`.jsonl`), for human authoring and external
//! tooling.
//!
//! # Schema
//!
//! One JSON object per line. The first line is the header, then one line per entry, then
//! an optional trailer (the writer always emits it; hand-authored files may omit it):
//!
//! ```text
//! {"format":"rprism-trace","version":1,"name":N,"program_version":V,"test_case":T}
//! {"tid":0,"method":"<main>","active":OBJ,"event":EVENT}
//! …
//! {"entries":COUNT}
//! ```
//!
//! Object representations (`OBJ`) carry the five [`ObjRep`] fields; `loc` and `seq` are
//! omitted when absent, and the value fingerprint is a fixed-width lowercase hex string
//! (a `u64` does not fit in a JSON double):
//!
//! ```text
//! OBJ   ::= {"class":C,"fp":"0011223344556677","printed":P[,"loc":L][,"seq":S]}
//! EVENT ::= {"kind":"get","target":OBJ,"field":F,"value":OBJ}
//!         | {"kind":"set","target":OBJ,"field":F,"value":OBJ}
//!         | {"kind":"call","target":OBJ,"method":M,"args":[OBJ…]}
//!         | {"kind":"return","target":OBJ,"method":M,"value":OBJ}
//!         | {"kind":"init","class":C,"args":[OBJ…],"result":OBJ}
//!         | {"kind":"fork","child":TID,"parentage":[SNAP…]}
//!         | {"kind":"end","stack":SNAP}
//! SNAP  ::= [{"method":M,"caller":OBJ,"callee":OBJ}…]
//! ```
//!
//! Entry ids are implicit (line order), like the binary encoding. Blank lines are
//! ignored on input. Unknown or duplicate keys, wrong value types, floats, negative
//! numbers and a mismatched trailer count are all rejected with
//! [`FormatError::Json`] naming the line — typos in hand-written traces fail loudly
//! instead of decoding to something else.

use std::fmt::Write as _;
use std::io::{Read, Write};

use rprism_lang::{FieldName, MethodName};
use rprism_trace::{
    CreationSeq, EntryId, Event, Loc, ObjRep, StackFrame, StackSnapshot, ThreadId, TraceEntry,
    TraceMeta, ValueFingerprint,
};

use crate::error::{FormatError, Result};
use crate::json::{self, Json};
use crate::window::Window;
use crate::TailBatch;

/// The JSONL schema version this crate reads and writes (kept in lock step with the
/// binary [`FORMAT_VERSION`](crate::binary::FORMAT_VERSION)).
pub const JSONL_VERSION: u64 = 1;

const FORMAT_NAME: &str = "rprism-trace";

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming writer of the JSONL encoding: one line per entry, written as it arrives.
pub struct JsonlTraceWriter<W: Write> {
    out: W,
    line: String,
    entries: u64,
}

impl<W: Write> JsonlTraceWriter<W> {
    /// Starts a JSONL trace stream by writing the header line.
    pub fn new(out: W, meta: &TraceMeta) -> Result<Self> {
        let mut writer = JsonlTraceWriter {
            out,
            line: String::new(),
            entries: 0,
        };
        let mut header = String::new();
        header.push_str("{\"format\":");
        json::write_escaped(&mut header, FORMAT_NAME);
        header.push_str(&format!(",\"version\":{JSONL_VERSION},\"name\":"));
        json::write_escaped(&mut header, &meta.name);
        header.push_str(",\"program_version\":");
        json::write_escaped(&mut header, &meta.version);
        header.push_str(",\"test_case\":");
        json::write_escaped(&mut header, &meta.test_case);
        header.push_str("}\n");
        writer.out.write_all(header.as_bytes())?;
        Ok(writer)
    }

    fn put_objrep(line: &mut String, rep: &ObjRep) {
        line.push_str("{\"class\":");
        json::write_escaped(line, &rep.class);
        let _ = write!(line, ",\"fp\":\"{:016x}\",\"printed\":", rep.fingerprint.0);
        json::write_escaped(line, &rep.printed);
        if let Some(Loc(loc)) = rep.loc {
            let _ = write!(line, ",\"loc\":{loc}");
        }
        if let Some(CreationSeq(seq)) = rep.creation_seq {
            let _ = write!(line, ",\"seq\":{seq}");
        }
        line.push('}');
    }

    fn put_snapshot(line: &mut String, snapshot: &StackSnapshot) {
        line.push('[');
        for (i, frame) in snapshot.frames.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str("{\"method\":");
            json::write_escaped(line, frame.method.as_str());
            line.push_str(",\"caller\":");
            Self::put_objrep(line, &frame.caller);
            line.push_str(",\"callee\":");
            Self::put_objrep(line, &frame.callee);
            line.push('}');
        }
        line.push(']');
    }

    fn put_args(line: &mut String, args: &[ObjRep]) {
        line.push('[');
        for (i, arg) in args.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            Self::put_objrep(line, arg);
        }
        line.push(']');
    }

    /// Appends one entry line. Like the binary writer, the entry's `eid` is ignored:
    /// ids are implicit in line order.
    pub fn write_entry(&mut self, entry: &TraceEntry) -> Result<()> {
        let mut line = std::mem::take(&mut self.line);
        line.clear();
        let _ = write!(line, "{{\"tid\":{},\"method\":", entry.tid.0);
        json::write_escaped(&mut line, entry.method.as_str());
        line.push_str(",\"active\":");
        Self::put_objrep(&mut line, &entry.active);
        line.push_str(",\"event\":");
        match &entry.event {
            Event::Get {
                target,
                field,
                value,
            }
            | Event::Set {
                target,
                field,
                value,
            } => {
                let kind = if matches!(entry.event, Event::Get { .. }) {
                    "get"
                } else {
                    "set"
                };
                let _ = write!(line, "{{\"kind\":\"{kind}\",\"target\":");
                Self::put_objrep(&mut line, target);
                line.push_str(",\"field\":");
                json::write_escaped(&mut line, field.as_str());
                line.push_str(",\"value\":");
                Self::put_objrep(&mut line, value);
                line.push('}');
            }
            Event::Call {
                target,
                method,
                args,
            } => {
                line.push_str("{\"kind\":\"call\",\"target\":");
                Self::put_objrep(&mut line, target);
                line.push_str(",\"method\":");
                json::write_escaped(&mut line, method.as_str());
                line.push_str(",\"args\":");
                Self::put_args(&mut line, args);
                line.push('}');
            }
            Event::Return {
                target,
                method,
                value,
            } => {
                line.push_str("{\"kind\":\"return\",\"target\":");
                Self::put_objrep(&mut line, target);
                line.push_str(",\"method\":");
                json::write_escaped(&mut line, method.as_str());
                line.push_str(",\"value\":");
                Self::put_objrep(&mut line, value);
                line.push('}');
            }
            Event::Init {
                class,
                args,
                result,
            } => {
                line.push_str("{\"kind\":\"init\",\"class\":");
                json::write_escaped(&mut line, class);
                line.push_str(",\"args\":");
                Self::put_args(&mut line, args);
                line.push_str(",\"result\":");
                Self::put_objrep(&mut line, result);
                line.push('}');
            }
            Event::Fork { child, parentage } => {
                let _ = write!(
                    line,
                    "{{\"kind\":\"fork\",\"child\":{},\"parentage\":[",
                    child.0
                );
                for (i, snapshot) in parentage.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    Self::put_snapshot(&mut line, snapshot);
                }
                line.push_str("]}");
            }
            Event::End { stack } => {
                line.push_str("{\"kind\":\"end\",\"stack\":");
                Self::put_snapshot(&mut line, stack);
                line.push('}');
            }
        }
        line.push_str("}\n");
        self.out.write_all(line.as_bytes())?;
        self.line = line;
        self.entries += 1;
        Ok(())
    }

    /// Writes the trailer line, flushes, and returns the underlying writer.
    pub fn finish(mut self) -> Result<W> {
        let trailer = format!("{{\"entries\":{}}}\n", self.entries);
        self.out.write_all(trailer.as_bytes())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Streaming reader of the JSONL encoding: one line is parsed (and handed out) at a
/// time. Lines are found in the crate's byte window, the one the binary reader walks:
/// a line longer than one refill grows the window, and a partial line stays in it
/// until its newline arrives.
pub struct JsonlTraceReader<R: Read> {
    pub(crate) window: Window<R>,
    meta: TraceMeta,
    line_no: u64,
    entries_read: u64,
    /// Bytes of the open line, from the window's decode position, that hold no newline.
    scanned: usize,
    done: bool,
}

impl<R: Read> JsonlTraceReader<R> {
    /// Opens a JSONL trace stream, parsing and validating the header line.
    pub fn new(input: R) -> Result<Self> {
        Self::from_window(Window::new(input))
    }

    /// Opens the JSONL trace stream at the start of `window`.
    pub(crate) fn from_window(window: Window<R>) -> Result<Self> {
        let mut reader = JsonlTraceReader {
            window,
            meta: TraceMeta::default(),
            line_no: 0,
            entries_read: 0,
            scanned: 0,
            done: false,
        };
        let Some(header) = reader.next_line(false)? else {
            return Err(reader.err("missing header line"));
        };
        // Accept a UTF-8 byte-order mark in front of hand-authored files (the unified
        // `TraceReader` strips it during sniffing; direct callers get the same grace).
        let header = header.trim_start_matches('\u{feff}');
        let obj = reader.parse_obj(header)?;
        let mut fields = ObjFields::new(&obj, reader.line_no);
        let format = fields.take_str("format")?;
        if format != FORMAT_NAME {
            return Err(reader.err(&format!(
                "header declares format {format:?}, expected {FORMAT_NAME:?}"
            )));
        }
        let version = fields.take_u64("version")?;
        if version != JSONL_VERSION {
            return Err(FormatError::UnsupportedVersion {
                found: u16::try_from(version).unwrap_or(u16::MAX),
                supported: JSONL_VERSION as u16,
            });
        }
        let name = fields.take_str("name")?;
        let program_version = fields.take_str("program_version")?;
        let test_case = fields.take_str("test_case")?;
        fields.finish()?;
        reader.meta = TraceMeta::new(name, program_version, test_case);
        Ok(reader)
    }

    /// The trace metadata from the header line.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn err(&self, detail: &str) -> FormatError {
        FormatError::Json {
            line: self.line_no,
            detail: detail.to_owned(),
        }
    }

    /// The next non-blank line, or `None` if there is none: the line loop behind both
    /// read modes. It scans the window for a newline and refills it until one
    /// arrives. In tail mode an input that runs dry mid-line returns `Ok(None)` with
    /// the partial line left in the window, and the next call resumes the scan where
    /// it stopped. In strict mode end-of-input ends the stream — with the
    /// hand-authoring grace that a final unterminated line still counts as a line.
    ///
    /// Windows-authored files use CRLF line endings, so the trailing `\r` left by
    /// line splitting is stripped before parsing — explicitly, ahead of the general
    /// whitespace trim, so the guarantee survives any future change to how lines are
    /// cleaned up (the CRLF regression tests pin it under both the direct and the
    /// sniffing reader).
    fn next_line(&mut self, tail: bool) -> Result<Option<String>> {
        loop {
            let complete = loop {
                let ahead = self.window.ahead();
                if let Some(i) = ahead[self.scanned..].iter().position(|&b| b == b'\n') {
                    break Some(self.scanned + i + 1);
                }
                self.scanned = ahead.len();
                if self.window.fill()? == 0 {
                    break None; // end of input (possibly ending a final unterminated line)
                }
            };
            let len = match complete {
                Some(len) => len,
                // Mid-line as of now (or between lines): no complete line yet.
                None if tail || self.scanned == 0 => return Ok(None),
                // Unterminated final line: take it as a line.
                None => self.scanned,
            };
            self.scanned = 0;
            self.line_no += 1;
            let text = std::str::from_utf8(&self.window.ahead()[..len])
                .map_err(|_| self.err("line is not valid UTF-8"))?;
            let line = text.trim_end_matches(['\r', '\n']).trim();
            let line = (!line.is_empty()).then(|| line.to_owned());
            self.window.advance(len);
            self.window.commit();
            match line {
                Some(line) => return Ok(Some(line)),
                // A blank grace line at end of input ends the stream; a blank
                // terminated line is simply skipped.
                None if complete.is_none() => return Ok(None),
                None => {}
            }
        }
    }

    fn parse_obj(&self, line: &str) -> Result<Vec<(String, Json)>> {
        match json::parse(line) {
            Ok(Json::Obj(pairs)) => Ok(pairs),
            Ok(other) => Err(self.err(&format!("expected an object, found {}", other.type_name()))),
            Err(detail) => Err(self.err(&detail)),
        }
    }

    fn objrep(value: &Json, line: u64) -> Result<ObjRep> {
        let Json::Obj(pairs) = value else {
            return Err(FormatError::Json {
                line,
                detail: format!(
                    "object representation must be an object, found {}",
                    value.type_name()
                ),
            });
        };
        let mut fields = ObjFields::new(pairs, line);
        let class = fields.take_str("class")?;
        let fp_text = fields.take_str("fp")?;
        if fp_text.len() != 16 || !fp_text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(FormatError::Json {
                line,
                detail: format!("`fp` must be 16 hex digits, found {fp_text:?}"),
            });
        }
        let fingerprint = u64::from_str_radix(&fp_text, 16).map_err(|_| FormatError::Json {
            line,
            detail: format!("invalid fingerprint {fp_text:?}"),
        })?;
        let printed = fields.take_str("printed")?;
        let loc = fields.take_opt_u64("loc")?.map(Loc);
        let creation_seq = fields.take_opt_u64("seq")?.map(CreationSeq);
        fields.finish()?;
        Ok(ObjRep {
            loc,
            class,
            fingerprint: ValueFingerprint(fingerprint),
            printed,
            creation_seq,
        })
    }

    fn args(value: &Json, line: u64, what: &str) -> Result<Vec<ObjRep>> {
        let Json::Arr(items) = value else {
            return Err(FormatError::Json {
                line,
                detail: format!("`{what}` must be an array, found {}", value.type_name()),
            });
        };
        items.iter().map(|v| Self::objrep(v, line)).collect()
    }

    fn snapshot(value: &Json, line: u64) -> Result<StackSnapshot> {
        let Json::Arr(items) = value else {
            return Err(FormatError::Json {
                line,
                detail: format!(
                    "a stack snapshot must be an array, found {}",
                    value.type_name()
                ),
            });
        };
        let mut frames = Vec::with_capacity(items.len());
        for item in items {
            let Json::Obj(pairs) = item else {
                return Err(FormatError::Json {
                    line,
                    detail: format!(
                        "a stack frame must be an object, found {}",
                        item.type_name()
                    ),
                });
            };
            let mut fields = ObjFields::new(pairs, line);
            let method = MethodName::new(fields.take_str("method")?);
            let caller = Self::objrep(fields.take("caller")?, line)?;
            let callee = Self::objrep(fields.take("callee")?, line)?;
            fields.finish()?;
            frames.push(StackFrame::new(method, caller, callee));
        }
        Ok(StackSnapshot::new(frames))
    }

    fn event(value: &Json, line: u64) -> Result<Event> {
        let Json::Obj(pairs) = value else {
            return Err(FormatError::Json {
                line,
                detail: format!("`event` must be an object, found {}", value.type_name()),
            });
        };
        let mut fields = ObjFields::new(pairs, line);
        let kind = fields.take_str("kind")?;
        let event = match kind.as_str() {
            "get" | "set" => {
                let target = Self::objrep(fields.take("target")?, line)?;
                let field = FieldName::new(fields.take_str("field")?);
                let value = Self::objrep(fields.take("value")?, line)?;
                if kind == "get" {
                    Event::Get {
                        target,
                        field,
                        value,
                    }
                } else {
                    Event::Set {
                        target,
                        field,
                        value,
                    }
                }
            }
            "call" => Event::Call {
                target: Self::objrep(fields.take("target")?, line)?,
                method: MethodName::new(fields.take_str("method")?),
                args: Self::args(fields.take("args")?, line, "args")?,
            },
            "return" => Event::Return {
                target: Self::objrep(fields.take("target")?, line)?,
                method: MethodName::new(fields.take_str("method")?),
                value: Self::objrep(fields.take("value")?, line)?,
            },
            "init" => Event::Init {
                class: fields.take_str("class")?,
                args: Self::args(fields.take("args")?, line, "args")?,
                result: Self::objrep(fields.take("result")?, line)?,
            },
            "fork" => {
                let child = ThreadId(fields.take_u64("child")?);
                let Json::Arr(items) = fields.take("parentage")? else {
                    return Err(FormatError::Json {
                        line,
                        detail: "`parentage` must be an array".into(),
                    });
                };
                let parentage = items
                    .iter()
                    .map(|v| Self::snapshot(v, line))
                    .collect::<Result<Vec<_>>>()?;
                Event::Fork { child, parentage }
            }
            "end" => Event::End {
                stack: Self::snapshot(fields.take("stack")?, line)?,
            },
            other => {
                return Err(FormatError::Json {
                    line,
                    detail: format!("unknown event kind {other:?}"),
                })
            }
        };
        fields.finish()?;
        Ok(event)
    }

    /// Parses one non-blank line as either an entry (`Some`) or the trailer (`None`,
    /// with the declared count verified).
    fn parse_entry_line(&mut self, line: &str) -> Result<Option<TraceEntry>> {
        let pairs = self.parse_obj(line)?;
        // The trailer is the only object with an `entries` key.
        if pairs.iter().any(|(k, _)| k == "entries") {
            let mut fields = ObjFields::new(&pairs, self.line_no);
            let declared = fields.take_u64("entries")?;
            fields.finish()?;
            if declared != self.entries_read {
                return Err(self.err(&format!(
                    "trailer declares {declared} entries but {} were read",
                    self.entries_read
                )));
            }
            return Ok(None);
        }
        let line_no = self.line_no;
        let mut fields = ObjFields::new(&pairs, line_no);
        let tid = ThreadId(fields.take_u64("tid")?);
        let method = MethodName::new(fields.take_str("method")?);
        let active = Self::objrep(fields.take("active")?, line_no)?;
        let event = Self::event(fields.take("event")?, line_no)?;
        fields.finish()?;
        let eid = EntryId(self.entries_read);
        self.entries_read += 1;
        Ok(Some(TraceEntry::new(eid, tid, method, active, event)))
    }

    /// Parses the next entry line, or returns `Ok(None)` at the end of the stream
    /// (verifying the trailer count when a trailer is present).
    pub fn next_entry(&mut self) -> Result<Option<TraceEntry>> {
        if self.done {
            return Ok(None);
        }
        let Some(line) = self.next_line(false)? else {
            // Hand-authored files may omit the trailer; end of input ends the trace.
            self.done = true;
            return Ok(None);
        };
        match self.parse_entry_line(&line)? {
            Some(entry) => Ok(Some(entry)),
            None => {
                if self.next_line(false)?.is_some() {
                    return Err(self.err("content after the trailer line"));
                }
                self.done = true;
                Ok(None)
            }
        }
    }

    /// Parses up to `max` further entries into `out` (appending) off a *growing*
    /// stream: only complete (newline-terminated) lines are consumed, so an input that
    /// currently ends mid-line reports the resumable [`TailBatch::Pending`] state
    /// with the partial bytes retained for the next call. Because a trailer-less JSONL
    /// stream ends implicitly, `Pending` is also what a finished-but-trailerless
    /// stream looks like — the caller decides when the source has stopped growing and
    /// switches to [`Self::next_entry`], which applies the strict end-of-input
    /// semantics (unterminated-final-line grace included) to whatever remains.
    pub fn read_batch_tail(&mut self, out: &mut Vec<TraceEntry>, max: usize) -> Result<TailBatch> {
        let mut read = 0;
        while read < max && !self.done {
            let Some(line) = self.next_line(true)? else {
                return Ok(TailBatch::after(read, true, false));
            };
            match self.parse_entry_line(&line)? {
                Some(entry) => {
                    out.push(entry);
                    read += 1;
                }
                // Trailer seen: the trace is complete. The strict after-trailer
                // content check happens when (and if) the caller drains the stream
                // strictly; a growing source has nothing after the trailer yet.
                None => self.done = true,
            }
        }
        Ok(TailBatch::after(read, false, self.done))
    }
}

/// A strict field cursor over a parsed JSON object: every key must be taken exactly
/// once, duplicates and leftovers are schema errors.
struct ObjFields<'a> {
    pairs: &'a [(String, Json)],
    taken: Vec<bool>,
    line: u64,
}

impl<'a> ObjFields<'a> {
    fn new(pairs: &'a [(String, Json)], line: u64) -> Self {
        ObjFields {
            pairs,
            taken: vec![false; pairs.len()],
            line,
        }
    }

    fn err(&self, detail: String) -> FormatError {
        FormatError::Json {
            line: self.line,
            detail,
        }
    }

    fn take(&mut self, key: &str) -> Result<&'a Json> {
        let mut found = None;
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if k == key {
                if found.is_some() || self.taken[i] {
                    return Err(self.err(format!("duplicate key {key:?}")));
                }
                self.taken[i] = true;
                found = Some(v);
            }
        }
        found.ok_or_else(|| self.err(format!("missing key {key:?}")))
    }

    fn take_str(&mut self, key: &str) -> Result<String> {
        match self.take(key)? {
            Json::Str(s) => Ok(s.clone()),
            other => Err(self.err(format!(
                "key {key:?} must be a string, found {}",
                other.type_name()
            ))),
        }
    }

    fn take_u64(&mut self, key: &str) -> Result<u64> {
        match self.take(key)? {
            Json::Num(n) => Ok(*n),
            other => Err(self.err(format!(
                "key {key:?} must be an integer, found {}",
                other.type_name()
            ))),
        }
    }

    fn take_opt_u64(&mut self, key: &str) -> Result<Option<u64>> {
        if self.pairs.iter().any(|(k, _)| k == key) {
            Ok(Some(self.take_u64(key)?))
        } else {
            Ok(None)
        }
    }

    /// Rejects any key that was never taken (typos, schema drift).
    fn finish(self) -> Result<()> {
        for (i, (k, _)) in self.pairs.iter().enumerate() {
            if !self.taken[i] {
                return Err(FormatError::Json {
                    line: self.line,
                    detail: format!("unknown key {k:?}"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_trace::testgen::{arbitrary_entry, Rng};
    use rprism_trace::Trace;

    fn sample_trace(seed: u64, len: usize) -> Trace {
        let mut rng = Rng::new(seed);
        let mut t = Trace::new(TraceMeta::new("sample", "v1", "t1"));
        for _ in 0..len {
            t.push(arbitrary_entry(&mut rng));
        }
        t
    }

    fn encode(trace: &Trace) -> String {
        let mut w = JsonlTraceWriter::new(Vec::new(), &trace.meta).unwrap();
        for entry in trace {
            w.write_entry(entry).unwrap();
        }
        String::from_utf8(w.finish().unwrap()).unwrap()
    }

    fn decode(text: &str) -> Result<Trace> {
        let mut r = JsonlTraceReader::new(text.as_bytes())?;
        let mut trace = Trace::new(r.meta().clone());
        while let Some(entry) = r.next_entry()? {
            trace.push(entry);
        }
        Ok(trace)
    }

    #[test]
    fn round_trips_structurally() {
        let trace = sample_trace(3, 120);
        assert_eq!(decode(&encode(&trace)).unwrap(), trace);
    }

    #[test]
    fn re_encoding_is_byte_stable() {
        let trace = sample_trace(5, 80);
        let text = encode(&trace);
        assert_eq!(encode(&decode(&text).unwrap()), text);
    }

    #[test]
    fn hand_authored_trace_without_trailer_is_accepted() {
        let text = concat!(
            "{\"format\":\"rprism-trace\",\"version\":1,\"name\":\"hand\",",
            "\"program_version\":\"v1\",\"test_case\":\"t\"}\n",
            "\n",
            "{\"tid\":0,\"method\":\"<main>\",",
            "\"active\":{\"class\":\"null\",\"fp\":\"0000000000000004\",\"printed\":\"null\"},",
            "\"event\":{\"kind\":\"init\",\"class\":\"C\",\"args\":[],",
            "\"result\":{\"class\":\"C\",\"fp\":\"0000000000000000\",\"printed\":\"\",\"loc\":1,\"seq\":0}}}\n",
        );
        let trace = decode(text).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.meta.name, "hand");
        assert!(matches!(trace.entries[0].event, Event::Init { .. }));
    }

    #[test]
    fn crlf_line_endings_are_accepted() {
        // Windows-authored text traces end lines with \r\n; the reader must strip the
        // carriage return before parsing instead of feeding it to the JSON parser.
        let trace = sample_trace(17, 30);
        let crlf = encode(&trace).replace('\n', "\r\n");
        assert_eq!(decode(&crlf).unwrap(), trace, "direct CRLF decode diverged");
        // Mixed endings (a hand-edited file) and blank CRLF lines are fine too.
        let mixed = encode(&trace).replacen('\n', "\r\n", 3) + "\r\n";
        assert_eq!(
            decode(&mixed).unwrap(),
            trace,
            "mixed-endings decode diverged"
        );
    }

    #[test]
    fn trailer_count_mismatch_is_rejected() {
        let trace = sample_trace(9, 4);
        let text = encode(&trace);
        let wrong = text.replace("{\"entries\":4}", "{\"entries\":5}");
        assert!(matches!(
            decode(&wrong).unwrap_err(),
            FormatError::Json { .. }
        ));
    }

    #[test]
    fn unknown_keys_and_kinds_are_rejected() {
        let header = "{\"format\":\"rprism-trace\",\"version\":1,\"name\":\"x\",\"program_version\":\"\",\"test_case\":\"\"}\n";
        let entry_with_typo = format!(
            "{header}{{\"tid\":0,\"methd\":\"m\",\"active\":{{\"class\":\"A\",\"fp\":\"0000000000000000\",\"printed\":\"\"}},\"event\":{{\"kind\":\"end\",\"stack\":[]}}}}\n"
        );
        assert!(decode(&entry_with_typo).is_err());
        let bad_kind = format!(
            "{header}{{\"tid\":0,\"method\":\"m\",\"active\":{{\"class\":\"A\",\"fp\":\"0000000000000000\",\"printed\":\"\"}},\"event\":{{\"kind\":\"jump\"}}}}\n"
        );
        assert!(decode(&bad_kind).is_err());
    }

    #[test]
    fn future_version_is_rejected_cleanly() {
        let text = "{\"format\":\"rprism-trace\",\"version\":2,\"name\":\"x\",\"program_version\":\"\",\"test_case\":\"\"}\n";
        assert!(matches!(
            decode(text).unwrap_err(),
            FormatError::UnsupportedVersion { found: 2, .. }
        ));
    }

    #[test]
    fn malformed_lines_error_with_line_numbers() {
        let trace = sample_trace(2, 3);
        let mut text = encode(&trace);
        text.insert_str(text.find('\n').unwrap() + 1, "{not json}\n");
        match decode(&text).unwrap_err() {
            FormatError::Json { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
