//! The compact binary trace encoding (`.rtr`).
//!
//! # Layout
//!
//! ```text
//! header   ::= magic "RPTR" (4 bytes)
//!              version u16 LE        -- currently 1
//!              flags   u16 LE        -- reserved, must be 0
//!              meta                  -- 3 length-prefixed UTF-8 strings:
//!                                       name, program version, test case
//! records  ::= (sym | entry)* end
//! sym      ::= 0x01 varint(len) utf8-bytes      -- defines the next string id (0, 1, …)
//! entry    ::= 0x02 varint(tid) symid(method) objrep(active) event
//! end      ::= 0x03 varint(entry-count) checksum u64 LE
//! ```
//!
//! All integers are LEB128 varints (see [`crate::varint`]) except the fixed-width header
//! and checksum fields. Strings are deduplicated through a define-before-use symbol
//! table: the first record mentioning a string is preceded by a `sym` record, and every
//! mention is a varint id into the table. The writer deduplicates through a table of
//! its own, so repeated names cost one hash lookup and one varint, and encoding a
//! stream never touches the process-global [`Interner`](mod@rprism_trace::intern).
//!
//! ```text
//! objrep   ::= flags u8            -- bit0: has loc, bit1: has creation seq
//!              symid(class) varint(fingerprint) symid(printed) [varint(loc)] [varint(seq)]
//! event    ::= 0x01 objrep(target) symid(field)  objrep(value)          -- get
//!            | 0x02 objrep(target) symid(field)  objrep(value)          -- set
//!            | 0x03 objrep(target) symid(method) varint(argc) objrep*   -- call
//!            | 0x04 objrep(target) symid(method) objrep(value)          -- return
//!            | 0x05 symid(class)   varint(argc)  objrep* objrep(result) -- init
//!            | 0x06 varint(child)  varint(depth) snapshot*              -- fork
//!            | 0x07 snapshot                                            -- end
//! snapshot ::= varint(frames) (symid(method) objrep(caller) objrep(callee))*
//! ```
//!
//! Entry ids are implicit: the n-th `entry` record has id n, mirroring the [`Trace`](rprism_trace::Trace)
//! invariant that entry ids equal positions.
//!
//! # Canonical layout
//!
//! The reader accepts any define-before-use string table, but [`BinaryTraceWriter`]
//! emits exactly one layout for a given trace, the *canonical* one:
//!
//! 1. all `sym` strings are pairwise distinct;
//! 2. within an entry, the first mention of an id no entry has mentioned yet is always
//!    the lowest such id — strings are defined in first-mention order;
//! 3. after every entry, and at the footer, every defined `sym` has been mentioned —
//!    each string is defined just before the entry that first uses it.
//!
//! Everything else about the bytes is already fixed by the reader's checks: header
//! version and flags, minimal varints, object representation flags, the footer's
//! count and checksum, and nothing after the footer. A canonical stream is therefore
//! byte for byte the writer's encoding of the trace it decodes to, and its FNV-1a 64
//! is the trace's content hash ([`crate::content_hash`]) with no re-encode.
//!
//! # Reading: one walk, three sinks
//!
//! [`BinaryTraceReader`] reads the record grammar in one place: the id-level walk
//! (`walk_*`) and its record loop, which commits each complete record and rolls back
//! one the input runs dry in. The walk checks every tag, id, varint and the footer,
//! builds nothing, and hands each string id and object representation, as ids, to a
//! *sink* that decides what the stream becomes. Every read, owned or not, strict or
//! tail, is this walk with one of three sinks, so all report damage alike:
//!
//! * the **owned-entry sink** ([`BinaryTraceReader::read_batch_tail`], behind
//!   [`BinaryTraceReader::next_entry`], [`crate::trace_from_bytes`] and `--full`)
//!   builds [`TraceEntry`]s. Method and field names are made once per id;
//! * the **validate sink** builds nothing and tracks the canonical layout above
//!   (`content_summary` hashes a canonical upload from its own bytes);
//! * the [`EntryBatch`] **sink** ([`BinaryTraceReader::read_refs`]) resolves ids to
//!   [`Symbol`]s through a lazy per-stream table — an id in a name position (class,
//!   method, field, init class) is interned on its first mention, a printed string
//!   never — and is what ingest, check and watch consume.
//!
//! # Integrity
//!
//! The footer carries the entry count and an FNV-1a 64 checksum of every preceding byte
//! (header included). The reader verifies the tag structure, string ids, UTF-8, varint
//! bounds, entry count, checksum, and that nothing follows the footer — any truncation
//! or single-byte damage surfaces as a structured [`FormatError`], never a panic and
//! never a silently different trace.

use std::collections::HashMap;
use std::io::{Read, Write};

use rprism_lang::{FieldName, MethodName};
use rprism_trace::{intern, CreationSeq, EntryId, Loc, Symbol};
use rprism_trace::{
    EntryBatch, EntryHead, Event, EventKind, ObjAt, ObjIdent, ObjRep, StackFrame, StackSnapshot,
    ThreadId, TraceEntry, TraceMeta, ValueFingerprint,
};

use crate::error::{FormatError, Result};
use crate::varint;
use crate::window::Window;
use crate::TailBatch;

/// The four magic bytes opening every binary trace.
pub const MAGIC: [u8; 4] = *b"RPTR";

/// The newest binary format version this crate reads and writes.
pub const FORMAT_VERSION: u16 = 1;

const TAG_SYM: u8 = 0x01;
const TAG_ENTRY: u8 = 0x02;
const TAG_END: u8 = 0x03;

const KIND_GET: u8 = 0x01;
const KIND_SET: u8 = 0x02;
const KIND_CALL: u8 = 0x03;
const KIND_RETURN: u8 = 0x04;
const KIND_INIT: u8 = 0x05;
const KIND_FORK: u8 = 0x06;
const KIND_END: u8 = 0x07;

const OBJ_HAS_LOC: u8 = 0x01;
const OBJ_HAS_SEQ: u8 = 0x02;

/// FNV-1a 64 running checksum (deterministic across platforms and Rust versions, like
/// the fingerprint hash in `rprism-trace`). This is the integrity hash of the whole
/// format layer: the binary footer checksum, the per-frame checksum of the wire
/// protocol ([`crate::frame`]) and the content-addressing hash
/// ([`crate::content_hash`]) all run through it.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher at the FNV-1a 64 offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Streaming writer of the binary encoding: entries go straight to the underlying
/// `Write`, one record at a time; memory use is bounded by the string table and one
/// record's scratch buffer.
pub struct BinaryTraceWriter<W: Write> {
    out: W,
    hash: Fnv64,
    /// String → file-local string id, the deduplication table. It stays local to the
    /// writer (and keyed with std's `RandomState`, by the hashing rule of
    /// [`rprism_trace::inthash`]): the strings may come from an unverified upload,
    /// which must not grow the process-global interner.
    string_ids: HashMap<Box<str>, u32>,
    entries: u64,
    scratch: Vec<u8>,
}

impl<W: Write> BinaryTraceWriter<W> {
    /// Starts a binary trace stream by writing the header.
    pub fn new(out: W, meta: &TraceMeta) -> Result<Self> {
        let mut writer = BinaryTraceWriter {
            out,
            hash: Fnv64::new(),
            string_ids: HashMap::new(),
            entries: 0,
            scratch: Vec::new(),
        };
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&0u16.to_le_bytes());
        for s in [&meta.name, &meta.version, &meta.test_case] {
            varint::write_u64(&mut header, s.len() as u64);
            header.extend_from_slice(s.as_bytes());
        }
        writer.emit(&header)?;
        Ok(writer)
    }

    fn emit(&mut self, bytes: &[u8]) -> Result<()> {
        self.hash.update(bytes);
        self.out.write_all(bytes)?;
        Ok(())
    }

    /// The file-local id of a string, defining it (one `sym` record) on first use.
    /// Ids are assigned in first-mention order; each mention costs one lookup in the
    /// writer's own table.
    fn string_id(&mut self, s: &str) -> Result<u64> {
        if let Some(&id) = self.string_ids.get(s) {
            return Ok(u64::from(id));
        }
        let id = u32::try_from(self.string_ids.len()).expect("string table overflow");
        self.string_ids.insert(s.into(), id);
        let mut record = Vec::with_capacity(s.len() + 6);
        record.push(TAG_SYM);
        varint::write_u64(&mut record, s.len() as u64);
        record.extend_from_slice(s.as_bytes());
        self.emit(&record)?;
        Ok(u64::from(id))
    }

    fn put_objrep(&mut self, buf: &mut Vec<u8>, rep: &ObjRep) -> Result<()> {
        let mut flags = 0u8;
        if rep.loc.is_some() {
            flags |= OBJ_HAS_LOC;
        }
        if rep.creation_seq.is_some() {
            flags |= OBJ_HAS_SEQ;
        }
        buf.push(flags);
        let class = self.string_id(&rep.class)?;
        varint::write_u64(buf, class);
        varint::write_u64(buf, rep.fingerprint.0);
        let printed = self.string_id(&rep.printed)?;
        varint::write_u64(buf, printed);
        if let Some(Loc(loc)) = rep.loc {
            varint::write_u64(buf, loc);
        }
        if let Some(CreationSeq(seq)) = rep.creation_seq {
            varint::write_u64(buf, seq);
        }
        Ok(())
    }

    fn put_snapshot(&mut self, buf: &mut Vec<u8>, snapshot: &StackSnapshot) -> Result<()> {
        varint::write_u64(buf, snapshot.frames.len() as u64);
        for frame in &snapshot.frames {
            let method = self.string_id(frame.method.as_str())?;
            varint::write_u64(buf, method);
            self.put_objrep(buf, &frame.caller)?;
            self.put_objrep(buf, &frame.callee)?;
        }
        Ok(())
    }

    /// Appends one entry record. The entry's `eid` is ignored: ids are implicit in
    /// record order, exactly as [`Trace::push`](rprism_trace::Trace::push) assigns them.
    pub fn write_entry(&mut self, entry: &TraceEntry) -> Result<()> {
        // `string_id` emits `sym` records directly to the output, so the entry body is
        // staged in a scratch buffer and emitted after every definition it references.
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.push(TAG_ENTRY);
        varint::write_u64(&mut buf, entry.tid.0);
        let method = self.string_id(entry.method.as_str())?;
        varint::write_u64(&mut buf, method);
        self.put_objrep(&mut buf, &entry.active)?;
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
                buf.push(if matches!(entry.event, Event::Get { .. }) {
                    KIND_GET
                } else {
                    KIND_SET
                });
                self.put_objrep(&mut buf, target)?;
                let field = self.string_id(field.as_str())?;
                varint::write_u64(&mut buf, field);
                self.put_objrep(&mut buf, value)?;
            }
            Event::Call {
                target,
                method,
                args,
            } => {
                buf.push(KIND_CALL);
                self.put_objrep(&mut buf, target)?;
                let method = self.string_id(method.as_str())?;
                varint::write_u64(&mut buf, method);
                varint::write_u64(&mut buf, args.len() as u64);
                for arg in args {
                    self.put_objrep(&mut buf, arg)?;
                }
            }
            Event::Return {
                target,
                method,
                value,
            } => {
                buf.push(KIND_RETURN);
                self.put_objrep(&mut buf, target)?;
                let method = self.string_id(method.as_str())?;
                varint::write_u64(&mut buf, method);
                self.put_objrep(&mut buf, value)?;
            }
            Event::Init {
                class,
                args,
                result,
            } => {
                buf.push(KIND_INIT);
                let class = self.string_id(class)?;
                varint::write_u64(&mut buf, class);
                varint::write_u64(&mut buf, args.len() as u64);
                for arg in args {
                    self.put_objrep(&mut buf, arg)?;
                }
                self.put_objrep(&mut buf, result)?;
            }
            Event::Fork { child, parentage } => {
                buf.push(KIND_FORK);
                varint::write_u64(&mut buf, child.0);
                varint::write_u64(&mut buf, parentage.len() as u64);
                for snapshot in parentage {
                    self.put_snapshot(&mut buf, snapshot)?;
                }
            }
            Event::End { stack } => {
                buf.push(KIND_END);
                self.put_snapshot(&mut buf, stack)?;
            }
        }
        self.emit(&buf)?;
        self.scratch = buf;
        self.entries += 1;
        Ok(())
    }

    /// Writes the footer (entry count + checksum), flushes, and returns the underlying
    /// writer. A stream that is never finished is unreadable by design: the reader
    /// treats a missing footer as truncation.
    pub fn finish(mut self) -> Result<W> {
        let mut footer = vec![TAG_END];
        varint::write_u64(&mut footer, self.entries);
        self.emit(&footer)?;
        // The checksum covers every byte before itself; the field is excluded.
        let checksum = self.hash.finish();
        self.out.write_all(&checksum.to_le_bytes())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streaming reader of the binary encoding: entries are decoded a batch at a time;
/// memory use is bounded by the string table, one input chunk and the batch.
///
/// The string table is **file-local** (`Vec<Box<str>>`), deliberately not the
/// process-global interner: interned strings are leaked for the process lifetime, so
/// routing untrusted input through the interner would let a single adversarial or
/// corrupt file (whose checksum is only verified at the footer) permanently grow
/// process memory. Owned reads ([`Self::next_entry`], [`Self::read_batch_tail`]) and
/// validation never intern. Only [`Self::read_refs`] does, and only names, once per id
/// (see the module docs): the streaming ingest that calls it accepts that a stream
/// failing late leaves the names read so far behind.
///
/// Input is read into the crate's byte window, which sniffing and a
/// [`crate::TailDecoder`]'s pushes feed directly. Decoding indexes the window; the
/// bytes of the record being decoded stay in it until the record is complete, so a
/// record cut short by the current end of input is re-decoded after the source grows
/// (a tailed file or a byte stream that ends mid-record is a *state*, not an error).
pub struct BinaryTraceReader<R: Read> {
    pub(crate) window: Window<R>,
    /// FNV-1a 64 of every committed byte.
    hash: Fnv64,
    meta: TraceMeta,
    /// File-local string id → string (dropped with the reader).
    strings: Vec<Box<str>>,
    /// What the sinks built from string ids, kept between batches.
    names: Names,
    entries_read: u64,
    done: bool,
    /// Where the last incomplete read ran dry, for strict-mode truncation reports.
    dry_offset: u64,
}

/// Rollback point for one record decode: the table state a partial decode may have
/// mutated. The record's bytes stay in the window, so restoring rewinds it to serve
/// the same bytes again.
#[derive(Clone, Copy)]
struct Checkpoint {
    strings: usize,
    entries_read: u64,
}

/// The most bytes [`varint::decode`] examines before it decides: ten payload bytes
/// plus the eleventh that proves an encoding overlong.
const VARINT_WINDOW: usize = 11;

impl<R: Read> BinaryTraceReader<R> {
    /// Opens a binary trace stream, parsing and validating the header.
    pub fn new(input: R) -> Result<Self> {
        Self::from_window(Window::new(input))
    }

    /// Opens the binary trace stream at the start of `window`.
    pub(crate) fn from_window(window: Window<R>) -> Result<Self> {
        let mut reader = BinaryTraceReader {
            window,
            hash: Fnv64::new(),
            meta: TraceMeta::default(),
            strings: Vec::new(),
            names: Names::default(),
            entries_read: 0,
            done: false,
            dry_offset: 0,
        };
        let magic = reader.read_array()?;
        if magic != MAGIC {
            return Err(FormatError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes(reader.read_array()?);
        if version != FORMAT_VERSION {
            return Err(FormatError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let flags = u16::from_le_bytes(reader.read_array()?);
        if flags != 0 {
            return Err(FormatError::Corrupt {
                offset: 6,
                detail: format!("reserved header flags set ({flags:#06x})"),
            });
        }
        let name = reader.read_string()?;
        let version_label = reader.read_string()?;
        let test_case = reader.read_string()?;
        reader.meta = TraceMeta::new(name, version_label, test_case);
        reader.commit();
        Ok(reader)
    }

    /// The trace metadata from the header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            strings: self.strings.len(),
            entries_read: self.entries_read,
        }
    }

    /// Rewinds to `cp`: decode state rolls back and the record's bytes are served
    /// again on the next attempt.
    fn restore(&mut self, cp: Checkpoint) {
        self.window.restore();
        self.strings.truncate(cp.strings);
        self.entries_read = cp.entries_read;
    }

    /// Declares the decoded record consumed for good: its bytes go into the running
    /// checksum and the stream is at a record boundary again.
    fn commit(&mut self) {
        self.hash.update(self.window.commit());
    }

    /// Reads exactly `N` bytes.
    fn read_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self
            .window
            .take(N)?
            .try_into()
            .expect("`take` returns N bytes"))
    }

    #[inline]
    fn read_varint(&mut self) -> Result<u64> {
        // A one-byte varint already in the window needs no refill. Otherwise, with the
        // whole varint (or everything the input has) in the window, decoding the slice
        // gives the same value, error and offset as decoding the stream.
        if !matches!(self.window.ahead().first(), Some(&byte) if byte < 0x80) {
            self.window.ensure(VARINT_WINDOW)?;
        }
        let (value, len) = varint::decode(self.window.ahead(), self.window.offset())?;
        self.window.advance(len);
        Ok(value)
    }

    /// Reads a length-prefixed UTF-8 string. The bytes must be in the window before
    /// anything is allocated, so a forged length runs the input dry and reports
    /// truncation instead.
    fn read_string(&mut self) -> Result<String> {
        let start = self.window.offset();
        let len = usize::try_from(self.read_varint()?).unwrap_or(usize::MAX);
        let bytes = self.window.take(len)?;
        let s = std::str::from_utf8(bytes).map_err(|_| FormatError::Corrupt {
            offset: start,
            detail: "string is not valid UTF-8".into(),
        })?;
        Ok(s.to_owned())
    }

    /// Validates a string id against the table, returning the index.
    fn lookup(&self, id: u64) -> Result<usize> {
        let index = usize::try_from(id).unwrap_or(usize::MAX);
        if index < self.strings.len() {
            Ok(index)
        } else {
            Err(FormatError::Corrupt {
                offset: self.window.offset(),
                detail: format!(
                    "string id {id} out of range (table has {} entries)",
                    self.strings.len()
                ),
            })
        }
    }

    fn read_footer(&mut self) -> Result<()> {
        let footer_offset = self.window.offset() - 1;
        let declared = self.read_varint()?;
        if declared != self.entries_read {
            return Err(FormatError::Corrupt {
                offset: footer_offset,
                detail: format!(
                    "footer declares {declared} entries but {} were read",
                    self.entries_read
                ),
            });
        }
        // The checksum covers every byte before its own field: the committed stream
        // plus this record's bytes so far.
        let mut pending = self.hash;
        pending.update(self.window.pending());
        let computed = pending.finish();
        let expected = u64::from_le_bytes(self.read_array()?);
        if expected != computed {
            return Err(FormatError::ChecksumMismatch {
                expected,
                found: computed,
            });
        }
        if self.window.next_byte()?.is_some() {
            return Err(FormatError::Corrupt {
                offset: self.window.offset() - 1,
                detail: "trailing bytes after the trace footer".into(),
            });
        }
        self.done = true;
        Ok(())
    }

    /// Decodes the next entry, or returns `Ok(None)` after a verified footer.
    ///
    /// The entry's id is its position in the stream, matching the
    /// [`Trace`](rprism_trace::Trace) invariant. A stream that ends without a verified
    /// footer reports [`FormatError::Truncated`] — but the reader is *not* poisoned:
    /// the incomplete record's bytes are retained, so calling again after the
    /// underlying source has grown resumes cleanly (see [`Self::read_batch_tail`]).
    /// Each call sets up a batch of one; read many entries with the batch forms.
    pub fn next_entry(&mut self) -> Result<Option<TraceEntry>> {
        let mut out = Vec::with_capacity(1);
        self.read_batch(&mut out, 1)?;
        Ok(out.pop())
    }

    /// Decodes up to `max` further entries into `out` (appending) off a stream that
    /// may still be growing: the id-level walk with the owned-entry sink. A stream
    /// that currently ends mid-record (or at a record boundary without a footer)
    /// yields the entries before the cut, then [`TailBatch::Pending`] with the partial
    /// record retained and re-decoded on the next call, so the reader keeps working
    /// once the underlying source has grown. Corruption (bad tags, checksum
    /// mismatches, invalid ids) remains a hard error.
    pub fn read_batch_tail(&mut self, out: &mut Vec<TraceEntry>, max: usize) -> Result<TailBatch> {
        let mut sink = EntrySink {
            out,
            names: std::mem::take(&mut self.names),
            operands: Vec::new(),
            stacks: Vec::new(),
            frames: Vec::new(),
        };
        let outcome = self.records_into(&mut sink, max);
        self.names = sink.names;
        outcome
    }

    /// The strict form of [`Self::read_batch_tail`]: returns how many entries
    /// arrived, `0` only after a verified footer, and reports truncation where the
    /// input runs dry.
    pub(crate) fn read_batch(&mut self, out: &mut Vec<TraceEntry>, max: usize) -> Result<usize> {
        let outcome = self.read_batch_tail(out, max)?;
        self.strict(outcome)
    }

    /// Decodes up to `max` further entries into `batch` (appending) at the level of
    /// symbols: the id-level walk with the [`EntryBatch`] sink. No [`TraceEntry`] is
    /// built, and no string is copied except into the owned stack snapshots of thread
    /// events; each id in a name position (class, method, field, init class) is
    /// interned on its first mention in the stream and resolved from a per-stream
    /// table after that. Printed strings are never interned.
    ///
    /// The tail semantics and the errors are [`Self::read_batch_tail`]'s.
    pub fn read_refs_tail(&mut self, batch: &mut EntryBatch, max: usize) -> Result<TailBatch> {
        let mut sink = RefSink {
            batch,
            names: std::mem::take(&mut self.names),
            frames: Vec::new(),
        };
        let outcome = self.records_into(&mut sink, max);
        self.names = sink.names;
        outcome
    }

    /// The strict form of [`Self::read_refs_tail`], as [`Self::next_entry`] is of
    /// [`Self::read_batch_tail`]: returns how many entries arrived, `0` only after a
    /// verified footer, and reports truncation where the input runs dry.
    pub fn read_refs(&mut self, batch: &mut EntryBatch, max: usize) -> Result<usize> {
        let outcome = self.read_refs_tail(batch, max)?;
        self.strict(outcome)
    }

    /// Validates the rest of the stream without decoding it: the id-level walk with
    /// the layout sink, which builds nothing — no [`ObjRep`], no names, no argument
    /// lists. The walk is the one every read runs, so a damaged stream fails with
    /// exactly the error [`Self::next_entry`] would report.
    ///
    /// Returns the entry count and, when the stream has the canonical layout (see the
    /// module docs), the FNV-1a 64 of the whole stream, checksum field included: the
    /// bytes [`BinaryTraceWriter`] would produce for the decoded trace, so their hash
    /// is the content hash without a re-encode.
    pub(crate) fn validate(mut self) -> Result<(u64, Option<u64>)> {
        let mut layout = Layout {
            mentioned: 0,
            canonical: true,
        };
        while !self.done {
            let outcome = self.records_into(&mut layout, usize::MAX)?;
            self.strict(outcome)?;
        }
        layout.canonical &= layout.mentioned == self.strings.len();
        let hash = (layout.canonical && self.strings_are_distinct()).then(|| self.hash.finish());
        Ok((self.entries_read, hash))
    }

    /// Canonical layout rule 1: no string is defined twice. Sorted rather than hashed,
    /// since the strings come from an unverified upload.
    fn strings_are_distinct(&self) -> bool {
        let mut sorted: Vec<&str> = self.strings.iter().map(|s| &**s).collect();
        sorted.sort_unstable();
        sorted.windows(2).all(|pair| pair[0] != pair[1])
    }

    /// Turns a tail read's outcome into the strict one: a stream that ran dry before
    /// its verified footer is truncated where it ran dry.
    fn strict(&self, outcome: TailBatch) -> Result<usize> {
        match outcome {
            TailBatch::Entries(n) => Ok(n),
            TailBatch::End => Ok(0),
            TailBatch::Pending => Err(FormatError::Truncated {
                offset: self.dry_offset,
            }),
        }
    }

    /// The record loop behind every read: walks records into `sink`, committing each
    /// complete one, until `max` entries have arrived or the footer is verified. A
    /// record the input runs dry in is rolled back, in the reader and in the sink,
    /// and ends the batch as [`TailBatch::Pending`] (or with the entries before it).
    fn records_into<S: Sink>(&mut self, sink: &mut S, max: usize) -> Result<TailBatch> {
        let mut read = 0;
        while read < max && !self.done {
            let cp = self.checkpoint();
            let dry_offset = match self.walk_record(sink) {
                Ok(Some(record)) => {
                    self.commit();
                    if let Record::Entry = record {
                        read += 1;
                    }
                    continue;
                }
                Ok(None) => self.window.offset(),
                Err(FormatError::Truncated { offset }) => offset,
                Err(e) => {
                    sink.rollback(cp.strings);
                    return Err(e);
                }
            };
            self.dry_offset = dry_offset;
            self.restore(cp);
            sink.rollback(cp.strings);
            return Ok(TailBatch::after(read, true, false));
        }
        Ok(TailBatch::after(read, false, self.done))
    }

    /// The id-level walk of one record starting at the current boundary: every string
    /// id and object representation is handed to `sink` instead of being built.
    /// `Ok(None)` means no tag byte is available right now.
    fn walk_record<S: Sink>(&mut self, sink: &mut S) -> Result<Option<Record>> {
        let Some(tag) = self.window.next_byte()? else {
            return Ok(None);
        };
        match tag {
            TAG_SYM => {
                let s = self.read_string()?.into_boxed_str();
                self.strings.push(s);
                Ok(Some(Record::Sym))
            }
            TAG_ENTRY => {
                let tid = ThreadId(self.read_varint()?);
                let method = self.walk_id(sink)?;
                let active = self.walk_objrep(sink)?;
                let (kind, name, child) = self.walk_event(sink)?;
                sink.entry(
                    &self.strings,
                    RawEntry {
                        eid: EntryId(self.entries_read),
                        tid,
                        method,
                        active,
                        kind,
                        name,
                        child,
                    },
                );
                self.entries_read += 1;
                Ok(Some(Record::Entry))
            }
            TAG_END => {
                self.read_footer()?;
                Ok(Some(Record::End))
            }
            other => Err(FormatError::Corrupt {
                offset: self.window.offset() - 1,
                detail: format!("unknown record tag {other:#04x}"),
            }),
        }
    }

    /// Reads and checks one string id, reporting the mention to `sink`.
    fn walk_id<S: Sink>(&mut self, sink: &mut S) -> Result<usize> {
        let id = self.read_varint()?;
        let index = self.lookup(id)?;
        sink.mention(index);
        Ok(index)
    }

    /// One `objrep` at the level of ids.
    fn walk_objrep<S: Sink>(&mut self, sink: &mut S) -> Result<RawObj> {
        let start = self.window.offset();
        let Some(flags) = self.window.next_byte()? else {
            return Err(FormatError::Truncated {
                offset: self.window.offset(),
            });
        };
        if flags & !(OBJ_HAS_LOC | OBJ_HAS_SEQ) != 0 {
            return Err(FormatError::Corrupt {
                offset: start,
                detail: format!("unknown object representation flags {flags:#04x}"),
            });
        }
        let class = self.walk_id(sink)?;
        let fingerprint = ValueFingerprint(self.read_varint()?);
        let printed = self.walk_id(sink)?;
        let loc = if flags & OBJ_HAS_LOC != 0 {
            Some(Loc(self.read_varint()?))
        } else {
            None
        };
        let creation_seq = if flags & OBJ_HAS_SEQ != 0 {
            Some(CreationSeq(self.read_varint()?))
        } else {
            None
        };
        Ok(RawObj {
            class,
            fingerprint,
            printed,
            loc,
            creation_seq,
        })
    }

    /// One event operand: walked, then handed to `sink`.
    fn walk_operand<S: Sink>(&mut self, sink: &mut S) -> Result<()> {
        let obj = self.walk_objrep(sink)?;
        sink.operand(&self.strings, obj);
        Ok(())
    }

    /// One `snapshot`, frame by frame.
    fn walk_snapshot<S: Sink>(&mut self, sink: &mut S) -> Result<()> {
        let count = self.read_varint()?;
        for _ in 0..count {
            let method = self.walk_id(sink)?;
            let caller = self.walk_objrep(sink)?;
            let callee = self.walk_objrep(sink)?;
            sink.frame(&self.strings, method, caller, callee);
        }
        sink.snapshot();
        Ok(())
    }

    /// One `event`: the operands go to `sink` in [`Event::operands`] order, the stack
    /// snapshots in stream order; returns the kind, the named id and a fork's child.
    fn walk_event<S: Sink>(
        &mut self,
        sink: &mut S,
    ) -> Result<(EventKind, Option<usize>, Option<ThreadId>)> {
        let start = self.window.offset();
        let Some(kind) = self.window.next_byte()? else {
            return Err(FormatError::Truncated {
                offset: self.window.offset(),
            });
        };
        Ok(match kind {
            KIND_GET | KIND_SET | KIND_RETURN => {
                self.walk_operand(sink)?;
                let name = self.walk_id(sink)?;
                self.walk_operand(sink)?;
                let kind = match kind {
                    KIND_GET => EventKind::Get,
                    KIND_SET => EventKind::Set,
                    _ => EventKind::Return,
                };
                (kind, Some(name), None)
            }
            KIND_CALL => {
                self.walk_operand(sink)?;
                let name = self.walk_id(sink)?;
                for _ in 0..self.read_varint()? {
                    self.walk_operand(sink)?;
                }
                (EventKind::Call, Some(name), None)
            }
            KIND_INIT => {
                let name = self.walk_id(sink)?;
                for _ in 0..self.read_varint()? {
                    self.walk_operand(sink)?;
                }
                self.walk_operand(sink)?;
                (EventKind::Init, Some(name), None)
            }
            KIND_FORK => {
                let child = ThreadId(self.read_varint()?);
                let depth = self.read_varint()?;
                for _ in 0..depth {
                    self.walk_snapshot(sink)?;
                }
                (EventKind::Fork, None, Some(child))
            }
            KIND_END => {
                self.walk_snapshot(sink)?;
                (EventKind::End, None, None)
            }
            other => {
                return Err(FormatError::Corrupt {
                    offset: start,
                    detail: format!("unknown event kind {other:#04x}"),
                })
            }
        })
    }
}

/// One object representation at the level of string ids.
#[derive(Clone, Copy)]
struct RawObj {
    class: usize,
    fingerprint: ValueFingerprint,
    printed: usize,
    loc: Option<Loc>,
    creation_seq: Option<CreationSeq>,
}

/// One entry at the level of string ids, less its operands and stacks (which the
/// walk has already handed over).
struct RawEntry {
    eid: EntryId,
    tid: ThreadId,
    method: usize,
    active: RawObj,
    kind: EventKind,
    name: Option<usize>,
    child: Option<ThreadId>,
}

/// One record of the binary stream, as the walk reports it.
enum Record {
    Sym,
    Entry,
    End,
}

/// What the id-level walk reports, in stream order; a sink overrides what it uses.
/// `strings` is the stream's string table as it stands.
trait Sink {
    /// A string id was mentioned (every mention, in stream order).
    fn mention(&mut self, _index: usize) {}
    /// One event operand, in [`Event::operands`] order.
    fn operand(&mut self, _strings: &[Box<str>], _obj: RawObj) {}
    /// One frame of the stack snapshot being walked.
    fn frame(&mut self, _strings: &[Box<str>], _method: usize, _caller: RawObj, _callee: RawObj) {}
    /// The stack snapshot being walked is complete.
    fn snapshot(&mut self) {}
    /// The entry is complete.
    fn entry(&mut self, strings: &[Box<str>], entry: RawEntry);
    /// The record being walked is abandoned, the string table cut back to its first
    /// `strings` ids, and the batch ends: drop what outlives the sink and was built
    /// from the record or from a dropped id.
    fn rollback(&mut self, _strings: usize) {}
}

/// The validate sink: builds nothing, tracks the canonical layout.
struct Layout {
    /// Ids `0..mentioned` have been mentioned by an entry.
    mentioned: usize,
    /// Whether every mention so far kept rules 2 and 3.
    canonical: bool,
}

impl Sink for Layout {
    /// Canonical layout rule 2: the first mention of an id not yet mentioned must be
    /// the lowest such id.
    fn mention(&mut self, index: usize) {
        if index == self.mentioned {
            self.mentioned += 1;
        } else if index > self.mentioned {
            self.canonical = false;
        }
    }

    /// Canonical layout rule 3: after every entry, every defined string was mentioned.
    fn entry(&mut self, strings: &[Box<str>], _: RawEntry) {
        self.canonical &= self.mentioned == strings.len();
    }
}

/// What the building sinks make from string ids, once per id on its first mention:
/// the [`EntryBatch`] sink's symbols and the owned-entry sink's method and field
/// names. The reader keeps them between batches.
#[derive(Default)]
struct Names {
    symbols: Vec<Option<Symbol>>,
    methods: Vec<Option<MethodName>>,
    fields: Vec<Option<FieldName>>,
}

impl Names {
    fn symbol(&mut self, strings: &[Box<str>], index: usize) -> Symbol {
        named(&mut self.symbols, strings, index, intern)
    }

    fn method(&mut self, strings: &[Box<str>], index: usize) -> MethodName {
        named(&mut self.methods, strings, index, |s| MethodName::new(s))
    }

    fn field(&mut self, strings: &[Box<str>], index: usize) -> FieldName {
        named(&mut self.fields, strings, index, |s| FieldName::new(s))
    }

    fn truncate(&mut self, strings: usize) {
        self.symbols.truncate(strings);
        self.methods.truncate(strings);
        self.fields.truncate(strings);
    }
}

/// The value of string id `index` in `table`, made from its string on first use.
fn named<T: Clone>(
    table: &mut Vec<Option<T>>,
    strings: &[Box<str>],
    index: usize,
    make: impl FnOnce(&str) -> T,
) -> T {
    if index >= table.len() {
        table.resize(strings.len(), None);
    }
    table[index]
        .get_or_insert_with(|| make(&strings[index]))
        .clone()
}

/// The owned [`ObjRep`] of an id-level object.
fn owned_objrep(strings: &[Box<str>], obj: RawObj) -> ObjRep {
    ObjRep {
        loc: obj.loc,
        class: String::from(&*strings[obj.class]),
        fingerprint: obj.fingerprint,
        printed: String::from(&*strings[obj.printed]),
        creation_seq: obj.creation_seq,
    }
}

/// The owned [`StackFrame`] of an id-level frame.
fn owned_frame(
    names: &mut Names,
    strings: &[Box<str>],
    method: usize,
    caller: RawObj,
    callee: RawObj,
) -> StackFrame {
    StackFrame::new(
        names.method(strings, method),
        owned_objrep(strings, caller),
        owned_objrep(strings, callee),
    )
}

/// The [`EntryBatch`] sink: resolves name ids to symbols through the stream's lazy
/// per-id table. Printed strings are never interned; only the rare stack snapshots of
/// thread events copy strings, into owned [`StackSnapshot`]s.
struct RefSink<'a> {
    batch: &'a mut EntryBatch,
    names: Names,
    frames: Vec<StackFrame>,
}

impl RefSink<'_> {
    fn obj_at(&mut self, strings: &[Box<str>], obj: RawObj) -> ObjAt {
        ObjAt {
            ident: ObjIdent {
                class: self.names.symbol(strings, obj.class),
                fingerprint: obj.fingerprint,
                creation_seq: obj.creation_seq,
            },
            loc: obj.loc,
        }
    }
}

impl Sink for RefSink<'_> {
    fn operand(&mut self, strings: &[Box<str>], obj: RawObj) {
        let operand = self.obj_at(strings, obj);
        self.batch.push_operand(operand);
    }

    fn frame(&mut self, strings: &[Box<str>], method: usize, caller: RawObj, callee: RawObj) {
        let frame = owned_frame(&mut self.names, strings, method, caller, callee);
        self.frames.push(frame);
    }

    fn snapshot(&mut self) {
        let frames = self.frames.drain(..).collect();
        self.batch.push_stack(StackSnapshot::new(frames));
    }

    fn entry(&mut self, strings: &[Box<str>], entry: RawEntry) {
        let head = EntryHead {
            eid: entry.eid,
            tid: entry.tid,
            method: self.names.symbol(strings, entry.method),
            active: self.obj_at(strings, entry.active),
            kind: entry.kind,
            name: entry.name.map(|name| self.names.symbol(strings, name)),
            child: entry.child,
        };
        self.batch.close_entry(head);
    }

    fn rollback(&mut self, strings: usize) {
        self.names.truncate(strings);
        self.batch.discard_open();
    }
}

/// The owned-entry sink: builds each [`TraceEntry`] from the operands and stack
/// snapshots the walk handed over, resolving method and field names through the
/// stream's lazy per-id tables. Every other string is copied out of the table.
struct EntrySink<'a> {
    out: &'a mut Vec<TraceEntry>,
    names: Names,
    /// The open entry's operands, in [`Event::operands`] order.
    operands: Vec<ObjRep>,
    /// The open entry's stack snapshots.
    stacks: Vec<StackSnapshot>,
    /// The open snapshot's frames.
    frames: Vec<StackFrame>,
}

impl EntrySink<'_> {
    fn operand(&mut self) -> ObjRep {
        self.operands
            .pop()
            .expect("the walk hands over every operand")
    }
}

impl Sink for EntrySink<'_> {
    fn operand(&mut self, strings: &[Box<str>], obj: RawObj) {
        self.operands.push(owned_objrep(strings, obj));
    }

    fn frame(&mut self, strings: &[Box<str>], method: usize, caller: RawObj, callee: RawObj) {
        let frame = owned_frame(&mut self.names, strings, method, caller, callee);
        self.frames.push(frame);
    }

    fn snapshot(&mut self) {
        let frames = self.frames.drain(..).collect();
        self.stacks.push(StackSnapshot::new(frames));
    }

    fn entry(&mut self, strings: &[Box<str>], entry: RawEntry) {
        let event = match (entry.kind, entry.name) {
            (EventKind::Get | EventKind::Set, Some(name)) => {
                let value = self.operand();
                let target = self.operand();
                let field = self.names.field(strings, name);
                if entry.kind == EventKind::Get {
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
            (EventKind::Call, Some(name)) => {
                let args = self.operands.drain(1..).collect();
                Event::Call {
                    target: self.operand(),
                    method: self.names.method(strings, name),
                    args,
                }
            }
            (EventKind::Return, Some(name)) => {
                let value = self.operand();
                Event::Return {
                    target: self.operand(),
                    method: self.names.method(strings, name),
                    value,
                }
            }
            (EventKind::Init, Some(name)) => {
                let result = self.operand();
                Event::Init {
                    class: String::from(&*strings[name]),
                    args: self.operands.drain(..).collect(),
                    result,
                }
            }
            (EventKind::Fork, _) => Event::Fork {
                child: entry.child.expect("the walk gives every fork its child"),
                parentage: self.stacks.drain(..).collect(),
            },
            (EventKind::End, _) => Event::End {
                stack: self.stacks.pop().expect("the walk hands over the stack"),
            },
            _ => unreachable!("the walk names every get, set, call, return and init"),
        };
        let method = self.names.method(strings, entry.method);
        let active = owned_objrep(strings, entry.active);
        self.out
            .push(TraceEntry::new(entry.eid, entry.tid, method, active, event));
    }

    fn rollback(&mut self, strings: usize) {
        self.names.truncate(strings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::CHUNK;
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

    fn encode(trace: &Trace) -> Vec<u8> {
        let mut w = BinaryTraceWriter::new(Vec::new(), &trace.meta).unwrap();
        for entry in trace {
            w.write_entry(entry).unwrap();
        }
        w.finish().unwrap()
    }

    fn decode(bytes: &[u8]) -> Result<Trace> {
        let mut r = BinaryTraceReader::new(bytes)?;
        let mut trace = Trace::new(r.meta().clone());
        while let Some(entry) = r.next_entry()? {
            trace.push(entry);
        }
        Ok(trace)
    }

    #[test]
    fn round_trips_structurally() {
        let trace = sample_trace(11, 200);
        let decoded = decode(&encode(&trace)).unwrap();
        assert_eq!(trace, decoded);
    }

    #[test]
    fn re_encoding_is_byte_stable() {
        let trace = sample_trace(23, 150);
        let bytes = encode(&trace);
        let again = encode(&decode(&bytes).unwrap());
        assert_eq!(bytes, again);
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::new(TraceMeta::new("empty", "", ""));
        let decoded = decode(&encode(&trace)).unwrap();
        assert_eq!(decoded.len(), 0);
        assert_eq!(decoded.meta, trace.meta);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&sample_trace(1, 3));
        bytes[0] = b'X';
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            FormatError::BadMagic { .. }
        ));
    }

    #[test]
    fn future_version_is_rejected_cleanly() {
        let mut bytes = encode(&sample_trace(1, 3));
        bytes[4] = 0x2a; // version 42
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            FormatError::UnsupportedVersion { found: 42, .. }
        ));
    }

    #[test]
    fn reserved_flags_are_rejected() {
        let mut bytes = encode(&sample_trace(1, 3));
        bytes[6] = 0x01;
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            FormatError::Corrupt { .. }
        ));
    }

    #[test]
    fn missing_footer_is_truncation() {
        let bytes = encode(&sample_trace(5, 10));
        // Drop the footer (tag + count + checksum = at least 10 bytes).
        let cut = &bytes[..bytes.len() - 10];
        assert!(matches!(
            decode(cut).unwrap_err(),
            FormatError::Truncated { .. } | FormatError::Corrupt { .. }
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&sample_trace(5, 10));
        bytes.push(0x00);
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            FormatError::Corrupt { .. }
        ));
    }

    /// A `Read` that hands out at most `step` bytes per call.
    struct ShortReads<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for ShortReads<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = out.len().min(self.step).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// A trace with one `sym` record (a ~100 KB printed string) larger than a refill.
    fn trace_with_a_record_larger_than_a_chunk() -> Trace {
        let mut rng = Rng::new(41);
        let mut t = Trace::new(TraceMeta::new("window", "v1", "t1"));
        for i in 0..120 {
            let mut entry = arbitrary_entry(&mut rng);
            if i == 60 {
                entry.active.printed = "0123456789".repeat(10_000);
            }
            t.push(entry);
        }
        t
    }

    /// Read sizes that straddle the reader's window: single bytes, and one refill
    /// minus one, exactly, plus one.
    const STEPS: [usize; 4] = [1, CHUNK - 1, CHUNK, CHUNK + 1];

    /// Both encodings of [`trace_with_a_record_larger_than_a_chunk`]: in JSONL the
    /// long printed string makes one line wider than a refill.
    fn window_boundary_inputs() -> (Trace, [(crate::Encoding, Vec<u8>); 2]) {
        let trace = trace_with_a_record_larger_than_a_chunk();
        let inputs = [crate::Encoding::Binary, crate::Encoding::Jsonl]
            .map(|encoding| (encoding, crate::trace_to_bytes(&trace, encoding).unwrap()));
        (trace, inputs)
    }

    #[test]
    fn short_reads_at_the_window_boundaries_decode_identically() {
        let (trace, inputs) = window_boundary_inputs();
        for (encoding, bytes) in inputs {
            let expected = crate::trace_from_bytes(&bytes).unwrap();
            assert_eq!(expected, trace, "{encoding}");
            for step in STEPS {
                let input = std::io::BufReader::new(ShortReads {
                    bytes: &bytes,
                    step,
                });
                let r = crate::TraceReader::new(input).unwrap();
                assert_eq!(r.encoding(), encoding);
                let got = r.into_trace().unwrap();
                assert_eq!(got, expected, "{encoding}, read size {step}");
            }
        }
    }

    #[test]
    fn tail_decoder_drip_feed_at_the_window_boundaries_decodes_identically() {
        let (_, inputs) = window_boundary_inputs();
        for (encoding, bytes) in inputs {
            let expected = crate::trace_from_bytes(&bytes).unwrap();
            for step in STEPS {
                let mut decoder = crate::TailDecoder::new();
                let mut got = Vec::new();
                let mut batch = Vec::new();
                for piece in bytes.chunks(step) {
                    decoder.push_bytes(piece).unwrap();
                    while let crate::TailBatch::Entries(_) =
                        decoder.read_batch(&mut batch, 16).unwrap()
                    {
                        got.append(&mut batch);
                    }
                }
                decoder.finish(&mut got).unwrap();
                assert_eq!(got.len(), expected.len(), "{encoding}, chunk size {step}");
                for (a, b) in got.iter().zip(expected.iter()) {
                    assert_eq!(a, b, "{encoding}, chunk size {step}");
                }
            }
        }
    }

    #[test]
    fn entry_ids_are_positions() {
        let trace = sample_trace(7, 25);
        let decoded = decode(&encode(&trace)).unwrap();
        for (i, e) in decoded.iter().enumerate() {
            assert_eq!(e.eid.index(), i);
        }
    }
}
