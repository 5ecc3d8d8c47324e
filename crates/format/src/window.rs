//! The byte window under both trace readers: sniffing looks at its first bytes, the
//! binary reader walks records in it, the JSONL reader finds lines in it, and a tail
//! decoder pushes received chunks onto it. [`Window::fill`] is the only place trace
//! decoding calls [`Read::read`].
//!
//! The methods the record walk calls per field are `#[inline]`: without it they
//! compile to calls between codegen units on the decode's hot path.

use std::io::Read;

use crate::error::{FormatError, Result};

/// The least room one [`Window::fill`] offers the input.
pub(crate) const CHUNK: usize = 8 * 1024;

/// `buf[start..pos]` is the record (or line) being decoded and `buf[pos..end]` is read
/// ahead; everything before `start` is committed, and `buf[end..]` is room for the next
/// read. The bytes from `start` stay until a commit, so a record cut short by the
/// current end of input is decoded again after the source grows.
pub(crate) struct Window<R> {
    input: R,
    buf: Vec<u8>,
    start: usize,
    pos: usize,
    end: usize,
    /// Absolute stream offset of `buf[0]`.
    base: u64,
}

impl<R: Read> Window<R> {
    pub(crate) fn new(input: R) -> Self {
        Window {
            input,
            buf: Vec::new(),
            start: 0,
            pos: 0,
            end: 0,
            base: 0,
        }
    }

    /// Absolute offset of the next byte to decode.
    #[inline]
    pub(crate) fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// The bytes read ahead of the decode position.
    #[inline]
    pub(crate) fn ahead(&self) -> &[u8] {
        &self.buf[self.pos..self.end]
    }

    /// Consumes the next `n` read-ahead bytes.
    #[inline]
    pub(crate) fn advance(&mut self, n: usize) {
        self.pos += n;
    }

    /// Consumes the next byte, or returns `None` when the input has none right now.
    #[inline]
    pub(crate) fn next_byte(&mut self) -> Result<Option<u8>> {
        if self.pos == self.end && self.fill()? == 0 {
            return Ok(None);
        }
        self.pos += 1;
        Ok(Some(self.buf[self.pos - 1]))
    }

    /// Moves the uncommitted bytes to the front and makes room for `n` more.
    fn compact(&mut self, n: usize) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.base += self.start as u64;
            self.pos -= self.start;
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < n {
            self.buf.resize(self.end + n, 0);
        }
    }

    /// Reads one chunk from the input onto the end of the window, retrying
    /// interrupted reads. `0` means the input has no byte *right now* — a clean end
    /// for a complete stream, a wait state for a growing one.
    pub(crate) fn fill(&mut self) -> Result<usize> {
        self.compact(CHUNK);
        loop {
            match self.input.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FormatError::Io(e)),
            }
        }
    }

    /// Appends received bytes, as if the input had just read them.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        self.compact(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Makes `n` bytes available ahead; `false` when the input runs dry first. The
    /// window grows only by bytes that arrived, so a forged length cannot trigger a
    /// huge allocation.
    #[inline]
    pub(crate) fn ensure(&mut self, n: usize) -> Result<bool> {
        while self.end - self.pos < n {
            if self.fill()? == 0 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Consumes the next `n` bytes, or reports truncation where the input runs dry.
    pub(crate) fn take(&mut self, n: usize) -> Result<&[u8]> {
        if !self.ensure(n)? {
            let offset = self.base + self.end as u64;
            return Err(FormatError::Truncated { offset });
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    /// Drops the first `n` bytes of a fresh window: offsets count from the byte after.
    pub(crate) fn skip_prefix(&mut self, n: usize) {
        self.buf.drain(..n);
        self.end -= n;
    }

    /// The bytes decoded since the last commit.
    pub(crate) fn pending(&self) -> &[u8] {
        &self.buf[self.start..self.pos]
    }

    /// Consumes the bytes decoded since the last commit for good, returning them.
    #[inline]
    pub(crate) fn commit(&mut self) -> &[u8] {
        let start = std::mem::replace(&mut self.start, self.pos);
        &self.buf[start..self.pos]
    }

    /// Rewinds to the last commit: the same bytes are served again.
    pub(crate) fn restore(&mut self) {
        self.pos = self.start;
    }
}
