//! LEB128 unsigned varints, the integer encoding of the binary trace format.
//!
//! Seven payload bits per byte, least-significant group first; the high bit of each byte
//! marks continuation. A `u64` therefore takes at most ten bytes, and the decoder rejects
//! anything longer (or any continuation past the 64th bit) as corrupt rather than
//! silently wrapping.
//!
//! Decoding is **canonical**: every value has exactly one accepted encoding, the
//! shortest one. Overlong forms (a final byte of `0x00` after a continuation, e.g.
//! `80 00` for zero) are rejected as corrupt — accepting them would let two different
//! byte streams decode to the same trace, silently breaking the format's byte-stability
//! guarantee on re-encode.

use crate::error::{FormatError, Result};

/// A stream of bytes with a known absolute offset, the input side of the binary decoder.
/// `next` returns `Ok(None)` at a clean end of input; the varint decoder converts that
/// into a [`FormatError::Truncated`] because a varint never ends mid-value.
pub trait ByteSource {
    /// The next byte, or `None` at end of input.
    fn next_byte(&mut self) -> Result<Option<u8>>;
    /// Absolute offset of the *next* byte `next_byte` would return.
    fn offset(&self) -> u64;
}

/// A [`ByteSource`] over an in-memory slice: [`decode`]'s path for longer varints.
struct SliceSource<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> SliceSource<'a> {
    /// Wraps a slice whose first byte sits at absolute offset `base`.
    fn new(bytes: &'a [u8], base: u64) -> Self {
        SliceSource {
            bytes,
            pos: 0,
            base,
        }
    }
}

impl ByteSource for SliceSource<'_> {
    fn next_byte(&mut self) -> Result<Option<u8>> {
        let byte = self.bytes.get(self.pos).copied();
        if byte.is_some() {
            self.pos += 1;
        }
        Ok(byte)
    }

    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }
}

/// Appends the LEB128 encoding of `value` to `out`.
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The number of bytes [`write_u64`] produces for `value`.
pub fn encoded_len(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).max(1).div_ceil(7)
}

/// Decodes one LEB128 `u64` from the start of `bytes`, whose first byte sits at
/// absolute offset `base`, and returns the value and the number of bytes it took.
///
/// A first byte below `0x80` is a whole canonical varint on its own and returns at
/// once; every longer input goes through [`read_u64`], with its errors and offsets.
#[inline]
pub fn decode(bytes: &[u8], base: u64) -> Result<(u64, usize)> {
    match bytes.first() {
        Some(&byte) if byte < 0x80 => Ok((u64::from(byte), 1)),
        _ => decode_long(bytes, base),
    }
}

#[inline(never)]
fn decode_long(bytes: &[u8], base: u64) -> Result<(u64, usize)> {
    let mut src = SliceSource::new(bytes, base);
    let value = read_u64(&mut src)?;
    Ok((value, src.pos))
}

/// Reads one LEB128 `u64` from the source.
pub fn read_u64(src: &mut impl ByteSource) -> Result<u64> {
    let start = src.offset();
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    loop {
        let Some(byte) = src.next_byte()? else {
            return Err(FormatError::Truncated {
                offset: src.offset(),
            });
        };
        let payload = u64::from(byte & 0x7f);
        // The tenth byte of a u64 varint may only contribute the single remaining bit.
        if shift == 63 && payload > 1 {
            return Err(FormatError::Corrupt {
                offset: start,
                detail: "varint overflows u64".into(),
            });
        }
        if shift > 63 {
            return Err(FormatError::Corrupt {
                offset: start,
                detail: "varint longer than 10 bytes".into(),
            });
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            // Canonicality: a multi-byte encoding whose final group is all zeros spells
            // a value that fits in fewer bytes — a non-canonical (overlong) form.
            if byte == 0 && shift > 0 {
                return Err(FormatError::Corrupt {
                    offset: start,
                    detail: "non-canonical (overlong) varint".into(),
                });
            }
            return Ok(value);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: u64) {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        assert_eq!(buf.len(), encoded_len(v), "length prediction for {v}");
        let mut src = SliceSource::new(&buf, 0);
        assert_eq!(read_u64(&mut src).unwrap(), v);
        assert_eq!(src.offset(), buf.len() as u64);
    }

    #[test]
    fn round_trips_across_the_range() {
        for v in [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            round_trip(v);
        }
        // Every power-of-two boundary.
        for shift in 0..64 {
            round_trip(1u64 << shift);
            round_trip((1u64 << shift) - 1);
        }
    }

    #[test]
    fn decode_agrees_with_the_stream_decoder() {
        let mut inputs: Vec<Vec<u8>> = (0..=0xffu8).map(|b| vec![b]).collect();
        inputs.extend([vec![], vec![0x80, 0x00], vec![0x80; 11], vec![0xff; 10]]);
        let mut max = Vec::new();
        write_u64(&mut max, u64::MAX);
        inputs.extend((0..=max.len()).map(|len| max[..len].to_vec()));
        for input in inputs {
            let mut src = SliceSource::new(&input, 7);
            let stream = read_u64(&mut src).map(|v| (v, (src.offset() - 7) as usize));
            assert_eq!(
                format!("{:?}", decode(&input, 7)),
                format!("{stream:?}"),
                "{input:02x?}"
            );
        }
    }

    #[test]
    fn truncated_varint_is_an_error() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        for len in 0..buf.len() {
            let mut src = SliceSource::new(&buf[..len], 100);
            let err = read_u64(&mut src).unwrap_err();
            assert!(matches!(err, FormatError::Truncated { offset } if offset >= 100));
        }
    }

    #[test]
    fn overlong_encodings_are_rejected_as_non_canonical() {
        // `80 00` spells zero in two bytes; `ff 00` spells 127 in two bytes. Both have
        // canonical one-byte forms and must be rejected, not silently normalized.
        for overlong in [&[0x80u8, 0x00][..], &[0xff, 0x00], &[0x80, 0x80, 0x00]] {
            let mut src = SliceSource::new(overlong, 0);
            let err = read_u64(&mut src).unwrap_err();
            assert!(
                matches!(&err, FormatError::Corrupt { detail, .. } if detail.contains("overlong")),
                "expected overlong rejection for {overlong:02x?}, got {err:?}"
            );
        }
        // The canonical single-byte zero still decodes.
        let mut src = SliceSource::new(&[0x00], 0);
        assert_eq!(read_u64(&mut src).unwrap(), 0);
    }

    #[test]
    fn overlong_varint_is_corrupt_not_wrapping() {
        // Eleven continuation bytes: longer than any valid u64 varint.
        let buf = [0x80u8; 11];
        let mut src = SliceSource::new(&buf, 0);
        assert!(matches!(
            read_u64(&mut src).unwrap_err(),
            FormatError::Corrupt { .. }
        ));
        // Ten bytes whose final payload would overflow the 64th bit.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x02);
        let mut src = SliceSource::new(&buf, 0);
        assert!(matches!(
            read_u64(&mut src).unwrap_err(),
            FormatError::Corrupt { .. }
        ));
    }
}
