//! Conformance cases for the byte-level edge conditions fixed alongside streaming
//! ingestion:
//!
//! * **Canonical varints** — the binary reader must reject non-canonical (overlong)
//!   LEB128 encodings. Before the fix, an overlong varint with a matching checksum
//!   decoded silently and re-encoded to *different* bytes, breaking the format's
//!   byte-stability guarantee; these are regression tests that fail on that behaviour.
//! * **Sniffing** — a UTF-8 BOM is accepted (and stripped) in front of both encodings,
//!   a stream that ends inside the `RPTR` magic reports truncation rather than a JSONL
//!   parse error, and an empty stream names the problem.
//! * **Varint edge cases on both decoders** — every one-byte value, the overlong zero,
//!   the ten-byte maximum, an eleven-byte run and every cut of a varint give the same
//!   value, or the same error at the same offset, through the binary walk (strict,
//!   and drip-fed one byte at a time) and through the wire's `Response::decode`.

use std::io::Read;

use rprism_format::{
    read_trace, trace_from_bytes, trace_to_bytes, varint, Encoding, FormatError, TailBatch,
    TailDecoder,
};
use rprism_server::proto::{Response, PROTO_VERSION};
use rprism_trace::testgen::{arbitrary_trace, Rng};
use rprism_trace::Trace;

fn sample(seed: u64, len: usize) -> Trace {
    let mut rng = Rng::new(seed);
    arbitrary_trace(&mut rng, len)
}

/// FNV-1a 64 over `bytes` (the checksum function of the binary footer).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Rewrites the single-byte varint at `pos` into its two-byte overlong form and fixes
/// the footer checksum so only the canonicality check can reject the stream.
fn flip_varint_to_overlong(bytes: &[u8], pos: usize) -> Vec<u8> {
    let value = bytes[pos];
    assert!(value < 0x80, "test expects a single-byte varint at {pos}");
    let mut damaged = Vec::with_capacity(bytes.len() + 1);
    damaged.extend_from_slice(&bytes[..pos]);
    damaged.push(value | 0x80);
    damaged.push(0x00);
    damaged.extend_from_slice(&bytes[pos + 1..bytes.len() - 8]);
    let checksum = fnv64(&damaged);
    damaged.extend_from_slice(&checksum.to_le_bytes());
    damaged
}

#[test]
fn overlong_entry_count_varint_is_rejected_despite_valid_checksum() {
    let trace = sample(0x0b07, 12);
    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    // Footer: TAG_END, varint(entry count), checksum u64 — 12 entries is one byte.
    let count_pos = bytes.len() - 9;
    assert_eq!(bytes[count_pos], 12);
    let damaged = flip_varint_to_overlong(&bytes, count_pos);
    match trace_from_bytes(&damaged) {
        Err(FormatError::Corrupt { detail, .. }) => {
            assert!(detail.contains("overlong"), "unexpected detail {detail:?}")
        }
        other => panic!("overlong entry count accepted: {other:?}"),
    }
}

#[test]
fn overlong_string_length_varint_is_rejected_despite_valid_checksum() {
    let trace = sample(0x51ee, 12);
    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    // Header: magic(4) + version(2) + flags(2) + three length-prefixed meta strings.
    let mut pos = 8;
    for _ in 0..3 {
        let len = bytes[pos] as usize;
        assert!(len < 0x80);
        pos += 1 + len;
    }
    // First record must be a `sym` definition; its length varint follows the tag.
    assert_eq!(bytes[pos], 0x01, "expected a sym record after the header");
    let damaged = flip_varint_to_overlong(&bytes, pos + 1);
    match trace_from_bytes(&damaged) {
        Err(FormatError::Corrupt { detail, .. }) => {
            assert!(detail.contains("overlong"), "unexpected detail {detail:?}")
        }
        other => panic!("overlong string length accepted: {other:?}"),
    }
}

#[test]
fn every_single_byte_varint_flipped_to_overlong_is_rejected() {
    // Fuzz-suite variant of the regression: take every byte that terminates a varint
    // candidate (high bit clear), rewrite it to the overlong form with a repaired
    // checksum, and require a structured error — never a silent decode. Bytes that are
    // not actually varint positions may fail with any structured error; the property
    // under test is that nothing decodes from bytes the writer could not have produced.
    let trace = sample(0xfa22, 8);
    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    let body_end = bytes.len() - 8;
    let original = trace_from_bytes(&bytes).unwrap();
    let mut rejected = 0usize;
    for pos in 8..body_end {
        if bytes[pos] >= 0x80 {
            continue;
        }
        let damaged = flip_varint_to_overlong(&bytes, pos);
        match trace_from_bytes(&damaged) {
            Err(_) => rejected += 1,
            Ok(decoded) => {
                // A flip inside string *content* produces a different but valid string;
                // the result must then differ from the original trace (no aliasing of
                // two byte streams onto one trace).
                assert_ne!(
                    decoded, original,
                    "byte {pos} flipped to overlong decoded to the original trace"
                );
            }
        }
    }
    assert!(rejected > 0, "no overlong rewrite was rejected");
}

#[test]
fn utf8_bom_is_stripped_from_both_encodings() {
    let trace = sample(0xb0b0, 20);
    for encoding in [Encoding::Binary, Encoding::Jsonl] {
        let bytes = trace_to_bytes(&trace, encoding).unwrap();
        let mut with_bom = vec![0xef, 0xbb, 0xbf];
        with_bom.extend_from_slice(&bytes);
        let decoded = trace_from_bytes(&with_bom)
            .unwrap_or_else(|e| panic!("BOM-prefixed {encoding} stream rejected: {e}"));
        assert_eq!(
            decoded, trace,
            "BOM-prefixed {encoding} round trip diverged"
        );
    }
}

#[test]
fn stream_ending_inside_the_magic_reports_truncation_not_json_noise() {
    for cut in 1..4 {
        let err = trace_from_bytes(&rprism_format::MAGIC[..cut]).unwrap_err();
        assert!(
            matches!(err, FormatError::Truncated { offset } if offset == cut as u64),
            "magic prefix of {cut} bytes: {err:?}"
        );
    }
}

#[test]
fn empty_stream_has_a_dedicated_message() {
    match trace_from_bytes(b"") {
        Err(FormatError::Corrupt { detail, .. }) => {
            assert!(detail.contains("empty"), "unexpected detail {detail:?}")
        }
        other => panic!("empty stream: {other:?}"),
    }
    // A BOM alone is still an empty stream.
    match trace_from_bytes(&[0xef, 0xbb, 0xbf]) {
        Err(FormatError::Corrupt { detail, .. }) => {
            assert!(detail.contains("empty"), "unexpected detail {detail:?}")
        }
        other => panic!("BOM-only stream: {other:?}"),
    }
}

/// What decoding one varint gives, stated as the decoder's rules say.
#[derive(Clone, Debug)]
enum Expect {
    Value(u64),
    /// Corrupt at the varint's first byte, with this detail.
    Corrupt(&'static str),
    /// The input ends inside the varint.
    Truncated,
}

/// Every edge case: each one-byte value, the overlong zero, the ten-byte maximum, an
/// eleven-byte run, and the maximum cut after each of its bytes.
fn varint_cases() -> Vec<(Vec<u8>, Expect)> {
    let mut cases: Vec<(Vec<u8>, Expect)> = (0..=0x7fu8)
        .map(|byte| (vec![byte], Expect::Value(u64::from(byte))))
        .collect();
    cases.push((
        vec![0x80, 0x00],
        Expect::Corrupt("non-canonical (overlong) varint"),
    ));
    let mut max = Vec::new();
    varint::write_u64(&mut max, u64::MAX);
    assert_eq!(max.len(), 10);
    cases.push((max.clone(), Expect::Value(u64::MAX)));
    cases.push((
        vec![0x80; 11],
        Expect::Corrupt("varint longer than 10 bytes"),
    ));
    for cut in 1..max.len() {
        cases.push((max[..cut].to_vec(), Expect::Truncated));
    }
    cases.push((vec![0x80], Expect::Truncated));
    cases
}

/// A reader that hands out one byte per `read`.
struct OneByteReads<'a>(&'a [u8]);

impl Read for OneByteReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some((&first, rest)) = self.0.split_first() else {
            return Ok(0);
        };
        if buf.is_empty() {
            return Ok(0);
        }
        buf[0] = first;
        self.0 = rest;
        Ok(1)
    }
}

/// Pushes `bytes` one at a time, draining after each push, then finishes.
fn drip_feed(bytes: &[u8]) -> Result<Trace, FormatError> {
    let mut decoder = TailDecoder::new();
    let mut entries = Vec::new();
    let mut batch = Vec::new();
    for byte in bytes {
        decoder.push_bytes(std::slice::from_ref(byte))?;
        while let TailBatch::Entries(_) = decoder.read_batch(&mut batch, usize::MAX)? {
            entries.append(&mut batch);
        }
    }
    decoder.finish(&mut entries)?;
    let meta = decoder.meta().expect("header parsed").clone();
    let mut trace = Trace::new(meta);
    for entry in entries {
        trace.push(entry);
    }
    Ok(trace)
}

#[test]
fn varint_edge_cases_decode_alike_in_the_binary_walk() {
    // Each case replaces the footer's entry count; a count that decodes shows its value
    // in the entry-count check, and a good stream carries the repaired checksum.
    let trace = sample(0x7a11, 12);
    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    let count_at = bytes.len() - 9;
    assert_eq!(bytes[count_at], 12);
    let entries = trace.len() as u64;
    for (varint, expect) in varint_cases() {
        let mut stream = bytes[..count_at].to_vec();
        stream.extend_from_slice(&varint);
        if !matches!(expect, Expect::Truncated) {
            let checksum = fnv64(&stream);
            stream.extend_from_slice(&checksum.to_le_bytes());
        }
        let expected = match expect {
            Expect::Value(value) if value == entries => Ok(trace.clone()),
            Expect::Value(value) => Err(FormatError::Corrupt {
                offset: count_at as u64 - 1,
                detail: format!("footer declares {value} entries but {entries} were read"),
            }),
            Expect::Corrupt(detail) => Err(FormatError::Corrupt {
                offset: count_at as u64,
                detail: detail.into(),
            }),
            Expect::Truncated => Err(FormatError::Truncated {
                offset: stream.len() as u64,
            }),
        };
        let expected = format!("{expected:?}");
        for (path, decoded) in [
            ("strict", trace_from_bytes(&stream)),
            ("one-byte reads", read_trace(OneByteReads(&stream))),
            ("one-byte pushes", drip_feed(&stream)),
        ] {
            assert_eq!(
                format!("{decoded:?}"),
                expected,
                "{path}, varint {varint:02x?}"
            );
        }
    }
}

#[test]
fn varint_edge_cases_decode_alike_on_the_wire() {
    // `Response::Corrupt` starts with a `u64` varint (the hash), then a string.
    let header = [PROTO_VERSION, 0xfe];
    for (varint, expect) in varint_cases() {
        let mut payload = [&header[..], &varint].concat();
        if !matches!(expect, Expect::Truncated) {
            payload.push(0x00);
        }
        let expected = match expect {
            Expect::Value(hash) => Ok(Response::Corrupt {
                hash,
                message: String::new(),
            }),
            Expect::Corrupt(detail) => Err(FormatError::Corrupt {
                offset: header.len() as u64,
                detail: detail.into(),
            }),
            Expect::Truncated => Err(FormatError::Truncated {
                offset: payload.len() as u64,
            }),
        };
        assert_eq!(
            format!("{:?}", Response::decode(&payload)),
            format!("{expected:?}"),
            "varint {varint:02x?}"
        );
    }
}
