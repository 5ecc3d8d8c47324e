//! Property tests for the trace format: round trips and corruption fuzzing.
//!
//! * For generated traces (deterministic `testgen` RNG, no external dependencies),
//!   `read(write(t)) ≡ t` under both encodings — full structural equality, which
//!   subsumes `event_eq`.
//! * Truncating a binary trace at **every** byte boundary, or flipping **any** single
//!   byte, yields `Err(..)` — never a panic and never a silently different trace. The
//!   checksummed footer is what makes the flip property hold even for bytes the
//!   structural checks cannot pin down (string contents, fingerprints).

use rprism_format::{
    content_summary, trace_from_bytes, trace_to_bytes, Encoding, Fnv64, FormatError,
};
use rprism_trace::testgen::{arbitrary_trace, GenProfile, Rng};
use rprism_trace::{event_eq, Trace};

fn generated_traces() -> Vec<Trace> {
    let mut rng = Rng::new(0x5eed);
    let mut traces = Vec::new();
    for len in [0, 1, 2, 7, 30, 120] {
        for _ in 0..4 {
            traces.push(arbitrary_trace(&mut rng, len));
        }
    }
    traces
}

#[test]
fn read_write_round_trips_under_both_encodings() {
    for (i, trace) in generated_traces().iter().enumerate() {
        for encoding in [Encoding::Binary, Encoding::Jsonl] {
            let bytes = trace_to_bytes(trace, encoding)
                .unwrap_or_else(|e| panic!("case {i} ({encoding}): write failed: {e}"));
            let back = trace_from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("case {i} ({encoding}): read failed: {e}"));
            assert_eq!(&back, trace, "case {i} ({encoding}) round trip diverged");
            // Belt and braces: the entries are also pairwise event-equal (the relation
            // the differencers actually use).
            for (a, b) in trace.iter().zip(back.iter()) {
                assert!(event_eq(a, b), "case {i} ({encoding}): {} !=e {}", a, b);
            }
        }
    }
}

#[test]
fn re_encoding_is_byte_stable_under_both_encodings() {
    for (i, trace) in generated_traces().iter().enumerate() {
        for encoding in [Encoding::Binary, Encoding::Jsonl] {
            let first = trace_to_bytes(trace, encoding).unwrap();
            let reparsed = trace_from_bytes(&first).unwrap();
            let second = trace_to_bytes(&reparsed, encoding).unwrap();
            assert_eq!(first, second, "case {i} ({encoding}) re-encoding drifted");
        }
    }
}

#[test]
fn truncating_a_binary_trace_anywhere_is_a_structured_error() {
    let mut rng = Rng::new(0xcafe);
    let trace = arbitrary_trace(&mut rng, 40);
    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    for len in 0..bytes.len() {
        match trace_from_bytes(&bytes[..len]) {
            Err(_) => {}
            Ok(decoded) => panic!(
                "truncation to {len}/{} bytes decoded silently ({} entries)",
                bytes.len(),
                decoded.len()
            ),
        }
    }
}

#[test]
fn flipping_any_single_byte_of_a_binary_trace_is_a_structured_error() {
    let mut rng = Rng::new(0xbeef);
    let trace = arbitrary_trace(&mut rng, 40);
    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    for pos in 0..bytes.len() {
        for pattern in [0x01u8, 0xff, 0x80] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= pattern;
            match trace_from_bytes(&damaged) {
                Err(_) => {}
                Ok(decoded) => panic!(
                    "flipping byte {pos} (xor {pattern:#04x}) of {} bytes decoded \
                     silently ({} entries, equal to original: {})",
                    bytes.len(),
                    decoded.len(),
                    decoded == trace
                ),
            }
        }
    }
}

#[test]
fn corrupting_jsonl_never_panics() {
    // JSONL has no checksum (it is the human-authoring encoding), so a flip may decode
    // to a *different but valid* trace (e.g. inside a printed value). The guarantee is
    // weaker than binary but still crucial: no flip or truncation may panic, and
    // structural damage must surface as Err.
    let mut rng = Rng::new(0xfeed);
    let trace = arbitrary_trace(&mut rng, 15);
    let bytes = trace_to_bytes(&trace, Encoding::Jsonl).unwrap();
    for len in (0..bytes.len()).step_by(7) {
        let _ = trace_from_bytes(&bytes[..len]);
    }
    for pos in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[pos] ^= 0x02;
        let _ = trace_from_bytes(&damaged);
    }
}

#[test]
fn binary_error_taxonomy_is_stable() {
    // The property tests above only require *some* error; this pins the particular
    // error kinds malformed streams map to, so diagnostics stay useful.
    let mut rng = Rng::new(0xd00d);
    let trace = arbitrary_trace(&mut rng, 10);
    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();

    let mut wrong_magic = bytes.clone();
    wrong_magic[1] ^= 0xff;
    assert!(matches!(
        trace_from_bytes(&wrong_magic).unwrap_err(),
        // Magic damage makes the sniffer treat the stream as JSONL, which then chokes
        // on the binary bytes: either the line is not valid UTF-8 (an I/O-level error)
        // or it is not a valid header object.
        FormatError::Json { .. } | FormatError::Io(_) | FormatError::BadMagic { .. }
    ));

    let mut future = bytes.clone();
    future[4] = 0x63;
    assert!(matches!(
        trace_from_bytes(&future).unwrap_err(),
        FormatError::UnsupportedVersion { found: 0x63, .. }
    ));

    let mut flipped_checksum = bytes.clone();
    let last = flipped_checksum.len() - 1;
    flipped_checksum[last] ^= 0x10;
    assert!(matches!(
        trace_from_bytes(&flipped_checksum).unwrap_err(),
        FormatError::ChecksumMismatch { .. }
    ));

    let mut truncated = bytes;
    truncated.truncate(last.saturating_sub(20));
    assert!(matches!(
        trace_from_bytes(&truncated).unwrap_err(),
        FormatError::Truncated { .. } | FormatError::Corrupt { .. }
    ));
}

/// Every diagnostic a fixed binary trace yields under each truncation length and each
/// single-byte xor, one `Debug` line per case.
fn damage_diagnostics(bytes: &[u8]) -> String {
    let describe = |input: &[u8]| match trace_from_bytes(input) {
        Ok(decoded) => format!("Ok({} entries)", decoded.len()),
        Err(e) => format!("{e:?}"),
    };
    let mut lines = String::new();
    for len in 0..bytes.len() {
        lines += &format!("cut {len}: {}\n", describe(&bytes[..len]));
    }
    for pos in 0..bytes.len() {
        for pattern in [0x01u8, 0xff, 0x80] {
            let mut damaged = bytes.to_vec();
            damaged[pos] ^= pattern;
            lines += &format!("xor {pos} {pattern:#04x}: {}\n", describe(&damaged));
        }
    }
    lines
}

#[test]
fn binary_damage_diagnostics_are_pinned() {
    // The properties above only require *some* error. This pins the exact variant,
    // offset and detail text of every truncation and single-byte flip of one seeded
    // trace, so a reader rewrite cannot shift a diagnostic unnoticed.
    let trace = arbitrary_trace(&mut Rng::new(0xd1a9), 40);
    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    let lines = damage_diagnostics(&bytes);
    let mut digest = Fnv64::new();
    digest.update(lines.as_bytes());
    assert_eq!(
        (bytes.len(), lines.lines().count(), digest.finish()),
        (1961, 7844, 6394115963829962188),
        "damage diagnostics drifted:\n{lines}"
    );
}

#[test]
fn a_summary_fails_exactly_like_a_decode() {
    // `content_summary` validates canonical binary without decoding it. On every
    // truncation and byte flip of the pinned trace, and on one clean trace per
    // generator profile, it must fail with the decoder's exact error, or agree with
    // the decoder on the entry count and metadata.
    let pinned = trace_to_bytes(
        &arbitrary_trace(&mut Rng::new(0xd1a9), 40),
        Encoding::Binary,
    )
    .unwrap();
    let mut inputs: Vec<Vec<u8>> = (0..pinned.len())
        .map(|len| pinned[..len].to_vec())
        .collect();
    for pos in 0..pinned.len() {
        for pattern in [0x01u8, 0xff, 0x80] {
            let mut damaged = pinned.clone();
            damaged[pos] ^= pattern;
            inputs.push(damaged);
        }
    }
    for (i, &profile) in GenProfile::ALL.iter().enumerate() {
        let trace = profile.generate(&mut Rng::new(0x5a + i as u64), 60);
        inputs.push(trace_to_bytes(&trace, Encoding::Binary).unwrap());
    }
    let mut decoded = 0;
    for (i, input) in inputs.iter().enumerate() {
        match (content_summary(input), trace_from_bytes(input)) {
            (Ok(summary), Ok(trace)) => {
                assert_eq!(summary.entries, trace.len() as u64, "input {i}");
                assert_eq!(summary.meta, trace.meta, "input {i}");
                decoded += 1;
            }
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "input {i}"),
            (a, b) => panic!(
                "input {i}: summary {a:?} but decode {:?}",
                b.map(|t| t.len())
            ),
        }
    }
    assert_eq!(
        decoded,
        GenProfile::ALL.len(),
        "only the clean traces decode"
    );
}
