//! Golden-corpus conformance tests.
//!
//! `tests/corpus/` commits the serialized suspected trace pair (old and new version
//! under the regressing test) of each §5.2 case study, in both the binary and the JSONL
//! encoding — 16 fixtures regenerated by `rprism corpus --dir tests/corpus`. These
//! tests pin three properties:
//!
//! 1. **No drift** — regenerating the corpus from the workloads reproduces the
//!    committed bytes exactly (the CI corpus job runs `rprism corpus --check`, which is
//!    this property as a command);
//! 2. **Byte-stable re-encoding** — decode + re-encode of every fixture is the
//!    identity on bytes, and decoding matches the freshly traced scenario at
//!    `event_eq` level (and full structural equality);
//! 3. **Version hygiene** — fixtures with a bumped format version are rejected with a
//!    clean `UnsupportedVersion`, not misparsed.

use std::collections::BTreeMap;
use std::path::PathBuf;

use rprism_format::{trace_from_bytes, trace_to_bytes, Encoding, FormatError};
use rprism_trace::event_eq;
use rprism_workloads::casestudies;
use rprism_workloads::corpus_files;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn committed() -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("tests/corpus must exist") {
        let entry = entry.unwrap();
        out.insert(
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path()).unwrap(),
        );
    }
    out
}

#[test]
fn committed_corpus_matches_regenerated_workloads() {
    let committed = committed();
    let regenerated = corpus_files().expect("corpus regenerates");
    assert_eq!(
        regenerated.len(),
        16,
        "4 case studies x suspected pair x 2 encodings"
    );
    let mut regenerated_names = Vec::new();
    for file in &regenerated {
        regenerated_names.push(file.name.clone());
        let Some(bytes) = committed.get(&file.name) else {
            panic!(
                "{} is not committed — run `cargo run --bin rprism -- corpus --dir tests/corpus`",
                file.name
            );
        };
        assert_eq!(
            bytes, &file.bytes,
            "{} drifted from the workloads — regenerate the corpus \
             (cargo run --bin rprism -- corpus --dir tests/corpus) and commit it",
            file.name
        );
    }
    // No stale committed fixtures either.
    for name in committed.keys() {
        assert!(
            regenerated_names.contains(name),
            "stale corpus fixture {name} (no workload regenerates it)"
        );
    }
}

#[test]
fn corpus_fixtures_reencode_byte_stably_and_round_trip_event_equal() {
    let scenarios: BTreeMap<String, _> = casestudies::all()
        .into_iter()
        .map(|s| {
            let name = s.name.clone();
            (name, s.trace_all().unwrap())
        })
        .collect();
    for (name, bytes) in committed() {
        let decoded = trace_from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{name}: committed fixture unreadable: {e}"));
        // Byte-stable re-encoding.
        let encoding = if name.ends_with(".rtr") {
            Encoding::Binary
        } else {
            Encoding::Jsonl
        };
        let reencoded = trace_to_bytes(&decoded, encoding).unwrap();
        assert_eq!(reencoded, bytes, "{name}: re-encoding is not byte-stable");

        // Round-trip equality with the freshly traced scenario, at `event_eq` level
        // and structurally.
        let (scenario, role) = name
            .trim_end_matches(".rtr")
            .trim_end_matches(".jsonl")
            .rsplit_once('.')
            .unwrap();
        let traces = &scenarios[scenario];
        let fresh = match role {
            "old-regressing" => traces.traces.old_regressing.trace(),
            "new-regressing" => traces.traces.new_regressing.trace(),
            other => panic!("unexpected corpus role {other}"),
        };
        assert_eq!(
            decoded.len(),
            fresh.len(),
            "{name}: decoded length differs from fresh trace"
        );
        for (a, b) in decoded.iter().zip(fresh.iter()) {
            assert!(event_eq(a, b), "{name}: entry {} not =e-equal", a.eid);
        }
        assert_eq!(
            &decoded, fresh,
            "{name}: decoded trace differs structurally"
        );
    }
}

#[test]
fn bumped_format_versions_are_rejected_cleanly() {
    let committed = committed();

    // Binary: bump the little-endian u16 version field at offset 4.
    let (name, bytes) = committed
        .iter()
        .find(|(name, _)| name.ends_with(".rtr"))
        .expect("at least one binary fixture");
    let mut bumped = bytes.clone();
    bumped[4] = bumped[4].wrapping_add(1);
    match trace_from_bytes(&bumped) {
        Err(FormatError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, u16::from(bytes[4]) + 1, "{name}");
            assert_eq!(supported, rprism_format::FORMAT_VERSION);
        }
        other => panic!("{name}: bumped version not rejected cleanly: {other:?}"),
    }

    // JSONL: bump the `"version":1` header field.
    let (name, bytes) = committed
        .iter()
        .find(|(name, _)| name.ends_with(".jsonl"))
        .expect("at least one jsonl fixture");
    let text = String::from_utf8(bytes.clone()).unwrap();
    assert!(
        text.contains("\"version\":1"),
        "{name}: header shape changed"
    );
    let bumped = text.replacen("\"version\":1", "\"version\":2", 1);
    match trace_from_bytes(bumped.as_bytes()) {
        Err(FormatError::UnsupportedVersion { found: 2, .. }) => {}
        other => panic!("{name}: bumped version not rejected cleanly: {other:?}"),
    }
}
