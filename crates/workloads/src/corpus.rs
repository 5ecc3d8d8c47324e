//! The golden trace corpus: deterministic serialized case-study traces.
//!
//! The conformance suite commits the suspected trace pair (old and new version under the
//! regressing test) of each §5.2 case study to `tests/corpus/`, in both the binary and
//! the JSONL encoding. This module is the single source of truth for that corpus: the
//! conformance test regenerates it in memory and compares byte-for-byte, the `rprism
//! corpus` CLI subcommand writes or checks it on disk, and CI fails when the workloads
//! and the committed files drift apart.
//!
//! Everything here is deterministic: the VM interleaves threads by a fixed quantum, the
//! value fingerprints are FNV-1a, and the serialized string tables are ordered by first
//! use — so the same sources produce the same bytes on every platform.

use std::path::Path;

use rprism_format::{trace_to_bytes, Encoding};

use crate::casestudies;
use crate::scenario::{ScenarioError, ScenarioTraces};

/// One regenerated corpus file: its conventional file name and exact content.
#[derive(Clone, Debug)]
pub struct CorpusFile {
    /// File name within the corpus directory (`<scenario>.<role>.<ext>`).
    pub name: String,
    /// The serialized trace bytes.
    pub bytes: Vec<u8>,
}

/// Regenerates the full corpus in memory: for each case study, the suspected pair in
/// both encodings (4 scenarios × 2 traces × 2 encodings = 16 files), ordered by
/// scenario, then role, then encoding.
///
/// # Errors
///
/// Returns [`ScenarioError`] when a case study fails to trace or serialize.
pub fn corpus_files() -> Result<Vec<CorpusFile>, ScenarioError> {
    let mut out = Vec::new();
    for scenario in casestudies::all() {
        let traces = scenario.trace_all()?;
        let pair = [
            ("old-regressing", &traces.traces.old_regressing),
            ("new-regressing", &traces.traces.new_regressing),
        ];
        for (role, handle) in pair {
            for encoding in [Encoding::Binary, Encoding::Jsonl] {
                out.push(CorpusFile {
                    name: format!("{}.{role}.{}", scenario.name, encoding.extension()),
                    bytes: trace_to_bytes(handle.trace(), encoding)?,
                });
            }
        }
    }
    Ok(out)
}

/// Writes the regenerated corpus into `dir` (creating it), returning the file names.
///
/// # Errors
///
/// Returns [`ScenarioError`] on regeneration or I/O failure.
pub fn write_corpus(dir: impl AsRef<Path>) -> Result<Vec<String>, ScenarioError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).map_err(rprism_format::FormatError::Io)?;
    let files = corpus_files()?;
    let mut names = Vec::with_capacity(files.len());
    for file in files {
        std::fs::write(dir.join(&file.name), &file.bytes)
            .map_err(rprism_format::FormatError::Io)?;
        names.push(file.name);
    }
    Ok(names)
}

/// Compares the regenerated corpus against the files in `dir`, returning the names
/// that drifted: missing files, files whose bytes differ, and stale files present in
/// the directory that no workload regenerates (empty = no drift).
///
/// # Errors
///
/// Returns [`ScenarioError`] when regeneration itself fails; missing, unreadable or
/// stale committed files count as drift, not errors.
pub fn check_corpus(dir: impl AsRef<Path>) -> Result<Vec<String>, ScenarioError> {
    let dir = dir.as_ref();
    let regenerated = corpus_files()?;
    let mut drifted = Vec::new();
    for file in &regenerated {
        match std::fs::read(dir.join(&file.name)) {
            Ok(committed) if committed == file.bytes => {}
            _ => drifted.push(file.name.clone()),
        }
    }
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !regenerated.iter().any(|f| f.name == name) {
                drifted.push(format!("{name} (stale)"));
            }
        }
    }
    drifted.sort();
    Ok(drifted)
}

/// Exports all four traces of every case study (not just the suspected pairs) into
/// `dir` — the `rprism record --scenario` workhorse. Returns the written paths.
///
/// # Errors
///
/// Returns [`ScenarioError`] when a case study fails to trace or serialize.
pub fn export_scenario(
    name: &str,
    dir: impl AsRef<Path>,
    encoding: Encoding,
) -> Result<Vec<std::path::PathBuf>, ScenarioError> {
    let dir = dir.as_ref();
    let mut written = Vec::new();
    let mut matched = false;
    for scenario in casestudies::all() {
        if name != "all" && scenario.name != name {
            continue;
        }
        matched = true;
        let traces: ScenarioTraces = scenario.trace_all()?;
        written.extend(traces.export(dir, &scenario.name, encoding)?);
    }
    if !matched {
        return Err(ScenarioError::UnknownScenario {
            name: name.to_owned(),
            known: casestudies::all().into_iter().map(|s| s.name).collect(),
        });
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_regeneration_is_deterministic() {
        let first = corpus_files().unwrap();
        let second = corpus_files().unwrap();
        assert_eq!(first.len(), 16);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.bytes, b.bytes, "{} not byte-deterministic", a.name);
        }
    }

    #[test]
    fn corpus_covers_every_case_study_in_both_encodings() {
        let names: Vec<String> = corpus_files()
            .unwrap()
            .into_iter()
            .map(|f| f.name)
            .collect();
        for scenario in ["daikon", "xalan-1725", "xalan-1802", "derby-1633"] {
            for role in ["old-regressing", "new-regressing"] {
                for ext in ["rtr", "jsonl"] {
                    let expected = format!("{scenario}.{role}.{ext}");
                    assert!(names.contains(&expected), "missing {expected}");
                }
            }
        }
    }

    #[test]
    fn check_corpus_reports_drift_against_an_empty_dir() {
        let dir = std::env::temp_dir().join(format!("rprism-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let drifted = check_corpus(&dir).unwrap();
        assert_eq!(drifted.len(), 16, "everything should drift vs an empty dir");
        // After writing, nothing drifts.
        write_corpus(&dir).unwrap();
        assert!(check_corpus(&dir).unwrap().is_empty());
        // A stale fixture no workload regenerates counts as drift too.
        std::fs::write(dir.join("renamed-scenario.old-regressing.rtr"), b"x").unwrap();
        let drifted = check_corpus(&dir).unwrap();
        assert_eq!(drifted, vec!["renamed-scenario.old-regressing.rtr (stale)"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_scenario_export_is_an_error() {
        let dir = std::env::temp_dir().join(format!("rprism-corpus-unk-{}", std::process::id()));
        assert!(export_scenario("nope", &dir, Encoding::Binary).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
