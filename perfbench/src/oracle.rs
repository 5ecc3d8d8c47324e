//! Local references for every answer the daemon gives. Each reference is computed
//! by an in-process [`Engine`] over the same serialized bytes the daemon stores,
//! loaded the same way (streamed handles) and warmed in the same order, so a
//! correct daemon answers exactly the reference. A mismatch is a failed operation.

use rprism::{
    AnchoredDiffOptions, CheckReport, DiffAlgorithm, Engine, PreparedTrace, RegressionInput,
    TraceDiffResult,
};
use rprism_server::proto::{WireDiff, WireReport, WireSignature};

use crate::corpus::{Corpus, Stored};

/// What a diff answer must match: the normalized matched pairs, the compare count
/// and the number of differences.
#[derive(Debug)]
pub struct DiffRef {
    pairs: Vec<(u64, u64)>,
    compare_ops: u64,
    num_differences: u64,
}

impl DiffRef {
    pub fn of(result: &TraceDiffResult) -> DiffRef {
        let wire = WireDiff::from_result(result, String::new());
        DiffRef {
            pairs: wire.pairs,
            compare_ops: wire.compare_ops,
            num_differences: wire.num_differences,
        }
    }

    pub fn check(&self, got: &WireDiff) -> Result<(), String> {
        if got.pairs != self.pairs {
            return Err(format!(
                "diff pairs differ: {} answered vs {} expected",
                got.pairs.len(),
                self.pairs.len()
            ));
        }
        if (got.compare_ops, got.num_differences) != (self.compare_ops, self.num_differences) {
            return Err(format!(
                "diff cost differs: compare_ops {} / differences {} answered vs {} / {} expected",
                got.compare_ops, got.num_differences, self.compare_ops, self.num_differences
            ));
        }
        Ok(())
    }
}

/// What an analysis answer must match: the regression verdicts and the four
/// `DiffSignature` sets (suspected, expected, regression, candidates).
#[derive(Debug)]
pub struct AnalyzeRef {
    verdicts: Vec<bool>,
    sets: [Vec<WireSignature>; 4],
}

impl AnalyzeRef {
    pub fn of(report: &rprism::RegressionReport) -> AnalyzeRef {
        let wire = WireReport::from_report(report, String::new());
        AnalyzeRef {
            verdicts: wire.verdicts(),
            sets: [
                wire.suspected,
                wire.expected,
                wire.regression,
                wire.candidates,
            ],
        }
    }

    pub fn check(&self, got: &WireReport) -> Result<(), String> {
        if got.verdicts() != self.verdicts {
            return Err(format!(
                "analysis verdicts differ: {:?} answered vs {:?} expected",
                got.verdicts(),
                self.verdicts
            ));
        }
        let sets = [
            &got.suspected,
            &got.expected,
            &got.regression,
            &got.candidates,
        ];
        for (name, (got, want)) in ["suspected", "expected", "regression", "candidates"]
            .iter()
            .zip(sets.into_iter().zip(&self.sets))
        {
            if got != want {
                return Err(format!(
                    "analysis {name} set differs: {} answered vs {} expected signatures",
                    got.len(),
                    want.len()
                ));
            }
        }
        Ok(())
    }
}

/// A check answer must equal the local report exactly.
pub fn check_report(want: &CheckReport, got: &CheckReport) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "check report differs: {} entries / {} diagnostics answered vs {} / {} expected",
            got.entries,
            got.diagnostics.len(),
            want.entries,
            want.diagnostics.len()
        ))
    }
}

/// Loads `stored` the way the daemon's repository does: one streaming pass.
pub fn load(engine: &Engine, stored: &Stored) -> PreparedTrace {
    engine
        .load_prepared_reader(&stored.bytes[..])
        .expect("generated traces load")
}

/// The analysis input of corpus quad `quad`, over `handles` indexed like the corpus.
pub fn regression_input(
    corpus: &Corpus,
    handles: &[PreparedTrace],
    quad: usize,
) -> RegressionInput {
    let ([a, b, c, d], mode) = corpus.quads[quad];
    RegressionInput::new(
        handles[a].clone(),
        handles[b].clone(),
        handles[c].clone(),
        handles[d].clone(),
    )
    .with_mode(mode)
}

/// Warms `engine`'s caches over `handles` in the order every daemon is warmed:
/// a views diff of each corpus pair, then an analysis of each quad.
pub fn warm(
    engine: &Engine,
    corpus: &Corpus,
    handles: &[PreparedTrace],
) -> (Vec<DiffRef>, Vec<AnalyzeRef>) {
    let views = corpus
        .pairs
        .iter()
        .map(|&(l, r)| DiffRef::of(&engine.diff(&handles[l], &handles[r]).expect("views diff")))
        .collect();
    let analyses = (0..corpus.quads.len())
        .map(|q| {
            let input = regression_input(corpus, handles, q);
            AnalyzeRef::of(&engine.analyze(&input).expect("views analysis"))
        })
        .collect();
    (views, analyses)
}

/// References of every remote-warm answer.
pub struct WarmRefs {
    pub views: Vec<DiffRef>,
    pub anchored: Vec<DiffRef>,
    pub analyses: Vec<AnalyzeRef>,
    pub checks: Vec<CheckReport>,
}

impl WarmRefs {
    pub fn build(corpus: &Corpus) -> WarmRefs {
        let engine = Engine::new();
        let handles: Vec<PreparedTrace> = corpus.traces.iter().map(|t| load(&engine, t)).collect();
        let (views, analyses) = warm(&engine, corpus, &handles);
        let anchored = corpus
            .pairs
            .iter()
            .map(|&(l, r)| {
                let result = engine
                    .diff_with_algorithm(
                        &handles[l],
                        &handles[r],
                        &DiffAlgorithm::Anchored(AnchoredDiffOptions::default()),
                    )
                    .expect("anchored diff");
                DiffRef::of(&result)
            })
            .collect();
        let checks = corpus
            .traces
            .iter()
            .map(|t| engine.check_reader(&t.bytes[..]).expect("check streams"))
            .collect();
        WarmRefs {
            views,
            anchored,
            analyses,
            checks,
        }
    }
}

/// References of one cold-ingest operation: the check of the new side and the
/// views diff of the pair, from a fresh engine (the daemon has never seen the pair).
pub fn cold_refs(old: &Stored, new: &Stored) -> (CheckReport, DiffRef) {
    let engine = Engine::new();
    let check = engine.check_reader(&new.bytes[..]).expect("check streams");
    let diff = engine
        .diff(&load(&engine, old), &load(&engine, new))
        .expect("views diff");
    (check, DiffRef::of(&diff))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn daikon() -> Corpus {
        let scenario = rprism_workloads::casestudies::daikon::scenario();
        let traced = scenario.trace_all().unwrap();
        Corpus {
            traces: traced
                .handles()
                .iter()
                .map(|h| Stored::new(h.trace().clone()))
                .collect(),
            pairs: vec![(0, 1)],
            quads: vec![([0, 1, 2, 3], scenario.analysis_mode())],
        }
    }

    fn answers(corpus: &Corpus) -> (WireDiff, WireReport, CheckReport) {
        let engine = Engine::new();
        let handles: Vec<PreparedTrace> = corpus.traces.iter().map(|t| load(&engine, t)).collect();
        let diff = engine.diff(&handles[0], &handles[1]).unwrap();
        let report = engine
            .analyze(&regression_input(corpus, &handles, 0))
            .unwrap();
        (
            WireDiff::from_result(&diff, "rendered".into()),
            WireReport::from_report(&report, "rendered".into()),
            engine.check_reader(&corpus.traces[1].bytes[..]).unwrap(),
        )
    }

    #[test]
    fn faithful_answers_pass() {
        let corpus = daikon();
        let refs = WarmRefs::build(&corpus);
        let (diff, report, check) = answers(&corpus);
        refs.views[0].check(&diff).unwrap();
        refs.analyses[0].check(&report).unwrap();
        check_report(&refs.checks[1], &check).unwrap();
    }

    #[test]
    fn tampered_answers_are_failures() {
        let corpus = daikon();
        let refs = WarmRefs::build(&corpus);
        let (diff, report, check) = answers(&corpus);

        let mut dropped_pair = diff.clone();
        dropped_pair.pairs.pop();
        assert!(refs.views[0].check(&dropped_pair).is_err());
        let mut cheaper = diff.clone();
        cheaper.compare_ops -= 1;
        assert!(refs.views[0].check(&cheaper).is_err());

        let mut flipped = report.clone();
        flipped.sequences[0].1 = !flipped.sequences[0].1;
        assert!(refs.analyses[0].check(&flipped).is_err());
        let mut extra = report.clone();
        extra.candidates.push(extra.suspected[0].clone());
        assert!(refs.analyses[0].check(&extra).is_err());

        let mut short = check.clone();
        short.entries -= 1;
        assert!(check_report(&refs.checks[1], &short).is_err());
    }
}
