//! Seeded inputs. Everything here is a pure function of its arguments, so the
//! same `--seed` replays the same inputs and the same operation sequences.
//!
//! * The **corpus** (remote-warm, and the stored set every daemon starts from): the 4 case studies × {old,new} × {regressing,passing} plus
//!   perf_smoke's `diff_scaling` evolution pair, 18 traces in all.
//! * The **remote-warm mix**: blocks of 20 operations (10 views diffs, 2 anchored
//!   diffs, 5 analyses, 3 checks), each block shuffled, targets drawn uniformly.
//! * The **cold-ingest pairs**: a fresh `GenProfile::WellFormed` trace per
//!   operation and a copy with scattered drops and duplicates.

use rprism::AnalysisMode;
use rprism_format::{trace_to_bytes, Encoding};
use rprism_lang::parser::parse_program;
use rprism_trace::testgen::{GenProfile, Rng};
use rprism_trace::{Trace, TraceMeta};
use rprism_vm::{run_traced, VmConfig};

/// One stored trace: the bytes the daemon receives and the decoded form.
pub struct Stored {
    pub bytes: Vec<u8>,
    pub trace: Trace,
}

impl Stored {
    pub fn new(trace: Trace) -> Stored {
        let bytes = trace_to_bytes(&trace, Encoding::Binary).expect("in-memory encode");
        Stored { bytes, trace }
    }
}

/// The traces every daemon is set up with, and the pairs and analyses over them.
pub struct Corpus {
    pub traces: Vec<Stored>,
    /// `(old, new)` indices into `traces`: each case study's regressing pair, then
    /// the `diff_scaling` pair.
    pub pairs: Vec<(usize, usize)>,
    /// `[old_regressing, new_regressing, old_passing, new_passing]` indices and the
    /// case study's analysis mode.
    pub quads: Vec<([usize; 4], AnalysisMode)>,
}

impl Corpus {
    pub fn build() -> Corpus {
        let mut traces = Vec::new();
        let mut pairs = Vec::new();
        let mut quads = Vec::new();
        for scenario in rprism_workloads::casestudies::all() {
            let traced = scenario.trace_all().expect("case studies trace");
            let base = traces.len();
            for handle in traced.handles() {
                traces.push(Stored::new(handle.trace().clone()));
            }
            pairs.push((base, base + 1));
            quads.push((
                [base, base + 1, base + 2, base + 3],
                scenario.analysis_mode(),
            ));
        }
        let (old, new) = diff_scaling_pair([(32, 400), (32, 404)]);
        pairs.push((traces.len(), traces.len() + 1));
        traces.push(Stored::new(old));
        traces.push(Stored::new(new));
        Corpus {
            traces,
            pairs,
            quads,
        }
    }
}

/// perf_smoke's `diff_scaling` program, parameterized by each side's range lower
/// bound and iteration count. `(32, n)` vs `(32, n + 4)` is the ordinary-evolution
/// pair; `(32, n)` vs `(1, n)` the heavily divergent one the calibration diffs.
pub fn diff_scaling_pair(sides: [(i64, usize); 2]) -> (Trace, Trace) {
    let src = |(min, iterations): (i64, usize)| {
        format!(
            r#"
            class Ctr extends Object {{ Int i; }}
            class Range extends Object {{ Int min; Int max; }}
            class App extends Object {{
                Range r;
                Int hits;
                Unit setup() {{ this.r = new Range({min}, 127); }}
                Unit check(Int c) {{
                    if ((c >= this.r.min) && (c <= this.r.max)) {{ this.hits = this.hits + 1; }}
                }}
            }}
            main {{
                let a = new App(null, 0);
                a.setup();
                let c = new Ctr(0);
                while (c.i < {iterations}) {{
                    a.check(c.i % 200);
                    c.i = c.i + 1;
                }}
            }}
            "#
        )
    };
    let run = |source: &str, label: &str| {
        let program = parse_program(source).expect("diff_scaling program parses");
        run_traced(&program, TraceMeta::new(label, "", ""), VmConfig::default())
            .expect("diff_scaling program runs")
            .trace
    };
    (run(&src(sides[0]), "old"), run(&src(sides[1]), "new"))
}

/// An independent stream of the seed: streams of one seed do not overlap.
pub fn stream(seed: u64, stream: u64) -> Rng {
    let mut mix = Rng::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
    Rng::new(mix.next_u64())
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.usize(0, i + 1));
    }
}

/// One remote-warm request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmOp {
    /// Views diff of corpus pair `i`.
    Diff(usize),
    /// `--algorithm anchored` diff of corpus pair `i`.
    Anchored(usize),
    /// Regression analysis of corpus quad `i`.
    Analyze(usize),
    /// Check of corpus trace `i`.
    Check(usize),
}

/// Operations per shuffled block of the remote-warm mix, and their kinds:
/// 50% views diff, 10% anchored diff, 25% analyze, 15% check.
const WARM_BLOCK: [(usize, u8); 4] = [(10, 0), (2, 1), (5, 2), (3, 3)];

/// The endless remote-warm operation sequence.
pub struct WarmOps {
    rng: Rng,
    pairs: usize,
    quads: usize,
    traces: usize,
    block: Vec<u8>,
}

impl WarmOps {
    pub fn new(seed: u64, corpus: &Corpus) -> WarmOps {
        WarmOps {
            rng: stream(seed, 0x100),
            pairs: corpus.pairs.len(),
            quads: corpus.quads.len(),
            traces: corpus.traces.len(),
            block: Vec::new(),
        }
    }
}

impl Iterator for WarmOps {
    type Item = WarmOp;

    fn next(&mut self) -> Option<WarmOp> {
        if self.block.is_empty() {
            for (count, kind) in WARM_BLOCK {
                self.block.extend(std::iter::repeat_n(kind, count));
            }
            shuffle(&mut self.rng, &mut self.block);
        }
        let kind = self.block.pop().expect("block refilled");
        Some(match kind {
            0 => WarmOp::Diff(self.rng.usize(0, self.pairs)),
            1 => WarmOp::Anchored(self.rng.usize(0, self.pairs)),
            2 => WarmOp::Analyze(self.rng.usize(0, self.quads)),
            _ => WarmOp::Check(self.rng.usize(0, self.traces)),
        })
    }
}

/// Entries of each cold-ingest trace.
pub const COLD_ENTRIES: usize = 10_000;

/// Cold-ingest operation `op`'s pair: a fresh well-formed trace and a copy missing
/// about one entry in 997 and repeating about one in 1499. Names carry the seed
/// and the operation, so no two operations upload the same content.
pub fn cold_pair(seed: u64, op: u64, entries: usize) -> (Stored, Stored) {
    let mut rng = stream(seed, 0x200 + op);
    let mut old = GenProfile::WellFormed.generate(&mut rng, entries);
    old.meta = TraceMeta::new(format!("cold-{seed}-{op}-old"), "", "");
    let mut new = Trace::new(TraceMeta::new(format!("cold-{seed}-{op}-new"), "", ""));
    for entry in old.iter() {
        if rng.usize(0, 997) == 0 {
            continue;
        }
        new.push(entry.clone());
        if rng.usize(0, 1499) == 0 {
            new.push(entry.clone());
        }
    }
    (Stored::new(old), Stored::new(new))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Corpus {
        let empty = |i: usize| Stored::new(Trace::new(TraceMeta::new(format!("t{i}"), "", "")));
        Corpus {
            traces: (0..18).map(empty).collect(),
            pairs: vec![(0, 1); 5],
            quads: vec![([0, 1, 2, 3], AnalysisMode::default()); 4],
        }
    }

    #[test]
    fn same_seed_same_sequences_and_inputs() {
        let corpus = small_corpus();
        let a: Vec<WarmOp> = WarmOps::new(7, &corpus).take(200).collect();
        let b: Vec<WarmOp> = WarmOps::new(7, &corpus).take(200).collect();
        assert_eq!(a, b);
        let (oa, na) = cold_pair(7, 3, 2_000);
        let (ob, nb) = cold_pair(7, 3, 2_000);
        assert_eq!(oa.bytes, ob.bytes);
        assert_eq!(na.bytes, nb.bytes);
    }

    #[test]
    fn different_seed_different_sequences_and_inputs() {
        let corpus = small_corpus();
        let a: Vec<WarmOp> = WarmOps::new(7, &corpus).take(200).collect();
        let b: Vec<WarmOp> = WarmOps::new(8, &corpus).take(200).collect();
        assert_ne!(a, b);
        assert_ne!(
            cold_pair(7, 3, 2_000).0.bytes,
            cold_pair(8, 3, 2_000).0.bytes
        );
        // Operations of one run never repeat a pair (no upload dedups).
        assert_ne!(
            cold_pair(7, 3, 2_000).0.bytes,
            cold_pair(7, 4, 2_000).0.bytes
        );
    }

    #[test]
    fn warm_mix_holds_its_proportions_in_every_block() {
        let corpus = small_corpus();
        let ops: Vec<WarmOp> = WarmOps::new(1, &corpus).take(20 * 50).collect();
        for block in ops.chunks(20) {
            let count = |f: fn(&WarmOp) -> bool| block.iter().filter(|op| f(op)).count();
            assert_eq!(count(|op| matches!(op, WarmOp::Diff(_))), 10);
            assert_eq!(count(|op| matches!(op, WarmOp::Anchored(_))), 2);
            assert_eq!(count(|op| matches!(op, WarmOp::Analyze(_))), 5);
            assert_eq!(count(|op| matches!(op, WarmOp::Check(_))), 3);
        }
    }

    #[test]
    fn cold_copy_has_scattered_drops_and_duplicates() {
        let (old, new) = cold_pair(5, 0, 20_000);
        assert_ne!(old.trace.len(), 0);
        assert_ne!(old.trace.entries, new.trace.entries);
        let delta = old.trace.len().abs_diff(new.trace.len());
        assert!(
            delta < old.trace.len() / 100,
            "mutations stay sparse: {delta}"
        );
    }
}
