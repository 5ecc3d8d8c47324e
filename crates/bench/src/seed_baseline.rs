//! A frozen replica of the *pre-interning* views differencer, kept exclusively as the
//! measurement baseline for `perf_smoke` / `BENCH_1.json`.
//!
//! This reproduces how the differencer worked before the keyed-trace refactor: every
//! entry is canonicalized into an owned [`EventKey`] (two `String` clones plus an operand
//! `Vec` per entry), every `=e` comparison walks those owned structures, secondary-view
//! exploration clones `ViewName`s into a per-mismatch `HashSet`, and views are looked up
//! by hashed `ViewName`. Do **not** use this for analysis — it exists so the speedup of
//! the keyed pipeline is measured against the real prior behaviour rather than guessed.

use std::collections::HashSet;
use std::time::Instant;

use rprism_diff::{
    CostMeter, DiffError, Matching, MemoryBudget, TraceDiffResult, ViewsDiffOptions,
};
use rprism_trace::{EventKey, Trace};
use rprism_views::correlate::relaxed::same_distance_from_anchor;
use rprism_views::view::{
    active_object_view_name, method_view_name, target_object_view_name, thread_view_name,
};
use rprism_views::{correlate_objects, correlate_threads, ViewKind, ViewName, ViewWeb};

/// A frozen copy of the seed-era `lcs_dp`: the full `(n+1)×(m+1)` table with **no**
/// common-prefix/suffix stripping (the strip has since been folded into the live
/// `lcs_dp`, so calling that here would under-count the seed's table sizes and compare
/// ops — and its traceback can pick a different, equally-sized matching).
fn seed_lcs_dp<T: PartialEq>(
    left: &[T],
    right: &[T],
    meter: &mut CostMeter,
    budget: MemoryBudget,
) -> Result<Vec<(usize, usize)>, DiffError> {
    let rows = left.len() + 1;
    let cols = right.len() + 1;
    let table_bytes = (rows as u64) * (cols as u64) * std::mem::size_of::<u32>() as u64;
    budget.check(table_bytes)?;
    meter.allocate(table_bytes);

    let mut table = vec![0u32; rows * cols];
    let idx = |i: usize, j: usize| i * cols + j;
    for i in 1..rows {
        for j in 1..cols {
            meter.count_compares(1);
            table[idx(i, j)] = if left[i - 1] == right[j - 1] {
                table[idx(i - 1, j - 1)] + 1
            } else {
                table[idx(i - 1, j)].max(table[idx(i, j - 1)])
            };
        }
    }

    let mut pairs = Vec::with_capacity(table[idx(rows - 1, cols - 1)] as usize);
    let (mut i, mut j) = (rows - 1, cols - 1);
    while i > 0 && j > 0 {
        meter.count_compares(1);
        if left[i - 1] == right[j - 1] {
            pairs.push((i - 1, j - 1));
            i -= 1;
            j -= 1;
        } else if table[idx(i - 1, j)] >= table[idx(i, j - 1)] {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    pairs.reverse();
    meter.release(table_bytes);
    Ok(pairs)
}

/// The seed-era correlation shape: name-keyed hash maps.
struct SeedCorrelation {
    threads: std::collections::HashMap<rprism_trace::ThreadId, rprism_trace::ThreadId>,
    target_objects: std::collections::HashMap<ViewName, ViewName>,
    active_objects: std::collections::HashMap<ViewName, ViewName>,
}

/// Seed-style views differencing over owned `EventKey`s. Sequential, allocating — the
/// "pre" column of `BENCH_1.json`.
pub fn seed_views_diff(left: &Trace, right: &Trace, options: &ViewsDiffOptions) -> TraceDiffResult {
    let left_web = ViewWeb::build(left);
    let right_web = ViewWeb::build(right);
    let start = Instant::now();
    let mut meter = CostMeter::new();
    let correlation = SeedCorrelation {
        threads: correlate_threads(&left_web, &right_web),
        target_objects: correlate_objects(&left_web, &right_web, ViewKind::TargetObject),
        active_objects: correlate_objects(&left_web, &right_web, ViewKind::ActiveObject),
    };

    let left_keys: Vec<EventKey> = left.iter().map(EventKey::of).collect();
    let right_keys: Vec<EventKey> = right.iter().map(EventKey::of).collect();
    meter.allocate(((left_keys.len() + right_keys.len()) * 64) as u64);

    let differ = SeedDiffer {
        left,
        right,
        left_web: &left_web,
        right_web: &right_web,
        correlation: &correlation,
        left_keys: &left_keys,
        right_keys: &right_keys,
        options,
    };

    let mut thread_pairs: Vec<_> = correlation.threads.iter().map(|(l, r)| (*l, *r)).collect();
    thread_pairs.sort();

    let mut matched = Vec::new();
    for (lt, rt) in thread_pairs {
        let lview = left_web.view(&ViewName::Thread(lt));
        let rview = right_web.view(&ViewName::Thread(rt));
        if let (Some(lv), Some(rv)) = (lview, rview) {
            differ.diff_thread_pair(&lv.entries, &rv.entries, &mut matched, &mut meter);
        }
    }

    let matching = Matching::from_pairs(left.len(), right.len(), matched);
    let sequences = matching.difference_sequences();
    TraceDiffResult {
        matching,
        sequences,
        cost: meter.stats(),
        elapsed: start.elapsed(),
        algorithm: "views-seed-baseline",
    }
}

struct SeedDiffer<'a> {
    left: &'a Trace,
    right: &'a Trace,
    left_web: &'a ViewWeb,
    right_web: &'a ViewWeb,
    correlation: &'a SeedCorrelation,
    left_keys: &'a [EventKey],
    right_keys: &'a [EventKey],
    options: &'a ViewsDiffOptions,
}

impl SeedDiffer<'_> {
    fn diff_thread_pair(
        &self,
        lv: &[usize],
        rv: &[usize],
        matched: &mut Vec<(usize, usize)>,
        meter: &mut CostMeter,
    ) {
        let mut i = 0usize;
        let mut j = 0usize;
        while i < lv.len() && j < rv.len() {
            meter.count_compares(1);
            if self.left_keys[lv[i]] == self.right_keys[rv[j]] {
                matched.push((lv[i], rv[j]));
                i += 1;
                j += 1;
                continue;
            }
            self.explore_secondary_views(lv, rv, i, j, matched, meter);
            match self.next_correspondence(lv, rv, i, j, meter) {
                Some((a, b)) => {
                    i += a;
                    j += b;
                }
                None => {
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    fn correlate_entry_names(
        &self,
        kind: ViewKind,
        le: &rprism_trace::TraceEntry,
        re: &rprism_trace::TraceEntry,
    ) -> Option<(ViewName, ViewName)> {
        match kind {
            ViewKind::Thread => {
                let l = thread_view_name(le);
                let r = thread_view_name(re);
                let (ViewName::Thread(lt), ViewName::Thread(rt)) = (&l, &r) else {
                    return None;
                };
                (self.correlation.threads.get(lt) == Some(rt)).then(|| (l.clone(), r.clone()))
            }
            ViewKind::Method => {
                let l = method_view_name(le);
                let r = method_view_name(re);
                (l == r).then_some((l, r))
            }
            ViewKind::TargetObject => {
                let l = target_object_view_name(le)?;
                let r = target_object_view_name(re)?;
                let lo = le.event.target_object()?;
                let ro = re.event.target_object()?;
                let ok = match self.correlation.target_objects.get(&l) {
                    Some(mapped) => mapped == &r,
                    None => lo.correlates_with(ro),
                };
                ok.then_some((l, r))
            }
            ViewKind::ActiveObject => {
                let l = active_object_view_name(le)?;
                let r = active_object_view_name(re)?;
                let ok = match self.correlation.active_objects.get(&l) {
                    Some(mapped) => mapped == &r,
                    None => le.active.correlates_with(&re.active),
                };
                ok.then_some((l, r))
            }
        }
    }

    fn explore_secondary_views(
        &self,
        lv: &[usize],
        rv: &[usize],
        i: usize,
        j: usize,
        matched: &mut Vec<(usize, usize)>,
        meter: &mut CostMeter,
    ) {
        let delta = self.options.delta as i64;
        let mut explored: HashSet<(ViewName, ViewName)> = HashSet::new();

        for da in -delta..=delta {
            let li = i as i64 + da;
            if li < 0 || li as usize >= lv.len() {
                continue;
            }
            for db in -delta..=delta {
                let rj = j as i64 + db;
                if rj < 0 || rj as usize >= rv.len() {
                    continue;
                }
                let left_idx = lv[li as usize];
                let right_idx = rv[rj as usize];
                let le = &self.left[left_idx];
                let re = &self.right[right_idx];

                for kind in ViewKind::ALL {
                    meter.count_compares(1);
                    let pair = self.correlate_entry_names(kind, le, re);
                    let pair = match pair {
                        Some(p) => Some(p),
                        None if self.options.relaxed_correlation && kind == ViewKind::Method => {
                            if same_distance_from_anchor(i, j, li as usize, rj as usize, 0) {
                                Some((method_view_name(le), method_view_name(re)))
                            } else {
                                None
                            }
                        }
                        None => None,
                    };
                    let Some((lname, rname)) = pair else {
                        continue;
                    };
                    if !explored.insert((lname.clone(), rname.clone())) {
                        continue;
                    }
                    self.windowed_secondary_lcs(
                        &lname, &rname, left_idx, right_idx, matched, meter,
                    );
                }
            }
        }
    }

    fn windowed_secondary_lcs(
        &self,
        left_view: &ViewName,
        right_view: &ViewName,
        left_idx: usize,
        right_idx: usize,
        matched: &mut Vec<(usize, usize)>,
        meter: &mut CostMeter,
    ) {
        let (Some(lsec), Some(rsec)) = (
            self.left_web.view(left_view),
            self.right_web.view(right_view),
        ) else {
            return;
        };
        let (Some(lpos), Some(rpos)) = (lsec.position_of(left_idx), rsec.position_of(right_idx))
        else {
            return;
        };
        let lwin = lsec.window(lpos, self.options.window);
        let rwin = rsec.window(rpos, self.options.window);
        let lkeys: Vec<&EventKey> = lwin.iter().map(|&x| &self.left_keys[x]).collect();
        let rkeys: Vec<&EventKey> = rwin.iter().map(|&x| &self.right_keys[x]).collect();
        if let Ok(pairs) = seed_lcs_dp(&lkeys, &rkeys, meter, MemoryBudget::unlimited()) {
            for (wi, wj) in pairs {
                matched.push((lwin[wi], rwin[wj]));
            }
        }
    }

    fn next_correspondence(
        &self,
        lv: &[usize],
        rv: &[usize],
        i: usize,
        j: usize,
        meter: &mut CostMeter,
    ) -> Option<(usize, usize)> {
        for total in 1..=self.options.max_scan_ahead {
            for a in 0..=total {
                let b = total - a;
                let (li, rj) = (i + a, j + b);
                if li >= lv.len() || rj >= rv.len() {
                    continue;
                }
                meter.count_compares(1);
                if self.left_keys[lv[li]] == self.right_keys[rv[rj]] {
                    return Some((a, b));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    // Comparing against the one-shot cold pipeline is the point here: the seed
    // replica must match it bit for bit.
    use super::*;
    use crate::cold_views_diff;
    use rprism_lang::parser::parse_program;
    use rprism_trace::TraceMeta;
    use rprism_vm::{run_traced, VmConfig};

    fn trace_of(src: &str, name: &str) -> Trace {
        let program = parse_program(src).unwrap();
        run_traced(
            &program,
            TraceMeta::new(name, "v", "c"),
            VmConfig::default(),
        )
        .unwrap()
        .trace
    }

    #[test]
    fn seed_baseline_agrees_with_keyed_pipeline() {
        let src = |v: i64| {
            format!(
                r#"
                class Range extends Object {{ Int min; Int max; }}
                class App extends Object {{
                    Range r; Int hits;
                    Unit setup() {{ this.r = new Range({v}, 127); }}
                    Unit check(Int c) {{
                        if ((c >= this.r.min) && (c <= this.r.max)) {{ this.hits = this.hits + 1; }}
                    }}
                }}
                main {{
                    let a = new App(null, 0);
                    a.setup();
                    a.check(20); a.check(64); a.check(200);
                }}
                "#
            )
        };
        let old = trace_of(&src(32), "old");
        let new = trace_of(&src(1), "new");
        let seed = seed_views_diff(&old, &new, &ViewsDiffOptions::default());
        let keyed = cold_views_diff(&old, &new, &ViewsDiffOptions::default());
        assert_eq!(
            seed.matching.normalized_pairs(),
            keyed.matching.normalized_pairs(),
            "the keyed pipeline must preserve the seed algorithm's result"
        );
        assert_eq!(seed.sequences, keyed.sequences);
    }
}
