//! Interned key ids ≡ `key_eq`, hash collisions included.
//!
//! A [`KeyedTrace`] stores one `u32` key id per entry and each distinct key once, and a
//! views diff compares the left entry's id with the right entry's id translated into the
//! left side's id space. This suite checks, on traces of every `GenProfile`, on
//! `arbitrary_trace`s and on `testgen::mutated` near copies:
//!
//! * for every pair of distinct keys and for sampled entry pairs `(i, j)`, the left id
//!   equals the translated right id exactly when `key_eq(i, right, j)` holds;
//! * with every key hash forced to collide (`with_colliding_key_hashes`, so every lookup
//!   and compare goes through the full kind, name and operand check), the ids are the
//!   same, and the views diff (matching, sequences, compare counts) and a chunked
//!   session's events and verdict equal those of the normal-hash run;
//! * the keyed heap of a 10 000-entry well-formed trace is at most an eighth of one key
//!   per entry, and on the case studies the interned layout adds at most 8 bytes per
//!   entry.
//!
//! The generator is seeded from the clock and the seed is printed;
//! `RPRISM_FUZZ_SEED=<n>` replays a run.

use rprism_diff::{
    views_diff_sides, DiffSession, ProvisionalEvent, SideArtifacts, TraceDiffResult,
    ViewsDiffOptions,
};
use rprism_trace::keyed::with_colliding_key_hashes;
use rprism_trace::testgen::{arbitrary_trace, fuzz_seed, mutated, GenProfile, Rng};
use rprism_trace::{CompactEventKey, EntryBatch, KeyedTrace, OperandId, Trace};
use rprism_workloads::casestudies;

const ENTRIES: usize = 600;
const CHUNKS: [usize; 3] = [7, 64, usize::MAX];
const SAMPLES: usize = 4000;

/// The generated pairs: a near copy per profile, two unrelated arbitrary traces, and an
/// arbitrary trace with its near copy.
fn pairs(rng: &mut Rng) -> Vec<(String, Trace, Trace)> {
    let mut pairs = Vec::new();
    for &profile in GenProfile::ALL {
        let original = profile.generate(rng, ENTRIES);
        let copy = mutated(rng, &original);
        pairs.push((format!("{profile} near copy"), original, copy));
    }
    let (a, b) = (arbitrary_trace(rng, ENTRIES), arbitrary_trace(rng, ENTRIES));
    let copy = mutated(rng, &a);
    pairs.push(("arbitrary pair".into(), a.clone(), b));
    pairs.push(("arbitrary near copy".into(), a, copy));
    pairs
}

fn artifacts(trace: &Trace) -> SideArtifacts {
    let mut artifacts = SideArtifacts::new(trace.meta.clone());
    artifacts.push_batch(&EntryBatch::of(&trace.entries));
    artifacts
}

/// The first entry of every distinct key, by id.
fn first_entries(keyed: &KeyedTrace) -> Vec<usize> {
    let mut first = vec![usize::MAX; keyed.distinct_len()];
    for i in (0..keyed.len()).rev() {
        first[keyed.id(i) as usize] = i;
    }
    assert!(
        first.iter().all(|&i| i != usize::MAX),
        "an id without entry"
    );
    first
}

fn assert_ids_agree_with_key_eq(context: &str, rng: &mut Rng, left: &Trace, right: &Trace) {
    let (lk, rk) = (KeyedTrace::build(left), KeyedTrace::build(right));
    let mut translation = Vec::new();
    lk.translate_into(&rk, &mut translation);
    assert_eq!(translation.len(), rk.distinct_len(), "{context}");
    let (lfirst, rfirst) = (first_entries(&lk), first_entries(&rk));
    for (d, &j) in rfirst.iter().enumerate() {
        let matches: Vec<u32> = (lfirst.iter().enumerate())
            .filter(|&(_, &i)| lk.key_eq(i, &rk, j))
            .map(|(e, _)| e as u32)
            .collect();
        match matches[..] {
            [] => assert_eq!(
                translation[d] as usize,
                lk.distinct_len() + d,
                "{context}: right key {d}"
            ),
            [e] => assert_eq!(translation[d], e, "{context}: right key {d}"),
            _ => panic!("{context}: right key {d} equals left keys {matches:?}"),
        }
    }
    // Entry pairs: half anywhere, half near the diagonal, where near copies agree.
    for n in 0..SAMPLES {
        let i = rng.usize(0, left.len());
        let j = if n % 2 == 0 {
            rng.usize(0, right.len())
        } else {
            (i * right.len() / left.len() + rng.usize(0, 5)).saturating_sub(2) % right.len()
        };
        let by_id = lk.id(i) == translation[rk.id(j) as usize];
        assert_eq!(by_id, lk.key_eq(i, &rk, j), "{context}: entries ({i}, {j})");
    }
}

/// What a diff run yields: the batch verdict and, per chunking, a session's events and
/// verdict.
struct Run {
    batch: TraceDiffResult,
    sessions: Vec<(Vec<ProvisionalEvent>, TraceDiffResult)>,
    left_ids: Vec<u32>,
    right_ids: Vec<u32>,
}

fn run(left: &Trace, right: &Trace) -> Run {
    let options = ViewsDiffOptions::default();
    let (old, new) = (artifacts(left), artifacts(right));
    let batch = views_diff_sides(&old.side(), &new.side(), &options);
    let sessions = CHUNKS
        .iter()
        .map(|&chunk| {
            let mut session = DiffSession::new(right.meta.clone(), options.clone());
            let mut events = Vec::new();
            for slice in right.entries.chunks(chunk) {
                events.extend(session.push_batch(&old.side(), &EntryBatch::of(slice)));
            }
            let finish = session.finish(&old.side());
            events.extend(finish.events);
            (events, finish.result)
        })
        .collect();
    let ids = |artifacts: &SideArtifacts| {
        let keyed = artifacts.side().keyed();
        (0..keyed.len()).map(|i| keyed.id(i)).collect()
    };
    Run {
        batch,
        sessions,
        left_ids: ids(&old),
        right_ids: ids(&new),
    }
}

fn assert_same_result(context: &str, a: &TraceDiffResult, b: &TraceDiffResult) {
    assert_eq!(
        a.matching.normalized_pairs(),
        b.matching.normalized_pairs(),
        "{context}: matchings"
    );
    assert_eq!(a.sequences, b.sequences, "{context}: sequences");
    assert_eq!(
        a.cost.compare_ops, b.cost.compare_ops,
        "{context}: compare ops"
    );
}

#[test]
fn translated_ids_agree_with_key_eq_and_collisions_change_nothing() {
    let seed = fuzz_seed();
    let mut rng = Rng::new(seed ^ 0x1d5_2b00);
    for (shape, left, right) in pairs(&mut rng) {
        let context = format!("{shape} (seed {seed})");
        assert_ids_agree_with_key_eq(&context, &mut rng, &left, &right);
        with_colliding_key_hashes(|| {
            assert_ids_agree_with_key_eq(&format!("{context}, colliding"), &mut rng, &left, &right)
        });

        let normal = run(&left, &right);
        let colliding = with_colliding_key_hashes(|| run(&left, &right));
        assert_eq!(normal.left_ids, colliding.left_ids, "{context}: left ids");
        assert_eq!(
            normal.right_ids, colliding.right_ids,
            "{context}: right ids"
        );
        assert_same_result(&context, &normal.batch, &colliding.batch);
        for (k, chunk) in CHUNKS.iter().enumerate() {
            let context = format!("{context}, {chunk}-entry chunks");
            let ((events, result), (colliding_events, colliding_result)) =
                (&normal.sessions[k], &colliding.sessions[k]);
            assert_same_result(&context, result, &normal.batch);
            assert_same_result(&context, result, colliding_result);
            assert_eq!(events, colliding_events, "{context}: events");
        }
    }
}

/// The bytes of one key and its operands per entry: the layout without interning.
fn one_key_per_entry(keyed: &KeyedTrace) -> u64 {
    (0..keyed.len())
        .map(|i| {
            std::mem::size_of::<CompactEventKey>()
                + keyed.compact(i).num_operands() * std::mem::size_of::<OperandId>()
        })
        .sum::<usize>() as u64
}

#[test]
fn interning_shrinks_the_keyed_heap() {
    let seed = fuzz_seed();
    let trace = GenProfile::WellFormed.generate(&mut Rng::new(seed), 10_000);
    let keyed = KeyedTrace::build(&trace);
    let (interned, per_entry) = (keyed.estimated_bytes(), one_key_per_entry(&keyed));
    println!(
        "well-formed, 10 000 entries, {} distinct keys: {interned} bytes interned, \
         {per_entry} bytes with one key per entry",
        keyed.distinct_len()
    );
    assert!(
        interned * 8 <= per_entry,
        "seed {seed}: {interned} bytes interned against {per_entry} with one key per entry"
    );

    for scenario in casestudies::all() {
        let traces = scenario.trace_all().unwrap().traces;
        for trace in [
            &traces.old_regressing,
            &traces.new_regressing,
            &traces.old_passing,
            &traces.new_passing,
        ] {
            let keyed = KeyedTrace::build(trace.trace());
            let (interned, per_entry) = (keyed.estimated_bytes(), one_key_per_entry(&keyed));
            println!(
                "{}: {} entries, {} distinct keys: {interned} bytes interned, {per_entry} \
                 bytes with one key per entry",
                trace.trace().meta.name,
                keyed.len(),
                keyed.distinct_len()
            );
            assert!(
                interned <= per_entry + 8 * keyed.len() as u64,
                "{}: the interned layout grew by more than 8 bytes per entry",
                trace.trace().meta.name
            );
        }
    }
}
