//! Deterministic pseudo-random generators for property-style tests.
//!
//! The workspace is dependency-free, so instead of `proptest` the property tests use this
//! small SplitMix64-based generator module: a seeded [`Rng`] plus arbitrary-value
//! constructors for the trace domain (events, entries, object representations). Small
//! name/value pools are used deliberately so that generated events collide often — the
//! hard case for equality, interning and correlation.

use std::ops::Range;
use std::time::{SystemTime, UNIX_EPOCH};

use rprism_lang::{FieldName, MethodName};

use crate::entry::{EntryId, ThreadId, TraceEntry};
use crate::event::Event;
use crate::objrep::{CreationSeq, Loc, ObjRep, ValueRepr};
use crate::stack::{StackFrame, StackSnapshot};
use crate::trace::{Trace, TraceMeta};

/// The seed of a randomized test run: `RPRISM_FUZZ_SEED` when set, the clock
/// otherwise. Printed so a failing run can be replayed.
pub fn fuzz_seed() -> u64 {
    let seed = std::env::var("RPRISM_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64)
        });
    println!("RPRISM_FUZZ_SEED={seed}");
    seed
}

/// A SplitMix64 pseudo-random generator: tiny, fast, and deterministic across platforms.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `[lo, hi)`; `hi` must be greater than `lo`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range");
        lo + self.next_u64() % (hi - lo)
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// A uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Picks one element of a slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize(0, items.len())]
    }

    /// A uniform sample from `[range.start, range.end)`: an integer by the modulo
    /// reduction of [`Rng::range`], an `f64` from the top 53 bits of one draw.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// Returns `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// A uniform `f64` in `[0, 1)` from the top 53 bits of one draw.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Types [`Rng::gen_range`] samples from a half-open range.
pub trait SampleRange: Sized {
    /// Draws one uniform sample from `[range.start, range.end)`.
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self;
}

macro_rules! impl_int_sample {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
                assert!(range.end > range.start, "empty sample range");
                let span = range.end.wrapping_sub(range.start) as u64;
                range.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_int_sample!(usize, i64);

impl SampleRange for f64 {
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
        assert!(range.end > range.start, "empty sample range");
        range.start + rng.unit() * (range.end - range.start)
    }
}

const CLASSES: &[&str] = &["Num", "SP", "Logger", "Range", "Worker"];
const FIELDS: &[&str] = &["min", "max", "count", "total"];
const METHODS: &[&str] = &["setRequestType", "convert", "addMsg", "work"];
const PRINTED: &[&str] = &["1", "32", "127", "text/html", "true"];

/// An arbitrary object representation: null, primitive, opaque heap object or valued heap
/// object, drawn from small pools so that equal representations are common.
pub fn arbitrary_objrep(rng: &mut Rng) -> ObjRep {
    match rng.usize(0, 4) {
        0 => ObjRep::null(),
        1 => ObjRep::prim(if rng.bool() { "Int" } else { "Str" }, *rng.pick(PRINTED)),
        2 => ObjRep::opaque_object(
            Loc(rng.range(0, 6)),
            *rng.pick(CLASSES),
            CreationSeq(rng.range(0, 3)),
        ),
        _ => {
            let repr = ValueRepr::Object {
                class: (*rng.pick(CLASSES)).to_owned(),
                fields: vec![ValueRepr::Prim {
                    type_name: "Int".to_owned(),
                    printed: (*rng.pick(PRINTED)).to_owned(),
                }],
            };
            ObjRep::object(
                Loc(rng.range(0, 6)),
                *rng.pick(CLASSES),
                CreationSeq(rng.range(0, 3)),
                &repr,
            )
        }
    }
}

/// An arbitrary trace event covering every event form.
pub fn arbitrary_event(rng: &mut Rng) -> Event {
    match rng.usize(0, 7) {
        0 => Event::Get {
            target: arbitrary_objrep(rng),
            field: FieldName::new(*rng.pick(FIELDS)),
            value: arbitrary_objrep(rng),
        },
        1 => Event::Set {
            target: arbitrary_objrep(rng),
            field: FieldName::new(*rng.pick(FIELDS)),
            value: arbitrary_objrep(rng),
        },
        2 => {
            let args = (0..rng.usize(0, 3))
                .map(|_| arbitrary_objrep(rng))
                .collect();
            Event::Call {
                target: arbitrary_objrep(rng),
                method: MethodName::new(*rng.pick(METHODS)),
                args,
            }
        }
        3 => Event::Return {
            target: arbitrary_objrep(rng),
            method: MethodName::new(*rng.pick(METHODS)),
            value: arbitrary_objrep(rng),
        },
        4 => {
            let args = (0..rng.usize(0, 3))
                .map(|_| arbitrary_objrep(rng))
                .collect();
            Event::Init {
                class: (*rng.pick(CLASSES)).to_owned(),
                args,
                result: arbitrary_objrep(rng),
            }
        }
        5 => Event::Fork {
            child: ThreadId(rng.range(1, 4)),
            parentage: (0..rng.usize(0, 3))
                .map(|_| arbitrary_stack_snapshot(rng))
                .collect(),
        },
        _ => Event::End {
            stack: arbitrary_stack_snapshot(rng),
        },
    }
}

/// An arbitrary stack snapshot of up to three frames (possibly empty), exercising the
/// thread-parentage paths of correlation and serialization.
pub fn arbitrary_stack_snapshot(rng: &mut Rng) -> StackSnapshot {
    let frames = (0..rng.usize(0, 4))
        .map(|_| {
            StackFrame::new(
                MethodName::new(*rng.pick(METHODS)),
                arbitrary_objrep(rng),
                arbitrary_objrep(rng),
            )
        })
        .collect();
    StackSnapshot::new(frames)
}

/// An arbitrary trace of `len` entries: arbitrary entries pushed in order, so entry ids
/// equal positions (the [`Trace`] invariant every serialization round-trip relies on).
pub fn arbitrary_trace(rng: &mut Rng, len: usize) -> Trace {
    let mut trace = Trace::new(TraceMeta::new(
        format!("gen/{}", rng.range(0, 1_000_000)),
        format!("v{}", rng.range(0, 10)),
        format!("t{}", rng.range(0, 10)),
    ));
    for _ in 0..len {
        trace.push(arbitrary_entry(rng));
    }
    trace
}

/// An arbitrary trace entry wrapping an arbitrary event with arbitrary context.
pub fn arbitrary_entry(rng: &mut Rng) -> TraceEntry {
    let event = arbitrary_event(rng);
    TraceEntry::new(
        EntryId(rng.range(0, 1000)),
        ThreadId(rng.range(0, 3)),
        MethodName::new(*rng.pick(METHODS)),
        arbitrary_objrep(rng),
        event,
    )
}

/// A named generation profile for `rprism gen --profile`: the fully random soup
/// ([`arbitrary_trace`]), a VM-faithful well-formed trace, or one of four adversarial
/// shapes that each violate exactly one invariant of the `rprism-check` rule set (the
/// seeded defect is the only defect — everything else in the trace stays well-formed,
/// so a checker run flags precisely the intended rule).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenProfile {
    /// Unconstrained random entries (format/serialization stress; not well-formed).
    Arbitrary,
    /// A multi-threaded trace honoring every VM emission invariant: balanced
    /// call/return nesting, define-before-use over a **bounded per-thread object
    /// pool**, root-context forks with exact parentage snapshots, one final `End` per
    /// thread. Checks completely clean; the bounded pool makes it the workload for
    /// streaming-checker memory bounds (live state stays O(threads + pool) while the
    /// trace grows O(entries)).
    WellFormed,
    /// Well-formed except one extra `Return` with no matching `Call`
    /// (rule `return-without-call`).
    UnbalancedCall,
    /// Well-formed except one `Fork` entry is dropped, leaving its child thread
    /// without a recorded parent (rule `orphan-thread`).
    OrphanFork,
    /// Well-formed except an object's heap slot is reused by a new allocation and the
    /// dead identity is read afterwards (rule `use-after-death`).
    UseAfterDeath,
    /// Well-formed except two child threads write one shared field with no
    /// happens-before edge between them (rule `data-race`).
    RacyInterleaving,
}

impl GenProfile {
    /// Every profile, in documentation order.
    pub const ALL: &'static [GenProfile] = &[
        GenProfile::Arbitrary,
        GenProfile::WellFormed,
        GenProfile::UnbalancedCall,
        GenProfile::OrphanFork,
        GenProfile::UseAfterDeath,
        GenProfile::RacyInterleaving,
    ];

    /// The kebab-case name used on the command line.
    pub fn as_str(self) -> &'static str {
        match self {
            GenProfile::Arbitrary => "arbitrary",
            GenProfile::WellFormed => "well-formed",
            GenProfile::UnbalancedCall => "unbalanced-call",
            GenProfile::OrphanFork => "orphan-fork",
            GenProfile::UseAfterDeath => "use-after-death",
            GenProfile::RacyInterleaving => "racy-interleaving",
        }
    }

    /// Generates a trace of (exactly, for the structured profiles) `entries` entries —
    /// plus the handful of seeded-defect entries for the adversarial profiles, which
    /// also raise small `entries` values to the minimum that guarantees the threads
    /// their defect needs.
    pub fn generate(self, rng: &mut Rng, entries: usize) -> Trace {
        match self {
            GenProfile::Arbitrary => arbitrary_trace(rng, entries),
            GenProfile::WellFormed => well_formed_trace(rng, entries),
            GenProfile::UnbalancedCall => unbalanced_call(rng, entries),
            GenProfile::OrphanFork => orphan_fork(rng, entries),
            GenProfile::UseAfterDeath => use_after_death(rng, entries),
            GenProfile::RacyInterleaving => racy_interleaving(rng, entries),
        }
    }
}

impl std::fmt::Display for GenProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for GenProfile {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        GenProfile::ALL
            .iter()
            .copied()
            .find(|p| p.as_str() == text)
            .ok_or_else(|| {
                let names: Vec<&str> = GenProfile::ALL.iter().map(|p| p.as_str()).collect();
                format!(
                    "unknown profile {text:?} (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// One simulated thread of the well-formed generator: its entry budget, bounded object
/// pool, and open-call stack (each frame is the `(method, receiver)` context its inner
/// entries must carry).
struct ThreadGen {
    tid: ThreadId,
    budget: usize,
    pool: Vec<ObjRep>,
    pool_target: usize,
    created: u64,
    stack: Vec<(MethodName, ObjRep)>,
    ended: bool,
}

impl ThreadGen {
    /// The `(method, active)` context the next entry of this thread must carry: the
    /// innermost open call, or the root frame (`<main>` on a null receiver — the shape
    /// the VM gives both the main thread and `spawn` children of a root-context fork).
    fn context(&self) -> (MethodName, ObjRep) {
        match self.stack.last() {
            Some((method, receiver)) => (method.clone(), receiver.clone()),
            None => (MethodName::toplevel(), ObjRep::null()),
        }
    }

    fn entry(&self, event: Event) -> TraceEntry {
        let (method, active) = self.context();
        TraceEntry::new(EntryId(0), self.tid, method, active, event)
    }
}

/// The root stack snapshot every generated thread ends with (and forks under): one
/// `<main>` frame on a null receiver.
fn root_snapshot() -> StackSnapshot {
    StackSnapshot::new(vec![StackFrame::new(
        MethodName::toplevel(),
        ObjRep::null(),
        ObjRep::null(),
    )])
}

/// Emits one entry for `thread`, honoring every well-formedness invariant: objects are
/// allocated into the bounded pool first, calls never outlive the budget needed to
/// unwind them, and the final entry is always a root-context `End`.
fn well_formed_step(thread: &mut ThreadGen, rng: &mut Rng, next_loc: &mut u64) -> TraceEntry {
    let prim = || ObjRep::prim("Int", "1");
    let entry = if thread.budget <= thread.stack.len() + 1 {
        // Wind-down: close the open calls innermost-first, then end the thread.
        match thread.stack.pop() {
            Some((method, receiver)) => thread.entry(Event::Return {
                target: receiver,
                method,
                value: prim(),
            }),
            None => {
                thread.ended = true;
                thread.entry(Event::End {
                    stack: root_snapshot(),
                })
            }
        }
    } else if (thread.created as usize) < thread.pool_target {
        // Fill the bounded pool: one thread-confined class per thread keeps per-class
        // creation sequences trace-ordered regardless of interleaving.
        let class = format!("W{}", thread.tid.0);
        let obj = ObjRep::opaque_object(Loc(*next_loc), &class, CreationSeq(thread.created));
        *next_loc += 1;
        thread.created += 1;
        thread.pool.push(obj.clone());
        thread.entry(Event::Init {
            class,
            args: vec![prim()],
            result: obj,
        })
    } else {
        let target = rng.pick(&thread.pool).clone();
        let field = FieldName::new(*rng.pick(FIELDS));
        let can_call = thread.stack.len() < 3 && thread.budget > thread.stack.len() + 3;
        match rng.usize(0, 10) {
            0..=3 => thread.entry(Event::Get {
                target,
                field,
                value: prim(),
            }),
            4..=6 => thread.entry(Event::Set {
                target,
                field,
                value: prim(),
            }),
            7 if can_call => {
                let method = MethodName::new(*rng.pick(METHODS));
                let entry = thread.entry(Event::Call {
                    target: target.clone(),
                    method: method.clone(),
                    args: vec![prim()],
                });
                thread.stack.push((method, target));
                entry
            }
            8 if !thread.stack.is_empty() => {
                let (method, receiver) = thread.stack.pop().expect("non-empty stack");
                // Returns carry the *caller's* context (the VM emits them after the
                // frame pops), which `ThreadGen::entry` reads post-pop.
                thread.entry(Event::Return {
                    target: receiver,
                    method,
                    value: prim(),
                })
            }
            _ => thread.entry(Event::Get {
                target,
                field,
                value: prim(),
            }),
        }
    };
    thread.budget -= 1;
    entry
}

/// A well-formed multi-threaded trace of exactly `entries` entries (minimum 8): every
/// invariant of the `rprism-check` well-formedness and concurrency rules holds, and
/// the per-thread object pools are bounded, so a streaming checker's live state stays
/// O(threads + pool) however large `entries` grows.
pub fn well_formed_trace(rng: &mut Rng, entries: usize) -> Trace {
    let entries = entries.max(8);
    let threads = if entries >= 32 {
        4
    } else if entries >= 16 {
        2
    } else {
        1
    };
    let pool = (entries / (threads * 4)).clamp(1, 8);
    let share = entries / threads;
    let mut gens: Vec<ThreadGen> = (0..threads)
        .map(|t| ThreadGen {
            tid: ThreadId(t as u64),
            budget: if t == 0 {
                entries - share * (threads - 1)
            } else {
                share
            },
            pool: Vec::new(),
            pool_target: pool,
            created: 0,
            stack: Vec::new(),
            ended: false,
        })
        .collect();

    let mut trace = Trace::new(TraceMeta::new("gen/well-formed", "v1", "well-formed"));
    let mut next_loc = 1u64;

    // The main thread forks every child from its root context before doing anything
    // else: the fork edge then orders all child entries after it, and the parentage
    // snapshot is exactly the root frame.
    for t in 1..threads {
        let event = Event::Fork {
            child: ThreadId(t as u64),
            parentage: vec![root_snapshot()],
        };
        trace.push(gens[0].entry(event));
        gens[0].budget -= 1;
    }

    loop {
        let alive: Vec<usize> = (0..gens.len()).filter(|&i| !gens[i].ended).collect();
        if alive.is_empty() {
            break;
        }
        let pick = *rng.pick(&alive);
        let entry = well_formed_step(&mut gens[pick], rng, &mut next_loc);
        trace.push(entry);
    }
    trace
}

/// Rebuilds a trace from mutated entries (`Trace::push` renumbers entry ids
/// positionally, so insertions and removals stay id-consistent).
fn rebuild_named(name: &str, entries: Vec<TraceEntry>) -> Trace {
    let mut trace = Trace::new(TraceMeta::new(format!("gen/{name}"), "v1", name));
    for entry in entries {
        trace.push(entry);
    }
    trace
}

/// The first `Init` result of `tid` in the entries (the seeded defects target it).
fn first_init_of(entries: &[TraceEntry], tid: ThreadId) -> (usize, ObjRep) {
    entries
        .iter()
        .enumerate()
        .find_map(|(i, e)| match &e.event {
            Event::Init { result, .. } if e.tid == tid => Some((i, result.clone())),
            _ => None,
        })
        .expect("every generated thread allocates at least one object")
}

/// The index of `tid`'s `End` entry.
fn end_of(entries: &[TraceEntry], tid: ThreadId) -> usize {
    entries
        .iter()
        .position(|e| e.tid == tid && matches!(e.event, Event::End { .. }))
        .expect("every generated thread ends")
}

/// A root-context entry of `tid` (the mutation sites sit between the wind-down and the
/// `End`, where the stack is empty).
fn root_entry(tid: ThreadId, event: Event) -> TraceEntry {
    TraceEntry::new(
        EntryId(0),
        tid,
        MethodName::toplevel(),
        ObjRep::null(),
        event,
    )
}

/// Well-formed except for one extra `Return` that no `Call` opened, seeded right
/// before the main thread's `End` (where the call stack is provably empty): the
/// checker flags exactly `return-without-call`.
pub fn unbalanced_call(rng: &mut Rng, entries: usize) -> Trace {
    let base = well_formed_trace(rng, entries);
    let mut mutated = base.entries.clone();
    let (_, victim) = first_init_of(&mutated, ThreadId(0));
    let end = end_of(&mutated, ThreadId(0));
    mutated.insert(
        end,
        root_entry(
            ThreadId(0),
            Event::Return {
                target: victim,
                method: MethodName::new(*METHODS.first().expect("method pool")),
                value: ObjRep::prim("Int", "1"),
            },
        ),
    );
    rebuild_named("unbalanced-call", mutated)
}

/// Well-formed except the `Fork` of the last child thread is dropped: its entries now
/// appear with no recorded parent, and the checker flags exactly `orphan-thread`.
pub fn orphan_fork(rng: &mut Rng, entries: usize) -> Trace {
    // Force the multi-threaded shape so there is a fork to drop.
    let base = well_formed_trace(rng, entries.max(32));
    let mut mutated = base.entries.clone();
    let last_child = ThreadId(3);
    let fork = mutated
        .iter()
        .position(|e| matches!(e.event, Event::Fork { child, .. } if child == last_child))
        .expect("the well-formed generator forks thread 3");
    mutated.remove(fork);
    rebuild_named("orphan-fork", mutated)
}

/// Well-formed except the main thread's first object has its heap slot reused by a
/// fresh allocation and is then read through the dead identity: the checker flags
/// exactly `use-after-death`.
pub fn use_after_death(rng: &mut Rng, entries: usize) -> Trace {
    let base = well_formed_trace(rng, entries);
    let mut mutated = base.entries.clone();
    let (_, victim) = first_init_of(&mutated, ThreadId(0));
    let loc = victim.loc.expect("pool objects are heap objects");
    let end = end_of(&mutated, ThreadId(0));
    let reuse = root_entry(
        ThreadId(0),
        Event::Init {
            class: "Reborn".to_owned(),
            args: Vec::new(),
            result: ObjRep::opaque_object(loc, "Reborn", CreationSeq(0)),
        },
    );
    let dead_read = root_entry(
        ThreadId(0),
        Event::Get {
            target: victim,
            field: FieldName::new(*FIELDS.first().expect("field pool")),
            value: ObjRep::prim("Int", "1"),
        },
    );
    mutated.splice(end..end, [reuse, dead_read]);
    rebuild_named("use-after-death", mutated)
}

/// Well-formed except two child threads write one shared field with no
/// happens-before edge between the writes: the checker's vector-clock race detector
/// flags exactly `data-race`.
pub fn racy_interleaving(rng: &mut Rng, entries: usize) -> Trace {
    // Force the multi-threaded shape so two forked siblings exist.
    let base = well_formed_trace(rng, entries.max(32));
    let mut mutated = base.entries.clone();
    let shared = ObjRep::opaque_object(Loc(0), "Shared", CreationSeq(0));
    // The shared object is allocated by main before the forks, so both children see
    // it fork-ordered; their writes to it are ordered with nothing.
    mutated.insert(
        0,
        root_entry(
            ThreadId(0),
            Event::Init {
                class: "Shared".to_owned(),
                args: Vec::new(),
                result: shared.clone(),
            },
        ),
    );
    for child in [ThreadId(1), ThreadId(2)] {
        let end = end_of(&mutated, child);
        mutated.insert(
            end,
            root_entry(
                child,
                Event::Set {
                    target: shared.clone(),
                    field: FieldName::new("tab"),
                    value: ObjRep::prim("Int", "1"),
                },
            ),
        );
    }
    rebuild_named("racy-interleaving", mutated)
}

/// A copy of `trace` with sparse edits spread over it: about one entry in sixteen
/// dropped, one duplicated and one swapped with its predecessor. Entries keep their
/// ids, so the copy diffs against the original like a nearby version of it.
pub fn mutated(rng: &mut Rng, trace: &Trace) -> Trace {
    let mut out = Trace::new(trace.meta.clone());
    for entry in &trace.entries {
        match rng.usize(0, 16) {
            0 => {}
            1 => {
                out.entries.push(entry.clone());
                out.entries.push(entry.clone());
            }
            2 if !out.entries.is_empty() => {
                let last = out.entries.len() - 1;
                out.entries.insert(last, entry.clone());
            }
            _ => out.entries.push(entry.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let v = rng.range(3, 9);
            assert!((3..9).contains(&v));
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        for _ in 0..50 {
            assert_eq!(a.gen_range(0usize..100), b.gen_range(0usize..100));
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = Rng::new(3);
        for _ in 0..500 {
            let v = rng.gen_range(2i64..5);
            assert!((2..5).contains(&v));
            let f = rng.gen_range(0.0..2.5);
            assert!((0.0..2.5).contains(&f));
        }
    }

    #[test]
    fn gen_bool_respects_extremes() {
        let mut rng = Rng::new(4);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn arbitrary_events_cover_all_kinds() {
        use std::collections::HashSet;
        let mut rng = Rng::new(42);
        let kinds: HashSet<_> = (0..500).map(|_| arbitrary_event(&mut rng).kind()).collect();
        assert_eq!(kinds.len(), 7, "all seven event kinds should appear");
    }

    #[test]
    fn fork_events_carry_nonempty_parentage_sometimes() {
        let mut rng = Rng::new(11);
        let mut nonempty = 0;
        for _ in 0..2000 {
            if let Event::Fork { parentage, .. } = arbitrary_event(&mut rng) {
                if parentage.iter().any(|s| !s.is_empty()) {
                    nonempty += 1;
                }
            }
        }
        assert!(
            nonempty > 0,
            "fork parentage generation never produced frames"
        );
    }

    #[test]
    fn profile_names_round_trip() {
        for profile in GenProfile::ALL {
            assert_eq!(profile.as_str().parse::<GenProfile>().unwrap(), *profile);
        }
        assert!("no-such-profile".parse::<GenProfile>().is_err());
    }

    #[test]
    fn well_formed_traces_have_the_requested_size_and_shape() {
        for entries in [8, 16, 64, 1000] {
            let mut rng = Rng::new(3);
            let trace = well_formed_trace(&mut rng, entries);
            assert_eq!(trace.len(), entries);
            let mut ended: Vec<ThreadId> = Vec::new();
            let mut calls = 0usize;
            let mut returns = 0usize;
            for entry in trace.iter() {
                match &entry.event {
                    Event::End { .. } => ended.push(entry.tid),
                    Event::Call { .. } => calls += 1,
                    Event::Return { .. } => returns += 1,
                    _ => {}
                }
            }
            assert_eq!(ended.len(), trace.thread_ids().len(), "one End per thread");
            assert_eq!(calls, returns, "balanced call/return discipline");
        }
        // Large traces exercise the multi-threaded shape.
        let mut rng = Rng::new(4);
        assert_eq!(well_formed_trace(&mut rng, 500).thread_ids().len(), 4);
    }

    #[test]
    fn well_formed_generation_is_deterministic() {
        let a = well_formed_trace(&mut Rng::new(99), 300);
        let b = well_formed_trace(&mut Rng::new(99), 300);
        assert_eq!(a, b);
    }

    #[test]
    fn arbitrary_traces_have_positional_entry_ids() {
        let mut rng = Rng::new(9);
        let trace = arbitrary_trace(&mut rng, 50);
        assert_eq!(trace.len(), 50);
        for (i, e) in trace.iter().enumerate() {
            assert_eq!(e.eid.index(), i);
        }
    }
}
