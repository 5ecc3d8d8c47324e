//! Call stacks and stack snapshots.
//!
//! The paper's semantics threads an ordered set of stacks `S̄` through evaluation, one per
//! thread, with frames `s(m, θ, θ')` meaning "method `m` of object `θ'` was invoked from
//! object `θ`". Thread events record stack *snapshots*: `fork(S̄)` captures the full
//! ancestry (spawn-point call stack, the spawner's spawn-point stack, and so on) so that
//! thread-view correlation can find the "closest match" between executions (§2.3, §3.1).

use rprism_lang::MethodName;

use crate::objrep::ObjRep;

/// A single stack frame `s(m, θ, θ')`: method `m` of callee `θ'` invoked from caller `θ`.
#[derive(Clone, Debug, PartialEq)]
pub struct StackFrame {
    /// The invoked method.
    pub method: MethodName,
    /// The representation of the caller object.
    pub caller: ObjRep,
    /// The representation of the callee (receiver) object.
    pub callee: ObjRep,
}

impl StackFrame {
    /// Creates a frame.
    pub fn new(method: MethodName, caller: ObjRep, callee: ObjRep) -> Self {
        StackFrame {
            method,
            caller,
            callee,
        }
    }
}

/// An immutable snapshot of one thread's call stack, outermost frame first.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct StackSnapshot {
    /// The frames, outermost (oldest) first.
    pub frames: Vec<StackFrame>,
}

impl StackSnapshot {
    /// An empty stack.
    pub fn empty() -> Self {
        StackSnapshot { frames: Vec::new() }
    }

    /// Creates a snapshot from frames (outermost first).
    pub fn new(frames: Vec<StackFrame>) -> Self {
        StackSnapshot { frames }
    }

    /// Number of frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Returns `true` when the stack has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The sequence of method names, outermost first; the feature used for comparing
    /// spawn-point stacks across executions.
    pub fn method_names(&self) -> Vec<&MethodName> {
        self.frames.iter().map(|f| &f.method).collect()
    }

    /// A similarity score in `[0, 1]` between two stack snapshots, based on the longest
    /// common prefix of their method-name sequences (the deeper the shared prefix, the
    /// closer the spawn contexts). Used by thread-view correlation to pick the closest
    /// matching thread (§3.1).
    pub fn similarity(&self, other: &StackSnapshot) -> f64 {
        if self.frames.is_empty() && other.frames.is_empty() {
            return 1.0;
        }
        let max_len = self.frames.len().max(other.frames.len());
        if max_len == 0 {
            return 1.0;
        }
        let mut common = 0usize;
        for (a, b) in self.frames.iter().zip(other.frames.iter()) {
            if a.method == b.method && a.callee.class == b.callee.class {
                common += 1;
            } else {
                break;
            }
        }
        common as f64 / max_len as f64
    }
}

/// Similarity between two full thread ancestries (sequences of stack snapshots, the
/// youngest thread's spawn stack first): the average of pairwise snapshot similarities
/// over the aligned prefix, penalized when the ancestries have different lengths.
pub fn ancestry_similarity(a: &[StackSnapshot], b: &[StackSnapshot]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    let paired: f64 = a.iter().zip(b.iter()).map(|(x, y)| x.similarity(y)).sum();
    paired / max_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objrep::{CreationSeq, Loc};

    fn frame(method: &str, class: &str) -> StackFrame {
        StackFrame::new(
            MethodName::new(method),
            ObjRep::null(),
            ObjRep::opaque_object(Loc(1), class, CreationSeq(0)),
        )
    }

    #[test]
    fn identical_stacks_have_similarity_one() {
        let s = StackSnapshot::new(vec![frame("main", "Main"), frame("run", "Worker")]);
        assert!((s.similarity(&s) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_stacks_are_similar() {
        assert_eq!(
            StackSnapshot::empty().similarity(&StackSnapshot::empty()),
            1.0
        );
        assert!(StackSnapshot::empty().is_empty());
    }

    #[test]
    fn divergence_reduces_similarity() {
        let a = StackSnapshot::new(vec![frame("main", "Main"), frame("run", "Worker")]);
        let b = StackSnapshot::new(vec![frame("main", "Main"), frame("other", "Worker")]);
        let sim = a.similarity(&b);
        assert!(sim > 0.0 && sim < 1.0, "similarity was {sim}");
    }

    #[test]
    fn prefix_mismatch_is_zero() {
        let a = StackSnapshot::new(vec![frame("alpha", "A")]);
        let b = StackSnapshot::new(vec![frame("beta", "B")]);
        assert_eq!(a.similarity(&b), 0.0);
    }

    #[test]
    fn depth_difference_penalized() {
        let a = StackSnapshot::new(vec![frame("main", "Main")]);
        let b = StackSnapshot::new(vec![frame("main", "Main"), frame("run", "Worker")]);
        assert_eq!(a.similarity(&b), 0.5);
    }

    #[test]
    fn ancestry_similarity_averages_snapshots() {
        let sa = StackSnapshot::new(vec![frame("main", "Main")]);
        let sb = StackSnapshot::new(vec![frame("main", "Main"), frame("spawnWorkers", "Pool")]);
        assert_eq!(ancestry_similarity(&[], &[]), 1.0);
        assert_eq!(
            ancestry_similarity(std::slice::from_ref(&sa), std::slice::from_ref(&sa)),
            1.0
        );
        let partial = ancestry_similarity(&[sa.clone(), sb.clone()], std::slice::from_ref(&sa));
        assert!(partial < 1.0 && partial > 0.0);
    }

    #[test]
    fn method_names_in_order() {
        let s = StackSnapshot::new(vec![frame("outer", "A"), frame("inner", "B")]);
        let names: Vec<String> = s.method_names().iter().map(|m| m.to_string()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
        assert_eq!(s.depth(), 2);
    }
}
