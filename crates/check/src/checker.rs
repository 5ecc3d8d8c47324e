//! The streaming rule engine: a single fold over trace entries.
//!
//! [`Checker`] consumes entries one at a time ([`Checker::observe`]) and accumulates
//! state that is O(threads + live objects), never the entries themselves: per-thread
//! reconstructed call stacks, the object-identity table, per-(object, field) access
//! metadata and per-thread vector clocks. [`Checker::finish`] flushes the end-of-trace
//! rules (missing ends, still-open calls) and returns the sorted [`CheckReport`].
//!
//! The engine is deliberately *cascade-averse*: when a rule fires, the state is repaired
//! to the most plausible reading (a mismatched return still pops its frame, an undefined
//! identity is assumed defined from then on, a racy variable reports once) so that one
//! defect yields one diagnostic, not an avalanche. The negative fixtures in
//! [`crate::fixtures`] and the mutation tests in the workspace suite pin this down.

use rprism_trace::{
    intern, CreationSeq, EntryBatch, EntryRef, EventKind, IntMap, IntSet, Loc, ObjAt,
    StackSnapshot, Symbol, ThreadId, Trace,
};

use crate::diag::{CheckReport, Diagnostic, Severity};
use crate::rules;

/// Tuning knobs for a check run.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Per-rule severity overrides, applied over the registry defaults.
    overrides: Vec<(String, Severity)>,
    /// Diagnostics kept before further findings are counted but dropped
    /// (keeps memory bounded on adversarial input).
    pub max_diagnostics: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            overrides: Vec::new(),
            max_diagnostics: 10_000,
        }
    }
}

impl CheckConfig {
    /// Overrides the severity of `rule_id`. Returns an error for unknown rules.
    pub fn with_severity(mut self, rule_id: &str, severity: Severity) -> Result<Self, String> {
        if rules::rule(rule_id).is_none() {
            return Err(format!("unknown rule id {rule_id:?}"));
        }
        self.overrides.retain(|(id, _)| id != rule_id);
        self.overrides.push((rule_id.to_owned(), severity));
        Ok(self)
    }

    /// The severity overrides in effect, in insertion order (the shape remote callers
    /// ship over the wire to reconstruct an equivalent configuration).
    pub fn overrides(&self) -> &[(String, Severity)] {
        &self.overrides
    }

    /// The effective severity of a rule under this configuration.
    pub fn severity_of(&self, rule_id: &str) -> Severity {
        self.overrides
            .iter()
            .find(|(id, _)| id == rule_id)
            .map(|(_, sev)| *sev)
            .unwrap_or_else(|| rules::default_severity(rule_id))
    }
}

/// The identity of an object *within one trace*, for comparing "the same object" across
/// entries. Value fingerprints are deliberately excluded: they change as object state
/// mutates, while class, heap location and creation sequence stay fixed.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Ident {
    class: Symbol,
    loc: Option<Loc>,
    seq: Option<CreationSeq>,
}

impl Ident {
    fn of(obj: ObjAt) -> Ident {
        Ident {
            class: obj.ident.class,
            loc: obj.loc,
            seq: obj.ident.creation_seq,
        }
    }

    /// The (class, seq) key for heap objects with a tracked identity.
    fn key(&self) -> Option<ObjKey> {
        self.seq.map(|seq| (self.class, seq.0))
    }

    fn describe(&self) -> String {
        match self.seq {
            Some(seq) => format!("{}#{}", self.class.as_str(), seq.0),
            None => self.class.as_str().to_owned(),
        }
    }
}

/// (class symbol, per-class creation sequence number): the cross-entry object identity.
type ObjKey = (Symbol, u64);

/// One reconstructed open call.
struct OpenCall {
    method: Symbol,
    active: Ident,
    entry_index: usize,
    /// A context mismatch inside this frame was already reported (one per frame).
    context_reported: bool,
}

/// Per-thread reconstruction state.
struct ThreadState {
    stack: Vec<OpenCall>,
    /// The thread's root receiver, learned from its first root-level entry.
    root_active: Option<Ident>,
    root_context_reported: bool,
    last_entry: usize,
    ended_at: Option<usize>,
    after_end_reported: bool,
    /// Length of the thread's fork-parentage chain (0 for main and orphans).
    ancestry_len: usize,
    /// Dense index into the vector-clock table.
    slot: usize,
}

/// What a fork recorded about a child thread, pending the child's first entry.
struct ForkInfo {
    entry_index: usize,
    ancestry_len: usize,
}

/// Tracked lifetime of one object identity.
struct ObjState {
    loc: Option<Loc>,
    def_index: usize,
    /// Entry index of the `init` that reused this object's location, if any.
    killed_at: Option<usize>,
    /// The binding was synthesized after a define-before-use report (not a real init).
    assumed: bool,
    reported_dead: bool,
    reported_confused: bool,
}

/// Last-access metadata for one (object, field) variable.
struct VarState {
    last_write: Option<Access>,
    /// Most recent read per thread slot since the last write.
    reads: Vec<Access>,
    raced: bool,
}

#[derive(Clone, Copy)]
struct Access {
    slot: usize,
    clock: u64,
    entry_index: usize,
}

/// The streaming rule engine. See the module docs for the design.
pub struct Checker {
    config: CheckConfig,
    index: usize,
    diagnostics: Vec<Diagnostic>,
    suppressed: usize,

    threads: IntMap<ThreadId, ThreadState>,
    thread_order: Vec<ThreadId>,
    forked: IntMap<ThreadId, ForkInfo>,

    objects: IntMap<ObjKey, ObjState>,
    by_loc: IntMap<Loc, ObjKey>,
    class_last_seq: IntMap<Symbol, u64>,
    undefined_reported: IntSet<ObjKey>,

    vars: IntMap<(ObjKey, Symbol), VarState>,
    clocks: Vec<Vec<u64>>,
    /// Clock slots handed out (at fork time) to threads with no entries yet.
    pending_slots: Vec<(ThreadId, usize)>,

    eid_disorder_reported: bool,
    empty_name_reported: bool,
    sym_main: Symbol,
    sym_empty: Symbol,
}

impl Default for Checker {
    fn default() -> Self {
        Checker::new()
    }
}

impl Checker {
    /// A checker with the default configuration.
    pub fn new() -> Self {
        Checker::with_config(CheckConfig::default())
    }

    /// A checker with an explicit configuration.
    pub fn with_config(config: CheckConfig) -> Self {
        Checker {
            config,
            index: 0,
            diagnostics: Vec::new(),
            suppressed: 0,
            threads: IntMap::default(),
            thread_order: Vec::new(),
            forked: IntMap::default(),
            objects: IntMap::default(),
            by_loc: IntMap::default(),
            class_last_seq: IntMap::default(),
            undefined_reported: IntSet::default(),
            vars: IntMap::default(),
            clocks: Vec::new(),
            pending_slots: Vec::new(),
            eid_disorder_reported: false,
            empty_name_reported: false,
            sym_main: intern("<main>"),
            sym_empty: intern(""),
        }
    }

    fn report(
        &mut self,
        rule_id: &'static str,
        entry_index: usize,
        related: Vec<usize>,
        message: String,
    ) {
        if self.diagnostics.len() >= self.config.max_diagnostics {
            self.suppressed += 1;
            return;
        }
        let severity = self.config.severity_of(rule_id);
        self.diagnostics.push(Diagnostic {
            rule_id,
            severity,
            entry_index,
            message,
            related_entries: related,
        });
    }

    /// Feeds one entry to the engine. Entries must arrive in trace order.
    pub fn observe(&mut self, entry: EntryRef<'_>) {
        let idx = self.index;
        self.index += 1;

        // entry-id-order: eids name positions. Reported once per trace — after one slip
        // every subsequent entry would mismatch too.
        if !self.eid_disorder_reported && entry.eid.index() != idx {
            self.eid_disorder_reported = true;
            self.report(
                rules::ENTRY_ID_ORDER.id,
                idx,
                vec![],
                format!("entry at position {idx} carries eid {}", entry.eid.0),
            );
        }

        self.check_names(entry, idx);

        let tid = entry.tid;
        self.ensure_thread(tid, idx);
        {
            let state = self
                .threads
                .get_mut(&tid)
                .expect("thread state just ensured");
            // thread-after-end: the thread is a zombie; report once, then ignore it.
            if let Some(end_idx) = state.ended_at {
                if !state.after_end_reported {
                    state.after_end_reported = true;
                    self.report(
                        rules::THREAD_AFTER_END.id,
                        idx,
                        vec![end_idx],
                        format!("thread {tid} emits entries after its end event"),
                    );
                }
                return;
            }
            state.last_entry = idx;
        }

        let operands = entry.operands;
        match entry.kind {
            EventKind::Call => {
                self.check_context(entry, idx);
                for &operand in operands {
                    self.check_use(operand, idx);
                }
                let call = OpenCall {
                    method: entry.name.expect("calls name a method"),
                    active: Ident::of(operands[0]),
                    entry_index: idx,
                    context_reported: false,
                };
                self.threads
                    .get_mut(&tid)
                    .expect("thread exists")
                    .stack
                    .push(call);
            }
            EventKind::Return => {
                let method = entry.name.expect("returns name a method");
                let popped = {
                    let state = self.threads.get_mut(&tid).expect("thread exists");
                    state.stack.pop()
                };
                match popped {
                    None => {
                        // No context check: with no open call the caller context is
                        // unknowable, and a second diagnostic would restate the first.
                        self.report(
                            rules::RETURN_WITHOUT_CALL.id,
                            idx,
                            vec![],
                            format!(
                                "return from '{}' on thread {tid} with no open call",
                                method.as_str()
                            ),
                        );
                        self.check_use(operands[0], idx);
                        self.check_use(operands[1], idx);
                        return;
                    }
                    Some(open) => {
                        if open.method != method {
                            self.report(
                                rules::RETURN_METHOD_MISMATCH.id,
                                idx,
                                vec![open.entry_index],
                                format!(
                                    "return names '{}' but the innermost open call is '{}'",
                                    method.as_str(),
                                    open.method.as_str()
                                ),
                            );
                        }
                    }
                }
                // RETURN-E emits the return in the *caller's* context (after the pop),
                // so the context check runs against the post-pop stack.
                self.check_context(entry, idx);
                self.check_use(operands[0], idx);
                self.check_use(operands[1], idx);
            }
            EventKind::Get | EventKind::Set => {
                let field = entry.name.expect("field events name a field");
                self.check_context(entry, idx);
                self.check_use(operands[0], idx);
                self.check_use(operands[1], idx);
                self.check_access(operands[0], field, entry.kind == EventKind::Set, tid, idx);
            }
            EventKind::Init => {
                self.check_context(entry, idx);
                for &arg in entry.args() {
                    self.check_use(arg, idx);
                }
                self.check_define(entry.target.expect("inits create an object"), idx);
            }
            EventKind::Fork => {
                self.check_context(entry, idx);
                let child = entry.child.expect("forks name a child thread");
                self.check_fork(tid, child, entry.parentage, idx);
            }
            EventKind::End => {
                // END-E is exempt from context checks: on an aborted run the recorded
                // stack legitimately diverges from the reconstruction (the run unwound
                // without emitting returns).
                self.check_end(tid, entry.stack.expect("ends record a stack"), idx);
            }
        }
    }

    /// Consumes the engine, runs the end-of-trace rules and returns the sorted report.
    /// The caller owns trace identification ([`CheckReport::trace_name`]).
    pub fn finish(mut self) -> CheckReport {
        let thread_order = std::mem::take(&mut self.thread_order);
        for tid in &thread_order {
            let (ended, last_entry, open): (bool, usize, Vec<(usize, Symbol)>) = {
                let state = &self.threads[tid];
                (
                    state.ended_at.is_some(),
                    state.last_entry,
                    state
                        .stack
                        .iter()
                        .map(|c| (c.entry_index, c.method))
                        .collect(),
                )
            };
            if !ended {
                self.report(
                    rules::MISSING_END.id,
                    last_entry,
                    vec![],
                    format!("thread {tid} never emitted an end event"),
                );
                if !open.is_empty() {
                    self.report_unclosed(last_entry, &open, *tid);
                }
            }
        }
        let mut diagnostics = std::mem::take(&mut self.diagnostics);
        diagnostics.sort_by(|a, b| (a.entry_index, a.rule_id).cmp(&(b.entry_index, b.rule_id)));
        CheckReport {
            trace_name: String::new(),
            entries: self.index,
            threads: thread_order.len(),
            suppressed: self.suppressed,
            diagnostics,
        }
    }

    fn ensure_thread(&mut self, tid: ThreadId, idx: usize) {
        if self.threads.contains_key(&tid) {
            return;
        }
        let mut ancestry_len = 0;
        let mut orphan: Option<String> = None;
        if tid != ThreadId::MAIN {
            match self.forked.get(&tid) {
                Some(info) => ancestry_len = info.ancestry_len,
                None => {
                    orphan = Some(format!(
                        "thread {tid} emits entries but no prior fork names it"
                    ));
                }
            }
        }
        let slot = self.slot_of(tid);
        self.threads.insert(
            tid,
            ThreadState {
                stack: Vec::new(),
                root_active: None,
                root_context_reported: false,
                last_entry: idx,
                ended_at: None,
                after_end_reported: false,
                ancestry_len,
                slot,
            },
        );
        self.thread_order.push(tid);
        if let Some(message) = orphan {
            self.report(rules::ORPHAN_THREAD.id, idx, vec![], message);
        }
    }

    /// name-wellformed: names are interned symbols and must be non-empty. Reported once
    /// per trace — a recorder that drops one name usually drops them all.
    fn check_names(&mut self, entry: EntryRef<'_>, idx: usize) {
        if self.empty_name_reported {
            return;
        }
        let empty = self.sym_empty;
        let names_event_member = matches!(
            entry.kind,
            EventKind::Call | EventKind::Return | EventKind::Get | EventKind::Set
        );
        let offending = if entry.method == empty {
            Some("context method")
        } else if entry.active.ident.class == empty {
            Some("active object class")
        } else if names_event_member && entry.name == Some(empty) {
            Some(match entry.kind {
                EventKind::Call | EventKind::Return => "event method",
                _ => "event field",
            })
        } else if entry.operands.iter().any(|op| op.ident.class == empty) {
            Some("operand class")
        } else {
            None
        };
        if let Some(kind) = offending {
            self.empty_name_reported = true;
            self.report(
                rules::NAME_WELLFORMED.id,
                idx,
                vec![],
                format!("empty {kind} name"),
            );
        }
    }

    /// method-context / active-context: the entry's recorded context must match the
    /// reconstructed innermost frame (`<main>` with the thread's root receiver when no
    /// call is open). One report per frame occurrence.
    fn check_context(&mut self, entry: EntryRef<'_>, idx: usize) {
        let method = entry.method;
        let active = Ident::of(entry.active);
        let sym_main = self.sym_main;
        let mut finding: Option<(&'static str, String, Vec<usize>)> = None;
        {
            let state = self.threads.get_mut(&entry.tid).expect("thread exists");
            if let Some(top) = state.stack.last_mut() {
                if top.context_reported {
                    return;
                }
                if method != top.method {
                    top.context_reported = true;
                    finding = Some((
                        rules::METHOD_CONTEXT.id,
                        format!(
                            "entry records context method '{}' but the open call is '{}'",
                            method.as_str(),
                            top.method.as_str()
                        ),
                        vec![top.entry_index],
                    ));
                } else if active != top.active {
                    top.context_reported = true;
                    finding = Some((
                        rules::ACTIVE_CONTEXT.id,
                        format!(
                            "entry records active object {} but the open call's receiver is {}",
                            active.describe(),
                            top.active.describe()
                        ),
                        vec![top.entry_index],
                    ));
                }
            } else {
                if state.root_context_reported {
                    return;
                }
                let root_active = *state.root_active.get_or_insert(active);
                if method != sym_main {
                    state.root_context_reported = true;
                    finding = Some((
                        rules::METHOD_CONTEXT.id,
                        format!(
                            "entry at stack root records context method '{}' (expected '<main>')",
                            method.as_str()
                        ),
                        vec![],
                    ));
                } else if active != root_active {
                    state.root_context_reported = true;
                    finding = Some((
                        rules::ACTIVE_CONTEXT.id,
                        format!(
                            "entry at stack root records active object {} but the thread's root receiver is {}",
                            active.describe(),
                            root_active.describe()
                        ),
                        vec![],
                    ));
                }
            }
        }
        if let Some((rule, message, related)) = finding {
            self.report(rule, idx, related, message);
        }
    }

    /// define-before-use / use-after-death / identity-confusion for one operand.
    fn check_use(&mut self, obj: ObjAt, idx: usize) {
        let ident = Ident::of(obj);
        let Some(key) = ident.key() else { return };
        match self.objects.get_mut(&key) {
            None => {
                if self.undefined_reported.insert(key) {
                    self.report(
                        rules::DEFINE_BEFORE_USE.id,
                        idx,
                        vec![],
                        format!("object {} is used but never initialized", ident.describe()),
                    );
                }
                // Assume the identity defined from here on so one dangling object
                // yields one diagnostic, and a later real init is not misread as a
                // duplicate.
                self.objects.insert(
                    key,
                    ObjState {
                        loc: ident.loc,
                        def_index: idx,
                        killed_at: None,
                        assumed: true,
                        reported_dead: false,
                        reported_confused: false,
                    },
                );
            }
            Some(state) => {
                if let Some(killed) = state.killed_at {
                    if !state.reported_dead {
                        state.reported_dead = true;
                        let msg = format!(
                            "object {} is used after its location was reallocated",
                            ident.describe()
                        );
                        self.report(rules::USE_AFTER_DEATH.id, idx, vec![killed], msg);
                    }
                } else if let (Some(seen), Some(init)) = (ident.loc, state.loc) {
                    if seen != init && !state.reported_confused {
                        state.reported_confused = true;
                        let def = state.def_index;
                        let msg = format!(
                            "object {} appears at location {seen} but was initialized at {init}",
                            ident.describe()
                        );
                        self.report(rules::IDENTITY_CONFUSION.id, idx, vec![def], msg);
                    }
                }
            }
        }
    }

    /// init handling: duplicate-init, init-order, and location-reuse bookkeeping for
    /// use-after-death.
    fn check_define(&mut self, result: ObjAt, idx: usize) {
        let ident = Ident::of(result);
        let Some(key) = ident.key() else {
            // Inits of primitive values (trace_prim_init recorders) carry no identity.
            return;
        };
        let seq = key.1;
        let prior = self.class_last_seq.get(&key.0).copied();
        self.class_last_seq
            .insert(key.0, prior.map_or(seq, |last| last.max(seq)));
        if let Some(last) = prior {
            if seq < last {
                self.report(
                    rules::INIT_ORDER.id,
                    idx,
                    vec![],
                    format!(
                        "init of {} after seq #{last} of the same class",
                        ident.describe()
                    ),
                );
            }
        }
        if let Some(existing) = self.objects.get_mut(&key) {
            if existing.assumed {
                // The identity was synthesized by a define-before-use report; this is
                // the real init — upgrade the binding silently.
                existing.assumed = false;
                existing.loc = ident.loc;
                existing.def_index = idx;
                existing.killed_at = None;
            } else {
                let first = existing.def_index;
                self.report(
                    rules::DUPLICATE_INIT.id,
                    idx,
                    vec![first],
                    format!("object {} is initialized a second time", ident.describe()),
                );
                return;
            }
        } else {
            self.objects.insert(
                key,
                ObjState {
                    loc: ident.loc,
                    def_index: idx,
                    killed_at: None,
                    assumed: false,
                    reported_dead: false,
                    reported_confused: false,
                },
            );
        }
        if let Some(loc) = ident.loc {
            if let Some(prev) = self.by_loc.insert(loc, key) {
                if prev != key {
                    if let Some(prev_state) = self.objects.get_mut(&prev) {
                        if prev_state.killed_at.is_none() {
                            prev_state.killed_at = Some(idx);
                        }
                    }
                }
            }
        }
    }

    /// fork-self / duplicate-fork / orphan registration / fork-parentage, plus the
    /// vector-clock fork edge.
    fn check_fork(
        &mut self,
        tid: ThreadId,
        child: ThreadId,
        parentage: &[StackSnapshot],
        idx: usize,
    ) {
        if child == tid {
            self.report(
                rules::FORK_SELF.id,
                idx,
                vec![],
                format!("thread {tid} forks itself"),
            );
            return;
        }
        if child == ThreadId::MAIN {
            self.report(
                rules::DUPLICATE_FORK.id,
                idx,
                vec![],
                "fork names the main thread, which exists from trace start".to_owned(),
            );
            return;
        }
        if let Some(prev) = self.forked.get(&child) {
            let prev_idx = prev.entry_index;
            self.report(
                rules::DUPLICATE_FORK.id,
                idx,
                vec![prev_idx],
                format!("thread {child} was already forked"),
            );
            return;
        }

        // fork-parentage: parentage[0] is the forker's stack at the fork; the rest is
        // the forker's own ancestry, so the chain grows by one per generation.
        let (expected_methods, forker_ancestry): (Vec<Symbol>, usize) = {
            let state = &self.threads[&tid];
            let mut methods = vec![self.sym_main];
            methods.extend(state.stack.iter().map(|c| c.method));
            (methods, state.ancestry_len)
        };
        match parentage.first() {
            None => {
                self.report(
                    rules::FORK_PARENTAGE.id,
                    idx,
                    vec![],
                    format!("fork of {child} records no parentage snapshots"),
                );
            }
            Some(snapshot) => {
                let recorded: Vec<Symbol> = snapshot
                    .method_names()
                    .iter()
                    .map(|m| intern(m.as_str()))
                    .collect();
                if recorded != expected_methods {
                    let msg = format!(
                        "fork parentage records stack [{}] but the reconstructed stack is [{}]",
                        join_symbols(&recorded),
                        join_symbols(&expected_methods)
                    );
                    self.report(rules::FORK_PARENTAGE.id, idx, vec![], msg);
                } else if parentage.len() != forker_ancestry + 1 {
                    let msg = format!(
                        "fork parentage chain has {} snapshot(s) but the forker's ancestry depth is {}",
                        parentage.len(),
                        forker_ancestry
                    );
                    self.report(rules::FORK_PARENTAGE.id, idx, vec![], msg);
                }
            }
        }

        self.forked.insert(
            child,
            ForkInfo {
                entry_index: idx,
                ancestry_len: parentage.len(),
            },
        );

        // Vector-clock fork edge: everything the forker did so far happens before
        // everything the child will do.
        let parent_slot = self.threads[&tid].slot;
        let child_slot = self.slot_of(child);
        let parent_clock = self.clocks[parent_slot].clone();
        join_clock(&mut self.clocks[child_slot], &parent_clock);
        tick(&mut self.clocks[child_slot], child_slot);
        tick(&mut self.clocks[parent_slot], parent_slot);
    }

    /// end handling: end-stack shape, unclosed calls, thread termination.
    fn check_end(&mut self, tid: ThreadId, stack: &StackSnapshot, idx: usize) {
        let root_ok =
            stack.depth() == 1 && stack.frames[0].method.as_str() == self.sym_main.as_str();
        if !root_ok {
            let recorded: Vec<String> = stack
                .method_names()
                .iter()
                .map(|m| m.as_str().to_owned())
                .collect();
            self.report(
                rules::END_STACK.id,
                idx,
                vec![],
                format!(
                    "end snapshot records stack [{}] (expected the single root frame '<main>')",
                    recorded.join(", ")
                ),
            );
        }
        let open: Vec<(usize, Symbol)> = {
            let state = self.threads.get_mut(&tid).expect("thread exists");
            state.ended_at = Some(idx);
            let open = state
                .stack
                .iter()
                .map(|c| (c.entry_index, c.method))
                .collect();
            state.stack.clear();
            open
        };
        if !open.is_empty() {
            self.report_unclosed(idx, &open, tid);
        }
    }

    fn report_unclosed(&mut self, idx: usize, open: &[(usize, Symbol)], tid: ThreadId) {
        let related: Vec<usize> = open.iter().map(|(i, _)| *i).collect();
        let methods: Vec<&str> = open.iter().map(|(_, m)| m.as_str()).collect();
        self.report(
            rules::UNCLOSED_CALL.id,
            idx,
            related,
            format!(
                "{} call(s) on thread {tid} never returned (aborted run?): {}",
                open.len(),
                methods.join(", ")
            ),
        );
    }

    /// data-race: FastTrack-style per-variable metadata against per-thread vector
    /// clocks. One report per variable.
    fn check_access(
        &mut self,
        target: ObjAt,
        field: Symbol,
        is_write: bool,
        tid: ThreadId,
        idx: usize,
    ) {
        let Some(key) = Ident::of(target).key() else {
            return;
        };
        let slot = self.threads[&tid].slot;
        let my_clock = clock_component(&self.clocks[slot], slot);
        let var = self.vars.entry((key, field)).or_insert_with(|| VarState {
            last_write: None,
            reads: Vec::new(),
            raced: false,
        });
        if var.raced {
            return;
        }
        let clocks = &self.clocks;
        let ordered =
            |a: &Access| a.slot == slot || a.clock <= clock_component(&clocks[slot], a.slot);
        let mut conflict: Option<Access> = None;
        if let Some(w) = var.last_write {
            if !ordered(&w) {
                conflict = Some(w);
            }
        }
        if is_write && conflict.is_none() {
            conflict = var.reads.iter().find(|r| !ordered(r)).copied();
        }
        if let Some(other) = conflict {
            var.raced = true;
            let kind = if is_write { "write" } else { "read" };
            let msg = format!(
                "{kind} of {}.{} on thread {tid} is unordered with the access at entry {} (no happens-before edge)",
                describe_key(key),
                field.as_str(),
                other.entry_index
            );
            self.report(rules::DATA_RACE.id, idx, vec![other.entry_index], msg);
            return;
        }
        let access = Access {
            slot,
            clock: my_clock,
            entry_index: idx,
        };
        if is_write {
            var.reads.clear();
            var.last_write = Some(access);
        } else {
            match var.reads.iter_mut().find(|r| r.slot == slot) {
                Some(r) => *r = access,
                None => var.reads.push(access),
            }
        }
        tick(&mut self.clocks[slot], slot);
    }

    /// The dense vector-clock slot of a thread, allocating on first sight.
    fn slot_of(&mut self, tid: ThreadId) -> usize {
        if let Some(state) = self.threads.get(&tid) {
            return state.slot;
        }
        // Forked-but-not-yet-seen children get a slot ahead of their first entry.
        if let Some(slot) = self.pending_slot(tid) {
            return slot;
        }
        let slot = self.clocks.len();
        self.clocks.push(vec![0; slot + 1]);
        self.pending_slots.push((tid, slot));
        slot
    }

    fn pending_slot(&self, tid: ThreadId) -> Option<usize> {
        self.pending_slots
            .iter()
            .find(|(t, _)| *t == tid)
            .map(|(_, s)| *s)
    }
}

fn describe_key(key: ObjKey) -> String {
    format!("{}#{}", key.0.as_str(), key.1)
}

fn join_symbols(symbols: &[Symbol]) -> String {
    symbols
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

fn clock_component(clock: &[u64], slot: usize) -> u64 {
    clock.get(slot).copied().unwrap_or(0)
}

fn tick(clock: &mut Vec<u64>, slot: usize) {
    if clock.len() <= slot {
        clock.resize(slot + 1, 0);
    }
    clock[slot] += 1;
}

fn join_clock(into: &mut Vec<u64>, other: &[u64]) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (i, v) in other.iter().enumerate() {
        if *v > into[i] {
            into[i] = *v;
        }
    }
}

/// Checks a fully materialized trace (tests, fixtures, small inputs) through the
/// [`EntryBatch`] adapter. Streaming callers should drive [`Checker`] directly from
/// their decode loop instead.
pub fn check_trace(trace: &Trace) -> CheckReport {
    check_trace_with(trace, CheckConfig::default())
}

/// [`check_trace`] with an explicit configuration.
pub fn check_trace_with(trace: &Trace, config: CheckConfig) -> CheckReport {
    let mut checker = Checker::with_config(config);
    EntryBatch::visit(&trace.entries, |entry| checker.observe(entry));
    let mut report = checker.finish();
    report.trace_name = trace.meta.name.clone();
    report
}
