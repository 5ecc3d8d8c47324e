//! The tracing interpreter: the paper's dynamic semantics (Fig. 6) as an executable
//! evaluator that records a trace entry for every rule that the semantics instruments.
//!
//! ## Correspondence with the paper's rules
//!
//! | Paper rule     | Implementation point                                   |
//! |----------------|--------------------------------------------------------|
//! | CONS-E         | `ThreadRun::eval` on [`Term::New`] → `Event::Init`     |
//! | CONS-VAL-E     | [`Term::Lit`] when `trace_prim_init` is enabled        |
//! | FIELD-ACC-E    | [`Term::FieldGet`] → `Event::Get`                      |
//! | FIELD-ASS-E    | [`Term::FieldSet`] → `Event::Set`                      |
//! | METH-E         | [`Term::Call`] → `Event::Call` (caller context)        |
//! | RETURN-E       | frame pop → `Event::Return` (caller context)           |
//! | FORK-E         | [`Term::Spawn`] → `Event::Fork` with full parentage    |
//! | END-E          | thread completion → `Event::End`                       |
//!
//! ## Thread interleaving
//!
//! Program threads run on real OS threads but take deterministic round-robin turns: a
//! thread may only mutate shared state while it holds the *turn*, and the turn rotates
//! after every [`VmConfig::quantum`] recorded events. Because every non-turn-holding
//! thread is parked on a condition variable, exactly one program thread executes at any
//! time and the produced interleaving is a pure function of the program and the quantum —
//! re-running the same program yields byte-identical traces, which the differencing tests
//! rely on.

use std::collections::HashMap;
use std::sync::Arc;

use std::sync::{Condvar, Mutex, MutexGuard};

use rprism_lang::ast::{Lit, Program, Term};
use rprism_lang::{ClassName, ClassTable, MethodName, VarName};
use rprism_trace::EntryId;
use rprism_trace::{
    Event, ObjRep, StackFrame, StackSnapshot, ThreadId, Trace, TraceEntry, TraceMeta,
};

use crate::config::{RunStats, VmConfig};
use crate::error::RuntimeError;
use crate::heap::Heap;
use crate::value::{eval_binop, eval_unop, Value};

/// The name of the builtin system class: calls to `print` / `fail` on instances of this
/// class are intercepted by the VM (program output and thrown failures).
pub const SYS_CLASS: &str = "Sys";

/// Returns the canonical definition of the builtin [`SYS_CLASS`] so that workload programs
/// can include it and pass validation; the VM intercepts its methods and never executes
/// the (empty) bodies.
pub fn sys_class_def() -> rprism_lang::ClassDef {
    use rprism_lang::build::{str_ty, unit, unit_ty, ClassBuilder, MethodBuilder};
    ClassBuilder::new(SYS_CLASS)
        .method(
            MethodBuilder::new("print", unit_ty())
                .param("msg", str_ty())
                .body(unit()),
        )
        .method(
            MethodBuilder::new("fail", unit_ty())
                .param("msg", str_ty())
                .body(unit()),
        )
        .build()
}

/// Everything produced by one tracing run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The recorded execution trace (complete even when the run failed).
    pub trace: Trace,
    /// The overall result: `Ok(())` when the main thread and all spawned threads finished
    /// normally, otherwise the first error observed.
    pub result: Result<(), RuntimeError>,
    /// Program output: the arguments of every `Sys.print` call, in emission order.
    pub output: Vec<String>,
    /// Aggregate run statistics.
    pub stats: RunStats,
}

impl RunOutcome {
    /// Returns `true` when the run finished without a runtime error.
    pub fn succeeded(&self) -> bool {
        self.result.is_ok()
    }
}

/// Runs `program` under `config`, labelling the trace with `meta`.
///
/// # Errors
///
/// Returns a [`rprism_lang::Error`] when the program fails static validation. Runtime
/// errors do not abort the call — they are reported in [`RunOutcome::result`] along with
/// the partial trace.
pub fn run_traced(
    program: &Program,
    meta: TraceMeta,
    config: VmConfig,
) -> Result<RunOutcome, rprism_lang::Error> {
    let table = rprism_lang::validate::validate(program)?;
    Ok(run_validated(program, table, meta, config))
}

/// Runs a program that has already been validated.
pub fn run_validated(
    program: &Program,
    table: ClassTable,
    meta: TraceMeta,
    config: VmConfig,
) -> RunOutcome {
    let inner = Arc::new(VmInner {
        state: Mutex::new(Shared {
            heap: Heap::new(config.opaque_classes.clone(), config.value_repr_depth),
            trace: Trace::new(meta),
            output: Vec::new(),
            ring: vec![ThreadId::MAIN],
            turn: 0,
            events_in_turn: 0,
            next_tid: 1,
            stats: RunStats::default(),
            child_errors: Vec::new(),
            handles: Vec::new(),
        }),
        turn_cv: Condvar::new(),
        config,
        program: program.clone(),
        table,
    });

    let mut main_run = ThreadRun::new(Arc::clone(&inner), ThreadId::MAIN, Vec::new());
    let main_result = main_run.run_thread_body(&inner.program.main.clone());

    // Wait for every spawned thread to finish (threads may keep spawning more threads).
    loop {
        let handle = {
            let mut st = inner.state.lock().expect("vm state poisoned");
            st.handles.pop()
        };
        match handle {
            Some(h) => {
                let _ = h.join();
            }
            None => break,
        }
    }

    let mut st = inner.state.lock().expect("vm state poisoned");
    let trace = std::mem::replace(&mut st.trace, Trace::new(TraceMeta::default()));
    let output = std::mem::take(&mut st.output);
    let stats = st.stats.clone();
    let child_error = st.child_errors.first().cloned();
    drop(st);

    let result = match main_result {
        Err(e) => Err(e),
        Ok(()) => match child_error {
            Some((tid, cause)) => Err(RuntimeError::ThreadFailed {
                tid,
                cause: Box::new(cause),
            }),
            None => Ok(()),
        },
    };

    RunOutcome {
        trace,
        result,
        output,
        stats,
    }
}

/// Internal evaluation control flow: either a genuine runtime error or an early `return`
/// propagating out of the enclosing method body.
enum Flow {
    Error(RuntimeError),
    Return(Value),
}

impl From<RuntimeError> for Flow {
    fn from(e: RuntimeError) -> Self {
        Flow::Error(e)
    }
}

type EvalResult = Result<Value, Flow>;

struct Shared {
    heap: Heap,
    trace: Trace,
    output: Vec<String>,
    /// Runnable threads in round-robin order.
    ring: Vec<ThreadId>,
    /// Index into `ring` of the thread currently holding the turn.
    turn: usize,
    /// Events recorded since the turn last rotated.
    events_in_turn: usize,
    next_tid: u64,
    stats: RunStats,
    child_errors: Vec<(ThreadId, RuntimeError)>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

struct VmInner {
    state: Mutex<Shared>,
    turn_cv: Condvar,
    config: VmConfig,
    program: Program,
    table: ClassTable,
}

impl VmInner {
    /// Locks the shared state, blocking until it is `tid`'s turn to run.
    fn lock_turn(&self, tid: ThreadId) -> MutexGuard<'_, Shared> {
        let mut guard = self.state.lock().expect("vm state poisoned");
        while guard.ring.get(guard.turn) != Some(&tid) {
            guard = self.turn_cv.wait(guard).expect("vm state poisoned");
        }
        guard
    }
}

/// One program thread's interpreter state.
struct ThreadRun {
    vm: Arc<VmInner>,
    tid: ThreadId,
    /// Spawn-point stacks of this thread's ancestors (own spawn point first).
    ancestry: Vec<StackSnapshot>,
    stack: Vec<Frame>,
    steps: u64,
    max_depth: usize,
}

struct Frame {
    method: MethodName,
    this_value: Value,
    this_rep: ObjRep,
    env: HashMap<VarName, Value>,
}

impl ThreadRun {
    fn new(vm: Arc<VmInner>, tid: ThreadId, ancestry: Vec<StackSnapshot>) -> Self {
        ThreadRun {
            vm,
            tid,
            ancestry,
            stack: Vec::new(),
            steps: 0,
            max_depth: 0,
        }
    }

    /// Runs the thread body: pushes the synthetic top-level frame, evaluates the terms,
    /// emits the `end` event and deregisters from the scheduler ring.
    fn run_thread_body(&mut self, body: &[Term]) -> Result<(), RuntimeError> {
        self.run_thread_body_in(body, Value::Null, ObjRep::null(), HashMap::new())
    }

    fn run_thread_body_in(
        &mut self,
        body: &[Term],
        this_value: Value,
        this_rep: ObjRep,
        env: HashMap<VarName, Value>,
    ) -> Result<(), RuntimeError> {
        self.stack.push(Frame {
            method: MethodName::toplevel(),
            this_value,
            this_rep,
            env,
        });
        self.max_depth = self.max_depth.max(self.stack.len());

        let mut result = Ok(());
        for term in body {
            match self.eval(term) {
                Ok(_) => {}
                // A top-level `return` simply ends the thread body.
                Err(Flow::Return(_)) => break,
                Err(Flow::Error(e)) => {
                    result = Err(e);
                    break;
                }
            }
        }

        // END-E: record thread completion with the final stack, even after an error.
        let end_stack = self.snapshot_stack();
        self.emit(Event::End { stack: end_stack });
        self.stack.pop();
        self.finish();
        result
    }

    /// Removes this thread from the scheduler ring and flushes local statistics.
    fn finish(&mut self) {
        let mut st = self.vm.lock_turn(self.tid);
        st.stats.steps += self.steps;
        st.stats.max_stack_depth = st.stats.max_stack_depth.max(self.max_depth);
        self.steps = 0;
        if let Some(idx) = st.ring.iter().position(|t| *t == self.tid) {
            st.ring.remove(idx);
            if idx < st.turn {
                st.turn -= 1;
            }
            if st.turn >= st.ring.len() {
                st.turn = 0;
            }
            st.events_in_turn = 0;
        }
        self.vm.turn_cv.notify_all();
    }

    fn frame(&self) -> &Frame {
        self.stack
            .last()
            .expect("interpreter frame stack is never empty during evaluation")
    }

    fn frame_mut(&mut self) -> &mut Frame {
        self.stack
            .last_mut()
            .expect("interpreter frame stack is never empty during evaluation")
    }

    /// Builds the trace representation of a value (locks the shared heap).
    fn rep(&self, value: &Value) -> ObjRep {
        let st = self.vm.lock_turn(self.tid);
        st.heap.obj_rep(value)
    }

    fn snapshot_stack(&self) -> StackSnapshot {
        StackSnapshot::new(
            self.stack
                .iter()
                .map(|f| StackFrame::new(f.method.clone(), ObjRep::null(), f.this_rep.clone()))
                .collect(),
        )
    }

    /// Records a trace entry in the context of the current frame, rotating the scheduling
    /// turn when the quantum is exhausted.
    fn emit(&mut self, event: Event) {
        let frame = self.frame();
        let entry = TraceEntry::new(
            EntryId(0),
            self.tid,
            frame.method.clone(),
            frame.this_rep.clone(),
            event,
        );
        let mut st = self.vm.lock_turn(self.tid);
        if self.vm.config.filter.admits(&entry) {
            st.trace.push(entry);
            st.stats.events_recorded += 1;
        } else {
            st.stats.events_filtered += 1;
        }
        st.events_in_turn += 1;
        if st.events_in_turn >= self.vm.config.quantum && st.ring.len() > 1 {
            st.events_in_turn = 0;
            st.turn = (st.turn + 1) % st.ring.len();
            self.vm.turn_cv.notify_all();
            while st.ring.get(st.turn) != Some(&self.tid) {
                st = self.vm.turn_cv.wait(st).expect("vm state poisoned");
            }
        }
    }

    fn eval_all(&mut self, terms: &[Term]) -> Result<Vec<Value>, Flow> {
        terms.iter().map(|t| self.eval(t)).collect()
    }

    fn eval(&mut self, term: &Term) -> EvalResult {
        self.steps += 1;
        if self.steps > self.vm.config.max_steps {
            return Err(RuntimeError::StepLimitExceeded {
                limit: self.vm.config.max_steps,
            }
            .into());
        }
        match term {
            Term::Var(name) => {
                self.frame().env.get(name).cloned().ok_or_else(|| {
                    Flow::from(RuntimeError::UnboundVariable(name.as_str().to_owned()))
                })
            }
            Term::This => Ok(self.frame().this_value.clone()),
            Term::Lit(lit) => {
                let value = Value::from_lit(lit);
                if self.vm.config.trace_prim_init && !matches!(lit, Lit::Unit | Lit::Null) {
                    // CONS-VAL-E: init(D, ε, E#(D(d))).
                    let rep = self.rep(&value);
                    self.emit(Event::Init {
                        class: rep.class.clone(),
                        args: Vec::new(),
                        result: rep,
                    });
                }
                Ok(value)
            }
            Term::FieldGet { target, field } => {
                let target_value = self.eval(target)?;
                let (loc, _class) = self.expect_ref(&target_value, field.as_str())?;
                let value = {
                    let st = self.vm.lock_turn(self.tid);
                    st.heap.read_field(loc, field)?
                };
                let target_rep = self.rep(&target_value);
                let value_rep = self.rep(&value);
                self.emit(Event::Get {
                    target: target_rep,
                    field: field.clone(),
                    value: value_rep,
                });
                Ok(value)
            }
            Term::FieldSet {
                target,
                field,
                value,
            } => {
                let target_value = self.eval(target)?;
                let (loc, _class) = self.expect_ref(&target_value, field.as_str())?;
                let new_value = self.eval(value)?;
                {
                    let mut st = self.vm.lock_turn(self.tid);
                    st.heap.write_field(loc, field, new_value.clone())?;
                }
                let target_rep = self.rep(&target_value);
                let value_rep = self.rep(&new_value);
                self.emit(Event::Set {
                    target: target_rep,
                    field: field.clone(),
                    value: value_rep,
                });
                Ok(new_value)
            }
            Term::Call {
                target,
                method,
                args,
            } => self.eval_call(target, method, args),
            Term::New { class, args } => self.eval_new(class, args),
            Term::Spawn { body } => self.eval_spawn(body),
            Term::Seq(terms) => {
                let mut last = Value::unit();
                for t in terms {
                    last = self.eval(t)?;
                }
                Ok(last)
            }
            Term::Return(value) => {
                let v = self.eval(value)?;
                Err(Flow::Return(v))
            }
            Term::Let { var, value, body } => {
                let bound = self.eval(value)?;
                let previous = self.frame_mut().env.insert(var.clone(), bound);
                let result = self.eval(body);
                match previous {
                    Some(old) => {
                        self.frame_mut().env.insert(var.clone(), old);
                    }
                    None => {
                        self.frame_mut().env.remove(var);
                    }
                }
                result
            }
            Term::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval(cond)?.as_bool()?;
                if c {
                    self.eval(then_branch)
                } else {
                    self.eval(else_branch)
                }
            }
            Term::While { cond, body } => {
                let mut iterations: u64 = 0;
                while self.eval(cond)?.as_bool()? {
                    iterations += 1;
                    if iterations > self.vm.config.max_loop_iterations {
                        return Err(RuntimeError::LoopLimitExceeded {
                            limit: self.vm.config.max_loop_iterations,
                        }
                        .into());
                    }
                    self.eval(body)?;
                }
                Ok(Value::unit())
            }
            Term::Bin { op, lhs, rhs } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                Ok(eval_binop(*op, &l, &r)?)
            }
            Term::Un { op, operand } => {
                let v = self.eval(operand)?;
                Ok(eval_unop(*op, &v)?)
            }
        }
    }

    fn expect_ref(
        &self,
        value: &Value,
        member: &str,
    ) -> Result<(rprism_trace::Loc, ClassName), RuntimeError> {
        match value {
            Value::Ref { loc, class } => Ok((*loc, class.clone())),
            Value::Null => Err(RuntimeError::NullDereference {
                member: member.to_owned(),
            }),
            other => Err(RuntimeError::TypeError {
                message: format!("cannot access member `{member}` on {other:?}"),
            }),
        }
    }

    fn eval_call(&mut self, target: &Term, method: &MethodName, args: &[Term]) -> EvalResult {
        let target_value = self.eval(target)?;
        let (_, class) = self.expect_ref(&target_value, method.as_str())?;
        let arg_values = self.eval_all(args)?;

        let target_rep = self.rep(&target_value);
        let arg_reps: Vec<ObjRep> = arg_values.iter().map(|v| self.rep(v)).collect();

        // METH-E: the call entry is recorded in the caller's context.
        self.emit(Event::Call {
            target: target_rep.clone(),
            method: method.clone(),
            args: arg_reps,
        });

        // Builtin system methods (program output / raised failures).
        if class.as_str() == SYS_CLASS {
            return self.eval_sys_builtin(method, &arg_values, &target_rep);
        }

        let (def_class, method_def) = match self.vm.table.mbody(method, &class) {
            Some((c, m)) => (c.clone(), m.clone()),
            None => {
                return Err(RuntimeError::UnknownMethod {
                    class: class.as_str().to_owned(),
                    method: method.as_str().to_owned(),
                }
                .into())
            }
        };
        let _ = def_class;
        if method_def.params.len() != arg_values.len() {
            return Err(RuntimeError::CallArity {
                class: class.as_str().to_owned(),
                method: method.as_str().to_owned(),
                expected: method_def.params.len(),
                found: arg_values.len(),
            }
            .into());
        }

        let mut env = HashMap::new();
        for ((param, _), value) in method_def.params.iter().zip(arg_values) {
            env.insert(param.clone(), value);
        }

        self.stack.push(Frame {
            method: method.clone(),
            this_value: target_value,
            this_rep: target_rep.clone(),
            env,
        });
        self.max_depth = self.max_depth.max(self.stack.len());

        let mut result = Ok(Value::unit());
        for t in &method_def.body {
            result = self.eval(t);
            if result.is_err() {
                break;
            }
        }

        self.stack.pop();

        // RETURN-E: an early `return` in the body terminates the call with that value.
        let return_value = match result {
            Ok(v) => v,
            Err(Flow::Return(v)) => v,
            Err(err) => return Err(err),
        };
        let value_rep = self.rep(&return_value);
        // RETURN-E: the return entry is recorded in the caller's context (frame popped).
        self.emit(Event::Return {
            target: target_rep,
            method: method.clone(),
            value: value_rep,
        });
        Ok(return_value)
    }

    fn eval_sys_builtin(
        &mut self,
        method: &MethodName,
        args: &[Value],
        target_rep: &ObjRep,
    ) -> EvalResult {
        let printed: Vec<String> = args
            .iter()
            .map(|v| match v {
                Value::Prim(p) => p.printed(),
                Value::Null => "null".to_owned(),
                Value::Ref { .. } => self.rep(v).printed,
            })
            .collect();
        match method.as_str() {
            "print" => {
                {
                    let mut st = self.vm.lock_turn(self.tid);
                    st.output.push(printed.join(" "));
                }
                let value_rep = self.rep(&Value::unit());
                self.emit(Event::Return {
                    target: target_rep.clone(),
                    method: method.clone(),
                    value: value_rep,
                });
                Ok(Value::unit())
            }
            "fail" => Err(RuntimeError::Raised {
                message: printed.join(" "),
            }
            .into()),
            other => Err(RuntimeError::UnknownMethod {
                class: SYS_CLASS.to_owned(),
                method: other.to_owned(),
            }
            .into()),
        }
    }

    fn eval_new(&mut self, class: &ClassName, args: &[Term]) -> EvalResult {
        if !self.vm.table.is_defined(class) {
            return Err(RuntimeError::UnknownClass(class.as_str().to_owned()).into());
        }
        let arg_values = self.eval_all(args)?;
        let fields = self.vm.table.fields(class).to_vec();
        if fields.len() != arg_values.len() {
            return Err(RuntimeError::ConstructorArity {
                class: class.as_str().to_owned(),
                expected: fields.len(),
                found: arg_values.len(),
            }
            .into());
        }
        let arg_reps: Vec<ObjRep> = arg_values.iter().map(|v| self.rep(v)).collect();

        let field_values: Vec<(rprism_lang::FieldName, Value)> = fields
            .iter()
            .map(|(f, _)| f.clone())
            .zip(arg_values.iter().cloned())
            .collect();

        let loc = {
            let mut st = self.vm.lock_turn(self.tid);
            let loc = st.heap.allocate(class.clone(), field_values);
            st.stats.objects_allocated += 1;
            loc
        };
        let value = Value::Ref {
            loc,
            class: class.clone(),
        };
        let result_rep = self.rep(&value);
        // CONS-E: init(C, E#(v̄), E#(l)).
        self.emit(Event::Init {
            class: class.as_str().to_owned(),
            args: arg_reps,
            result: result_rep,
        });
        Ok(value)
    }

    fn eval_spawn(&mut self, body: &[Term]) -> EvalResult {
        // Allocate the child's thread id and register it as runnable.
        let child_tid = {
            let mut st = self.vm.lock_turn(self.tid);
            let tid = ThreadId(st.next_tid);
            st.next_tid += 1;
            st.stats.threads_spawned += 1;
            tid
        };

        // FORK-E: the fork event records the spawning thread's stack and its ancestry.
        let mut parentage = vec![self.snapshot_stack()];
        parentage.extend(self.ancestry.iter().cloned());
        self.emit(Event::Fork {
            child: child_tid,
            parentage: parentage.clone(),
        });

        // Capture the lexical environment and receiver so the spawned body can refer to
        // them, then hand the body to a real OS thread that takes scheduler turns.
        let captured_env = self.frame().env.clone();
        let captured_this = self.frame().this_value.clone();
        let captured_this_rep = self.frame().this_rep.clone();
        let body_terms: Vec<Term> = body.to_vec();
        let vm = Arc::clone(&self.vm);

        let handle = std::thread::spawn(move || {
            let mut run = ThreadRun::new(Arc::clone(&vm), child_tid, parentage);
            let result =
                run.run_thread_body_in(&body_terms, captured_this, captured_this_rep, captured_env);
            if let Err(e) = result {
                let mut st = vm.state.lock().expect("vm state poisoned");
                st.child_errors.push((child_tid, e));
            }
        });

        {
            let mut st = self.vm.lock_turn(self.tid);
            st.ring.push(child_tid);
            st.handles.push(handle);
        }
        Ok(Value::unit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_lang::parser::parse_program;
    use rprism_trace::eq::EventKey;

    fn run_src(src: &str) -> RunOutcome {
        let program = parse_program(src).expect("parse");
        run_traced(
            &program,
            TraceMeta::new("test", "v1", "case"),
            VmConfig::default(),
        )
        .expect("validate")
    }

    const COUNTER: &str = r#"
        class Counter extends Object {
            Int count;
            Int bump(Int by) {
                this.count = this.count + by;
                return this.count;
            }
        }
        main {
            let c = new Counter(0);
            c.bump(2);
            c.bump(3);
        }
    "#;

    #[test]
    fn counter_program_produces_expected_events() {
        let outcome = run_src(COUNTER);
        assert!(outcome.succeeded());
        let kinds: Vec<_> = outcome
            .trace
            .iter()
            .map(|e| format!("{:?}", e.event.kind()))
            .collect();
        // init, then per bump: call, get (read for +), set, get (read for return), return —
        // plus the final thread end.
        assert_eq!(
            kinds,
            vec![
                "Init", "Call", "Get", "Set", "Get", "Return", "Call", "Get", "Set", "Get",
                "Return", "End"
            ]
        );
        // The second bump's set writes 5.
        let set_values: Vec<&str> = outcome
            .trace
            .iter()
            .filter_map(|e| match &e.event {
                Event::Set { value, .. } => Some(value.printed.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(set_values, vec!["2", "5"]);
    }

    #[test]
    fn call_and_return_are_recorded_in_caller_context() {
        let outcome = run_src(COUNTER);
        for e in outcome.trace.iter() {
            if matches!(e.event, Event::Call { .. } | Event::Return { .. }) {
                assert_eq!(e.method, MethodName::toplevel());
            }
            if matches!(e.event, Event::Set { .. } | Event::Get { .. }) {
                assert_eq!(e.method.as_str(), "bump");
                assert_eq!(e.active.class, "Counter");
            }
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let a = run_src(COUNTER);
        let b = run_src(COUNTER);
        let keys_a: Vec<EventKey> = a.trace.iter().map(EventKey::of).collect();
        let keys_b: Vec<EventKey> = b.trace.iter().map(EventKey::of).collect();
        assert_eq!(keys_a, keys_b);
    }

    #[test]
    fn sys_print_collects_output() {
        let src = r#"
            class Sys extends Object {
                Unit print(Str msg) { unit; }
                Unit fail(Str msg) { unit; }
            }
            main {
                let sys = new Sys();
                sys.print("hello");
                sys.print("world");
            }
        "#;
        let outcome = run_src(src);
        assert!(outcome.succeeded());
        assert_eq!(outcome.output, vec!["hello", "world"]);
    }

    #[test]
    fn sys_fail_raises_but_keeps_trace() {
        let src = r#"
            class Sys extends Object {
                Unit print(Str msg) { unit; }
                Unit fail(Str msg) { unit; }
            }
            class W extends Object {
                Int x;
                Unit work(Sys sys) {
                    this.x = 1;
                    sys.fail("query compilation error");
                    this.x = 2;
                }
            }
            main {
                let sys = new Sys();
                let w = new W(0);
                w.work(sys);
            }
        "#;
        let outcome = run_src(src);
        assert!(matches!(outcome.result, Err(RuntimeError::Raised { .. })));
        // The trace contains the first set but not the second.
        let sets: Vec<&str> = outcome
            .trace
            .iter()
            .filter_map(|e| match &e.event {
                Event::Set { value, .. } => Some(value.printed.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(sets, vec!["1"]);
    }

    #[test]
    fn while_loops_and_conditionals_evaluate() {
        let src = r#"
            class Acc extends Object {
                Int total;
                Unit add(Int v) { this.total = this.total + v; }
            }
            main {
                let acc = new Acc(0);
                let i = 0;
                while (acc.total < 10) {
                    acc.add(3);
                }
                if (acc.total == 12) { acc.add(100); } else { acc.add(1); }
            }
        "#;
        let outcome = run_src(src);
        assert!(outcome.succeeded());
        let last_set = outcome
            .trace
            .iter()
            .filter_map(|e| match &e.event {
                Event::Set { value, .. } => Some(value.printed.clone()),
                _ => None,
            })
            .next_back()
            .unwrap();
        // 0 → 3 → 6 → 9 → 12 in the loop, then the then-branch adds 100.
        assert_eq!(last_set, "112");
    }

    #[test]
    fn runtime_errors_are_reported() {
        let null_deref = run_src(
            r#"
            class A extends Object { A next; Unit go() { this.next.go(); } }
            main { new A(null).go(); }
        "#,
        );
        assert!(matches!(
            null_deref.result,
            Err(RuntimeError::NullDereference { .. })
        ));

        let div_zero = run_src("main { 1 / 0; }");
        assert_eq!(div_zero.result, Err(RuntimeError::DivisionByZero));
    }

    #[test]
    fn infinite_loops_hit_the_loop_limit() {
        let program = parse_program("main { while (true) { 1 + 1; } }").unwrap();
        let config = VmConfig::default().with_max_steps(1_000_000);
        let outcome = run_traced(&program, TraceMeta::default(), config).expect("validates");
        assert!(matches!(
            outcome.result,
            Err(RuntimeError::LoopLimitExceeded { .. })
                | Err(RuntimeError::StepLimitExceeded { .. })
        ));
    }

    #[test]
    fn spawned_threads_interleave_and_complete() {
        let src = r#"
            class Worker extends Object {
                Int id;
                Int done;
                Unit work() {
                    let i = 0;
                    while (i < 20) {
                        this.done = this.done + 1;
                        i = i + 1;
                    }
                }
            }
            main {
                let a = new Worker(1, 0);
                let b = new Worker(2, 0);
                spawn { a.work(); }
                spawn { b.work(); }
                let i = 0;
                while (i < 20) { i = i + 1; a.id; }
            }
        "#;
        // `i = i + 1` is invalid (assignment to non-field); rewrite with field counters.
        let src = src
            .replace("i = i + 1; a.id;", "a.id;")
            .replace("i = i + 1;", "this.done; ");
        let _ = src;
        let src2 = r#"
            class Worker extends Object {
                Int id;
                Int done;
                Unit work() {
                    let guard = new Guard(0);
                    while (guard.i < 20) {
                        this.done = this.done + 1;
                        guard.i = guard.i + 1;
                    }
                }
            }
            class Guard extends Object { Int i; }
            main {
                let a = new Worker(1, 0);
                let b = new Worker(2, 0);
                spawn { a.work(); }
                spawn { b.work(); }
                let g = new Guard(0);
                while (g.i < 20) { g.i = g.i + 1; }
            }
        "#;
        let program = parse_program(src2).unwrap();
        let config = VmConfig::default().with_quantum(4);
        let outcome = run_traced(&program, TraceMeta::default(), config).unwrap();
        assert!(outcome.succeeded(), "outcome: {:?}", outcome.result);
        assert_eq!(outcome.stats.threads_spawned, 2);

        let tids = outcome.trace.thread_ids();
        assert_eq!(tids.len(), 3, "expected three threads in the trace");

        // Fork events precede any event of the spawned thread.
        for tid in &tids[1..] {
            let fork_pos = outcome
                .trace
                .iter()
                .position(|e| matches!(&e.event, Event::Fork { child, .. } if child == tid));
            let first_event_pos = outcome.trace.iter().position(|e| e.tid == *tid);
            if let (Some(f), Some(s)) = (fork_pos, first_event_pos) {
                assert!(f < s, "fork of {tid} must precede its first event");
            }
        }

        // With a small quantum the worker threads' events interleave in the global trace.
        let seq: Vec<u64> = outcome.trace.iter().map(|e| e.tid.0).collect();
        let first_t1 = seq.iter().position(|t| *t == 1).unwrap();
        let last_t0 = seq.iter().rposition(|t| *t == 0).unwrap();
        assert!(
            first_t1 < last_t0,
            "expected child thread events interleaved before the main thread finished"
        );

        // Determinism across runs, including the interleaving.
        let again = run_traced(
            &parse_program(src2).unwrap(),
            TraceMeta::default(),
            VmConfig::default().with_quantum(4),
        )
        .unwrap();
        let seq2: Vec<u64> = again.trace.iter().map(|e| e.tid.0).collect();
        assert_eq!(seq, seq2);
    }

    #[test]
    fn thread_errors_surface_in_the_result() {
        let src = r#"
            main {
                spawn { 1 / 0; }
                1 + 1;
            }
        "#;
        let outcome = run_src(src);
        assert!(matches!(
            outcome.result,
            Err(RuntimeError::ThreadFailed { .. })
        ));
    }

    #[test]
    fn filters_suppress_events() {
        let program = parse_program(COUNTER).unwrap();
        let config = VmConfig::default()
            .with_filter(crate::filter::TraceFilter::record_all().exclude_class("Counter"));
        let outcome = run_traced(&program, TraceMeta::default(), config).unwrap();
        assert!(outcome.stats.events_filtered > 0);
        assert!(outcome.trace.iter().all(|e| e
            .event
            .target_object()
            .map(|o| o.class != "Counter")
            .unwrap_or(true)));
    }

    #[test]
    fn stats_are_collected() {
        let outcome = run_src(COUNTER);
        assert!(outcome.stats.steps > 10);
        assert_eq!(outcome.stats.objects_allocated, 1);
        assert_eq!(outcome.stats.events_recorded, outcome.trace.len() as u64);
        assert!(outcome.stats.max_stack_depth >= 2);
    }

    #[test]
    fn prim_init_events_can_be_enabled() {
        let program = parse_program("main { 1 + 2; }").unwrap();
        let config = VmConfig {
            trace_prim_init: true,
            ..VmConfig::default()
        };
        let outcome = run_traced(&program, TraceMeta::default(), config).unwrap();
        let inits = outcome
            .trace
            .iter()
            .filter(|e| matches!(e.event, Event::Init { .. }))
            .count();
        assert_eq!(inits, 2);
    }
}
