//! Deterministic fault injection for I/O paths — the test shim behind the
//! crash/corruption/overload resilience suites.
//!
//! Real systems meet torn writes, `EINTR`, short reads, flipped bits and dropped
//! connections; none of those occur on a healthy CI box, so resilience claims are
//! untestable without a way to *manufacture* them on demand. This module provides
//! that manufacture, deterministically:
//!
//! * [`FaultPlan`] — a shared, seeded schedule of faults. Faults are addressed by
//!   **site** (a caller-chosen string naming one I/O operation class, e.g.
//!   `"stage:write"` or `"conn:read"`) and the zero-based count of operations at
//!   that site, so "fail the 3rd write of the staging file" is one rule, replayable
//!   forever. A plan can also make seeded pseudo-random decisions ([`FaultPlan::chance`])
//!   for workloads that want a *rate* of faults rather than a fixed script — the seed
//!   makes even those runs reproducible.
//! * [`FaultyStream`] — wraps any `Read`/`Write` and consults the plan before every
//!   operation: injected errors, one-shot `EINTR`/`WouldBlock`, short reads/writes
//!   (genuinely partial, exactly like a socket under pressure), and byte corruption
//!   on the data actually transferred.
//!
//! Everything here is `std`-only and deliberately *outside* any hot path: production
//! code never links a plan; the shims are constructed only by tests and harnesses
//! (the repository's `RepoFs` fault layer and the chaos suites in `rprism-server`).
//!
//! The plan is `Clone` + `Send + Sync` (internally an `Arc`): hand the same plan to
//! a wrapped stream and to the asserting test, and the test can read back what was
//! injected ([`FaultPlan::injected`]) to decide what invariant must now hold.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

/// One fault to inject at a matching operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation with an `io::Error` of this kind, transferring nothing.
    Error(std::io::ErrorKind),
    /// Transfer at most this many bytes (a genuine short read/write — the caller
    /// sees a partial transfer, exactly as sockets and signal-interrupted syscalls
    /// deliver them). `Short(0)` on a read reports end-of-stream.
    Short(usize),
    /// Fail once with `io::ErrorKind::Interrupted` (`EINTR`) — correct callers
    /// retry these transparently.
    Interrupt,
    /// Fail once with `io::ErrorKind::WouldBlock`, as a non-blocking socket under
    /// pressure would.
    WouldBlock,
    /// Transfer the full buffer but XOR the byte at `index` (modulo the transfer
    /// length) with `mask` — silent data corruption in flight.
    Corrupt {
        /// Byte position within the transferred buffer (taken modulo its length).
        index: usize,
        /// XOR mask applied to that byte; a zero mask corrupts nothing.
        mask: u8,
    },
}

/// One scheduled fault: at the `at`-th operation (zero-based) of the named site,
/// inject `fault`. With `sticky`, every operation from `at` onward faults — the
/// "disk went away and stayed away" shape; without it, the fault fires once.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// The site the rule applies to (exact match).
    pub site: String,
    /// Zero-based operation index at that site.
    pub at: u64,
    /// What to inject.
    pub fault: Fault,
    /// Whether the fault repeats for every later operation at the site.
    pub sticky: bool,
}

/// A record of one injected fault, for post-hoc assertions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that faulted.
    pub site: String,
    /// The operation index at which it faulted.
    pub at: u64,
    /// The fault injected.
    pub fault: Fault,
}

#[derive(Debug, Default)]
struct PlanState {
    rules: Vec<FaultRule>,
    counts: HashMap<String, u64>,
    injected: Vec<InjectedFault>,
    rng: u64,
}

/// A shared, seeded, schedule-driven fault plan (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    state: Arc<Mutex<PlanState>>,
}

impl FaultPlan {
    /// An empty plan: no scheduled faults, seed 0. Useful as a pass-through.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// An empty plan with a seed for [`FaultPlan::chance`]/[`FaultPlan::pick`]
    /// decisions. A zero seed is mapped to a fixed non-zero constant (the xorshift
    /// generator has a fixed point at zero).
    pub fn seeded(seed: u64) -> Self {
        let plan = FaultPlan::new();
        plan.state.lock().expect("fault plan poisoned").rng = if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        };
        plan
    }

    /// Adds a rule; returns `self` for chaining.
    #[must_use]
    pub fn with_rule(self, rule: FaultRule) -> Self {
        self.state
            .lock()
            .expect("fault plan poisoned")
            .rules
            .push(rule);
        self
    }

    /// Shorthand: fail the `at`-th operation of `site` once with `fault`.
    #[must_use]
    pub fn fail_at(self, site: impl Into<String>, at: u64, fault: Fault) -> Self {
        self.with_rule(FaultRule {
            site: site.into(),
            at,
            fault,
            sticky: false,
        })
    }

    /// Shorthand: fail every operation of `site` from `at` onward with `fault`.
    #[must_use]
    pub fn fail_from(self, site: impl Into<String>, at: u64, fault: Fault) -> Self {
        self.with_rule(FaultRule {
            site: site.into(),
            at,
            fault,
            sticky: true,
        })
    }

    /// Consults the plan for the next operation at `site`: advances the site's
    /// operation counter and returns the fault to inject, if any. Instrumented
    /// wrappers call this once per operation; tests rarely need it directly.
    pub fn next(&self, site: &str) -> Option<Fault> {
        let mut state = self.state.lock().expect("fault plan poisoned");
        let count = state.counts.entry(site.to_string()).or_insert(0);
        let at = *count;
        *count += 1;
        let fault = state
            .rules
            .iter()
            .find(|rule| rule.site == site && (rule.at == at || (rule.sticky && at >= rule.at)))
            .map(|rule| rule.fault.clone());
        if let Some(fault) = fault.clone() {
            state.injected.push(InjectedFault {
                site: site.to_string(),
                at,
                fault,
            });
        }
        fault
    }

    /// A seeded pseudo-random yes/no with probability `percent`/100 — for harnesses
    /// that inject at a *rate* (e.g. "drop 20% of connections"). Deterministic for a
    /// given seed and call sequence.
    pub fn chance(&self, percent: u32) -> bool {
        (self.pick(100)) < u64::from(percent)
    }

    /// A seeded pseudo-random value in `0..bound` (`bound` 0 yields 0).
    pub fn pick(&self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        let mut state = self.state.lock().expect("fault plan poisoned");
        // xorshift64*; the seed is guaranteed non-zero by `seeded`.
        let mut x = if state.rng == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            state.rng
        };
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
    }

    /// How many operations the plan has seen at `site`.
    pub fn operations(&self, site: &str) -> u64 {
        self.state
            .lock()
            .expect("fault plan poisoned")
            .counts
            .get(site)
            .copied()
            .unwrap_or(0)
    }

    /// Every fault injected so far, in order.
    pub fn injected(&self) -> Vec<InjectedFault> {
        self.state
            .lock()
            .expect("fault plan poisoned")
            .injected
            .clone()
    }
}

fn fault_error(kind: std::io::ErrorKind) -> std::io::Error {
    std::io::Error::new(kind, "injected fault")
}

/// A `Read`/`Write` wrapper that injects the plan's faults (see the module docs).
///
/// Reads consult the site `"<site>:read"`, writes `"<site>:write"`, flushes
/// `"<site>:flush"` — so one stream's directions can be faulted independently.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    plan: FaultPlan,
    read_site: String,
    write_site: String,
    flush_site: String,
}

impl<S> FaultyStream<S> {
    /// Wraps `inner`, addressing faults under `site` (`"<site>:read"` /
    /// `"<site>:write"` / `"<site>:flush"`).
    pub fn new(inner: S, plan: FaultPlan, site: &str) -> Self {
        FaultyStream {
            inner,
            plan,
            read_site: format!("{site}:read"),
            write_site: format!("{site}:write"),
            flush_site: format!("{site}:flush"),
        }
    }

    /// The wrapped stream.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The plan this stream consults.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.plan.next(&self.read_site) {
            None => self.inner.read(buf),
            Some(Fault::Error(kind)) => Err(fault_error(kind)),
            Some(Fault::Interrupt) => Err(fault_error(std::io::ErrorKind::Interrupted)),
            Some(Fault::WouldBlock) => Err(fault_error(std::io::ErrorKind::WouldBlock)),
            Some(Fault::Short(n)) => {
                let n = n.min(buf.len());
                self.inner.read(&mut buf[..n])
            }
            Some(Fault::Corrupt { index, mask }) => {
                let n = self.inner.read(buf)?;
                if n > 0 {
                    buf[index % n] ^= mask;
                }
                Ok(n)
            }
        }
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.plan.next(&self.write_site) {
            None => self.inner.write(buf),
            Some(Fault::Error(kind)) => Err(fault_error(kind)),
            Some(Fault::Interrupt) => Err(fault_error(std::io::ErrorKind::Interrupted)),
            Some(Fault::WouldBlock) => Err(fault_error(std::io::ErrorKind::WouldBlock)),
            Some(Fault::Short(n)) => {
                // A zero-length write reports Ok(0); `write_all` callers turn that
                // into WriteZero, which is exactly the "disk full mid-write" shape.
                let n = n.min(buf.len());
                self.inner.write(&buf[..n])
            }
            Some(Fault::Corrupt { index, mask }) => {
                if buf.is_empty() {
                    return self.inner.write(buf);
                }
                let mut corrupted = buf.to_vec();
                let at = index % corrupted.len();
                corrupted[at] ^= mask;
                // The whole corrupted buffer must go out in one call: a partial
                // write here could double-corrupt on the caller's retry.
                self.inner.write_all(&corrupted)?;
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self.plan.next(&self.flush_site) {
            None => self.inner.flush(),
            Some(Fault::Error(kind)) => Err(fault_error(kind)),
            Some(Fault::Interrupt) => Err(fault_error(std::io::ErrorKind::Interrupted)),
            Some(Fault::WouldBlock) => Err(fault_error(std::io::ErrorKind::WouldBlock)),
            Some(Fault::Short(_)) | Some(Fault::Corrupt { .. }) => self.inner.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_faults_fire_at_their_operation_index() {
        let plan = FaultPlan::new()
            .fail_at("s", 1, Fault::Interrupt)
            .fail_from("s", 3, Fault::Error(std::io::ErrorKind::Other));
        assert_eq!(plan.next("s"), None);
        assert_eq!(plan.next("s"), Some(Fault::Interrupt));
        assert_eq!(plan.next("s"), None);
        assert_eq!(
            plan.next("s"),
            Some(Fault::Error(std::io::ErrorKind::Other))
        );
        assert_eq!(
            plan.next("s"),
            Some(Fault::Error(std::io::ErrorKind::Other))
        );
        // Other sites are unaffected.
        assert_eq!(plan.next("t"), None);
        assert_eq!(plan.operations("s"), 5);
        assert_eq!(plan.injected().len(), 3);
    }

    #[test]
    fn short_reads_and_interrupts_are_survivable_by_correct_callers() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let plan = FaultPlan::new()
            .fail_at("in:read", 0, Fault::Short(3))
            .fail_at("in:read", 1, Fault::Interrupt)
            .fail_at("in:read", 3, Fault::Short(1))
            .fail_at("in:read", 5, Fault::WouldBlock);
        let mut stream = FaultyStream::new(data.as_slice(), plan, "in");
        // A retry-on-Interrupted/WouldBlock loop (what robust readers do) must see
        // every byte exactly once despite the injected turbulence.
        let mut out = Vec::new();
        let mut buf = [0u8; 16];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::Interrupted
                        || e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(out, data);
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let data = vec![0u8; 8];
        let plan = FaultPlan::new().fail_at(
            "in:read",
            0,
            Fault::Corrupt {
                index: 3,
                mask: 0x80,
            },
        );
        let mut stream = FaultyStream::new(data.as_slice(), plan, "in");
        let mut buf = [0u8; 8];
        stream.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0, 0x80, 0, 0, 0, 0]);
    }

    #[test]
    fn write_faults_surface_as_errors_or_partial_writes() {
        let plan = FaultPlan::new()
            .fail_at("out:write", 0, Fault::Short(2))
            .fail_at("out:write", 1, Fault::Error(std::io::ErrorKind::BrokenPipe));
        let mut stream = FaultyStream::new(Vec::new(), plan, "out");
        assert_eq!(stream.write(b"hello").unwrap(), 2);
        assert_eq!(
            stream.write(b"llo").unwrap_err().kind(),
            std::io::ErrorKind::BrokenPipe
        );
        assert_eq!(stream.into_inner(), b"he");
    }

    #[test]
    fn seeded_decisions_are_deterministic() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        let seq_a: Vec<bool> = (0..64).map(|_| a.chance(20)).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.chance(20)).collect();
        assert_eq!(seq_a, seq_b);
        let hits = seq_a.iter().filter(|&&h| h).count();
        // ~20% of 64 with generous slack: the point is the rate is neither 0 nor 1.
        assert!((4..=28).contains(&hits), "got {hits}/64 hits");
    }
}
