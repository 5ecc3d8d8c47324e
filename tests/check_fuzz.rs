//! Adversarial-input conformance for the streaming check path: whatever the bytes,
//! `Engine::check_reader` returns a report or a structured format error — never a
//! panic, never silent damage, never a hang.
//!
//! Mirrors the fault-injection suite of `rprism-format`, pointed at the checker:
//! truncations at every prefix length, a bit-flip sweep across the stream, injected
//! read faults, and benign turbulence that must not change the report.

use rprism::Engine;
use rprism_format::fault::{Fault, FaultPlan, FaultyStream};
use rprism_format::{trace_to_bytes, Encoding};
use rprism_trace::testgen::{GenProfile, Rng};

fn sample_bytes(encoding: Encoding) -> Vec<u8> {
    let trace = GenProfile::WellFormed.generate(&mut Rng::new(0xc0ffee), 48);
    trace_to_bytes(&trace, encoding).unwrap()
}

#[test]
fn every_truncation_is_a_report_or_a_structured_error() {
    let engine = Engine::new();
    for encoding in [Encoding::Binary, Encoding::Jsonl] {
        let bytes = sample_bytes(encoding);
        for len in 0..bytes.len() {
            // Either outcome is acceptable — JSONL has no footer, so a prefix can be
            // a valid shorter trace — but the call must return, not panic.
            let _ = engine.check_reader(&bytes[..len]);
        }
    }
}

#[test]
fn single_byte_flips_are_a_report_or_a_structured_error() {
    let engine = Engine::new();
    // Stride the flip position with coprime steps so repeated runs of the sweep
    // cover every byte class (header, entries, footer) without the quadratic cost
    // of flipping literally every offset of every encoding.
    for encoding in [Encoding::Binary, Encoding::Jsonl] {
        let bytes = sample_bytes(encoding);
        for start in 0..3 {
            for at in (start..bytes.len()).step_by(3) {
                let mask = if at % 2 == 0 { 0x01u8 } else { 0x80 };
                let mut damaged = bytes.clone();
                damaged[at] ^= mask;
                let _ = engine.check_reader(&damaged[..]);
            }
        }
    }
}

#[test]
fn injected_read_faults_surface_as_errors_not_panics() {
    let engine = Engine::new();
    // A bigger trace than one window fill, so the faulted later reads actually
    // happen (op 0 is the first fill; failing from op 1 hits the stream mid-body).
    let trace = GenProfile::WellFormed.generate(&mut Rng::new(0xbad), 2_000);
    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    // A hard mid-stream I/O failure is an error.
    let plan = FaultPlan::new().fail_from("in:read", 1, Fault::Error(std::io::ErrorKind::Other));
    let stream = FaultyStream::new(bytes.as_slice(), plan, "in");
    assert!(engine.check_reader(stream).is_err());
    // A connection cut mid-stream (reads return 0 forever) is truncation, not a hang.
    let plan = FaultPlan::new().fail_from("in:read", 1, Fault::Short(0));
    let stream = FaultyStream::new(bytes.as_slice(), plan, "in");
    assert!(engine.check_reader(stream).is_err());
}

#[test]
fn benign_turbulence_does_not_change_the_report() {
    let engine = Engine::new();
    for encoding in [Encoding::Binary, Encoding::Jsonl] {
        let bytes = sample_bytes(encoding);
        let clean = engine.check_reader(&bytes[..]).unwrap();
        let mut plan = FaultPlan::new();
        for k in 0..2048u64 {
            plan = match k % 2 {
                0 => plan.fail_at("in:read", k * 3, Fault::Interrupt),
                _ => plan.fail_at("in:read", k * 3 + 1, Fault::Short(1)),
            };
        }
        let stream = FaultyStream::new(bytes.as_slice(), plan.clone(), "in");
        let turbulent = engine.check_reader(stream).unwrap();
        assert_eq!(
            turbulent, clean,
            "{encoding}: turbulence changed the report"
        );
        assert!(!plan.injected().is_empty(), "the plan must actually fire");
    }
}
