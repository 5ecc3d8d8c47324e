//! Fault-injection conformance for the trace format and the frame layer: the readers
//! and writers must treat an unreliable byte stream as a first-class input.
//!
//! Three claims, each pinned here:
//!
//! 1. **Benign turbulence is invisible.** Short reads, `EINTR` and (for retrying
//!    callers) `WouldBlock` do not change what a stream decodes to — both encodings,
//!    through both the direct readers and the sniffing [`TraceReader`].
//! 2. **Damage is a value, never a panic or a hang.** Injected corruption and
//!    mid-stream failures surface as structured [`FormatError`]s.
//! 3. **Writers propagate failure.** A write that fails mid-stream yields `Err`, and
//!    what was flushed before the fault reads back as truncated, not as a valid
//!    shorter trace (binary encoding — its footer is the commit point).

use rprism_format::fault::{Fault, FaultPlan, FaultyStream};
use rprism_format::frame::{read_frame, write_frame};
use rprism_format::{trace_to_bytes, Encoding, FormatError, TraceReader, TraceWriter};
use rprism_trace::testgen::{arbitrary_trace, Rng};
use rprism_trace::Trace;
use std::io::BufReader;

fn sample_trace(seed: u64, len: usize) -> Trace {
    let mut rng = Rng::new(seed);
    arbitrary_trace(&mut rng, len)
}

/// A plan that peppers every read with turbulence a correct reader must absorb:
/// interrupts and short reads on a periodic schedule.
fn turbulent_plan(period: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for k in 0..2048 {
        let at = k * period;
        plan = match k % 3 {
            0 => plan.fail_at("in:read", at, Fault::Interrupt),
            1 => plan.fail_at("in:read", at + 1, Fault::Short(1)),
            _ => plan.fail_at("in:read", at + 2, Fault::Short(3)),
        };
    }
    plan
}

#[test]
fn eintr_and_short_reads_do_not_change_what_a_stream_decodes_to() {
    let trace = sample_trace(0xfa01, 120);
    for encoding in [Encoding::Binary, Encoding::Jsonl] {
        let bytes = trace_to_bytes(&trace, encoding).unwrap();
        for period in [2, 5, 17] {
            let plan = turbulent_plan(period);
            let stream = FaultyStream::new(bytes.as_slice(), plan.clone(), "in");
            // A tiny BufReader capacity forces the turbulence through to the
            // decoding layers instead of being absorbed by one big fill.
            let reader =
                TraceReader::new(BufReader::with_capacity(7, stream)).expect("open under faults");
            let decoded = reader.into_trace().expect("decode under faults");
            assert_eq!(decoded, trace, "{encoding} trace drifted (period {period})");
            assert!(
                !plan.injected().is_empty(),
                "the plan must actually have fired"
            );
        }
    }
}

#[test]
fn injected_corruption_is_a_structured_error_never_a_panic() {
    let trace = sample_trace(0xfa02, 80);
    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    // Corrupt one byte of each successive read operation, sweeping the stream. The
    // invariant is *no silent damage*: a run either errors (checksum/framing caught
    // the flip) or decodes to exactly the original trace (the fault landed on a
    // zero-length read or never fired — buffered readers coalesce operations).
    let mut caught = 0;
    for op in 0..32 {
        let plan = FaultPlan::new().fail_at(
            "in:read",
            op,
            Fault::Corrupt {
                index: op as usize,
                mask: 0x10 | (op as u8 & 0x0f),
            },
        );
        let stream = FaultyStream::new(bytes.as_slice(), plan.clone(), "in");
        let outcome =
            TraceReader::new(BufReader::with_capacity(64, stream)).and_then(|r| r.into_trace());
        match outcome {
            Err(_) => caught += 1,
            Ok(decoded) => assert_eq!(decoded, trace, "read op {op}: silent corruption"),
        }
    }
    assert!(
        caught > 0,
        "the sweep must land at least one effective flip"
    );
}

#[test]
fn mid_stream_read_failure_surfaces_as_io_error() {
    let trace = sample_trace(0xfa03, 60);
    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    let plan = FaultPlan::new().fail_from("in:read", 1, Fault::Error(std::io::ErrorKind::Other));
    let stream = FaultyStream::new(bytes.as_slice(), plan, "in");
    let outcome =
        TraceReader::new(BufReader::with_capacity(16, stream)).and_then(|r| r.into_trace());
    assert!(matches!(outcome, Err(FormatError::Io(_))));
}

#[test]
fn failed_writes_propagate_and_partial_output_reads_back_truncated() {
    let trace = sample_trace(0xfa04, 100);
    // Sweep the failing write op from the header outward. Every run must (a) error
    // out of the writer, and (b) leave partial bytes that never decode as a valid
    // shorter trace.
    for fail_at in 0..24u64 {
        let plan = FaultPlan::new().fail_from(
            "out:write",
            fail_at,
            Fault::Error(std::io::ErrorKind::WriteZero),
        );
        let sink = FaultyStream::new(Vec::new(), plan, "out");
        let outcome = (|| -> Result<Vec<u8>, FormatError> {
            let mut writer = TraceWriter::new(sink, &trace.meta, Encoding::Binary)?;
            for entry in &trace {
                writer.write_entry(entry)?;
            }
            Ok(writer.finish()?.into_inner())
        })();
        assert!(outcome.is_err(), "write failing at op {fail_at} must error");
    }
    // And a *short* write schedule (no hard error) must still produce a correct
    // stream: writers go through `write_all`, which completes partial transfers.
    let mut plan = FaultPlan::new();
    for k in 0..512 {
        plan = plan.fail_at("out:write", k * 3, Fault::Short(2));
    }
    let sink = FaultyStream::new(Vec::new(), plan, "out");
    let mut writer = TraceWriter::new(sink, &trace.meta, Encoding::Binary).unwrap();
    for entry in &trace {
        writer.write_entry(entry).unwrap();
    }
    let written = writer.finish().unwrap().into_inner();
    assert_eq!(written, trace_to_bytes(&trace, Encoding::Binary).unwrap());
}

#[test]
fn frames_survive_turbulence_and_reject_in_flight_corruption() {
    let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 64 * i as usize + 1]).collect();
    let mut stream_bytes = Vec::new();
    for payload in &payloads {
        write_frame(&mut stream_bytes, payload).unwrap();
    }

    // Turbulence: every frame still arrives intact.
    let plan = turbulent_plan(3);
    let mut stream = FaultyStream::new(stream_bytes.as_slice(), plan, "in");
    for payload in &payloads {
        // read_frame retries Interrupted internally; WouldBlock is not injected here
        // because a blocking-socket frame read treats it as a timeout by design.
        assert_eq!(&read_frame(&mut stream, 1 << 16).unwrap().unwrap(), payload);
    }
    assert!(read_frame(&mut stream, 1 << 16).unwrap().is_none());

    // Corruption anywhere in a frame is caught by its checksum (or its framing).
    for op in 0..16 {
        let plan = FaultPlan::new().fail_at(
            "in:read",
            op,
            Fault::Corrupt {
                index: 1 + op as usize,
                mask: 0x20,
            },
        );
        let mut stream = FaultyStream::new(stream_bytes.as_slice(), plan.clone(), "in");
        let mut saw_error = false;
        loop {
            match read_frame(&mut stream, 1 << 16) {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(_) => {
                    saw_error = true;
                    break;
                }
            }
        }
        // The fault targets read op `op`; if the stream had fewer ops the plan never
        // fired and a clean run is correct.
        assert!(
            saw_error || plan.injected().is_empty(),
            "corrupted read op {op} slipped through"
        );
    }

    // A connection cut mid-frame is truncation, not a hang or a panic.
    let plan = FaultPlan::new().fail_from("in:read", 2, Fault::Short(0));
    let mut stream = FaultyStream::new(stream_bytes.as_slice(), plan, "in");
    let mut outcome = Ok(None);
    for _ in 0..payloads.len() {
        outcome = read_frame(&mut stream, 1 << 16);
        if outcome.is_err() {
            break;
        }
    }
    assert!(matches!(outcome, Err(FormatError::Truncated { .. })));
}
