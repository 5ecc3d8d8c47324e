//! The self-tracing loop closed end to end: a multithreaded burst of nested spans
//! recorded into an enabled `rprism-obs` domain becomes a trace on the ordinary
//! trace model, which must survive the same pipeline as any user trace — the
//! semantic lint rules, binary serialization, and the engine's streaming ingest.

use rprism::{Engine, PreparedTrace};
use rprism_obs::Obs;

/// A workload shaped like the server's own execution: several worker threads,
/// each handling "requests" that nest repository and pipeline spans, racing with
/// a main thread doing the same.
fn record_workload(obs: &Obs) {
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let obs = obs.clone();
            scope.spawn(move || {
                for request in 0..8 {
                    let _request = obs.span("request.diff");
                    {
                        let _get = obs.span("repo.get");
                        std::hint::black_box(worker * request);
                    }
                    let _scan = obs.span("pipeline.scan");
                }
            });
        }
        for _ in 0..4 {
            let _load = obs.span("engine.load");
            let _inner = obs.span("pipeline.decode");
        }
    });
    obs.counter("server.requests_total").add(32);
}

#[test]
fn self_trace_round_trips_through_the_engine_and_checks_clean() {
    let obs = Obs::enabled();
    record_workload(&obs);

    let trace = obs.self_trace("rprism-selftest");
    assert_eq!(trace.meta.name, "rprism-selftest");
    assert!(!trace.is_empty(), "the workload must have recorded spans");

    // The self-trace is a first-class trace: every semantic well-formedness rule
    // (call nesting, thread interleavings, object lifecycle) must hold, at the
    // strictness `rprism check --deny error` enforces.
    let direct = rprism_check::check_trace(&trace);
    assert!(
        direct.is_clean(),
        "self-trace must lint clean, got:\n{direct:?}"
    );

    // Round trip: canonical binary bytes → the engine's one-pass streaming
    // ingest (the same path `rprism remote obs-trace` output goes through).
    let bytes = rprism_format::trace_to_bytes(&trace, rprism_format::Encoding::Binary)
        .expect("self-trace serializes");
    let engine = Engine::new();
    let handle = engine
        .load_prepared_reader(&bytes[..])
        .expect("self-trace streams through load_prepared_reader");
    assert_eq!(handle.meta().name, "rprism-selftest");

    let streamed = engine
        .check_reader(&bytes[..])
        .expect("self-trace streams through check");
    assert!(streamed.is_clean(), "streamed check found: {streamed:?}");
    assert_eq!(streamed.entries, trace.len());

    // And it is diffable against itself — the degenerate sanity of "a server
    // execution can be compared run over run".
    let decoded = rprism_format::trace_from_bytes(&bytes).expect("decode");
    assert_eq!(decoded, trace, "binary round trip must be exact");
    let left = PreparedTrace::new(decoded);
    let right = PreparedTrace::new(trace);
    let diff = engine.diff(&left, &right).expect("views never fails");
    assert_eq!(
        diff.num_differences(),
        0,
        "a trace must diff clean vs itself"
    );
}
