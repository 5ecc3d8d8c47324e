//! Damaged input fails the same way on every ingest path.
//!
//! The symbol-level decoder walks the record grammar on its own, next to the
//! `TraceEntry` decoder behind `trace_from_bytes`. On every cut and every `0x01`,
//! `0xff` and `0x80` xor of one pinned binary trace, the prepared load, the streaming
//! check and a drip-fed tail decoder must each fail
//! with exactly the error `trace_from_bytes` reports — or succeed where it does.

use rprism::Engine;
use rprism_format::{
    trace_from_bytes, trace_to_bytes, Encoding, FormatError, TailBatch, TailDecoder,
};
use rprism_trace::testgen::{arbitrary_trace, Rng};
use rprism_trace::EntryBatch;

/// `Ok(())` or the error's `Debug` rendering, for comparing outcomes across paths.
type Outcome = Result<(), String>;

fn outcome<T>(result: Result<T, FormatError>) -> Outcome {
    result.map(|_| ()).map_err(|e| format!("{e:?}"))
}

fn engine_outcome<T>(result: rprism::Result<T>) -> Outcome {
    match result {
        Ok(_) => Ok(()),
        Err(rprism::Error::Format(e)) => Err(format!("{e:?}")),
        Err(other) => panic!("a damaged stream failed outside the format layer: {other}"),
    }
}

/// Bytes per tail-decoder push: a prime, so pushes end at every offset within a
/// record across the sweep.
const DRIP: usize = 7;

/// The daemon's watch decode: `chunk`-sized pieces, every decodable batch drained,
/// then the strict finish.
fn drip_fed(bytes: &[u8], chunk: usize) -> Outcome {
    let mut decoder = TailDecoder::new();
    let mut batch = EntryBatch::new();
    for piece in bytes.chunks(chunk) {
        outcome(decoder.push_bytes(piece))?;
        while let TailBatch::Entries(_) = decoder
            .read_refs(&mut batch, 256)
            .map_err(|e| format!("{e:?}"))?
        {}
    }
    outcome(decoder.finish_refs(&mut batch))
}

fn assert_parity(engine: &Engine, bytes: &[u8], case: &str) {
    let expected = outcome(trace_from_bytes(bytes));
    assert_eq!(
        engine_outcome(engine.load_prepared_reader(bytes)),
        expected,
        "{case}: load_prepared_reader"
    );
    assert_eq!(
        engine_outcome(engine.check_reader(bytes)),
        expected,
        "{case}: check_reader"
    );
    assert_eq!(drip_fed(bytes, DRIP), expected, "{case}: tail decoder");
}

#[test]
fn every_cut_and_flip_fails_alike_on_every_path() {
    let engine = Engine::new();
    let trace = arbitrary_trace(&mut Rng::new(0xd1a9), 40);
    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    assert_parity(&engine, &bytes, "intact");
    for len in 0..bytes.len() {
        assert_parity(&engine, &bytes[..len], &format!("cut at {len}"));
    }
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0xff, 0x80] {
            let mut damaged = bytes.clone();
            damaged[at] ^= mask;
            assert_parity(&engine, &damaged, &format!("xor {mask:#04x} at {at}"));
        }
    }
}
