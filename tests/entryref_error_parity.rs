//! Damaged input fails the same way on every ingest path.
//!
//! Every binary read is one id-level walk of the record grammar with a different sink:
//! owned entries behind `trace_from_bytes`, symbols behind load, check and watch, and
//! the layout check behind `content_summary`. On every cut and every `0x01`, `0xff`
//! and `0x80` xor of one pinned binary trace, and of one short trace per generator
//! profile (seed printed; replay with `RPRISM_FUZZ_SEED=<n>`), the prepared load, the
//! streaming check, the content summary and a drip-fed tail decoder (owned entries
//! and symbols) must each fail with exactly the error `trace_from_bytes` reports — or
//! succeed where it does, the drip-fed entries equal to its trace.

use rprism::Engine;
use rprism_format::{
    content_summary, trace_from_bytes, trace_to_bytes, Encoding, FormatError, TailBatch,
    TailDecoder,
};
use rprism_trace::testgen::{arbitrary_trace, fuzz_seed, GenProfile, Rng};
use rprism_trace::{EntryBatch, TraceEntry};

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

/// Entries per generated trace; the adversarial profiles raise it to what their
/// defect needs.
const SHORT: usize = 8;

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

/// [`drip_fed`] through the owned-entry batches, keeping every entry.
fn drip_fed_entries(bytes: &[u8], chunk: usize) -> Result<Vec<TraceEntry>, String> {
    let mut decoder = TailDecoder::new();
    let mut entries = Vec::new();
    let mut batch = Vec::new();
    for piece in bytes.chunks(chunk) {
        outcome(decoder.push_bytes(piece))?;
        while let TailBatch::Entries(_) = decoder
            .read_batch(&mut batch, 256)
            .map_err(|e| format!("{e:?}"))?
        {
            entries.append(&mut batch);
        }
    }
    outcome(decoder.finish(&mut entries))?;
    Ok(entries)
}

fn assert_parity(engine: &Engine, bytes: &[u8], case: &str) {
    let decoded = trace_from_bytes(bytes)
        .map(|trace| trace.entries)
        .map_err(|e| format!("{e:?}"));
    let expected = decoded.as_ref().map(|_| ()).map_err(String::clone);
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
    assert_eq!(
        outcome(content_summary(bytes)),
        expected,
        "{case}: content_summary"
    );
    assert_eq!(drip_fed(bytes, DRIP), expected, "{case}: tail decoder");
    assert_eq!(
        drip_fed_entries(bytes, DRIP),
        decoded,
        "{case}: owned tail decoder"
    );
}

/// The intact stream, every cut of it, and every byte under each xor mask.
fn sweep(engine: &Engine, bytes: &[u8], name: &str) {
    assert_parity(engine, bytes, &format!("{name}: intact"));
    for len in 0..bytes.len() {
        assert_parity(engine, &bytes[..len], &format!("{name}: cut at {len}"));
    }
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0xff, 0x80] {
            let mut damaged = bytes.to_vec();
            damaged[at] ^= mask;
            assert_parity(
                engine,
                &damaged,
                &format!("{name}: xor {mask:#04x} at {at}"),
            );
        }
    }
}

#[test]
fn every_cut_and_flip_fails_alike_on_every_path() {
    let engine = Engine::new();
    let trace = arbitrary_trace(&mut Rng::new(0xd1a9), 40);
    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    sweep(&engine, &bytes, "pinned");
    let mut rng = Rng::new(fuzz_seed());
    for &profile in GenProfile::ALL {
        let trace = profile.generate(&mut rng, SHORT);
        let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
        sweep(&engine, &bytes, profile.as_str());
    }
}
