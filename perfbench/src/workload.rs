//! The closed-loop workloads: one client sends its next request only after the
//! reply to the previous one, as a developer at the CLI or a CI job does.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rprism::CheckReport;
use rprism_server::proto::{WireDiff, WireStats};
use rprism_server::{Client, WireAlgorithm};

use crate::cpu;
use crate::corpus::{cold_pair, Corpus, Stored, WarmOp, WarmOps, COLD_ENTRIES};
use crate::daemon::{Daemon, Flavor};
use crate::host::{self, HostSpeed};
use crate::oracle::{check_report, cold_refs, DiffRef, WarmRefs};
use crate::replay::{self, Mirror, Tracer};
use crate::MAX_SEQUENCES;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RemoteWarm,
    ColdIngest,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::RemoteWarm, Workload::ColdIngest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RemoteWarm => "remote-warm",
            Workload::ColdIngest => "cold-ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The daemon's configuration: the default `ServerConfig`, except that
    /// cold-ingest's prepared cache holds only about two of its pairs.
    pub fn flavor(self, obs_disabled: bool) -> Flavor {
        Flavor {
            cache_budget: (self == Workload::ColdIngest).then_some(COLD_CACHE_BUDGET),
            obs_disabled,
        }
    }
}

/// Cold-ingest's prepared-cache budget in blob bytes, 1.25 MiB: about two pairs
/// of `COLD_ENTRIES`-entry traces (~320 KB per side).
pub const COLD_CACHE_BUDGET: u64 = 5 << 18;

/// Bytes per watch chunk: a cold-ingest new side (~320 KB) streams in five
/// chunks, so the first chunk's reply already carries events.
pub const WATCH_CHUNK: usize = 64 << 10;

/// Everything a pass needs besides the daemon.
pub struct Ctx<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub corpus: &'a Corpus,
    pub refs: &'a WarmRefs,
}

/// One completed (or failed) operation.
pub struct Record {
    pub start: Instant,
    pub end: Instant,
    /// Process CPU time (ms) charged from the first request to the settled last
    /// reply: the client's and the daemon's work, without the host's steal.
    pub cpu_ms: f64,
    pub requests: u32,
    /// Per-kind request latencies (ms) inside the operation.
    pub parts: Vec<(&'static str, f64)>,
    pub error: Option<String>,
}

impl Record {
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Latency samples of a pass, kept compact: the benchmark's own memory is part
/// of the peak RSS it reports.
#[derive(Default)]
pub struct Samples {
    /// Every attempted operation's wall-clock latency (ms).
    pub op_ms: Vec<f64>,
    /// Every attempted operation's CPU time (ms).
    pub op_cpu_ms: Vec<f64>,
    /// Every attempted operation's CPU time at the nominal host speed (ms).
    pub op_norm_ms: Vec<f64>,
    /// Per-kind request latencies (ms) inside the successful operations.
    pub parts: BTreeMap<&'static str, Vec<f64>>,
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Samples {
    /// Adds an operation run right after a reference reading of `reference_ms`.
    fn add(&mut self, record: Record, reference_ms: f64) {
        self.op_ms.push(record.ms());
        self.op_cpu_ms.push(record.cpu_ms);
        self.op_norm_ms
            .push(host::normalized(record.cpu_ms, reference_ms));
        match record.error {
            Some(error) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(error);
                }
            }
            None => {
                for (kind, ms) in record.parts {
                    self.parts.entry(kind).or_default().push(ms);
                }
            }
        }
    }
}

/// The outcome of one pass: the client's samples, the traced spans (traced
/// passes only), and daemon statistics around the pass.
pub struct Pass {
    pub samples: Samples,
    /// Wall-clock seconds spent in operations.
    pub busy_s: f64,
    /// The reference readings the operations were normalized by (ms).
    pub reference_ms: Vec<f64>,
    /// The client's spans: one tracer in a traced pass, none otherwise.
    pub tracers: Vec<Tracer>,
    /// `Client::stats()` round trips (µs), traced passes only.
    pub rtt_us: Vec<f64>,
    pub stats: [WireStats; 2],
    pub metrics_text: String,
}

fn remote<T>(result: Result<T, rprism_server::ServerError>) -> Result<T, String> {
    result.map_err(|e| e.to_string())
}

/// Times one request; the reply is checked after the clock stops.
fn timed<T>(parts: &mut Vec<(&'static str, f64)>, kind: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    parts.push((kind, start.elapsed().as_secs_f64() * 1e3));
    out
}

fn warm_request(client: &mut Client, ctx: &Ctx, hashes: &[u64], op: WarmOp) -> Record {
    let (corpus, refs) = (ctx.corpus, ctx.refs);
    let mut parts = Vec::new();
    let start = Instant::now();
    let cpu_start = cpu::process_s();
    // Each arm sends its request and returns the check of the reply, which runs
    // after both clocks have stopped.
    type Verdict<'r> = Box<dyn FnOnce() -> Result<(), String> + 'r>;
    let verdict: Verdict = match op {
        WarmOp::Diff(p) => {
            let (l, r) = corpus.pairs[p];
            let got = timed(&mut parts, "diff", || {
                client.diff(hashes[l], hashes[r], MAX_SEQUENCES)
            });
            Box::new(move || remote(got).and_then(|d| refs.views[p].check(&d)))
        }
        WarmOp::Anchored(p) => {
            let (l, r) = corpus.pairs[p];
            let got = timed(&mut parts, "anchored", || {
                client.diff_with_algorithm(
                    hashes[l],
                    hashes[r],
                    MAX_SEQUENCES,
                    Some(WireAlgorithm::Anchored),
                )
            });
            Box::new(move || remote(got).and_then(|d| refs.anchored[p].check(&d)))
        }
        WarmOp::Analyze(q) => {
            let ([a, b, c, d], mode) = corpus.quads[q];
            let got = timed(&mut parts, "analyze", || {
                client.analyze(
                    [hashes[a], hashes[b], hashes[c], hashes[d]],
                    Some(mode),
                    MAX_SEQUENCES,
                )
            });
            Box::new(move || remote(got).and_then(|report| refs.analyses[q].check(&report)))
        }
        WarmOp::Check(i) => {
            let got = timed(&mut parts, "check", || client.check(hashes[i], &[]));
            Box::new(move || remote(got).and_then(|report| check_report(&refs.checks[i], &report)))
        }
    };
    // One request: the operation ends when its reply arrived, before the check.
    let end = start + Duration::from_secs_f64(parts[0].1 / 1e3);
    let cpu_ms = cpu::settled_since(cpu_start) * 1e3;
    Record {
        start,
        end,
        cpu_ms,
        requests: 1,
        parts,
        error: verdict().err(),
    }
}

/// One cold-ingest operation over a pair made (and referenced) beforehand: put
/// both sides, check the new one, diff the pair, then watch the new side's
/// bytes stream in against the stored old side.
fn cold_request(
    client: &mut Client,
    pair: &(Stored, Stored),
    want: &(CheckReport, DiffRef),
) -> Record {
    let (old, new) = pair;
    let uploads = [old.bytes.clone(), new.bytes.clone()];
    let mut parts = Vec::new();
    let start = Instant::now();
    let cpu_start = cpu::process_s();
    let answers = (|| {
        let [old_put, new_put] =
            uploads.map(|bytes| remote(timed(&mut parts, "put", || client.put_bytes(bytes))));
        let (old_put, new_put) = (old_put?, new_put?);
        let report = remote(timed(&mut parts, "check", || {
            client.check(new_put.hash, &[])
        }))?;
        let diff = remote(timed(&mut parts, "diff", || {
            client.diff(old_put.hash, new_put.hash, MAX_SEQUENCES)
        }))?;
        let watched = watch_session(client, old_put.hash, &new.bytes, &mut parts)?;
        Ok(([old_put, new_put], report, diff, watched))
    })();
    let end = Instant::now();
    let cpu_ms = cpu::settled_since(cpu_start) * 1e3;
    let verdict = answers.and_then(|(puts, report, diff, watched)| {
        for (put, stored) in puts.iter().zip([old, new]) {
            if put.deduped || put.entries != stored.trace.len() as u64 {
                return Err(format!(
                    "put answered {put:?} for a fresh {}-entry trace",
                    stored.trace.len()
                ));
            }
        }
        check_report(&want.0, &report)?;
        want.1.check(&diff)?;
        want.1.check(&watched)
    });
    Record {
        start,
        end,
        cpu_ms,
        requests: 5 + new.bytes.chunks(WATCH_CHUNK).count() as u32,
        parts,
        error: verdict.err(),
    }
}

/// A `remote watch` of `new_bytes` against the stored `old`, in `WATCH_CHUNK`
/// chunks. Records the session (`watch`), `first_event` (from `watch_start` to
/// the first reply carrying an event) and `verdict_lag` (from sending the last
/// chunk to `WatchDone`), and returns the final diff.
fn watch_session(
    client: &mut Client,
    old: u64,
    new_bytes: &[u8],
    parts: &mut Vec<(&'static str, f64)>,
) -> Result<WireDiff, String> {
    let start = Instant::now();
    remote(client.watch_start(old, MAX_SEQUENCES))?;
    let chunks: Vec<&[u8]> = new_bytes.chunks(WATCH_CHUNK).collect();
    let (last, body) = chunks.split_last().expect("a trace has bytes");
    let mut first_event = None;
    for chunk in body {
        let events = remote(client.watch_chunk(chunk.to_vec()))?;
        if first_event.is_none() && !events.is_empty() {
            first_event = Some(start.elapsed());
        }
    }
    let (events, diff) = remote(timed(parts, "verdict_lag", || {
        client.watch_finish(last.to_vec())
    }))?;
    let done = start.elapsed();
    let first_event = first_event.or((!events.is_empty()).then_some(done));
    let first_event = first_event.ok_or("the watch produced no event")?;
    parts.push(("first_event", first_event.as_secs_f64() * 1e3));
    parts.push(("watch", done.as_secs_f64() * 1e3));
    Ok(diff)
}

/// Runs one pass of `ctx.workload` against `daemon` for `seconds`. With a
/// mirror, every operation is followed by a `Client::stats()` round trip and
/// the replay of its layer calls.
pub fn run_pass(
    ctx: &Ctx,
    daemon: &Daemon,
    seconds: f64,
    mirror: Option<&Mirror>,
) -> Result<Pass, String> {
    let origin = Instant::now();
    let before = daemon.connect(99)?.stats().map_err(|e| e.to_string())?;
    let mut client = daemon.connect(0)?;
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pass = Pass {
        samples: Samples::default(),
        busy_s: 0.0,
        reference_ms: Vec::new(),
        tracers: Vec::new(),
        rtt_us: Vec::new(),
        stats: [before, WireStats::default()],
        metrics_text: String::new(),
    };
    let mut tracer = mirror.map(|_| Tracer::new(origin));
    let corpus = ctx.corpus;
    let mut warm_ops = WarmOps::new(ctx.seed, corpus);
    let mut speed = HostSpeed::default();
    for i in 0u64.. {
        if Instant::now() >= until {
            break;
        }
        // Inputs and oracle answers are made before the clock starts, then the
        // host speed is read; the replay closure re-runs the operation's server
        // path against the mirror.
        type Replay<'r> = Box<dyn FnOnce(&mut Tracer, &Mirror) + 'r>;
        let (record, reference_ms, replay): (Record, f64, Replay) = match ctx.workload {
            Workload::RemoteWarm => {
                let op = warm_ops.next().expect("endless");
                let reference_ms = speed.reference_ms();
                let record = warm_request(&mut client, ctx, &daemon.hashes, op);
                (
                    record,
                    reference_ms,
                    Box::new(move |t, m| replay::warm_op(t, m, corpus, op)),
                )
            }
            Workload::ColdIngest => {
                let pair = cold_pair(ctx.seed, i, COLD_ENTRIES);
                let want = cold_refs(&pair.0, &pair.1);
                let reference_ms = speed.reference_ms();
                let record = cold_request(&mut client, &pair, &want);
                (
                    record,
                    reference_ms,
                    Box::new(move |t, m| replay::cold_op(t, m, &pair.0, &pair.1)),
                )
            }
        };
        pass.busy_s += record.ms() / 1e3;
        if let (Some(t), Some(m)) = (tracer.as_mut(), mirror) {
            t.begin_op(i, record.start, record.end, record.requests);
            let started = Instant::now();
            client.stats().map_err(|e| e.to_string())?;
            pass.rtt_us.push(started.elapsed().as_secs_f64() * 1e6);
            replay(t, m);
        }
        pass.samples.add(record, reference_ms);
    }
    pass.reference_ms = speed.readings;
    // Each open connection pins a daemon worker: free it for the admin's.
    drop(client);
    pass.tracers.extend(tracer);
    let mut admin = daemon.connect(99)?;
    pass.stats[1] = admin.stats().map_err(|e| e.to_string())?;
    if mirror.is_some() {
        pass.metrics_text = admin.metrics().map_err(|e| e.to_string())?;
    }
    Ok(pass)
}
