//! The traced run's outside-in layer split. After each real request, the
//! operation's server path (`Worker::try_handle` and `Worker::fold_chunk` in
//! `rprism-server`) is replayed call by call against a local mirror — an
//! [`Engine`] behind a [`TraceRepo`], set up and warmed exactly like the daemon —
//! and every call into a layer's public API is timed as one span.
//!
//! Spans whose parent is the operation's root are the *attributed* steps of the
//! operation; their sum, plus one transport round trip per request, is compared
//! with the operation's end-to-end time. A span with another parent is a detail:
//! the same work as part of its parent, replayed as the layer's own public call
//! (for example `views.correlate` under `core.diff`). Details are reported per
//! layer but never added to the attributed sum.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rprism::{
    AnchoredDiffOptions, Engine, Obs, PreparedTrace, RegressionInput, TraceDiffResult,
    ViewsDiffOptions, Watch,
};
use rprism_diff::{anchored_diff_prepared, views_diff_sides_correlated, DiffSide};
use rprism_format::frame::{frame_to_bytes, read_frame};
use rprism_format::{content_hash, trace_from_bytes, TailBatch, TailDecoder};
use rprism_server::proto::{
    Request, Response, WireAlgorithm, WireDiff, WireReport, WireWatchEvent,
};
use rprism_server::{RepoOptions, TraceRepo};
use rprism_views::{Correlation, ViewWeb};

use crate::corpus::{Corpus, Stored, WarmOp};
use crate::oracle::warm;
use crate::workload::WATCH_CHUNK;
use crate::MAX_SEQUENCES;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One traced operation: its end-to-end time and how many requests it sent.
#[derive(Clone, Copy, Debug)]
pub struct OpInfo {
    pub e2e_ns: u64,
    pub requests: u32,
}

/// One client's spans and counts, kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub ops: Vec<OpInfo>,
    /// Exact per-run counts (compare ops, response bytes, checked entries).
    pub counts: Vec<(&'static str, u64)>,
    op: u64,
    root: u32,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            ops: Vec::new(),
            counts: Vec::new(),
            op: 0,
            root: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn push(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            op: self.op,
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Opens operation `op` with its real request interval as the root span.
    pub fn begin_op(&mut self, op: u64, start: Instant, end: Instant, requests: u32) {
        self.op = op;
        self.root = self.push(None, "op", start, end);
        self.ops.push(OpInfo {
            e2e_ns: end.duration_since(start).as_nanos() as u64,
            requests,
        });
    }

    /// Times `f` as an attributed step of the current operation.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u32) {
        self.time_under(self.root, name, f)
    }

    /// Times `f` as a detail of span `parent`.
    pub fn time_under<R>(
        &mut self,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = Instant::now();
        let out = black_box(f());
        let id = self.push(Some(parent), name, start, Instant::now());
        (out, id)
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        self.counts.push((name, n));
    }
}

/// The local copy of the daemon the traced run replays against.
pub struct Mirror {
    pub repo: TraceRepo,
    pub engine: Engine,
    /// Content hashes of the corpus traces, by corpus index.
    pub hashes: Vec<u64>,
    /// Each corpus pair's view correlation, built once (the daemon's is cached).
    correlations: Vec<Arc<Correlation>>,
}

impl Mirror {
    /// Opens a repository in `dir` (which must exist) with the daemon's defaults
    /// (durable puts, an enabled observer) and `cache_budget`, stores the corpus,
    /// and warms it in the daemon's order.
    pub fn open(dir: &Path, cache_budget: u64, corpus: &Corpus) -> Mirror {
        let repo = TraceRepo::open_with(
            dir,
            Engine::new(),
            RepoOptions {
                cache_budget,
                obs: Obs::enabled(),
                ..RepoOptions::default()
            },
        )
        .expect("mirror repository opens");
        let hashes: Vec<u64> = corpus
            .traces
            .iter()
            .map(|t| repo.put_bytes(&t.bytes).expect("mirror put").0)
            .collect();
        let engine = repo.engine().clone();
        let handles: Vec<PreparedTrace> = hashes
            .iter()
            .map(|&h| repo.prepared(h).expect("mirror load"))
            .collect();
        warm(&engine, corpus, &handles);
        let correlations = corpus
            .pairs
            .iter()
            .map(|&(l, r)| Arc::new(Correlation::build(handles[l].web(), handles[r].web())))
            .collect();
        Mirror {
            repo,
            engine,
            hashes,
            correlations,
        }
    }
}

/// A repository handle as a diff side (repository loads are always streamed).
fn side(handle: &PreparedTrace) -> DiffSide<'_> {
    let lean = handle.lean().expect("repository handles are streamed");
    DiffSide::lean(lean, handle.keyed(), handle.web())
}

/// The client encodes and frames a request; the server reads the frame and decodes.
fn request_in(t: &mut Tracer, request: &Request) {
    let (payload, _) = t.time("server.proto.encode", || request.encode());
    let (framed, _) = t.time("format.frame", || frame_to_bytes(&payload));
    let (payload, _) = t.time("format.frame", || {
        read_frame(&mut &framed[..], u64::MAX)
            .expect("frame reads back")
            .expect("one frame")
    });
    t.time("server.proto.decode", || {
        Request::decode(&payload).expect("request decodes")
    });
}

/// The server encodes and frames a response; the client reads and decodes it.
fn response_out(t: &mut Tracer, response: &Response) {
    let (payload, _) = t.time("server.proto.encode", || response.encode());
    t.count("server.proto.response_bytes", payload.len() as u64);
    let (framed, _) = t.time("format.frame", || frame_to_bytes(&payload));
    let (payload, _) = t.time("format.frame", || {
        read_frame(&mut &framed[..], u64::MAX)
            .expect("frame reads back")
            .expect("one frame")
    });
    t.time("server.proto.decode", || {
        Response::decode(&payload).expect("response decodes")
    });
}

fn render_diff(
    t: &mut Tracer,
    result: &TraceDiffResult,
    left: &PreparedTrace,
    right: &PreparedTrace,
) -> WireDiff {
    let (rendered, _) = t.time("diff.render", || {
        result.render_with(
            MAX_SEQUENCES as usize,
            |i| left.describe_entry(i),
            |i| right.describe_entry(i),
        )
    });
    let (wire, _) = t.time("server.wire", || WireDiff::from_result(result, rendered));
    t.count("diff.compare_ops", result.cost.compare_ops);
    wire
}

fn prepared(t: &mut Tracer, m: &Mirror, hash: u64) -> (PreparedTrace, u32) {
    let (handle, id) = t.time("server.repo.prepared", || m.repo.prepared(hash));
    (handle.expect("mirror holds the trace"), id)
}

/// A check request: read the blob back, decode it, fold the rules over it.
fn check(t: &mut Tracer, m: &Mirror, hash: u64) {
    request_in(
        t,
        &Request::Check {
            hash,
            overrides: Vec::new(),
        },
    );
    let (bytes, _) = t.time("server.repo.get", || {
        m.repo.get_bytes(hash).expect("mirror get")
    });
    let (trace, _) = t.time("format.decode", || {
        trace_from_bytes(&bytes).expect("blob decodes")
    });
    let (report, _) = t.time("check.fold", || rprism_check::check_trace(&trace));
    t.count("check.entries", report.entries as u64);
    response_out(t, &Response::CheckOk(Box::new(report)));
}

pub fn warm_op(t: &mut Tracer, m: &Mirror, corpus: &Corpus, op: WarmOp) {
    match op {
        WarmOp::Diff(p) | WarmOp::Anchored(p) => {
            let is_anchored = matches!(op, WarmOp::Anchored(_));
            let (l, r) = corpus.pairs[p];
            request_in(
                t,
                &Request::Diff {
                    left: m.hashes[l],
                    right: m.hashes[r],
                    max_sequences: MAX_SEQUENCES,
                    algorithm: is_anchored.then_some(WireAlgorithm::Anchored),
                },
            );
            let (left, _) = prepared(t, m, m.hashes[l]);
            let (right, _) = prepared(t, m, m.hashes[r]);
            let result = if is_anchored {
                t.time("diff.anchored", || {
                    anchored_diff_prepared(
                        left.keyed(),
                        right.keyed(),
                        &AnchoredDiffOptions::default(),
                    )
                })
                .0
            } else {
                let (result, id) = t.time("core.diff", || {
                    m.engine.diff(&left, &right).expect("views diff")
                });
                t.time_under(id, "diff.scan", || {
                    views_diff_sides_correlated(
                        &side(&left),
                        &side(&right),
                        &m.correlations[p],
                        &ViewsDiffOptions::default(),
                    )
                });
                result
            };
            let wire = render_diff(t, &result, &left, &right);
            response_out(t, &Response::DiffOk(wire));
        }
        WarmOp::Analyze(q) => {
            let ([a, b, c, d], mode) = corpus.quads[q];
            request_in(
                t,
                &Request::Analyze {
                    old_regressing: m.hashes[a],
                    new_regressing: m.hashes[b],
                    old_passing: m.hashes[c],
                    new_passing: m.hashes[d],
                    mode: Some(mode),
                    max_sequences: MAX_SEQUENCES,
                    algorithm: None,
                },
            );
            let handles: Vec<PreparedTrace> = [a, b, c, d]
                .into_iter()
                .map(|i| prepared(t, m, m.hashes[i]).0)
                .collect();
            let input = RegressionInput::new(
                handles[0].clone(),
                handles[1].clone(),
                handles[2].clone(),
                handles[3].clone(),
            )
            .with_mode(mode);
            let (report, _) = t.time("regress.analyze", || {
                m.engine.analyze(&input).expect("analysis")
            });
            let options = rprism_regress::RenderOptions {
                max_regression_sequences: MAX_SEQUENCES as usize,
                ..*m.engine.render_options()
            };
            let (rendered, _) = t.time("regress.render", || {
                rprism_regress::render_report_with(
                    &report,
                    &options,
                    |i| input.old_regressing.describe_entry(i),
                    |i| input.new_regressing.describe_entry(i),
                )
            });
            let (wire, _) = t.time("server.wire", || WireReport::from_report(&report, rendered));
            t.count("diff.compare_ops", report.compare_ops);
            response_out(t, &Response::AnalyzeOk(wire));
        }
        WarmOp::Check(i) => check(t, m, m.hashes[i]),
    }
}

/// A cold load as its layers: the repository's streaming load, and under it the
/// same trace decoded, keyed and webbed by each layer's own call.
fn cold_prepared(t: &mut Tracer, m: &Mirror, hash: u64, stored: &Stored) -> PreparedTrace {
    let (handle, parent) = prepared(t, m, hash);
    let (_, load) = t.time_under(parent, "core.load", || {
        m.engine
            .load_prepared_reader(&stored.bytes[..])
            .expect("cold trace loads")
    });
    let (trace, _) = t.time_under(load, "format.decode", || {
        trace_from_bytes(&stored.bytes).expect("cold trace decodes")
    });
    let fresh = PreparedTrace::new(trace);
    t.time_under(load, "trace.keyed", || {
        fresh.keyed();
    });
    t.time_under(load, "views.web", || ViewWeb::build(fresh.trace()));
    handle
}

pub fn cold_op(t: &mut Tracer, m: &Mirror, old: &Stored, new: &Stored) {
    let mut hashes = [0u64; 2];
    for (slot, stored) in hashes.iter_mut().zip([old, new]) {
        let request = Request::Put {
            bytes: stored.bytes.clone(),
        };
        request_in(t, &request);
        let (put, id) = t.time("server.repo.put", || {
            m.repo.put_bytes(&stored.bytes).expect("mirror put")
        });
        t.time_under(id, "format.content_hash", || {
            content_hash(&stored.bytes[..]).expect("content hashes")
        });
        *slot = put.0;
        response_out(
            t,
            &Response::PutOk {
                hash: put.0,
                deduped: put.1,
                entries: put.2,
            },
        );
    }
    check(t, m, hashes[1]);
    request_in(
        t,
        &Request::Diff {
            left: hashes[0],
            right: hashes[1],
            max_sequences: MAX_SEQUENCES,
            algorithm: None,
        },
    );
    let left = cold_prepared(t, m, hashes[0], old);
    let right = cold_prepared(t, m, hashes[1], new);
    let (result, id) = t.time("core.diff", || {
        m.engine.diff(&left, &right).expect("views diff")
    });
    let (correlation, _) = t.time_under(id, "views.correlate", || {
        Correlation::build(left.web(), right.web())
    });
    t.time_under(id, "diff.scan", || {
        views_diff_sides_correlated(
            &side(&left),
            &side(&right),
            &correlation,
            &ViewsDiffOptions::default(),
        )
    });
    let wire = render_diff(t, &result, &left, &right);
    response_out(t, &Response::DiffOk(wire));
    let chunks: Vec<&[u8]> = new.bytes.chunks(WATCH_CHUNK).collect();
    watch(t, m, hashes[0], &chunks);
}

/// Entries drained from the tail decoder per push, as in the daemon.
const WATCH_BATCH: usize = 256;

fn push_events(
    t: &mut Tracer,
    watch: &mut Watch,
    batch: &[rprism_trace::TraceEntry],
    events: &mut Vec<WireWatchEvent>,
) {
    let (pushed, _) = t.time("core.watch_push", || {
        watch.push_entries(batch).expect("watch push")
    });
    let (wire, _) = t.time("server.wire", || {
        pushed
            .iter()
            .map(WireWatchEvent::from_event)
            .collect::<Vec<_>>()
    });
    events.extend(wire);
}

/// A watch session, as `Worker::fold_chunk` serves it chunk by chunk.
fn watch(t: &mut Tracer, m: &Mirror, old_hash: u64, chunks: &[&[u8]]) {
    request_in(
        t,
        &Request::WatchStart {
            old: old_hash,
            max_sequences: MAX_SEQUENCES,
        },
    );
    let (old, _) = prepared(t, m, old_hash);
    response_out(t, &Response::WatchStarted);
    let mut decoder = TailDecoder::new();
    let mut watch: Option<Watch> = None;
    let mut batch = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        let last = i + 1 == chunks.len();
        request_in(
            t,
            &Request::PutStream {
                bytes: chunk.to_vec(),
                last,
            },
        );
        t.time("format.tail_push", || {
            decoder.push_bytes(chunk).expect("chunk decodes")
        });
        let mut events = Vec::new();
        loop {
            if watch.is_none() {
                match decoder.meta() {
                    Some(meta) => {
                        let meta = meta.clone();
                        watch = Some(t.time("core.watch_push", || m.engine.watch(&old, meta)).0);
                    }
                    None => break,
                }
            }
            let (read, _) = t.time("format.tail_push", || {
                decoder
                    .read_batch(&mut batch, WATCH_BATCH)
                    .expect("chunk decodes")
            });
            match read {
                TailBatch::Entries(_) => push_events(
                    t,
                    watch.as_mut().expect("session open"),
                    &batch,
                    &mut events,
                ),
                TailBatch::Pending | TailBatch::End => break,
            }
        }
        if !last {
            response_out(t, &Response::WatchEvent { events });
            continue;
        }
        batch.clear();
        t.time("format.tail_push", || {
            decoder.finish(&mut batch).expect("stream ends cleanly")
        });
        let mut session = match watch.take() {
            Some(session) => session,
            None => {
                let meta = decoder.meta().expect("header parsed").clone();
                t.time("core.watch_push", || m.engine.watch(&old, meta)).0
            }
        };
        if !batch.is_empty() {
            push_events(t, &mut session, &batch, &mut events);
        }
        let (outcome, _) = t.time("core.watch_finish", || {
            session.finish().expect("watch finishes")
        });
        let (wire, _) = t.time("server.wire", || {
            outcome
                .events
                .iter()
                .map(WireWatchEvent::from_event)
                .collect::<Vec<_>>()
        });
        events.extend(wire);
        let diff = render_diff(t, &outcome.result, &old, &outcome.new_trace);
        response_out(t, &Response::WatchDone { events, diff });
    }
}

/// Aggregates of one traced pass, over every client's tracer.
pub struct Breakdown {
    pub ops: usize,
    pub requests: u64,
    pub e2e_ns: u64,
    /// Per span name: total time and calls.
    pub layers: std::collections::BTreeMap<&'static str, (u64, u64)>,
    /// Per count name: total.
    pub counts: std::collections::BTreeMap<&'static str, u64>,
    /// Per span name: time in attributed (root-child) spans.
    pub attributed: std::collections::BTreeMap<&'static str, u64>,
    /// Sum of attributed span time.
    pub attributed_ns: u64,
}

impl Breakdown {
    pub fn of(tracers: &[Tracer]) -> Breakdown {
        let mut b = Breakdown {
            ops: 0,
            requests: 0,
            e2e_ns: 0,
            layers: Default::default(),
            counts: Default::default(),
            attributed: Default::default(),
            attributed_ns: 0,
        };
        for t in tracers {
            b.ops += t.ops.len();
            b.requests += t.ops.iter().map(|o| u64::from(o.requests)).sum::<u64>();
            b.e2e_ns += t.ops.iter().map(|o| o.e2e_ns).sum::<u64>();
            for s in &t.spans {
                let Some(parent) = s.parent else { continue };
                let ns = s.end_ns - s.start_ns;
                let entry = b.layers.entry(s.name).or_default();
                entry.0 += ns;
                entry.1 += 1;
                if t.spans[parent as usize].parent.is_none() {
                    *b.attributed.entry(s.name).or_default() += ns;
                    b.attributed_ns += ns;
                }
            }
            for &(name, n) in &t.counts {
                *b.counts.entry(name).or_default() += n;
            }
        }
        b
    }

    /// Busy time in span `name`, in µs per operation.
    pub fn per_op_us(&self, name: &str) -> f64 {
        let ns = self.layers.get(name).map_or(0, |l| l.0);
        ns as f64 / 1e3 / self.ops.max(1) as f64
    }

    pub fn count_per_op(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64 / self.ops.max(1) as f64
    }
}
