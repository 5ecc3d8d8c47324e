//! Seeded round trips of every wire message: the reference semantics of the codec.
//!
//! The generator draws every [`Request`] and [`Response`] variant, every
//! [`WireWatchEvent`] kind, every algorithm, analysis mode and severity, `None` and
//! `Some` overrides, empty and non-empty lists and `u64::MAX` fields. For each message
//! the suite asserts that
//!
//! - decoding the encoding gives the message back, and encoding that decode gives the
//!   same bytes;
//! - every proper prefix of the payload is refused with an error, never a panic;
//! - the payload plus one more byte is refused.
//!
//! Two exceptions follow from the trailing-optional algorithm byte of `Diff` and
//! `Analyze`: without an override, one more byte *is* that byte, so it decodes as an
//! algorithm or is refused as an unknown one; with an override, the prefix that drops
//! it decodes as the same request without one.
//!
//! The generator is seeded from the clock and the seed is printed;
//! `RPRISM_FUZZ_SEED=<n>` replays a run.

use std::collections::BTreeSet;

use rprism::check::{rules, Diagnostic};
use rprism::{AnalysisMode, CheckReport, Severity};
use rprism_diff::DiffSequence;
use rprism_regress::DiffSignature;
use rprism_server::proto::{RepoEntry, Request, Response, WireDiff, WireReport, WireStats};
use rprism_server::{WireAlgorithm, WireWatchEvent};
use rprism_trace::testgen::{fuzz_seed, Rng};
use rprism_trace::{intern, EventKind, Symbol, ValueFingerprint};

/// Rounds over the full variant lists; each round draws every variant once.
const ROUNDS: usize = 24;

const REQUESTS: [&str; 12] = [
    "Put",
    "Get",
    "List",
    "Diff",
    "Analyze",
    "Check",
    "WatchStart",
    "PutStream",
    "Stats",
    "Metrics",
    "ObsTrace",
    "Shutdown",
];

const RESPONSES: [&str; 16] = [
    "PutOk",
    "GetOk",
    "ListOk",
    "DiffOk",
    "AnalyzeOk",
    "CheckOk",
    "WatchStarted",
    "WatchEvent",
    "WatchDone",
    "StatsOk",
    "MetricsOk",
    "ObsTraceOk",
    "ShutdownOk",
    "Busy",
    "Corrupt",
    "Error",
];

/// The variant name of a request; exhaustive, so a new variant must be named here.
fn request_name(request: &Request) -> &'static str {
    match request {
        Request::Put { .. } => "Put",
        Request::Get { .. } => "Get",
        Request::List => "List",
        Request::Diff { .. } => "Diff",
        Request::Analyze { .. } => "Analyze",
        Request::Check { .. } => "Check",
        Request::WatchStart { .. } => "WatchStart",
        Request::PutStream { .. } => "PutStream",
        Request::Stats => "Stats",
        Request::Metrics => "Metrics",
        Request::ObsTrace => "ObsTrace",
        Request::Shutdown => "Shutdown",
    }
}

/// The variant name of a response; exhaustive, so a new variant must be named here.
fn response_name(response: &Response) -> &'static str {
    match response {
        Response::PutOk { .. } => "PutOk",
        Response::GetOk { .. } => "GetOk",
        Response::ListOk { .. } => "ListOk",
        Response::DiffOk(_) => "DiffOk",
        Response::AnalyzeOk(_) => "AnalyzeOk",
        Response::CheckOk(_) => "CheckOk",
        Response::WatchStarted => "WatchStarted",
        Response::WatchEvent { .. } => "WatchEvent",
        Response::WatchDone { .. } => "WatchDone",
        Response::StatsOk(_) => "StatsOk",
        Response::MetricsOk { .. } => "MetricsOk",
        Response::ObsTraceOk { .. } => "ObsTraceOk",
        Response::ShutdownOk => "ShutdownOk",
        Response::Busy { .. } => "Busy",
        Response::Corrupt { .. } => "Corrupt",
        Response::Error { .. } => "Error",
    }
}

const NAMES: &[&str] = &["", "Num", "min", "setRequestType", "é→", "🦀 crab"];
const CHARS: &[char] = &['a', 'Z', '0', ' ', '\n', '"', 'é', '→', '🦀', '\u{7f}'];

/// The generator plus the shapes it has drawn so far.
struct Draw {
    rng: Rng,
    /// Lists are empty in even rounds and non-empty in odd ones; overrides are `None`
    /// in rounds divisible by 4, `Some` otherwise.
    round: usize,
    /// Round-robin cursor over the watch-event kinds, so every kind is drawn.
    event_kind: usize,
    seen: BTreeSet<String>,
}

impl Draw {
    fn u64(&mut self) -> u64 {
        match self.rng.usize(0, 6) {
            0 => {
                self.seen.insert("u64::MAX".into());
                u64::MAX
            }
            1 => 0,
            2 => self.rng.range(0, 128),
            3 => self.rng.range(128, 1 << 14),
            _ => self.rng.next_u64() >> self.rng.range(0, 64),
        }
    }

    fn usize(&mut self) -> usize {
        usize::try_from(self.u64()).unwrap_or(usize::MAX)
    }

    fn bool(&mut self) -> bool {
        self.rng.bool()
    }

    fn len(&mut self) -> usize {
        if self.round.is_multiple_of(2) {
            self.seen.insert("empty list".into());
            0
        } else {
            self.seen.insert("non-empty list".into());
            self.rng.usize(1, 4)
        }
    }

    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let len = self.len();
        (0..len).map(|_| item(self)).collect()
    }

    fn some(&mut self) -> bool {
        let some = !self.round.is_multiple_of(4);
        self.seen.insert(if some { "Some" } else { "None" }.into());
        some
    }

    fn bytes(&mut self) -> Vec<u8> {
        self.list(|d| d.rng.next_u64() as u8)
    }

    fn string(&mut self) -> String {
        let len = self.rng.usize(0, 8);
        (0..len).map(|_| *self.rng.pick(CHARS)).collect()
    }

    /// Views, Lcs and Anchored in turn, four rounds each.
    fn algorithm(&mut self) -> Option<WireAlgorithm> {
        let all = [
            WireAlgorithm::Views,
            WireAlgorithm::Lcs,
            WireAlgorithm::Anchored,
        ];
        let algorithm = all[self.round / 4 % all.len()];
        self.some().then(|| self.saw(algorithm))
    }

    fn mode(&mut self) -> AnalysisMode {
        let mode = *self
            .rng
            .pick(&[AnalysisMode::Intersect, AnalysisMode::SubtractRegressionSet]);
        self.saw(mode)
    }

    fn severity(&mut self) -> Severity {
        let severity = *self
            .rng
            .pick(&[Severity::Info, Severity::Warning, Severity::Error]);
        self.saw(severity)
    }

    /// Records a drawn value by its `Debug` name.
    fn saw<T: std::fmt::Debug>(&mut self, value: T) -> T {
        self.seen.insert(format!("{value:?}"));
        value
    }

    fn indices(&mut self) -> Vec<usize> {
        self.list(Self::usize)
    }

    fn sequence(&mut self) -> DiffSequence {
        DiffSequence {
            left: self.indices(),
            right: self.indices(),
        }
    }

    fn name(&mut self) -> Symbol {
        let name: &&str = self.rng.pick(NAMES);
        intern(name)
    }

    fn signature(&mut self) -> DiffSignature {
        let kinds = [
            EventKind::Get,
            EventKind::Set,
            EventKind::Call,
            EventKind::Return,
            EventKind::Init,
            EventKind::Fork,
            EventKind::End,
        ];
        let kind = *self.rng.pick(&kinds);
        let name = self.bool().then(|| self.name());
        let operands = self.list(|d| (d.name(), ValueFingerprint(d.u64())));
        DiffSignature {
            kind,
            name,
            operands: operands.into(),
            method: self.name(),
            active_class: self.name(),
        }
    }

    fn diff(&mut self) -> WireDiff {
        WireDiff {
            algorithm: self.string(),
            left_len: self.u64(),
            right_len: self.u64(),
            pairs: self.list(|d| (d.u64(), d.u64())),
            sequences: self.list(Self::sequence),
            compare_ops: self.u64(),
            num_differences: self.u64(),
            rendered: self.string(),
        }
    }

    fn report(&mut self) -> WireReport {
        WireReport {
            algorithm: self.string(),
            mode: self.mode(),
            suspected: self.list(Self::signature),
            expected: self.list(Self::signature),
            regression: self.list(Self::signature),
            candidates: self.list(Self::signature),
            sequences: self.list(|d| (d.sequence(), d.bool())),
            compare_ops: self.u64(),
            rendered: self.string(),
        }
    }

    fn check_report(&mut self) -> Box<CheckReport> {
        Box::new(CheckReport {
            trace_name: self.string(),
            entries: self.usize(),
            threads: self.usize(),
            suppressed: self.usize(),
            diagnostics: self.list(|d| Diagnostic {
                rule_id: d.rng.pick(rules::RULES).id,
                severity: d.severity(),
                entry_index: d.usize(),
                message: d.string(),
                related_entries: d.indices(),
            }),
        })
    }

    fn events(&mut self) -> Vec<WireWatchEvent> {
        self.list(|d| {
            d.event_kind = (d.event_kind + 1) % 3;
            match d.event_kind {
                0 => {
                    d.seen.insert("event Match".into());
                    WireWatchEvent::Match {
                        left: d.u64(),
                        right: d.u64(),
                    }
                }
                1 => {
                    d.seen.insert("event Invalidate".into());
                    WireWatchEvent::Invalidate {
                        left: d.u64(),
                        right: d.u64(),
                    }
                }
                _ => {
                    d.seen.insert("event Difference".into());
                    WireWatchEvent::Difference {
                        left: d.list(Self::u64),
                        right: d.list(Self::u64),
                    }
                }
            }
        })
    }

    fn request(&mut self, variant: &str) -> Request {
        match variant {
            "Put" => Request::Put {
                bytes: self.bytes(),
            },
            "Get" => Request::Get { hash: self.u64() },
            "List" => Request::List,
            "Diff" => Request::Diff {
                left: self.u64(),
                right: self.u64(),
                max_sequences: self.u64(),
                algorithm: self.algorithm(),
            },
            "Analyze" => Request::Analyze {
                old_regressing: self.u64(),
                new_regressing: self.u64(),
                old_passing: self.u64(),
                new_passing: self.u64(),
                mode: if self.some() { Some(self.mode()) } else { None },
                max_sequences: self.u64(),
                algorithm: self.algorithm(),
            },
            "Check" => Request::Check {
                hash: self.u64(),
                overrides: self.list(|d| (d.rng.pick(rules::RULES).id.to_owned(), d.severity())),
            },
            "WatchStart" => Request::WatchStart {
                old: self.u64(),
                max_sequences: self.u64(),
            },
            "PutStream" => Request::PutStream {
                bytes: self.bytes(),
                last: self.round % 4 < 2,
            },
            "Stats" => Request::Stats,
            "Metrics" => Request::Metrics,
            "ObsTrace" => Request::ObsTrace,
            "Shutdown" => Request::Shutdown,
            other => unreachable!("no request variant {other}"),
        }
    }

    fn response(&mut self, variant: &str) -> Response {
        match variant {
            "PutOk" => Response::PutOk {
                hash: self.u64(),
                deduped: self.bool(),
                entries: self.u64(),
            },
            "GetOk" => Response::GetOk {
                bytes: self.bytes(),
            },
            "ListOk" => Response::ListOk {
                entries: self.list(|d| RepoEntry {
                    hash: d.u64(),
                    name: d.string(),
                    entries: d.u64(),
                    bytes: d.u64(),
                }),
            },
            "DiffOk" => Response::DiffOk(self.diff()),
            "AnalyzeOk" => Response::AnalyzeOk(self.report()),
            "CheckOk" => Response::CheckOk(self.check_report()),
            "WatchStarted" => Response::WatchStarted,
            "WatchEvent" => Response::WatchEvent {
                events: self.events(),
            },
            "WatchDone" => Response::WatchDone {
                events: self.events(),
                diff: self.diff(),
            },
            "StatsOk" => {
                let mut v = [0u64; 15];
                v.iter_mut().for_each(|x| *x = self.u64());
                Response::StatsOk(WireStats {
                    blobs: v[0],
                    blob_bytes: v[1],
                    prepared_cached: v[2],
                    prepared_cached_bytes: v[3],
                    cache_budget_bytes: v[4],
                    prepared_hits: v[5],
                    prepared_misses: v[6],
                    evictions: v[7],
                    dedup_hits: v[8],
                    requests_served: v[9],
                    correlation_builds: v[10],
                    cached_correlations: v[11],
                    orphans_removed: v[12],
                    quarantined: v[13],
                    cache_shrinks: v[14],
                })
            }
            "MetricsOk" => Response::MetricsOk {
                text: self.string(),
            },
            "ObsTraceOk" => Response::ObsTraceOk {
                bytes: self.bytes(),
            },
            "ShutdownOk" => Response::ShutdownOk,
            "Busy" => Response::Busy {
                retry_after_ms: if self.bool() {
                    u32::MAX
                } else {
                    self.rng.next_u64() as u32
                },
            },
            "Corrupt" => Response::Corrupt {
                hash: self.u64(),
                message: self.string(),
            },
            "Error" => Response::Error {
                message: self.string(),
            },
            other => unreachable!("no response variant {other}"),
        }
    }
}

/// The bytes one more byte is drawn from: the three algorithm bytes, bytes no decoder
/// accepts as a tag or flag, and one random byte.
fn extra_bytes(rng: &mut Rng) -> [u8; 7] {
    [0, 1, 2, 3, 0x80, 0xff, rng.next_u64() as u8]
}

/// The algorithm override of a request that can carry one, as `Some(current)`.
fn trailing_algorithm(request: &Request) -> Option<Option<WireAlgorithm>> {
    match request {
        Request::Diff { algorithm, .. } | Request::Analyze { algorithm, .. } => Some(*algorithm),
        _ => None,
    }
}

fn with_algorithm(request: &Request, to: Option<WireAlgorithm>) -> Request {
    let mut request = request.clone();
    if let Request::Diff { algorithm, .. } | Request::Analyze { algorithm, .. } = &mut request {
        *algorithm = to;
    }
    request
}

fn check_request(request: &Request, rng: &mut Rng) {
    let bytes = request.encode();
    let decoded = Request::decode(&bytes).unwrap_or_else(|e| panic!("{request:?}: {e}"));
    assert_eq!(&decoded, request);
    assert_eq!(decoded.encode(), bytes, "{request:?}: re-encoding");

    let trailing = trailing_algorithm(request);
    for cut in 0..bytes.len() {
        let result = Request::decode(&bytes[..cut]);
        if trailing.is_some_and(|a| a.is_some()) && cut == bytes.len() - 1 {
            // Dropping the override leaves the same request without one.
            assert_eq!(result.unwrap(), with_algorithm(request, None));
        } else {
            assert!(
                result.is_err(),
                "{request:?}: prefix of {cut} bytes decoded"
            );
        }
    }

    for extra in extra_bytes(rng) {
        let mut longer = bytes.clone();
        longer.push(extra);
        let result = Request::decode(&longer);
        let algorithm = match extra {
            1 => Some(WireAlgorithm::Views),
            2 => Some(WireAlgorithm::Lcs),
            3 => Some(WireAlgorithm::Anchored),
            _ => None,
        };
        match (trailing, algorithm) {
            (Some(None), Some(algorithm)) => {
                assert_eq!(result.unwrap(), with_algorithm(request, Some(algorithm)));
            }
            (Some(None), None) => {
                let error = result.unwrap_err().to_string();
                assert!(
                    error.contains("unknown diff algorithm"),
                    "{request:?}: {error}"
                );
            }
            _ => assert!(result.is_err(), "{request:?} plus {extra:#04x} decoded"),
        }
    }
}

fn check_response(response: &Response, rng: &mut Rng) {
    let bytes = response.encode();
    let decoded = Response::decode(&bytes).unwrap_or_else(|e| panic!("{response:?}: {e}"));
    assert_eq!(&decoded, response);
    assert_eq!(decoded.encode(), bytes, "{response:?}: re-encoding");
    for cut in 0..bytes.len() {
        assert!(
            Response::decode(&bytes[..cut]).is_err(),
            "{response:?}: prefix of {cut} bytes decoded"
        );
    }
    for extra in extra_bytes(rng) {
        let mut longer = bytes.clone();
        longer.push(extra);
        assert!(
            Response::decode(&longer).is_err(),
            "{response:?} plus {extra:#04x} decoded"
        );
    }
}

#[test]
fn seeded_messages_round_trip_and_refuse_cuts_and_extra_bytes() {
    let seed = fuzz_seed();
    let mut draw = Draw {
        rng: Rng::new(seed),
        round: 0,
        event_kind: 0,
        seen: BTreeSet::new(),
    };
    let mut checks = Rng::new(seed ^ 0x5eed);
    for round in 0..ROUNDS {
        draw.round = round;
        for variant in REQUESTS {
            let request = draw.request(variant);
            assert_eq!(request_name(&request), variant);
            check_request(&request, &mut checks);
        }
        for variant in RESPONSES {
            let response = draw.response(variant);
            assert_eq!(response_name(&response), variant);
            check_response(&response, &mut checks);
        }
    }
    for shape in [
        "u64::MAX",
        "empty list",
        "non-empty list",
        "None",
        "Some",
        "event Match",
        "event Invalidate",
        "event Difference",
        "Views",
        "Lcs",
        "Anchored",
        "Intersect",
        "SubtractRegressionSet",
        "Info",
        "Warning",
        "Error",
    ] {
        assert!(draw.seen.contains(shape), "seed {seed}: never drew {shape}");
    }
}
