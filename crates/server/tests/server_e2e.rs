//! End-to-end and failure-mode tests of the daemon: the full request vocabulary over
//! a real loopback socket, malformed-input containment, startup errors, client
//! timeouts, and graceful shutdown draining in-flight work.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rprism::{Engine, PreparedTrace};
use rprism_format::frame::{frame_to_bytes, read_frame};
use rprism_format::{trace_to_bytes, Encoding, FormatError};
use rprism_server::proto::{Request, Response};
use rprism_server::{Client, RetryPolicy, Server, ServerConfig, ServerError, WireAlgorithm};
use rprism_trace::testgen::{arbitrary_trace, Rng};
use rprism_trace::Trace;

const TIMEOUT: Duration = Duration::from_secs(10);

fn temp_repo(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rprism-srv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample(seed: u64, len: usize) -> Trace {
    let mut rng = Rng::new(seed);
    arbitrary_trace(&mut rng, len)
}

/// Binds a server on an ephemeral loopback port and runs it on a background thread.
fn start(tag: &str) -> (SocketAddr, std::thread::JoinHandle<()>, PathBuf) {
    let dir = temp_repo(tag);
    let server = Server::bind(ServerConfig::new("127.0.0.1:0", &dir)).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, dir)
}

#[test]
fn full_request_vocabulary_round_trips() {
    let (addr, server, dir) = start("vocab");
    let mut client = Client::connect(&addr.to_string(), TIMEOUT).unwrap();

    let old = sample(1, 120);
    let new = sample(2, 120);
    let old_bytes = trace_to_bytes(&old, Encoding::Binary).unwrap();
    let put = client.put_bytes(old_bytes.clone()).unwrap();
    assert!(!put.deduped);
    assert_eq!(put.entries, 120);
    // Re-uploading (even as JSONL) deduplicates against the stored content.
    let again = client
        .put_bytes(trace_to_bytes(&old, Encoding::Jsonl).unwrap())
        .unwrap();
    assert_eq!(again.hash, put.hash);
    assert!(again.deduped);

    let put_new = client
        .put_bytes(trace_to_bytes(&new, Encoding::Binary).unwrap())
        .unwrap();

    let listing = client.list().unwrap();
    assert_eq!(listing.len(), 2);
    assert!(listing.iter().any(|e| e.hash == put.hash));

    // Get returns the blob exactly as stored (the first upload's bytes).
    assert_eq!(client.get(put.hash).unwrap(), old_bytes);
    assert!(matches!(
        client.get(0xdead_beef),
        Err(ServerError::Remote(_))
    ));

    // Remote diff matches a local engine diff of the same traces.
    let remote = client.diff(put.hash, put_new.hash, 3).unwrap();
    let engine = Engine::new();
    let local = engine
        .diff(
            &PreparedTrace::new(old.clone()),
            &PreparedTrace::new(new.clone()),
        )
        .unwrap();
    assert_eq!(remote.pairs_local(), local.matching.normalized_pairs());
    assert_eq!(remote.sequences, local.sequences);
    assert_eq!(remote.compare_ops, local.cost.compare_ops);
    assert!(!remote.rendered.is_empty());

    // Repeating the diff is served from the prepared/correlation caches.
    let repeat = client.diff(put.hash, put_new.hash, 3).unwrap();
    assert_eq!(repeat, remote);
    let stats = client.stats().unwrap();
    assert_eq!(stats.blobs, 2);
    assert_eq!(stats.dedup_hits, 1);
    assert!(stats.prepared_hits >= 2, "repeat diff must hit the cache");
    assert_eq!(stats.correlation_builds, 1);
    assert!(stats.requests_served >= 7);

    client.shutdown().unwrap();
    server.join().unwrap();

    // The repository survives the daemon: a fresh server over the same directory
    // still serves the stored blobs.
    let reopened = Server::bind(ServerConfig::new("127.0.0.1:0", &dir)).unwrap();
    let addr = reopened.local_addr().unwrap();
    let handle = std::thread::spawn(move || reopened.run().unwrap());
    let mut client = Client::connect(&addr.to_string(), TIMEOUT).unwrap();
    assert_eq!(client.list().unwrap().len(), 2);
    assert_eq!(client.get(put.hash).unwrap(), old_bytes);
    client.shutdown().unwrap();
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn algorithm_overrides_choose_the_backend_per_request() {
    let (addr, server, dir) = start("algo");
    let mut client = Client::connect(&addr.to_string(), TIMEOUT).unwrap();

    let old = sample(11, 140);
    let new = sample(12, 140);
    let left = client
        .put_bytes(trace_to_bytes(&old, Encoding::Binary).unwrap())
        .unwrap()
        .hash;
    let right = client
        .put_bytes(trace_to_bytes(&new, Encoding::Binary).unwrap())
        .unwrap()
        .hash;

    // Each override is honored per request; the server default (views) is untouched.
    let default = client.diff(left, right, 2).unwrap();
    assert_eq!(default.algorithm, "views");
    for (wire, label) in [
        (WireAlgorithm::Views, "views"),
        (WireAlgorithm::Lcs, "lcs"),
        (WireAlgorithm::Anchored, "anchored"),
    ] {
        let diff = client
            .diff_with_algorithm(left, right, 2, Some(wire))
            .unwrap();
        assert_eq!(diff.algorithm, label);
    }
    // An explicit views override is byte-identical to the default.
    let views = client
        .diff_with_algorithm(left, right, 2, Some(WireAlgorithm::Views))
        .unwrap();
    assert_eq!(views, default);

    // The remote LCS override matches a local LCS engine exactly.
    let remote_lcs = client
        .diff_with_algorithm(left, right, 2, Some(WireAlgorithm::Lcs))
        .unwrap();
    let engine = Engine::builder()
        .lcs_baseline(rprism::LcsDiffOptions::default())
        .build();
    let local = engine
        .diff(
            &PreparedTrace::new(old.clone()),
            &PreparedTrace::new(new.clone()),
        )
        .unwrap();
    assert_eq!(remote_lcs.pairs_local(), local.matching.normalized_pairs());
    assert_eq!(remote_lcs.compare_ops, local.cost.compare_ops);

    // Analyze honors the override too.
    let report = client
        .analyze_with_algorithm(
            [left, right, left, right],
            None,
            2,
            Some(WireAlgorithm::Anchored),
        )
        .unwrap();
    assert_eq!(report.algorithm, "anchored");

    client.shutdown().unwrap();
    server.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_input_gets_structured_errors_never_a_hang() {
    let (addr, server, dir) = start("malformed");

    // 1. A valid frame carrying an unknown request tag: structured error, and the
    //    connection stays usable for a correct request afterwards.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    raw.write_all(&frame_to_bytes(&[1u8, 0x7f])).unwrap();
    let reply = read_frame(&mut &raw, u64::MAX).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&reply).unwrap(),
        Response::Error { .. }
    ));
    raw.write_all(&frame_to_bytes(&Request::List.encode()))
        .unwrap();
    let reply = read_frame(&mut &raw, u64::MAX).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&reply).unwrap(),
        Response::ListOk { .. }
    ));
    drop(raw);

    // 2. A corrupt frame (checksum mismatch): the server answers with an error frame
    //    and closes — no panic, no hang.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut frame = frame_to_bytes(&Request::List.encode());
    let last = frame.len() - 1;
    frame[last] ^= 0xff;
    raw.write_all(&frame).unwrap();
    let reply = read_frame(&mut &raw, u64::MAX).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&reply).unwrap(),
        Response::Error { .. }
    ));
    let mut rest = Vec::new();
    (&raw).read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must be closed after the error");

    // 3. An absurd declared frame length: rejected before any allocation.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    raw.write_all(&[0xff; 10]).unwrap();
    let reply = read_frame(&mut &raw, u64::MAX).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&reply).unwrap(),
        Response::Error { .. }
    ));

    // 4. A corrupt *upload* (valid frame, damaged trace bytes): structured error, and
    //    nothing is stored.
    let mut client = Client::connect(&addr.to_string(), TIMEOUT).unwrap();
    let mut bytes = trace_to_bytes(&sample(3, 40), Encoding::Binary).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    assert!(matches!(
        client.put_bytes(bytes),
        Err(ServerError::Remote(_))
    ));
    assert_eq!(client.stats().unwrap().blobs, 0);

    client.shutdown().unwrap();
    server.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn startup_fails_cleanly_without_a_usable_repo_dir() {
    let missing = std::env::temp_dir().join(format!("rprism-srv-missing-{}", std::process::id()));
    assert!(matches!(
        Server::bind(ServerConfig::new("127.0.0.1:0", &missing)),
        Err(ServerError::Repo(_))
    ));
    let file = std::env::temp_dir().join(format!("rprism-srv-notadir-{}", std::process::id()));
    std::fs::write(&file, b"x").unwrap();
    assert!(matches!(
        Server::bind(ServerConfig::new("127.0.0.1:0", &file)),
        Err(ServerError::Repo(_))
    ));
    std::fs::remove_file(&file).ok();
}

#[test]
fn a_foreign_protocol_version_is_final_and_never_replayed() {
    // A fake peer that answers every request frame with a version-6 payload, and
    // counts the requests until a `stop` frame arrives.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let mut requests = 0;
        for stream in listener.incoming() {
            let mut stream = stream.unwrap();
            while let Some(payload) = read_frame(&mut stream, u64::MAX).unwrap() {
                if payload == b"stop" {
                    return requests;
                }
                requests += 1;
                stream.write_all(&frame_to_bytes(&[6, 0])).unwrap();
            }
        }
        requests
    });

    let mut client =
        Client::connect_with_retry(&addr.to_string(), TIMEOUT, RetryPolicy::default()).unwrap();
    let start = Instant::now();
    let result = client.list();
    let elapsed = start.elapsed();
    drop(client);
    let mut stop = TcpStream::connect(addr).unwrap();
    stop.write_all(&frame_to_bytes(b"stop")).unwrap();

    assert_eq!(peer.join().unwrap(), 1, "the request was replayed");
    assert!(
        matches!(
            result,
            Err(ServerError::Proto(FormatError::UnsupportedVersion {
                found: 6,
                ..
            }))
        ),
        "{result:?}"
    );
    assert!(
        elapsed < Duration::from_millis(100),
        "surfaced after {elapsed:?}"
    );
}

#[test]
fn dead_addresses_error_within_the_timeout_instead_of_hanging() {
    // A loopback port with no listener refuses: an immediate Err, not a hang.
    let start = Instant::now();
    assert!(matches!(
        Client::connect("127.0.0.1:1", Duration::from_millis(300)),
        Err(ServerError::Io(_))
    ));
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "refused connect took {:?}",
        start.elapsed()
    );

    // A "server" that accepts and then never answers: the configured timeout bounds
    // every read, so the request errors out instead of blocking forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let silent = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        // Hold the connection open, saying nothing, until the client gives up.
        std::thread::sleep(Duration::from_secs(3));
        drop(stream);
    });
    let start = Instant::now();
    let mut client = Client::connect(&addr.to_string(), Duration::from_millis(300)).unwrap();
    let result = client.stats();
    assert!(matches!(result, Err(ServerError::Io(_))));
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "silent server held the client for {:?}",
        start.elapsed()
    );
    // The timed-out exchange poisoned the connection: a retry on it must be refused
    // (a late response could otherwise answer the wrong request), not re-attempted.
    match client.stats() {
        Err(ServerError::Io(e)) => assert!(
            e.to_string().contains("poisoned"),
            "expected a poisoned-connection refusal, got {e}"
        ),
        other => panic!("expected a poisoned-connection refusal, got {other:?}"),
    }
    silent.join().unwrap();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let (addr, server, dir) = start("drain");
    let mut uploader = Client::connect(&addr.to_string(), TIMEOUT).unwrap();
    // A pair big enough that its first (cold) diff takes real time.
    let old = sample(40, 6000);
    let new = sample(41, 6000);
    let left = uploader
        .put_bytes(trace_to_bytes(&old, Encoding::Binary).unwrap())
        .unwrap()
        .hash;
    let right = uploader
        .put_bytes(trace_to_bytes(&new, Encoding::Binary).unwrap())
        .unwrap()
        .hash;

    let addr_text = addr.to_string();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let pending_diff = std::thread::spawn(move || {
        let mut client = Client::connect(&addr_text, TIMEOUT).unwrap();
        // A first round trip proves a worker owns this connection, so the diff below
        // is genuinely in flight when the shutdown lands.
        client.list().unwrap();
        ready_tx.send(()).unwrap();
        client.diff(left, right, 2)
    });
    ready_rx.recv().unwrap();
    // Give the diff request time to reach the worker, then ask for shutdown on
    // another connection while it computes.
    std::thread::sleep(Duration::from_millis(50));
    uploader.shutdown().unwrap();

    // The in-flight diff must complete with a full response, not be cut off.
    let diff = pending_diff.join().unwrap().unwrap();
    assert!(diff.left_len == 6000 && diff.right_len == 6000);
    server.join().unwrap();

    // And the daemon really is down now.
    assert!(Client::connect(&addr.to_string(), Duration::from_millis(500)).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn remote_check_matches_a_local_check_byte_for_byte() {
    let (addr, server, dir) = start("check");
    let mut client = Client::connect(&addr.to_string(), TIMEOUT).unwrap();

    // A trace with a seeded defect, so the report has a diagnostic to disagree on.
    let trace =
        rprism_trace::testgen::GenProfile::RacyInterleaving.generate(&mut Rng::new(11), 300);
    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    let put = client.put_bytes(bytes.clone()).unwrap();

    let remote = client.check(put.hash, &[]).unwrap();
    let local = Engine::new().check_reader(&bytes[..]).unwrap();
    assert_eq!(remote, local, "structured reports must be identical");
    assert_eq!(remote.render_human(), local.render_human());
    assert_eq!(remote.render_json(), local.render_json());
    assert_eq!(remote.by_rule("data-race").count(), 1);

    // Severity overrides cross the wire and change the effective severity exactly
    // as they would locally.
    let overrides = vec![("data-race".to_owned(), rprism::Severity::Error)];
    let remote = client.check(put.hash, &overrides).unwrap();
    let config = rprism::CheckConfig::default()
        .with_severity("data-race", rprism::Severity::Error)
        .unwrap();
    let local = Engine::new().check_reader_with(&bytes[..], config).unwrap();
    assert_eq!(remote, local);
    assert_eq!(remote.worst(), Some(rprism::Severity::Error));

    // Unknown hashes and unknown rule ids are remote errors, not hangs; the
    // connection keeps serving afterwards.
    assert!(matches!(
        client.check(0xdead_beef, &[]),
        Err(ServerError::Remote(_))
    ));
    let bogus = vec![("no-such-rule".to_owned(), rprism::Severity::Info)];
    assert!(matches!(
        client.check(put.hash, &bogus),
        Err(ServerError::Remote(_))
    ));
    assert!(client.check(put.hash, &[]).is_ok());

    client.shutdown().unwrap();
    server.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_protocol_versions_are_refused_and_the_connection_survives() {
    let (addr, server, dir) = start("proto-version");

    // Only `PROTO_VERSION` decodes: older and newer version bytes are refused with
    // the structured version error, both by the decoder and over a live connection,
    // which keeps serving afterwards.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    for version in [2u8, 3, 4, 6] {
        let mut frame = Request::List.encode();
        frame[0] = version;
        assert!(
            matches!(
                Request::decode(&frame),
                Err(FormatError::UnsupportedVersion { found, .. }) if found == u16::from(version)
            ),
            "version {version} decoded"
        );
        raw.write_all(&frame_to_bytes(&frame)).unwrap();
        let reply = read_frame(&mut &raw, u64::MAX).unwrap().unwrap();
        match Response::decode(&reply).unwrap() {
            Response::Error { message } => {
                assert!(
                    message.contains("version"),
                    "version {version}: {message:?}"
                )
            }
            other => panic!("version {version}: expected an error frame, got {other:?}"),
        }
    }

    // Same connection, still alive.
    raw.write_all(&frame_to_bytes(&Request::List.encode()))
        .unwrap();
    let reply = read_frame(&mut &raw, u64::MAX).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&reply).unwrap(),
        Response::ListOk { entries } if entries.is_empty()
    ));
    raw.write_all(&frame_to_bytes(&Request::Shutdown.encode()))
        .unwrap();
    let reply = read_frame(&mut &raw, u64::MAX).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&reply).unwrap(),
        Response::ShutdownOk
    ));
    server.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A small program-evolution pair with a long common prefix, so a chunked watch
/// produces provisional matches before the divergent tail arrives.
fn evolution_pair(engine: &Engine) -> (rprism::PreparedTrace, rprism::PreparedTrace) {
    let old_src = "class C extends Object { Int x; Unit set(Int v) { this.x = v; } }
         main { let c = new C(0); c.set(1); c.set(2); c.set(3); c.set(4); }";
    let new_src = "class C extends Object { Int x; Unit set(Int v) { this.x = v; } }
         main { let c = new C(0); c.set(1); c.set(2); c.set(3); c.set(99); }";
    (
        engine.trace_source(old_src, "old").unwrap(),
        engine.trace_source(new_src, "new").unwrap(),
    )
}

#[test]
fn live_socket_watch_streams_events_and_matches_remote_diff() {
    let (addr, server, dir) = start("watch");
    let mut client = Client::connect(&addr.to_string(), TIMEOUT).unwrap();

    let engine = Engine::new();
    let (old, new) = evolution_pair(&engine);
    let old_hash = client
        .put_bytes(trace_to_bytes(old.trace(), Encoding::Binary).unwrap())
        .unwrap()
        .hash;
    let new_bytes = trace_to_bytes(new.trace(), Encoding::Binary).unwrap();
    let new_hash = client.put_bytes(new_bytes.clone()).unwrap().hash;
    let batch = client.diff(old_hash, new_hash, 5).unwrap();

    // Stream the new trace in small chunks over the real socket; provisional events
    // must flow before end of input, and the final verdict must equal the batch diff.
    client.watch_start(old_hash, 5).unwrap();
    let mut provisional = 0usize;
    let mut chunks = new_bytes.chunks(64);
    let last = chunks.next_back().unwrap_or(&[]);
    for chunk in chunks {
        provisional += client.watch_chunk(chunk.to_vec()).unwrap().len();
    }
    let (_, watched) = client.watch_finish(last.to_vec()).unwrap();
    assert!(
        provisional > 0,
        "no provisional events before end of input over the live socket"
    );
    assert_eq!(
        watched, batch,
        "live watch verdict diverged from the batch remote diff"
    );

    client.shutdown().unwrap();
    server.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
