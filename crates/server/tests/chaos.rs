//! Chaos suite: crash, corruption and overload resilience of the trace service.
//!
//! Four fronts, one invariant each:
//!
//! 1. **Kill-point sweep.** A put is "crashed" at every fault point of its durable
//!    commit sequence (staging write, file fsync, rename, directory fsync); after
//!    each crash the repository restarts and must show *zero torn state*: every
//!    visible blob is complete and re-derivable, orphaned staging files are swept,
//!    and re-putting the interrupted trace converges on the same content hash.
//! 2. **Pre-corrupted blobs.** A repository whose blob was damaged while the server
//!    was down quarantines it at startup and keeps serving; re-upload heals it.
//! 3. **Unreliable network.** A 100-request mixed workload through a proxy that
//!    drops, cuts and resets ~20% of connections (seeded, deterministic) must
//!    produce results byte-identical to the same workload on a fault-free path —
//!    the retrying client's idempotency gate at work.
//! 4. **Overload.** A saturated server sheds connections with an explicit `Busy`
//!    frame instead of hanging them, and a retrying client rides it out.
//!
//! The sweep's fault schedule is seeded; set `RPRISM_CHAOS_SEED` to replay a CI
//! failure (the randomized CI job prints the seed it chose).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rprism::Engine;
use rprism_format::fault::{Fault, FaultPlan};
use rprism_format::frame::{frame_to_bytes, read_frame};
use rprism_format::{trace_to_bytes, Encoding};
use rprism_server::proto::{Request, Response};
use rprism_server::{
    Client, FaultyFs, RepoOptions, RetryPolicy, Server, ServerConfig, ServerError, StdFs, TraceRepo,
};
use rprism_trace::testgen::{arbitrary_trace, Rng};

const TIMEOUT: Duration = Duration::from_secs(10);

fn temp_repo(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rprism-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    trace_to_bytes(&arbitrary_trace(&mut rng, len), Encoding::Binary).unwrap()
}

/// The chaos seed: fixed by default, overridable to replay a randomized CI run.
fn chaos_seed() -> u64 {
    std::env::var("RPRISM_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xc4a0_5eed)
}

// ---------------------------------------------------------------------------
// 1. Kill-point sweep
// ---------------------------------------------------------------------------

/// Every fault point of the durable put path, with the fault that "crashes" it.
fn kill_points() -> Vec<(&'static str, Fault)> {
    vec![
        ("fs:write", Fault::Error(std::io::ErrorKind::Other)),
        ("fs:write", Fault::Short(0)),
        ("fs:write", Fault::Short(9)),
        ("fs:sync_file", Fault::Error(std::io::ErrorKind::Other)),
        ("fs:rename", Fault::Error(std::io::ErrorKind::Other)),
        ("fs:sync_dir", Fault::Error(std::io::ErrorKind::Other)),
    ]
}

#[test]
fn kill_point_sweep_leaves_zero_torn_state_after_restart() {
    let blobs: Vec<Vec<u8>> = (0..3).map(|i| sample_bytes(0x1000 + i, 40)).collect();
    let expected: Vec<u64> = blobs
        .iter()
        .map(|b| rprism_format::content_summary(b.as_slice()).unwrap().hash)
        .collect();

    // Each kill point is "crashed into" at each put index: `kill_at = k` lets the
    // first k puts commit, then the k+1-th dies at the fault point.
    for (site, fault) in kill_points() {
        for kill_at in 0..blobs.len() as u64 {
            let dir = temp_repo(&format!("kill-{}-{kill_at}", site.replace(':', "-")));
            let plan = FaultPlan::seeded(chaos_seed()).fail_from(site, kill_at, fault.clone());
            let committed = {
                let repo = TraceRepo::open_with(
                    &dir,
                    Engine::new(),
                    RepoOptions {
                        fs: Arc::new(FaultyFs::new(StdFs, plan)),
                        ..RepoOptions::default()
                    },
                )
                .unwrap();
                let mut committed = Vec::new();
                for (i, bytes) in blobs.iter().enumerate() {
                    match repo.put_bytes(bytes) {
                        Ok((hash, _, _)) => {
                            assert_eq!(hash, expected[i], "{site}@{kill_at}: hash drifted");
                            committed.push(i);
                        }
                        Err(_) => break, // the crash; nothing after it runs
                    }
                }
                assert_eq!(
                    committed.len() as u64,
                    kill_at,
                    "{site}@{kill_at}: puts before the kill point must commit"
                );
                committed
                // `repo` dropped here: the "machine dies".
            };

            // Restart on a clean filesystem. The repository must come up with
            // exactly the committed blobs, all complete and re-derivable.
            let repo = TraceRepo::open_with(&dir, Engine::new(), RepoOptions::default()).unwrap();
            let stats = repo.stats();
            assert_eq!(
                stats.blobs,
                committed.len() as u64,
                "{site}@{kill_at}: visible blobs after restart"
            );
            assert_eq!(
                stats.quarantined, 0,
                "{site}@{kill_at}: a torn blob became visible"
            );
            for &i in &committed {
                assert_eq!(repo.get_bytes(expected[i]).unwrap(), blobs[i]);
                repo.prepared(expected[i])
                    .unwrap_or_else(|e| panic!("{site}@{kill_at}: blob {i} unpreparable: {e}"));
            }
            // No staging litter survives recovery.
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                assert_ne!(
                    path.extension().and_then(|e| e.to_str()),
                    Some("tmp"),
                    "{site}@{kill_at}: orphaned staging file survived recovery: {path:?}"
                );
            }
            // The interrupted put retries to convergence: same hash, stored once.
            for (i, bytes) in blobs.iter().enumerate() {
                let (hash, deduped, _) = repo.put_bytes(bytes).unwrap();
                assert_eq!(hash, expected[i]);
                assert_eq!(
                    deduped,
                    committed.contains(&i),
                    "{site}@{kill_at}: dedup state"
                );
                repo.prepared(hash).unwrap();
            }
            assert_eq!(repo.stats().blobs, blobs.len() as u64);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Pre-corrupted blobs through the full server
// ---------------------------------------------------------------------------

#[test]
fn server_quarantines_precorrupted_blobs_and_stays_up() {
    let dir = temp_repo("precorrupt");
    let bytes = sample_bytes(0x2000, 50);
    let keep = sample_bytes(0x2001, 30);
    let (hash, keep_hash) = {
        let repo = TraceRepo::open_with(&dir, Engine::new(), RepoOptions::default()).unwrap();
        (
            repo.put_bytes(&bytes).unwrap().0,
            repo.put_bytes(&keep).unwrap().0,
        )
    };
    // Bitrot while the service is down: truncate one blob mid-file.
    let blob = dir.join(format!("{hash:016x}.trace"));
    let full = std::fs::read(&blob).unwrap();
    std::fs::write(&blob, &full[..full.len() / 2]).unwrap();

    // The server binds anyway — corruption is quarantined, not fatal.
    let server = Server::bind(ServerConfig::new("127.0.0.1:0", &dir)).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(&addr.to_string(), TIMEOUT).unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats.blobs, 1, "only the intact blob is served");
    assert_eq!(stats.quarantined, 1);
    assert!(dir.join(format!("quarantine/{hash:016x}.trace")).is_file());
    assert_eq!(client.get(keep_hash).unwrap(), keep);

    // Re-uploading the damaged trace heals it under the same hash.
    let put = client.put_bytes(bytes.clone()).unwrap();
    assert_eq!(put.hash, hash);
    assert!(!put.deduped);
    assert_eq!(client.get(hash).unwrap(), bytes);

    client.shutdown().unwrap();
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// 3. Unreliable network: the flaky proxy
// ---------------------------------------------------------------------------

/// Per-connection fate, decided deterministically at accept time.
#[derive(Clone, Copy, Debug)]
enum Fate {
    /// Pipe both directions faithfully.
    Healthy,
    /// Close immediately: a connection drop before any exchange.
    DropNow,
    /// Forward the request, then cut the server→client stream after `n` bytes —
    /// `n = 1` cuts just after the response's length prefix began, larger `n`
    /// resets mid-frame or between exchanges.
    CutResponse(usize),
}

/// A TCP proxy that injects connection-level faults on a seeded schedule: ~20% of
/// accepted connections are dropped or reset. Fault decisions happen on the accept
/// thread, so a fixed seed gives a fixed fate sequence.
fn start_proxy(
    upstream: SocketAddr,
    plan: FaultPlan,
) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut conns = Vec::new();
        while !stop_flag.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((downstream, _)) => {
                    let fate = if plan.chance(20) {
                        if plan.chance(25) {
                            Fate::DropNow
                        } else {
                            Fate::CutResponse(1 + plan.pick(40) as usize)
                        }
                    } else {
                        Fate::Healthy
                    };
                    conns.push(std::thread::spawn(move || {
                        proxy_connection(downstream, upstream, fate)
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
        }
        for conn in conns {
            let _ = conn.join();
        }
    });
    (addr, stop, handle)
}

fn proxy_connection(downstream: TcpStream, upstream: SocketAddr, fate: Fate) {
    if matches!(fate, Fate::DropNow) {
        let _ = downstream.shutdown(Shutdown::Both);
        return;
    }
    let Ok(up) = TcpStream::connect(upstream) else {
        return;
    };
    let mut client_read = downstream.try_clone().unwrap();
    let mut server_write = up.try_clone().unwrap();
    // Request direction: faithful, until either side closes.
    let forward = std::thread::spawn(move || {
        let _ = std::io::copy(&mut client_read, &mut server_write);
        let _ = server_write.shutdown(Shutdown::Write);
    });
    let mut server_read = up;
    let mut client_write = downstream;
    match fate {
        Fate::Healthy => {
            let _ = std::io::copy(&mut server_read, &mut client_write);
        }
        Fate::CutResponse(mut budget) => {
            let mut buf = [0u8; 64];
            while budget > 0 {
                let want = budget.min(buf.len());
                match server_read.read(&mut buf[..want]) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if client_write.write_all(&buf[..n]).is_err() {
                            break;
                        }
                        budget -= n;
                    }
                }
            }
            // The reset: both directions die mid-conversation.
            let _ = client_write.shutdown(Shutdown::Both);
            let _ = server_read.shutdown(Shutdown::Both);
        }
        Fate::DropNow => unreachable!(),
    }
    let _ = forward.join();
}

/// The 100-request mixed workload. Returns a transcript of every
/// retry-invariant result field; two runs of this function against equivalent
/// repositories must produce byte-identical transcripts. (`deduped` is excluded
/// deliberately: a retried put whose first attempt committed server-side reports
/// `deduped = true` — same blob, different flag — which is exactly the idempotent
/// convergence the retry layer promises.)
fn mixed_workload(client: &mut Client, blobs: &[Vec<u8>]) -> Vec<String> {
    let mut transcript = Vec::new();
    let mut hashes = Vec::new();
    for (i, bytes) in blobs.iter().enumerate() {
        let put = client.put_bytes(bytes.clone()).unwrap();
        hashes.push(put.hash);
        transcript.push(format!(
            "put {i}: {:016x} entries={}",
            put.hash, put.entries
        ));
    }
    let mut requests = blobs.len();
    let mut i = 0usize;
    while requests < 100 {
        match i % 4 {
            0 => {
                let l = hashes[i % hashes.len()];
                let r = hashes[(i / 2 + 1) % hashes.len()];
                let diff = client.diff(l, r, 3).unwrap();
                transcript.push(format!(
                    "diff {i}: n={} seqs={} pairs={} ops={} rendered={}B",
                    diff.num_differences,
                    diff.num_sequences(),
                    diff.pairs.len(),
                    diff.compare_ops,
                    diff.rendered.len()
                ));
            }
            1 => {
                let h = hashes[i % hashes.len()];
                let bytes = client.get(h).unwrap();
                transcript.push(format!("get {i}: {:016x} {}B", h, bytes.len()));
            }
            2 => {
                let listing = client.list().unwrap();
                let mut line = format!("list {i}:");
                for entry in &listing {
                    line.push_str(&format!(" {:016x}/{}", entry.hash, entry.entries));
                }
                transcript.push(line);
            }
            _ => {
                let stats = client.stats().unwrap();
                transcript.push(format!("stats {i}: blobs={}", stats.blobs));
            }
        }
        i += 1;
        requests += 1;
    }
    transcript
}

#[test]
fn faulty_network_workload_matches_the_fault_free_run_exactly() {
    let blobs: Vec<Vec<u8>> = (0..5).map(|i| sample_bytes(0x3000 + i, 35)).collect();

    // Fault-free reference run: straight to a fresh server.
    let clean_dir = temp_repo("net-clean");
    let clean = Server::bind(ServerConfig::new("127.0.0.1:0", &clean_dir)).unwrap();
    let clean_addr = clean.local_addr().unwrap();
    let clean_handle = std::thread::spawn(move || clean.run().unwrap());
    let mut clean_client = Client::connect(&clean_addr.to_string(), TIMEOUT).unwrap();
    let reference = mixed_workload(&mut clean_client, &blobs);
    clean_client.shutdown().unwrap();
    clean_handle.join().unwrap();

    // Faulty run: identical workload through the flaky proxy, retrying client.
    let dir = temp_repo("net-faulty");
    let mut config = ServerConfig::new("127.0.0.1:0", &dir);
    config.threads = 4;
    config.backlog = 8;
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    let seed = chaos_seed();
    let (proxy_addr, proxy_stop, proxy_handle) = start_proxy(addr, FaultPlan::seeded(seed));

    let policy = RetryPolicy {
        max_attempts: 8,
        base: Duration::from_millis(10),
        cap: Duration::from_millis(200),
        seed,
    };
    let mut client = Client::connect_with_retry(&proxy_addr.to_string(), TIMEOUT, policy).unwrap();
    let transcript = mixed_workload(&mut client, &blobs);
    assert_eq!(
        transcript, reference,
        "seed {seed:#x}: faulty-path results drifted from the fault-free run"
    );
    drop(client);

    // Teardown bypasses the proxy: shutdown is deliberately not retried.
    let mut direct = Client::connect(&addr.to_string(), TIMEOUT).unwrap();
    direct.shutdown().unwrap();
    handle.join().unwrap();
    proxy_stop.store(true, Ordering::SeqCst);
    proxy_handle.join().unwrap();
    std::fs::remove_dir_all(&clean_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// 4. Overload: explicit Busy shed, retry rides it out
// ---------------------------------------------------------------------------

#[test]
fn saturated_server_sheds_with_busy_and_a_retrying_client_recovers() {
    let dir = temp_repo("busy");
    let mut config = ServerConfig::new("127.0.0.1:0", &dir);
    config.threads = 2;
    config.backlog = 1;
    config.busy_retry_ms = 40;
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    // Occupy both workers and the one backlog slot with idle connections.
    // Staggered, so each is dequeued by a worker before the next arrives and the
    // shed below is guaranteed to hit the client, not an idle conn.
    let idle: Vec<TcpStream> = (0..3)
        .map(|_| {
            let conn = TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            conn
        })
        .collect();

    // The next connection is shed with an explicit Busy frame, not parked.
    let mut no_retry = Client::connect(&addr.to_string(), TIMEOUT).unwrap();
    match no_retry.list() {
        Err(ServerError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 40),
        other => panic!("expected Busy, got {other:?}"),
    }

    // A retrying client outlasts the saturation: free the workers mid-backoff.
    let addr_text = addr.to_string();
    let retrier = std::thread::spawn(move || {
        let policy = RetryPolicy {
            max_attempts: 10,
            base: Duration::from_millis(20),
            cap: Duration::from_millis(200),
            seed: 7,
        };
        let mut client = Client::connect_with_retry(&addr_text, TIMEOUT, policy).unwrap();
        let listing = client.list().unwrap();
        client.shutdown().unwrap();
        listing
    });
    std::thread::sleep(Duration::from_millis(120));
    drop(idle);
    assert!(retrier.join().unwrap().is_empty());
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Client-side partial responses (scripted raw servers)
// ---------------------------------------------------------------------------

#[test]
fn partial_responses_are_structured_errors_not_hangs() {
    // Two scripted connections: (a) only a length prefix, then close; (b) half a
    // valid response frame, then close.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = std::thread::spawn(move || {
        // (a) Length prefix declaring 32 payload bytes, then silence and close.
        let (mut conn, _) = listener.accept().unwrap();
        let _ = read_frame(&mut &conn, u64::MAX);
        conn.write_all(&[0x20]).unwrap();
        drop(conn);
        // (b) Half of a real ListOk frame, then close.
        let (mut conn, _) = listener.accept().unwrap();
        let _ = read_frame(&mut &conn, u64::MAX);
        let full = frame_to_bytes(
            &Response::ListOk {
                entries: Vec::new(),
            }
            .encode(),
        );
        conn.write_all(&full[..full.len() / 2]).unwrap();
        drop(conn);
    });

    for case in ["length prefix only", "mid-frame close"] {
        let start = Instant::now();
        let mut client = Client::connect(&addr.to_string(), Duration::from_secs(2)).unwrap();
        let outcome = client.list();
        assert!(
            matches!(outcome, Err(ServerError::Io(_) | ServerError::Proto(_))),
            "{case}: expected a structured transport error, got {outcome:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{case}: error took {:?} — deadline not honored",
            start.elapsed()
        );
    }
    script.join().unwrap();
}

#[test]
fn retry_succeeds_once_a_flaky_server_recovers() {
    // First exchange: request read, connection killed mid-response (after the
    // length prefix). Every later connection answers correctly.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let _ = read_frame(&mut &conn, u64::MAX);
        conn.write_all(&[0x08, 0x01]).unwrap(); // torn: prefix + 1 payload byte
        drop(conn);
        // Recovery: serve real answers until the client is satisfied.
        let (mut conn, _) = listener.accept().unwrap();
        while let Ok(Some(payload)) = read_frame(&mut &conn, u64::MAX) {
            assert!(matches!(Request::decode(&payload), Ok(Request::List)));
            conn.write_all(&frame_to_bytes(
                &Response::ListOk {
                    entries: Vec::new(),
                }
                .encode(),
            ))
            .unwrap();
        }
    });

    let policy = RetryPolicy {
        max_attempts: 4,
        base: Duration::from_millis(10),
        cap: Duration::from_millis(100),
        seed: 11,
    };
    let mut client = Client::connect_with_retry(&addr.to_string(), TIMEOUT, policy).unwrap();
    // The first attempt hits the torn response; the retry reconnects and succeeds.
    assert!(client.list().unwrap().is_empty());
    drop(client);
    script.join().unwrap();
}
