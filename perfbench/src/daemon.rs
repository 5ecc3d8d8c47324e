//! The in-process daemon under test and its set-up: bind and startup scan,
//! corpus uploads, and cache warm-up.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rprism::Obs;
use rprism_server::{Client, RetryPolicy, Server, ServerConfig};

use crate::corpus::Corpus;
use crate::stats::median;
use crate::host::{self, HostSpeed};
use crate::{cpu, MAX_SEQUENCES};

/// Client connect, read and write bound.
const TIMEOUT: Duration = Duration::from_secs(60);

/// A running `rprism-server` on a loopback port, serving a repository in `dir`.
pub struct Daemon {
    pub addr: String,
    /// Content hashes of the corpus traces, by corpus index.
    pub hashes: Vec<u64>,
    dir: PathBuf,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// How a daemon differs from the default `ServerConfig`.
#[derive(Clone, Copy, Debug)]
pub struct Flavor {
    /// A prepared-cache budget below the default.
    pub cache_budget: Option<u64>,
    /// Run with `Obs::disabled()` instead of the default enabled observer.
    pub obs_disabled: bool,
}

impl Daemon {
    /// Binds a daemon over a fresh repository in `dir`, stores the corpus and
    /// warms its caches. This is the set-up `setup_s` measures.
    pub fn set_up(dir: &Path, flavor: Flavor, corpus: &Corpus) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut config = ServerConfig::new("127.0.0.1:0", dir);
        if let Some(budget) = flavor.cache_budget {
            config.cache_budget = budget;
            config.cache_low_watermark = budget / 2;
        }
        if flavor.obs_disabled {
            config.obs = Some(Obs::disabled());
        }
        let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let stop = server.stop_handle();
        let thread = std::thread::spawn(move || {
            if let Err(e) = server.run() {
                eprintln!("daemon stopped with an error: {e}");
            }
        });
        let mut daemon = Daemon {
            addr,
            hashes: Vec::new(),
            dir: dir.to_path_buf(),
            stop,
            thread: Some(thread),
        };
        // Each open connection pins a worker: this one closes before the timed
        // client connects.
        let mut admin = daemon.connect(0)?;
        for stored in &corpus.traces {
            let put = admin
                .put_bytes(stored.bytes.clone())
                .map_err(|e| format!("put: {e}"))?;
            daemon.hashes.push(put.hash);
        }
        let h = &daemon.hashes;
        for &(l, r) in &corpus.pairs {
            admin
                .diff(h[l], h[r], MAX_SEQUENCES)
                .map_err(|e| format!("warm diff: {e}"))?;
        }
        for &([a, b, c, d], mode) in &corpus.quads {
            admin
                .analyze([h[a], h[b], h[c], h[d]], Some(mode), MAX_SEQUENCES)
                .map_err(|e| format!("warm analyze: {e}"))?;
        }
        Ok(daemon)
    }

    /// A retrying client (idempotent requests retry transport failures and Busy).
    pub fn connect(&self, client: u64) -> Result<Client, String> {
        let policy = RetryPolicy::default().with_seed(0x5eed + client);
        Client::connect_with_retry(&self.addr, TIMEOUT, policy).map_err(|e| format!("connect: {e}"))
    }
}

/// Dropping a daemon stops it, waits for its thread, and removes its repository.
impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Median times of a daemon's repeated set-ups, in seconds.
pub struct SetUpTimes {
    /// CPU time at the nominal host speed (see `host.rs`).
    pub norm_s: f64,
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Sets a daemon up `times` times over fresh repositories and keeps the last,
/// returning it with the median set-up times. Each set-up follows a reference
/// reading.
pub fn set_up_median(
    work: &Path,
    times: usize,
    flavor: Flavor,
    corpus: &Corpus,
) -> Result<(Daemon, SetUpTimes), String> {
    let (mut norm_s, mut cpu_s, mut wall_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut speed = HostSpeed::default();
    let mut last = None;
    for i in 0..times {
        // Stop the previous daemon before timing the next one.
        drop(last.take());
        let reference_ms = speed.reference_ms();
        let start = Instant::now();
        let cpu_start = cpu::process_s();
        let daemon = Daemon::set_up(&work.join(format!("daemon-{i}")), flavor, corpus)?;
        wall_s.push(start.elapsed().as_secs_f64());
        let cpu = cpu::settled_since(cpu_start);
        cpu_s.push(cpu);
        norm_s.push(host::normalized(cpu, reference_ms));
        last = Some(daemon);
    }
    let daemon = last.ok_or("no set-up ran")?;
    let times = SetUpTimes {
        norm_s: median(&norm_s),
        cpu_s: median(&cpu_s),
        wall_s: median(&wall_s),
    };
    Ok((daemon, times))
}
