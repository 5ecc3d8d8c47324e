//! The content-addressed trace repository: blobs on disk, prepared handles in a
//! byte-budgeted LRU cache.
//!
//! Storage is keyed by [`rprism_format::content_hash`] — the encoding-independent
//! FNV-64 of the trace's canonical binary form — so the *content* is the identity:
//! uploading the same trace twice, or once as `.rtr` and once as its JSONL conversion,
//! stores exactly one blob. Blobs keep the bytes the client sent (`<hash>.trace`,
//! either encoding; readers sniff), and the startup scan re-derives every blob's
//! summary from its content, verifying the filename hash in the process — a repo
//! directory is self-describing, with no index file to drift.
//!
//! Storage is **crash-safe**: a put stages the blob under a `.tmp` name, fsyncs the
//! file, renames it to its content-addressed name, then fsyncs the directory — the
//! rename is the commit point, so a crash at any instant leaves either no trace of
//! the put or a fully durable blob, never a half-written file under a valid blob
//! name. Startup recovery finishes what crashes started: orphaned `.tmp` staging
//! files are swept (and counted in [`WireStats::orphans_removed`]), and any blob
//! that fails content verification — at startup *or* later when read back — is
//! moved into `quarantine/` rather than taking the repository down; requests for a
//! quarantined hash answer with [`ServerError::CorruptTrace`], and re-uploading the
//! trace heals the entry. Every disk operation goes through the [`RepoFs`] seam
//! (see [`crate::fs`]) so the chaos suite can kill a put at each step and prove
//! these invariants.
//!
//! Above the blobs sits the hot cache: a [`SharedCache`] of the [`PreparedTrace`]
//! handles [`Engine::load_prepared_reader`] streams in, keyed by content hash and
//! bounded by a **byte budget** with least-recently-used eviction. A handle weighs its
//! blob's on-disk size: a cheap, deterministic proxy proportional to the trace.
//! Eviction drops handles only; an evicted trace streams back in from its blob on its
//! next use, and a request using an evicted handle keeps its `Arc` clone alive. Loads
//! are **single-flight**: concurrent cold requests for one hash stream its blob once,
//! and the others wait (`cache.stampede_waits`) and count as hits. A failed load caches
//! nothing. [`TraceRepo::shrink_cache`] evicts under memory pressure, so reads degrade
//! to re-streaming and are never refused.
//!
//! One deliberate slack: evicting a handle does not purge the engine's pair-level
//! correlation cache, so correlations of evicted handles linger until LRU churn
//! pushes them out. That lingering set is hard-bounded by the engine's correlation
//! capacity (128 pairs), so it adds a bounded constant on top of the byte budget
//! rather than growing with repository churn.
//!
//! [`TraceRepo::stats`] answers in the wire's own [`WireStats`]: the server sends
//! the snapshot as it is, after setting the one figure only it knows,
//! `requests_served`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rprism::{CacheOutcome, Engine, PreparedTrace, SharedCache};
use rprism_format::content_summary;
use rprism_obs::{Counter, Gauge, Obs};

use crate::fs::{RepoFs, StdFs};
use crate::proto::{RepoEntry, WireStats};
use crate::{Result, ServerError};

/// Default prepared-cache byte budget (256 MiB of blob-weight).
pub const DEFAULT_CACHE_BUDGET: u64 = 256 * 1024 * 1024;

const BLOB_EXTENSION: &str = "trace";

/// Subdirectory that receives blobs failing content verification.
const QUARANTINE_DIR: &str = "quarantine";

/// How a [`TraceRepo`] is opened: cache budget, durability, and the filesystem
/// implementation (the chaos suite swaps in [`crate::fs::FaultyFs`] here).
#[derive(Clone, Debug)]
pub struct RepoOptions {
    /// Prepared-cache byte budget (blob-weight), clamped to at least 1.
    pub cache_budget: u64,
    /// When `true` (the default), every put fsyncs the staged blob and the
    /// repository directory around the rename-commit. Turning this off trades
    /// crash-safety for put throughput — an OS crash can then lose or tear blobs
    /// that a client saw acknowledged.
    pub durable: bool,
    /// The filesystem the repository performs all disk operations through.
    pub fs: Arc<dyn RepoFs>,
    /// The observability domain the repository's counters, gauges and spans
    /// (`repo.put` / `repo.get` / `repo.load`, `cache.*`) register in. With the
    /// default disabled observer the counters still count — they are just not
    /// registered anywhere — so [`TraceRepo::stats`] works identically either way.
    pub obs: Obs,
}

impl Default for RepoOptions {
    fn default() -> Self {
        RepoOptions {
            cache_budget: DEFAULT_CACHE_BUDGET,
            durable: true,
            fs: Arc::new(StdFs),
            obs: Obs::disabled(),
        }
    }
}

/// What the repository knows about one stored blob.
#[derive(Clone, Debug)]
struct BlobInfo {
    name: String,
    entries: u64,
    bytes: u64,
}

/// The content-addressed trace store shared by every server worker.
#[derive(Debug)]
pub struct TraceRepo {
    dir: PathBuf,
    engine: Engine,
    fs: Arc<dyn RepoFs>,
    durable: bool,
    cache_budget: u64,
    index: Mutex<BTreeMap<u64, BlobInfo>>,
    /// Hash → hot handle, weighted by the blob's bytes.
    cache: SharedCache<u64, PreparedTrace>,
    /// The observability domain repository spans (`repo.put` / `repo.get` /
    /// `repo.load`) record into.
    obs: Obs,
    /// Registered counters (`repo.*` / `cache.*` names). [`TraceRepo::stats`]
    /// reads these same cells — the registry is the single source of truth.
    hits: Counter,
    /// One per load attempt, failed or not.
    misses: Counter,
    evictions: Counter,
    dedup_hits: Counter,
    orphans_removed: Counter,
    quarantined: Counter,
    cache_shrinks: Counter,
    /// Cold misses that waited on another worker's in-flight load of the same
    /// hash instead of streaming the blob themselves.
    stampede_waits: Counter,
    /// Point-in-time gauges, refreshed whenever [`TraceRepo::stats`] assembles a
    /// snapshot (they mirror its fields for scrapes).
    blobs_gauge: Gauge,
    blob_bytes_gauge: Gauge,
    prepared_gauge: Gauge,
    cache_weight_gauge: Gauge,
    /// Distinguishes the staging files of concurrent puts of identical content.
    staging_seq: AtomicU64,
}

impl TraceRepo {
    /// Opens a repository over an **existing, writable** directory, scanning — and
    /// content-verifying — the blobs already in it. The engine is the analysis
    /// session every request shares; its prepared-pair correlation cache is what
    /// makes repeated remote diffs cheap. [`RepoOptions`] sets the cache budget,
    /// the durability toggle and a pluggable [`RepoFs`] for fault injection.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Repo`] when the directory is missing, not a
    /// directory, or not writable. Corrupt or misnamed blobs do **not** fail the
    /// open — they are quarantined (see the module docs).
    pub fn open_with(dir: impl AsRef<Path>, engine: Engine, options: RepoOptions) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let fs = options.fs;
        if !dir.is_dir() {
            return Err(ServerError::Repo(format!(
                "repository directory {} does not exist (create it first)",
                dir.display()
            )));
        }
        // Probe writability up front so `serve` fails at startup, not on the first put.
        let probe = dir.join(".rprism-write-probe");
        std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&probe)
            .and_then(|_| std::fs::remove_file(&probe))
            .map_err(|e| {
                ServerError::Repo(format!(
                    "repository directory {} is not writable: {e}",
                    dir.display()
                ))
            })?;

        // Startup recovery: sweep crash leftovers, verify every blob, quarantine
        // what fails — the repository comes up on whatever is intact.
        let mut index = BTreeMap::new();
        let mut orphans_removed = 0u64;
        let mut quarantined = 0u64;
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| ServerError::Repo(format!("cannot scan {}: {e}", dir.display())))?;
        for entry in entries {
            let path = entry
                .map_err(|e| ServerError::Repo(format!("cannot scan {}: {e}", dir.display())))?
                .path();
            match path.extension().and_then(|e| e.to_str()) {
                Some(BLOB_EXTENSION) if path.is_file() => {}
                // Staging leftovers of a put that crashed mid-write: never visible
                // under a valid blob name, but swept (and counted) so crash-restart
                // cycles cannot accumulate dead blob-sized files.
                Some("tmp") => {
                    if fs.remove_file(&path).is_ok() {
                        orphans_removed += 1;
                    }
                    continue;
                }
                _ => continue,
            }
            let declared = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            let verified = fs
                .read(&path)
                .map_err(rprism_format::FormatError::Io)
                .and_then(|bytes| Ok((content_summary(&bytes)?, bytes.len() as u64)));
            let (summary, bytes) = match verified {
                Ok((summary, bytes)) if declared == Some(summary.hash) => (summary, bytes),
                // Undecodable or misnamed: preserve the bytes for forensics, keep
                // the repository up.
                Ok(_) | Err(_) => {
                    if quarantine_file(fs.as_ref(), &dir, &path) {
                        quarantined += 1;
                    }
                    continue;
                }
            };
            index.insert(
                summary.hash,
                BlobInfo {
                    name: summary.meta.name,
                    entries: summary.entries,
                    bytes,
                },
            );
        }
        let obs = options.obs;
        // An enabled observer is threaded into the engine too (sharing its
        // correlation cache), so repository loads record the pipeline phase spans
        // into the same domain the repo counters live in.
        let engine = if obs.is_enabled() {
            engine.with_obs(obs.clone())
        } else {
            engine
        };
        let cache_budget = options.cache_budget.max(1);
        let repo = TraceRepo {
            dir,
            engine,
            fs,
            durable: options.durable,
            cache_budget,
            index: Mutex::new(index),
            cache: SharedCache::new(cache_budget),
            hits: obs.counter("cache.hits"),
            misses: obs.counter("cache.misses"),
            evictions: obs.counter("cache.evictions"),
            dedup_hits: obs.counter("repo.dedup_hits"),
            orphans_removed: obs.counter("repo.orphans_removed"),
            quarantined: obs.counter("repo.quarantined"),
            cache_shrinks: obs.counter("cache.shrinks"),
            stampede_waits: obs.counter("cache.stampede_waits"),
            blobs_gauge: obs.gauge("repo.blobs"),
            blob_bytes_gauge: obs.gauge("repo.blob_bytes"),
            prepared_gauge: obs.gauge("cache.prepared"),
            cache_weight_gauge: obs.gauge("cache.weight_bytes"),
            staging_seq: AtomicU64::new(0),
            obs,
        };
        repo.orphans_removed.add(orphans_removed);
        repo.quarantined.add(quarantined);
        Ok(repo)
    }

    /// The shared analysis engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The blob path of a content hash (whether or not it exists yet).
    fn blob_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.{BLOB_EXTENSION}"))
    }

    /// Moves `path` into `quarantine/`, counting it. Best-effort: a quarantine
    /// that itself fails leaves the file in place (it stays out of the index
    /// either way).
    fn quarantine(&self, path: &Path) {
        if quarantine_file(self.fs.as_ref(), &self.dir, path) {
            self.quarantined.inc();
        }
    }

    /// Stores a serialized trace, deduplicating by content: the upload is validated
    /// and hashed in one pass (a validating walk over a canonical binary upload, a
    /// decode-and-re-encode otherwise — see [`rprism_format::content_hash`]), and when
    /// the repository already holds the content — regardless of which encoding either
    /// upload used — nothing is written.
    /// Returns `(hash, deduped, entries)`.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Format`] for corrupt uploads and [`ServerError::Io`]
    /// when the blob cannot be written.
    pub fn put_bytes(&self, bytes: &[u8]) -> Result<(u64, bool, u64)> {
        let _put = self.obs.span("repo.put");
        // Hash/validate outside the lock, so concurrent requests never wait on it.
        let summary = content_summary(bytes).map_err(ServerError::Format)?;
        if self
            .index
            .lock()
            .expect("repo index poisoned")
            .contains_key(&summary.hash)
        {
            self.dedup_hits.inc();
            return Ok((summary.hash, true, summary.entries));
        }
        // Stage the blob *outside* the lock (the disk write is the slow part and must
        // not stall concurrent requests), under a writer-unique name so racing puts of
        // the same content cannot trample each other's staging file. The durable
        // commit sequence is write → fsync file → rename → fsync directory: the
        // rename is the commit point, so a crash at any step leaves at worst an
        // orphaned `.tmp` (swept at the next open), never a torn blob under a valid
        // blob name.
        let path = self.blob_path(summary.hash);
        let staging = self.dir.join(format!(
            "{:016x}-{}.tmp",
            summary.hash,
            self.staging_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let staged = self.fs.write_all(&staging, bytes).and_then(|()| {
            if self.durable {
                self.fs.sync_file(&staging)
            } else {
                Ok(())
            }
        });
        if let Err(e) = staged {
            self.fs.remove_file(&staging).ok();
            return Err(e.into());
        }
        let mut index = self.index.lock().expect("repo index poisoned");
        if index.contains_key(&summary.hash) {
            // A racing put of the same content won; ours is redundant.
            drop(index);
            self.dedup_hits.inc();
            self.fs.remove_file(&staging).ok();
            return Ok((summary.hash, true, summary.entries));
        }
        if let Err(e) = self.fs.rename(&staging, &path) {
            self.fs.remove_file(&staging).ok();
            return Err(e.into());
        }
        if self.durable {
            if let Err(e) = self.fs.sync_dir(&self.dir) {
                // The commit's durability is unknown — report failure and undo the
                // visible entry so the caller's retry (puts are idempotent) converges
                // on a fully acknowledged-and-durable blob or a clean error.
                self.fs.remove_file(&path).ok();
                return Err(e.into());
            }
        }
        index.insert(
            summary.hash,
            BlobInfo {
                name: summary.meta.name.clone(),
                entries: summary.entries,
                bytes: bytes.len() as u64,
            },
        );
        Ok((summary.hash, false, summary.entries))
    }

    /// The stored bytes of a blob.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownTrace`] for hashes the repository does not hold.
    pub fn get_bytes(&self, hash: u64) -> Result<Vec<u8>> {
        let _get = self.obs.span("repo.get");
        if !self
            .index
            .lock()
            .expect("repo index poisoned")
            .contains_key(&hash)
        {
            return Err(ServerError::UnknownTrace { hash });
        }
        Ok(self.fs.read(&self.blob_path(hash))?)
    }

    /// The prepared handle of a stored trace: from the hot cache when present, else
    /// streamed in from its blob via [`Engine::load_prepared_reader`] (one
    /// bounded-memory pass — the server never materializes a full `Trace` for a
    /// repository read) and cached under the byte budget.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownTrace`] for unknown hashes,
    /// [`ServerError::CorruptTrace`] when the blob fails verification on the way
    /// back in (it is quarantined and dropped from the index — the repository
    /// stays up), and [`ServerError::Io`] for transient read failures (the blob
    /// stays; the next request retries the load).
    pub fn prepared(&self, hash: u64) -> Result<PreparedTrace> {
        let weight = {
            let index = self.index.lock().expect("repo index poisoned");
            index
                .get(&hash)
                .map(|info| info.bytes)
                .ok_or(ServerError::UnknownTrace { hash })?
        };
        let (handle, outcome) = self.cache.get_or_try_insert_with(hash, weight, || {
            self.misses.inc();
            let load_span = self.obs.span("repo.load");
            let loaded = self
                .engine
                .load_prepared_reader(self.fs.open_read(&self.blob_path(hash))?);
            drop(load_span);
            match loaded {
                Ok(handle) => Ok(handle),
                // Plain I/O errors (disk hiccup, injected fault) are transient: the
                // blob stays, and the next request retries the load.
                Err(rprism::Error::Format(rprism_format::FormatError::Io(io))) => {
                    Err(ServerError::Io(io))
                }
                // An unreadable byte (bad magic, failed checksum, truncation) means
                // the blob on disk no longer matches what verification admitted:
                // quarantine it and drop the entry rather than erroring forever —
                // the structured `CorruptTrace` answer tells the client a re-upload
                // heals it.
                Err(rprism::Error::Format(_)) => {
                    self.index
                        .lock()
                        .expect("repo index poisoned")
                        .remove(&hash);
                    self.quarantine(&self.blob_path(hash));
                    Err(ServerError::CorruptTrace { hash })
                }
                Err(e) => Err(e.into()),
            }
        })?;
        match outcome {
            CacheOutcome::Hit => self.hits.inc(),
            CacheOutcome::Waited => {
                self.stampede_waits.inc();
                self.hits.inc();
            }
            CacheOutcome::Built { evicted } => self.evictions.add(evicted as u64),
        }
        Ok(handle)
    }

    /// Evicts least-recently-used prepared handles until the cache weighs at most
    /// `target_bytes`, returning how many were dropped. This is the memory-pressure
    /// valve the server pulls when it sheds load: reads *degrade* to re-streaming
    /// blobs (a latency cost), they are never refused. In-flight requests keep
    /// their `Arc` clones alive, so shrinking is always safe.
    pub fn shrink_cache(&self, target_bytes: u64) -> u64 {
        let evicted = self.cache.shrink_to(target_bytes) as u64;
        if evicted > 0 {
            self.evictions.add(evicted);
            self.cache_shrinks.inc();
        }
        evicted
    }

    /// The repository listing, ordered by content hash.
    pub fn list(&self) -> Vec<RepoEntry> {
        self.index
            .lock()
            .expect("repo index poisoned")
            .iter()
            .map(|(&hash, info)| RepoEntry {
                hash,
                name: info.name.clone(),
                entries: info.entries,
                bytes: info.bytes,
            })
            .collect()
    }

    /// A statistics snapshot. Counters come straight off the registry cells the
    /// repository increments (one source of truth), the correlation figures off the
    /// engine, and the point-in-time gauges (`repo.blobs` / `repo.blob_bytes` /
    /// `cache.prepared` / `cache.weight_bytes`) are refreshed here so a metrics
    /// scrape that snapshots after calling this sees the same figures.
    /// `requests_served` is left 0: the server counts requests and sets it.
    pub fn stats(&self) -> WireStats {
        let (blobs, blob_bytes) = {
            let index = self.index.lock().expect("repo index poisoned");
            (
                index.len() as u64,
                index.values().map(|info| info.bytes).sum(),
            )
        };
        let prepared_cached = self.cache.len() as u64;
        let prepared_cached_bytes = self.cache.weight();
        self.blobs_gauge.set(blobs as i64);
        self.blob_bytes_gauge.set(blob_bytes as i64);
        self.prepared_gauge.set(prepared_cached as i64);
        self.cache_weight_gauge.set(prepared_cached_bytes as i64);
        WireStats {
            blobs,
            blob_bytes,
            prepared_cached,
            prepared_cached_bytes,
            cache_budget_bytes: self.cache_budget,
            prepared_hits: self.hits.get(),
            prepared_misses: self.misses.get(),
            evictions: self.evictions.get(),
            dedup_hits: self.dedup_hits.get(),
            requests_served: 0,
            correlation_builds: self.engine.correlation_builds(),
            cached_correlations: self.engine.cached_correlations() as u64,
            orphans_removed: self.orphans_removed.get(),
            quarantined: self.quarantined.get(),
            cache_shrinks: self.cache_shrinks.get(),
        }
    }
}

/// Moves `path` into `dir/quarantine/` under its own file name, creating the
/// quarantine directory on demand. Returns whether the move happened.
fn quarantine_file(fs: &dyn RepoFs, dir: &Path, path: &Path) -> bool {
    let Some(name) = path.file_name() else {
        return false;
    };
    let qdir = dir.join(QUARANTINE_DIR);
    if fs.create_dir_all(&qdir).is_err() {
        return false;
    }
    fs.rename(path, &qdir.join(name)).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_format::{trace_to_bytes, Encoding};
    use rprism_trace::testgen::{arbitrary_trace, Rng};

    fn temp_repo(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rprism-repo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_bytes(seed: u64, len: usize, encoding: Encoding) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        let trace = arbitrary_trace(&mut rng, len);
        trace_to_bytes(&trace, encoding).unwrap()
    }

    #[test]
    fn put_deduplicates_across_encodings_and_survives_reopen() {
        let dir = temp_repo("dedup");
        let repo = TraceRepo::open_with(&dir, Engine::new(), RepoOptions::default()).unwrap();

        let mut rng = Rng::new(0xabc);
        let trace = arbitrary_trace(&mut rng, 80);
        let binary = trace_to_bytes(&trace, Encoding::Binary).unwrap();
        let jsonl = trace_to_bytes(&trace, Encoding::Jsonl).unwrap();

        let (hash, deduped, entries) = repo.put_bytes(&binary).unwrap();
        assert!(!deduped);
        assert_eq!(entries, 80);
        // Same bytes again: deduplicated.
        assert_eq!(repo.put_bytes(&binary).unwrap(), (hash, true, 80));
        // Same *content* in the other encoding: still deduplicated.
        assert_eq!(repo.put_bytes(&jsonl).unwrap(), (hash, true, 80));
        let stats = repo.stats();
        assert_eq!(stats.blobs, 1);
        assert_eq!(stats.dedup_hits, 2);
        assert_eq!(repo.list().len(), 1);

        // A different trace is a second blob.
        let other = sample_bytes(0xdef, 40, Encoding::Binary);
        let (other_hash, deduped, _) = repo.put_bytes(&other).unwrap();
        assert!(!deduped);
        assert_ne!(other_hash, hash);

        // Reopening rebuilds the index from the blobs themselves.
        drop(repo);
        let reopened = TraceRepo::open_with(&dir, Engine::new(), RepoOptions::default()).unwrap();
        assert_eq!(reopened.stats().blobs, 2);
        assert_eq!(reopened.get_bytes(hash).unwrap(), binary);
        assert!(matches!(
            reopened.get_bytes(0x1234),
            Err(ServerError::UnknownTrace { hash: 0x1234 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_uploads_are_rejected_without_storing() {
        let dir = temp_repo("corrupt");
        let repo = TraceRepo::open_with(&dir, Engine::new(), RepoOptions::default()).unwrap();
        let mut bytes = sample_bytes(7, 30, Encoding::Binary);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            repo.put_bytes(&bytes),
            Err(ServerError::Format(_))
        ));
        assert_eq!(repo.stats().blobs, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_or_invalid_directories_fail_cleanly() {
        let missing = std::env::temp_dir().join(format!(
            "rprism-repo-definitely-missing-{}",
            std::process::id()
        ));
        assert!(matches!(
            TraceRepo::open_with(&missing, Engine::new(), RepoOptions::default()),
            Err(ServerError::Repo(_))
        ));
        // A path that exists but is a file, not a directory.
        let file = std::env::temp_dir().join(format!("rprism-repo-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        assert!(matches!(
            TraceRepo::open_with(&file, Engine::new(), RepoOptions::default()),
            Err(ServerError::Repo(_))
        ));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn startup_recovery_sweeps_orphans_and_quarantines_bad_blobs() {
        let dir = temp_repo("recovery");
        // A valid blob, an orphaned staging file, and two damaged "blobs": one
        // undecodable, one valid but misnamed.
        let good = sample_bytes(0x51, 50, Encoding::Binary);
        let good_hash = {
            let repo = TraceRepo::open_with(&dir, Engine::new(), RepoOptions::default()).unwrap();
            repo.put_bytes(&good).unwrap().0
        };
        std::fs::write(dir.join("deadbeefdeadbeef-3.tmp"), b"half a blob").unwrap();
        std::fs::write(dir.join("0123456789abcdef.trace"), b"not a trace at all").unwrap();
        let misnamed = sample_bytes(0x52, 20, Encoding::Binary);
        std::fs::write(dir.join("00000000000000aa.trace"), &misnamed).unwrap();

        let repo = TraceRepo::open_with(&dir, Engine::new(), RepoOptions::default()).unwrap();
        let stats = repo.stats();
        assert_eq!(stats.blobs, 1, "only the intact blob survives");
        assert_eq!(stats.orphans_removed, 1);
        assert_eq!(stats.quarantined, 2);
        assert_eq!(repo.get_bytes(good_hash).unwrap(), good);
        assert!(matches!(
            repo.get_bytes(0x0123456789abcdef),
            Err(ServerError::UnknownTrace { .. })
        ));
        // The damaged bytes are preserved for forensics, not deleted.
        assert!(dir.join("quarantine/0123456789abcdef.trace").is_file());
        assert!(dir.join("quarantine/00000000000000aa.trace").is_file());
        assert!(!dir.join("deadbeefdeadbeef-3.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_reverifies_both_encodings_and_quarantines_damage() {
        let dir = temp_repo("reopen");
        let uploads = [
            sample_bytes(0x81, 50, Encoding::Binary),
            sample_bytes(0x82, 50, Encoding::Jsonl),
            sample_bytes(0x83, 50, Encoding::Binary),
        ];
        let (damaged, listed, blob_bytes) = {
            let repo = TraceRepo::open_with(&dir, Engine::new(), RepoOptions::default()).unwrap();
            let hashes = uploads
                .each_ref()
                .map(|bytes| repo.put_bytes(bytes).unwrap().0);
            (hashes[2], repo.list(), repo.stats().blob_bytes)
        };
        assert_eq!(listed.len(), 3);
        // Flip one byte of the third blob behind the repository's back.
        let blob = dir.join(format!("{damaged:016x}.trace"));
        let mut bytes = std::fs::read(&blob).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&blob, &bytes).unwrap();

        let repo = TraceRepo::open_with(&dir, Engine::new(), RepoOptions::default()).unwrap();
        let survivors: Vec<RepoEntry> = listed.into_iter().filter(|e| e.hash != damaged).collect();
        assert_eq!(
            repo.list(),
            survivors,
            "same hashes, names, entries and bytes"
        );
        let stats = repo.stats();
        assert_eq!(stats.blob_bytes, blob_bytes - uploads[2].len() as u64);
        assert_eq!(stats.quarantined, 1);
        assert!(dir
            .join(format!("quarantine/{damaged:016x}.trace"))
            .is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runtime_corruption_is_quarantined_and_healed_by_reupload() {
        let dir = temp_repo("heal");
        let repo = TraceRepo::open_with(&dir, Engine::new(), RepoOptions::default()).unwrap();
        let bytes = sample_bytes(0x53, 40, Encoding::Binary);
        let (hash, _, _) = repo.put_bytes(&bytes).unwrap();
        // Scribble over the blob behind the repository's back.
        let blob = dir.join(format!("{hash:016x}.trace"));
        std::fs::write(&blob, b"bitrot").unwrap();

        // The read answers a structured error; the repository stays up and the
        // damaged bytes move aside.
        assert!(matches!(
            repo.prepared(hash),
            Err(ServerError::CorruptTrace { hash: h }) if h == hash
        ));
        assert_eq!(repo.stats().blobs, 0);
        assert_eq!(repo.stats().quarantined, 1);
        assert!(dir.join(format!("quarantine/{hash:016x}.trace")).is_file());

        // Re-uploading the same content heals the entry under the same hash.
        let (rehash, deduped, _) = repo.put_bytes(&bytes).unwrap();
        assert_eq!(rehash, hash);
        assert!(!deduped);
        repo.prepared(hash).expect("healed blob prepares");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shrink_cache_degrades_to_restreaming_never_refuses() {
        let dir = temp_repo("shrink");
        let repo = TraceRepo::open_with(&dir, Engine::new(), RepoOptions::default()).unwrap();
        let hashes: Vec<u64> = (0..2)
            .map(|i| {
                repo.put_bytes(&sample_bytes(0x60 + i, 40, Encoding::Binary))
                    .unwrap()
                    .0
            })
            .collect();
        for &h in &hashes {
            repo.prepared(h).unwrap();
        }
        assert_eq!(repo.stats().prepared_cached, 2);

        assert_eq!(repo.shrink_cache(0), 2);
        let stats = repo.stats();
        assert_eq!(stats.prepared_cached, 0);
        assert_eq!(stats.prepared_cached_bytes, 0);
        assert_eq!(stats.cache_shrinks, 1);

        // Shrinking costs latency, not availability: both traces stream back in.
        for &h in &hashes {
            repo.prepared(h).unwrap();
        }
        assert_eq!(repo.stats().prepared_misses, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_and_registry_read_the_same_cells() {
        let dir = temp_repo("obs");
        let obs = Obs::enabled();
        let options = RepoOptions {
            obs: obs.clone(),
            ..RepoOptions::default()
        };
        let repo = TraceRepo::open_with(&dir, Engine::new(), options).unwrap();
        let bytes = sample_bytes(0x90, 50, Encoding::Binary);
        let (hash, _, _) = repo.put_bytes(&bytes).unwrap();
        repo.put_bytes(&bytes).unwrap(); // dedup hit
        repo.prepared(hash).unwrap(); // miss (streaming load)
        repo.prepared(hash).unwrap(); // hit

        let stats = repo.stats();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("cache.hits"), Some(stats.prepared_hits));
        assert_eq!(snap.counter("cache.misses"), Some(stats.prepared_misses));
        assert_eq!(snap.counter("repo.dedup_hits"), Some(stats.dedup_hits));
        assert_eq!(snap.counter("cache.stampede_waits"), Some(0));
        // stats() refreshed the point-in-time gauges.
        assert_eq!(snap.gauge("repo.blobs"), Some(stats.blobs as i64));
        assert_eq!(snap.gauge("repo.blob_bytes"), Some(stats.blob_bytes as i64));
        assert_eq!(snap.gauge("cache.prepared"), Some(1));
        // The repository recorded put/get/load spans by name.
        let names: Vec<&'static str> = obs.recent_spans().iter().map(|r| r.name).collect();
        assert!(names.contains(&"repo.put"));
        assert!(names.contains(&"repo.load"));
        assert!(
            names.contains(&"engine.load"),
            "repo load reaches the engine pipeline spans via the shared domain: {names:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_staging_write_is_invisible_and_swept_on_reopen() {
        use crate::fs::{FaultyFs, StdFs};
        use rprism_format::fault::{Fault, FaultPlan};

        let dir = temp_repo("torn");
        let bytes = sample_bytes(0x70, 60, Encoding::Binary);
        let plan = FaultPlan::new().fail_at("fs:write", 0, Fault::Short(16));
        {
            let options = RepoOptions {
                fs: Arc::new(FaultyFs::new(StdFs, plan)),
                ..RepoOptions::default()
            };
            let repo = TraceRepo::open_with(&dir, Engine::new(), options).unwrap();
            assert!(repo.put_bytes(&bytes).is_err(), "torn write must surface");
            assert_eq!(repo.stats().blobs, 0, "no half-written blob is visible");
        }
        // The torn put cleans its own staging file; even if a crash had prevented
        // that, reopen sweeps anything left and the retry converges.
        let repo = TraceRepo::open_with(&dir, Engine::new(), RepoOptions::default()).unwrap();
        let (hash, deduped, _) = repo.put_bytes(&bytes).unwrap();
        assert!(!deduped);
        assert_eq!(repo.get_bytes(hash).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_cold_stampede_on_one_hash_loads_it_exactly_once() {
        use std::sync::Barrier;

        let dir = temp_repo("stampede");
        let repo = TraceRepo::open_with(&dir, Engine::new(), RepoOptions::default()).unwrap();
        let (hash, _, _) = repo
            .put_bytes(&sample_bytes(0xa0, 200, Encoding::Binary))
            .unwrap();
        let before = repo.stats().prepared_misses;

        const THREADS: usize = 8;
        let barrier = Barrier::new(THREADS);
        let handles: Vec<PreparedTrace> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        repo.prepared(hash).unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });

        let stats = repo.stats();
        assert_eq!(
            stats.prepared_misses,
            before + 1,
            "one load for all callers"
        );
        assert_eq!(stats.prepared_hits + 1, THREADS as u64);
        for handle in &handles {
            assert!(std::ptr::eq(handle.keyed(), handles[0].keyed()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_transient_load_failure_caches_nothing_and_the_next_call_loads() {
        use crate::fs::{FaultyFs, StdFs};
        use rprism_format::fault::{Fault, FaultPlan};

        let dir = temp_repo("transient");
        // The first blob open after the put fails; every later one succeeds.
        let plan = FaultPlan::new().fail_at("fs:open", 0, Fault::Error(std::io::ErrorKind::Other));
        let options = RepoOptions {
            fs: Arc::new(FaultyFs::new(StdFs, plan)),
            ..RepoOptions::default()
        };
        let repo = TraceRepo::open_with(&dir, Engine::new(), options).unwrap();
        let (hash, _, _) = repo
            .put_bytes(&sample_bytes(0xa1, 40, Encoding::Binary))
            .unwrap();

        assert!(matches!(repo.prepared(hash), Err(ServerError::Io(_))));
        assert_eq!(repo.list().len(), 1, "the blob stays listed");
        let stats = repo.stats();
        assert_eq!(
            (
                stats.quarantined,
                stats.prepared_cached,
                stats.prepared_misses
            ),
            (0, 0, 1)
        );

        repo.prepared(hash).expect("the next call loads the blob");
        let stats = repo.stats();
        assert_eq!((stats.prepared_cached, stats.prepared_misses), (1, 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_budget_evicts_handles_but_never_blobs() {
        let dir = temp_repo("lru");
        let blobs: Vec<Vec<u8>> = (0..3)
            .map(|i| sample_bytes(100 + i, 60, Encoding::Binary))
            .collect();
        // Budget fits any two of the three blobs' weights, never all three.
        let sizes: Vec<u64> = blobs.iter().map(|b| b.len() as u64).collect();
        let total: u64 = sizes.iter().sum();
        let budget = total - sizes.iter().min().unwrap() / 2;
        let repo = TraceRepo::open_with(
            &dir,
            Engine::new(),
            RepoOptions {
                cache_budget: budget,
                ..RepoOptions::default()
            },
        )
        .unwrap();
        let hashes: Vec<u64> = blobs.iter().map(|b| repo.put_bytes(b).unwrap().0).collect();

        repo.prepared(hashes[0]).unwrap();
        repo.prepared(hashes[1]).unwrap();
        repo.prepared(hashes[0]).unwrap(); // touch: 0 is now most recent
        assert_eq!(repo.stats().prepared_misses, 2);
        assert_eq!(repo.stats().prepared_hits, 1);

        repo.prepared(hashes[2]).unwrap(); // over budget: evicts 1 (LRU), not 0
        let stats = repo.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.prepared_cached_bytes <= budget);
        assert_eq!(stats.blobs, 3, "eviction must never touch the blobs");

        // The touched survivor is still a hit…
        repo.prepared(hashes[0]).unwrap();
        assert_eq!(repo.stats().prepared_hits, 2);
        // …and the evicted trace streams back in from its blob (a miss, not an error),
        // pushing out the now-least-recently-used handle in turn.
        repo.prepared(hashes[1]).unwrap();
        let stats = repo.stats();
        assert_eq!(stats.prepared_misses, 4);
        assert_eq!(stats.evictions, 2);
        repo.prepared(hashes[0]).unwrap();
        assert_eq!(repo.stats().prepared_hits, 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
