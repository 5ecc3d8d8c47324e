//! The repository's narrow filesystem seam: every disk operation [`TraceRepo`]
//! performs goes through [`RepoFs`], so the chaos suites can interpose deterministic
//! faults (torn writes, failed fsyncs, un-renameable staging files) at each one —
//! the kill-point sweep in `tests/chaos.rs` "crashes" a put at every site and proves
//! the restart invariants.
//!
//! [`StdFs`] is the production implementation (plain `std::fs` plus real `fsync`);
//! [`FaultyFs`] wraps any implementation with a [`FaultPlan`] consulted once per
//! operation, under these site names:
//!
//! | site           | operation                                           |
//! |----------------|-----------------------------------------------------|
//! | `fs:write`     | create + write of a staging file                    |
//! | `fs:sync_file` | fsync of a written file                             |
//! | `fs:rename`    | atomic rename (staging → blob, blob → quarantine)   |
//! | `fs:sync_dir`  | fsync of the repository directory                   |
//! | `fs:remove`    | unlink                                              |
//! | `fs:open`      | open-for-read of a blob                             |
//!
//! A [`Fault::Short`] on `fs:write` leaves a *partial file on disk* and reports
//! failure — the torn-write shape a real crash produces; everything else maps the
//! fault to a plain `io::Error`.
//!
//! [`TraceRepo`]: crate::TraceRepo

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use rprism_format::fault::{Fault, FaultPlan};

/// The filesystem operations a [`TraceRepo`](crate::TraceRepo) performs, as a trait
/// object so storage faults can be injected in tests (see the module docs).
pub trait RepoFs: Send + Sync + std::fmt::Debug {
    /// Creates (or truncates) `path` and writes `bytes` to it. Durability is *not*
    /// implied — pair with [`RepoFs::sync_file`].
    fn write_all(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;

    /// Flushes `path`'s data and metadata to stable storage (`fsync`).
    fn sync_file(&self, path: &Path) -> std::io::Result<()>;

    /// Flushes the directory entry table of `dir` to stable storage — the second
    /// half of a durable rename-commit (the rename itself lives in the directory).
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()>;

    /// Atomically renames `from` to `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;

    /// Unlinks `path`.
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;

    /// Creates `dir` (and parents) if missing.
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()>;

    /// Opens `path` for streaming reads.
    fn open_read(&self, path: &Path) -> std::io::Result<Box<dyn Read + Send>>;

    /// Reads all of `path` into memory.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let mut out = Vec::new();
        self.open_read(path)?.read_to_end(&mut out)?;
        Ok(out)
    }
}

/// The production [`RepoFs`]: plain `std::fs` with real `fsync` durability.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdFs;

impl RepoFs for StdFs {
    fn write_all(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut file = File::create(path)?;
        file.write_all(bytes)?;
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        // Directories are opened read-only for fsync; on platforms where that is not
        // supported (Windows), the open itself fails and the caller treats the commit
        // as best-effort.
        match File::open(dir) {
            Ok(handle) => handle.sync_all(),
            Err(e) => Err(e),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn open_read(&self, path: &Path) -> std::io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(File::open(path)?))
    }
}

/// A fault-injecting [`RepoFs`] decorator for the chaos suites (see the module docs).
#[derive(Debug)]
pub struct FaultyFs<F = StdFs> {
    inner: F,
    plan: FaultPlan,
}

impl<F: RepoFs> FaultyFs<F> {
    /// Wraps `inner`; every operation consults `plan` at its site.
    pub fn new(inner: F, plan: FaultPlan) -> Self {
        FaultyFs { inner, plan }
    }

    /// The plan this filesystem consults.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Maps a scheduled fault to the `io::Error` the operation reports, or `None`
    /// to let the operation proceed. `Short` is handled by the callers that can
    /// meaningfully truncate (writes).
    fn gate(&self, site: &str) -> std::io::Result<Option<Fault>> {
        match self.plan.next(site) {
            None => Ok(None),
            Some(Fault::Error(kind)) => Err(std::io::Error::new(kind, "injected fault")),
            Some(Fault::Interrupt) => Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected fault",
            )),
            Some(Fault::WouldBlock) => Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "injected fault",
            )),
            Some(other) => Ok(Some(other)),
        }
    }
}

impl<F: RepoFs> RepoFs for FaultyFs<F> {
    fn write_all(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        match self.gate("fs:write")? {
            Some(Fault::Short(n)) => {
                // The torn write: part of the data reaches disk, then the "machine
                // dies" — the file exists, truncated, and the operation fails.
                self.inner.write_all(path, &bytes[..n.min(bytes.len())])?;
                Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "injected torn write",
                ))
            }
            Some(Fault::Corrupt { index, mask }) if !bytes.is_empty() => {
                // Silent in-flight corruption: the write "succeeds" but one byte
                // lands flipped.
                let mut corrupted = bytes.to_vec();
                let at = index % corrupted.len();
                corrupted[at] ^= mask;
                self.inner.write_all(path, &corrupted)
            }
            _ => self.inner.write_all(path, bytes),
        }
    }

    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        self.gate("fs:sync_file")?;
        self.inner.sync_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.gate("fs:sync_dir")?;
        self.inner.sync_dir(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.gate("fs:rename")?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.gate("fs:remove")?;
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn open_read(&self, path: &Path) -> std::io::Result<Box<dyn Read + Send>> {
        self.gate("fs:open")?;
        self.inner.open_read(path)
    }
}
