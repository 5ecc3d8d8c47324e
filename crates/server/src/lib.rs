//! # rprism-server
//!
//! The long-lived service layer of the RPrism reproduction: a **trace repository
//! daemon** that holds prepared traces across requests and answers semantic
//! diff/analyze queries over a TCP wire protocol — the step from "a CLI that dies with
//! its process" to the ROADMAP's production-scale system serving many clients.
//!
//! Three pieces, one crate (std-only, like the rest of the workspace):
//!
//! * [`TraceRepo`] — content-addressed on-disk storage. Blobs are keyed by
//!   [`rprism_format::content_hash`], the encoding-independent FNV-64 of the trace's
//!   canonical binary form, so re-uploading the same trace (in *either* encoding)
//!   stores nothing new. Hot [`PreparedTrace`](rprism::PreparedTrace) handles live in
//!   an LRU cache with a configurable byte budget; eviction drops handles only — the
//!   blobs stay on disk and reload on demand through
//!   [`Engine::load_prepared_reader`](rprism::Engine::load_prepared_reader)'s
//!   bounded-memory streaming pipeline.
//! * [`Server`] — a TCP daemon speaking the framed wire protocol of [`proto`]
//!   (length-prefixed, FNV-64-checksummed frames reusing `rprism_format`'s varint and
//!   checksum machinery). Connections are served by a bounded thread pool sharing
//!   **one** [`Engine`](rprism::Engine), so the session-level prepared and correlation
//!   caches finally amortize across requests and clients rather than within a single
//!   process run. Malformed input is answered with a structured error frame, never a
//!   panic or a hung connection; [`Request::Shutdown`](proto::Request::Shutdown)
//!   drains in-flight requests before the listener exits.
//! * [`Client`] — a blocking client with connect/read/write timeouts, used by the
//!   `rprism remote …` subcommands and the server-throughput bench.
//!
//! ## Quickstart
//!
//! ```no_run
//! use rprism_server::{Client, Server, ServerConfig};
//! use std::time::Duration;
//!
//! let config = ServerConfig::new("127.0.0.1:0", "/var/lib/rprism-repo");
//! let server = Server::bind(config)?;
//! let addr = server.local_addr()?;
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(&addr.to_string(), Duration::from_secs(5))?;
//! let old = client.put_path("old.rtr")?;
//! let new = client.put_path("new.rtr")?;
//! let diff = client.diff(old.hash, new.hash, 5)?;
//! println!("{} differences", diff.num_differences);
//! client.shutdown()?;
//! # Ok::<(), rprism_server::ServerError>(())
//! ```

mod client;
pub mod fs;
pub mod proto;
mod repo;
mod server;

pub use client::{Client, PutOutcome, RetryPolicy};
pub use fs::{FaultyFs, RepoFs, StdFs};
pub use proto::{WireAlgorithm, WireWatchEvent};
pub use repo::{RepoOptions, TraceRepo, DEFAULT_CACHE_BUDGET};
pub use server::{Conn, Server, ServerConfig};

/// Errors of the server stack: transport, protocol, storage and analysis failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// Socket-level failure (connect, bind, read, write, timeout).
    Io(std::io::Error),
    /// A frame or message failed to decode (length bound, checksum, unknown tag,
    /// malformed field).
    Proto(rprism_format::FormatError),
    /// A trace blob failed to decode or store.
    Format(rprism_format::FormatError),
    /// The engine failed to diff/analyze (only possible with the LCS baseline).
    Engine(rprism::Error),
    /// The peer reported an error (the message of its error frame).
    Remote(String),
    /// A request named a content hash the repository does not hold.
    UnknownTrace {
        /// The hash that was requested.
        hash: u64,
    },
    /// The repository directory is missing, not a directory, or not writable.
    Repo(String),
    /// A stored blob failed verification when read back and was quarantined; the
    /// repository stays up, and the blob's bytes are preserved under `quarantine/`
    /// for forensics. Re-uploading the trace heals the entry.
    CorruptTrace {
        /// The content hash whose blob was quarantined.
        hash: u64,
    },
    /// The server is saturated (accept backlog full) and shed this connection
    /// before reading a request. Retry after the hinted delay.
    Busy {
        /// Server-suggested minimum backoff before retrying.
        retry_after_ms: u32,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "i/o error: {e}"),
            ServerError::Proto(e) => write!(f, "wire protocol error: {e}"),
            ServerError::Format(e) => write!(f, "trace format error: {e}"),
            ServerError::Engine(e) => write!(f, "analysis error: {e}"),
            ServerError::Remote(message) => write!(f, "server error: {message}"),
            ServerError::UnknownTrace { hash } => {
                write!(f, "unknown trace {hash:016x} (not in the repository)")
            }
            ServerError::Repo(message) => write!(f, "repository error: {message}"),
            ServerError::CorruptTrace { hash } => write!(
                f,
                "trace {hash:016x} failed verification and was quarantined \
                 (re-upload it to heal the entry)"
            ),
            ServerError::Busy { retry_after_ms } => {
                write!(f, "server busy; retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Proto(e) | ServerError::Format(e) => Some(e),
            ServerError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<rprism::Error> for ServerError {
    fn from(e: rprism::Error) -> Self {
        ServerError::Engine(e)
    }
}

/// The crate-wide result alias.
pub type Result<T, E = ServerError> = std::result::Result<T, E>;
