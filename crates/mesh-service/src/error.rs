//! The service error vocabulary.
//!
//! Errors split into three families the caller treats differently:
//! *shedding* ([`ServiceError::Overloaded`], [`ServiceError::Deadline`]) —
//! transient, retry with backoff; *rejection*
//! ([`ServiceError::Rejected`]) — the request itself is malformed and
//! retrying is pointless; and *infrastructure*
//! ([`ServiceError::Io`] / [`ServiceError::Corrupt`] /
//! [`ServiceError::ShardPanicked`]) — the shard or its journal is in
//! trouble. There is no timeout family: a call runs on its caller's thread
//! and only waits for its shard's lock. Every I/O and corruption error
//! names the offending path.

use std::path::PathBuf;

use crate::crash::CrashSite;

/// Anything a [`MeshService`](crate::service::MeshService) call or a shard
/// recovery can fail with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// Shed: the shard's admission queue is full.
    Overloaded {
        /// Queue depth at the moment the request was refused.
        depth: usize,
    },
    /// Shed: the request would wait longer than its deadline.
    Deadline {
        /// Predicted queueing delay, in nanoseconds.
        wait_ns: u64,
    },
    /// The request is malformed (bad churn batch, out-of-space coordinate,
    /// wrong dimensionality for the shard) and was refused without being
    /// applied — the shard stays up.
    Rejected {
        /// Human-readable reason, preserving the fault-model
        /// [`ChurnError`](fault_model::ChurnError) message.
        reason: String,
    },
    /// The shard panicked while handling this request; it has been
    /// restarted from its journal and the request was *not* applied.
    ShardPanicked,
    /// The shard index does not exist.
    UnknownShard {
        /// The offending shard index.
        shard: usize,
    },
    /// An I/O operation on the journal failed.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The OS error, stringified (keeps the type `Clone + PartialEq`).
        detail: String,
    },
    /// The journal is structurally damaged beyond what torn-tail recovery
    /// handles (sequence gap, geometry mismatch, a journaled op that does not apply).
    Corrupt {
        /// The damaged file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// A [`CrashPoint`](crate::crash::CrashPoint) fired — only the fault
    /// injection harness ever observes this.
    Injected(CrashSite),
}

impl ServiceError {
    /// Wrap an `std::io::Error` with the path it hit.
    pub fn io(path: impl Into<PathBuf>, e: std::io::Error) -> ServiceError {
        ServiceError::Io {
            path: path.into(),
            detail: e.to_string(),
        }
    }

    /// True for the two shedding variants — the errors worth retrying.
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            ServiceError::Overloaded { .. } | ServiceError::Deadline { .. }
        )
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { depth } => {
                write!(f, "overloaded: admission queue full at depth {depth}")
            }
            ServiceError::Deadline { wait_ns } => {
                write!(f, "deadline: predicted wait {wait_ns}ns exceeds deadline")
            }
            ServiceError::Rejected { reason } => write!(f, "rejected: {reason}"),
            ServiceError::ShardPanicked => {
                f.write_str("shard panicked and was restarted from its journal")
            }
            ServiceError::UnknownShard { shard } => write!(f, "unknown shard {shard}"),
            ServiceError::Io { path, detail } => {
                write!(f, "I/O error on {}: {detail}", path.display())
            }
            ServiceError::Corrupt { path, detail } => {
                write!(f, "corrupt journal {}: {detail}", path.display())
            }
            ServiceError::Injected(site) => write!(f, "injected crash at {site}"),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_errors_name_the_path() {
        let e = ServiceError::io(
            "/tmp/shard-0/wal.log",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("/tmp/shard-0/wal.log"));
        assert!(!e.is_shed());
    }

    #[test]
    fn shed_classification() {
        assert!(ServiceError::Overloaded { depth: 4 }.is_shed());
        assert!(ServiceError::Deadline { wait_ns: 10 }.is_shed());
        assert!(!ServiceError::ShardPanicked.is_shed());
    }
}
