//! Typed failures of the streaming ingestion daemon.

use towerlens_core::engine::CheckpointError;

/// Everything that can go wrong while serving a stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Filesystem failure, rendered (so the error stays `Clone`).
    Io {
        /// The path involved.
        path: String,
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// A WAL segment is structurally damaged somewhere the replay
    /// cannot tolerate (anywhere but the torn final line of an
    /// unsealed segment).
    Wal {
        /// The damaged segment's index.
        segment: u64,
        /// 1-based line within the segment file.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// WAL entries are not contiguous: a sequence number was skipped
    /// or repeated, meaning acknowledged records were lost.
    SequenceGap {
        /// The sequence number the replay expected next.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
        /// The segment where the gap surfaced.
        segment: u64,
    },
    /// Snapshot load/save failure (the checkpoint store's verdict).
    Snapshot(CheckpointError),
    /// Invalid daemon configuration (bad flag combination, malformed
    /// failpoint spec, basis/window mismatch).
    Config(String),
    /// The drain-time batch analysis over the recovered state failed.
    Analysis(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { path, message } => write!(f, "{path}: {message}"),
            ServeError::Wal {
                segment,
                line,
                reason,
            } => write!(f, "wal segment {segment} line {line}: {reason}"),
            ServeError::SequenceGap {
                expected,
                found,
                segment,
            } => write!(
                f,
                "wal segment {segment}: sequence gap (expected seq {expected}, found {found})"
            ),
            ServeError::Snapshot(e @ CheckpointError::Damaged { .. }) => write!(
                f,
                "snapshot: {e} (remove the snapshot directory to rebuild the state from the WAL)"
            ),
            ServeError::Snapshot(e) => write!(f, "snapshot: {e}"),
            ServeError::Config(reason) => write!(f, "configuration: {reason}"),
            ServeError::Analysis(reason) => write!(f, "drain analysis: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Snapshot(e)
    }
}

pub(crate) fn io_err(path: &std::path::Path, e: std::io::Error) -> ServeError {
    ServeError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}
