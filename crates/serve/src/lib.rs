//! # towerlens-serve
//!
//! Crash-safe streaming ingestion for the towerlens pipeline: the
//! `towerlens serve` daemon tails a source of connection-log lines,
//! acknowledges each by appending it to a checksummed segment-based
//! write-ahead log, keeps each tower's cleaned sessions in shard
//! workers, and snapshots that durable state once per run, at the
//! drain. Every derived number — a published generation, the
//! `--basis` class counts, the drain report — comes from one batch
//! analysis (vectorize, spectral lines, pattern identification) of the
//! durable state, made at most once per barrier and at end of stream.
//!
//! The headline guarantee is **deterministic kill-and-resume replay**:
//! kill the daemon at any point, restart it over the same source and
//! data directory, repeat as often as you like — the final stdout
//! report is byte-identical to an uninterrupted run, and byte-identical
//! to [`batch_reference`] over the whole source. See
//! [`daemon`] for the contract's mechanics and [`wal`] for the ledger
//! format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basis;
pub mod daemon;
pub mod error;
pub mod state;
pub mod wal;

pub use basis::{classify, load_basis, Basis};
pub use daemon::{batch_reference, serve, ServeConfig, ServeReport, SNAP_DIR};
pub use error::ServeError;
pub use state::{ServeSnapshot, Session, SnapshotCodec, TowerState, SNAPSHOT_STAGE};
pub use wal::{fsck_wal, replay, ReplayOutcome, WalEntry, WalSegmentFsck, WalWriter, WAL_DIR};
