//! # towerlens-obs
//!
//! Dependency-free observability for the towerlens workspace: a
//! thread-safe [`Registry`] of named metrics, a structured
//! [`SpanEvent`] record for per-stage execution traces, and the
//! [`failpoint`] registry the chaos suites inject faults through.
//!
//! The registry holds four metric kinds, all lock-free on the hot
//! path (handles are `Arc`s over atomics; the registry lock is taken
//! only at registration and snapshot time):
//!
//! * [`Counter`] — a monotonic `u64` (records ingested, distance
//!   evaluations, butterflies).
//! * [`Gauge`] — a settable `i64` (current shard count, last run's
//!   cluster count).
//! * [`Histogram`] — fixed-bucket distribution of `u64` observations
//!   with explicit underflow/overflow buckets (record sizes, vector
//!   lengths).
//! * [`Timer`] — an observation count plus accumulated nanoseconds
//!   (per-stage wall time).
//!
//! Naming convention: `crate.subsystem.metric`, e.g.
//! `cluster.distance.evaluations`. Most names are compile-time
//! constants; the engine additionally registers one timer per stage
//! (`core.engine.stage.<name>`) at runtime. Snapshots sort by name,
//! so dumps are stable regardless of registration order.
//!
//! **Determinism contract.** [`Snapshot::to_json`] emits counters,
//! gauges, and histograms in full but serializes timers as their
//! observation *count* only — wall-clock nanoseconds never enter the
//! metrics JSON. Two runs over identical seeded inputs therefore
//! produce byte-identical metrics dumps; wall times travel separately
//! in the span log ([`spans_to_json`]) and the benchmark's own
//! timings, where nondeterminism is expected.
//!
//! Hot paths instrument themselves against the process-wide
//! [`global`] registry through [`LazyCounter`] handles (one
//! `OnceLock` lookup, then a plain atomic add), so library APIs keep
//! their signatures. Unit tests needing exact isolation construct
//! their own [`Registry`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod failpoint;
pub mod registry;

pub use events::{spans_to_json, SpanEvent};
pub use failpoint::{check_failpoints, failpoints, FailpointError, Failpoints};
pub use registry::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, LazyCounter, LazyHistogram, Registry,
    Snapshot, Timer, TimerSnapshot,
};
