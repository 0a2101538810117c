//! # towerlens-artifact
//!
//! The versioned study-artifact store and the memory-resident query
//! index over it — the read path of the paper's operator workflow.
//!
//! It also owns the workspace's one durable container: every file
//! written to be read back — query artifacts, stage checkpoints, serve
//! snapshots — shares one layout, one set of checksums and one fsck.
//!
//! * [`container`] — the layout (magic + version + section table +
//!   FNV-1a header and section checksums, sections tiling the file)
//!   and the little-endian field codec ([`Enc`]/[`Dec`]) inside the
//!   sections. Any single flipped, dropped or appended byte is caught
//!   with a typed [`ArtifactError`] — decode never panics and never
//!   returns a silently wrong answer.
//! * [`format`] — the study snapshot's sections: per-tower pattern
//!   labels, convex-combination decompositions, the frozen
//!   primary-component basis, the 6-dim spectral feature vectors, and
//!   per-tower expected day profiles.
//! * [`query`] — [`QueryIndex`], the memory-resident index behind
//!   `towerlens query`: `pattern`, `decompose`, `topk` (matrix-free
//!   nearest-neighbour scan in spectral feature space), and `screen`
//!   (z-score anomaly screening of a fresh day), with a batch engine
//!   that fans requests over `towerlens-par` workers and renders
//!   input-order, thread-count-invariant output plus exact `query.*`
//!   counters.
//! * [`durable`] — [`replace_durably`], the one temp + fsync + rename
//!   protocol every durable file replace in the workspace goes through
//!   (checkpoints, snapshots, artifacts, generations, the WAL repair),
//!   with its failpoints at the same two positions for every writer.
//! * [`store`] — the generation store behind hot reload: `serve`
//!   publishes immutable `gen-N.artifact` files plus an atomic
//!   `CURRENT` pointer, and `query --watch` follows the pointer with
//!   a last-good fallback, never serving bytes that fail their
//!   checksums.
//!
//! The byte layout and compatibility policy are specified in
//! DESIGN.md §14; the overload and degraded-mode policy (admission
//! budgets, virtual-cost deadlines, generation publishing) in §15.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod container;
pub mod durable;
pub mod format;
pub mod query;
pub mod store;

pub use durable::{replace_durably, temp_path};

pub use container::{
    fnv1a64, ArtifactError, Container, ContainerWriter, Dec, Enc, SectionFsck, SectionStatus,
    MAGIC, VERSION,
};
pub use format::{
    fsck_artifact, read_snapshot, write_snapshot, ArtifactFsck, BasisSection, DayProfile,
    DecompRow, Meta, Snapshot,
};
pub use query::{
    parse_request, read_day_file, render_decompose, render_pattern, render_screen, render_topk,
    request_cost, run_batch_with, run_one, run_one_with, BatchTally, QueryFault, QueryIndex,
    QueryPolicy, Request, ScreenVerdict, DECOMPOSE_SOLVE_UNITS,
};
pub use store::{
    generation_name, list_generations, parse_generation_name, read_current, resolve_latest,
    Publisher, Resolved, Watcher, CURRENT_POINTER,
};
