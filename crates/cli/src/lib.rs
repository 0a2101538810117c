//! # towerlens-cli
//!
//! File-based operation: everything the in-process pipeline does, but
//! over tab-separated trace files on disk — the workflow an operator
//! would actually run against exported logs.
//!
//! * [`files`] — the on-disk dataset format (`logs.tsv`,
//!   `towers.tsv`, `pois.tsv`, `truth.tsv`) with writers and parsers,
//! * [`args`] — uniform flag parsing (one-line errors, exit code 2),
//! * [`commands`] — the `gen`, `analyze`, `study`, and `doctor`
//!   subcommands as library functions (the binary is a thin wrapper,
//!   so everything is testable without spawning processes). `analyze`
//!   runs as a stage graph on [`towerlens_core::engine`], so it
//!   supports `--resume`, `--timings`, and `--json`,
//! * [`app`] — subcommand dispatch and rendering: the whole binary
//!   behind one `run(argv) -> exit code` function.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod args;
pub mod commands;
pub mod files;

pub use commands::{
    analyze, doctor_checkpoints, generate_dataset, run_study, study_config, AnalyzeOptions,
    AnalyzeSummary, GenOptions,
};
