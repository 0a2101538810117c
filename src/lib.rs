//! # towerlens
//!
//! Understanding mobile traffic patterns of large-scale cellular
//! towers in urban environments — a from-scratch Rust reproduction of
//! Wang, Xu, Li, Zhang & Jin, **IMC 2015** (arXiv:1510.04026).
//!
//! This facade crate re-exports the whole workspace so downstream
//! users depend on one crate:
//!
//! * [`core`] — the paper's model: pattern identification (clustering
//!   with Davies–Bouldin tuning), geographic labelling, time-domain
//!   characterisation, frequency-domain representation, and the
//!   convex-combination decomposition. Start with [`core::Study`].
//! * [`city`] — the synthetic urban environment (zones, POIs, towers)
//!   standing in for the paper's proprietary Shanghai ground truth.
//! * [`mobility`] — the human-activity traffic model (fast synthesis
//!   and an agent-based connection-log generator).
//! * [`trace`] — log schema, cleaning, geocoding, 10-minute binning.
//! * [`pipeline`] — the parallel traffic vectorizer (the paper's
//!   Hadoop element).
//! * [`dsp`] — mixed-radix FFT, spectra, normalisation, statistics.
//! * [`cluster`] — agglomerative clustering, validity indices, and
//!   the exact-pruning spatial index.
//! * [`opt`] — simplex-constrained least squares and TF-IDF.
//!
//! ## Quickstart
//!
//! ```
//! use towerlens::core::{Study, StudyConfig};
//!
//! let report = Study::new(StudyConfig::tiny(42)).run().expect("study");
//! println!("found {} traffic patterns", report.patterns.k);
//! for (c, kind) in report.geo.labels.iter().enumerate() {
//!     println!("cluster {c}: {kind}");
//! }
//! ```
//!
//! The runnable examples under `examples/` cover the full surface:
//! `quickstart`, `land_use_inference`, `traffic_decomposition`,
//! `log_pipeline`, and `load_forecast`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use towerlens_city as city;
pub use towerlens_cluster as cluster;
pub use towerlens_core as core;
pub use towerlens_dsp as dsp;
pub use towerlens_mobility as mobility;
pub use towerlens_opt as opt;
pub use towerlens_pipeline as pipeline;
pub use towerlens_trace as trace;
