//! # towerlens-core
//!
//! The paper's primary contribution: a model that combines **time**,
//! **location**, and **traffic frequency spectrum** to extract and
//! explain the traffic patterns of thousands of cellular towers
//! (Wang et al., *Understanding Mobile Traffic Patterns of Large Scale
//! Cellular Towers in Urban Environment*, IMC 2015).
//!
//! The modules follow the paper's section structure:
//!
//! * [`identifier`] — §3.2: the *pattern identifier* (hierarchical
//!   clustering over z-scored traffic vectors) plus the *metric tuner*
//!   (Davies–Bouldin index selects the cluster count / stop
//!   threshold).
//! * [`labeling`] — §3.3: maps each discovered pattern to an urban
//!   functional region via POI distributions (Tables 2–3, Figs 7–9).
//! * [`timedomain`] — §4: weekday/weekend ratios, peak–valley
//!   features, peak/valley times, inter-pattern relationships
//!   (Tables 4–5, Figs 10–11).
//! * [`freq`] — §5.1–5.2: the three principal frequency components
//!   (week / day / half-day), sparse reconstruction and its energy
//!   loss, per-tower amplitude/phase features, per-cluster feature
//!   statistics, and the representative-tower (polygon-vertex) search
//!   (Figs 12–17).
//! * [`decompose`] — §5.3: convex-combination decomposition of any
//!   tower over the four primary components, validated against POI
//!   NTF-IDF (Table 6, Figs 18–19).
//! * [`engine`] — the stage-graph execution engine: named stages with
//!   declared dependencies, concurrent wave scheduling, per-stage
//!   instrumentation, and filesystem checkpointing with resume.
//! * [`study`] — an end-to-end driver wiring city generation, traffic
//!   synthesis, the vectorizer, and all analyses into one call —
//!   expressed as an [`engine`] graph; the repro harness and the
//!   examples sit on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decompose;
pub mod engine;
pub mod error;
pub mod freq;
pub mod identifier;
pub mod labeling;
pub mod study;
pub mod timedomain;

pub use engine::{
    CheckpointError, CheckpointStore, EngineError, RetryPolicy, RunReport, StageReport,
    StageStatus, Supervisor,
};
pub use error::CoreError;
pub use identifier::{IdentifiedPatterns, IdentifierConfig, PatternIdentifier};
pub use study::{PartialStudyReport, Study, StudyConfig, StudyReport};
