//! The stage-graph execution engine.
//!
//! A study (or any other multi-phase analysis) is expressed as a set
//! of named [`Stage`]s with declared dependencies. The [`Graph`]
//! runner validates the graph, schedules it in topological *waves*
//! (every stage of a wave has all dependencies satisfied by earlier
//! waves), runs the stages of a wave concurrently on scoped threads,
//! and records a [`StageReport`] per stage — wall time plus
//! input/output cardinality [`Card`]s — into a [`RunReport`].
//!
//! Stages exchange data through a typed artifact store keyed by stage
//! name: each stage produces exactly one artifact of the graph's
//! artifact type `A` (typically an enum over the pipeline's
//! intermediate products), and reads its dependencies' artifacts
//! through the [`StageContext`].
//!
//! Stages that implement a [`StageCodec`] can be *checkpointed*: when
//! the runner is given a [`CheckpointStore`], a completed stage's
//! artifact is persisted to disk, and a later run with the same store
//! (and a matching config fingerprint) reloads it instead of
//! recomputing — the stage is reported [`StageStatus::Cached`].
//! Upstream stages whose artifacts are then no longer demanded by any
//! stage that actually has to run are not executed at all and are
//! reported [`StageStatus::Skipped`].
//!
//! A checkpoint is a file in the workspace's one durable container
//! (the query artifact's: checksummed sections that tile the file);
//! floats are stored as IEEE-754 bit patterns so a reloaded artifact
//! is *bit-identical* to the computed one. Corrupt or truncated files
//! surface a typed [`CheckpointError`], never a panic.

pub mod checkpoint;
pub mod report;
pub mod runner;
pub mod stage;
pub mod study_stages;
pub mod supervisor;

pub use checkpoint::{fnv1a64, fsck_checkpoint, CheckpointError, CheckpointStore, StageHeader};
pub use report::{RunReport, StageReport, StageStatus};
pub use runner::{Graph, RunOutcome};
pub use stage::{Card, Stage, StageCodec, StageContext, StageOutput};
pub use study_stages::{
    decode_normalized, decode_patterns, encode_normalized, encode_patterns, study_fingerprint,
    study_graph, StudyArtifact,
};
pub use supervisor::{backoff_delay, RetryPolicy, Supervisor};

/// Errors surfaced by graph validation and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Two stages were registered under the same name.
    DuplicateStage {
        /// The offending name.
        name: String,
    },
    /// A stage depends on a name no stage provides.
    UnknownDependency {
        /// The depending stage.
        stage: String,
        /// The unknown dependency name.
        dep: String,
    },
    /// The dependency graph contains a cycle.
    Cycle {
        /// Stages that could not be scheduled.
        stages: Vec<String>,
    },
    /// A stage asked its context for an artifact that is not
    /// available (not a declared dependency, or its producer was
    /// skipped).
    MissingArtifact {
        /// The requesting stage.
        stage: String,
        /// The requested artifact name.
        dep: String,
    },
    /// A stage's own computation failed.
    Stage {
        /// The failing stage.
        stage: String,
        /// The rendered failure.
        message: String,
    },
    /// A stage panicked; the panic was contained by the runner.
    StagePanicked {
        /// The panicking stage.
        stage: String,
        /// The rendered panic payload.
        message: String,
    },
    /// A stage overran its supervised wall-time budget and was
    /// declared lost by the watchdog.
    StageTimedOut {
        /// The overrunning stage.
        stage: String,
        /// The budget it blew, in milliseconds.
        budget_ms: u64,
    },
    /// A checkpoint could not be read or written.
    Checkpoint(CheckpointError),
    /// A failpoint names a stage the graph does not have.
    Failpoint(towerlens_obs::FailpointError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::DuplicateStage { name } => {
                write!(f, "stage `{name}` registered twice")
            }
            EngineError::UnknownDependency { stage, dep } => {
                write!(f, "stage `{stage}` depends on unknown stage `{dep}`")
            }
            EngineError::Cycle { stages } => {
                write!(f, "dependency cycle among stages {stages:?}")
            }
            EngineError::MissingArtifact { stage, dep } => {
                write!(
                    f,
                    "stage `{stage}` needs artifact `{dep}`, which is not available"
                )
            }
            EngineError::Stage { stage, message } => {
                write!(f, "stage `{stage}` failed: {message}")
            }
            EngineError::StagePanicked { stage, message } => {
                write!(f, "stage `{stage}` panicked: {message}")
            }
            EngineError::StageTimedOut { stage, budget_ms } => {
                write!(
                    f,
                    "stage `{stage}` exceeded its {budget_ms} ms budget and was declared lost"
                )
            }
            EngineError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            EngineError::Failpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Checkpoint(e)
    }
}
