//! The [`Stage`] trait and the values stages exchange.

use std::collections::HashMap;

use towerlens_artifact::{ArtifactError, Dec, Enc};

use super::EngineError;

/// A named cardinality ("towers=120", "merges=119") attached to a
/// stage report; the instrumentation equivalent of a row count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Card {
    /// What is being counted.
    pub label: String,
    /// The count.
    pub value: u64,
}

impl Card {
    /// Creates a card.
    pub fn new(label: impl Into<String>, value: u64) -> Self {
        Card {
            label: label.into(),
            value,
        }
    }
}

impl std::fmt::Display for Card {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={}", self.label, self.value)
    }
}

/// What a stage returns: its artifact plus instrumentation cards.
#[derive(Debug)]
pub struct StageOutput<A> {
    /// The produced artifact, stored under the stage's name.
    pub artifact: A,
    /// Cardinalities for the stage report (and the checkpoint header,
    /// so a cached stage still reports them).
    pub cards: Vec<Card>,
}

impl<A> StageOutput<A> {
    /// Wraps an artifact with no cards.
    pub fn new(artifact: A) -> Self {
        StageOutput {
            artifact,
            cards: Vec::new(),
        }
    }

    /// Attaches a card (builder style).
    pub fn with_card(mut self, label: impl Into<String>, value: u64) -> Self {
        self.cards.push(Card::new(label, value));
        self
    }
}

/// What a running stage sees: the artifacts of every stage completed
/// in an earlier wave.
pub struct StageContext<'a, A> {
    stage: &'static str,
    artifacts: &'a HashMap<&'static str, A>,
}

impl<'a, A> StageContext<'a, A> {
    pub(crate) fn new(stage: &'static str, artifacts: &'a HashMap<&'static str, A>) -> Self {
        StageContext { stage, artifacts }
    }

    /// The running stage's own name.
    pub fn stage(&self) -> &'static str {
        self.stage
    }

    /// The artifact a completed stage produced.
    ///
    /// # Errors
    /// [`EngineError::MissingArtifact`] when `name` has not completed
    /// (not a declared dependency, or skipped).
    pub fn artifact(&self, name: &str) -> Result<&'a A, EngineError> {
        self.artifacts
            .get(name)
            .ok_or_else(|| EngineError::MissingArtifact {
                stage: self.stage.to_string(),
                dep: name.to_string(),
            })
    }

    /// Wraps a stage-local failure into [`EngineError::Stage`].
    pub fn fail(&self, message: impl std::fmt::Display) -> EngineError {
        EngineError::Stage {
            stage: self.stage.to_string(),
            message: message.to_string(),
        }
    }

    /// As [`StageContext::fail`], but marks the failure *transient*:
    /// a supervised run ([`super::Supervisor`] with a retry budget)
    /// will re-execute the stage instead of failing fast. Use for
    /// failures that plausibly heal on retry — a flaky upstream read,
    /// a momentarily unavailable resource — never for data errors.
    pub fn fail_transient(&self, message: impl std::fmt::Display) -> EngineError {
        EngineError::Stage {
            stage: self.stage.to_string(),
            message: format!("{}{message}", super::supervisor::TRANSIENT_PREFIX),
        }
    }
}

/// One unit of the pipeline: a named computation with declared
/// dependencies.
pub trait Stage<A>: Send + Sync {
    /// The stage's unique name — also its artifact key and its
    /// checkpoint file stem.
    fn name(&self) -> &'static str;

    /// Names of the stages whose artifacts this stage reads.
    fn deps(&self) -> &'static [&'static str] {
        &[]
    }

    /// Runs the stage.
    ///
    /// # Errors
    /// Any [`EngineError`]; stage-local failures are wrapped via
    /// [`StageContext::fail`].
    fn run(&self, ctx: &StageContext<'_, A>) -> Result<StageOutput<A>, EngineError>;

    /// The codec persisting this stage's artifact, if it is
    /// checkpointable.
    fn codec(&self) -> Option<&dyn StageCodec<A>> {
        None
    }

    /// Whether the run may continue without this stage's artifact.
    ///
    /// When an optional stage errors, the runner marks it
    /// [`super::StageStatus::Failed`], prunes its dependents, and
    /// completes the rest of the graph instead of aborting. Errors
    /// from non-optional stages still fail the run. (Panics are
    /// always contained this way, whatever the stage declares — a
    /// panic must never take down sibling stages mid-wave.)
    fn optional(&self) -> bool {
        false
    }
}

/// Encodes/decodes one stage's artifact to the checkpoint's `body`
/// section (see [`super::checkpoint`]), in the container's
/// fixed-width fields: integers as `u64`, floats as their IEEE-754
/// bits.
pub trait StageCodec<A>: Send + Sync {
    /// Writes the artifact into the body section.
    ///
    /// # Errors
    /// A rendered reason, e.g. when handed the wrong artifact variant.
    fn encode(&self, artifact: &A, out: &mut Enc) -> Result<(), String>;

    /// Rebuilds the artifact from the body section; the store then
    /// checks that the whole payload was read.
    ///
    /// # Errors
    /// The reader's [`ArtifactError`], or [`Dec::corrupt`] for content
    /// the codec rejects; the store wraps it into
    /// [`super::CheckpointError::Damaged`].
    fn decode(&self, body: &mut Dec<'_>) -> Result<A, ArtifactError>;
}
