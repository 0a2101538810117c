//! # towerlens-bench
//!
//! The reproduction harness: regenerates every table and figure of the
//! paper's evaluation as text artefacts, runs the design-choice
//! ablations listed in DESIGN.md, and times the staged pipeline
//! ([`perf`], behind the `bench` binary).
//!
//! The `repro` binary (`cargo run -p towerlens-bench --bin repro --release`)
//! drives [`experiments`]; each experiment is a pure function from a
//! [`towerlens_core::StudyReport`] to a `String`, so the library can be
//! tested without capturing stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod alloc;
pub mod experiments;
pub mod json;
pub mod perf;
pub mod table;

use std::path::Path;

use towerlens_core::{CheckpointStore, RunReport, Study, StudyConfig, StudyReport};

/// The scales the harness can run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 120 towers, 1 week — smoke test.
    Tiny,
    /// 600 towers, 2 weeks.
    Small,
    /// 2,400 towers, 4 weeks (default).
    Medium,
    /// 9,600 towers, 4 weeks — the paper's scale.
    Paper,
}

impl Scale {
    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The study configuration for this scale.
    pub fn config(self, seed: u64) -> StudyConfig {
        match self {
            Scale::Tiny => StudyConfig::tiny(seed),
            Scale::Small => StudyConfig::small(seed),
            Scale::Medium => StudyConfig::medium(seed),
            Scale::Paper => StudyConfig::paper_scale(seed),
        }
    }
}

/// Runs the study once for a scale/seed (the repro binary shares one
/// report across all requested experiments).
///
/// # Errors
/// Propagates the study's [`towerlens_core::CoreError`].
pub fn run_study(scale: Scale, seed: u64) -> Result<StudyReport, towerlens_core::CoreError> {
    Study::new(scale.config(seed)).run()
}

/// As [`run_study`], but returns the per-stage instrumentation and,
/// with `resume`, persists/reloads the expensive stages (generation,
/// synthesis, vectorization, clustering) in that directory.
///
/// # Errors
/// Study and checkpoint failures as [`towerlens_core::CoreError`].
pub fn run_study_instrumented(
    scale: Scale,
    seed: u64,
    resume: Option<&Path>,
) -> Result<(StudyReport, RunReport), towerlens_core::CoreError> {
    let study = Study::new(scale.config(seed));
    let store = match resume {
        Some(dir) => Some(
            CheckpointStore::open(dir, study.checkpoint_fingerprint())
                .map_err(towerlens_core::EngineError::from)?,
        ),
        None => None,
    };
    study.run_instrumented(store.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("galactic"), None);
    }

    #[test]
    fn configs_scale_tower_counts() {
        assert_eq!(Scale::Tiny.config(1).city.n_towers, 120);
        assert_eq!(Scale::Paper.config(1).city.n_towers, 9_600);
    }
}
