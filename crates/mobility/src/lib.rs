//! # towerlens-mobility
//!
//! The human-activity traffic model: the substitution for the paper's
//! 150,000 real subscribers.
//!
//! Two generators share one behavioural core ([`profiles`]):
//!
//! * [`synth`] — the *fast path*: synthesises each tower's binned
//!   traffic vector directly from the ground-truth function mixture at
//!   the tower (`city.function_mix`), scaled and noised. This is what
//!   the paper-scale experiments run on (9,600 towers × 4,032 bins in
//!   seconds).
//! * [`agents`] — the *log path*: an agent population with home/work
//!   anchors and daily schedules emits individual connection records
//!   (with deliberate duplicate/conflict injection), exercising the
//!   full preprocessing pipeline (clean → geocode → bin) end-to-end.
//!
//! The behavioural core encodes only mechanisms the paper attributes
//! traffic to: the sleep cycle (valley at 4–5 AM), the commute (8 AM /
//! 6 PM rushes through transport hubs), office hours (weekday-only
//! midday load), evening leisure (weekday 6 PM, weekend 12:30 PM), and
//! the resident evening peak (9:30 PM, high overnight floor). Cluster
//! labels, spectral lines, and convex-combination structure are never
//! injected — they must *emerge* through the analysis pipeline.

// `deny`, not `forbid`: the one sanctioned exception is the call into
// the noise kernel's `#[target_feature]` instantiations after run-time
// detection, in [`noise`]; a test pins each to the portable reference
// bit for bit. Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod agents;
pub mod config;
mod noise;
pub mod profiles;
pub mod synth;

pub use agents::{AgentConfig, AgentPopulation};
pub use config::SynthConfig;
pub use profiles::{intensity, profile_vector};
pub use synth::{synthesize_city, tower_vector};
