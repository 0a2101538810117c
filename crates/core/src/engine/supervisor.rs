//! Supervised stage execution: retry policies with deterministic
//! backoff for checkpoint I/O, and watchdog deadlines.
//!
//! The paper's pipeline ran for a month on a Hadoop cluster (§2),
//! where stragglers, transient I/O failures, and task restarts are
//! the norm. This module is the engine's answer: a [`Supervisor`]
//! bundles
//!
//! * a [`RetryPolicy`] — checkpoint I/O errors (a probe, or a save
//!   after the stage ran) are retried with seeded exponential backoff
//!   and jitter. A stage's own failure is never retried: the stages
//!   are deterministic, so a second attempt only repeats the first.
//!   The backoff schedule is a pure function of `(seed, stage,
//!   attempt)` — no wall-clock values — so supervised runs stay
//!   bit-reproducible;
//! * an optional per-stage wall-time budget enforced by a watchdog
//!   monitor thread — an overrunning stage is declared lost with a
//!   typed [`super::EngineError::StageTimedOut`] that flows through the
//!   existing failed/pruned semantics.
//!
//! The `checkpoint.save.<stage>` / `checkpoint.load.<stage>`
//! failpoints (`towerlens_obs::failpoint`) make checkpoint I/O fail
//! transiently on demand, so the retry path is exercised end-to-end
//! by tests rather than asserted in prose.

use std::time::Duration;

use towerlens_trace::faults::SplitMix64;

use super::checkpoint::{fnv1a64, CheckpointError};

/// Per-stage retry with deterministic seeded exponential backoff.
///
/// The delay before retry `attempt` (0-based) is
/// `min(cap, base·2^attempt + jitter)` with `jitter` drawn uniformly
/// from `[0, base·2^attempt)` by a [`SplitMix64`] stream seeded from
/// `(seed, stage, attempt)` alone — the schedule is a pure function
/// of its inputs and monotonically non-decreasing in `attempt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries per operation (0 = fail on first error).
    pub retries: u32,
    /// Backoff unit: the delay before the first retry is in
    /// `[base, 2·base)`.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
    /// Jitter seed; fixed by default so identical runs sleep
    /// identically.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: every error is final. The engine default, so
    /// unsupervised runs behave exactly as before.
    pub fn none() -> Self {
        RetryPolicy {
            retries: 0,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            seed: 0x70DE_71E5,
        }
    }

    /// `retries` attempts with the default base (25 ms), cap (1 s),
    /// and seed.
    pub fn new(retries: u32) -> Self {
        RetryPolicy {
            retries,
            ..RetryPolicy::none()
        }
    }

    /// The delay before retry `attempt` (0-based) of an operation on
    /// `stage`. The stage name is folded into the seed so sibling
    /// stages retrying in the same wave do not sleep in lockstep.
    pub fn delay(&self, stage: &str, attempt: u32) -> Duration {
        backoff_delay(
            self.base,
            self.cap,
            self.seed ^ fnv1a64(stage.as_bytes()),
            attempt,
        )
    }

    /// Runs one checkpoint operation on `stage`, retrying it while it
    /// fails with [`CheckpointError::Io`] and the budget lasts: retry
    /// `n` (0-based) sleeps [`RetryPolicy::delay`]`(stage, n)` first.
    /// Any other error is final at once. Returns the last result and
    /// the retries taken.
    pub fn retry_io<T>(
        &self,
        stage: &str,
        mut op: impl FnMut() -> Result<T, CheckpointError>,
    ) -> (Result<T, CheckpointError>, u32) {
        let mut retries = 0;
        loop {
            match op() {
                Err(CheckpointError::Io { .. }) if retries < self.retries => {
                    std::thread::sleep(self.delay(stage, retries));
                    retries += 1;
                }
                result => return (result, retries),
            }
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// The pure backoff schedule: `min(cap, base·2^attempt + jitter)`
/// with `jitter ∈ [0, base·2^attempt)` drawn from one [`SplitMix64`]
/// value seeded by `(seed, attempt)`. Once the exponential slot
/// reaches `cap` the delay is exactly `cap` (no jitter), which keeps
/// the schedule monotonically non-decreasing even past the cap.
pub fn backoff_delay(base: Duration, cap: Duration, seed: u64, attempt: u32) -> Duration {
    let shift = attempt.min(63);
    let slot: u128 = base.as_nanos().saturating_mul(1u128 << shift);
    let cap_ns = cap.as_nanos();
    if slot == 0 {
        return Duration::ZERO;
    }
    if slot >= cap_ns {
        return cap;
    }
    let mut rng = SplitMix64::new(seed ^ (u64::from(attempt) + 1).wrapping_mul(0x9E37_79B9));
    let jitter = (rng.next_u64() as u128) % slot;
    let nanos = slot.saturating_add(jitter).min(cap_ns);
    Duration::from_nanos(nanos.min(u64::MAX as u128) as u64)
}

/// The full supervision configuration a [`super::Graph`] runs under.
///
/// [`Supervisor::default`] — no retries, no deadline — reproduces the
/// unsupervised engine exactly, which is what
/// [`super::Graph::run`] uses.
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    /// Retry policy for checkpoint I/O failures.
    pub retry: RetryPolicy,
    /// Optional per-stage wall-time budget. When set, a watchdog
    /// monitor thread declares any stage still running past the
    /// budget lost ([`super::EngineError::StageTimedOut`]).
    pub stage_timeout: Option<Duration>,
}

impl Supervisor {
    /// A supervisor with `retries` checkpoint I/O retries and an
    /// optional stage deadline, under the default backoff.
    pub fn new(retries: u32, stage_timeout: Option<Duration>) -> Self {
        Supervisor {
            retry: RetryPolicy::new(retries),
            stage_timeout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_pure_and_monotone() {
        let (base, cap) = (Duration::from_millis(25), Duration::from_secs(1));
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let mut prev = Duration::ZERO;
            for attempt in 0..24 {
                let a = backoff_delay(base, cap, seed, attempt);
                let b = backoff_delay(base, cap, seed, attempt);
                assert_eq!(a, b, "not pure at attempt {attempt}");
                assert!(
                    a >= prev,
                    "decreased at attempt {attempt}: {prev:?} -> {a:?}"
                );
                assert!(a <= cap);
                prev = a;
            }
            assert_eq!(backoff_delay(base, cap, seed, 40), cap);
        }
    }

    #[test]
    fn backoff_first_retry_is_at_least_base() {
        let d = backoff_delay(Duration::from_millis(25), Duration::from_secs(1), 3, 0);
        assert!(d >= Duration::from_millis(25) && d < Duration::from_millis(50));
    }

    #[test]
    fn retry_io_retries_only_io_errors_within_budget() {
        let policy = RetryPolicy {
            retries: 3,
            base: Duration::ZERO,
            ..RetryPolicy::none()
        };
        let io = || CheckpointError::Io {
            path: "p.ckpt".into(),
            message: "injected".into(),
        };
        // `fails` Io errors, then success: every op call is counted.
        let run = |fails: u32| {
            let mut calls = 0;
            let (result, retries) = policy.retry_io("s", || {
                calls += 1;
                if calls <= fails {
                    Err(io())
                } else {
                    Ok(calls)
                }
            });
            (result, retries, calls)
        };
        for fails in 0..=3 {
            assert_eq!(run(fails), (Ok(fails + 1), fails, fails + 1));
        }
        // One Io error past the budget is returned, after 3 retries.
        assert_eq!(run(4), (Err(io()), 3, 4));
        // Damage is final at once, whatever the budget.
        let damaged = CheckpointError::Damaged {
            path: "p.ckpt".into(),
            stage: "s".into(),
            error: towerlens_artifact::ArtifactError::BadMagic,
        };
        let mut calls = 0;
        let (result, retries) = policy.retry_io("s", || -> Result<(), _> {
            calls += 1;
            Err(damaged.clone())
        });
        assert_eq!((result, retries, calls), (Err(damaged), 0, 1));
    }

    #[test]
    fn policy_folds_stage_into_seed() {
        let p = RetryPolicy::new(3);
        assert_eq!(p.delay("cluster", 1), p.delay("cluster", 1));
        // Different stages get different jitter (same slot, so equal
        // only if the jitter draw collides — astronomically unlikely).
        assert_ne!(p.delay("cluster", 1), p.delay("vectorize", 1));
    }
}
