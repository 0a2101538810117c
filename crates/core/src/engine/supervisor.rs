//! Checkpoint-I/O retries: the engine's one supervision mechanism.
//!
//! The paper's pipeline ran for a month on a Hadoop cluster (§2),
//! where transient I/O failures and task restarts are the norm.
//! Hadoop answers a straggler by killing the task and running it
//! again; this workspace's equivalent is the process-level
//! kill-and-`--resume` contract the chaos suite gates. Inside the
//! process the engine supervises only what a second attempt can fix:
//! a checkpoint probe or save that fails with [`CheckpointError::Io`]
//! (the disk may come back) is retried through [`retry_io`]. A stage's
//! own failure is never retried: the stages are deterministic, so a
//! second attempt only repeats the first.
//!
//! Probes and saves run one at a time on the runner thread, and
//! serve saves once per run, so no two retries ever contend: the
//! backoff is the plain exponential `min(1 s, 25 ms·2^k)` before retry
//! `k`, with no jitter.
//!
//! The `checkpoint.save.<stage>` / `checkpoint.load.<stage>`
//! failpoints (`towerlens_obs::failpoint`) make checkpoint I/O fail
//! transiently on demand, so the retry path is exercised end-to-end
//! by tests rather than asserted in prose.

use std::time::Duration;

use super::checkpoint::CheckpointError;

/// The delay before the first retry.
const RETRY_BASE: Duration = Duration::from_millis(25);

/// The ceiling on any single delay.
const RETRY_CAP: Duration = Duration::from_secs(1);

/// The delay before retry `attempt` (0-based):
/// `min(1 s, 25 ms·2^attempt)`.
fn backoff_delay(attempt: u32) -> Duration {
    let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
    RETRY_BASE.saturating_mul(factor).min(RETRY_CAP)
}

/// Runs one checkpoint operation, retrying it while it fails with
/// [`CheckpointError::Io`] and fewer than `retries` retries were
/// taken: retry `n` (0-based) first sleeps `min(1 s, 25 ms·2^n)`. Any
/// other error is final at once. Returns the last result and the
/// retries taken.
pub fn retry_io<T>(
    retries: u32,
    mut op: impl FnMut() -> Result<T, CheckpointError>,
) -> (Result<T, CheckpointError>, u32) {
    let mut taken = 0;
    loop {
        match op() {
            Err(CheckpointError::Io { .. }) if taken < retries => {
                std::thread::sleep(backoff_delay(taken));
                taken += 1;
            }
            result => return (result, taken),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_25_ms_to_a_1_s_cap() {
        let schedule: Vec<u128> = (0..8).map(|k| backoff_delay(k).as_millis()).collect();
        assert_eq!(schedule, [25, 50, 100, 200, 400, 800, 1000, 1000]);
        assert_eq!(backoff_delay(u32::MAX), RETRY_CAP);
    }

    #[test]
    fn retry_io_retries_only_io_errors_within_budget() {
        let io = || CheckpointError::Io {
            path: "p.ckpt".into(),
            message: "injected".into(),
        };
        // `fails` Io errors, then success: every op call is counted.
        let run = |fails: u32| {
            let mut calls = 0;
            let (result, retries) = retry_io(3, || {
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
        let (result, retries) = retry_io(3, || -> Result<(), _> {
            calls += 1;
            Err(damaged.clone())
        });
        assert_eq!((result, retries, calls), (Err(damaged), 0, 1));
    }
}
