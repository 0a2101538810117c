//! Crash-recovery chaos harness, driven through the real binary.
//!
//! Failure regimes the paper's month-long Hadoop runs (§2) make
//! routine, each injected via a seeded failpoint and asserted against
//! the recovery contract:
//!
//! * **Process death mid-run** (`checkpoint=abort@k`): the process
//!   aborts right after the k-th checkpoint save. A `--resume` rerun
//!   must produce byte-identical final artifacts and stdout, reload
//!   exactly k stages from disk, and leave every recompute counter of
//!   the cached stages at zero — proving only unfinished work was
//!   redone.
//! * **Transient checkpoint I/O faults**
//!   (`checkpoint.save.<stage>=err*n`): a bounded burst of injected
//!   save failures rides through under a `--retries` budget with
//!   bit-identical output and a nonzero retry counter; over budget,
//!   the run fails with a typed checkpoint error instead of
//!   corrupting anything.
//! * **A dead required stage** (`stage.<stage>=panic`): `analyze` and
//!   `study` fail naming the stage and its panic.
//!
//! A straggler has no in-process remedy: a thread cannot be stopped,
//! so a stuck run is killed and resumed, which is the first regime,
//! and no flag sets a stage deadline.
//!
//! Every failpoint is an entry of `TOWERLENS_FAILPOINTS`. Subprocesses,
//! not library calls: the kill failpoint aborts the whole process, and
//! the metrics and failpoint registries are process-global.

mod common;

use common::{ckpt_files, counter_value, read, run_env, run_ok, temp};

fn study_args<'a>(ckpt: &'a str, metrics: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        "study",
        "--scale",
        "tiny",
        "--seed",
        "42",
        "--resume",
        ckpt,
        "--metrics",
        metrics,
    ];
    args.extend_from_slice(extra);
    args
}

/// Kill the process after each possible checkpoint save (the study's
/// checkpointed spine is city → synthesize → vectorize → cluster, one
/// save per wave), then resume: the final artifacts and stdout must
/// be byte-identical to an uninterrupted run, with exactly k stages
/// reloaded and zero recompute in the cached prefix.
#[test]
fn crash_after_every_kill_point_resumes_bit_identically() {
    let dir = temp("kill");
    let base_ckpt = dir.join("base-ckpt");
    let base_metrics = dir.join("base-metrics.json");
    let baseline = run_ok(&study_args(
        base_ckpt.to_str().unwrap(),
        base_metrics.to_str().unwrap(),
        &[],
    ));
    let baseline_files = ckpt_files(&base_ckpt);
    assert_eq!(
        baseline_files.len(),
        4,
        "expected the 4 checkpointed spine stages, got {baseline_files:?}"
    );

    for k in 1..=4usize {
        let ckpt = dir.join(format!("kill-{k}-ckpt"));
        let metrics = dir.join(format!("kill-{k}-metrics.json"));
        let ckpt_s = ckpt.to_str().unwrap().to_string();
        let metrics_s = metrics.to_str().unwrap().to_string();

        // The doomed run: aborts right after the k-th save completes.
        let killed = run_env(
            &study_args(&ckpt_s, &metrics_s, &[]),
            &[("TOWERLENS_FAILPOINTS", &format!("checkpoint=abort@{k}"))],
        );
        assert!(
            !killed.status.success(),
            "kill-point {k}: the process should have died"
        );
        let stderr = String::from_utf8_lossy(&killed.stderr);
        assert!(
            stderr.contains(&format!(
                "failpoint `checkpoint=abort@{k}` fired at hit {k}"
            )),
            "kill-point {k}: died for the wrong reason:\n{stderr}"
        );
        let survivors = ckpt_files(&ckpt);
        assert_eq!(
            survivors.len(),
            k,
            "kill-point {k}: expected exactly k durable checkpoints, got {survivors:?}"
        );

        // The recovery run: no failpoint, same store.
        let resumed = run_env(&study_args(&ckpt_s, &metrics_s, &[]), &[]);
        assert!(
            resumed.status.success(),
            "kill-point {k}: resume failed:\n{}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            resumed.stdout, baseline.stdout,
            "kill-point {k}: resumed stdout differs from the uninterrupted run"
        );
        assert_eq!(ckpt_files(&ckpt), baseline_files, "kill-point {k}");
        for name in &baseline_files {
            let a = std::fs::read(base_ckpt.join(name)).expect("baseline ckpt");
            let b = std::fs::read(ckpt.join(name)).expect("resumed ckpt");
            assert_eq!(a, b, "kill-point {k}: checkpoint `{name}` differs");
        }

        // Exactly the crash's durable prefix was reloaded, and the
        // cached stages' recompute counters never moved.
        let m = read(&metrics);
        assert_eq!(
            counter_value(&m, "core.engine.stages_cached"),
            k as u64,
            "kill-point {k}"
        );
        assert_eq!(counter_value(&m, "core.engine.stage_retries_total"), 0);
        if k >= 3 {
            // vectorize was cached: nothing was normalized this run.
            assert_eq!(
                counter_value(&m, "pipeline.normalize.towers_kept"),
                0,
                "kill-point {k}: vectorize recomputed"
            );
        }
        if k >= 4 {
            // cluster was cached: no distance work this run.
            assert_eq!(
                counter_value(&m, "cluster.agglomerative.merges"),
                0,
                "kill-point {k}: cluster recomputed"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bounded burst of injected checkpoint-save faults rides through
/// under the retry budget — bit-identical stdout, nonzero retry
/// counter — and fails with a typed checkpoint error over budget.
#[test]
fn transient_io_faults_ride_through_under_the_retry_budget() {
    let dir = temp("io");
    let clean_ckpt = dir.join("clean-ckpt");
    let clean_metrics = dir.join("clean-metrics.json");
    let clean = run_ok(&study_args(
        clean_ckpt.to_str().unwrap(),
        clean_metrics.to_str().unwrap(),
        &[],
    ));

    // Two injected save failures on `vectorize`, three retries: the
    // run recovers and the numbers are exactly the fault-free ones.
    let ok_ckpt = dir.join("ok-ckpt");
    let ok_metrics = dir.join("ok-metrics.json");
    let survived = run_env(
        &study_args(
            ok_ckpt.to_str().unwrap(),
            ok_metrics.to_str().unwrap(),
            &["--retries", "3"],
        ),
        &[("TOWERLENS_FAILPOINTS", "checkpoint.save.vectorize=err*2")],
    );
    assert!(
        survived.status.success(),
        "retry budget should absorb the burst:\n{}",
        String::from_utf8_lossy(&survived.stderr)
    );
    assert_eq!(
        survived.stdout, clean.stdout,
        "riding through faults changed the output"
    );
    let m = read(&ok_metrics);
    assert!(
        counter_value(&m, "core.engine.stage_retries_total") >= 2,
        "retries not accounted: {m}"
    );
    // The checkpoint that finally landed is byte-identical to the
    // fault-free one.
    for name in ckpt_files(&clean_ckpt) {
        let a = std::fs::read(clean_ckpt.join(&name)).expect("clean ckpt");
        let b = std::fs::read(ok_ckpt.join(&name)).expect("survivor ckpt");
        assert_eq!(a, b, "checkpoint `{name}` differs after riding out faults");
    }

    // The same burst with an insufficient budget is a typed failure,
    // not a silent degradation.
    let bad_ckpt = dir.join("bad-ckpt");
    let bad_metrics = dir.join("bad-metrics.json");
    let failed = run_env(
        &study_args(
            bad_ckpt.to_str().unwrap(),
            bad_metrics.to_str().unwrap(),
            &["--retries", "1"],
        ),
        &[("TOWERLENS_FAILPOINTS", "checkpoint.save.vectorize=err*2")],
    );
    assert!(!failed.status.success(), "over-budget faults must fail");
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert!(
        stderr.contains("checkpoint")
            && stderr.contains("failpoint `checkpoint.save.vectorize=err*2` fired at hit 2"),
        "missing typed checkpoint error, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A required stage that panics fails the run with that stage's own
/// error, under `analyze` as under `study`, not with the artifact the
/// dead stage left missing.
#[test]
fn a_failed_required_stage_is_named_by_analyze_and_study() {
    let dir = temp("required");
    let data = dir.join("data");
    let data_s = data.to_str().unwrap();
    run_ok(&[
        "gen", "--out", data_s, "--seed", "4", "--towers", "40", "--agents", "200", "--days", "7",
    ]);
    let panic = [("TOWERLENS_FAILPOINTS", "stage.cluster=panic")];
    let named = "stage `cluster` panicked: failpoint `stage.cluster=panic` fired at hit 1";
    for (args, says) in [
        (
            vec!["analyze", "--dir", data_s, "--days", "7"],
            format!("analyze failed: {named}"),
        ),
        (
            vec!["study", "--scale", "tiny", "--seed", "42"],
            format!("study failed: engine: {named}"),
        ),
    ] {
        let out = run_env(&args, &panic);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {stderr}", args[0]);
        assert!(stderr.contains(&says), "{}: {stderr}", args[0]);
        assert!(out.stdout.is_empty(), "{}: printed a result", args[0]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// No flag sets a stage deadline: `--stage-timeout-ms` is refused as
/// unknown before any work, by `study` and `analyze` alike.
#[test]
fn stage_timeout_flag_is_an_unknown_flag() {
    let dir = temp("deadline");
    let (data, ckpt) = (dir.join("data"), dir.join("ckpt"));
    let (data_s, ckpt_s) = (data.to_str().unwrap(), ckpt.to_str().unwrap());
    for args in [
        vec!["study", "--resume", ckpt_s, "--stage-timeout-ms", "1"],
        vec![
            "analyze",
            "--dir",
            data_s,
            "--resume",
            ckpt_s,
            "--stage-timeout-ms",
            "1",
        ],
    ] {
        let command = args[0];
        let out = run_env(&args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "unknown flag `--stage-timeout-ms` for `{command}`"
            )),
            "{command}: {stderr}"
        );
        assert!(!ckpt.exists(), "{command} did work before refusing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged checkpoint is recomputed with a warning, and the warning
/// reaches stderr on a plain run, without `--timings` or `--json`.
#[test]
fn damaged_checkpoint_warning_reaches_stderr_without_flags() {
    let dir = temp("warn");
    let ckpt = dir.join("ckpt");
    let args = [
        "study",
        "--scale",
        "tiny",
        "--seed",
        "3",
        "--resume",
        ckpt.to_str().unwrap(),
    ];
    let fresh = run_ok(&args);
    let city = ckpt.join("city.ckpt");
    let mut bytes = std::fs::read(&city).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&city, bytes).unwrap();

    let resumed = run_ok(&args);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("checkpoint for stage `city` is unusable")
            && stderr.contains("recomputing"),
        "no warning on stderr: {stderr}"
    );
    assert_eq!(resumed.stdout, fresh.stdout, "the recompute changed stdout");
    let _ = std::fs::remove_dir_all(&dir);
}
