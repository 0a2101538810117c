//! End-to-end tests of `towerlens-cli serve`: the crash-safe streaming
//! daemon through the real binary.
//!
//! The headline contract under test is deterministic kill-and-resume
//! replay: a daemon killed at *every* WAL segment boundary and
//! restarted each time must converge to stdout byte-identical to an
//! uninterrupted run — zero record loss, zero drift. Faults are
//! `TOWERLENS_FAILPOINTS` entries. Subprocesses, not library calls: the
//! kill failpoint aborts the whole process, and the metrics registry is
//! process-global.

mod common;

use common::{counter_value, current_bytes, gen_logs, read, run_env, run_ok, temp};
use towerlens_artifact::{ArtifactError, Dec, Enc};
use towerlens_core::engine::{CheckpointStore, StageCodec};
use towerlens_serve::{ServeConfig, SNAPSHOT_STAGE, SNAP_DIR, WAL_DIR};

fn serve_args<'a>(source: &'a str, data: &'a str) -> Vec<&'a str> {
    vec![
        "serve",
        "--source",
        source,
        "--data",
        data,
        "--days",
        "7",
        "--segment-records",
        "600",
        "--shards",
        "3",
    ]
}

/// Writes the first `lines` lines of `logs` to `to`, a stream prefix.
fn write_head(logs: &std::path::Path, lines: usize, to: &std::path::Path) {
    let head: String = read(logs)
        .lines()
        .take(lines)
        .map(|l| l.to_owned() + "\n")
        .collect();
    std::fs::write(to, head).unwrap();
}

/// Scrubs the scheduling-sensitive counter from a metrics dump: how
/// often a bounded queue happened to be full is a thread-timing fact,
/// not part of the deterministic surface.
fn scrub_metrics(metrics: &str) -> String {
    metrics
        .split(',')
        .filter(|field| !field.contains("serve.backpressure_waits"))
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn serve_stdout_is_deterministic_and_metrics_stable() {
    let dir = temp("determinism");
    let logs = gen_logs(&dir, 3000);
    let (d1, d2) = (dir.join("data1"), dir.join("data2"));
    let (m1, m2) = (dir.join("m1.json"), dir.join("m2.json"));

    let mut args1 = serve_args(logs.to_str().unwrap(), d1.to_str().unwrap());
    args1.extend(["--metrics", m1.to_str().unwrap()]);
    let out1 = run_ok(&args1);
    let mut args2 = serve_args(logs.to_str().unwrap(), d2.to_str().unwrap());
    args2.extend(["--metrics", m2.to_str().unwrap()]);
    let out2 = run_ok(&args2);

    assert_eq!(
        out1.stdout, out2.stdout,
        "serve stdout must be deterministic"
    );
    let report = String::from_utf8_lossy(&out1.stdout);
    assert!(report.contains("source lines   3000"), "report: {report}");

    // A rerun over the drained directory prints the same report.
    let m3 = dir.join("m3.json");
    let mut args3 = serve_args(logs.to_str().unwrap(), d1.to_str().unwrap());
    args3.extend(["--metrics", m3.to_str().unwrap()]);
    assert_eq!(run_ok(&args3).stdout, out1.stdout);

    // A stream shorter than one segment also takes its one snapshot at
    // the drain.
    let short = dir.join("short.tsv");
    write_head(&logs, 500, &short);
    let (d4, m4) = (dir.join("data4"), dir.join("m4.json"));
    let mut args4 = serve_args(short.to_str().unwrap(), d4.to_str().unwrap());
    args4.extend(["--metrics", m4.to_str().unwrap()]);
    run_ok(&args4);

    let (m1, m2, m3, m4) = (read(&m1), read(&m2), read(&m3), read(&m4));
    assert_eq!(scrub_metrics(&m1), scrub_metrics(&m2));
    assert_eq!(counter_value(&m1, "serve.records_ingested"), 3000);
    assert_eq!(counter_value(&m1, "serve.wal_segments"), 5);
    // One snapshot per run, at the drain, whatever the segment count:
    // `serve.snapshot.bytes` is exactly the file on disk. The rerun,
    // whose snapshot already covers the stream, writes none.
    for (m, data) in [(&m1, &d1), (&m4, &d4)] {
        let snapshot = std::fs::metadata(data.join("snap/serve-state.ckpt")).unwrap();
        assert_eq!(counter_value(m, "serve.snapshots"), 1, "{m}");
        assert_eq!(counter_value(m, "serve.snapshot.bytes"), snapshot.len());
    }
    assert_eq!(counter_value(&m3, "serve.snapshots"), 0);
    assert_eq!(counter_value(&m3, "serve.snapshot.bytes"), 0);
    // Without --publish or --basis the only Goertzel work is the
    // drain's: one three-bin pass per kept tower for the line
    // amplitudes and one for the identifier's spectral table.
    for m in [&m1, &m3] {
        let kept = counter_value(m, "pipeline.normalize.towers_kept");
        assert!(kept > 0, "{m}");
        assert_eq!(
            counter_value(m, "dsp.goertzel.evaluations"),
            6 * kept,
            "{m}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole chaos drill: kill the daemon at every segment
/// boundary, restarting each time, until a run reaches the drain — and,
/// in the second mode, kill that run too, after its drain's snapshot is
/// saved. The survivors' stdout must be byte-identical to an
/// uninterrupted run over the same source.
#[test]
fn kill_at_every_segment_boundary_replays_byte_identically() {
    let dir = temp("chaos");
    let logs = gen_logs(&dir, 3000);
    let source = logs.to_str().unwrap();

    let clean_data = dir.join("clean");
    let clean = run_ok(&serve_args(source, clean_data.to_str().unwrap()));

    // 3000 records / 600 per segment: each killed run seals exactly one
    // segment before dying, five in all; in `drain` mode the run that
    // seals none then dies after its drain's save.
    for (mode, spec, kills) in [
        ("seal", "wal.seal=abort@1", 5),
        ("drain", "wal.seal=abort@1;checkpoint=abort@1", 6),
    ] {
        let data = dir.join(format!("chaos-{mode}"));
        let args = serve_args(source, data.to_str().unwrap());
        let mut survivor = None;
        let mut aborted = 0usize;
        for _run in 0..40 {
            let out = run_env(&args, &[("TOWERLENS_FAILPOINTS", spec)]);
            if out.status.success() {
                survivor = Some(out);
                break;
            }
            aborted += 1;
        }
        let survivor = survivor.unwrap_or_else(|| panic!("{mode}: chaos loop never drained"));
        assert_eq!(aborted, kills, "{mode}: aborted runs");
        assert_eq!(
            clean.stdout, survivor.stdout,
            "{mode}: kill-and-resume must converge to the uninterrupted stdout"
        );
        // A kill after the drain's save leaves nothing to apply: the
        // survivor resumes from that snapshot and saves none.
        if mode == "drain" {
            let stderr = String::from_utf8_lossy(&survivor.stderr);
            assert!(
                stderr.contains("recovered seq 3000 (snapshot 3000, wal tail 0 entries"),
                "{stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery from the last drain's snapshot plus the WAL tail a kill left
/// past it — the one path that applies entries on top of a snapshot,
/// since segment boundaries take none. A run drains a prefix of the
/// stream; a run over the whole stream seals one more segment and is
/// killed; the restart loads the drain's snapshot, applies exactly that
/// segment's entries and drains to the uninterrupted run's stdout.
#[test]
fn restart_applies_the_wal_tail_past_the_drain_snapshot() {
    let dir = temp("drain-tail");
    let logs = gen_logs(&dir, 3000);
    let prefix = dir.join("prefix.tsv");
    write_head(&logs, 1800, &prefix);
    let (source, data) = (logs.to_str().unwrap(), dir.join("data"));
    let clean = run_ok(&serve_args(source, dir.join("clean").to_str().unwrap()));

    run_ok(&serve_args(
        prefix.to_str().unwrap(),
        data.to_str().unwrap(),
    ));
    let args = serve_args(source, data.to_str().unwrap());
    let killed = run_env(&args, &[("TOWERLENS_FAILPOINTS", "wal.seal=abort@1")]);
    assert!(!killed.status.success(), "the seal kill did not fire");

    let metrics = dir.join("restart.json");
    let mut restart = args.clone();
    restart.extend(["--metrics", metrics.to_str().unwrap()]);
    let out = run_ok(&restart);
    assert_eq!(
        counter_value(&read(&metrics), "serve.recovery.entries_applied"),
        600
    );
    assert_eq!(out.stdout, clean.stdout, "restart from snapshot + WAL tail");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot body in the older session layout, which also stored each
/// session's first sequence number (five 8-byte fields, not four): one
/// tower holding one session.
struct FiveFieldSessions;

impl StageCodec<()> for FiveFieldSessions {
    fn encode(&self, _: &(), out: &mut Enc) -> Result<(), String> {
        // next_seq, records, malformed, duplicates, conflicts; one tower
        // (cell 3) of one session: user, start, end, bytes, first seq.
        for field in [1, 1, 0, 0, 0, 1, 3, 1, 7, 100, 700, 999, 0] {
            out.u64(field);
        }
        Ok(())
    }

    fn decode(&self, _: &mut Dec<'_>) -> Result<(), ArtifactError> {
        unreachable!("only written")
    }
}

/// A snapshot in the older session layout fails the codec's exact-length
/// check: `serve` refuses it as damaged, naming the file, before it
/// acknowledges a line, and deleting `snap/` rebuilds the state from
/// the WAL.
#[test]
fn serve_refuses_a_snapshot_in_the_older_session_layout() {
    let dir = temp("old-snapshot");
    let logs = gen_logs(&dir, 1500);
    let prefix = dir.join("prefix.tsv");
    write_head(&logs, 1200, &prefix);
    let (source, data) = (logs.to_str().unwrap(), dir.join("data"));
    let clean = run_ok(&serve_args(source, dir.join("clean").to_str().unwrap()));

    run_ok(&serve_args(
        prefix.to_str().unwrap(),
        data.to_str().unwrap(),
    ));
    let fingerprint = ServeConfig {
        days: 7,
        ..ServeConfig::default()
    }
    .fingerprint();
    CheckpointStore::open(data.join(SNAP_DIR), fingerprint)
        .unwrap()
        .save(SNAPSHOT_STAGE, &[], &FiveFieldSessions, &())
        .unwrap();
    let segments = || std::fs::read_dir(data.join(WAL_DIR)).unwrap().count();
    let before = segments();

    let args = serve_args(source, data.to_str().unwrap());
    let refused = run_env(&args, &[]);
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(!refused.status.success(), "serve read an old snapshot");
    assert!(stderr.contains("snap/serve-state.ckpt"), "{stderr}");
    assert_eq!(segments(), before, "serve acknowledged lines: {stderr}");

    std::fs::remove_dir_all(data.join(SNAP_DIR)).unwrap();
    assert_eq!(run_ok(&args).stdout, clean.stdout, "rebuilt from the WAL");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot save that fails with an I/O error is retried under
/// `--retries`; past the budget the run fails, and the next start
/// replays the acknowledged lines from the WAL. Either way the drained
/// stdout is the clean run's.
#[test]
fn snapshot_save_faults_ride_through_or_fail_the_run() {
    let dir = temp("save-faults");
    let logs = gen_logs(&dir, 2000);
    let source = logs.to_str().unwrap();
    let clean = run_ok(&serve_args(source, dir.join("clean").to_str().unwrap()));
    let fault = [("TOWERLENS_FAILPOINTS", "checkpoint.save.serve-state=err*2")];

    let ride = dir.join("ride");
    let mut args = serve_args(source, ride.to_str().unwrap());
    args.extend(["--retries", "2"]);
    let out = run_env(&args, &fault);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(
        out.stdout, clean.stdout,
        "riding out save faults changed stdout"
    );

    let failed = dir.join("failed");
    let mut args = serve_args(source, failed.to_str().unwrap());
    args.extend(["--retries", "1"]);
    let out = run_env(&args, &fault);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "a failed run printed a report");
    assert!(
        stderr.contains("failpoint `checkpoint.save.serve-state=err*2` fired at hit 2"),
        "{stderr}"
    );
    let resumed = run_ok(&serve_args(source, failed.to_str().unwrap()));
    assert_eq!(resumed.stdout, clean.stdout, "restart after a failed save");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run saves its one snapshot at the drain, before it analyses and
/// publishes the final state, so a save that fails past `--retries`
/// fails the run after the segment barriers' generations are published
/// but before the final one. The restart replays the WAL and converges
/// on the clean run's stdout and final generation bytes; with the
/// budget to ride the faults out, the run publishes those bytes itself.
#[test]
fn snapshot_save_fault_at_the_drain_of_a_publishing_run() {
    let dir = temp("save-fault-publish");
    let logs = gen_logs(&dir, 2000);
    let source = logs.to_str().unwrap();
    let paths = |name: &str| (dir.join(name), dir.join(format!("{name}-store")));
    let fault = [("TOWERLENS_FAILPOINTS", "checkpoint.save.serve-state=err*2")];

    let (clean_data, clean_store) = paths("clean");
    let mut args = serve_args(source, clean_data.to_str().unwrap());
    args.extend(["--publish", clean_store.to_str().unwrap()]);
    let clean = run_ok(&args);
    let clean_generation = current_bytes(&clean_store);

    let (failed, failed_store) = paths("failed");
    let mut args = serve_args(source, failed.to_str().unwrap());
    args.extend(["--publish", failed_store.to_str().unwrap()]);
    let mut faulted = args.clone();
    faulted.extend(["--retries", "1"]);
    let out = run_env(&faulted, &fault);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "a failed run printed a report");
    assert!(
        stderr.contains("failpoint `checkpoint.save.serve-state=err*2` fired at hit 2"),
        "{stderr}"
    );
    assert!(
        failed_store.join("CURRENT").exists() && !failed.join("snap/serve-state.ckpt").exists(),
        "the segment barriers' generations are published, the snapshot is not:\n{stderr}"
    );
    assert_ne!(
        current_bytes(&failed_store),
        clean_generation,
        "the failed drain published its final state"
    );
    let resumed = run_ok(&args);
    assert_eq!(resumed.stdout, clean.stdout, "restart after a failed save");
    assert_eq!(
        current_bytes(&failed_store),
        clean_generation,
        "restart after a failed save"
    );

    let (ride, ride_store) = paths("ride");
    let mut args = serve_args(source, ride.to_str().unwrap());
    args.extend(["--publish", ride_store.to_str().unwrap(), "--retries", "2"]);
    let out = run_env(&args, &fault);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, clean.stdout, "riding out save faults");
    assert_eq!(
        current_bytes(&ride_store),
        clean_generation,
        "riding out save faults"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctor_fscks_wal_and_snapshots_and_flags_corruption() {
    let dir = temp("doctor");
    let logs = gen_logs(&dir, 1500);
    let data = dir.join("data");
    run_ok(&serve_args(logs.to_str().unwrap(), data.to_str().unwrap()));

    let healthy = run_ok(&["doctor", "--dir", data.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&healthy.stdout);
    assert!(text.contains("snap/serve-state.ckpt"), "doctor: {text}");
    assert!(text.contains("seg-00000000.wal"), "doctor: {text}");
    assert!(text.contains("0 damaged"), "doctor: {text}");

    // Flip one byte in the middle of a sealed segment: doctor must
    // report the segment BAD and exit 1.
    let seg = data.join("wal").join("seg-00000001.wal");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    std::fs::write(&seg, bytes).unwrap();
    let damaged = run_env(&["doctor", "--dir", data.to_str().unwrap()], &[]);
    assert_eq!(damaged.status.code(), Some(1));
    let text = String::from_utf8_lossy(&damaged.stdout);
    assert!(text.contains("BAD"), "doctor after corruption: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve --basis` classifies the towers against a frozen analyze
/// artifact, and the classification is part of the deterministic
/// report. A file that is not an artifact of the same window is refused
/// before any state is written.
#[test]
fn serve_classifies_against_a_frozen_batch_basis() {
    let dir = temp("basis");
    let ds = dir.join("ds");
    run_ok(&[
        "gen",
        "--out",
        ds.to_str().unwrap(),
        "--seed",
        "11",
        "--towers",
        "24",
        "--agents",
        "90",
        "--days",
        "7",
    ]);
    // Batch study over the same dataset writes the frozen basis as a
    // query artifact; `--resume` also leaves the analyze graph's
    // `cluster.ckpt` checkpoint behind.
    let basis = dir.join("study.artifact");
    let ckpt = dir.join("ckpt");
    run_ok(&[
        "analyze",
        "--dir",
        ds.to_str().unwrap(),
        "--days",
        "7",
        "--feature-space",
        "raw",
        "--snapshot",
        basis.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
    ]);

    let logs = ds.join("logs.tsv");
    let data = dir.join("data");
    let metrics = dir.join("basis.json");
    let mut args = serve_args(logs.to_str().unwrap(), data.to_str().unwrap());
    args.extend(["--basis", basis.to_str().unwrap()]);
    args.extend(["--metrics", metrics.to_str().unwrap()]);
    let out = run_ok(&args);
    let report = String::from_utf8_lossy(&out.stdout);
    let basis_line = report
        .lines()
        .find(|l| l.starts_with("basis"))
        .unwrap_or_else(|| panic!("no basis line in report: {report}"));
    assert!(
        basis_line.contains("stage=artifact"),
        "basis line: {basis_line}"
    );
    assert!(basis_line.contains("classes"), "basis line: {basis_line}");
    // The last barrier's state line classifies the same final state
    // through the same analysis as the drain.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let progress = stderr
        .lines()
        .rfind(|l| l.starts_with("serve: state at seq"))
        .unwrap_or_else(|| panic!("no state line: {stderr}"));
    let classes = |line: &str| line.split_once(" classes ").map(|(_, c)| c.to_string());
    assert_eq!(classes(progress), classes(basis_line), "{progress}");
    // The counts read only the barriers' vectors: patterns are
    // identified once, at the drain, exactly as without --basis.
    let (plain, plain_metrics) = (dir.join("plain"), dir.join("plain.json"));
    let mut args = serve_args(logs.to_str().unwrap(), plain.to_str().unwrap());
    args.extend(["--metrics", plain_metrics.to_str().unwrap()]);
    run_ok(&args);
    let goertzel = |m: &std::path::Path| counter_value(&read(m), "dsp.goertzel.evaluations");
    assert!(goertzel(&plain_metrics) > 0);
    assert_eq!(goertzel(&metrics), goertzel(&plain_metrics));

    // A checkpoint is not a basis: serve refuses it, naming the file,
    // before it writes any durable state.
    let cluster_ckpt = ckpt.join("cluster.ckpt");
    assert!(cluster_ckpt.exists(), "analyze should leave cluster.ckpt");
    let refused = dir.join("refused");
    let mut args = serve_args(logs.to_str().unwrap(), refused.to_str().unwrap());
    args.extend(["--basis", cluster_ckpt.to_str().unwrap()]);
    let out = run_env(&args, &[]);
    assert!(!out.status.success(), "serve accepted a checkpoint basis");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let expected = format!(
        "configuration: basis {}: required section `meta` missing",
        cluster_ckpt.display()
    );
    assert!(stderr.contains(&expected), "stderr: {stderr}");
    assert!(
        !refused.exists(),
        "serve wrote state before rejecting the basis"
    );

    // A basis over another window is refused just as early: its
    // centroids cannot classify this window's vectors.
    let basis14 = dir.join("study14.artifact");
    run_ok(&[
        "analyze",
        "--dir",
        ds.to_str().unwrap(),
        "--days",
        "14",
        "--feature-space",
        "raw",
        "--snapshot",
        basis14.to_str().unwrap(),
    ]);
    let mut args = serve_args(logs.to_str().unwrap(), refused.to_str().unwrap());
    args.extend(["--basis", basis14.to_str().unwrap()]);
    let out = run_env(&args, &[]);
    assert!(!out.status.success(), "serve accepted a 14-day basis");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let expected = format!(
        "configuration: basis {}: dimensionality 2016 does not match the 7-day window's 1008 bins",
        basis14.display()
    );
    assert!(stderr.contains(&expected), "stderr: {stderr}");
    assert!(
        !refused.exists(),
        "serve wrote state before rejecting the basis"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
