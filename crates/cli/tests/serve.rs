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

use common::{counter_value, gen_logs, read, run_env, run_ok, temp};

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

    let (m1, m2) = (read(&m1), read(&m2));
    assert_eq!(scrub_metrics(&m1), scrub_metrics(&m2));
    assert_eq!(counter_value(&m1, "serve.records_ingested"), 3000);
    assert_eq!(counter_value(&m1, "serve.wal_segments"), 5);
    assert_eq!(counter_value(&m1, "serve.shed_total"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole chaos drill: kill the daemon at every segment
/// boundary (both before and after the snapshot), restarting each
/// time, until a run reaches the drain. The survivors' stdout must be
/// byte-identical to an uninterrupted run over the same source.
#[test]
fn kill_at_every_segment_boundary_replays_byte_identically() {
    let dir = temp("chaos");
    let logs = gen_logs(&dir, 3000);
    let source = logs.to_str().unwrap();

    let clean_data = dir.join("clean");
    let clean = run_ok(&serve_args(source, clean_data.to_str().unwrap()));

    for (mode, spec) in [("pre", "wal.seal=abort@1"), ("post", "checkpoint=abort@1")] {
        let data = dir.join(format!("chaos-{mode}"));
        let args = serve_args(source, data.to_str().unwrap());
        let mut final_stdout = Vec::new();
        let mut aborted = 0usize;
        for _run in 0..40 {
            let out = run_env(&args, &[("TOWERLENS_FAILPOINTS", spec)]);
            if out.status.success() {
                final_stdout = out.stdout;
                break;
            }
            aborted += 1;
        }
        assert!(
            !final_stdout.is_empty(),
            "{mode}: chaos loop never reached the drain"
        );
        // 3000 records / 600 per segment: the killed runs each seal
        // exactly one segment before dying, so the loop must abort
        // several times before converging.
        assert!(
            aborted >= 4,
            "{mode}: expected several aborted runs, got {aborted}"
        );
        assert_eq!(
            clean.stdout, final_stdout,
            "{mode}: kill-and-resume must converge to the uninterrupted stdout"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A transient shard failure burst inside the retry budget is
/// invisible in stdout; past the budget the shard quarantines and the
/// daemon survives with the loss accounted in metrics.
#[test]
fn shard_failures_ride_through_or_quarantine() {
    let dir = temp("shard-faults");
    let logs = gen_logs(&dir, 2000);
    let source = logs.to_str().unwrap();

    let clean_data = dir.join("clean");
    let clean = run_ok(&serve_args(source, clean_data.to_str().unwrap()));

    // Within budget: 2 injected failures per shard, 3 retries.
    let data = dir.join("ride");
    let metrics = dir.join("ride.json");
    let mut args = serve_args(source, data.to_str().unwrap());
    args.extend(["--retries", "3", "--metrics", metrics.to_str().unwrap()]);
    let out = run_env(&args, &[("TOWERLENS_FAILPOINTS", "shard.*=err*2")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        clean.stdout, out.stdout,
        "ride-through must not change stdout"
    );
    let m = read(&metrics);
    assert!(counter_value(&m, "serve.shard_restarts") >= 6);
    assert_eq!(counter_value(&m, "serve.shed_total"), 0);
    assert_eq!(counter_value(&m, "serve.shards_quarantined"), 0);

    // Past budget: zero retries, the poisoned shard sheds and trips
    // its breaker; the daemon still drains successfully.
    let data = dir.join("quarantine");
    let metrics = dir.join("quarantine.json");
    let mut args = serve_args(source, data.to_str().unwrap());
    args.extend(["--retries", "0", "--metrics", metrics.to_str().unwrap()]);
    let out = run_env(&args, &[("TOWERLENS_FAILPOINTS", "shard.0=err*9")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let m = read(&metrics);
    assert!(counter_value(&m, "serve.shed_total") > 0);
    assert_eq!(counter_value(&m, "serve.shards_quarantined"), 1);
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

/// `serve --basis` classifies live towers against the frozen analyze
/// checkpoint, and the classification is part of the deterministic
/// report.
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
    // Batch study over the same dataset writes the frozen basis.
    let ckpt = dir.join("ckpt");
    run_ok(&[
        "analyze",
        "--dir",
        ds.to_str().unwrap(),
        "--days",
        "7",
        "--feature-space",
        "raw",
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    let basis = ckpt.join("cluster.ckpt");
    assert!(basis.exists(), "analyze should leave cluster.ckpt behind");

    let logs = ds.join("logs.tsv");
    let data = dir.join("data");
    let mut args = serve_args(logs.to_str().unwrap(), data.to_str().unwrap());
    args.extend(["--basis", basis.to_str().unwrap()]);
    let out = run_ok(&args);
    let report = String::from_utf8_lossy(&out.stdout);
    let basis_line = report
        .lines()
        .find(|l| l.starts_with("basis"))
        .unwrap_or_else(|| panic!("no basis line in report: {report}"));
    assert!(
        basis_line.contains("stage=cluster"),
        "basis line: {basis_line}"
    );
    assert!(basis_line.contains("classes"), "basis line: {basis_line}");
    let _ = std::fs::remove_dir_all(&dir);
}
