//! End-to-end observability contract, driven through the real binary.
//!
//! Subprocesses, not library calls: the metrics registry is
//! process-global, so each invocation here gets the same fresh-process
//! view a user gets, and parallel tests cannot contaminate each other.
//!
//! Covered: `--metrics` dumps are byte-identical across identical
//! seeded runs (the determinism contract — no wall-clock in the
//! snapshot), hot-path counters land on exactly the same values for
//! any `--threads` setting (the sharded-tally contract), and a
//! checkpoint-resumed `analyze` reports the reloaded stages as
//! `cached` in the `--trace-events` span log while every recompute
//! counter stays at zero.

mod common;

use std::path::Path;

use common::{counter_value, read, run_ok, span_status, temp};

#[test]
fn metrics_dump_is_byte_identical_across_identical_seeded_runs() {
    let dir = temp("determinism");
    let first = dir.join("m1.json");
    let second = dir.join("m2.json");
    for path in [&first, &second] {
        run_ok(&[
            "study",
            "--scale",
            "tiny",
            "--seed",
            "42",
            "--metrics",
            path.to_str().unwrap(),
        ]);
    }
    let a = std::fs::read(&first).expect("first dump");
    let b = std::fs::read(&second).expect("second dump");
    assert!(!a.is_empty());
    assert_eq!(a, b, "identical seeded runs must dump identical metrics");

    // And the dump actually carries the hot-path counters, not an
    // empty-but-identical shell.
    let text = String::from_utf8(a).expect("utf8 metrics");
    for name in [
        "cluster.agglomerative.merges",
        "cluster.distance.evaluations",
        "core.engine.runs",
        "core.engine.stages_ran",
        "dsp.goertzel.evaluations",
        "pipeline.normalize.towers_kept",
    ] {
        assert!(counter_value(&text, name) > 0, "counter `{name}` is zero");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_path_counters_are_exactly_equal_across_thread_counts() {
    let dir = temp("thread-counters");
    // The tiny preset clusters in the raw space (`auto` below 2,048
    // towers); forced into the spectral space, the cluster stage runs
    // over the k-d index, whose counters must be published and
    // split-invariant too.
    for space in ["auto", "spectral"] {
        let dumps: Vec<String> = ["1", "2", "8"]
            .iter()
            .map(|threads| {
                let path = dir.join(format!("metrics-{space}-t{threads}.json"));
                run_ok(&[
                    "study",
                    "--scale",
                    "tiny",
                    "--seed",
                    "42",
                    "--feature-space",
                    space,
                    "--threads",
                    threads,
                    "--metrics",
                    path.to_str().unwrap(),
                ]);
                read(&path)
            })
            .collect();

        // Tallies are accumulated in per-worker shards and merged in
        // worker order, so every counter — not just the stage outputs
        // — must land on exactly the same value no matter how the
        // work was split.
        for name in [
            "cluster.distance.evaluations",
            "cluster.index.leaf_evaluations",
            "cluster.agglomerative.merges",
            "dsp.goertzel.evaluations",
            "dsp.fft.transforms",
            "pipeline.normalize.towers_kept",
            "core.label.rows_probed",
            "core.label.poi_candidates",
            "core.label.haversine_calls",
        ] {
            let reference = counter_value(&dumps[0], name);
            for (dump, threads) in dumps.iter().zip(["1", "2", "8"]) {
                assert_eq!(
                    counter_value(dump, name),
                    reference,
                    "{space}: counter `{name}` differs at --threads {threads}"
                );
            }
        }
        if space == "spectral" {
            assert!(
                counter_value(&dumps[0], "cluster.index.leaf_evaluations") > 0,
                "spectral study published no k-d index evaluations"
            );
        }
        // One spectral table per study, in either space: three
        // Goertzel bins per kept tower, evaluated once.
        assert_eq!(
            counter_value(&dumps[0], "dsp.goertzel.evaluations"),
            3 * counter_value(&dumps[0], "pipeline.normalize.towers_kept"),
            "{space}: the study did not make exactly one Goertzel pass"
        );
        assert!(
            counter_value(&dumps[0], "core.label.poi_candidates") > 0,
            "{space}: the label stage published no POI candidates"
        );
        // Stronger still: the whole dump is byte-identical.
        assert_eq!(
            dumps[0], dumps[1],
            "{space}: metrics differ between 1 and 2 threads"
        );
        assert_eq!(
            dumps[0], dumps[2],
            "{space}: metrics differ between 1 and 8 threads"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_stages_are_cached_in_the_span_log_with_zero_recompute_counters() {
    let dir = temp("resume");
    let data = dir.join("data");
    let checkpoints = dir.join("ckpt");
    run_ok(&[
        "gen",
        "--out",
        data.to_str().unwrap(),
        "--seed",
        "11",
        "--towers",
        "40",
        "--agents",
        "300",
        "--days",
        "7",
    ]);

    // Warm run: populates the checkpoint store and — being a fresh
    // process — shows every stage as `ran` with live counters.
    let warm_metrics = dir.join("warm-metrics.json");
    let warm_events = dir.join("warm-events.json");
    let analyze = |metrics: &Path, events: &Path| {
        run_ok(&[
            "analyze",
            "--dir",
            data.to_str().unwrap(),
            "--resume",
            checkpoints.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
            "--trace-events",
            events.to_str().unwrap(),
        ]);
    };
    analyze(&warm_metrics, &warm_events);
    let warm_log = read(&warm_events);
    for stage in ["ingest-logs", "clean", "vectorize", "cluster"] {
        assert_eq!(span_status(&warm_log, stage), "ran");
    }
    let warm = read(&warm_metrics);
    assert!(counter_value(&warm, "trace.ingest.records") > 0);
    assert!(counter_value(&warm, "cluster.distance.evaluations") > 0);
    // The cluster stage builds the spectral table: one three-bin pass
    // per kept tower.
    assert_eq!(
        counter_value(&warm, "dsp.goertzel.evaluations"),
        3 * counter_value(&warm, "pipeline.normalize.towers_kept")
    );

    // Resumed run: checkpointed stages come back `cached`, their
    // upstreams are skipped, and no recompute counter moves.
    let resumed_metrics = dir.join("resumed-metrics.json");
    let resumed_events = dir.join("resumed-events.json");
    analyze(&resumed_metrics, &resumed_events);
    let log = read(&resumed_events);
    for stage in ["vectorize", "cluster"] {
        assert_eq!(span_status(&log, stage), "cached", "stage `{stage}`");
    }
    for stage in ["ingest-logs", "clean"] {
        assert_eq!(span_status(&log, stage), "skipped", "stage `{stage}`");
    }

    let metrics = read(&resumed_metrics);
    for name in [
        "trace.ingest.records",
        "trace.quarantine.records",
        "trace.clean.kept",
        "trace.clean.dropped",
        "pipeline.vectorize.records",
        "pipeline.normalize.towers_kept",
        "cluster.distance.evaluations",
        "cluster.agglomerative.merges",
        // The table comes back with the cluster checkpoint.
        "dsp.goertzel.evaluations",
    ] {
        assert_eq!(counter_value(&metrics, name), 0, "counter `{name}` moved");
    }
    // The engine itself still ran and accounted for the reloads.
    assert_eq!(counter_value(&metrics, "core.engine.runs"), 1);
    assert_eq!(counter_value(&metrics, "core.engine.stages_cached"), 2);
    assert_eq!(counter_value(&metrics, "core.engine.stages_skipped"), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
