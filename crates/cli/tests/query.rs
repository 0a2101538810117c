//! Query-server contract tests: the golden equivalence against the
//! batch study report, the concurrency soak through the real binary,
//! and the doctor's artifact exit semantics.
//!
//! The golden test builds the tiny-study snapshot in-process and
//! checks that every `pattern` and stored `decompose` answer is
//! byte-for-byte what the batch [`PartialStudyReport`] says, and that
//! `topk` agrees with an independent brute-force O(n²) scan over the
//! same feature rows. The soak test drives the binary's `--stdin`
//! batch mode at 1 and 8 threads over 1,000 mixed requests and
//! demands byte-identical stdout plus exactly equal — and exactly
//! predicted — `query.*` counters. Doctor tests corrupt a written
//! artifact one byte at a time and check the degraded-vs-corrupt
//! exit-code split end to end.

mod common;

use std::io::Write;
use std::process::{Command, Output, Stdio};

use towerlens_artifact::{
    read_snapshot, render_decompose, render_topk, run_one, write_snapshot, QueryIndex,
};
use towerlens_cli::commands::{run_study, study_config};
use towerlens_core::{PartialStudyReport, Study};
use towerlens_pipeline::feature::FeatureSpace;

use common::{counter_value, read, temp, BIN};

fn run_ok(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().expect("spawn CLI");
    assert!(
        out.status.success(),
        "`towerlens-cli {}` failed:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn run_stdin(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn CLI");
    child
        .stdin
        .take()
        .expect("stdin handle")
        .write_all(input.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("wait CLI")
}

/// The tiny study, its checkpoint fingerprint, and its snapshot —
/// the in-process reference every golden assertion derives from.
fn tiny_study() -> (PartialStudyReport, QueryIndex) {
    let config = study_config("tiny", 42).expect("tiny config");
    let fingerprint = Study::new(config.clone()).checkpoint_fingerprint();
    let (report, _) = run_study(config, None).expect("tiny study");
    let snapshot = report
        .to_snapshot(fingerprint, FeatureSpace::Auto)
        .expect("snapshot from tiny study");
    (report, QueryIndex::new(snapshot))
}

#[test]
fn golden_pattern_and_decompose_match_the_batch_study_report() {
    let (report, index) = tiny_study();
    let snap = index.snapshot();
    let geo = report.geo.as_ref().expect("tiny study labels clusters");

    // Every tower's `pattern` answer must be built from the exact
    // cluster label and region kind the batch report assigned — the
    // expectation string is assembled here from the report, not from
    // the artifact's render helper.
    for (idx, &id) in snap.tower_ids.iter().enumerate() {
        let cluster = report.patterns.clustering.labels[idx];
        let kind = geo.labels[cluster].label();
        let expect = format!("pattern {id} cluster={cluster} kind={kind}");
        let got = run_one(&index, &format!("pattern {id}")).expect("pattern answer");
        assert_eq!(got, expect, "tower {id}");
    }

    // Every decomposition row the batch study stored must be served
    // verbatim: same coefficients, same residual, same bytes.
    let (_, rows) = report
        .decomposition
        .as_ref()
        .expect("tiny study decomposes traffic");
    assert!(!rows.is_empty(), "tiny study stored no decomposition rows");
    for row in rows {
        let id = snap.tower_ids[row.vector_index];
        let expect = render_decompose(id, &row.coefficients, row.residual_sqr);
        let got = run_one(&index, &format!("decompose {id}")).expect("decompose answer");
        assert_eq!(got, expect, "tower {id}");
    }
}

#[test]
fn golden_topk_agrees_with_a_brute_force_scan() {
    let (_, index) = tiny_study();
    let snap = index.snapshot();
    let n = snap.tower_ids.len();
    let k = 8;
    assert!(n > k, "tiny study too small for a top-{k} check");

    for (idx, &id) in snap.tower_ids.iter().enumerate() {
        // Independent O(n²) reference: all pairwise distances over the
        // same 6-dim rows with the same metric, sorted by
        // (distance, index) — no shared scan code with `topk`.
        let mut all: Vec<(usize, f64)> = (0..n)
            .filter(|&j| j != idx)
            .map(|j| {
                (
                    j,
                    towerlens_cluster::distance::euclidean(&snap.features[idx], &snap.features[j]),
                )
            })
            .collect();
        all.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite distance")
                .then(a.0.cmp(&b.0))
        });
        let expect: Vec<(u64, f64)> = all[..k]
            .iter()
            .map(|&(j, d)| (snap.tower_ids[j], d))
            .collect();

        let got = run_one(&index, &format!("topk {id} {k}")).expect("topk answer");
        assert_eq!(got, render_topk(id, &expect), "tower {id}");
    }
}

#[test]
fn one_shot_binary_output_matches_the_in_process_answer() {
    let dir = temp("oneshot");
    let (_, index) = tiny_study();
    let artifact = dir.join("study.artifact");
    write_snapshot(&artifact, index.snapshot()).expect("write artifact");

    let id = index.snapshot().tower_ids[0];
    let expect = run_one(&index, &format!("pattern {id}")).expect("pattern answer");
    let stdout = run_ok(&[
        "query",
        "--snapshot",
        artifact.to_str().unwrap(),
        "pattern",
        &id.to_string(),
    ]);
    assert_eq!(stdout, format!("{expect}\n"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn soak_batch_is_byte_identical_across_threads_with_exact_counters() {
    let dir = temp("soak");
    let artifact = dir.join("study.artifact");
    run_ok(&[
        "study",
        "--scale",
        "tiny",
        "--seed",
        "42",
        "--snapshot",
        artifact.to_str().unwrap(),
    ]);
    let snapshot = read_snapshot(&artifact).expect("read artifact back");
    let ids = snapshot.tower_ids.clone();
    let has_basis = snapshot.basis.is_some();
    let stored: std::collections::HashSet<u64> = snapshot
        .decompositions
        .iter()
        .map(|d| ids[d.vector_index])
        .collect();

    // A plausible day for `screen`: never asserted normal/anomalous
    // here, only that both thread counts say the same thing.
    let bins = snapshot.profile.bins_per_day;
    assert!(bins > 0, "tiny window must tile a day");
    let day_file = dir.join("day.tsv");
    let day: Vec<String> = (0..bins)
        .map(|b| format!("{:.3}", 100.0 + 10.0 * ((b as f64) * 0.7).sin()))
        .collect();
    std::fs::write(&day_file, day.join("\n") + "\n").expect("write day file");
    let day_path = day_file.to_str().unwrap().to_string();

    // 1,000 mixed requests with per-verb counts predicted up front.
    let total = 1_000usize;
    let (mut pattern, mut decompose, mut topk, mut screen, mut errors) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let lines: Vec<String> = (0..total)
        .map(|i| {
            let id = ids[i % ids.len()];
            match i % 10 {
                0..=3 => {
                    pattern += 1;
                    format!("pattern {id}")
                }
                4 | 5 => {
                    topk += 1;
                    format!("topk {id} 5")
                }
                6 => {
                    screen += 1;
                    format!("screen {id} {day_path}")
                }
                7 => {
                    // Stored rows always answer; otherwise a live
                    // solve needs the frozen basis.
                    if has_basis || stored.contains(&id) {
                        decompose += 1;
                    } else {
                        errors += 1;
                    }
                    format!("decompose {id}")
                }
                8 => {
                    errors += 1;
                    "pattern 18446744073709551615".to_string()
                }
                _ => {
                    errors += 1;
                    format!("frobnicate {id}")
                }
            }
        })
        .collect();
    let input = lines.join("\n") + "\n";

    let mut outputs = Vec::new();
    for threads in ["1", "8"] {
        let metrics = dir.join(format!("metrics-t{threads}.json"));
        let out = run_stdin(
            &[
                "query",
                "--snapshot",
                artifact.to_str().unwrap(),
                "--stdin",
                "--threads",
                threads,
                "--metrics",
                metrics.to_str().unwrap(),
            ],
            &input,
        );
        assert!(
            out.status.success(),
            "query --stdin --threads {threads} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push((out.stdout, read(&metrics)));
    }

    // Byte-identical stdout at any thread count.
    assert_eq!(
        outputs[0].0, outputs[1].0,
        "batch answers differ between 1 and 8 threads"
    );
    let stdout = String::from_utf8(outputs[0].0.clone()).expect("utf8 answers");
    assert_eq!(stdout.lines().count(), total, "one answer per request");
    let error_lines = stdout.lines().filter(|l| l.starts_with("error: ")).count();
    assert_eq!(error_lines as u64, errors, "error lines in place");

    // Counters land on exactly the predicted values, at both thread
    // counts — the tallies are merged in worker order, never racing.
    for (dump, threads) in [(&outputs[0].1, "1"), (&outputs[1].1, "8")] {
        for (name, expect) in [
            ("query.requests", total as u64),
            ("query.pattern", pattern),
            ("query.decompose", decompose),
            ("query.topk", topk),
            ("query.screen", screen),
            ("query.errors", errors),
        ] {
            assert_eq!(
                counter_value(dump, name),
                expect,
                "counter `{name}` at --threads {threads}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctor_warns_on_intact_artifacts_and_fails_on_corruption() {
    let dir = temp("doctor");
    let artifact = dir.join("study.artifact");
    write_snapshot(&artifact, &towerlens_artifact::format::sample_snapshot())
        .expect("write artifact");

    // Intact: one healthy artifact, exit 0.
    let out = Command::new(BIN)
        .args(["doctor", "--dir", dir.to_str().unwrap()])
        .output()
        .expect("spawn doctor");
    assert!(out.status.success(), "doctor failed on an intact artifact");
    let text = String::from_utf8(out.stdout).expect("utf8 doctor output");
    assert!(
        text.contains("1 artifact(s): 1 ok, 0 degraded, 0 damaged"),
        "unexpected doctor summary:\n{text}"
    );

    // One flipped payload byte: checksum mismatch, BAD row, exit 1.
    let mut bytes = std::fs::read(&artifact).expect("read artifact bytes");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&artifact, &bytes).expect("write corrupted artifact");
    let out = Command::new(BIN)
        .args(["doctor", "--dir", dir.to_str().unwrap()])
        .output()
        .expect("spawn doctor");
    assert_eq!(
        out.status.code(),
        Some(1),
        "doctor must exit 1 on a corrupt artifact"
    );
    let text = String::from_utf8(out.stdout).expect("utf8 doctor output");
    assert!(text.contains("BAD"), "no BAD row in:\n{text}");
    assert!(
        text.contains("1 artifact(s): 0 ok, 0 degraded, 1 damaged"),
        "unexpected doctor summary:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
