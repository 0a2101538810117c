//! Overload-control tests for the query server: admission budgets
//! through the real binary.
//!
//! The contract under test is determinism under pressure: shedding is
//! decided per request from the virtual-cost model alone, so a batch
//! run at `--threads 1` and `--threads 8` must produce byte-identical
//! stdout and exactly equal `query.*` counters — including the shed
//! tally.

mod common;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use towerlens_artifact::{write_snapshot, DECOMPOSE_SOLVE_UNITS};
use towerlens_cli::commands::{run_study, study_config};
use towerlens_core::Study;
use towerlens_pipeline::feature::FeatureSpace;

use common::{counter_value, read, temp, BIN};

fn run_stdin(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn CLI");
    // A child that rejects its config exits before draining stdin;
    // the resulting EPIPE is part of the contract, not a failure.
    if let Err(e) = child
        .stdin
        .take()
        .expect("stdin handle")
        .write_all(input.as_bytes())
    {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "write stdin: {e}");
    }
    child.wait_with_output().expect("wait CLI")
}

/// Builds the tiny-study artifact in-process and returns its path,
/// its tower ids, and the ids with a stored decomposition row.
fn tiny_artifact(dir: &Path) -> (PathBuf, Vec<u64>, std::collections::HashSet<u64>) {
    let config = study_config("tiny", 42).expect("tiny config");
    let fingerprint = Study::new(config.clone()).checkpoint_fingerprint();
    let (report, _) = run_study(config, None).expect("tiny study");
    let snapshot = report
        .to_snapshot(fingerprint, FeatureSpace::Auto)
        .expect("snapshot from tiny study");
    let ids = snapshot.tower_ids.clone();
    let stored: std::collections::HashSet<u64> = snapshot
        .decompositions
        .iter()
        .map(|d| ids[d.vector_index])
        .collect();
    let path = dir.join("study.artifact");
    write_snapshot(&path, &snapshot).expect("write artifact");
    (path, ids, stored)
}

/// `fnv1a64` has exactly one definition; the `core` spelling is a
/// re-export of the canonical `artifact` helper, and both hash to the
/// published FNV-1a offset basis on empty input.
#[test]
fn fnv1a64_is_one_definition_across_crates() {
    let core: fn(&[u8]) -> u64 = towerlens_core::engine::fnv1a64;
    let artifact: fn(&[u8]) -> u64 = towerlens_artifact::fnv1a64;
    assert_eq!(core(b""), 0xcbf2_9ce4_8422_2325, "FNV-1a offset basis");
    let long: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
    for input in [&b""[..], b"towerlens", b"\x00\xff\x00", &long] {
        assert_eq!(core(input), artifact(input), "input {} bytes", input.len());
    }
}

#[test]
fn zero_budget_and_zero_deadline_are_usage_errors() {
    let dir = temp("zero-flags");
    // The flags are rejected before the snapshot is ever opened, so a
    // nonexistent path is fine here. The deadline clock and the fault
    // retries are gone: their flags are unknown.
    let artifact = dir.join("missing.artifact");
    for (flag, value, says) in [
        (
            "--request-budget",
            "0",
            "--request-budget must be at least 1 cost unit",
        ),
        (
            "--deadline-units",
            "5",
            "unknown flag `--deadline-units` for `query`",
        ),
        ("--retries", "1", "unknown flag `--retries` for `query`"),
    ] {
        let out = Command::new(BIN)
            .args([
                "query",
                "--snapshot",
                artifact.to_str().unwrap(),
                flag,
                value,
                "pattern",
                "0",
            ])
            .output()
            .expect("spawn CLI");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value} must be a usage error"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(says), "{flag} {value}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_equal_to_cost_admits_and_one_below_sheds() {
    let dir = temp("edge");
    let (artifact, ids, _) = tiny_artifact(&dir);
    let n = ids.len() as u64;
    assert!(n > 1, "tiny study must have at least two towers");
    let request = format!("topk {} 3\n", ids[0]);
    let snapshot = artifact.to_str().unwrap();

    // topk scans every tower: cost = n. A budget of exactly n admits.
    let equal = n.to_string();
    let out = run_stdin(
        &[
            "query",
            "--snapshot",
            snapshot,
            "--stdin",
            "--request-budget",
            &equal,
        ],
        &request,
    );
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(
        stdout.starts_with(&format!("topk {}", ids[0])),
        "budget == cost must admit: {stdout}"
    );

    // One unit below sheds with a typed line naming both numbers.
    let below = (n - 1).to_string();
    let out = run_stdin(
        &[
            "query",
            "--snapshot",
            snapshot,
            "--stdin",
            "--request-budget",
            &below,
        ],
        &request,
    );
    assert!(out.status.success(), "batch mode reports shed in place");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert_eq!(
        stdout,
        format!(
            "error: overloaded: request cost {n} exceeds budget {}\n",
            n - 1
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shedding_is_byte_identical_across_threads_with_exact_counters() {
    let dir = temp("shed-soak");
    let (artifact, ids, stored) = tiny_artifact(&dir);
    let snapshot = artifact.to_str().unwrap();
    let n = ids.len() as u64;
    assert!(n > DECOMPOSE_SOLVE_UNITS, "topk must out-cost a live solve");

    // 400 mixed requests under a budget of 1: pattern and stored
    // decompositions (cost 1) are admitted, topk (cost n) and live
    // solves (cost 16) are shed. The split is predicted up front.
    let total = 400usize;
    let (mut pattern, mut decompose, mut shed) = (0u64, 0u64, 0u64);
    let lines: Vec<String> = (0..total)
        .map(|i| {
            let id = ids[i % ids.len()];
            match i % 4 {
                0 | 1 => {
                    pattern += 1;
                    format!("pattern {id}")
                }
                2 => {
                    shed += 1;
                    format!("topk {id} 5")
                }
                _ => {
                    if stored.contains(&id) {
                        decompose += 1;
                    } else {
                        shed += 1;
                    }
                    format!("decompose {id}")
                }
            }
        })
        .collect();
    assert!(shed > 100, "mix must shed a real share of the batch");
    assert!(decompose > 0, "mix must admit some stored decompositions");
    let input = lines.join("\n") + "\n";

    let mut outputs = Vec::new();
    for threads in ["1", "8"] {
        let metrics = dir.join(format!("metrics-t{threads}.json"));
        let out = run_stdin(
            &[
                "query",
                "--snapshot",
                snapshot,
                "--stdin",
                "--request-budget",
                "1",
                "--threads",
                threads,
                "--metrics",
                metrics.to_str().unwrap(),
            ],
            &input,
        );
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push((out.stdout, read(&metrics)));
    }

    assert_eq!(
        outputs[0].0, outputs[1].0,
        "shed decisions differ between 1 and 8 threads"
    );
    let stdout = String::from_utf8(outputs[0].0.clone()).expect("utf8 answers");
    assert_eq!(stdout.lines().count(), total, "one answer per request");

    // Shed responses sit exactly where their requests were: answers
    // stay 1:1 with input lines, in input order.
    for (i, (line, request)) in stdout.lines().zip(&lines).enumerate() {
        if request.starts_with("topk")
            || (request.starts_with("decompose")
                && !stored.contains(&request[10..].parse::<u64>().unwrap()))
        {
            assert!(
                line.starts_with("error: overloaded: "),
                "line {i} should be shed: {line}"
            );
        } else {
            assert!(
                !line.starts_with("error: "),
                "line {i} should be admitted: {line}"
            );
        }
    }

    for (dump, threads) in [(&outputs[0].1, "1"), (&outputs[1].1, "8")] {
        for (name, expect) in [
            ("query.requests", total as u64),
            ("query.pattern", pattern),
            ("query.decompose", decompose),
            ("query.topk", 0),
            ("query.errors", 0),
            ("query.shed_total", shed),
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
