//! Helpers the CLI suites share: run the real binary (with extra
//! environment, such as `TOWERLENS_FAILPOINTS`), read what it wrote
//! (metrics counters, span statuses, checkpoint files), and generate
//! a small log to stream.

// Each suite uses a subset.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

pub const BIN: &str = env!("CARGO_BIN_EXE_towerlens-cli");

/// A fresh directory for one test, unique per test process.
pub fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("towerlens-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs the CLI with extra environment variables, returning the raw
/// output (the caller judges the exit status).
pub fn run_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn CLI")
}

pub fn run_ok(args: &[&str]) -> Output {
    let out = run_env(args, &[]);
    assert!(
        out.status.success(),
        "`towerlens-cli {}` failed:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

pub fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A counter's value in a `--metrics` dump; 0 when never registered.
pub fn counter_value(metrics: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    match metrics.find(&needle) {
        None => 0,
        Some(at) => metrics[at + needle.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value for `{name}`")),
    }
}

/// Generates a small dataset and returns the path of its log file,
/// cut to its first `lines` lines.
pub fn gen_logs(dir: &Path, lines: usize) -> PathBuf {
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
    let full = read(&ds.join("logs.tsv"));
    let trimmed: String = full.lines().take(lines).map(|l| format!("{l}\n")).collect();
    let path = dir.join("logs.tsv");
    std::fs::write(&path, trimmed).unwrap();
    path
}

/// The bytes of the generation a store's `CURRENT` names.
pub fn current_bytes(store: &Path) -> Vec<u8> {
    let name = read(&store.join("CURRENT"));
    std::fs::read(store.join(name.trim()))
        .unwrap_or_else(|e| panic!("read CURRENT target in {}: {e}", store.display()))
}

/// Checkpoint file names in a store directory, sorted.
pub fn ckpt_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read dir {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().and_then(|e| e.to_str()) == Some("ckpt"))
                .then(|| path.file_name().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    names.sort();
    names
}

/// The `status` of the span named `name` in a `--trace-events` dump.
pub fn span_status(log: &str, name: &str) -> String {
    let needle = format!("\"name\":\"{name}\"");
    let at = log
        .find(&needle)
        .unwrap_or_else(|| panic!("no span `{name}` in {log}"));
    let rest = &log[at..];
    rest.find("\"status\":\"")
        .map(|i| &rest[i + 10..])
        .and_then(|s| s.split('"').next())
        .unwrap_or_else(|| panic!("span `{name}` has no status in {log}"))
        .to_string()
}
