//! `TOWERLENS_FAILPOINTS` through the real binary: every malformed
//! spec fails the command before it does any work, with one typed
//! error naming the variable and the offending entry. A misspelt
//! failpoint that ran to exit 0 and injected nothing would turn a
//! chaos run into a pass that tested nothing.

mod common;

use std::path::{Path, PathBuf};

use common::{run_env, temp};

/// Files under `dir`, recursively: a row proves no work ran.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let paths = entries.map(|e| e.expect("dir entry").path());
    paths
        .flat_map(|p| if p.is_dir() { files_under(&p) } else { vec![p] })
        .collect()
}

#[test]
fn malformed_failpoints_fail_every_command_before_any_work() {
    let dir = temp("failpoints");
    // (spec, command, exit code, what the error says about the last
    // entry of the spec)
    let rows = [
        // Misspellings that used to run to exit 0 and inject nothing.
        ("stage.label=sleep(6s)", "study", 2, "bad argument"),
        ("stage.lable=panic", "study", 1, "no stage `lable`"),
        ("checkpoint=abort@two", "study", 2, "bad argument"),
        (
            "checkpoint.save.vectorise=err*2",
            "study",
            1,
            "no stage `vectorise`",
        ),
        // Grammar errors, on every command.
        ("chekpoint=abort@1", "study", 2, "unknown point"),
        ("checkpoint=explode", "study", 2, "unknown action"),
        ("garbage", "gen", 2, "expected `<point>=<action>`"),
        (
            "wal.seal=abort@1;wal.sael=abort@1",
            "serve",
            2,
            "unknown point",
        ),
        ("publish.fsync=abort@1", "serve", 2, "unknown point"),
        ("stage.label=panic", "serve", 1, "no stage `label`"),
        ("publish.cur=nonsense", "query", 2, "unknown action"),
        // Points whose only purpose was to inject failures that no
        // production call returns are gone, and refused like any
        // misspelling.
        ("shard.0=err*1", "serve", 2, "unknown point"),
        ("shard.*=err*2", "serve", 2, "unknown point"),
        ("query.chunk=err*1", "query", 2, "unknown point"),
        ("query.cost=mul(2)", "query", 2, "unknown point"),
        (
            "wal.seal=abort@1;wal.seal=abort@2",
            "doctor",
            2,
            "point `wal.seal` is configured twice",
        ),
    ];
    for (i, (spec, command, code, says)) in rows.into_iter().enumerate() {
        let work = dir.join(format!("row-{i}"));
        let (out_dir, missing) = (work.join("out"), work.join("missing.tsv"));
        let (w, m) = (out_dir.to_str().unwrap(), missing.to_str().unwrap());
        let args: Vec<&str> = match command {
            "study" => vec![
                "study",
                "--seed",
                "42",
                "--resume",
                w,
                "--stage-timeout-ms",
                "1500",
            ],
            "gen" => vec!["gen", "--out", w, "--seed", "4", "--towers", "20"],
            "serve" => vec!["serve", "--source", m, "--data", w, "--publish", w],
            "query" => vec!["query", "--snapshot", m, "pattern", "0"],
            _ => vec!["doctor", "--dir", w],
        };
        let out = run_env(&args, &[("TOWERLENS_FAILPOINTS", spec)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let context = format!("`{command}` under `{spec}`:\n{stderr}");
        assert_eq!(out.status.code(), Some(code), "{context}");
        let entry = spec.rsplit(';').next().unwrap();
        let named = format!("TOWERLENS_FAILPOINTS: entry `{entry}`: {says}");
        assert!(stderr.contains(&named), "{context}");
        assert!(out.stdout.is_empty(), "{context}");
        assert!(
            files_under(&work).is_empty(),
            "did work before failing: {context}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
