//! Chaos tests for the snapshot publish path: `serve --publish` killed
//! at every point inside a generation publish, and `query --watch`
//! refusing to serve bytes from a generation that fails fsck.
//!
//! The kill matrix sweeps three abort points of the publish protocol
//! (`publish.gen.tmp` after the temp write, `publish.gen` after the
//! generation rename, `publish.cur.tmp` after the `CURRENT.tmp` write,
//! each `abort@<k>` in `TOWERLENS_FAILPOINTS`) with an escalating
//! ordinal: attempt `k` lets `k - 1` publishes complete and aborts the
//! `k`-th, so every rerun makes progress and every publish point gets
//! hit. The converged store must end with `CURRENT` naming a
//! generation whose bytes — and whose query answers — are identical to
//! an uninterrupted run.

mod common;

use std::path::Path;
use std::process::{Command, Stdio};

use common::{current_bytes, gen_logs, read, run_env, run_ok, temp, BIN};

fn serve_args<'a>(source: &'a str, data: &'a str, publish: &'a str) -> Vec<&'a str> {
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
        "--publish",
        publish,
    ]
}

/// Runs `query --watch --stdin` over the store and returns stdout.
fn watch_answers(store: &Path, input: &str) -> String {
    use std::io::Write;
    let mut child = Command::new(BIN)
        .args([
            "query",
            "--snapshot",
            store.to_str().unwrap(),
            "--watch",
            "--stdin",
        ])
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
    let out = child.wait_with_output().expect("wait CLI");
    assert!(
        out.status.success(),
        "query --watch over {} failed:\n{}",
        store.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// A deterministic probe hitting every tower of the generated
/// dataset; towers the vectorizer dropped answer with a typed error
/// line, which is part of the deterministic surface being compared.
fn probe() -> String {
    let mut lines = Vec::new();
    for id in 0..24 {
        lines.push(format!("pattern {id}"));
        lines.push(format!("topk {id} 5"));
    }
    lines.join("\n") + "\n"
}

/// The tentpole drill: kill `serve` inside the publish at all three
/// protocol points, restarting with an escalating ordinal until a run
/// drains cleanly. The converged store's `CURRENT` generation must be
/// byte-identical to the uninterrupted run's, and `query --watch`
/// must serve identical answers with clean health.
#[test]
fn kill_at_every_publish_point_converges_byte_identically() {
    let dir = temp("kill-matrix");
    let logs = gen_logs(&dir, 3000);
    let source = logs.to_str().unwrap();

    let clean_data = dir.join("clean-data");
    let clean_store = dir.join("clean-store");
    run_ok(&serve_args(
        source,
        clean_data.to_str().unwrap(),
        clean_store.to_str().unwrap(),
    ));
    let clean_current = current_bytes(&clean_store);
    let input = probe();
    let clean_answers = watch_answers(&clean_store, &input);
    assert!(
        clean_answers.lines().any(|l| l.starts_with("pattern ")),
        "clean store must answer pattern probes:\n{clean_answers}"
    );

    for stage in ["publish.gen.tmp", "publish.gen", "publish.cur.tmp"] {
        let data = dir.join(format!("{stage}-data"));
        let store = dir.join(format!("{stage}-store"));
        let args = serve_args(source, data.to_str().unwrap(), store.to_str().unwrap());
        let mut aborted = 0usize;
        let mut converged = false;
        for nth in 1..=12 {
            let spec = format!("{stage}=abort@{nth}");
            let out = run_env(&args, &[("TOWERLENS_FAILPOINTS", &spec)]);
            if out.status.success() {
                converged = true;
                break;
            }
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("failpoint `{spec}` fired at hit {nth}")),
                "{spec}: run died for the wrong reason:\n{stderr}"
            );
            aborted += 1;
        }
        assert!(converged, "{stage}: chaos loop never drained");
        assert!(
            aborted >= 1,
            "{stage}: the kill matrix never actually aborted a publish"
        );

        // Convergence is byte-level: the pointed-to generation holds
        // exactly the clean run's bytes (generation numbers may differ
        // — aborted publishes leave unreferenced generations behind).
        assert_eq!(
            current_bytes(&store),
            clean_current,
            "{stage}: converged CURRENT generation differs from the clean run"
        );

        // And answer-level: the watcher serves the same bytes, with
        // clean (non-degraded) health.
        assert_eq!(
            watch_answers(&store, &input),
            clean_answers,
            "{stage}: converged store answers differ from the clean run"
        );
        let health = watch_answers(&store, "health\n");
        assert!(
            health.contains("degraded=no"),
            "{stage}: converged store reports degraded health: {health}"
        );

        // The store passes its own fsck: every generation decodes and
        // the pointer row is healthy.
        let doctor = run_ok(&["doctor", "--dir", store.to_str().unwrap()]);
        let text = String::from_utf8_lossy(&doctor.stdout);
        assert!(
            text.contains("0 degraded, 0 corrupt"),
            "{stage}: doctor on converged store:\n{text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte corruption of the generation `CURRENT` names: the watcher
/// never serves it, falls back to the last good generation with
/// degraded health, rejects explicit reloads, and `doctor` flags the
/// store with exit 1.
#[test]
fn corrupt_current_generation_falls_back_and_is_flagged() {
    let dir = temp("corrupt");
    let logs = gen_logs(&dir, 3000);
    let data = dir.join("data");
    let store = dir.join("store");
    run_ok(&serve_args(
        logs.to_str().unwrap(),
        data.to_str().unwrap(),
        store.to_str().unwrap(),
    ));

    let current = read(&store.join("CURRENT"));
    let target = store.join(current.trim());
    let generations: Vec<String> = std::fs::read_dir(&store)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| n.starts_with("gen-") && n.ends_with(".artifact"))
        .collect();
    assert!(
        generations.len() >= 2,
        "need a fallback generation, store has {generations:?}"
    );

    // Health before the corruption: serving the pointer, not degraded.
    let healthy = watch_answers(&store, "health\n");
    assert!(healthy.contains("degraded=no"), "{healthy}");

    // Flip one byte near the end of the pointed-to generation.
    let mut bytes = std::fs::read(&target).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&target, bytes).unwrap();

    // The watcher opens on the last good generation, keeps answering,
    // reports degraded health, and rejects a reload onto the corrupt
    // pointer target.
    let out = watch_answers(&store, "health\npattern 0\nreload\nhealth\n");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "one answer per line:\n{out}");
    assert!(
        lines[0].starts_with("health ") && lines[0].contains("degraded=yes"),
        "opening on a corrupt pointer must be degraded: {}",
        lines[0]
    );
    assert!(
        lines[1].starts_with("pattern 0 ") || lines[1].starts_with("error: "),
        "last-good generation must keep answering: {}",
        lines[1]
    );
    assert!(
        lines[2].starts_with("reload rejected: ") && lines[2].contains(current.trim()),
        "reload must be rejected, naming the bad generation: {}",
        lines[2]
    );
    assert!(
        lines[3].contains("degraded=yes") && lines[3].contains("rejected=1"),
        "health must count the rejection: {}",
        lines[3]
    );

    // The degraded watcher never serves the corrupt generation's
    // bytes: its answers match the previous generation served
    // directly as a plain snapshot.
    let fallback: Vec<String> = {
        let mut gens = generations.clone();
        gens.sort();
        gens
    };
    let last_good = fallback[fallback.len() - 2].clone();
    let direct = run_env(
        &[
            "query",
            "--snapshot",
            store.join(&last_good).to_str().unwrap(),
            "pattern",
            "0",
        ],
        &[],
    );
    let direct_answer = String::from_utf8_lossy(if direct.status.success() {
        &direct.stdout
    } else {
        &direct.stderr
    })
    .trim()
    .to_string();
    let watched = watch_answers(&store, "pattern 0\n");
    if direct.status.success() {
        assert_eq!(
            watched.trim(),
            direct_answer,
            "fallback serves gen {last_good}"
        );
    }

    // doctor: the corrupt generation is a BAD row, the pointer row is
    // degraded (last-good keeps serving), and the exit code is 1.
    let doctor = run_env(&["doctor", "--dir", store.to_str().unwrap()], &[]);
    assert_eq!(doctor.status.code(), Some(1), "doctor must fail the store");
    let text = String::from_utf8_lossy(&doctor.stdout);
    assert!(text.contains("BAD"), "doctor:\n{text}");
    assert!(
        text.contains("fails fsck"),
        "doctor must explain the pointer degradation:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
