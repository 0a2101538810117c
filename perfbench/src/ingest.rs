//! The `ingest` workload.
//!
//! Before timing, `gen`'s dataset generator writes a 7-day log for
//! [`TOWERS`] towers and [`AGENTS`] subscribers, duplicates and
//! conflicts included. Each cycle then runs `towerlens_serve::serve`
//! with [`SHARDS`] shards, the default segment size and flush cadence
//! and publishing on, into fresh directories, and a second `serve` call
//! that restarts on the same data directory (recovery, drain and an
//! idempotent republish).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use towerlens_artifact::{fsck_artifact, read_current, Publisher};
use towerlens_cli::commands::{generate_dataset, GenOptions};
use towerlens_core::engine::CheckpointStore;
use towerlens_serve::{
    replay, serve, ServeConfig, ServeReport, SnapshotCodec, WalWriter, SNAPSHOT_STAGE, SNAP_DIR,
    WAL_DIR,
};
use towerlens_trace::record::LogRecord;

use crate::report::{LayerRow, Outcome};
use crate::spans::Tracer;
use crate::stats::{fnv1a, median, per_call_s_per_core, FNV_START};

pub const TOWERS: usize = 120;
pub const AGENTS: usize = 200;
pub const DAYS: usize = 7;
pub const SHARDS: usize = 2;
/// Cycles per run at least, whatever `--seconds` says.
const MIN_CYCLES: usize = 2;
/// Set-up is timed this many times on each CPU.
const SETUP_SAMPLES: usize = 11;

/// Writes the `gen` dataset for `seed` under `dir` and returns the log.
pub fn make_log(seed: u64, dir: &Path) -> Result<PathBuf, String> {
    let options = GenOptions {
        seed,
        towers: TOWERS,
        agents: AGENTS,
        days: DAYS,
    };
    generate_dataset(dir, &options).map_err(|e| e.to_string())?;
    Ok(dir.join("logs.tsv"))
}

fn config(source: &Path, data: &Path, publish: Option<&Path>) -> ServeConfig {
    ServeConfig {
        source: source.to_path_buf(),
        data_dir: data.to_path_buf(),
        days: DAYS,
        shards: SHARDS,
        publish: publish.map(Path::to_path_buf),
        ..ServeConfig::default()
    }
}

fn counter(name: &str) -> u64 {
    towerlens_obs::global().snapshot().counter(name)
}

/// Registry counters read after the first `serve` call of a cycle.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    records: u64,
    generations: u64,
    snapshots: u64,
    wal_segments: u64,
    vectorized: u64,
    wchar: u64,
}

struct Cycle {
    serve_s: f64,
    restart_s: f64,
    report: ServeReport,
    counts: Counts,
    /// Size of the generation `CURRENT` names after the first call.
    snapshot_bytes: u64,
}

fn timed<R>(tracer: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    };
    (r, t0.elapsed().as_secs_f64())
}

fn run_cycle(
    source: &Path,
    dir: &Path,
    n: usize,
    lines: u64,
    tracer: &mut Option<Tracer>,
    setup: &mut Option<(f64, usize)>,
    out: &mut Outcome,
) -> Option<Cycle> {
    let data = dir.join(format!("data-{n}"));
    let publish = dir.join(format!("pub-{n}"));
    let cfg = config(source, &data, Some(&publish));
    if let Some(t) = tracer {
        t.next_run();
    }
    towerlens_obs::global().reset();
    out.attempted += 1;
    let w0 = crate::sys::wchar();
    let (first, serve_s) = timed(tracer, "serve.serve", || serve(&cfg));
    let wchar = crate::sys::wchar() - w0;
    let report = match first {
        Ok(r) => r,
        Err(e) => {
            out.failed += 1;
            out.problem(format!("serve failed: {e}"));
            return None;
        }
    };
    let counts = Counts {
        records: counter("serve.records_ingested"),
        generations: counter("serve.generations_published"),
        snapshots: counter("serve.snapshots"),
        wal_segments: counter("serve.wal_segments"),
        vectorized: counter("pipeline.vectorize.records"),
        wchar,
    };
    let lost = counter("serve.shed_total") + counter("serve.shards_quarantined");
    if lost > 0 {
        out.failed += lost;
        out.problem(format!("serve shed or quarantined {lost} times"));
    }
    out.attempted += 1;
    let (second, restart_s) = timed(tracer, "serve.restart", || serve(&cfg));
    match second {
        Ok(again) => out.check(again.render() == report.render(), || {
            "restart rendered a different report".to_string()
        }),
        Err(e) => {
            out.failed += 1;
            out.problem(format!("restart failed: {e}"));
        }
    }
    out.check(
        report.source_lines == report.records + report.malformed,
        || {
            format!(
                "source_lines {} != records {} + malformed {}",
                report.source_lines, report.records, report.malformed
            )
        },
    );
    out.check(report.source_lines == lines, || {
        format!(
            "acknowledged {} of {lines} source lines",
            report.source_lines
        )
    });
    let current = read_current(&publish)
        .ok()
        .flatten()
        .map(|name| publish.join(name.trim()));
    let healthy = current
        .as_ref()
        .and_then(|path| fsck_artifact(path).ok())
        .is_some_and(|f| f.healthy());
    out.check(healthy, || {
        "CURRENT does not pass fsck_artifact".to_string()
    });
    let snapshot_bytes = current
        .and_then(|path| std::fs::metadata(path).ok())
        .map_or(0, |m| m.len());
    if setup.is_none() {
        match setup_time(&cfg, lines) {
            Ok(time) => *setup = Some(time),
            Err(e) => {
                out.failed += 1;
                out.problem(format!("serve start-up failed: {e}"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&data);
    let _ = std::fs::remove_dir_all(&publish);
    Some(Cycle {
        serve_s,
        restart_s,
        report,
        counts,
        snapshot_bytes,
    })
}

/// Set-up: the recovery `serve` runs on start before it reads a line, on
/// the directories a finished cycle left, so on `lines` acknowledged
/// lines. `serve` has no separate start-up call, so this makes the
/// public calls it starts with, in its order: open the publish store and
/// the snapshot store, load and decode the snapshot, replay and verify
/// the WAL, and open the WAL writer. Seconds per start-up with the number
/// timed; `Err` if a call fails or recovers other state than expected.
fn setup_time(cfg: &ServeConfig, lines: u64) -> Result<(f64, usize), String> {
    per_call_s_per_core(SETUP_SAMPLES, 1, |_| start_up(cfg, lines))
}

fn start_up(cfg: &ServeConfig, lines: u64) -> Result<(), String> {
    let publish = cfg.publish.as_deref().ok_or("no publish directory")?;
    let publisher = Publisher::open(publish, None).map_err(|e| e.to_string())?;
    let store = CheckpointStore::open(cfg.data_dir.join(SNAP_DIR), cfg.fingerprint())
        .map_err(|e| e.to_string())?;
    let snapshot = store
        .load(SNAPSHOT_STAGE, &SnapshotCodec)
        .map_err(|e| e.to_string())?;
    let wal_dir = cfg.data_dir.join(WAL_DIR);
    let replayed = replay(&wal_dir).map_err(|e| e.to_string())?;
    let wal = WalWriter::open(&wal_dir).map_err(|e| e.to_string())?;
    let snapshotted = snapshot.map(|(s, _)| s.next_seq);
    if snapshotted != Some(lines) || replayed.entries.len() as u64 != lines {
        return Err(format!(
            "recovered snapshot at {snapshotted:?} and {} WAL entries, expected {lines}",
            replayed.entries.len()
        ));
    }
    std::hint::black_box((publisher, wal));
    Ok(())
}

pub fn run(seed: u64, seconds: u64, traced: bool, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let source = match make_log(seed, &dir.join("gen")) {
        Ok(p) => p,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.problem(format!("gen failed: {e}"));
            return out;
        }
    };
    let text = std::fs::read_to_string(&source).unwrap_or_default();
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    out.provenance("threads", SHARDS);
    out.provenance("shards", SHARDS);
    out.provenance(
        "gen",
        format!("towers={TOWERS} agents={AGENTS} days={DAYS} seed={seed}"),
    );
    out.provenance("source_lines", lines.len());
    out.provenance(
        "input_hash",
        format!("{:016x}", fnv1a(FNV_START, text.as_bytes())),
    );

    let mut tracer = traced.then(Tracer::new);
    crate::sys::reset_peak_heap();
    // Set-up is sampled once, on the first cycle's directories.
    let mut setup: Option<(f64, usize)> = None;
    let mut cycles: Vec<Cycle> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while cycles.len() < MIN_CYCLES || Instant::now() < deadline {
        match run_cycle(
            &source,
            dir,
            cycles.len(),
            lines.len() as u64,
            &mut tracer,
            &mut setup,
            &mut out,
        ) {
            Some(c) => cycles.push(c),
            None => break,
        }
    }
    let Some(first) = cycles.first() else {
        return out;
    };
    let records = first.report.records as f64;
    let n = cycles.len();
    let serve_s: Vec<f64> = cycles.iter().map(|c| c.serve_s).collect();
    let restart_s: Vec<f64> = cycles.iter().map(|c| c.restart_s).collect();
    let busy: f64 = serve_s.iter().sum::<f64>() + restart_s.iter().sum::<f64>();

    match &mut tracer {
        None => {
            out.metric("op_p50_ms", median(&serve_s) * 1e3, n);
            out.metric(
                "throughput_per_s",
                first.report.source_lines as f64 * n as f64 / busy,
                n,
            );
            let (setup_s, timed) = setup.unwrap_or_default();
            out.metric("setup_s", setup_s, timed);
            out.detail(
                "ingest_rps",
                first.report.source_lines as f64 / median(&serve_s),
                "1/s",
                n,
            );
            out.detail("restart_s", median(&restart_s), "s", n);
            out.detail("records", records, "count", 1);
            out.detail(
                "generations_published",
                first.counts.generations as f64,
                "count",
                1,
            );
            if let Some((k, _)) = &first.report.patterns {
                out.detail("k", *k as f64, "count", 1);
            }
            out.detail(
                "failed_ratio",
                out.failed as f64 / out.attempted.max(1) as f64,
                "ratio",
                out.attempted as usize,
            );
        }
        Some(t) => {
            // A trace parse pass over the same source, and one serve
            // without publishing: the difference, per generation, is the
            // cost of a publish (vectorize, cluster, encode, write).
            let parse = t.span("trace.parse", || {
                lines
                    .iter()
                    .enumerate()
                    .filter(|(i, l)| LogRecord::parse_line(l, i + 1).is_ok())
                    .count()
            });
            out.check(parse as f64 == records, || {
                format!("parse pass accepted {parse} lines, serve {records} records")
            });
            let data = dir.join("data-nopub");
            let cfg = config(&source, &data, None);
            let quiet = t.span("serve.no_publish", || serve(&cfg));
            out.attempted += 1;
            if let Err(e) = quiet {
                out.failed += 1;
                out.problem(format!("serve without publishing failed: {e}"));
            }
            let _ = std::fs::remove_dir_all(&data);
            let ms = |name: &str| median(&t.self_ms(name));
            let c = first.counts;
            let per_publish =
                (ms("serve.serve") - ms("serve.no_publish")) / c.generations.max(1) as f64;
            if let Some((k, _)) = &first.report.patterns {
                out.metric("k_error", k.abs_diff(5) as f64, 1);
            }
            out.metric("artifact.publish_ms", per_publish, n);
            out.metric("artifact.snapshot_bytes", first.snapshot_bytes as f64, 1);
            out.metric("serve.serve_ms", ms("serve.serve"), n);
            out.metric("serve.restart_ms", ms("serve.restart"), n);
            out.metric(
                "serve.wchar_per_record",
                c.wchar as f64 / c.records.max(1) as f64,
                n,
            );
            out.metric("serve.generations_published", c.generations as f64, n);
            out.metric("serve.snapshots", c.snapshots as f64, n);
            out.metric("serve.wal_segments", c.wal_segments as f64, n);
            out.metric(
                "pipeline.vectorize_per_record",
                c.vectorized as f64 / c.records.max(1) as f64,
                n,
            );
            out.metric(
                "trace.parse_ns_per_record",
                ms("trace.parse") * 1e6 / lines.len().max(1) as f64,
                1,
            );
            let row = |span: &'static str, work: u64, unit: &'static str| LayerRow {
                span,
                calls: t.self_ms(span).len(),
                total_ms: ms(span),
                self_ms: ms(span),
                work,
                work_unit: unit,
            };
            out.layers = vec![
                row("trace.parse", lines.len() as u64, "lines"),
                row("serve.serve", c.records, "records"),
                row("serve.no_publish", c.records, "records"),
                row("serve.restart", c.records, "records"),
            ];
            out.detail(
                "publish_overhead_ms",
                ms("serve.serve") - ms("serve.no_publish"),
                "ms",
                1,
            );
            out.detail("vectorized_records", c.vectorized as f64, "count", 1);
        }
    }
    out.spans = tracer;
    out
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;

    #[test]
    fn log_is_deterministic_per_seed_and_holds_duplicates_and_conflicts() {
        let dir = crate::stats::test_dir("log");
        let a = std::fs::read(make_log(11, &dir.join("a")).unwrap()).unwrap();
        let b = std::fs::read(make_log(11, &dir.join("b")).unwrap()).unwrap();
        let c = std::fs::read(make_log(12, &dir.join("c")).unwrap()).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);

        let text = String::from_utf8(a).unwrap();
        let mut seen = BTreeSet::new();
        let mut bytes_by_key: BTreeMap<(u64, u64, u64, u32), BTreeSet<u64>> = BTreeMap::new();
        let (mut lines, mut duplicates) = (0usize, 0usize);
        let window_end = (DAYS as u64) * 86_400;
        let mut cells = BTreeSet::new();
        for (i, line) in text.lines().enumerate() {
            lines += 1;
            if !seen.insert(line) {
                duplicates += 1;
            }
            let r = LogRecord::parse_line(line, i + 1).expect("gen writes well-formed lines");
            assert!(
                r.start_s < window_end + towerlens_trace::time::TraceWindow::days(DAYS).start_s
            );
            cells.insert(r.cell_id);
            bytes_by_key
                .entry((r.user_id, r.start_s, r.end_s, r.cell_id))
                .or_default()
                .insert(r.bytes);
        }
        let conflicts = bytes_by_key.values().filter(|b| b.len() > 1).count();
        assert!(lines > 50_000, "{lines} lines");
        assert!(
            duplicates > 0 && conflicts > 0,
            "{duplicates} duplicates, {conflicts} conflicts"
        );
        assert!(cells.len() <= TOWERS);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
