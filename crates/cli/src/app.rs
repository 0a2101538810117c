//! The binary's entry point as a library function: subcommand
//! dispatch, flag tables, and rendering.
//!
//! The binary is a one-line wrapper around [`run`], so exit codes,
//! degraded-run handling, and the `doctor` output are all testable
//! without spawning processes.
//!
//! Exit status: 0 success, 1 runtime failure *or degraded run* (an
//! optional stage failed and was pruned — the numbers that did come
//! out are trustworthy, but incomplete), 2 usage error.

use std::path::PathBuf;
use std::time::Duration;

use crate::args::{self, switch, value, FlagDef, Flags, Parsed, ParsedMixed};
use crate::commands::{
    analyze_instrumented_with, artifact_detail, artifact_health, checkpoint_detail,
    checkpoint_health, doctor_artifacts, doctor_checkpoints, doctor_exit, doctor_json,
    doctor_pointer, doctor_summary, generate_dataset, run_study_with, study_config, wal_detail,
    wal_health, AnalyzeOptions, DoctorVerdict, GenOptions, Health,
};
use towerlens_artifact::{QueryIndex, SectionStatus};
use towerlens_core::engine::CheckpointError;
use towerlens_core::{RunReport, Study, Supervisor};
use towerlens_pipeline::FeatureSpace;

/// The one stdout writer: every `print!` and `println!` in this module
/// resolves to the two macros below, which route here. Once the reader
/// of stdout is gone (`towerlens-cli study … | head -1`), nothing the
/// CLI still has to say can arrive, so a broken pipe ends the process
/// quietly with status 0 instead of the standard macros' panic.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Parses the shared `--feature-space` flag (default `auto`).
fn feature_space_from(flags: &Flags) -> Result<FeatureSpace, String> {
    match flags.get("feature-space") {
        None => Ok(FeatureSpace::Auto),
        Some(s) => s
            .parse::<FeatureSpace>()
            .map_err(|e| format!("--feature-space: {e}")),
    }
}

/// The multi-line usage text (also the `help` subcommand's output).
pub const USAGE: &str = "\
towerlens-cli — synthetic cellular-trace datasets and their analysis

usage:
  towerlens-cli gen     --out DIR [--seed N] [--towers N] [--agents N] [--days N]
      write a synthetic dataset (logs.tsv, towers.tsv, pois.tsv, truth.tsv)

  towerlens-cli analyze --dir DIR [--days N] [--threads N]
                        [--max-bad-fraction F] [--impute]
                        [--feature-space raw|spectral|auto]
                        [--snapshot PATH]
                        [--resume DIR] [--retries N] [--stage-timeout-ms MS]
                        [--timings] [--json]
                        [--metrics PATH] [--trace-events PATH]
      parse, clean, vectorize, cluster, and label a dataset directory

  towerlens-cli study   [--scale tiny|small|medium|paper] [--seed N]
                        [--threads N]
                        [--feature-space raw|spectral|auto]
                        [--snapshot PATH]
                        [--resume DIR] [--retries N] [--stage-timeout-ms MS]
                        [--timings] [--json]
                        [--metrics PATH] [--trace-events PATH]
      run the full in-process paper study through the stage engine

  towerlens-cli query   --snapshot PATH [--stdin] [--watch] [--threads N]
                        [--request-budget N] [--deadline-units N]
                        [--retries N] [--metrics PATH] [REQUEST...]
      answer lookups from a versioned study artifact (written by
      `analyze --snapshot` / `study --snapshot`), held memory-resident:
        pattern <tower>            cluster id and canonical kind
        decompose <tower>          convex share of the four primary
                                   components (stored row, or solved
                                   live against the frozen basis)
        topk <tower> <k>           k nearest towers in the 6-dim
                                   spectral feature space
        screen <tower> <day-file>  z-score a one-day series against
                                   the tower's stored daily profile
      one-shot: the request is the positional arguments; --stdin reads
      one request per line and answers in input order (bit-identical
      at any --threads), errors reported in place.
      --request-budget sheds requests whose virtual cost exceeds N
      with a typed `overloaded` line; --deadline-units answers
      requests whose consumed cost exceeds N with a typed `deadline`
      line (cost is counted in towers scanned / bins compared /
      solver support enumerations — deterministic, never wall-clock).
      --watch treats --snapshot as a generation-store directory
      (written by `serve --publish`): CURRENT is resolved with a
      last-good fallback and the control lines `reload` / `health`
      swap to fsck-clean new generations and report degraded state

  towerlens-cli serve   --source FILE --data DIR [--days N] [--shards N]
                        [--segment-records N] [--queue-cap N] [--retries N]
                        [--basis PATH] [--flush-every N] [--progress-every N]
                        [--publish DIR] [--metrics PATH]
      crash-safe streaming ingestion: append every source line to a
      checksummed WAL under DIR/wal before acknowledging it, maintain
      per-tower sliding traffic state across supervised shards, snapshot
      at every segment boundary (DIR/snap), and print the batch-identical
      drain report; killed runs resume from snapshot + WAL tail with
      byte-identical final output. --basis classifies live towers against
      a frozen batch basis: the versioned query artifact written by
      `analyze --snapshot` / `study --snapshot`. --publish
      additionally publishes a query artifact at every snapshot
      boundary as DIR/gen-N.artifact plus an atomic CURRENT pointer,
      for `query --watch` hot reload

  towerlens-cli doctor  --dir DIR [--fingerprint HEX] [--json]
      fsck every checkpoint file in DIR (and DIR/snap), any WAL
      segments under DIR/wal, every *.artifact snapshot in DIR, and
      the CURRENT generation pointer if present: checksums, seals,
      sequence gaps, and section tables; with --fingerprint, also pin
      each checkpoint to that config fingerprint. Ends with a
      one-line `doctor: N healthy, N degraded, N corrupt` summary;
      --json dumps the verdict table as JSON instead of the tables.
      Degraded-but-readable states (stale checkpoints, torn WAL
      tails, unknown artifact sections) warn but exit 0; corruption
      exits 1

  towerlens-cli help
      print this message

fault tolerance:
  --max-bad-fraction F  tolerate up to this fraction of malformed or
                        unknown-cell records (quarantined per category)
                        before failing closed; default 0.05
  --impute              detect per-tower outage windows (runs of zero
                        bins) and impute them from the daily/weekly
                        periodicity instead of dropping the tower

supervision:
  --retries N            retry transient failures (checkpoint I/O errors,
                         stage errors marked transient) up to N times per
                         stage with deterministic seeded backoff; default
                         0 (fail on first error)
  --stage-timeout-ms MS  per-stage wall-time budget enforced by a
                         watchdog; an overrunning optional stage degrades,
                         a required one fails the run; default 0 (off)

common flags:
  --feature-space S  representation the cluster stage sees: `raw`
                 (full traffic vectors, the paper's setting), `spectral`
                 (6-dim principal frequency components, matrix-free
                 distances — the paper-scale path), or `auto` (default:
                 spectral at 2048+ towers, raw below)
  --threads N    worker threads for the parallel stages (0 = all cores);
                 every value produces bit-identical output and counters
  --resume DIR   reuse (and write) stage checkpoints under DIR; a
                 second run reloads the expensive stages bit-identically
                 (damaged checkpoints are detected and recomputed)
  --timings      print the per-stage wave/status/wall-time table plus
                 the nonzero hot-path counters from the metrics registry
  --json         print the per-stage report as JSON instead of the
                 human summary

observability:
  --metrics PATH       dump the metrics registry (counters, gauges,
                       histograms; timers as observation counts) as
                       stable sorted JSON — byte-identical across
                       identical seeded runs
  --trace-events PATH  dump the structured span log (one event per
                       engine stage: name, wave, status, start/end
                       offsets in µs, cardinality cards) as JSON

exit status: 0 success, 1 runtime failure or degraded run, 2 usage error";

/// Prints a usage error and returns exit code 2.
fn usage_error(message: &str) -> i32 {
    eprintln!("{message}");
    2
}

/// Builds the stage supervisor from the shared `--retries` /
/// `--stage-timeout-ms` flags (0 = off, for both — the default
/// supervisor reproduces the unsupervised engine exactly).
fn supervisor_from(flags: &Flags) -> Result<Supervisor, String> {
    let retries = flags.num("retries", 0)?;
    let retries =
        u32::try_from(retries).map_err(|_| format!("--retries {retries} is too large"))?;
    let timeout_ms = flags.num("stage-timeout-ms", 0)?;
    Ok(Supervisor::new(
        retries,
        (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
    ))
}

/// Parses a subcommand's flags; prints help or a one-line error.
fn parse_or_exit(command: &str, raw: &[String], defs: &[FlagDef]) -> Result<Flags, i32> {
    match args::parse(command, raw, defs) {
        Ok(Parsed::Flags(flags)) => Ok(flags),
        Ok(Parsed::Help) => {
            println!("{USAGE}");
            Err(0)
        }
        Err(e) => Err(usage_error(&e)),
    }
}

/// Emits the per-stage report and converts a degraded run into a
/// non-zero exit: the status table is printed whenever something
/// failed, `--timings` or not, so the failure is never silent.
/// `--timings` additionally prints the nonzero counters from the
/// metrics registry, which every engine run feeds — so the timing
/// view and `--metrics` share one source of truth.
fn emit_report(command: &str, report: &RunReport, timings: bool, json: bool) -> i32 {
    let degraded = report.degraded();
    if timings || degraded {
        print!("{}", report.render_table());
    }
    if timings {
        let snapshot = towerlens_obs::global().snapshot();
        let live: Vec<_> = snapshot.counters.iter().filter(|(_, &v)| v > 0).collect();
        if !live.is_empty() {
            println!("counters:");
            for (name, value) in live {
                println!("  {name} = {value}");
            }
        }
    }
    if json {
        println!("{}", report.to_json());
    }
    if degraded {
        eprintln!("{command} degraded: an optional stage failed and its dependents were pruned");
        1
    } else {
        0
    }
}

/// Writes the `--metrics` registry dump and/or the `--trace-events`
/// span log, when requested. Returns a non-zero exit code on write
/// failure so a broken observability sink is never silent.
fn emit_observability(flags: &Flags, report: &RunReport) -> Option<i32> {
    if let Some(path) = flags.get("metrics") {
        let json = towerlens_obs::global().snapshot().to_json();
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("failed to write --metrics {path}: {e}");
            return Some(1);
        }
    }
    if let Some(path) = flags.get("trace-events") {
        let json = towerlens_obs::spans_to_json(&report.spans());
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("failed to write --trace-events {path}: {e}");
            return Some(1);
        }
    }
    None
}

/// Answers the buffered data segment through the batch engine and
/// appends the answers, clearing the segment. Watch mode splits the
/// input at `reload`/`health` control lines, so output stays 1:1
/// with input and thread-count invariant within each segment.
fn flush_segment(
    index: &towerlens_artifact::QueryIndex,
    policy: &towerlens_artifact::QueryPolicy,
    segment: &mut Vec<String>,
    answers: &mut Vec<String>,
) {
    if segment.is_empty() {
        return;
    }
    let (batch, _tally) = towerlens_artifact::run_batch_with(index, segment, policy);
    answers.extend(batch);
    segment.clear();
}

/// Prints answer lines as one stdout write.
fn print_lines(lines: &[String]) {
    let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    print!("{out}");
}

/// Runs the CLI against already-split arguments (no program name) and
/// returns the process exit code.
pub fn run(argv: &[String]) -> i32 {
    let Some(command) = argv.first() else {
        return usage_error("missing command (try `towerlens-cli help`)");
    };
    // Each invocation observes only its own work: zero the process-wide
    // registry so `--metrics` is a per-run dump (and deterministic for
    // identical seeded runs), while registrations and handles survive.
    towerlens_obs::global().reset();
    // A malformed failpoint spec fails every command before any work:
    // a chaos run that injects nothing must not pass.
    if let Err(e) = towerlens_obs::check_failpoints() {
        return usage_error(&e.to_string());
    }
    let rest = &argv[1..];
    match command.as_str() {
        "gen" => {
            const DEFS: &[FlagDef] = &[
                value("out"),
                value("seed"),
                value("towers"),
                value("agents"),
                value("days"),
            ];
            let flags = match parse_or_exit("gen", rest, DEFS) {
                Ok(f) => f,
                Err(code) => return code,
            };
            let parsed = (|| -> Result<(String, GenOptions), String> {
                let out = flags.require("gen", "out")?.to_string();
                Ok((
                    out,
                    GenOptions {
                        seed: flags.num("seed", 42)?,
                        towers: flags.num("towers", 120)? as usize,
                        agents: flags.num("agents", 800)? as usize,
                        days: flags.num("days", 14)? as usize,
                    },
                ))
            })();
            let (out, options) = match parsed {
                Ok(p) => p,
                Err(e) => return usage_error(&e),
            };
            match generate_dataset(&PathBuf::from(&out), &options) {
                Ok(n) => {
                    println!(
                        "wrote {n} records for {} towers / {} agents / {} days to {out}",
                        options.towers, options.agents, options.days
                    );
                    0
                }
                Err(e) => {
                    eprintln!("gen failed: {e}");
                    1
                }
            }
        }
        "analyze" => {
            const DEFS: &[FlagDef] = &[
                value("dir"),
                value("days"),
                value("threads"),
                value("max-bad-fraction"),
                switch("impute"),
                value("feature-space"),
                value("snapshot"),
                value("resume"),
                value("retries"),
                value("stage-timeout-ms"),
                switch("timings"),
                switch("json"),
                value("metrics"),
                value("trace-events"),
            ];
            let flags = match parse_or_exit("analyze", rest, DEFS) {
                Ok(f) => f,
                Err(code) => return code,
            };
            let parsed = (|| -> Result<(String, AnalyzeOptions), String> {
                let dir = flags.require("analyze", "dir")?.to_string();
                let defaults = AnalyzeOptions::default();
                Ok((
                    dir,
                    AnalyzeOptions {
                        days: flags.num("days", 14)? as usize,
                        threads: flags.num("threads", 0)? as usize,
                        max_bad_fraction: flags
                            .fraction("max-bad-fraction", defaults.max_bad_fraction)?,
                        impute: flags.has("impute"),
                        feature_space: feature_space_from(&flags)?,
                        snapshot: flags.get("snapshot").map(PathBuf::from),
                    },
                ))
            })();
            let (dir, options) = match parsed {
                Ok(p) => p,
                Err(e) => return usage_error(&e),
            };
            let resume = flags.get("resume").map(PathBuf::from);
            let supervisor = match supervisor_from(&flags) {
                Ok(s) => s,
                Err(e) => return usage_error(&e),
            };
            match analyze_instrumented_with(
                &PathBuf::from(&dir),
                &options,
                resume.as_deref(),
                &supervisor,
            ) {
                Ok((s, report)) => {
                    if !flags.has("json") {
                        println!(
                            "{} records ({} after cleaning); {} patterns:",
                            s.records, s.kept, s.k
                        );
                        match &s.labels {
                            Some(labels) => {
                                for (c, (kind, share)) in labels.iter().zip(&s.shares).enumerate() {
                                    println!("  cluster {c}: {kind:<13} {:5.1}%", share * 100.0);
                                }
                            }
                            None => println!("  (geographic labelling unavailable)"),
                        }
                        if let Some(ari) = s.ari_vs_truth {
                            println!("adjusted Rand index vs truth.tsv: {ari:.3}");
                        }
                        if let Some(path) = &options.snapshot {
                            println!("wrote query artifact to {}", path.display());
                        }
                    }
                    if let Some(code) = emit_observability(&flags, &report) {
                        return code;
                    }
                    emit_report("analyze", &report, flags.has("timings"), flags.has("json"))
                }
                Err(e) => {
                    eprintln!("analyze failed: {e}");
                    1
                }
            }
        }
        "study" => {
            const DEFS: &[FlagDef] = &[
                value("scale"),
                value("seed"),
                value("threads"),
                value("feature-space"),
                value("snapshot"),
                value("resume"),
                value("retries"),
                value("stage-timeout-ms"),
                switch("timings"),
                switch("json"),
                value("metrics"),
                value("trace-events"),
            ];
            let flags = match parse_or_exit("study", rest, DEFS) {
                Ok(f) => f,
                Err(code) => return code,
            };
            let scale = flags.get("scale").unwrap_or("tiny").to_string();
            let seed = match flags.num("seed", 42) {
                Ok(s) => s,
                Err(e) => return usage_error(&e),
            };
            let threads = match flags.num("threads", 0) {
                Ok(t) => t as usize,
                Err(e) => return usage_error(&e),
            };
            let feature_space = match feature_space_from(&flags) {
                Ok(s) => s,
                Err(e) => return usage_error(&e),
            };
            let mut config = match study_config(&scale, seed) {
                Ok(c) => c.with_threads(threads),
                Err(e) => return usage_error(&e),
            };
            config.identifier.feature_space = feature_space;
            let resume = flags.get("resume").map(PathBuf::from);
            let supervisor = match supervisor_from(&flags) {
                Ok(s) => s,
                Err(e) => return usage_error(&e),
            };
            // The artifact's fingerprint is the checkpoint fingerprint
            // of this configuration, so `doctor --fingerprint` and
            // `serve --basis` pin queries to the run that wrote them.
            let fingerprint = Study::new(config.clone()).checkpoint_fingerprint();
            let snapshot_path = flags.get("snapshot").map(PathBuf::from);
            match run_study_with(config, resume.as_deref(), &supervisor) {
                Ok((report, run_report)) => {
                    if !flags.has("json") {
                        println!(
                            "study {scale} seed {seed}: {} towers, {} analysed, {} patterns",
                            report.raw.len(),
                            report.vectors.len(),
                            report.patterns.k
                        );
                        let shares = report.patterns.clustering.shares();
                        match &report.geo {
                            Some(geo) => {
                                for (c, (kind, share)) in geo.labels.iter().zip(&shares).enumerate()
                                {
                                    println!("  cluster {c}: {kind:<13} {:5.1}%", share * 100.0);
                                }
                                println!(
                                    "ground-truth agreement: {:.3}",
                                    geo.ground_truth_agreement
                                );
                            }
                            None => println!("  (geographic labelling unavailable)"),
                        }
                    }
                    if let Some(path) = &snapshot_path {
                        let written = report
                            .to_snapshot(fingerprint, feature_space)
                            .map_err(|e| e.to_string())
                            .and_then(|snap| {
                                towerlens_artifact::write_snapshot(path, &snap)
                                    .map_err(|e| e.to_string())
                            });
                        match written {
                            Ok(()) => {
                                if !flags.has("json") {
                                    println!("wrote query artifact to {}", path.display());
                                }
                            }
                            Err(e) => {
                                eprintln!("study --snapshot failed: {e}");
                                return 1;
                            }
                        }
                    }
                    if let Some(code) = emit_observability(&flags, &run_report) {
                        return code;
                    }
                    emit_report(
                        "study",
                        &run_report,
                        flags.has("timings"),
                        flags.has("json"),
                    )
                }
                Err(e) => {
                    eprintln!("study failed: {e}");
                    1
                }
            }
        }
        "query" => {
            const DEFS: &[FlagDef] = &[
                value("snapshot"),
                switch("stdin"),
                switch("watch"),
                value("threads"),
                value("request-budget"),
                value("deadline-units"),
                value("retries"),
                value("metrics"),
            ];
            let (flags, positionals) = match args::parse_mixed("query", rest, DEFS) {
                Ok(ParsedMixed::Flags(flags, positionals)) => (flags, positionals),
                Ok(ParsedMixed::Help) => {
                    println!("{USAGE}");
                    return 0;
                }
                Err(e) => return usage_error(&e),
            };
            let snapshot_path = match flags.require("query", "snapshot") {
                Ok(p) => PathBuf::from(p),
                Err(e) => return usage_error(&e),
            };
            let threads = match flags.num("threads", 0) {
                Ok(t) => t as usize,
                Err(e) => return usage_error(&e),
            };
            // Budget/deadline are cost caps: 0 would shed everything,
            // so it is rejected at flag parse like every other
            // degenerate knob.
            let limit_flag = |name: &str| -> Result<Option<u64>, String> {
                let Some(raw) = flags.get(name) else {
                    return Ok(None);
                };
                let v: u64 = raw
                    .parse()
                    .map_err(|_| format!("--{name} expects a number, got `{raw}`"))?;
                if v == 0 {
                    return Err(format!("--{name} must be at least 1 cost unit"));
                }
                Ok(Some(v))
            };
            let request_budget = match limit_flag("request-budget") {
                Ok(v) => v,
                Err(e) => return usage_error(&e),
            };
            let deadline_units = match limit_flag("deadline-units") {
                Ok(v) => v,
                Err(e) => return usage_error(&e),
            };
            let retries = match flags.num("retries", 0) {
                Ok(r) => r as u32,
                Err(e) => return usage_error(&e),
            };
            let fault =
                towerlens_artifact::QueryFault::from_failpoints(towerlens_obs::failpoints());
            let retry_policy = towerlens_core::engine::RetryPolicy::new(retries);
            let policy = towerlens_artifact::QueryPolicy {
                threads,
                request_budget,
                deadline_units,
                retries,
                fault,
                delay: Some(std::sync::Arc::new(move |attempt| {
                    retry_policy.delay("query-batch", attempt)
                })),
            };
            let watch = flags.has("watch");
            let stdin_mode = flags.has("stdin");
            if stdin_mode && !positionals.is_empty() {
                return usage_error("`query --stdin` takes no positional request");
            }
            if !stdin_mode && positionals.is_empty() {
                return usage_error(
                    "`query` needs a request (pattern|decompose|topk|screen) or --stdin",
                );
            }
            let dump_metrics = |flags: &Flags| -> Option<i32> {
                let path = flags.get("metrics")?;
                let json = towerlens_obs::global().snapshot().to_json();
                if let Err(e) = std::fs::write(path, json + "\n") {
                    eprintln!("failed to write --metrics {path}: {e}");
                    return Some(1);
                }
                None
            };
            let read_stdin = || -> Result<Vec<String>, i32> {
                use std::io::BufRead;
                std::io::stdin()
                    .lock()
                    .lines()
                    .collect::<Result<_, _>>()
                    .map_err(|e| {
                        eprintln!("query failed reading stdin: {e}");
                        1
                    })
            };
            if watch {
                // --snapshot names a generation store directory; the
                // watcher resolves CURRENT with last-good fallback and
                // handles `reload`/`health` control lines in stream
                // order between data batches.
                let mut watcher = match towerlens_artifact::Watcher::open(&snapshot_path) {
                    Ok(w) => w,
                    Err(e) => {
                        eprintln!("query failed: {e}");
                        return 1;
                    }
                };
                if stdin_mode {
                    let lines = match read_stdin() {
                        Ok(lines) => lines,
                        Err(code) => return code,
                    };
                    let mut answers: Vec<String> = Vec::with_capacity(lines.len());
                    let mut segment: Vec<String> = Vec::new();
                    for line in &lines {
                        match line.trim() {
                            "reload" => {
                                flush_segment(watcher.index(), &policy, &mut segment, &mut answers);
                                let report = watcher.reload();
                                answers.push(report);
                            }
                            "health" => {
                                flush_segment(watcher.index(), &policy, &mut segment, &mut answers);
                                answers.push(watcher.health());
                            }
                            _ => segment.push(line.clone()),
                        }
                    }
                    flush_segment(watcher.index(), &policy, &mut segment, &mut answers);
                    print_lines(&answers);
                    dump_metrics(&flags).unwrap_or(0)
                } else {
                    let line = positionals.join(" ");
                    let outcome = match line.as_str() {
                        "health" => Ok(watcher.health()),
                        "reload" => Ok(watcher.reload()),
                        _ => towerlens_artifact::run_one_with(watcher.index(), &line, &policy),
                    };
                    match outcome {
                        Ok(answer) => {
                            println!("{answer}");
                            dump_metrics(&flags).unwrap_or(0)
                        }
                        Err(e) => {
                            eprintln!("query failed: {e}");
                            dump_metrics(&flags).unwrap_or(1)
                        }
                    }
                }
            } else {
                // The snapshot is loaded once and held memory-resident;
                // every lookup after this line is pure in-memory work.
                let index = match towerlens_artifact::read_snapshot(&snapshot_path) {
                    Ok(snap) => QueryIndex::new(snap),
                    Err(e) => {
                        eprintln!("query failed: {e}");
                        return 1;
                    }
                };
                if stdin_mode {
                    let lines = match read_stdin() {
                        Ok(lines) => lines,
                        Err(code) => return code,
                    };
                    let (answers, _tally) =
                        towerlens_artifact::run_batch_with(&index, &lines, &policy);
                    print_lines(&answers);
                    // Batch mode reports per-line errors (including shed
                    // and deadline lines) in place and exits 0 — a
                    // screening pipeline keeps flowing.
                    dump_metrics(&flags).unwrap_or(0)
                } else {
                    let line = positionals.join(" ");
                    match towerlens_artifact::run_one_with(&index, &line, &policy) {
                        Ok(answer) => {
                            println!("{answer}");
                            dump_metrics(&flags).unwrap_or(0)
                        }
                        Err(e) => {
                            eprintln!("query failed: {e}");
                            dump_metrics(&flags).unwrap_or(1)
                        }
                    }
                }
            }
        }
        "serve" => {
            const DEFS: &[FlagDef] = &[
                value("source"),
                value("data"),
                value("days"),
                value("shards"),
                value("segment-records"),
                value("queue-cap"),
                value("retries"),
                value("basis"),
                value("flush-every"),
                value("progress-every"),
                value("publish"),
                value("metrics"),
            ];
            let flags = match parse_or_exit("serve", rest, DEFS) {
                Ok(f) => f,
                Err(code) => return code,
            };
            let parsed = (|| -> Result<towerlens_serve::ServeConfig, String> {
                let defaults = towerlens_serve::ServeConfig::default();
                let retries = flags.num("retries", u64::from(defaults.retries))?;
                Ok(towerlens_serve::ServeConfig {
                    source: PathBuf::from(flags.require("serve", "source")?),
                    data_dir: PathBuf::from(flags.require("serve", "data")?),
                    days: flags.num("days", defaults.days as u64)? as usize,
                    shards: flags.num("shards", defaults.shards as u64)? as usize,
                    segment_records: flags.num("segment-records", defaults.segment_records)?,
                    queue_cap: flags.num("queue-cap", defaults.queue_cap as u64)? as usize,
                    retries: u32::try_from(retries)
                        .map_err(|_| format!("--retries {retries} is too large"))?,
                    basis: flags.get("basis").map(PathBuf::from),
                    flush_every: flags.num("flush-every", defaults.flush_every)?,
                    progress_every: flags.num("progress-every", defaults.progress_every)?,
                    publish: flags.get("publish").map(PathBuf::from),
                })
            })();
            let config = match parsed {
                Ok(c) => c,
                Err(e) => return usage_error(&e),
            };
            match towerlens_serve::serve(&config) {
                Ok(report) => {
                    print!("{}", report.render());
                    if let Some(path) = flags.get("metrics") {
                        let json = towerlens_obs::global().snapshot().to_json();
                        if let Err(e) = std::fs::write(path, json + "\n") {
                            eprintln!("failed to write --metrics {path}: {e}");
                            return 1;
                        }
                    }
                    0
                }
                Err(e) => {
                    eprintln!("serve failed: {e}");
                    1
                }
            }
        }
        "doctor" => {
            const DEFS: &[FlagDef] = &[value("dir"), value("fingerprint"), switch("json")];
            let flags = match parse_or_exit("doctor", rest, DEFS) {
                Ok(f) => f,
                Err(code) => return code,
            };
            let dir = match flags.require("doctor", "dir") {
                Ok(d) => PathBuf::from(d),
                Err(e) => return usage_error(&e),
            };
            let expected = match flags.get("fingerprint") {
                None => None,
                Some(hex) => {
                    let digits = hex.strip_prefix("0x").unwrap_or(hex);
                    match u64::from_str_radix(digits, 16) {
                        Ok(fp) => Some(fp),
                        Err(_) => {
                            return usage_error(&format!(
                                "--fingerprint expects a hex fingerprint, got `{hex}`"
                            ))
                        }
                    }
                }
            };
            let rows = match doctor_checkpoints(&dir, expected) {
                Ok(rows) => rows,
                Err(e) => {
                    eprintln!("doctor failed: {e}");
                    return 1;
                }
            };
            let wal_dir = dir.join(towerlens_serve::WAL_DIR);
            let wal_rows = if wal_dir.is_dir() {
                match towerlens_serve::fsck_wal(&wal_dir) {
                    Ok(rows) => rows,
                    Err(e) => {
                        eprintln!("doctor failed: {e}");
                        return 1;
                    }
                }
            } else {
                Vec::new()
            };
            let artifact_rows = match doctor_artifacts(&dir) {
                Ok(rows) => rows,
                Err(e) => {
                    eprintln!("doctor failed: {e}");
                    return 1;
                }
            };
            let json = flags.has("json");
            let pointer = doctor_pointer(&dir, &artifact_rows);
            if rows.is_empty() && wal_rows.is_empty() && artifact_rows.is_empty() {
                if json {
                    println!("{}", doctor_json(&dir, &[]));
                } else {
                    println!(
                        "no checkpoint files (*.ckpt), WAL segments, or artifacts in {}",
                        dir.display()
                    );
                }
                return 0;
            }
            // Every inspected file contributes one three-way verdict;
            // the exit code is 1 iff anything is corrupt (degraded
            // states — stale, torn tail, unknown sections — warn only).
            let mut verdicts: Vec<DoctorVerdict> = Vec::new();
            for (name, verdict) in &rows {
                verdicts.push((
                    "checkpoint",
                    name.clone(),
                    checkpoint_health(verdict),
                    checkpoint_detail(verdict),
                ));
            }
            for row in &wal_rows {
                verdicts.push(("wal", row.file.clone(), wal_health(row), wal_detail(row)));
            }
            for (name, verdict) in &artifact_rows {
                verdicts.push((
                    "artifact",
                    name.clone(),
                    artifact_health(verdict),
                    artifact_detail(verdict),
                ));
            }
            verdicts.extend(pointer);
            let healths: Vec<Health> = verdicts.iter().map(|v| v.2).collect();
            if json {
                println!("{}", doctor_json(&dir, &verdicts));
                return doctor_exit(&healths);
            }
            if !rows.is_empty() {
                // Per-stage health table: one row per checkpoint file,
                // the same fixed-width idiom as the `--timings` stage
                // table.
                let file_w = rows
                    .iter()
                    .map(|(name, _)| name.len())
                    .chain(["file".len()])
                    .max()
                    .unwrap_or(4);
                println!(
                    "{:<file_w$}  {:<10}  status  {:>16}  {:>5}  detail",
                    "file", "stage", "fingerprint", "cards"
                );
                let (mut ok, mut stale, mut bad) = (0usize, 0usize, 0usize);
                for (name, verdict) in &rows {
                    match verdict {
                        Ok(header) => {
                            ok += 1;
                            println!(
                                "{name:<file_w$}  {:<10}  ok      {:>16}  {:>5}",
                                header.stage,
                                format!("{:016x}", header.fingerprint),
                                header.cards.len()
                            );
                        }
                        // Stale ≠ damaged: the file is internally
                        // consistent but belongs to another config.
                        Err(e @ CheckpointError::FingerprintMismatch { stage, found, .. }) => {
                            stale += 1;
                            println!(
                                "{name:<file_w$}  {:<10}  STALE   {:>16}  {:>5}  {e}",
                                stage,
                                format!("{found:016x}"),
                                "-"
                            );
                        }
                        Err(e) => {
                            bad += 1;
                            println!(
                                "{name:<file_w$}  {:<10}  BAD     {:>16}  {:>5}  {e}",
                                "-", "-", "-"
                            );
                        }
                    }
                }
                println!(
                    "{} checkpoint(s): {ok} ok, {stale} stale, {bad} damaged",
                    rows.len()
                );
            }
            let mut wal_bad = 0usize;
            if !wal_rows.is_empty() {
                // WAL segment health: entry checksums, seal footers,
                // and cross-segment sequence continuity.
                let file_w = wal_rows
                    .iter()
                    .map(|row| row.file.len())
                    .chain(["file".len()])
                    .max()
                    .unwrap_or(4);
                println!(
                    "{:<file_w$}  {:>7}  {:>21}  sealed  status  detail",
                    "file", "entries", "seqs"
                );
                for row in &wal_rows {
                    let seqs = match (row.first_seq, row.last_seq) {
                        (Some(a), Some(b)) => format!("{a}..{b}"),
                        _ => "-".to_string(),
                    };
                    let sealed = if row.sealed { "yes" } else { "no" };
                    match &row.error {
                        None => {
                            let note = if row.torn_tail {
                                "  torn tail dropped"
                            } else {
                                ""
                            };
                            println!(
                                "{:<file_w$}  {:>7}  {seqs:>21}  {sealed:<6}  ok    {note}",
                                row.file, row.entries
                            );
                        }
                        Some(e) => {
                            wal_bad += 1;
                            println!(
                                "{:<file_w$}  {:>7}  {seqs:>21}  {sealed:<6}  BAD     {e}",
                                row.file, row.entries
                            );
                        }
                    }
                }
                println!(
                    "{} wal segment(s): {} ok, {} damaged",
                    wal_rows.len(),
                    wal_rows.len() - wal_bad,
                    wal_bad
                );
            }
            if !artifact_rows.is_empty() {
                // Artifact health: the section table, per-section
                // checksums, and (when those pass) a full semantic
                // decode.
                let file_w = artifact_rows
                    .iter()
                    .map(|(name, _)| name.len())
                    .chain(["file".len()])
                    .max()
                    .unwrap_or(4);
                println!(
                    "{:<file_w$}  {:>3}  {:>6}  {:>8}  status  detail",
                    "file", "ver", "towers", "sections"
                );
                let (mut ok, mut warn, mut bad) = (0usize, 0usize, 0usize);
                for (name, verdict) in &artifact_rows {
                    let health = artifact_health(verdict);
                    match verdict {
                        Ok(fsck) => {
                            let detail = if !fsck.healthy() {
                                let mut parts: Vec<String> = fsck
                                    .sections
                                    .iter()
                                    .filter_map(|s| match &s.status {
                                        SectionStatus::ChecksumMismatch { .. } => {
                                            Some(format!("section `{}` checksum", s.tag))
                                        }
                                        _ => None,
                                    })
                                    .collect();
                                if let Some(semantic) = &fsck.semantic {
                                    parts.push(semantic.clone());
                                }
                                parts.join("; ")
                            } else if fsck.has_unknown_sections() {
                                "unknown section(s) tolerated".to_string()
                            } else {
                                String::new()
                            };
                            let status = match health {
                                Health::Healthy => {
                                    ok += 1;
                                    "ok    "
                                }
                                Health::Degraded => {
                                    warn += 1;
                                    "warn  "
                                }
                                Health::Corrupt => {
                                    bad += 1;
                                    "BAD   "
                                }
                            };
                            println!(
                                "{name:<file_w$}  {:>3}  {:>6}  {:>8}  {status}  {detail}",
                                fsck.version,
                                fsck.towers,
                                fsck.sections.len()
                            );
                        }
                        Err(e) => {
                            bad += 1;
                            println!(
                                "{name:<file_w$}  {:>3}  {:>6}  {:>8}  BAD     {e}",
                                "-", "-", "-"
                            );
                        }
                    }
                }
                println!(
                    "{} artifact(s): {ok} ok, {warn} degraded, {bad} damaged",
                    artifact_rows.len()
                );
            }
            if let Some((_, file, health, detail)) = verdicts.iter().find(|v| v.0 == "pointer") {
                println!("{file}: {} {detail}", health.label());
            }
            println!("{}", doctor_summary(&healths));
            doctor_exit(&healths)
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            0
        }
        other => usage_error(&format!(
            "unknown command `{other}` (try `towerlens-cli help`)"
        )),
    }
}
