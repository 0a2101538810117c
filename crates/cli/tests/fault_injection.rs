//! Seeded end-to-end fault injection: every failure class the paper's
//! month-long operator feed exhibits (§2) is injected into a generated
//! dataset and driven through the full analysis, asserting the
//! pipeline's contract — fail *open* with accurate quarantine and
//! imputation accounting while the damage is isolated, fail *closed*
//! the moment the feed itself is untrustworthy, and never let a
//! damaged checkpoint change a number.
//!
//! All faults come from [`FaultInjector`] with pinned seeds, so these
//! tests are bit-stable across runs and machines.

use std::path::{Path, PathBuf};

use towerlens_cli::commands::{
    analyze, doctor_checkpoints, generate_dataset, run_study, study_config, AnalyzeOptions,
    GenOptions,
};
use towerlens_core::{RunReport, StageStatus};
use towerlens_trace::faults::FaultInjector;
use towerlens_trace::record::{parse_lines, to_lines, LogRecord};

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("towerlens-fi-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fixed small dataset: 7 days, 60 towers, 400 agents, seed 11.
fn gen(dir: &Path) -> usize {
    generate_dataset(
        dir,
        &GenOptions {
            seed: 11,
            towers: 60,
            agents: 400,
            days: 7,
        },
    )
    .expect("gen")
}

fn options(max_bad_fraction: f64, impute: bool) -> AnalyzeOptions {
    AnalyzeOptions {
        days: 7,
        threads: 2,
        max_bad_fraction,
        impute,
        ..AnalyzeOptions::default()
    }
}

fn read_records(dir: &Path) -> Vec<LogRecord> {
    let text = std::fs::read_to_string(dir.join("logs.tsv")).expect("read logs");
    let (records, bad) = parse_lines(&text);
    assert!(bad.is_empty(), "generated logs must be clean");
    records
}

fn card(report: &RunReport, stage: &str, label: &str) -> u64 {
    report
        .stage(stage)
        .unwrap_or_else(|| panic!("stage {stage} missing"))
        .cards
        .iter()
        .find(|c| c.label == label)
        .unwrap_or_else(|| panic!("card {label} missing on {stage}"))
        .value
}

#[test]
fn garbage_under_threshold_is_quarantined_with_accurate_counts() {
    let dir = temp("under");
    gen(&dir);
    let mut records = read_records(&dir);
    let mut inj = FaultInjector::new(21);
    // Two independent damage classes: backwards clocks (parse as
    // negative duration) and partially flushed lines (bad field count
    // or bad number).
    let skewed = inj.skew_clocks(&mut records, 0.02);
    assert!(skewed > 0);
    let (text, cut) = inj.truncate_lines(&to_lines(&records), 0.02);
    assert!(cut > 0);
    std::fs::write(dir.join("logs.tsv"), &text).expect("write faulty logs");
    let total_lines = text.lines().filter(|l| !l.is_empty()).count();

    let (summary, report) =
        analyze(&dir, &options(0.10, false), None, 0).expect("analyze survives garbage");

    // The quarantine ledger balances: every line is either a parsed
    // record or a categorised quarantined one, and at least every
    // skewed record is in the latter bucket.
    let quarantined = card(&report, "ingest-logs", "quarantined");
    assert_eq!(summary.records as u64 + quarantined, total_lines as u64);
    assert!(quarantined >= skewed as u64, "{quarantined} < {skewed}");
    assert!(summary.k >= 2, "k = {}", summary.k);
    assert!(!report.degraded());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_over_threshold_fails_closed() {
    let dir = temp("over");
    gen(&dir);
    let mut records = read_records(&dir);
    // Half the feed with backwards clocks: no threshold this side of
    // 50% should accept it.
    let skewed = FaultInjector::new(22).skew_clocks(&mut records, 0.5);
    assert!(skewed > records.len() / 3);
    std::fs::write(dir.join("logs.tsv"), to_lines(&records)).expect("write faulty logs");

    let Err(err) = analyze(&dir, &options(0.05, false), None, 0) else {
        panic!("a feed this broken must fail closed");
    };
    let rendered = err.to_string();
    assert!(
        rendered.contains("quarantined") && rendered.contains("threshold"),
        "unexpected error: {rendered}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tower_blackout_is_imputed_when_asked() {
    let dir = temp("blackout");
    gen(&dir);
    let mut records = read_records(&dir);
    // The busiest tower goes dark for all of window day 2 — a
    // whole-day outage, far over the one-hour detection floor.
    let day = 86_400u64;
    let window_start = towerlens_trace::time::TraceWindow::days(7).start_s;
    let (dark_from, dark_to) = (window_start + 2 * day, window_start + 3 * day);
    let mut traffic = std::collections::HashMap::new();
    for r in &records {
        if r.start_s < dark_to && r.end_s >= dark_from {
            *traffic.entry(r.cell_id).or_insert(0usize) += 1;
        }
    }
    let (&busiest, _) = traffic.iter().max_by_key(|(_, n)| **n).expect("traffic");
    let removed = FaultInjector::new(23).blackout(&mut records, busiest, dark_from, dark_to);
    assert!(removed > 0, "busiest tower had no day-2 traffic");
    std::fs::write(dir.join("logs.tsv"), to_lines(&records)).expect("write faulty logs");

    // Without imputation the run completes (robustness), with it the
    // outage is detected and repaired from the daily periodicity.
    let (plain, plain_report) =
        analyze(&dir, &options(0.05, false), None, 0).expect("blackout without impute");
    assert_eq!(card(&plain_report, "vectorize", "imputed"), 0);
    let (imputed, report) =
        analyze(&dir, &options(0.05, true), None, 0).expect("blackout with impute");
    assert!(card(&report, "vectorize", "imputed") > 0);
    assert!(imputed.k >= 2 && plain.k >= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drops_duplicates_and_spikes_do_not_break_the_analysis() {
    let dir = temp("dropdup");
    gen(&dir);
    let mut records = read_records(&dir);
    let mut inj = FaultInjector::new(24);
    let dropped = inj.drop_records(&mut records, 0.10);
    let added = inj.duplicate_records(&mut records, 0.10);
    let spiked = inj.spike_bytes(&mut records, 0.01, 1_000);
    assert!(dropped > 0 && added > 0 && spiked > 0);
    std::fs::write(dir.join("logs.tsv"), to_lines(&records)).expect("write faulty logs");

    let (summary, report) = analyze(&dir, &options(0.05, false), None, 0).expect("perturbed feed");
    assert_eq!(summary.records, records.len());
    assert!(summary.k >= 2, "k = {}", summary.k);
    assert!(!report.degraded());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_recomputes_bit_identically() {
    let ckpt = temp("ckpt");
    let config = study_config("tiny", 33).expect("scale");

    // Fresh run: the ground truth every later run must reproduce.
    let (fresh, _) = run_study(config.clone(), None).expect("fresh study");
    let fresh_fp = fresh.into_full().expect("complete").fingerprint();

    // Populate the checkpoint directory, then damage one file the way
    // a crashed writer would: a partial flush.
    let (first, _) = run_study(config.clone(), Some(&ckpt)).expect("first checkpointed study");
    assert_eq!(first.into_full().expect("complete").fingerprint(), fresh_fp);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&ckpt)
        .expect("ckpt dir")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension().and_then(|x| x.to_str()) == Some("ckpt")).then_some(p)
        })
        .collect();
    files.sort();
    let victim = files.first().expect("at least one checkpoint");
    FaultInjector::new(25)
        .truncate_file(victim, 0.5)
        .expect("truncate checkpoint");

    // The doctor sees the damage…
    let rows = doctor_checkpoints(&ckpt, None).expect("doctor");
    assert!(!rows.is_empty());
    assert!(
        rows.iter().any(|(_, verdict)| verdict.is_err()),
        "doctor missed the truncated checkpoint"
    );

    // …and the engine recovers from it: warn, recompute, and land on
    // exactly the same numbers.
    let (resumed, report) = run_study(config, Some(&ckpt)).expect("resumed study");
    assert!(
        !report.warnings.is_empty(),
        "recompute fallback must be announced"
    );
    assert!(report
        .warnings
        .iter()
        .any(|w| w.contains("unusable") && w.contains("recomputing")));
    assert!(!report.with_status(StageStatus::Ran).is_empty());
    assert_eq!(
        resumed.into_full().expect("complete").fingerprint(),
        fresh_fp
    );

    // The rewritten checkpoint is healthy again.
    let rows = doctor_checkpoints(&ckpt, None).expect("doctor after heal");
    assert!(rows.iter().all(|(_, verdict)| verdict.is_ok()));
    let _ = std::fs::remove_dir_all(&ckpt);
}
