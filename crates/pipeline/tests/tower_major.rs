//! `Vectorizer::run_towers` against `Vectorizer::run_with`: fed each
//! tower's cleaned sessions in first-seen order, the tower-major entry
//! must reproduce the record-list run over the cleaner's output bit for
//! bit, counters included.
//!
//! The counters live in the process-wide registry, so this file holds
//! one test: no other test in its binary moves them between the reads.

use towerlens_obs::HistogramSnapshot;
use towerlens_pipeline::vectorizer::{Vectorizer, VectorizerOptions, VectorizerOutput};
use towerlens_trace::clean::clean_records;
use towerlens_trace::record::LogRecord;
use towerlens_trace::time::TraceWindow;

/// Towers 0..=8 carry traffic, tower 9 only a session past the window
/// end, and tower 10 none: both of the last two are flat rows.
const N_TOWERS: usize = 11;
const LIVE_TOWERS: u64 = 9;
const PAST_END_TOWER: u32 = 9;

fn record(user: u64, cell: u32, start_s: u64, end_s: u64, bytes: u64) -> LogRecord {
    LogRecord {
        user_id: user,
        start_s,
        end_s,
        cell_id: cell,
        address: String::new(),
        bytes,
    }
}

/// An acknowledged stream with interleaved towers, repeats and one
/// conflict that raises an early session's bytes.
fn stream(w: &TraceWindow) -> Vec<LogRecord> {
    let bin = w.bin_secs;
    let mut records = Vec::new();
    for i in 0..6_000u64 {
        let cell = (i * 7 % LIVE_TOWERS) as u32;
        // Most sessions straddle a bin edge; some run past the window
        // end, some sit inside one bin.
        let start = match i % 5 {
            0 => w.end_s() - bin / 2 - i % 97,
            1 => w.start_s + (i * 7_919) % (w.n_bins as u64 * bin),
            _ => w.start_s + (i * 48_271) % (w.n_bins as u64 * bin) + bin - 41,
        };
        let end = start + 1 + (i * 131) % (3 * bin);
        let bytes = 1 + (i * 2_654_435_761) % 9_999_991;
        records.push(record(i % 400, cell, start, end, bytes));
        if i % 13 == 0 {
            records.push(records[records.len() - 1].clone()); // duplicate
        }
    }
    // Three sessions in one bin whose sum depends on their order: 1e16
    // absorbs a lone 1, but not 1 + 1.
    let at = w.start_s + 5 * bin + 10;
    records.insert(0, record(9_001, 4, at, at + 60, 10_000_000_000_000_000));
    records.push(record(9_002, 4, at + 1, at + 61, 1));
    records.push(record(9_003, 4, at + 2, at + 62, 1));
    // A conflict: the stream's first session comes back with more bytes,
    // which the cleaner keeps at the first-seen position.
    let first = records[1].clone();
    records.push(LogRecord {
        bytes: first.bytes + 123_457,
        ..first
    });
    // The flat tower: one session wholly past the window end.
    records.push(record(
        9_004,
        PAST_END_TOWER,
        w.end_s() + 60,
        w.end_s() + 600,
        777,
    ));
    records
}

/// One call's output and the vectorize work it adds to the registry:
/// records, bytes and the record-size histogram.
fn counted(
    run: impl FnOnce() -> VectorizerOutput,
) -> (VectorizerOutput, (u64, u64, Option<HistogramSnapshot>)) {
    towerlens_obs::global().reset();
    let out = run();
    let snap = towerlens_obs::global().snapshot();
    let work = (
        snap.counter("pipeline.vectorize.records"),
        snap.counter("pipeline.vectorize.bytes"),
        snap.histograms
            .get("pipeline.vectorize.record_bytes")
            .cloned(),
    );
    (out, work)
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn tower_major_run_equals_first_seen_run_bit_for_bit() {
    let w = TraceWindow::days(1);
    let records = stream(&w);
    let (kept, clean) = clean_records(&records);
    assert!(clean.duplicates_removed > 0 && clean.conflicts_resolved == 1);
    // The conflict raised the stream's first session in place.
    assert_eq!(kept[1].bytes, records[1].bytes + 123_457);

    // Each tower's sessions in first-seen order, towers by cell id.
    let mut towers: Vec<(u32, Vec<LogRecord>)> = Vec::new();
    for cell in 0..N_TOWERS as u32 {
        let sessions: Vec<LogRecord> = kept.iter().filter(|r| r.cell_id == cell).cloned().collect();
        if !sessions.is_empty() {
            towers.push((cell, sessions));
        }
    }
    assert_eq!(towers.len(), LIVE_TOWERS as usize + 1);

    let v = Vectorizer::new(w, 1);
    let (by_record, record_work) = counted(|| {
        v.run_with(&kept, N_TOWERS, &VectorizerOptions::default())
            .unwrap()
    });
    let (by_tower, tower_work) = counted(|| {
        v.run_towers(&towers, N_TOWERS, |r| (r.start_s, r.end_s, r.bytes))
            .unwrap()
    });

    assert_eq!(bits(&by_tower.raw), bits(&by_record.raw));
    assert_eq!(
        bits(&by_tower.normalized.vectors),
        bits(&by_record.normalized.vectors)
    );
    assert_eq!(by_tower.normalized.kept_ids, by_record.normalized.kept_ids);
    assert_eq!(by_tower.normalized.dropped, by_record.normalized.dropped);
    assert_eq!(by_tower.report, by_record.report);
    assert_eq!(tower_work, record_work);

    // The flat towers are dropped, and every kept session counts once.
    assert_eq!(
        by_tower.normalized.dropped,
        vec![PAST_END_TOWER as usize, 10]
    );
    assert_eq!(record_work.0, kept.len() as u64);
    assert_eq!(record_work.2.unwrap().count, kept.len() as u64);
    assert_eq!(record_work.1, kept.iter().map(|r| r.bytes).sum::<u64>());
}
