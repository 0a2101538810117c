//! The parallel aggregation phase.
//!
//! Towers are partitioned into shards; a cheap serial pass buckets
//! record indices by shard; scoped worker threads then aggregate each
//! shard independently (no shared mutable state, so no locks on the
//! hot path and bit-identical output for any worker count).
//! [`Vectorizer::run_towers`] takes records already grouped by tower and
//! aggregates them on the calling thread, without a record list.

use std::borrow::Cow;

use towerlens_obs::{LazyCounter, LazyHistogram};
use towerlens_trace::error::TraceError;
use towerlens_trace::quarantine::{FaultPolicy, QuarantineReport};
use towerlens_trace::record::LogRecord;
use towerlens_trace::time::TraceWindow;

use crate::impute::{impute_outages, ImputeConfig, ImputeReport};
use crate::normalize::{normalize_matrix, NormalizedMatrix};

/// Records vectorized, across all runs.
static RECORDS: LazyCounter = LazyCounter::new("pipeline.vectorize.records");
/// Traffic bytes vectorized, across all runs.
static BYTES: LazyCounter = LazyCounter::new("pipeline.vectorize.bytes");
/// Per-record byte-size distribution (decade buckets).
static RECORD_BYTES: LazyHistogram = LazyHistogram::new(
    "pipeline.vectorize.record_bytes",
    &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
);
/// Outage bins repaired by imputation, across all runs.
static BINS_IMPUTED: LazyCounter = LazyCounter::new("pipeline.impute.bins_imputed");
/// Towers with at least one imputed bin, across all runs.
static TOWERS_AFFECTED: LazyCounter = LazyCounter::new("pipeline.impute.towers_affected");

/// Statistics of a vectorizer run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VectorizerReport {
    /// Records ingested.
    pub records: usize,
    /// Total bytes across all records (before window clipping).
    pub bytes: f64,
    /// Towers with at least one record.
    pub active_towers: usize,
    /// Towers dropped at normalisation (zero variance).
    pub dead_towers: usize,
    /// Outage-imputation statistics (all zero when imputation is off).
    pub imputation: ImputeReport,
}

/// Fault handling for a vectorizer run: what to do with records
/// referencing unknown towers, and whether to repair outages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VectorizerOptions {
    /// Tolerance for unknown-cell records: within tolerance they are
    /// quarantined; past it the run fails closed (per the policy).
    pub policy: FaultPolicy,
    /// Outage detection + imputation; `None` disables it.
    pub impute: Option<ImputeConfig>,
}

/// The vectorizer's full output.
#[derive(Debug, Clone)]
pub struct VectorizerOutput {
    /// Raw per-tower binned traffic (tower id × bin), bytes — after
    /// imputation when enabled.
    pub raw: Vec<Vec<f64>>,
    /// Z-scored vectors with provenance (kept/dropped/imputed).
    pub normalized: NormalizedMatrix,
    /// Run statistics.
    pub report: VectorizerReport,
    /// Records quarantined on the way in (empty for [`Vectorizer::run`]
    /// and [`Vectorizer::run_towers`], which reject bad records
    /// outright).
    pub quarantine: QuarantineReport,
}

/// The parallel traffic vectorizer.
#[derive(Debug, Clone)]
pub struct Vectorizer {
    window: TraceWindow,
    threads: usize,
}

impl Vectorizer {
    /// Creates a vectorizer over a binning window using `threads`
    /// workers (`0` = available parallelism).
    pub fn new(window: TraceWindow, threads: usize) -> Self {
        Vectorizer { window, threads }
    }

    /// The binning window.
    pub fn window(&self) -> &TraceWindow {
        &self.window
    }

    /// Runs both phases over a record batch.
    ///
    /// ```
    /// use towerlens_pipeline::Vectorizer;
    /// use towerlens_trace::{LogRecord, TraceWindow};
    ///
    /// let window = TraceWindow::days(1);
    /// let records = vec![LogRecord {
    ///     user_id: 1,
    ///     start_s: window.start_s,
    ///     end_s: window.start_s + 600,
    ///     cell_id: 0,
    ///     address: "BLK-1-1 Rd".into(),
    ///     bytes: 1_000,
    /// }];
    /// let out = Vectorizer::new(window, 2).run(&records, 2)?;
    /// assert_eq!(out.raw[0].iter().sum::<f64>(), 1_000.0);
    /// assert_eq!(out.normalized.dropped, vec![1]); // silent tower dropped
    /// # Ok::<(), towerlens_trace::TraceError>(())
    /// ```
    ///
    /// # Errors
    /// * [`TraceError::EmptyWindow`] for a degenerate window,
    /// * [`TraceError::UnknownCell`] if any record references a tower
    ///   id ≥ `n_towers`,
    /// * [`TraceError::Normalization`] if aggregation produced
    ///   non-finite traffic (the cause is preserved in the message).
    pub fn run(
        &self,
        records: &[LogRecord],
        n_towers: usize,
    ) -> Result<VectorizerOutput, TraceError> {
        let raw = self.aggregate(records, n_towers)?;
        let bytes = records.iter().map(|r| r.bytes);
        self.finish(raw, bytes, None, QuarantineReport::default())
    }

    /// Like [`Vectorizer::run`], but fault-tolerant: records
    /// referencing unknown towers are quarantined under
    /// `options.policy` instead of failing the run outright, and
    /// outage windows are detected and imputed when `options.impute`
    /// is set.
    ///
    /// # Errors
    /// * [`TraceError::QuarantineOverflow`] when the unknown-cell
    ///   fraction crosses the policy threshold and the policy fails
    ///   closed,
    /// * otherwise as for [`Vectorizer::run`].
    pub fn run_with(
        &self,
        records: &[LogRecord],
        n_towers: usize,
        options: &VectorizerOptions,
    ) -> Result<VectorizerOutput, TraceError> {
        let known = |r: &&LogRecord| (r.cell_id as usize) < n_towers;
        let mut quarantine = QuarantineReport {
            total: records.len(),
            ..QuarantineReport::default()
        };
        for r in records.iter().filter(|r| !known(r)) {
            quarantine.note(&TraceError::UnknownCell {
                cell_id: r.cell_id,
                count: n_towers,
            });
        }
        options.policy.enforce(&quarantine)?;
        // Copy records only to leave some out, and then only the kept.
        let good: Cow<'_, [LogRecord]> = if quarantine.unknown_cell == 0 {
            Cow::Borrowed(records)
        } else {
            records.iter().filter(known).cloned().collect()
        };
        let raw = self.aggregate(&good, n_towers)?;
        let bytes = good.iter().map(|r| r.bytes);
        self.finish(raw, bytes, options.impute.as_ref(), quarantine)
    }

    /// Runs both phases over each tower's sessions instead of a record
    /// list: `towers` pairs a cell id with its sessions, and `span`
    /// reads a session's `(start_s, end_s, bytes)`. A row sums its
    /// tower's sessions in the order given and no other tower's, so
    /// when each tower lists its sessions in the order a record list
    /// visits them, the output is bit-identical to [`Vectorizer::run`]
    /// over that list, counters included. Aggregation runs on the
    /// calling thread and copies no session.
    ///
    /// # Errors
    /// * [`TraceError::EmptyWindow`] for a degenerate window,
    /// * [`TraceError::UnknownCell`] if a tower id ≥ `n_towers` has
    ///   sessions,
    /// * [`TraceError::Normalization`] as for [`Vectorizer::run`].
    pub fn run_towers<S>(
        &self,
        towers: &[(u32, Vec<S>)],
        n_towers: usize,
        span: impl Fn(&S) -> (u64, u64, u64),
    ) -> Result<VectorizerOutput, TraceError> {
        self.check_window()?;
        let unknown = towers
            .iter()
            .find(|(cell, sessions)| *cell as usize >= n_towers && !sessions.is_empty());
        if let Some(&(cell_id, _)) = unknown {
            return Err(TraceError::UnknownCell {
                cell_id,
                count: n_towers,
            });
        }
        let mut raw = vec![vec![0.0f64; self.window.n_bins]; n_towers];
        for (cell, sessions) in towers {
            for session in sessions {
                let (start_s, end_s, bytes) = span(session);
                add_span(
                    &self.window,
                    &mut raw[*cell as usize],
                    start_s,
                    end_s,
                    bytes,
                );
            }
        }
        let bytes = towers
            .iter()
            .flat_map(|(_, sessions)| sessions.iter().map(|s| span(s).2));
        self.finish(raw, bytes, None, QuarantineReport::default())
    }

    /// Shared back half of every entry point: optional imputation,
    /// normalisation with provenance threading, then the
    /// `pipeline.vectorize.*` counters over each aggregated record's
    /// byte count.
    fn finish(
        &self,
        mut raw: Vec<Vec<f64>>,
        record_bytes: impl Iterator<Item = u64>,
        impute: Option<&ImputeConfig>,
        quarantine: QuarantineReport,
    ) -> Result<VectorizerOutput, TraceError> {
        let (masks, imputation) = match impute {
            Some(config) => impute_outages(&mut raw, &self.window, config),
            None => (vec![Vec::new(); raw.len()], ImputeReport::default()),
        };
        let mut normalized =
            normalize_matrix(&raw, self.threads).map_err(|e| TraceError::Normalization {
                message: e.to_string(),
            })?;
        // Map per-tower masks into kept order so provenance follows
        // the vectors downstream.
        normalized.imputed = normalized
            .kept_ids
            .iter()
            .map(|&id| masks[id].clone())
            .collect();
        let active_towers = raw
            .iter()
            .filter(|row| row.iter().any(|&v| v > 0.0))
            .count();
        let (mut records, mut total_bytes) = (0usize, 0u64);
        RECORD_BYTES.observe_all(record_bytes.inspect(|&bytes| {
            records += 1;
            total_bytes += bytes;
        }));
        RECORDS.add(records as u64);
        BYTES.add(total_bytes);
        BINS_IMPUTED.add(imputation.bins_imputed as u64);
        TOWERS_AFFECTED.add(imputation.towers_affected as u64);
        let report = VectorizerReport {
            records,
            bytes: total_bytes as f64,
            active_towers,
            dead_towers: normalized.dropped.len(),
            imputation,
        };
        Ok(VectorizerOutput {
            raw,
            normalized,
            report,
            quarantine,
        })
    }

    /// Phase one only: the parallel aggregation.
    ///
    /// # Errors
    /// As for [`Vectorizer::run`].
    pub fn aggregate(
        &self,
        records: &[LogRecord],
        n_towers: usize,
    ) -> Result<Vec<Vec<f64>>, TraceError> {
        self.check_window()?;
        // Validate cell ids up front so workers can't fail mid-flight.
        for r in records {
            if r.cell_id as usize >= n_towers {
                return Err(TraceError::UnknownCell {
                    cell_id: r.cell_id,
                    count: n_towers,
                });
            }
        }

        let threads = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        let shards = threads.min(n_towers.max(1));

        let mut matrix = vec![vec![0.0f64; self.window.n_bins]; n_towers];
        if shards <= 1 {
            for r in records {
                add_span(
                    &self.window,
                    &mut matrix[r.cell_id as usize],
                    r.start_s,
                    r.end_s,
                    r.bytes,
                );
            }
            return Ok(matrix);
        }

        // Bucket record indices by shard (shard = contiguous tower
        // range, so the output matrix can be split into disjoint
        // mutable chunks).
        let shard_size = n_towers.div_ceil(shards);
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (i, r) in records.iter().enumerate() {
            buckets[r.cell_id as usize / shard_size].push(i);
        }

        let window = &self.window;
        std::thread::scope(|scope| {
            for (shard, (bucket, rows)) in buckets
                .iter()
                .zip(matrix.chunks_mut(shard_size))
                .enumerate()
            {
                scope.spawn(move || {
                    let base = shard * shard_size;
                    for &idx in bucket {
                        let r = &records[idx];
                        let row = &mut rows[r.cell_id as usize - base];
                        add_span(window, row, r.start_s, r.end_s, r.bytes);
                    }
                });
            }
        });
        Ok(matrix)
    }

    fn check_window(&self) -> Result<(), TraceError> {
        if self.window.n_bins == 0 || self.window.bin_secs == 0 {
            return Err(TraceError::EmptyWindow);
        }
        Ok(())
    }
}

/// Spreads one record's bytes over the bins of `row` it overlaps: the
/// one accumulation step every entry point shares.
fn add_span(window: &TraceWindow, row: &mut [f64], start_s: u64, end_s: u64, bytes: u64) {
    window.for_each_overlap(start_s, end_s, |bin, frac| row[bin] += bytes as f64 * frac);
}

#[cfg(test)]
mod tests {
    use super::*;
    use towerlens_trace::binning::aggregate as reference_aggregate;

    fn synth_records(n: usize, n_towers: u32, window: &TraceWindow) -> Vec<LogRecord> {
        (0..n as u64)
            .map(|i| {
                let span = window.end_s() - window.start_s;
                let start = window.start_s + (i * 48_271) % span;
                LogRecord {
                    user_id: i % 500,
                    start_s: start,
                    end_s: start + (i * 131) % 3_600,
                    cell_id: (i % n_towers as u64) as u32,
                    address: format!("BLK-{i}-0 Rd"),
                    bytes: 1 + (i * 2_654_435_761) % 1_000_000,
                }
            })
            .collect()
    }

    #[test]
    fn matches_reference_exactly() {
        let w = TraceWindow::days(3);
        let records = synth_records(5_000, 37, &w);
        let reference = reference_aggregate(&records, 37, &w).unwrap();
        for threads in [1, 2, 4, 8] {
            let v = Vectorizer::new(w, threads);
            let parallel = v.aggregate(&records, 37).unwrap();
            assert_eq!(parallel.len(), reference.len());
            for (tower, (a, b)) in parallel.iter().zip(&reference).enumerate() {
                for (bin, (x, y)) in a.iter().zip(b).enumerate() {
                    assert!(
                        (x - y).abs() < 1e-9,
                        "threads={threads} tower={tower} bin={bin}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_produces_normalized_output() {
        let w = TraceWindow::days(2);
        let records = synth_records(2_000, 10, &w);
        let out = Vectorizer::new(w, 4).run(&records, 12).unwrap();
        assert_eq!(out.raw.len(), 12);
        // Towers 10, 11 got no records → zero variance → dropped.
        assert_eq!(out.normalized.dropped, vec![10, 11]);
        assert_eq!(out.normalized.len(), 10);
        assert_eq!(out.report.records, 2_000);
        assert_eq!(out.report.active_towers, 10);
        assert_eq!(out.report.dead_towers, 2);
        for v in &out.normalized.vectors {
            let mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
            assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn unknown_cell_rejected_before_spawning() {
        let w = TraceWindow::days(1);
        let mut records = synth_records(10, 4, &w);
        records[3].cell_id = 99;
        let v = Vectorizer::new(w, 4);
        assert_eq!(
            v.aggregate(&records, 4),
            Err(TraceError::UnknownCell {
                cell_id: 99,
                count: 4
            })
        );
    }

    #[test]
    fn empty_records_and_towers() {
        let w = TraceWindow::days(1);
        let v = Vectorizer::new(w, 2);
        let m = v.aggregate(&[], 3).unwrap();
        assert_eq!(m.len(), 3);
        assert!(m.iter().all(|row| row.iter().all(|&x| x == 0.0)));
        let m = v.aggregate(&[], 0).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn degenerate_window_rejected() {
        let w = TraceWindow {
            start_s: 0,
            bin_secs: 0,
            n_bins: 10,
        };
        assert_eq!(
            Vectorizer::new(w, 1).aggregate(&[], 1),
            Err(TraceError::EmptyWindow)
        );
    }

    #[test]
    fn run_with_quarantines_unknown_cells_under_threshold() {
        let w = TraceWindow::days(1);
        let mut records = synth_records(100, 4, &w);
        records[7].cell_id = 99; // 1% bad: under the default 5%
        let options = VectorizerOptions::default();
        let out = Vectorizer::new(w, 2)
            .run_with(&records, 4, &options)
            .unwrap();
        assert_eq!(out.quarantine.unknown_cell, 1);
        assert_eq!(out.quarantine.total, 100);
        assert_eq!(out.report.records, 99); // the bad record never aggregated
                                            // Strict run on the same batch fails outright.
        assert!(matches!(
            Vectorizer::new(w, 2).run(&records, 4),
            Err(TraceError::UnknownCell { cell_id: 99, .. })
        ));
    }

    #[test]
    fn run_with_fails_closed_past_threshold() {
        let w = TraceWindow::days(1);
        let mut records = synth_records(10, 4, &w);
        records[0].cell_id = 50;
        records[1].cell_id = 51; // 20% bad
        let err = Vectorizer::new(w, 2)
            .run_with(&records, 4, &VectorizerOptions::default())
            .unwrap_err();
        assert_eq!(err, TraceError::QuarantineOverflow { bad: 2, total: 10 });
    }

    #[test]
    fn run_with_imputes_blackouts_and_threads_provenance() {
        use crate::impute::ImputeConfig;

        let w = TraceWindow::days(7);
        // Dense coverage: one record per (tower, bin).
        let mut records = Vec::new();
        for tower in 0..3u32 {
            for bin in 0..w.n_bins {
                records.push(LogRecord {
                    user_id: tower as u64,
                    start_s: w.bin_start(bin),
                    end_s: w.bin_start(bin) + 600,
                    cell_id: tower,
                    address: format!("BLK-1-{tower} Rd"),
                    bytes: 1_000 + (bin % 7) as u64,
                });
            }
        }
        // Tower 1 goes dark for day 2 (drop its records).
        let dark = (2 * 144, 3 * 144);
        records.retain(|r| {
            r.cell_id != 1
                || w.bin_of(r.start_s)
                    .is_none_or(|b| b < dark.0 || b >= dark.1)
        });
        let options = VectorizerOptions {
            impute: Some(ImputeConfig::default()),
            ..VectorizerOptions::default()
        };
        let out = Vectorizer::new(w, 2)
            .run_with(&records, 3, &options)
            .unwrap();
        assert_eq!(out.report.imputation.towers_affected, 1);
        assert_eq!(out.report.imputation.bins_imputed, 144);
        // Provenance follows the kept order.
        let kept_pos = out
            .normalized
            .kept_ids
            .iter()
            .position(|&id| id == 1)
            .unwrap();
        assert_eq!(out.normalized.imputed[kept_pos].len(), 144);
        assert!(out.normalized.imputed[kept_pos]
            .iter()
            .all(|&b| b >= dark.0 && b < dark.1));
        for (i, mask) in out.normalized.imputed.iter().enumerate() {
            if i != kept_pos {
                assert!(mask.is_empty());
            }
        }
        // The blacked-out day was repaired with plausible traffic.
        assert!(out.raw[1][dark.0..dark.1].iter().all(|&v| v > 0.0));
    }

    #[test]
    fn run_with_matches_run_when_no_faults() {
        let w = TraceWindow::days(2);
        let records = synth_records(1_000, 8, &w);
        let v = Vectorizer::new(w, 4);
        let plain = v.run(&records, 8).unwrap();
        let policed = v
            .run_with(&records, 8, &VectorizerOptions::default())
            .unwrap();
        assert_eq!(plain.raw, policed.raw);
        assert_eq!(plain.normalized, policed.normalized);
        assert!(policed.quarantine.is_clean());
    }

    #[test]
    fn run_with_one_unknown_cell_equals_run_over_the_others() {
        let w = TraceWindow::days(2);
        let mut records = synth_records(1_000, 8, &w);
        records[123].cell_id = 99;
        let v = Vectorizer::new(w, 4);
        let policed = v
            .run_with(&records, 8, &VectorizerOptions::default())
            .unwrap();
        records.remove(123);
        let plain = v.run(&records, 8).unwrap();
        let bits = |rows: &[Vec<f64>]| -> Vec<u64> {
            rows.iter().flatten().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&policed.raw), bits(&plain.raw));
        assert_eq!(
            bits(&policed.normalized.vectors),
            bits(&plain.normalized.vectors)
        );
        assert_eq!(policed.normalized.kept_ids, plain.normalized.kept_ids);
        assert_eq!(policed.normalized.dropped, plain.normalized.dropped);
        assert_eq!(policed.report, plain.report);
        assert_eq!(policed.quarantine.unknown_cell, 1);
    }

    #[test]
    fn more_threads_than_towers_is_fine() {
        let w = TraceWindow::days(1);
        let records = synth_records(100, 2, &w);
        let out = Vectorizer::new(w, 16).aggregate(&records, 2).unwrap();
        let reference = reference_aggregate(&records, 2, &w).unwrap();
        assert_eq!(out, reference);
    }
}
