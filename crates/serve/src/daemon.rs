//! The streaming ingestion daemon: WAL-ahead acknowledgement, sharded
//! per-tower state with supervision, snapshot checkpoints at segment
//! boundaries, and a drain report that byte-matches the batch
//! pipeline.
//!
//! # Lifecycle
//!
//! 1. **Recover.** Load the latest snapshot (if any) from
//!    `data_dir/snap`, replay the WAL tail (`data_dir/wal`) past the
//!    snapshot's sequence horizon, and rebuild per-shard tower state.
//! 2. **Stream.** Read the source line by line. Every non-empty line
//!    is assigned the next global sequence number and appended to the
//!    WAL *before* it is parsed or applied — the WAL is the
//!    acknowledgement ledger, so a crash can lose only unacknowledged
//!    work. Parsed records are dispatched to shard workers
//!    (`cell_id % shards`) over bounded queues; a full queue counts a
//!    backpressure wait before blocking.
//! 3. **Checkpoint.** At every WAL segment boundary the daemon seals
//!    the segment, barriers the shards, and writes an fsync'd snapshot
//!    of the complete durable state. Recovery cost is therefore
//!    bounded by one segment regardless of stream length.
//! 4. **Drain.** At end of stream the daemon runs the *batch* analysis
//!    (vectorizer → spectral lines → pattern identifier → optional
//!    frozen-basis classification) over the recovered state and prints
//!    one deterministic report to stdout.
//!
//! # Determinism contract
//!
//! Everything printed to **stdout** is a pure function of the
//! acknowledged record stream. The durable state is integer-only
//! (sessions and counters); all floating-point state is rebuilt from
//! it. Killing the daemon at any point and restarting it over the same
//! source therefore converges to byte-identical stdout — the chaos
//! tests kill at every segment boundary and diff the output against an
//! uninterrupted run. Progress, supervision noise, and anything
//! wall-clock flavoured goes to stderr or the metrics registry.
//!
//! # Supervision
//!
//! Shard workers apply records under a deterministic seeded
//! [`RetryPolicy`]; a record that keeps failing is shed (counted, never
//! blocks the stream), and [`BreakerPolicy::threshold`] consecutive
//! sheds quarantine the shard — subsequent records for it are shed
//! deterministically instead of crashing the daemon. The
//! `shard.<i|*>=err*<n>` failpoint injects `n` transient apply
//! failures into one shard (or each) for chaos drills; `wal.seal` and
//! `checkpoint` (`abort@<n>`) kill the daemon after the n-th segment
//! seal and the n-th snapshot. Injected faults are a live-process
//! phenomenon: WAL replay during recovery applies records directly
//! (the ledger has already vouched for them).

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;

use towerlens_artifact::{fnv1a64, Publisher};
use towerlens_core::engine::{BreakerPolicy, CheckpointError, CheckpointStore, RetryPolicy};
use towerlens_core::error::CoreError;
use towerlens_core::freq::features_of_goertzel;
use towerlens_core::identifier::PatternIdentifier;
use towerlens_core::study::snapshot_from_parts;
use towerlens_dsp::goertzel;
use towerlens_obs::{Action, LazyCounter};
use towerlens_pipeline::vectorizer::{Vectorizer, VectorizerOptions};
use towerlens_pipeline::{principal_bins, FeatureSpace};
use towerlens_trace::clean::clean_records;
use towerlens_trace::record::LogRecord;
use towerlens_trace::time::TraceWindow;

use crate::basis::{classify, load_basis, Basis};
use crate::error::{io_err, ServeError};
use crate::state::{
    ApplyOutcome, ServeSnapshot, Session, SnapshotCodec, TowerState, SNAPSHOT_STAGE,
};
use crate::wal::{replay, WalWriter, WAL_DIR};

/// Snapshot subdirectory under the data directory.
pub const SNAP_DIR: &str = "snap";

static RECORDS_INGESTED: LazyCounter = LazyCounter::new("serve.records_ingested");
static MALFORMED: LazyCounter = LazyCounter::new("serve.malformed");
static WAL_SEGMENTS: LazyCounter = LazyCounter::new("serve.wal_segments");
static SNAPSHOTS: LazyCounter = LazyCounter::new("serve.snapshots");
static SHED_TOTAL: LazyCounter = LazyCounter::new("serve.shed_total");
static SHARD_RESTARTS: LazyCounter = LazyCounter::new("serve.shard_restarts");
static BACKPRESSURE_WAITS: LazyCounter = LazyCounter::new("serve.backpressure_waits");
static SHARDS_QUARANTINED: LazyCounter = LazyCounter::new("serve.shards_quarantined");
static GENERATIONS_PUBLISHED: LazyCounter = LazyCounter::new("serve.generations_published");

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The record source: a file or FIFO of tab-separated log lines.
    pub source: PathBuf,
    /// Durable state root (`wal/` and `snap/` live under it).
    pub data_dir: PathBuf,
    /// Analysis window length in days.
    pub days: usize,
    /// Shard worker count (towers are sharded by `cell_id % shards`).
    pub shards: usize,
    /// Records per WAL segment (= snapshot cadence).
    pub segment_records: u64,
    /// Bounded shard queue capacity.
    pub queue_cap: usize,
    /// Retries per failing shard apply / snapshot save.
    pub retries: u32,
    /// Frozen batch basis (a versioned query artifact) to classify
    /// against, if any.
    pub basis: Option<PathBuf>,
    /// WAL flush+fsync cadence in records (1 = every record).
    pub flush_every: u64,
    /// Progress line to stderr every this many records (0 = only at
    /// segment boundaries).
    pub progress_every: u64,
    /// Generation-store directory to publish query artifacts into
    /// (`gen-N.artifact` + atomic `CURRENT` pointer) at every
    /// snapshot boundary, for `towerlens query --watch` hot reload.
    /// `None` = don't publish.
    pub publish: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            source: PathBuf::new(),
            data_dir: PathBuf::new(),
            days: 7,
            shards: 4,
            segment_records: 4096,
            queue_cap: 1024,
            retries: 2,
            basis: None,
            flush_every: 64,
            progress_every: 0,
            publish: None,
        }
    }
}

impl ServeConfig {
    /// The configuration fingerprint snapshots are written under.
    /// Deliberately covers only what durable state depends on (the
    /// window): re-sharding or retuning cadence must not invalidate
    /// a snapshot.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(format!("serve v1 days={}", self.days).as_bytes())
    }

    fn validate(&self) -> Result<(), ServeError> {
        let bad = |reason: &str| Err(ServeError::Config(reason.to_string()));
        if self.days == 0 {
            return bad("--days must be at least 1");
        }
        if self.shards == 0 {
            return bad("--shards must be at least 1");
        }
        if self.segment_records == 0 {
            return bad("--segment-records must be at least 1");
        }
        if self.queue_cap == 0 {
            return bad("--queue-cap must be at least 1");
        }
        if self.flush_every == 0 {
            return bad("--flush-every must be at least 1");
        }
        Ok(())
    }

    fn window(&self) -> TraceWindow {
        TraceWindow::days(self.days)
    }

    /// The three maintained spectral bins: the paper's week / day /
    /// half-day lines when the window is whole weeks, their modular
    /// stand-ins otherwise.
    fn goertzel_bins(&self) -> Vec<usize> {
        let window = self.window();
        match principal_bins(&window) {
            Some(bins) => bins.to_vec(),
            None => [1usize, 7, 14]
                .iter()
                .map(|&b| b % window.n_bins.max(1))
                .collect(),
        }
    }
}

/// Global integer counters of the durable state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    next_seq: u64,
    records: u64,
    malformed: u64,
    duplicates: u64,
    conflicts: u64,
}

/// The drain report: one deterministic stdout document.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Source lines acknowledged (= WAL entries = `next_seq`).
    pub source_lines: u64,
    /// Well-formed records among them.
    pub records: u64,
    /// Malformed lines (acknowledged, counted, skipped).
    pub malformed: u64,
    /// Byte-identical duplicates dropped.
    pub duplicates: u64,
    /// Conflicts resolved (larger byte count kept).
    pub conflicts: u64,
    /// Sessions kept after cleaning.
    pub sessions: u64,
    /// Towers with at least one session.
    pub active_towers: usize,
    /// Towers kept by z-score normalisation.
    pub vector_towers: usize,
    /// Towers dropped (zero-variance traffic).
    pub dropped_towers: usize,
    /// The spectral bins analysed.
    pub bins: Vec<usize>,
    /// Whether the bins are the paper's whole-week principal lines.
    pub whole_weeks: bool,
    /// Mean Goertzel amplitude per bin over kept towers' raw traffic.
    pub line_amplitudes: Vec<f64>,
    /// Identified patterns: `(k, cluster sizes)`, when enough towers.
    pub patterns: Option<(usize, Vec<usize>)>,
    /// Why patterns are absent (deterministic), when they are.
    pub pattern_note: Option<String>,
    /// Frozen-basis fingerprint and per-class tower counts, when a
    /// basis was given: `(fingerprint, counts)`.
    pub basis_classes: Option<(u64, Vec<usize>)>,
}

impl ServeReport {
    /// Renders the report. Every run over the same acknowledged
    /// stream renders byte-identical text — the chaos tests diff this.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("towerlens serve report\n");
        out.push_str(&format!("source lines   {}\n", self.source_lines));
        out.push_str(&format!("records        {}\n", self.records));
        out.push_str(&format!("malformed      {}\n", self.malformed));
        out.push_str(&format!("duplicates     {}\n", self.duplicates));
        out.push_str(&format!("conflicts      {}\n", self.conflicts));
        out.push_str(&format!("sessions       {}\n", self.sessions));
        out.push_str(&format!("active towers  {}\n", self.active_towers));
        out.push_str(&format!(
            "vector towers  {} (dropped {})\n",
            self.vector_towers, self.dropped_towers
        ));
        out.push_str(&format!(
            "spectral bins  {:?} ({})\n",
            self.bins,
            if self.whole_weeks {
                "week/day/half-day"
            } else {
                "modular"
            }
        ));
        let amps: Vec<String> = self
            .line_amplitudes
            .iter()
            .map(|a| format!("{a:.9e}"))
            .collect();
        out.push_str(&format!("line amps      [{}]\n", amps.join(", ")));
        match (&self.patterns, &self.pattern_note) {
            (Some((k, sizes)), _) => {
                out.push_str(&format!("patterns       k={k} sizes {sizes:?}\n"));
            }
            (None, Some(note)) => out.push_str(&format!("patterns       none ({note})\n")),
            (None, None) => out.push_str("patterns       none\n"),
        }
        if let Some((fp, classes)) = &self.basis_classes {
            out.push_str(&format!(
                "basis          stage=artifact fp={fp:016x} classes {classes:?}\n"
            ));
        }
        out
    }
}

/// Messages into a shard worker.
enum ShardMsg {
    /// Apply one acknowledged record.
    Apply(u64, LogRecord),
    /// Barrier: reply with the shard's current view. Because the
    /// channel is ordered, the view covers exactly the records
    /// dispatched before the barrier.
    Sync(mpsc::Sender<ShardView>),
}

/// A shard's state as of a barrier.
#[derive(Debug, Clone, Default)]
struct ShardView {
    towers: Vec<(u32, Vec<Session>)>,
    duplicates: u64,
    conflicts: u64,
    shed: u64,
    quarantined: bool,
    /// Live nearest-centroid class counts (when a basis is armed).
    online_classes: Vec<u64>,
}

#[allow(clippy::too_many_arguments)]
fn run_shard(
    index: usize,
    rx: mpsc::Receiver<ShardMsg>,
    mut towers: BTreeMap<u32, TowerState>,
    window: TraceWindow,
    gbins: Vec<usize>,
    retry: RetryPolicy,
    breaker: BreakerPolicy,
    mut fault_budget: u64,
    basis: Option<Arc<Basis>>,
) {
    let stage = format!("serve-shard-{index}");
    let mut duplicates = 0u64;
    let mut conflicts = 0u64;
    let mut shed = 0u64;
    let mut consecutive = 0u32;
    let mut quarantined = false;
    for msg in rx {
        match msg {
            ShardMsg::Apply(seq, rec) => {
                if quarantined {
                    shed += 1;
                    SHED_TOTAL.inc();
                    continue;
                }
                let mut applied = None;
                for attempt in 0..=retry.retries {
                    if fault_budget > 0 {
                        fault_budget -= 1;
                        if attempt < retry.retries {
                            SHARD_RESTARTS.inc();
                            std::thread::sleep(retry.delay(&stage, attempt + 1));
                        }
                        continue;
                    }
                    let tower = towers
                        .entry(rec.cell_id)
                        .or_insert_with(|| TowerState::new(&window, &gbins));
                    applied = Some(tower.apply(&rec, seq, &window));
                    break;
                }
                match applied {
                    Some(ApplyOutcome::New) => consecutive = 0,
                    Some(ApplyOutcome::Duplicate) => {
                        duplicates += 1;
                        consecutive = 0;
                    }
                    Some(ApplyOutcome::Conflict) => {
                        conflicts += 1;
                        consecutive = 0;
                    }
                    None => {
                        shed += 1;
                        SHED_TOTAL.inc();
                        consecutive += 1;
                        if consecutive >= breaker.threshold {
                            quarantined = true;
                            SHARDS_QUARANTINED.inc();
                            eprintln!(
                                "serve: shard {index} quarantined after {consecutive} \
                                 consecutive failures (records now shed, daemon continues)"
                            );
                        }
                    }
                }
            }
            ShardMsg::Sync(reply) => {
                let online_classes = basis
                    .as_deref()
                    .map(|b| online_class_counts(&towers, b))
                    .unwrap_or_default();
                let view = ShardView {
                    towers: towers
                        .iter()
                        .map(|(cell, t)| (*cell, t.sessions().to_vec()))
                        .collect(),
                    duplicates,
                    conflicts,
                    shed,
                    quarantined,
                    online_classes,
                };
                if reply.send(view).is_err() {
                    return; // ingest side is gone; shut down
                }
            }
        }
    }
}

/// Live classification from the incremental views: z-score each
/// tower's binned traffic with its running moments and assign the
/// nearest frozen centroid. Zero-variance towers and dimension
/// mismatches are skipped (the drain report surfaces the latter as a
/// hard error).
fn online_class_counts(towers: &BTreeMap<u32, TowerState>, basis: &Basis) -> Vec<u64> {
    let mut counts = vec![0u64; basis.centroids.len()];
    for tower in towers.values() {
        let (mean, std) = tower.zscore_moments();
        let traffic = tower.traffic();
        if std <= 0.0 || traffic.len() != basis.dims() {
            continue;
        }
        let z: Vec<f64> = traffic.iter().map(|v| (v - mean) / std).collect();
        if let Ok(labels) = classify(&[z], basis) {
            counts[labels[0]] += 1;
        }
    }
    counts
}

/// Recovery product: rebuilt per-shard state plus the durable counts.
struct Recovered {
    shard_maps: Vec<BTreeMap<u32, TowerState>>,
    counts: Counts,
    /// `next_seq` already covered by the on-disk snapshot (used to
    /// skip a redundant final snapshot on an already-converged rerun).
    snapshotted_seq: Option<u64>,
}

fn recover(
    config: &ServeConfig,
    store: &CheckpointStore,
    window: &TraceWindow,
    gbins: &[usize],
) -> Result<Recovered, ServeError> {
    let snapshot = store
        .load(SNAPSHOT_STAGE, &SnapshotCodec)?
        .map(|(snap, _cards)| snap);
    let snapshotted_seq = snapshot.as_ref().map(|s| s.next_seq);
    let snapshot = snapshot.unwrap_or_default();

    let mut shard_maps: Vec<BTreeMap<u32, TowerState>> = vec![BTreeMap::new(); config.shards];
    let mut counts = Counts {
        next_seq: snapshot.next_seq,
        records: snapshot.records,
        malformed: snapshot.malformed,
        duplicates: snapshot.duplicates,
        conflicts: snapshot.conflicts,
    };
    for (cell, sessions) in snapshot.towers {
        let shard = cell as usize % config.shards;
        shard_maps[shard].insert(cell, TowerState::from_sessions(sessions, window, gbins));
    }

    // Replay the WAL tail past the snapshot horizon. Replayed records
    // are applied directly — the ledger already acknowledged them, so
    // supervision failpoints do not apply here.
    let outcome = replay(&config.data_dir.join(WAL_DIR))?;
    let mut replayed = 0u64;
    for entry in outcome.entries {
        if entry.seq < counts.next_seq {
            continue; // covered by the snapshot
        }
        if entry.seq != counts.next_seq {
            return Err(ServeError::SequenceGap {
                expected: counts.next_seq,
                found: entry.seq,
                segment: outcome.sealed_segments,
            });
        }
        counts.next_seq += 1;
        replayed += 1;
        match LogRecord::parse_line(&entry.line, entry.seq as usize + 1) {
            Err(_) => counts.malformed += 1,
            Ok(rec) => {
                counts.records += 1;
                let shard = rec.cell_id as usize % config.shards;
                let tower = shard_maps[shard]
                    .entry(rec.cell_id)
                    .or_insert_with(|| TowerState::new(window, gbins));
                match tower.apply(&rec, entry.seq, window) {
                    ApplyOutcome::New => {}
                    ApplyOutcome::Duplicate => counts.duplicates += 1,
                    ApplyOutcome::Conflict => counts.conflicts += 1,
                }
            }
        }
    }
    if snapshotted_seq.is_some() || replayed > 0 || outcome.torn_tails > 0 {
        eprintln!(
            "serve: recovered seq {} (snapshot {}, wal tail {replayed} entries, {} torn)",
            counts.next_seq,
            snapshotted_seq
                .map(|s| s.to_string())
                .unwrap_or_else(|| "none".to_string()),
            outcome.torn_tails
        );
    }
    Ok(Recovered {
        shard_maps,
        counts,
        snapshotted_seq,
    })
}

/// Saves a snapshot with bounded retries over transient I/O failures
/// (the `checkpoint.save.serve-state` failpoint injects these in
/// drills).
fn save_snapshot(
    store: &CheckpointStore,
    snap: &ServeSnapshot,
    retry: &RetryPolicy,
) -> Result<(), ServeError> {
    let mut attempt = 0u32;
    loop {
        match store.save(SNAPSHOT_STAGE, &[], &SnapshotCodec, snap) {
            Ok(()) => return Ok(()),
            Err(CheckpointError::Io { .. }) if attempt < retry.retries => {
                attempt += 1;
                std::thread::sleep(retry.delay("serve-snapshot", attempt));
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Runs the daemon to end of source and returns the drain report.
/// The caller prints `report.render()` to stdout; everything the
/// daemon itself emits goes to stderr.
///
/// # Errors
/// Any [`ServeError`]; durable state is left consistent (the WAL is
/// never truncated, snapshots are written atomically).
pub fn serve(config: &ServeConfig) -> Result<ServeReport, ServeError> {
    config.validate()?;
    let failpoints = towerlens_obs::failpoints();
    failpoints
        .check_stages(&[SNAPSHOT_STAGE])
        .map_err(|e| ServeError::Config(e.to_string()))?;
    let basis = match &config.basis {
        Some(path) => Some(Arc::new(load_basis(path)?)),
        None => None,
    };
    let mut publisher = match &config.publish {
        Some(dir) => Some(
            Publisher::open(dir, None)
                .map_err(|e| ServeError::Analysis(format!("artifact publish: {e}")))?,
        ),
        None => None,
    };
    let fingerprint = config.fingerprint();
    let window = config.window();
    let gbins = config.goertzel_bins();

    let store = CheckpointStore::open(config.data_dir.join(SNAP_DIR), config.fingerprint())?;
    let recovered = recover(config, &store, &window, &gbins)?;
    let mut counts = recovered.counts;
    let resume_from = counts.next_seq;

    // Spawn the shard workers over bounded queues.
    let retry = RetryPolicy::new(config.retries);
    let breaker = BreakerPolicy::default();
    let mut senders = Vec::with_capacity(config.shards);
    let mut handles = Vec::with_capacity(config.shards);
    for (i, map) in recovered.shard_maps.into_iter().enumerate() {
        let (tx, rx) = mpsc::sync_channel::<ShardMsg>(config.queue_cap);
        // An exact `shard.<i>` entry wins over `shard.*`; either way
        // the shard counts its own burst.
        let exact = failpoints.action(&["shard", &i.to_string()]);
        let budget = match exact.or(failpoints.action(&["shard", "*"])) {
            Some(Action::Err(n)) => n,
            _ => 0,
        };
        let (w, g, r, b) = (window, gbins.clone(), retry.clone(), basis.clone());
        let br = breaker.clone();
        handles.push(std::thread::spawn(move || {
            run_shard(i, rx, map, w, g, r, br, budget, b)
        }));
        senders.push(tx);
    }

    let barrier = |senders: &[mpsc::SyncSender<ShardMsg>]| -> Result<Vec<ShardView>, ServeError> {
        let mut replies = Vec::with_capacity(senders.len());
        for (i, s) in senders.iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            s.send(ShardMsg::Sync(tx))
                .map_err(|_| ServeError::Analysis(format!("shard {i} worker is down")))?;
            replies.push(rx);
        }
        let mut views = Vec::with_capacity(senders.len());
        for (i, rx) in replies.into_iter().enumerate() {
            views.push(rx.recv().map_err(|_| {
                ServeError::Analysis(format!("shard {i} worker died before the barrier"))
            })?);
        }
        Ok(views)
    };

    let assemble = |views: &[ShardView], counts: &Counts| -> ServeSnapshot {
        let mut towers: BTreeMap<u32, Vec<Session>> = BTreeMap::new();
        for view in views {
            for (cell, sessions) in &view.towers {
                towers.insert(*cell, sessions.clone());
            }
        }
        ServeSnapshot {
            next_seq: counts.next_seq,
            records: counts.records,
            malformed: counts.malformed,
            duplicates: counts.duplicates + views.iter().map(|v| v.duplicates).sum::<u64>(),
            conflicts: counts.conflicts + views.iter().map(|v| v.conflicts).sum::<u64>(),
            towers: towers.into_iter().collect(),
        }
    };

    // Stream the source, skipping the lines already acknowledged.
    let mut wal = WalWriter::open(&config.data_dir.join(WAL_DIR))?;
    let file = std::fs::File::open(&config.source).map_err(|e| io_err(&config.source, e))?;
    let reader = std::io::BufReader::new(file);
    let mut skipped = 0u64;
    let mut unflushed = 0u64;
    for line in reader.lines() {
        let line = line.map_err(|e| io_err(&config.source, e))?;
        if line.is_empty() {
            continue;
        }
        if skipped < resume_from {
            skipped += 1;
            continue;
        }
        let seq = counts.next_seq;
        wal.append(seq, &line)?;
        counts.next_seq += 1;
        unflushed += 1;
        if unflushed >= config.flush_every {
            wal.sync()?;
            unflushed = 0;
        }
        match LogRecord::parse_line(&line, seq as usize + 1) {
            Err(_) => {
                counts.malformed += 1;
                MALFORMED.inc();
            }
            Ok(rec) => {
                counts.records += 1;
                RECORDS_INGESTED.inc();
                let shard = rec.cell_id as usize % config.shards;
                match senders[shard].try_send(ShardMsg::Apply(seq, rec)) {
                    Ok(()) => {}
                    Err(mpsc::TrySendError::Full(msg)) => {
                        BACKPRESSURE_WAITS.inc();
                        senders[shard].send(msg).map_err(|_| {
                            ServeError::Analysis(format!("shard {shard} worker is down"))
                        })?;
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => {
                        return Err(ServeError::Analysis(format!(
                            "shard {shard} worker is down"
                        )));
                    }
                }
            }
        }
        if config.progress_every > 0 && counts.next_seq.is_multiple_of(config.progress_every) {
            eprintln!(
                "serve: seq {} ({} records, {} malformed)",
                counts.next_seq, counts.records, counts.malformed
            );
        }
        if wal.entries_in_segment() >= config.segment_records {
            wal.sync()?;
            unflushed = 0;
            if wal.rotate()? {
                WAL_SEGMENTS.inc();
            }
            let views = barrier(&senders)?;
            let snap = assemble(&views, &counts);
            save_snapshot(&store, &snap, &retry)?;
            SNAPSHOTS.inc();
            publish_generation(publisher.as_mut(), &snap, &window, fingerprint)?;
            progress_line(&snap, &views);
        }
    }

    // End of stream: seal the tail, snapshot if anything advanced,
    // and drain.
    wal.sync()?;
    if wal.rotate()? {
        WAL_SEGMENTS.inc();
    }
    let views = barrier(&senders)?;
    let snap = assemble(&views, &counts);
    if recovered.snapshotted_seq != Some(counts.next_seq) {
        save_snapshot(&store, &snap, &retry)?;
        SNAPSHOTS.inc();
    }
    // Publish unconditionally at end of stream: even when a resumed
    // run had nothing new to snapshot, the generation store must
    // converge to pointing at the full-stream artifact (the publish
    // itself is an idempotent no-op once it does).
    publish_generation(publisher.as_mut(), &snap, &window, fingerprint)?;
    progress_line(&snap, &views);
    drop(senders);
    for h in handles {
        let _ = h.join();
    }

    drain(&snap, &window, basis.as_deref())
}

fn progress_line(snap: &ServeSnapshot, views: &[ShardView]) {
    let shed: u64 = views.iter().map(|v| v.shed).sum();
    let quarantined = views.iter().filter(|v| v.quarantined).count();
    let mut msg = format!(
        "serve: snapshot at seq {} ({} sessions, {} towers, {} shed, {} quarantined)",
        snap.next_seq,
        snap.towers.iter().map(|(_, s)| s.len()).sum::<usize>(),
        snap.towers.len(),
        shed,
        quarantined
    );
    if views.iter().any(|v| !v.online_classes.is_empty()) {
        let mut classes: Vec<u64> = Vec::new();
        for view in views {
            for (i, c) in view.online_classes.iter().enumerate() {
                if classes.len() <= i {
                    classes.resize(i + 1, 0);
                }
                classes[i] += c;
            }
        }
        msg.push_str(&format!(" online classes {classes:?}"));
    }
    eprintln!("{msg}");
}

/// Rebuilds the batch pipeline's input from the durable state and runs
/// the batch analysis. Sorting sessions by `first_seq` reconstructs
/// the batch cleaner's first-seen output order exactly, so this is the
/// same record list `clean_records` would produce over the full
/// acknowledged stream — which is what makes serve-vs-batch
/// byte-identity hold by construction rather than by tolerance.
fn drain(
    snap: &ServeSnapshot,
    window: &TraceWindow,
    basis: Option<&Basis>,
) -> Result<ServeReport, ServeError> {
    let records = state_records(snap);
    let counts = Counts {
        next_seq: snap.next_seq,
        records: snap.records,
        malformed: snap.malformed,
        duplicates: snap.duplicates,
        conflicts: snap.conflicts,
    };
    analyze(&records, &counts, window, basis)
}

/// Rebuilds the cleaned record list from durable state: sessions
/// sorted by `first_seq` reconstruct the batch cleaner's first-seen
/// output order exactly. Shared by [`drain`] and the generation
/// publisher so both analyse the same stream.
fn state_records(snap: &ServeSnapshot) -> Vec<LogRecord> {
    let mut sessions: Vec<(u32, &Session)> = snap
        .towers
        .iter()
        .flat_map(|(cell, s)| s.iter().map(move |s| (*cell, s)))
        .collect();
    sessions.sort_by_key(|(_, s)| s.first_seq);
    sessions
        .iter()
        .map(|(cell, s)| LogRecord {
            user_id: s.user_id,
            start_s: s.start_s,
            end_s: s.end_s,
            cell_id: *cell,
            address: String::new(),
            bytes: s.bytes,
        })
        .collect()
}

/// Assembles the versioned query artifact for the current durable
/// state: the same record rebuild as [`drain`], a one-thread
/// vectorize (bit-reproducible), spectral feature extraction, and
/// pattern identification, fed through the study's shared
/// [`snapshot_from_parts`] assembly point. `Ok(None)` when the state
/// holds too little data to identify patterns — a young stream has
/// nothing to publish yet, which is not an error.
fn query_snapshot_of(
    snap: &ServeSnapshot,
    window: &TraceWindow,
    fingerprint: u64,
) -> Result<Option<towerlens_artifact::Snapshot>, ServeError> {
    let records = state_records(snap);
    if records.is_empty() {
        return Ok(None);
    }
    let n_towers = records.iter().map(|r| r.cell_id).max().unwrap_or(0) as usize + 1;
    let vect = Vectorizer::new(*window, 1)
        .run_with(&records, n_towers, &VectorizerOptions::default())
        .map_err(|e| ServeError::Analysis(e.to_string()))?;
    let vectors = &vect.normalized.vectors;
    if vectors.is_empty() {
        return Ok(None);
    }
    let patterns = match PatternIdentifier::default().identify_in(vectors, Some(window)) {
        Ok(p) => p,
        Err(CoreError::NotEnoughData { .. }) => return Ok(None),
        Err(e) => return Err(ServeError::Analysis(e.to_string())),
    };
    let features =
        features_of_goertzel(vectors, window).map_err(|e| ServeError::Analysis(e.to_string()))?;
    snapshot_from_parts(
        window,
        &vect.normalized.kept_ids,
        vectors,
        &patterns,
        None,
        &features,
        None,
        &[],
        fingerprint,
        FeatureSpace::Auto,
    )
    .map(Some)
    .map_err(|e| ServeError::Analysis(e.to_string()))
}

/// Publishes the current state to the generation store, when one is
/// configured. Counts `serve.generations_published` only for real
/// publishes — [`Publisher::publish`] is an idempotent no-op when
/// `CURRENT` already names these exact bytes, which is what lets a
/// crashed-and-restarted publisher converge.
fn publish_generation(
    publisher: Option<&mut Publisher>,
    snap: &ServeSnapshot,
    window: &TraceWindow,
    fingerprint: u64,
) -> Result<(), ServeError> {
    let Some(publisher) = publisher else {
        return Ok(());
    };
    match query_snapshot_of(snap, window, fingerprint)? {
        Some(artifact) => {
            let before = publisher.published();
            let generation = publisher
                .publish(&artifact)
                .map_err(|e| ServeError::Analysis(format!("artifact publish: {e}")))?;
            if publisher.published() > before {
                GENERATIONS_PUBLISHED.inc();
                eprintln!(
                    "serve: published generation {generation} ({} towers) to {}",
                    artifact.n_towers(),
                    publisher.dir().display()
                );
            }
        }
        None => eprintln!("serve: nothing to publish yet (not enough data)"),
    }
    Ok(())
}

/// The batch analysis over cleaned records — shared verbatim by the
/// daemon's drain and [`batch_reference`], with identical inputs by
/// construction.
fn analyze(
    records: &[LogRecord],
    counts: &Counts,
    window: &TraceWindow,
    basis: Option<&Basis>,
) -> Result<ServeReport, ServeError> {
    let whole_weeks = principal_bins(window).is_some();
    let bins = match principal_bins(window) {
        Some(b) => b.to_vec(),
        None => [1usize, 7, 14]
            .iter()
            .map(|&b| b % window.n_bins.max(1))
            .collect(),
    };
    let active_towers = {
        let mut cells: Vec<u32> = records.iter().map(|r| r.cell_id).collect();
        cells.sort_unstable();
        cells.dedup();
        cells.len()
    };
    let mut report = ServeReport {
        source_lines: counts.next_seq,
        records: counts.records,
        malformed: counts.malformed,
        duplicates: counts.duplicates,
        conflicts: counts.conflicts,
        sessions: records.len() as u64,
        active_towers,
        vector_towers: 0,
        dropped_towers: 0,
        bins,
        whole_weeks,
        line_amplitudes: Vec::new(),
        patterns: None,
        pattern_note: None,
        basis_classes: None,
    };
    if records.is_empty() {
        report.pattern_note = Some("no records".to_string());
        if let Some(b) = basis {
            report.basis_classes = Some((b.fingerprint, vec![0; b.centroids.len()]));
        }
        return Ok(report);
    }

    let n_towers = records.iter().map(|r| r.cell_id).max().unwrap_or(0) as usize + 1;
    // One worker thread: the drain must be bit-reproducible across
    // machines, and it runs once per stream.
    let vect = Vectorizer::new(*window, 1)
        .run_with(records, n_towers, &VectorizerOptions::default())
        .map_err(|e| ServeError::Analysis(e.to_string()))?;
    report.vector_towers = vect.normalized.vectors.len();
    report.dropped_towers = vect.normalized.dropped.len();

    // Mean amplitude of each principal line over kept towers' raw
    // traffic (batch Goertzel — the live sliding bank's ground truth).
    if !vect.normalized.kept_ids.is_empty() {
        let mut sums = vec![0.0f64; report.bins.len()];
        for &id in &vect.normalized.kept_ids {
            for (i, &bin) in report.bins.iter().enumerate() {
                let c = goertzel(&vect.raw[id], bin)
                    .map_err(|e| ServeError::Analysis(e.to_string()))?;
                sums[i] += c.abs();
            }
        }
        let n = vect.normalized.kept_ids.len() as f64;
        report.line_amplitudes = sums.into_iter().map(|s| s / n).collect();
    }

    match PatternIdentifier::default().identify_in(&vect.normalized.vectors, Some(window)) {
        Ok(p) => report.patterns = Some((p.k, p.clustering.sizes())),
        Err(CoreError::NotEnoughData { what, needed, got }) => {
            report.pattern_note = Some(format!(
                "not enough data: {what} (need {needed}, got {got})"
            ));
        }
        Err(e) => report.pattern_note = Some(e.to_string()),
    }

    if let Some(b) = basis {
        let labels = classify(&vect.normalized.vectors, b)?;
        let mut classes = vec![0usize; b.centroids.len()];
        for l in labels {
            classes[l] += 1;
        }
        report.basis_classes = Some((b.fingerprint, classes));
    }
    Ok(report)
}

/// The equivalence oracle: parses the *entire* source as one batch,
/// cleans it with the batch cleaner, and runs the same analysis the
/// daemon's drain runs. A recorded stream replayed through `serve` —
/// with any kill/restart schedule — must render byte-identically to
/// this.
///
/// # Errors
/// Any [`ServeError`].
pub fn batch_reference(config: &ServeConfig) -> Result<ServeReport, ServeError> {
    config.validate()?;
    let window = config.window();
    let basis = match &config.basis {
        Some(path) => Some(load_basis(path)?),
        None => None,
    };
    let text = std::fs::read_to_string(&config.source).map_err(|e| io_err(&config.source, e))?;
    let mut counts = Counts::default();
    let mut records = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let seq = counts.next_seq;
        counts.next_seq += 1;
        match LogRecord::parse_line(line, seq as usize + 1) {
            Err(_) => counts.malformed += 1,
            Ok(rec) => {
                counts.records += 1;
                records.push(rec);
            }
        }
    }
    let (kept, clean) = clean_records(&records);
    counts.duplicates = clean.duplicates_removed as u64;
    counts.conflicts = clean.conflicts_resolved as u64;
    analyze(&kept, &counts, &window, basis.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_zeros() {
        for cfg in [
            ServeConfig {
                days: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                shards: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                segment_records: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_cap: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                flush_every: 0,
                ..ServeConfig::default()
            },
        ] {
            assert!(matches!(serve(&cfg), Err(ServeError::Config(_))));
        }
    }

    #[test]
    fn fingerprint_covers_the_window_only() {
        let a = ServeConfig::default();
        let b = ServeConfig {
            shards: 9,
            segment_records: 1,
            ..ServeConfig::default()
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = ServeConfig {
            days: 14,
            ..ServeConfig::default()
        };
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn report_renders_deterministically() {
        let report = ServeReport {
            source_lines: 10,
            records: 9,
            malformed: 1,
            duplicates: 2,
            conflicts: 1,
            sessions: 6,
            active_towers: 3,
            vector_towers: 3,
            dropped_towers: 0,
            bins: vec![1, 7, 14],
            whole_weeks: true,
            line_amplitudes: vec![1.5, 0.25, 0.125],
            patterns: None,
            pattern_note: Some("not enough data".to_string()),
            basis_classes: Some((0xabc, vec![2, 1])),
        };
        let text = report.render();
        assert_eq!(text, report.render());
        assert!(text.contains("line amps      [1.500000000e0, 2.500000000e-1, 1.250000000e-1]"));
        assert!(text.contains("patterns       none (not enough data)"));
        assert!(text.contains("basis          stage=artifact fp=0000000000000abc classes [2, 1]"));
    }
}
