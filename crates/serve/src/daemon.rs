//! The streaming ingestion daemon: WAL-ahead acknowledgement, sharded
//! per-tower sessions, one snapshot checkpoint per run, written at the
//! drain, and a drain report that byte-matches the batch pipeline.
//!
//! # Lifecycle
//!
//! 1. **Recover.** Load the snapshot, the state of the last drain (if
//!    any), from `data_dir/snap`, verify the whole WAL
//!    (`data_dir/wal`), apply the entries past the snapshot's sequence
//!    horizon, and hand each shard its towers' sessions. After a drain
//!    there is nothing to apply; after a kill, the entries acknowledged
//!    since the last drain. Either way the entries applied are at most
//!    the ledger that every start verifies anyway (checksums, seals,
//!    gap-free numbering), so recovery grows with the stream: 0.2–0.3 µs
//!    per verified entry with the single scanner of [`crate::wal`]
//!    (94,773 entries, 2-vCPU Xeon VM).
//! 2. **Stream.** Read the source line by line as bytes, decoding each
//!    line once with `String::from_utf8_lossy`. Every non-empty line
//!    is assigned the next global sequence number and appended to the
//!    WAL *before* it is parsed or applied — the WAL is the
//!    acknowledgement ledger, so a crash can lose only unacknowledged
//!    work. A parsed record waits for the WAL fsync that acknowledges
//!    it (every `--flush-every` lines, and at each seal); each fsync
//!    hands every shard worker (`cell_id % shards`) its records as one
//!    message over a bounded queue, and a full queue counts a
//!    backpressure wait before blocking.
//! 3. **Segment boundaries.** At every WAL segment boundary the daemon
//!    seals the segment and starts the next. Only when something reads
//!    the state's analysis — a `--publish` generation or the `--basis`
//!    counts on the state line — does it also barrier the shards and
//!    hand the state to the analysis thread, which vectorizes it tower
//!    by tower, publishes (it identifies the state's patterns only to
//!    publish them) and prints the state line while the stream goes
//!    on. At most one analysis is in flight: the next boundary and the
//!    drain wait for it before they seal, and its error fails the run
//!    there. A plain run barriers its shards once, at the drain.
//! 4. **Drain.** At end of stream the daemon waits for the running
//!    analysis, seals the tail and barriers the shards, reusing the
//!    last segment barrier's state and analysis when that barrier
//!    covered the stream. It then writes the run's one fsync'd
//!    snapshot of the durable state, unless the snapshot on disk
//!    already covers it, and runs the *batch* analysis (vectorizer →
//!    spectral lines → pattern identifier → optional frozen-basis
//!    classification) over the final state, once: it publishes it and
//!    prints one deterministic report to stdout.
//!
//! # Determinism contract
//!
//! Everything printed to **stdout** is a pure function of the
//! acknowledged record stream. The durable state is integer-only
//! (sessions and counters), and it is all the shards hold: every
//! floating-point number comes from a batch analysis of it. Killing the
//! daemon at any point and restarting it over the same source therefore
//! converges to byte-identical stdout — the chaos tests kill at every
//! segment boundary and diff the output against an uninterrupted run.
//! Progress, supervision noise, and anything wall-clock flavoured goes
//! to stderr or the metrics registry.
//!
//! # Supervision
//!
//! A shard applies each record exactly once: applying a record to a
//! tower's sessions cannot fail, so there is nothing to retry, shed or
//! quarantine, and every acknowledged record reaches the state. What
//! can fail is I/O. A snapshot save that hits an I/O error is retried
//! up to `--retries` times under the stage engine's backoff
//! ([`retry_io`]) before it fails the run; a WAL or source I/O error
//! fails it at once, and a barrier's analysis or publish error when
//! the analysis thread is next joined. Either way the next start
//! replays the WAL. The
//! `checkpoint.save.serve-state=err*<n>` failpoint injects snapshot
//! save errors; `wal.seal=abort@<n>` kills the daemon after the n-th
//! segment seal, and `checkpoint=abort@1` after the drain's snapshot.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::ScopedJoinHandle;

use towerlens_artifact::{fnv1a64, Publisher};
use towerlens_core::engine::{retry_io, CheckpointStore};
use towerlens_core::error::CoreError;
use towerlens_core::identifier::{IdentifiedPatterns, PatternIdentifier};
use towerlens_core::study::snapshot_from_parts;
use towerlens_dsp::goertzel::{goertzel_bins_sharded, record_evaluations};
use towerlens_dsp::DspError;
use towerlens_obs::LazyCounter;
use towerlens_pipeline::vectorizer::{Vectorizer, VectorizerOptions, VectorizerOutput};
use towerlens_pipeline::{principal_bins, FeatureSpace};
use towerlens_trace::clean::clean_records;
use towerlens_trace::error::TraceError;
use towerlens_trace::record::LogRecord;
use towerlens_trace::time::TraceWindow;

use crate::basis::{classify, load_basis, Basis};
use crate::error::{io_err, ServeError};
use crate::state::{
    ApplyOutcome, ServeSnapshot, Session, SnapshotCodec, TowerState, SNAPSHOT_STAGE,
};
use crate::wal::{replay_with, WalWriter, WAL_DIR};

/// Snapshot subdirectory under the data directory.
pub const SNAP_DIR: &str = "snap";

static RECORDS_INGESTED: LazyCounter = LazyCounter::new("serve.records_ingested");
static MALFORMED: LazyCounter = LazyCounter::new("serve.malformed");
static WAL_SEGMENTS: LazyCounter = LazyCounter::new("serve.wal_segments");
static SNAPSHOTS: LazyCounter = LazyCounter::new("serve.snapshots");
static BACKPRESSURE_WAITS: LazyCounter = LazyCounter::new("serve.backpressure_waits");
static GENERATIONS_PUBLISHED: LazyCounter = LazyCounter::new("serve.generations_published");
static SNAPSHOT_BYTES: LazyCounter = LazyCounter::new("serve.snapshot.bytes");
static ENTRIES_APPLIED: LazyCounter = LazyCounter::new("serve.recovery.entries_applied");

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
    /// Records per WAL segment (= publish and `--basis` cadence).
    pub segment_records: u64,
    /// Bounds the records a slow shard can have queued. A shard's
    /// queue holds `max(1, queue_cap / flush_every)` messages, each one
    /// WAL sync's records for that shard (at most `flush_every`), so at
    /// most `max(queue_cap, flush_every)` records.
    pub queue_cap: usize,
    /// Retries per snapshot save that fails with an I/O error.
    pub retries: u32,
    /// Frozen batch basis (a versioned query artifact) to classify
    /// against, if any.
    pub basis: Option<PathBuf>,
    /// WAL flush+fsync cadence in records (1 = every record). Each
    /// fsync hands every shard the records it acknowledged, as one
    /// message, so a shard applies a record only once it is durable.
    pub flush_every: u64,
    /// Progress line to stderr every this many records (0 = none; a
    /// state line still marks each barrier).
    pub progress_every: u64,
    /// Generation-store directory to publish query artifacts into
    /// (`gen-N.artifact` + atomic `CURRENT` pointer) at every
    /// segment boundary and at the drain, for `towerlens query
    /// --watch` hot reload. `None` = don't publish.
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

    /// Loads the frozen basis, if one is configured, and refuses one
    /// whose centroids do not have the window's bin count — before any
    /// state is written, not after a whole stream.
    fn frozen_basis(&self) -> Result<Option<Basis>, ServeError> {
        let Some(path) = &self.basis else {
            return Ok(None);
        };
        let basis = load_basis(path)?;
        let bins = self.window().n_bins;
        if basis.dims() != bins {
            return Err(ServeError::Config(format!(
                "basis {}: dimensionality {} does not match the {}-day window's {bins} bins",
                path.display(),
                basis.dims(),
                self.days
            )));
        }
        Ok(Some(basis))
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

impl Counts {
    fn of(snap: &ServeSnapshot) -> Counts {
        Counts {
            next_seq: snap.next_seq,
            records: snap.records,
            malformed: snap.malformed,
            duplicates: snap.duplicates,
            conflicts: snap.conflicts,
        }
    }
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
    /// Apply the shard's records that one WAL sync acknowledged, in
    /// stream order.
    Apply(Vec<LogRecord>),
    /// Barrier: reply with a copy of the shard's state. Because the
    /// channel is ordered, the copy covers exactly the records
    /// dispatched before the barrier.
    Sync(mpsc::Sender<ShardView>),
}

/// A shard's state as of a barrier.
#[derive(Debug, Clone, Default)]
struct ShardView {
    /// The shard's towers in ascending cell id.
    towers: Vec<(u32, Vec<Session>)>,
    duplicates: u64,
    conflicts: u64,
}

fn run_shard(rx: mpsc::Receiver<ShardMsg>, mut towers: BTreeMap<u32, TowerState>) {
    let mut duplicates = 0u64;
    let mut conflicts = 0u64;
    for msg in rx {
        match msg {
            ShardMsg::Apply(records) => {
                for rec in &records {
                    match towers.entry(rec.cell_id).or_default().apply(rec) {
                        ApplyOutcome::New => {}
                        ApplyOutcome::Duplicate => duplicates += 1,
                        ApplyOutcome::Conflict => conflicts += 1,
                    }
                }
            }
            ShardMsg::Sync(reply) => {
                let view = ShardView {
                    towers: towers
                        .iter()
                        .map(|(cell, t)| (*cell, t.sessions().to_vec()))
                        .collect(),
                    duplicates,
                    conflicts,
                };
                if reply.send(view).is_err() {
                    return; // ingest side is gone; shut down
                }
            }
        }
    }
}

/// The shard workers, and each shard's parsed records that no WAL sync
/// has acknowledged yet.
struct Shards {
    senders: Vec<mpsc::SyncSender<ShardMsg>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    pending: Vec<Vec<LogRecord>>,
}

impl Shards {
    /// Spawns one worker per recovered shard map. A message carries at
    /// most `flush_every` records, so a queue of
    /// `queue_cap / flush_every` messages (at least one) bounds what a
    /// slow shard can have queued.
    fn spawn(maps: Vec<BTreeMap<u32, TowerState>>, config: &ServeConfig) -> Shards {
        let depth = (config.queue_cap as u64 / config.flush_every).max(1) as usize;
        let (mut senders, mut handles) = (Vec::new(), Vec::new());
        for map in maps {
            let (tx, rx) = mpsc::sync_channel::<ShardMsg>(depth);
            handles.push(std::thread::spawn(move || run_shard(rx, map)));
            senders.push(tx);
        }
        let pending = vec![Vec::new(); senders.len()];
        Shards {
            senders,
            handles,
            pending,
        }
    }

    /// Holds a parsed record for its shard until the WAL sync that
    /// acknowledges it.
    fn push(&mut self, rec: LogRecord) {
        let shard = rec.cell_id as usize % self.pending.len();
        self.pending[shard].push(rec);
    }

    /// Fsyncs the WAL, then hands each shard the records that fsync
    /// acknowledged as one message; a full queue counts a backpressure
    /// wait before blocking.
    fn sync(&mut self, wal: &mut WalWriter) -> Result<(), ServeError> {
        wal.sync()?;
        for (shard, (tx, records)) in self.senders.iter().zip(&mut self.pending).enumerate() {
            if records.is_empty() {
                continue;
            }
            let down = || ServeError::Analysis(format!("shard {shard} worker is down"));
            match tx.try_send(ShardMsg::Apply(std::mem::take(records))) {
                Ok(()) => {}
                Err(mpsc::TrySendError::Full(msg)) => {
                    BACKPRESSURE_WAITS.inc();
                    tx.send(msg).map_err(|_| down())?;
                }
                Err(mpsc::TrySendError::Disconnected(_)) => return Err(down()),
            }
        }
        Ok(())
    }

    /// Copies every shard's state, as of the last sync, into one
    /// snapshot.
    fn barrier(&self, counts: &Counts) -> Result<ServeSnapshot, ServeError> {
        debug_assert!(
            self.pending.iter().all(Vec::is_empty),
            "a barrier follows a sync"
        );
        let mut replies = Vec::with_capacity(self.senders.len());
        for (i, s) in self.senders.iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            s.send(ShardMsg::Sync(tx))
                .map_err(|_| ServeError::Analysis(format!("shard {i} worker is down")))?;
            replies.push(rx);
        }
        let mut views = Vec::with_capacity(self.senders.len());
        for (i, rx) in replies.into_iter().enumerate() {
            views.push(rx.recv().map_err(|_| {
                ServeError::Analysis(format!("shard {i} worker died before the barrier"))
            })?);
        }
        Ok(assemble(views, counts))
    }

    /// Stops the workers.
    fn close(self) {
        drop(self.senders);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Recovery product: per-shard sessions plus the durable counts.
struct Recovered {
    shard_maps: Vec<BTreeMap<u32, TowerState>>,
    counts: Counts,
    /// `next_seq` already covered by the on-disk snapshot: the drain
    /// saves only a state past it.
    snapshotted_seq: Option<u64>,
}

fn recover(config: &ServeConfig, store: &CheckpointStore) -> Result<Recovered, ServeError> {
    let snapshot = store
        .load(SNAPSHOT_STAGE, &SnapshotCodec)?
        .map(|(snap, _cards)| snap);
    let snapshotted_seq = snapshot.as_ref().map(|s| s.next_seq);
    let snapshot = snapshot.unwrap_or_default();

    let mut shard_maps: Vec<BTreeMap<u32, TowerState>> = vec![BTreeMap::new(); config.shards];
    let mut counts = Counts::of(&snapshot);
    for (cell, sessions) in snapshot.towers {
        let shard = cell as usize % config.shards;
        shard_maps[shard].insert(cell, TowerState::from_sessions(sessions));
    }

    // Verify the whole ledger and apply the entries past the snapshot's
    // horizon. Covered entries are checked but never copied. The walk
    // enforces gap-free numbering from 0, so the first entry past the
    // horizon carries it exactly.
    let horizon = counts.next_seq;
    let mut applied = 0u64;
    let outcome = replay_with(&config.data_dir.join(WAL_DIR), |seq, line| {
        if seq < horizon {
            return;
        }
        debug_assert_eq!(seq, counts.next_seq, "replay numbering is gap-free");
        counts.next_seq += 1;
        applied += 1;
        match LogRecord::parse_line(line, seq as usize + 1) {
            Err(_) => counts.malformed += 1,
            Ok(rec) => {
                counts.records += 1;
                let shard = rec.cell_id as usize % config.shards;
                let tower = shard_maps[shard].entry(rec.cell_id).or_default();
                match tower.apply(&rec) {
                    ApplyOutcome::New => {}
                    ApplyOutcome::Duplicate => counts.duplicates += 1,
                    ApplyOutcome::Conflict => counts.conflicts += 1,
                }
            }
        }
    })?;
    ENTRIES_APPLIED.add(applied);
    if snapshotted_seq.is_some() || applied > 0 || outcome.torn_tails > 0 {
        eprintln!(
            "serve: recovered seq {} (snapshot {}, wal tail {applied} entries, {} torn)",
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

/// Runs the daemon to end of source and returns the drain report.
/// The caller prints `report.render()` to stdout; everything the
/// daemon itself emits goes to stderr.
///
/// # Errors
/// Any [`ServeError`]; durable state is left consistent (the WAL is
/// never truncated, snapshots are written atomically).
pub fn serve(config: &ServeConfig) -> Result<ServeReport, ServeError> {
    config.validate()?;
    towerlens_obs::failpoints()
        .check_stages(&[SNAPSHOT_STAGE])
        .map_err(|e| ServeError::Config(e.to_string()))?;
    let basis = config.frozen_basis()?;
    let publisher = match &config.publish {
        Some(dir) => Some(
            Publisher::open(dir, None)
                .map_err(|e| ServeError::Analysis(format!("artifact publish: {e}")))?,
        ),
        None => None,
    };
    let window = config.window();
    let analyst = Analyst {
        publisher,
        basis: basis.as_ref(),
        window,
        fingerprint: config.fingerprint(),
    };
    // A segment boundary takes a barrier only when a generation or the
    // `--basis` counts read its state.
    let reads_state = analyst.publisher.is_some() || analyst.basis.is_some();

    let store = CheckpointStore::open(config.data_dir.join(SNAP_DIR), config.fingerprint())?;
    let recovered = recover(config, &store)?;
    let mut counts = recovered.counts;
    let resume_from = counts.next_seq;
    let mut shards = Shards::spawn(recovered.shard_maps, config);

    // Stream the source, skipping the lines already acknowledged.
    let mut wal = WalWriter::open(&config.data_dir.join(WAL_DIR))?;
    let mut lines = SourceLines::open(&config.source)?;
    let mut skipped = 0u64;
    let mut unflushed = 0u64;
    std::thread::scope(|scope| {
        let mut analysing = Analysing::Idle(analyst);
        while let Some(line) = lines.next_line()? {
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
            match LogRecord::parse_line(&line, seq as usize + 1) {
                Err(_) => {
                    counts.malformed += 1;
                    MALFORMED.inc();
                }
                Ok(rec) => {
                    counts.records += 1;
                    RECORDS_INGESTED.inc();
                    shards.push(rec);
                }
            }
            unflushed += 1;
            if unflushed >= config.flush_every {
                shards.sync(&mut wal)?;
                unflushed = 0;
            }
            if config.progress_every > 0 && counts.next_seq.is_multiple_of(config.progress_every) {
                eprintln!(
                    "serve: seq {} ({} records, {} malformed)",
                    counts.next_seq, counts.records, counts.malformed
                );
            }
            if wal.entries_in_segment() >= config.segment_records {
                // Join the running analysis before this segment seals;
                // its barrier's copy is freed before the next is taken.
                let (mut analyst, _) = analysing.join()?;
                shards.sync(&mut wal)?;
                unflushed = 0;
                if wal.rotate()? {
                    WAL_SEGMENTS.inc();
                }
                analysing = if reads_state {
                    let state = shards.barrier(&counts)?;
                    Analysing::Running(scope.spawn(move || {
                        let analysis = analyst.analyse(&state);
                        (analyst, state, analysis)
                    }))
                } else {
                    Analysing::Idle(analyst)
                };
            }
        }

        // End of stream: join the running analysis, seal the tail and
        // barrier, unless this run's last segment barrier already covered
        // every acknowledged line (its analysis, generation and state
        // line then stand). Save the run's one snapshot if the one on
        // disk is behind, then analyse. A resumed run with nothing new
        // still analyses and publishes, so a generation lost to a kill
        // after the drain's save converges (the publish is an idempotent
        // no-op once `CURRENT` names these bytes).
        let (mut analyst, last) = analysing.join()?;
        shards.sync(&mut wal)?;
        if wal.rotate()? {
            WAL_SEGMENTS.inc();
        }
        let (state, analysis) = match last.filter(|(state, _)| state.next_seq == counts.next_seq) {
            Some((state, analysis)) => (state, Some(analysis)),
            None => (shards.barrier(&counts)?, None),
        };
        shards.close();
        if recovered.snapshotted_seq != Some(counts.next_seq) {
            let (saved, _) = retry_io(config.retries, || {
                store.save(SNAPSHOT_STAGE, &[], &SnapshotCodec, &state)
            });
            SNAPSHOT_BYTES.add(saved?);
            SNAPSHOTS.inc();
        }
        let analysis = match analysis {
            Some(analysis) => analysis,
            None => analyst.analyse(&state)?,
        };
        report(&Counts::of(&state), &analysis, &window, basis.as_ref())
    })
}

/// The source's lines as `serve` acknowledges them and
/// [`batch_reference`] reads them: split at `\n` (dropping a `\r`
/// before it, as [`BufRead::lines`] does) and decoded once with
/// [`String::from_utf8_lossy`]. A line that is not UTF-8 is thus
/// acknowledged, replayed and parsed as one text, and counts as
/// malformed unless that text parses.
struct SourceLines<'a> {
    path: &'a Path,
    reader: BufReader<File>,
    buf: Vec<u8>,
}

impl<'a> SourceLines<'a> {
    fn open(path: &'a Path) -> Result<SourceLines<'a>, ServeError> {
        let file = File::open(path).map_err(|e| io_err(path, e))?;
        Ok(SourceLines {
            path,
            reader: BufReader::new(file),
            buf: Vec::new(),
        })
    }

    /// The next line, or `None` at end of source.
    fn next_line(&mut self) -> Result<Option<Cow<'_, str>>, ServeError> {
        self.buf.clear();
        let read = self.reader.read_until(b'\n', &mut self.buf);
        if read.map_err(|e| io_err(self.path, e))? == 0 {
            return Ok(None);
        }
        if self.buf.last() == Some(&b'\n') {
            self.buf.pop();
            if self.buf.last() == Some(&b'\r') {
                self.buf.pop();
            }
        }
        Ok(Some(String::from_utf8_lossy(&self.buf)))
    }
}

/// What analyses a barrier's state: the generation store it publishes
/// to and the frozen basis its state line classifies against.
struct Analyst<'a> {
    publisher: Option<Publisher>,
    basis: Option<&'a Basis>,
    window: TraceWindow,
    fingerprint: u64,
}

impl Analyst<'_> {
    /// The analysis of one barrier's state: publishes it (only a publish
    /// identifies the state's patterns), prints the state line and
    /// returns the analysis for the drain to reuse.
    fn analyse(&mut self, state: &ServeSnapshot) -> Result<Analysis, ServeError> {
        let analysis = Analysis::of_state(state, &self.window)?;
        if let Some(publisher) = self.publisher.as_mut() {
            publish_generation(publisher, &analysis, &self.window, self.fingerprint)?;
        }
        let classes = self.basis.map(|b| analysis.classes(b)).transpose()?;
        state_line(state, classes.as_deref());
        Ok(analysis)
    }
}

/// A barrier's analysis and result, owned by the analysis thread while
/// it runs.
type Analysed<'a> = (Analyst<'a>, ServeSnapshot, Result<Analysis, ServeError>);

/// The segment barriers' analyst: idle, or running on the analysis
/// thread, which hands it back when joined. One value, so at most one
/// analysis is ever in flight.
enum Analysing<'scope, 'a> {
    Idle(Analyst<'a>),
    Running(ScopedJoinHandle<'scope, Analysed<'a>>),
}

impl<'a> Analysing<'_, 'a> {
    /// Waits for a running analysis and returns the analyst with the
    /// barrier's state and analysis: its error fails the run here, and
    /// its panic propagates.
    fn join(self) -> Result<(Analyst<'a>, Option<(ServeSnapshot, Analysis)>), ServeError> {
        match self {
            Analysing::Idle(analyst) => Ok((analyst, None)),
            Analysing::Running(thread) => {
                let (analyst, state, analysis) = thread
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                Ok((analyst, Some((state, analysis?))))
            }
        }
    }
}

/// Moves the shards' copies into one snapshot: shards hold disjoint
/// cells, each view in ascending cell id, so sorting the towers (not
/// their sessions) orders the whole.
fn assemble(views: Vec<ShardView>, counts: &Counts) -> ServeSnapshot {
    let mut snap = ServeSnapshot {
        next_seq: counts.next_seq,
        records: counts.records,
        malformed: counts.malformed,
        duplicates: counts.duplicates,
        conflicts: counts.conflicts,
        towers: Vec::new(),
    };
    for view in views {
        snap.duplicates += view.duplicates;
        snap.conflicts += view.conflicts;
        snap.towers.extend(view.towers);
    }
    snap.towers.sort_unstable_by_key(|(cell, _)| *cell);
    snap
}

fn state_line(state: &ServeSnapshot, classes: Option<&[usize]>) {
    let mut msg = format!(
        "serve: state at seq {} ({} sessions, {} towers)",
        state.next_seq,
        state.kept(),
        state.towers.len()
    );
    if let Some(classes) = classes {
        msg.push_str(&format!(" classes {classes:?}"));
    }
    eprintln!("{msg}");
}

/// One batch analysis of the durable state (or, for
/// [`batch_reference`], of a cleaned record list), the source of every
/// number `serve` derives: a one-thread vectorize (bit-reproducible
/// across machines) and pattern identification, run on first need —
/// the `--basis` counts read only the vectors. A barrier's generation,
/// its `--basis` counts and the drain report all read the same one.
struct Analysis {
    /// Sessions analysed.
    sessions: u64,
    /// Towers with at least one session.
    active_towers: usize,
    /// The vectorizer's output and, once identified, its patterns;
    /// `None` without records.
    run: Option<(
        VectorizerOutput,
        OnceCell<Result<IdentifiedPatterns, CoreError>>,
    )>,
}

impl Analysis {
    /// The analysis of a cleaned record list in the batch cleaner's
    /// output order, through [`Vectorizer::run_with`]: what
    /// [`batch_reference`] reports from.
    fn of_records(records: &[LogRecord], window: &TraceWindow) -> Result<Analysis, ServeError> {
        // The vectorizer's tower count: one row per cell id up to the
        // largest seen.
        let n_towers = records.iter().map(|r| r.cell_id as usize + 1).max();
        let mut active = vec![false; n_towers.unwrap_or(0)];
        for r in records {
            active[r.cell_id as usize] = true;
        }
        let vect = n_towers.map(|n| {
            Vectorizer::new(*window, 1).run_with(records, n, &VectorizerOptions::default())
        });
        let active_towers = active.iter().filter(|&&a| a).count();
        Analysis::new(records.len() as u64, active_towers, vect)
    }

    /// The analysis of a barrier's state, read tower by tower through
    /// [`Vectorizer::run_towers`]. A tower's sessions are in first-seen
    /// order, the order in which the batch cleaner's output visits
    /// them, and a row sums only its own tower's sessions: every row,
    /// and so every number derived from the rows, is bit-identical to
    /// [`Analysis::of_records`] over the cleaned stream, and no record
    /// list is built.
    fn of_state(snap: &ServeSnapshot, window: &TraceWindow) -> Result<Analysis, ServeError> {
        let active = || snap.towers.iter().filter(|(_, s)| !s.is_empty());
        let vect = active().map(|(cell, _)| *cell as usize + 1).max().map(|n| {
            Vectorizer::new(*window, 1)
                .run_towers(&snap.towers, n, |s| (s.start_s, s.end_s, s.bytes))
        });
        Analysis::new(snap.kept(), active().count(), vect)
    }

    fn new(
        sessions: u64,
        active_towers: usize,
        vect: Option<Result<VectorizerOutput, TraceError>>,
    ) -> Result<Analysis, ServeError> {
        let vect = vect
            .transpose()
            .map_err(|e| ServeError::Analysis(e.to_string()))?;
        Ok(Analysis {
            sessions,
            active_towers,
            run: vect.map(|vect| (vect, OnceCell::new())),
        })
    }

    /// The vectorizer's output and the identified patterns, identifying
    /// them on the first call; `None` without records.
    fn identified(
        &self,
        window: &TraceWindow,
    ) -> Option<(&VectorizerOutput, &Result<IdentifiedPatterns, CoreError>)> {
        let (vect, patterns) = self.run.as_ref()?;
        let patterns = patterns.get_or_init(|| {
            PatternIdentifier::default().identify_in(&vect.normalized.vectors, Some(window))
        });
        Some((vect, patterns))
    }

    /// Kept towers per nearest frozen centroid.
    fn classes(&self, basis: &Basis) -> Result<Vec<usize>, ServeError> {
        let mut classes = vec![0usize; basis.centroids.len()];
        if let Some((vect, _)) = &self.run {
            for label in classify(&vect.normalized.vectors, basis)? {
                classes[label] += 1;
            }
        }
        Ok(classes)
    }
}

/// Assembles the versioned query artifact of an analysed state: its
/// spectral table and clustering feed the study's shared
/// [`snapshot_from_parts`] assembly point. `Ok(None)` when the state
/// holds too little data to identify patterns — a young stream has
/// nothing to publish yet, which is not an error.
fn query_snapshot_of(
    analysis: &Analysis,
    window: &TraceWindow,
    fingerprint: u64,
) -> Result<Option<towerlens_artifact::Snapshot>, ServeError> {
    let Some((vect, patterns)) = analysis.identified(window) else {
        return Ok(None);
    };
    let patterns = match patterns {
        Ok(p) => p,
        Err(CoreError::NotEnoughData { .. }) => return Ok(None),
        Err(e) => return Err(ServeError::Analysis(e.to_string())),
    };
    let features = patterns
        .feature_table()
        .map_err(|e| ServeError::Analysis(e.to_string()))?;
    snapshot_from_parts(
        window,
        &vect.normalized.kept_ids,
        &vect.normalized.vectors,
        patterns,
        None,
        features,
        None,
        &[],
        fingerprint,
        FeatureSpace::Auto,
    )
    .map(Some)
    .map_err(|e| ServeError::Analysis(e.to_string()))
}

/// Publishes an analysed state to the generation store. Counts
/// `serve.generations_published` only for real publishes —
/// [`Publisher::publish`] is an idempotent no-op when `CURRENT`
/// already names these exact bytes, which is what lets a
/// crashed-and-restarted publisher converge.
fn publish_generation(
    publisher: &mut Publisher,
    analysis: &Analysis,
    window: &TraceWindow,
    fingerprint: u64,
) -> Result<(), ServeError> {
    match query_snapshot_of(analysis, window, fingerprint)? {
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

/// The drain report of an analysed state — shared verbatim by the
/// daemon's drain and [`batch_reference`], with identical inputs by
/// construction.
fn report(
    counts: &Counts,
    analysis: &Analysis,
    window: &TraceWindow,
    basis: Option<&Basis>,
) -> Result<ServeReport, ServeError> {
    let whole_weeks = principal_bins(window).is_some();
    let line_bins = match principal_bins(window) {
        Some(b) => b,
        None => [1usize, 7, 14].map(|b| b % window.n_bins.max(1)),
    };
    let mut report = ServeReport {
        source_lines: counts.next_seq,
        records: counts.records,
        malformed: counts.malformed,
        duplicates: counts.duplicates,
        conflicts: counts.conflicts,
        sessions: analysis.sessions,
        active_towers: analysis.active_towers,
        vector_towers: 0,
        dropped_towers: 0,
        bins: line_bins.to_vec(),
        whole_weeks,
        line_amplitudes: Vec::new(),
        patterns: None,
        pattern_note: None,
        basis_classes: None,
    };
    match analysis.identified(window) {
        None => report.pattern_note = Some("no records".to_string()),
        Some((vect, patterns)) => {
            report.vector_towers = vect.normalized.vectors.len();
            report.dropped_towers = vect.normalized.dropped.len();
            if !vect.normalized.kept_ids.is_empty() {
                report.line_amplitudes =
                    line_amplitudes(&vect.raw, &vect.normalized.kept_ids, line_bins)
                        .map_err(|e| ServeError::Analysis(e.to_string()))?;
            }
            match patterns {
                Ok(p) => report.patterns = Some((p.k, p.clustering.sizes())),
                Err(CoreError::NotEnoughData { what, needed, got }) => {
                    report.pattern_note = Some(format!(
                        "not enough data: {what} (need {needed}, got {got})"
                    ));
                }
                Err(e) => report.pattern_note = Some(e.to_string()),
            }
        }
    }
    if let Some(b) = basis {
        report.basis_classes = Some((b.fingerprint, analysis.classes(b)?));
    }
    Ok(report)
}

/// Mean amplitude of each principal line over the kept towers' raw
/// traffic (batch Goertzel over the vectorizer's binned traffic):
/// one three-bin pass per tower, each line bit-identical to its own
/// `goertzel` call and any error the first a per-bin loop over the
/// towers would meet. Three evaluations are counted per tower, once.
fn line_amplitudes(
    raw: &[Vec<f64>],
    kept_ids: &[usize],
    bins: [usize; 3],
) -> Result<Vec<f64>, DspError> {
    let mut sums = [0.0f64; 3];
    let mut tally = 0;
    let passes = kept_ids.iter().try_for_each(|&id| {
        let lines = goertzel_bins_sharded(&raw[id], bins, &mut tally)?;
        for (sum, line) in sums.iter_mut().zip(lines) {
            *sum += line.abs();
        }
        Ok(())
    });
    record_evaluations(tally);
    passes?;
    let n = kept_ids.len() as f64;
    Ok(sums.iter().map(|s| s / n).collect())
}

/// The equivalence oracle: parses the *entire* source as one batch,
/// cleans it with the batch cleaner, and renders the report the
/// daemon's drain renders, through the same analysis. A recorded
/// stream replayed through `serve` — with any kill/restart schedule —
/// must render byte-identically to this.
///
/// # Errors
/// Any [`ServeError`].
pub fn batch_reference(config: &ServeConfig) -> Result<ServeReport, ServeError> {
    config.validate()?;
    let window = config.window();
    let basis = config.frozen_basis()?;
    let mut lines = SourceLines::open(&config.source)?;
    let mut counts = Counts::default();
    let mut records = Vec::new();
    while let Some(line) = lines.next_line()? {
        if line.is_empty() {
            continue;
        }
        let seq = counts.next_seq;
        counts.next_seq += 1;
        match LogRecord::parse_line(&line, seq as usize + 1) {
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
    let analysis = Analysis::of_records(&kept, &window)?;
    report(&counts, &analysis, &window, basis.as_ref())
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
    fn line_amplitudes_match_a_per_bin_loop_errors_included() {
        // The per-bin loop the drain report ran before its one pass per
        // tower: the same means bit for bit, and the same first error.
        let per_bin = |raw: &[Vec<f64>], kept: &[usize], bins: [usize; 3]| {
            let mut sums = [0.0f64; 3];
            for &id in kept {
                for (sum, &bin) in sums.iter_mut().zip(&bins) {
                    *sum += towerlens_dsp::goertzel::goertzel(&raw[id], bin)?.abs();
                }
            }
            let n = kept.len() as f64;
            Ok::<_, DspError>(sums.iter().map(|s| s / n).collect::<Vec<f64>>())
        };
        let raw: Vec<Vec<f64>> = (0..5)
            .map(|t| {
                (0..1_008)
                    .map(|i| ((i * (t + 3)) as f64 * 0.013).sin() * (t + 1) as f64 + 4.0)
                    .collect()
            })
            .collect();
        let kept = [0, 2, 3, 4];
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let (got, want) = (
            line_amplitudes(&raw, &kept, [1, 7, 14]).unwrap(),
            per_bin(&raw, &kept, [1, 7, 14]).unwrap(),
        );
        assert_eq!(bits(got), bits(want));
        // The first kept tower holds a NaN, and every tower is shorter
        // than bin 2,000: where the first bin is in range the per-bin
        // loop fails on the NaN, not on the later bin.
        let mut bad = raw.clone();
        bad[2][500] = f64::NAN;
        let kept = [2, 0, 3, 4];
        for bins in [[1, 2_000, 14], [2_000, 7, 14], [1, 7, 14]] {
            assert_eq!(
                line_amplitudes(&bad, &kept, bins).unwrap_err(),
                per_bin(&bad, &kept, bins).unwrap_err(),
                "{bins:?}"
            );
        }
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
