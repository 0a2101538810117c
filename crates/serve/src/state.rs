//! Durable daemon state and its snapshot codec, plus the live
//! per-tower view.
//!
//! The determinism contract of the daemon rests on one rule: **every
//! byte the daemon prints to stdout is a pure function of the durable
//! state**, and the durable state is a pure function of the
//! acknowledged record stream. Durable state is deliberately minimal —
//! per-tower *sessions* (the cleaned connection logs, each carrying
//! the sequence number under which its key was first seen) plus a
//! handful of integer counters. Everything floating-point (binned
//! traffic, Goertzel lines, z-score moments) is a live *view* rebuilt
//! exactly from the sessions, never persisted, and never printed to
//! stdout — so a kill-and-resume run cannot diverge by a single bit
//! from an uninterrupted one.
//!
//! Session semantics mirror [`towerlens_trace::clean::clean_records`]
//! exactly: byte-identical duplicates are dropped, conflicting entries
//! (same `(user, cell, start, end)`, different bytes) keep the larger
//! byte count *in place*. Sorting all sessions by `first_seq` at drain
//! therefore reconstructs the batch cleaner's output order, which is
//! what lets the drain call the real batch pipeline and match it by
//! construction.

use std::collections::HashMap;

use towerlens_artifact::{ArtifactError, Dec, Enc};
use towerlens_core::engine::StageCodec;
use towerlens_dsp::SlidingGoertzel;
use towerlens_trace::record::LogRecord;
use towerlens_trace::time::TraceWindow;

/// The snapshot's stage name inside the checkpoint store.
pub const SNAPSHOT_STAGE: &str = "serve-state";

/// One cleaned connection session of a tower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// Anonymised subscriber id.
    pub user_id: u64,
    /// Session start (seconds since trace epoch).
    pub start_s: u64,
    /// Session end (seconds since trace epoch).
    pub end_s: u64,
    /// Bytes transferred (conflicts resolved to the maximum).
    pub bytes: u64,
    /// The global sequence number under which this session key was
    /// first acknowledged — the key's rank in the cleaner's
    /// first-seen output order.
    pub first_seq: u64,
}

/// The durable state: what a snapshot persists and a restart resumes
/// from. Towers are kept in ascending cell id; sessions per tower in
/// first-seen (insertion) order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeSnapshot {
    /// Next sequence number to assign (= source lines acknowledged).
    pub next_seq: u64,
    /// Well-formed records acknowledged.
    pub records: u64,
    /// Malformed source lines acknowledged.
    pub malformed: u64,
    /// Byte-identical duplicates dropped.
    pub duplicates: u64,
    /// Conflicting entries resolved (larger byte count kept).
    pub conflicts: u64,
    /// Sessions per tower, ascending cell id.
    pub towers: Vec<(u32, Vec<Session>)>,
}

impl ServeSnapshot {
    /// Total sessions across all towers.
    pub fn kept(&self) -> u64 {
        self.towers.iter().map(|(_, s)| s.len() as u64).sum()
    }
}

/// Codec for [`ServeSnapshot`], the `body` of the checkpoint store's
/// `serve-state` file. Everything is integer, so the round trip is
/// trivially exact.
pub struct SnapshotCodec;

impl StageCodec<ServeSnapshot> for SnapshotCodec {
    fn encode(&self, snap: &ServeSnapshot, out: &mut Enc) -> Result<(), String> {
        for count in [
            snap.next_seq,
            snap.records,
            snap.malformed,
            snap.duplicates,
            snap.conflicts,
        ] {
            out.u64(count);
        }
        out.usize(snap.towers.len());
        for (cell, sessions) in &snap.towers {
            out.u64(u64::from(*cell));
            out.usize(sessions.len());
            for s in sessions {
                for field in [s.user_id, s.start_s, s.end_s, s.bytes, s.first_seq] {
                    out.u64(field);
                }
            }
        }
        Ok(())
    }

    fn decode(&self, d: &mut Dec<'_>) -> Result<ServeSnapshot, ArtifactError> {
        let mut snap = ServeSnapshot {
            next_seq: d.u64()?,
            records: d.u64()?,
            malformed: d.u64()?,
            duplicates: d.u64()?,
            conflicts: d.u64()?,
            towers: Vec::new(),
        };
        let n_towers = d.count(16)?;
        snap.towers.reserve(n_towers);
        for _ in 0..n_towers {
            let cell = d.u64()?;
            let cell = u32::try_from(cell).map_err(|_| d.corrupt(format!("cell id {cell}")))?;
            let n_sessions = d.count(40)?;
            let mut sessions = Vec::with_capacity(n_sessions);
            for _ in 0..n_sessions {
                sessions.push(Session {
                    user_id: d.u64()?,
                    start_s: d.u64()?,
                    end_s: d.u64()?,
                    bytes: d.u64()?,
                    first_seq: d.u64()?,
                });
            }
            snap.towers.push((cell, sessions));
        }
        Ok(snap)
    }
}

/// What applying one record to a tower did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// A new session key: stored and aggregated.
    New,
    /// A byte-identical duplicate: dropped.
    Duplicate,
    /// Same key, different bytes: the larger count kept in place.
    Conflict,
}

/// One tower's live state: the durable sessions plus the derived
/// views — binned traffic (the sliding-Goertzel bank's window),
/// incrementally maintained principal spectral lines, and the running
/// z-score moments. The views are amended in place on the hot path
/// and rebuilt *exactly* from the sessions whenever a conflict
/// rewrites history, so they are always a pure function of the
/// sessions.
#[derive(Debug, Clone)]
pub struct TowerState {
    sessions: Vec<Session>,
    index: HashMap<(u64, u64, u64), usize>,
    bank: SlidingGoertzel,
    sum: f64,
    sumsq: f64,
}

impl TowerState {
    /// An empty tower over `window`, maintaining the spectral lines
    /// `gbins` (every index already reduced modulo the window length).
    pub fn new(window: &TraceWindow, gbins: &[usize]) -> Self {
        let bank = SlidingGoertzel::new(vec![0.0; window.n_bins], gbins)
            .expect("serve config validated: non-empty window, bins in range");
        TowerState {
            sessions: Vec::new(),
            index: HashMap::new(),
            bank,
            sum: 0.0,
            sumsq: 0.0,
        }
    }

    /// Rebuilds a tower from snapshot sessions (exactly the conflict
    /// rebuild, so restart state matches in-run state).
    pub fn from_sessions(sessions: Vec<Session>, window: &TraceWindow, gbins: &[usize]) -> Self {
        let mut tower = TowerState::new(window, gbins);
        tower.index = sessions
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.user_id, s.start_s, s.end_s), i))
            .collect();
        tower.sessions = sessions;
        tower.rebuild(window);
        tower
    }

    /// The tower's sessions, in first-seen order.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Consumes the tower, returning its sessions.
    pub fn into_sessions(self) -> Vec<Session> {
        self.sessions
    }

    /// The live binned traffic view (bytes per window bin).
    pub fn traffic(&self) -> &[f64] {
        self.bank.window()
    }

    /// Live amplitudes of the maintained principal spectral lines.
    pub fn line_amplitudes(&self) -> Vec<f64> {
        (0..self.bank.bins().len())
            .map(|i| self.bank.amplitude(i))
            .collect()
    }

    /// Live z-score moments of the binned traffic: `(mean, stddev)`
    /// (population standard deviation, matching the batch
    /// normaliser's convention).
    pub fn zscore_moments(&self) -> (f64, f64) {
        let n = self.bank.len() as f64;
        let mean = self.sum / n;
        let var = (self.sumsq / n - mean * mean).max(0.0);
        (mean, var.sqrt())
    }

    /// Applies one acknowledged record under the batch cleaner's
    /// semantics. `seq` is the record's global sequence number; it is
    /// recorded only for a new session key.
    pub fn apply(&mut self, r: &LogRecord, seq: u64, window: &TraceWindow) -> ApplyOutcome {
        let key = (r.user_id, r.start_s, r.end_s);
        match self.index.entry(key) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(self.sessions.len());
                self.sessions.push(Session {
                    user_id: r.user_id,
                    start_s: r.start_s,
                    end_s: r.end_s,
                    bytes: r.bytes,
                    first_seq: seq,
                });
                self.add_interval(r.start_s, r.end_s, r.bytes, window);
                ApplyOutcome::New
            }
            std::collections::hash_map::Entry::Occupied(o) => {
                let idx = *o.get();
                let existing = &mut self.sessions[idx];
                if existing.bytes == r.bytes {
                    ApplyOutcome::Duplicate
                } else {
                    if r.bytes > existing.bytes {
                        existing.bytes = r.bytes;
                        // History was rewritten: amendments alone
                        // cannot express a replacement exactly in
                        // floating point, so rebuild the whole view
                        // from the sessions — live state stays a pure
                        // function of the durable state.
                        self.rebuild(window);
                    }
                    ApplyOutcome::Conflict
                }
            }
        }
    }

    /// Adds one session interval to the live views: bins via the
    /// vectorizer's overlap rule, each touched bin amending the
    /// Goertzel bank in place and the z-score moments incrementally.
    fn add_interval(&mut self, start_s: u64, end_s: u64, bytes: u64, window: &TraceWindow) {
        let mut touched: Vec<(usize, f64)> = Vec::new();
        window.for_each_overlap(start_s, end_s, |bin, frac| {
            touched.push((bin, bytes as f64 * frac));
        });
        for (bin, delta) in touched {
            let old = self.bank.window()[bin];
            self.bank
                .update(bin, delta)
                .expect("overlap bins are within the window");
            let new = old + delta;
            self.sum += delta;
            self.sumsq += new * new - old * old;
        }
    }

    /// Recomputes every live view exactly from the sessions.
    fn rebuild(&mut self, window: &TraceWindow) {
        let gbins = self.bank.bins().to_vec();
        let mut raw = vec![0.0; window.n_bins];
        for s in &self.sessions {
            window.for_each_overlap(s.start_s, s.end_s, |bin, frac| {
                raw[bin] += s.bytes as f64 * frac;
            });
        }
        self.sum = raw.iter().sum();
        self.sumsq = raw.iter().map(|v| v * v).sum();
        self.bank = SlidingGoertzel::new(raw, &gbins)
            .expect("rebuild reuses the validated window and bins");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use towerlens_trace::clean::clean_records;

    fn window() -> TraceWindow {
        TraceWindow::days(1)
    }

    fn rec(user: u64, start: u64, bytes: u64) -> LogRecord {
        let w = window();
        LogRecord {
            user_id: user,
            start_s: w.start_s + start,
            end_s: w.start_s + start + 600,
            cell_id: 0,
            address: String::new(),
            bytes,
        }
    }

    #[test]
    fn apply_mirrors_the_batch_cleaner() {
        let w = window();
        let records = vec![
            rec(1, 0, 100),
            rec(1, 0, 100), // duplicate
            rec(1, 0, 250), // conflict, larger wins
            rec(2, 600, 50),
            rec(1, 0, 10), // conflict, smaller loses
        ];
        let mut tower = TowerState::new(&w, &[1, 7, 14]);
        let mut dup = 0;
        let mut conf = 0;
        for (seq, r) in records.iter().enumerate() {
            match tower.apply(r, seq as u64, &w) {
                ApplyOutcome::New => {}
                ApplyOutcome::Duplicate => dup += 1,
                ApplyOutcome::Conflict => conf += 1,
            }
        }
        let (batch, report) = clean_records(&records);
        assert_eq!(dup, report.duplicates_removed);
        assert_eq!(conf, report.conflicts_resolved);
        assert_eq!(tower.sessions().len(), batch.len());
        for (s, b) in tower.sessions().iter().zip(&batch) {
            assert_eq!(
                (s.user_id, s.start_s, s.end_s, s.bytes),
                (b.user_id, b.start_s, b.end_s, b.bytes)
            );
        }
    }

    #[test]
    fn views_are_a_pure_function_of_sessions() {
        let w = window();
        let mut live = TowerState::new(&w, &[1, 7, 14]);
        for (seq, r) in [rec(1, 0, 100), rec(2, 1200, 40), rec(1, 0, 300)]
            .iter()
            .enumerate()
        {
            live.apply(r, seq as u64, &w);
        }
        let rebuilt = TowerState::from_sessions(live.sessions().to_vec(), &w, &[1, 7, 14]);
        // The conflict forced a rebuild, so live state IS the pure
        // rebuild — bit-identical, not merely close.
        assert_eq!(live.traffic(), rebuilt.traffic());
        assert_eq!(live.line_amplitudes(), rebuilt.line_amplitudes());
        assert_eq!(live.zscore_moments(), rebuilt.zscore_moments());
    }

    #[test]
    fn snapshot_codec_roundtrips_exactly() {
        let snap = ServeSnapshot {
            next_seq: 42,
            records: 40,
            malformed: 2,
            duplicates: 3,
            conflicts: 1,
            towers: vec![
                (
                    0,
                    vec![Session {
                        user_id: 7,
                        start_s: 100,
                        end_s: 700,
                        bytes: 999,
                        first_seq: 0,
                    }],
                ),
                (
                    5,
                    vec![
                        Session {
                            user_id: 1,
                            start_s: 0,
                            end_s: 600,
                            bytes: 1,
                            first_seq: 3,
                        },
                        Session {
                            user_id: 2,
                            start_s: 0,
                            end_s: 1200,
                            bytes: 2,
                            first_seq: 9,
                        },
                    ],
                ),
            ],
        };
        let mut body = Enc::default();
        SnapshotCodec.encode(&snap, &mut body).unwrap();
        let bytes = body.into_bytes();
        let mut d = Dec::new(&bytes, "body");
        assert_eq!(SnapshotCodec.decode(&mut d).unwrap(), snap);
        d.finish().unwrap();
        // Every proper prefix is short of its own layout.
        for cut in 0..bytes.len() {
            assert!(SnapshotCodec
                .decode(&mut Dec::new(&bytes[..cut], "body"))
                .is_err());
        }
    }

    #[test]
    fn codec_rejects_garbage() {
        let mut body = Enc::default();
        for v in [1, 2, 3, 4, 5, 1, u64::from(u32::MAX) + 1, 0] {
            body.u64(v);
        }
        let bytes = body.into_bytes();
        assert!(SnapshotCodec.decode(&mut Dec::new(&bytes, "body")).is_err());
        let huge = [0xffu8; 48];
        assert!(SnapshotCodec.decode(&mut Dec::new(&huge, "body")).is_err());
    }
}
