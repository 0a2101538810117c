//! Durable daemon state, its snapshot codec, and the per-tower
//! session store the shards apply records to.
//!
//! The determinism contract of the daemon rests on one rule: **every
//! byte the daemon prints to stdout is a pure function of the durable
//! state**, and the durable state is a pure function of the
//! acknowledged record stream. Durable state is deliberately minimal —
//! per-tower *sessions* (the cleaned connection logs) plus a handful
//! of integer counters — and it is all a shard holds. Every
//! derived number (binned traffic, z-scored vectors, spectral lines,
//! patterns, basis classes) comes from one batch analysis of that
//! state, never from a floating-point copy amended record by record,
//! so a kill-and-resume run cannot diverge by a single bit from an
//! uninterrupted one.
//!
//! Session semantics mirror [`towerlens_trace::clean::clean_records`]
//! exactly: byte-identical duplicates are dropped, conflicting entries
//! (same `(user, cell, start, end)`, different bytes) keep the larger
//! byte count *in place*. Each tower's sessions are therefore in the
//! order in which the batch cleaner's output visits that tower, which
//! is what lets the analysis vectorize the state tower by tower and
//! match the batch pipeline by construction.

use std::collections::HashMap;

use towerlens_artifact::{ArtifactError, Dec, Enc};
use towerlens_core::engine::StageCodec;
use towerlens_trace::record::LogRecord;

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
        // Six counts, two fields per tower and four per session, 8 bytes
        // each: the body's exact size, reserved before any write.
        let fields = 6 + 2 * snap.towers.len() + 4 * snap.kept() as usize;
        out.reserve(8 * fields);
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
                for field in [s.user_id, s.start_s, s.end_s, s.bytes] {
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
            let n_sessions = d.count(32)?;
            let mut sessions = Vec::with_capacity(n_sessions);
            for _ in 0..n_sessions {
                sessions.push(Session {
                    user_id: d.u64()?,
                    start_s: d.u64()?,
                    end_s: d.u64()?,
                    bytes: d.u64()?,
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

/// One tower's sessions in first-seen order, with the key index that
/// finds a session by `(user, start, end)`.
#[derive(Debug, Clone, Default)]
pub struct TowerState {
    sessions: Vec<Session>,
    index: HashMap<(u64, u64, u64), usize>,
}

impl TowerState {
    /// Rebuilds a tower from snapshot sessions.
    pub fn from_sessions(sessions: Vec<Session>) -> Self {
        let index = sessions
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.user_id, s.start_s, s.end_s), i))
            .collect();
        TowerState { sessions, index }
    }

    /// The tower's sessions, in first-seen order.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Applies one acknowledged record under the batch cleaner's
    /// semantics.
    pub fn apply(&mut self, r: &LogRecord) -> ApplyOutcome {
        let key = (r.user_id, r.start_s, r.end_s);
        match self.index.entry(key) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(self.sessions.len());
                self.sessions.push(Session {
                    user_id: r.user_id,
                    start_s: r.start_s,
                    end_s: r.end_s,
                    bytes: r.bytes,
                });
                ApplyOutcome::New
            }
            std::collections::hash_map::Entry::Occupied(o) => {
                let idx = *o.get();
                let existing = &mut self.sessions[idx];
                if existing.bytes == r.bytes {
                    ApplyOutcome::Duplicate
                } else {
                    existing.bytes = existing.bytes.max(r.bytes);
                    ApplyOutcome::Conflict
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use towerlens_trace::clean::clean_records;
    use towerlens_trace::time::TraceWindow;

    fn rec(user: u64, start: u64, bytes: u64) -> LogRecord {
        let w = TraceWindow::days(1);
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
        let records = vec![
            rec(1, 0, 100),
            rec(1, 0, 100), // duplicate
            rec(1, 0, 250), // conflict, larger wins
            rec(2, 600, 50),
            rec(1, 0, 10), // conflict, smaller loses
        ];
        let mut tower = TowerState::default();
        let mut dup = 0;
        let mut conf = 0;
        for r in &records {
            match tower.apply(r) {
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

    /// A tower restored from its sessions, as recovery restores a
    /// snapshot, applies the rest of a stream exactly as the tower that
    /// never stopped: same outcomes, same sessions.
    #[test]
    fn restored_tower_applies_like_the_live_one() {
        let records = [
            rec(1, 0, 100),
            rec(2, 1200, 40),
            rec(1, 0, 300),   // conflict
            rec(2, 1200, 40), // duplicate
            rec(1, 0, 200),   // conflict, smaller loses
            rec(3, 600, 7),
        ];
        let mut live = TowerState::default();
        for r in &records[..3] {
            live.apply(r);
        }
        let mut restored = TowerState::from_sessions(live.sessions().to_vec());
        for r in &records[3..] {
            assert_eq!(live.apply(r), restored.apply(r));
        }
        assert_eq!(live.sessions(), restored.sessions());
        assert_eq!(live.sessions().len(), 3);
        assert_eq!(live.sessions()[0].bytes, 300);
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
                        },
                        Session {
                            user_id: 2,
                            start_s: 0,
                            end_s: 1200,
                            bytes: 2,
                        },
                    ],
                ),
            ],
        };
        let mut body = Enc::default();
        SnapshotCodec.encode(&snap, &mut body).unwrap();
        let bytes = body.into_bytes();
        // The size `encode` reserves: six counts, two fields per tower
        // and four per session.
        assert_eq!(bytes.len(), 8 * (6 + 2 * 2 + 4 * 3));
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
