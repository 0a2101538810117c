//! The segment-based write-ahead log.
//!
//! Every non-empty source line is assigned a monotonically increasing
//! sequence number and appended to the current segment *before* it is
//! acknowledged (counted, dispatched to a shard). A crash therefore
//! loses at most lines that were never acknowledged, and those are
//! re-read from the source on restart under the same sequence numbers
//! — zero-loss, no double-count.
//!
//! On-disk layout (`<data>/wal/seg-00000000.wal`, one file per
//! segment):
//!
//! ```text
//! towerlens-wal v1 segment <index>
//! r <seq> <checksum16> <raw source line>     (per record)
//! seal <n_records> <checksum16>              (sealed segments only)
//! ```
//!
//! The per-entry checksum is FNV-1a over `"<seq>\t<line>"`, so a
//! flipped byte in either field is caught. The seal checksum chains
//! every entry checksum in the segment, so a sealed segment vouches
//! for its whole body. A writer **never appends to a pre-existing
//! segment**: each process run opens `max(existing) + 1`, lazily on
//! first append, which keeps the "sealed segments are immutable"
//! invariant trivial.
//!
//! Replay tolerates exactly one kind of damage: a torn *final* line of
//! an *unsealed* segment — the write that was interrupted mid-flight
//! and never acknowledged. Damage anywhere else means acknowledged
//! data was lost and replay fails loudly, as does any gap in the
//! sequence numbering.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use towerlens_artifact::{fnv1a64, replace_durably};

use crate::error::{io_err, ServeError};

/// Magic prefix of every segment header.
pub const WAL_MAGIC: &str = "towerlens-wal v1 segment";

/// The WAL subdirectory under a serve data directory.
pub const WAL_DIR: &str = "wal";

/// The segment file of `index` under `wal_dir`.
pub fn segment_path(wal_dir: &Path, index: u64) -> PathBuf {
    wal_dir.join(format!("seg-{index:08}.wal"))
}

/// FNV-1a checksum of one WAL entry (`"<seq>\t<line>"`).
pub fn entry_checksum(seq: u64, line: &str) -> u64 {
    fnv1a64(format!("{seq}\t{line}").as_bytes())
}

/// Lists segment indices present in `wal_dir`, ascending. A missing
/// directory is an empty WAL.
fn segment_indices(wal_dir: &Path) -> Result<Vec<u64>, ServeError> {
    let entries = match std::fs::read_dir(wal_dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(wal_dir, e)),
    };
    let mut indices = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| io_err(wal_dir, e))?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(idx) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".wal"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            indices.push(idx);
        }
    }
    indices.sort_unstable();
    Ok(indices)
}

/// True when a body line is a well-formed entry or seal on its own:
/// an `r` entry whose checksum verifies, or a structurally complete
/// seal footer. Anything else on a segment's final line is the torn
/// remnant of a crash-interrupted write. (A seal's hash is *not*
/// verified here — a complete seal with a wrong hash is corruption,
/// which repair must leave for replay to report.)
fn line_is_wellformed(raw: &str) -> bool {
    if let Some(rest) = raw.strip_prefix("r ") {
        let mut parts = rest.splitn(3, ' ');
        let parsed = (|| {
            let seq = parts.next()?.parse::<u64>().ok()?;
            let checksum = u64::from_str_radix(parts.next()?, 16).ok()?;
            let line = parts.next()?;
            Some(entry_checksum(seq, line) == checksum)
        })();
        return parsed.unwrap_or(false);
    }
    if let Some(rest) = raw.strip_prefix("seal ") {
        let mut fields = rest.split(' ');
        let declared = fields.next().and_then(|s| s.parse::<u64>().ok());
        let hash = fields.next().and_then(|s| u64::from_str_radix(s, 16).ok());
        return matches!((declared, hash, fields.next()), (Some(_), Some(_), None));
    }
    false
}

/// Truncates the torn final write of segment `index`, if there is
/// one: a trailing line that is neither a checksum-valid entry nor a
/// complete seal footer is dropped (it was never acknowledged), and a
/// file torn before its header ever landed is removed outright so the
/// index is reused. Damage this cannot explain — a bad line that is
/// not the final one, a seal-hash mismatch — is left untouched for
/// replay to report. The rewrite goes through [`replace_durably`]
/// (failpoints `wal.repair.tmp` / `wal.repair`).
fn repair_torn_tail(wal_dir: &Path, index: u64) -> Result<(), ServeError> {
    let path = segment_path(wal_dir, index);
    let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
    let lines: Vec<&str> = text.split('\n').collect();
    let lines: &[&str] = match lines.split_last() {
        Some((&"", rest)) => rest,
        _ => &lines,
    };
    let header_ok = lines
        .first()
        .is_some_and(|h| *h == format!("{WAL_MAGIC} {index}"));
    if !header_ok {
        // A torn header can only be the crash-interrupted first
        // write; with any body present this is real corruption.
        if lines.len() <= 1 {
            std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
        }
        return Ok(());
    }
    let torn = lines.len() > 1 && !line_is_wellformed(lines[lines.len() - 1]);
    if !torn {
        return Ok(());
    }
    let mut kept = lines[..lines.len() - 1].join("\n");
    kept.push('\n');
    replace_durably(
        &path,
        kept.as_bytes(),
        "wal.repair",
        towerlens_obs::failpoints(),
        io_err,
    )
}

/// The appending side of the WAL.
///
/// Writes are buffered; [`WalWriter::sync`] flushes and fsyncs, and
/// only synced entries count as acknowledged. The segment file (and
/// its header) is created lazily on the first append, so a run that
/// ingests nothing leaves no empty segment behind.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    segment_index: u64,
    file: Option<BufWriter<std::fs::File>>,
    entries_in_segment: u64,
    /// Chained entry checksums, the seal hash input.
    seal_input: String,
}

impl WalWriter {
    /// Opens a writer over `wal_dir` (created if needed), positioned
    /// at a fresh segment after every segment already on disk.
    ///
    /// # Errors
    /// [`ServeError::Io`] on directory failures.
    pub fn open(wal_dir: &Path) -> Result<Self, ServeError> {
        std::fs::create_dir_all(wal_dir).map_err(|e| io_err(wal_dir, e))?;
        let indices = segment_indices(wal_dir)?;
        // Replay tolerates a torn final write only while its segment
        // is the *last* one. This writer is about to start a newer
        // segment, so the tear must be repaired now — truncating it is
        // safe by the ack contract (a torn line was never
        // acknowledged), and leaving it would make every later replay
        // reject the directory.
        if let Some(&last) = indices.last() {
            repair_torn_tail(wal_dir, last)?;
        }
        let next = segment_indices(wal_dir)?
            .last()
            .map(|&i| i + 1)
            .unwrap_or(0);
        Ok(WalWriter {
            dir: wal_dir.to_path_buf(),
            segment_index: next,
            file: None,
            entries_in_segment: 0,
            seal_input: String::new(),
        })
    }

    /// The index of the segment currently being written (or about to
    /// be created).
    pub fn segment_index(&self) -> u64 {
        self.segment_index
    }

    /// Entries appended to the current segment so far.
    pub fn entries_in_segment(&self) -> u64 {
        self.entries_in_segment
    }

    /// Appends one entry (buffered — not yet durable; see
    /// [`WalWriter::sync`]).
    ///
    /// # Errors
    /// [`ServeError::Io`] on write failure.
    pub fn append(&mut self, seq: u64, line: &str) -> Result<(), ServeError> {
        let path = segment_path(&self.dir, self.segment_index);
        if self.file.is_none() {
            let f = std::fs::File::create(&path).map_err(|e| io_err(&path, e))?;
            let mut w = BufWriter::new(f);
            writeln!(w, "{WAL_MAGIC} {}", self.segment_index).map_err(|e| io_err(&path, e))?;
            self.file = Some(w);
        }
        let checksum = entry_checksum(seq, line);
        let w = self.file.as_mut().expect("file opened above");
        writeln!(w, "r {seq} {checksum:016x} {line}").map_err(|e| io_err(&path, e))?;
        self.entries_in_segment += 1;
        self.seal_input.push_str(&format!("{checksum:016x}\n"));
        Ok(())
    }

    /// Flushes and fsyncs the current segment. Entries are
    /// acknowledged only after this returns.
    ///
    /// # Errors
    /// [`ServeError::Io`] on flush/fsync failure.
    pub fn sync(&mut self) -> Result<(), ServeError> {
        let path = segment_path(&self.dir, self.segment_index);
        if let Some(w) = self.file.as_mut() {
            w.flush().map_err(|e| io_err(&path, e))?;
            w.get_ref().sync_all().map_err(|e| io_err(&path, e))?;
        }
        Ok(())
    }

    /// Seals the current segment (writes the footer, fsyncs, closes)
    /// and advances to the next segment index. A no-op segment (zero
    /// entries, no file) is skipped without consuming an index.
    /// Returns `true` when a segment was actually sealed, after
    /// hitting the `wal.seal` failpoint.
    ///
    /// # Errors
    /// [`ServeError::Io`] on write/fsync failure.
    pub fn rotate(&mut self) -> Result<bool, ServeError> {
        let Some(mut w) = self.file.take() else {
            return Ok(false);
        };
        let path = segment_path(&self.dir, self.segment_index);
        let hash = fnv1a64(self.seal_input.as_bytes());
        writeln!(w, "seal {} {hash:016x}", self.entries_in_segment)
            .map_err(|e| io_err(&path, e))?;
        w.flush().map_err(|e| io_err(&path, e))?;
        w.get_ref().sync_all().map_err(|e| io_err(&path, e))?;
        drop(w);
        // Persist the new file's directory entry, best-effort (as the
        // checkpoint store does).
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.segment_index += 1;
        self.entries_in_segment = 0;
        self.seal_input.clear();
        towerlens_obs::failpoints()
            .hit(&["wal", "seal"])
            .map_err(|fired| io_err(&path, std::io::Error::other(fired)))?;
        Ok(true)
    }
}

/// One replayed WAL entry: the sequence number and the raw source
/// line it acknowledged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// The entry's global sequence number.
    pub seq: u64,
    /// The raw source line, verbatim.
    pub line: String,
}

/// What a full WAL replay recovered.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// All valid entries, in sequence order.
    pub entries: Vec<WalEntry>,
    /// The next sequence number to assign (= entries recovered).
    pub next_seq: u64,
    /// Sealed segments on disk.
    pub sealed_segments: u64,
    /// Torn final lines tolerated (unacknowledged writes dropped).
    pub torn_tails: u64,
}

/// What one segment scan found (shared by replay and fsck).
#[derive(Debug, Clone)]
struct SegmentScan {
    entries: Vec<WalEntry>,
    sealed: bool,
    torn: bool,
    /// First structural problem, as `(1-based line, reason)`.
    error: Option<(usize, String)>,
}

/// Scans one segment's text. `expected_seq` is the sequence number the
/// first entry must carry; `is_last` permits a torn final line.
fn scan_segment(text: &str, index: u64, mut expected_seq: u64, is_last: bool) -> SegmentScan {
    let mut scan = SegmentScan {
        entries: Vec::new(),
        sealed: false,
        torn: false,
        error: None,
    };
    let lines: Vec<&str> = text.split('\n').collect();
    // A trailing newline yields one empty final element; real content
    // never contains empty lines, so strip exactly that artifact.
    let lines: &[&str] = match lines.split_last() {
        Some((&"", rest)) => rest,
        _ => &lines,
    };
    let fail = |line_no: usize, reason: String, scan: &mut SegmentScan| {
        scan.error = Some((line_no, reason));
    };
    let Some((header, body)) = lines.split_first() else {
        // Zero-byte file: a crash between create and the header write.
        scan.torn = is_last;
        if !is_last {
            fail(1, "empty segment file".to_string(), &mut scan);
        }
        return scan;
    };
    let expected_header = format!("{WAL_MAGIC} {index}");
    if *header != expected_header {
        // A torn header can only be the crash-interrupted last file.
        if is_last && body.is_empty() {
            scan.torn = true;
        } else {
            fail(1, format!("bad header `{header}`"), &mut scan);
        }
        return scan;
    }
    let mut seal_input = String::new();
    for (i, raw) in body.iter().enumerate() {
        let line_no = i + 2;
        let at_final_line = i + 1 == body.len();
        if scan.sealed {
            fail(line_no, "content after seal".to_string(), &mut scan);
            return scan;
        }
        if let Some(rest) = raw.strip_prefix("seal ") {
            let mut fields = rest.split(' ');
            let declared = fields.next().and_then(|s| s.parse::<u64>().ok());
            let hash = fields.next().and_then(|s| u64::from_str_radix(s, 16).ok());
            match (declared, hash, fields.next()) {
                (Some(n), Some(h), None) => {
                    if n != scan.entries.len() as u64 {
                        fail(
                            line_no,
                            format!(
                                "seal declares {n} records, segment has {}",
                                scan.entries.len()
                            ),
                            &mut scan,
                        );
                        return scan;
                    }
                    if h != fnv1a64(seal_input.as_bytes()) {
                        fail(line_no, "seal checksum mismatch".to_string(), &mut scan);
                        return scan;
                    }
                    scan.sealed = true;
                    continue;
                }
                _ => {
                    if is_last && at_final_line {
                        scan.torn = true;
                        return scan;
                    }
                    fail(line_no, format!("bad seal line `{raw}`"), &mut scan);
                    return scan;
                }
            }
        }
        // Entry line: `r <seq> <hex16> <raw line>`.
        let parsed = raw.strip_prefix("r ").and_then(|rest| {
            let mut parts = rest.splitn(3, ' ');
            let seq = parts.next()?.parse::<u64>().ok()?;
            let checksum = u64::from_str_radix(parts.next()?, 16).ok()?;
            let line = parts.next()?;
            (entry_checksum(seq, line) == checksum).then(|| (seq, line.to_string()))
        });
        match parsed {
            Some((seq, line)) => {
                if seq != expected_seq {
                    fail(
                        line_no,
                        format!("sequence gap: expected {expected_seq}, found {seq}"),
                        &mut scan,
                    );
                    return scan;
                }
                seal_input.push_str(&format!("{:016x}\n", entry_checksum(seq, &line)));
                scan.entries.push(WalEntry { seq, line });
                expected_seq += 1;
            }
            None => {
                // A damaged entry is tolerable only as the torn final
                // line of the unsealed last segment — the one write a
                // crash can legitimately interrupt.
                if is_last && at_final_line {
                    scan.torn = true;
                    return scan;
                }
                fail(line_no, format!("bad entry `{raw}`"), &mut scan);
                return scan;
            }
        }
    }
    scan
}

/// Replays every segment under `wal_dir` in order, verifying per-entry
/// checksums, seals, and strict sequence contiguity from 0.
///
/// # Errors
/// * [`ServeError::Wal`] for structural damage outside the tolerated
///   torn tail,
/// * [`ServeError::SequenceGap`] for missing segment files,
/// * [`ServeError::Io`] on read failures.
pub fn replay(wal_dir: &Path) -> Result<ReplayOutcome, ServeError> {
    let indices = segment_indices(wal_dir)?;
    let mut out = ReplayOutcome::default();
    for (pos, &index) in indices.iter().enumerate() {
        if index != pos as u64 {
            return Err(ServeError::SequenceGap {
                expected: pos as u64,
                found: index,
                segment: index,
            });
        }
        let path = segment_path(wal_dir, index);
        let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        let is_last = pos + 1 == indices.len();
        let scan = scan_segment(&text, index, out.next_seq, is_last);
        if let Some((line, reason)) = scan.error {
            if reason.starts_with("sequence gap") {
                return Err(ServeError::SequenceGap {
                    expected: out.next_seq + scan.entries.len() as u64,
                    found: 0, // rendered reason carries the real value
                    segment: index,
                }
                .specialise(reason));
            }
            return Err(ServeError::Wal {
                segment: index,
                line,
                reason,
            });
        }
        out.next_seq += scan.entries.len() as u64;
        out.entries.extend(scan.entries);
        out.sealed_segments += u64::from(scan.sealed);
        out.torn_tails += u64::from(scan.torn);
    }
    Ok(out)
}

impl ServeError {
    /// Rebuilds a sequence-gap error from the scan's rendered reason
    /// (`sequence gap: expected E, found F`), preserving the numbers.
    fn specialise(self, reason: String) -> ServeError {
        let ServeError::SequenceGap { segment, .. } = self else {
            return self;
        };
        let nums: Vec<u64> = reason
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .filter_map(|s| s.parse().ok())
            .collect();
        match nums.as_slice() {
            [expected, found] => ServeError::SequenceGap {
                expected: *expected,
                found: *found,
                segment,
            },
            _ => ServeError::Wal {
                segment,
                line: 0,
                reason,
            },
        }
    }
}

/// One segment's health, as reported by [`fsck_wal`].
#[derive(Debug, Clone)]
pub struct WalSegmentFsck {
    /// The segment file's name.
    pub file: String,
    /// The segment index.
    pub segment: u64,
    /// Valid entries found.
    pub entries: u64,
    /// First sequence number in the segment, when any.
    pub first_seq: Option<u64>,
    /// Last sequence number in the segment, when any.
    pub last_seq: Option<u64>,
    /// Whether the segment carries a valid seal footer.
    pub sealed: bool,
    /// Whether a torn (tolerated) final line was found.
    pub torn_tail: bool,
    /// The first structural problem, when the segment is damaged.
    pub error: Option<String>,
}

/// Structurally checks every WAL segment under `wal_dir` without
/// mutating anything: header, per-entry checksums, seal footers, and
/// cross-segment sequence contiguity. One damaged segment never hides
/// the health of the others — this is `doctor`'s WAL table.
///
/// # Errors
/// Only directory-level I/O failures; per-segment damage is a row.
pub fn fsck_wal(wal_dir: &Path) -> Result<Vec<WalSegmentFsck>, ServeError> {
    let indices = segment_indices(wal_dir)?;
    let mut rows = Vec::with_capacity(indices.len());
    let mut expected_seq = 0u64;
    for (pos, &index) in indices.iter().enumerate() {
        let path = segment_path(wal_dir, index);
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let is_last = pos + 1 == indices.len();
        let mut row = WalSegmentFsck {
            file,
            segment: index,
            entries: 0,
            first_seq: None,
            last_seq: None,
            sealed: false,
            torn_tail: false,
            error: None,
        };
        if index != pos as u64 {
            row.error = Some(format!("segment gap: expected index {pos}, found {index}"));
            rows.push(row);
            // Resynchronise so later segments are judged on their own
            // numbering rather than cascading the gap.
            expected_seq = u64::MAX;
            continue;
        }
        match std::fs::read_to_string(&path) {
            Err(e) => row.error = Some(e.to_string()),
            Ok(text) => {
                let start = if expected_seq == u64::MAX {
                    // After a gap, accept whatever the segment starts at.
                    first_entry_seq(&text).unwrap_or(0)
                } else {
                    expected_seq
                };
                let scan = scan_segment(&text, index, start, is_last);
                row.entries = scan.entries.len() as u64;
                row.first_seq = scan.entries.first().map(|e| e.seq);
                row.last_seq = scan.entries.last().map(|e| e.seq);
                row.sealed = scan.sealed;
                row.torn_tail = scan.torn;
                row.error = scan
                    .error
                    .map(|(line, reason)| format!("line {line}: {reason}"));
                if row.error.is_none() {
                    expected_seq = start + scan.entries.len() as u64;
                }
            }
        }
        rows.push(row);
    }
    Ok(rows)
}

/// The sequence number of the first parseable entry, for resyncing
/// fsck after a segment gap.
fn first_entry_seq(text: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        l.strip_prefix("r ")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|s| s.parse().ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("towerlens-wal-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_entries(dir: &Path, lines: &[&str], per_segment: usize) -> WalWriter {
        let mut w = WalWriter::open(dir).unwrap();
        for (seq, line) in lines.iter().enumerate() {
            w.append(seq as u64, line).unwrap();
            if w.entries_in_segment() as usize >= per_segment {
                w.rotate().unwrap();
            }
        }
        w.sync().unwrap();
        w
    }

    #[test]
    fn roundtrip_across_segments() {
        let dir = temp_dir("roundtrip");
        let lines = [
            "1\t0\t600\t0\t10\taddr one",
            "2\t0\t600\t1\t20\taddr two",
            "junk",
        ];
        let mut w = write_entries(&dir, &lines, 2);
        w.rotate().unwrap();
        let out = replay(&dir).unwrap();
        assert_eq!(out.next_seq, 3);
        assert_eq!(out.sealed_segments, 2);
        assert_eq!(out.torn_tails, 0);
        assert_eq!(
            out.entries
                .iter()
                .map(|e| e.line.as_str())
                .collect::<Vec<_>>(),
            lines.to_vec()
        );
        assert_eq!(out.entries[2].seq, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn new_writer_never_appends_to_existing_segments() {
        let dir = temp_dir("fresh-segment");
        let mut w = write_entries(&dir, &["a", "b"], 10);
        w.rotate().unwrap();
        let w2 = WalWriter::open(&dir).unwrap();
        assert_eq!(w2.segment_index(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The torn-tail repair writes `seg-N.wal.tmp` before its rename;
    /// a crash can leave that file behind, and the segment lister must
    /// not mistake it for a segment.
    #[test]
    fn repair_temp_files_are_not_segments() {
        let dir = temp_dir("repair-temp");
        let mut w = write_entries(&dir, &["a", "b"], 10);
        w.rotate().unwrap();
        let stale = towerlens_artifact::temp_path(&segment_path(&dir, 0));
        assert_eq!(stale.file_name().unwrap(), "seg-00000000.wal.tmp");
        std::fs::write(&stale, "towerlens-wal v1 segment 0\nr 0 0000 torn").unwrap();
        assert_eq!(segment_indices(&dir).unwrap(), vec![0]);
        assert_eq!(replay(&dir).unwrap().next_seq, 2);
        assert_eq!(WalWriter::open(&dir).unwrap().segment_index(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_of_unsealed_segment_is_tolerated() {
        let dir = temp_dir("torn");
        write_entries(&dir, &["a", "b"], 10);
        let path = segment_path(&dir, 0);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("r 2 00ff"); // interrupted mid-write
        std::fs::write(&path, text).unwrap();
        let out = replay(&dir).unwrap();
        assert_eq!(out.next_seq, 2);
        assert_eq!(out.torn_tails, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_mid_segment_is_an_error() {
        let dir = temp_dir("flip");
        write_entries(&dir, &["aaaa", "bbbb"], 10);
        let path = segment_path(&dir, 0);
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("aaaa", "aaXa");
        std::fs::write(&path, text).unwrap();
        let err = replay(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Wal {
                    segment: 0,
                    line: 2,
                    ..
                }
            ),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_gap_is_detected() {
        let dir = temp_dir("gap");
        let mut w = WalWriter::open(&dir).unwrap();
        w.append(0, "a").unwrap();
        w.append(2, "c").unwrap(); // seq 1 missing
        w.sync().unwrap();
        let err = replay(&dir).unwrap_err();
        assert_eq!(
            err,
            ServeError::SequenceGap {
                expected: 1,
                found: 2,
                segment: 0
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_segment_file_is_a_gap() {
        let dir = temp_dir("missing-seg");
        let mut w = write_entries(&dir, &["a"], 1);
        w.append(1, "b").unwrap();
        w.rotate().unwrap();
        std::fs::remove_file(segment_path(&dir, 0)).unwrap();
        let err = replay(&dir).unwrap_err();
        assert!(matches!(err, ServeError::SequenceGap { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_vouches_for_its_body() {
        let dir = temp_dir("seal-check");
        let mut w = write_entries(&dir, &["a", "b"], 10);
        w.rotate().unwrap();
        let path = segment_path(&dir, 0);
        // Damage an entry but leave the seal: the seal catches it.
        let text = std::fs::read_to_string(&path).unwrap();
        let damaged = text.replacen("r 0 ", "r 9 ", 1);
        std::fs::write(&path, damaged).unwrap();
        assert!(replay(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_per_segment_without_failing() {
        let dir = temp_dir("fsck");
        let lines = ["a", "b", "c", "d", "e"];
        write_entries(&dir, &lines, 2);
        let rows = fsck_wal(&dir).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].sealed && rows[1].sealed && !rows[2].sealed);
        assert_eq!(rows[0].entries, 2);
        assert_eq!(rows[2].first_seq, Some(4));
        assert!(rows.iter().all(|r| r.error.is_none()));

        // Corrupt the middle segment: its row goes bad, others stay ok.
        let path = segment_path(&dir, 1);
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("r 2", "r 7");
        std::fs::write(&path, text).unwrap();
        let rows = fsck_wal(&dir).unwrap();
        assert!(rows[0].error.is_none());
        assert!(rows[1].error.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_wal_dir_replays_to_nothing() {
        let dir = temp_dir("empty");
        let out = replay(&dir).unwrap();
        assert_eq!(out.next_seq, 0);
        assert!(out.entries.is_empty());
        assert!(fsck_wal(&dir).unwrap().is_empty());
    }
}
