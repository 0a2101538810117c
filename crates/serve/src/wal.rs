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
//! and never acknowledged. A seal footer cut short of its 16 hash
//! digits is such a line: the segment never got its seal. Damage
//! anywhere else means acknowledged data was lost and replay fails
//! loudly, as does any gap in the sequence numbering.
//!
//! One scanner reads the ledger for [`replay`], [`fsck_wal`], the
//! writer's torn-tail repair and the daemon's recovery. It reads each
//! segment once into a reused buffer and walks its lines in place. It
//! computes each entry's checksum once, streaming the sequence number,
//! the tab and the line through [`Fnv1a`], and feeds the seal hash from
//! a running state. It decodes a line as UTF-8 only after its checksum
//! verifies, so a torn final write that splits a multi-byte character
//! is tolerated like any other torn line. Every entry it verifies
//! counts in `serve.wal.entries_verified`.

use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use towerlens_artifact::{replace_durably, Fnv1a};
use towerlens_obs::LazyCounter;

use crate::error::{io_err, ServeError};

static ENTRIES_VERIFIED: LazyCounter = LazyCounter::new("serve.wal.entries_verified");

/// Magic prefix of every segment header.
pub const WAL_MAGIC: &str = "towerlens-wal v1 segment";

/// Hex digits of a seal footer's hash: the writer writes `{hash:016x}`,
/// so a shorter hash is a footer torn by a crash.
const SEAL_HASH_DIGITS: usize = 16;

/// The WAL subdirectory under a serve data directory.
pub const WAL_DIR: &str = "wal";

/// The segment file of `index` under `wal_dir`.
pub fn segment_path(wal_dir: &Path, index: u64) -> PathBuf {
    wal_dir.join(format!("seg-{index:08}.wal"))
}

/// `v` in decimal, as `format!("{v}")` writes it.
fn decimal(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return &buf[at..];
        }
    }
}

/// `v` as 16 lower-case hex digits, as `format!("{v:016x}")` writes it.
fn hex16(v: u64) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (i, digit) in out.iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    out
}

/// Parses a field in `radix`; a field that is not UTF-8 holds no digits.
fn parse_u64(field: &[u8], radix: u32) -> Option<u64> {
    u64::from_str_radix(std::str::from_utf8(field).ok()?, radix).ok()
}

/// The checksum of one entry: FNV-1a over `"<seq>\t<line>"`, with
/// `seq_digits` the sequence number in decimal.
fn entry_checksum(seq_digits: &[u8], line: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.update(seq_digits);
    hash.update(b"\t");
    hash.update(line);
    hash.finish()
}

/// Feeds one entry checksum to a segment's seal hash, whose input is
/// every entry checksum as 16 hex digits and a newline.
fn seal_entry(seal: &mut Fnv1a, checksum: u64) {
    seal.update(&hex16(checksum));
    seal.update(b"\n");
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

/// Reads the whole segment at `path` into `buf`, replacing its
/// contents.
fn read_segment(path: &Path, buf: &mut Vec<u8>) -> std::io::Result<()> {
    buf.clear();
    std::fs::File::open(path)?.read_to_end(buf)?;
    Ok(())
}

/// One line of a segment body.
enum Line<'a> {
    /// `r <seq> <checksum> <line>` whose checksum verifies and whose
    /// line is UTF-8.
    Entry {
        seq: u64,
        checksum: u64,
        line: &'a str,
    },
    /// `seal <n> <hash>`, complete: `hash` has the 16 digits the
    /// writer writes. The walk checks `n` and `hash`.
    Seal { declared: u64, hash: u64 },
    /// A line starting `seal ` that is not a complete footer, such as
    /// one torn inside its hash.
    BadSeal,
    /// Anything else.
    BadEntry,
}

impl<'a> Line<'a> {
    fn parse(raw: &'a [u8]) -> Line<'a> {
        if let Some(rest) = raw.strip_prefix(b"seal ") {
            let mut fields = rest.split(|&b| b == b' ');
            let declared = fields.next().and_then(|f| parse_u64(f, 10));
            let hash = fields
                .next()
                .filter(|f| f.len() == SEAL_HASH_DIGITS)
                .and_then(|f| parse_u64(f, 16));
            return match (declared, hash, fields.next()) {
                (Some(declared), Some(hash), None) => Line::Seal { declared, hash },
                _ => Line::BadSeal,
            };
        }
        Line::entry(raw).unwrap_or(Line::BadEntry)
    }

    fn entry(raw: &'a [u8]) -> Option<Line<'a>> {
        let mut parts = raw.strip_prefix(b"r ")?.splitn(3, |&b| b == b' ');
        let seq = parse_u64(parts.next()?, 10)?;
        let checksum = parse_u64(parts.next()?, 16)?;
        let line = parts.next()?;
        let mut digits = [0u8; 20];
        if entry_checksum(decimal(seq, &mut digits), line) != checksum {
            return None;
        }
        let line = std::str::from_utf8(line).ok()?;
        Some(Line::Entry {
            seq,
            checksum,
            line,
        })
    }
}

/// The lines of a segment with their byte offsets, split at `\n` as
/// `str::split('\n')` splits, less the empty piece after a final
/// newline.
struct Lines<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Lines<'a> {
    /// True once the last line has been taken.
    fn done(&self) -> bool {
        self.at >= self.bytes.len()
    }
}

impl<'a> Iterator for Lines<'a> {
    type Item = (usize, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done() {
            return None;
        }
        let start = self.at;
        let rest = &self.bytes[start..];
        let len = find_newline(rest).unwrap_or(rest.len());
        self.at = start + len + 1;
        Some((start, &rest[..len]))
    }
}

/// The index of the first `\n` in `bytes`, eight bytes at a time: a
/// word's zero bytes after XOR with `\n`s are the newlines, and the
/// borrow trick marks the lowest one exactly (higher marks may be
/// spurious).
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        let x = word ^ (ONES * u64::from(b'\n'));
        let zeros = x.wrapping_sub(ONES) & !x & (ONES << 7);
        if zeros != 0 {
            return Some(at + zeros.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder().iter().position(|&b| b == b'\n');
    tail.map(|i| at + i)
}

/// Where a segment walk found damage it cannot tolerate.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ScanError {
    /// An entry carried `found` where `expected` was due.
    Gap {
        line: usize,
        expected: u64,
        found: u64,
    },
    /// Any other damage, with what was wrong.
    Damaged { line: usize, reason: String },
}

impl ScanError {
    fn damaged(line: usize, reason: impl Into<String>) -> Self {
        ScanError::Damaged {
            line,
            reason: reason.into(),
        }
    }

    fn into_serve_error(self, segment: u64) -> ServeError {
        match self {
            ScanError::Gap {
                expected, found, ..
            } => ServeError::SequenceGap {
                expected,
                found,
                segment,
            },
            ScanError::Damaged { line, reason } => ServeError::Wal {
                segment,
                line,
                reason,
            },
        }
    }

    /// The `doctor` rendering, `line <n>: <reason>`.
    fn render(&self) -> String {
        match self {
            ScanError::Gap {
                line,
                expected,
                found,
            } => format!("line {line}: sequence gap: expected {expected}, found {found}"),
            ScanError::Damaged { line, reason } => format!("line {line}: {reason}"),
        }
    }
}

/// What one segment walk found.
#[derive(Debug, Default)]
struct SegmentScan {
    /// Entries verified, in order.
    entries: u64,
    first_seq: Option<u64>,
    sealed: bool,
    /// Byte offset of the tolerated torn final line (0 when the file
    /// never got a whole header); never set together with `error`.
    torn_at: Option<usize>,
    error: Option<ScanError>,
}

/// Walks one segment's bytes, handing each verified entry to `visit`
/// as `(seq, line)`. `expected` is the sequence number the first entry
/// must carry (`None`: whatever it carries); `is_last` permits a torn
/// final line. The walk stops at the first damage it cannot tolerate.
fn scan_segment<'a>(
    bytes: &'a [u8],
    index: u64,
    expected: Option<u64>,
    is_last: bool,
    visit: &mut impl FnMut(u64, &'a str),
) -> SegmentScan {
    let scan = walk_segment(bytes, index, expected, is_last, visit);
    ENTRIES_VERIFIED.add(scan.entries);
    scan
}

fn walk_segment<'a>(
    bytes: &'a [u8],
    index: u64,
    mut expected: Option<u64>,
    is_last: bool,
    visit: &mut impl FnMut(u64, &'a str),
) -> SegmentScan {
    let mut scan = SegmentScan::default();
    let mut lines = Lines { bytes, at: 0 };
    let Some((_, header)) = lines.next() else {
        // Zero-byte file: a crash between create and the header write.
        if is_last {
            scan.torn_at = Some(0);
        } else {
            scan.error = Some(ScanError::damaged(1, "empty segment file"));
        }
        return scan;
    };
    let mut digits = [0u8; 20];
    let header_ok = header
        .strip_prefix(WAL_MAGIC.as_bytes())
        .and_then(|rest| rest.strip_prefix(b" "))
        == Some(decimal(index, &mut digits));
    if !header_ok {
        // A torn header can only be the crash-interrupted last file.
        if is_last && lines.done() {
            scan.torn_at = Some(0);
        } else {
            scan.error = Some(ScanError::damaged(
                1,
                format!("bad header `{}`", String::from_utf8_lossy(header)),
            ));
        }
        return scan;
    }
    let mut seal = Fnv1a::new();
    let mut line_no = 1;
    while let Some((start, raw)) = lines.next() {
        line_no += 1;
        if scan.sealed {
            scan.error = Some(ScanError::damaged(line_no, "content after seal"));
            return scan;
        }
        let reason = match Line::parse(raw) {
            Line::Entry {
                seq,
                checksum,
                line,
            } => {
                let want = *expected.get_or_insert(seq);
                if seq != want {
                    scan.error = Some(ScanError::Gap {
                        line: line_no,
                        expected: want,
                        found: seq,
                    });
                    return scan;
                }
                seal_entry(&mut seal, checksum);
                visit(seq, line);
                scan.first_seq.get_or_insert(seq);
                scan.entries += 1;
                expected = Some(seq.wrapping_add(1));
                continue;
            }
            Line::Seal { declared, hash } => {
                if declared != scan.entries {
                    scan.error = Some(ScanError::damaged(
                        line_no,
                        format!(
                            "seal declares {declared} records, segment has {}",
                            scan.entries
                        ),
                    ));
                    return scan;
                }
                if hash != seal.finish() {
                    scan.error = Some(ScanError::damaged(line_no, "seal checksum mismatch"));
                    return scan;
                }
                scan.sealed = true;
                continue;
            }
            Line::BadSeal => "bad seal line",
            Line::BadEntry => "bad entry",
        };
        // A damaged line is tolerable only as the torn final line of
        // the unsealed last segment — the one write a crash can
        // legitimately interrupt.
        if is_last && lines.done() {
            scan.torn_at = Some(start);
        } else {
            scan.error = Some(ScanError::damaged(
                line_no,
                format!("{reason} `{}`", String::from_utf8_lossy(raw)),
            ));
        }
        return scan;
    }
    scan
}

/// True when the final line of a segment is a complete seal footer
/// after its header. The walk never calls such a segment torn: it is
/// either sealed or damaged, which replay reports.
fn ends_in_seal(bytes: &[u8]) -> bool {
    let body = bytes.strip_suffix(b"\n").unwrap_or(bytes);
    body.iter()
        .rposition(|&b| b == b'\n')
        .is_some_and(|at| matches!(Line::parse(&body[at + 1..]), Line::Seal { .. }))
}

/// Truncates the torn final write of segment `index`, if there is
/// one: the line a replay of the segment as the last one would
/// tolerate is dropped (it was never acknowledged), and a file torn
/// before its header ever landed is removed outright so the index is
/// reused. Damage that replay would report is left untouched for it
/// to report. The rewrite goes through [`replace_durably`]
/// (failpoints `wal.repair.tmp` / `wal.repair`).
fn repair_torn_tail(wal_dir: &Path, index: u64) -> Result<(), ServeError> {
    let path = segment_path(wal_dir, index);
    let mut bytes = Vec::new();
    read_segment(&path, &mut bytes).map_err(|e| io_err(&path, e))?;
    if ends_in_seal(&bytes) {
        return Ok(());
    }
    match scan_segment(&bytes, index, None, true, &mut |_, _| {}).torn_at {
        Some(0) => std::fs::remove_file(&path).map_err(|e| io_err(&path, e)),
        Some(at) => replace_durably(
            &path,
            &bytes[..at],
            "wal.repair",
            towerlens_obs::failpoints(),
            io_err,
        ),
        None => Ok(()),
    }
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
    /// The seal hash over the current segment's entries so far.
    seal: Fnv1a,
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
            seal: Fnv1a::new(),
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

    /// An I/O failure on the current segment.
    fn segment_err(&self, e: std::io::Error) -> ServeError {
        io_err(&segment_path(&self.dir, self.segment_index), e)
    }

    /// Appends one entry (buffered — not yet durable; see
    /// [`WalWriter::sync`]).
    ///
    /// # Errors
    /// [`ServeError::Io`] on write failure.
    pub fn append(&mut self, seq: u64, line: &str) -> Result<(), ServeError> {
        if self.file.is_none() {
            let path = segment_path(&self.dir, self.segment_index);
            let f = std::fs::File::create(&path).map_err(|e| io_err(&path, e))?;
            let mut w = BufWriter::new(f);
            writeln!(w, "{WAL_MAGIC} {}", self.segment_index).map_err(|e| io_err(&path, e))?;
            self.file = Some(w);
        }
        let mut digits = [0u8; 20];
        let seq_digits = decimal(seq, &mut digits);
        let checksum = entry_checksum(seq_digits, line.as_bytes());
        let hex = hex16(checksum);
        let w = self.file.as_mut().expect("file opened above");
        let written = [
            b"r ".as_slice(),
            seq_digits,
            b" ",
            &hex,
            b" ",
            line.as_bytes(),
            b"\n",
        ]
        .iter()
        .try_for_each(|piece| w.write_all(piece));
        written.map_err(|e| self.segment_err(e))?;
        self.entries_in_segment += 1;
        seal_entry(&mut self.seal, checksum);
        Ok(())
    }

    /// Flushes and fsyncs the current segment. Entries are
    /// acknowledged only after this returns.
    ///
    /// # Errors
    /// [`ServeError::Io`] on flush/fsync failure.
    pub fn sync(&mut self) -> Result<(), ServeError> {
        if let Some(w) = self.file.as_mut() {
            let synced = w.flush().and_then(|()| w.get_ref().sync_all());
            synced.map_err(|e| self.segment_err(e))?;
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
        let hash = self.seal.finish();
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
        self.seal = Fnv1a::new();
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// Replays every segment under `wal_dir` in order, verifying per-entry
/// checksums, seals, and strict sequence contiguity from 0.
///
/// # Errors
/// * [`ServeError::Wal`] for structural damage outside the tolerated
///   torn tail,
/// * [`ServeError::SequenceGap`] for missing segment files,
/// * [`ServeError::Io`] on read failures.
pub fn replay(wal_dir: &Path) -> Result<ReplayOutcome, ServeError> {
    let mut entries = Vec::new();
    let mut out = replay_with(wal_dir, |seq, line| {
        entries.push(WalEntry {
            seq,
            line: line.to_owned(),
        });
    })?;
    out.entries = entries;
    Ok(out)
}

/// As [`replay`], but hands each verified entry to `visit` as
/// `(seq, line)`, borrowed from the segment being walked, instead of
/// collecting it: the outcome's `entries` stay empty. An entry is
/// visited before the rest of its segment is checked, so a caller
/// keeps what it built only when this returns `Ok`.
///
/// # Errors
/// As [`replay`].
pub(crate) fn replay_with(
    wal_dir: &Path,
    mut visit: impl FnMut(u64, &str),
) -> Result<ReplayOutcome, ServeError> {
    let indices = segment_indices(wal_dir)?;
    let mut out = ReplayOutcome::default();
    let mut buf = Vec::new();
    for (pos, &index) in indices.iter().enumerate() {
        if index != pos as u64 {
            return Err(ServeError::SequenceGap {
                expected: pos as u64,
                found: index,
                segment: index,
            });
        }
        let path = segment_path(wal_dir, index);
        read_segment(&path, &mut buf).map_err(|e| io_err(&path, e))?;
        let is_last = pos + 1 == indices.len();
        let scan = scan_segment(&buf, index, Some(out.next_seq), is_last, &mut visit);
        if let Some(error) = scan.error {
            return Err(error.into_serve_error(index));
        }
        out.next_seq += scan.entries;
        out.sealed_segments += u64::from(scan.sealed);
        out.torn_tails += u64::from(scan.torn_at.is_some());
    }
    Ok(out)
}

/// One segment's health, as reported by [`fsck_wal`].
#[derive(Debug, Clone, PartialEq, Eq)]
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
    let mut buf = Vec::new();
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
            // Indices ascend, so every later segment is off as well.
            row.error = Some(format!("segment gap: expected index {pos}, found {index}"));
            rows.push(row);
            continue;
        }
        match read_segment(&path, &mut buf) {
            Err(e) => row.error = Some(e.to_string()),
            Ok(()) => {
                let scan = scan_segment(&buf, index, Some(expected_seq), is_last, &mut |_, _| {});
                row.entries = scan.entries;
                row.first_seq = scan.first_seq;
                row.last_seq = scan.first_seq.map(|first| first + (scan.entries - 1));
                row.sealed = scan.sealed;
                row.torn_tail = scan.torn_at.is_some();
                row.error = scan.error.as_ref().map(ScanError::render);
                if scan.error.is_none() {
                    expected_seq += scan.entries;
                }
            }
        }
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The line parsers the byte scanner replaced, kept as the test
    /// oracle: `replay` and `fsck_wal` over `read_to_string` and
    /// `split('\n')`, checksumming each entry through `format!` and
    /// parsing a sequence gap back out of its rendered reason. They
    /// take a seal hash as complete only at 16 digits, the scanner's
    /// rule; `replay_any_seal_width` keeps the replaced parsers' rule,
    /// which took a hash of any length.
    mod oracle {
        use std::path::Path;

        use towerlens_artifact::fnv1a64;

        use super::super::{
            segment_indices, segment_path, ReplayOutcome, WalEntry, WalSegmentFsck, WAL_MAGIC,
        };
        use crate::error::{io_err, ServeError};

        pub fn entry_checksum(seq: u64, line: &str) -> u64 {
            fnv1a64(format!("{seq}\t{line}").as_bytes())
        }

        struct SegmentScan {
            entries: Vec<WalEntry>,
            sealed: bool,
            torn: bool,
            error: Option<(usize, String)>,
        }

        fn scan_segment(
            text: &str,
            index: u64,
            mut expected_seq: u64,
            is_last: bool,
            any_seal_width: bool,
        ) -> SegmentScan {
            let mut scan = SegmentScan {
                entries: Vec::new(),
                sealed: false,
                torn: false,
                error: None,
            };
            let lines: Vec<&str> = text.split('\n').collect();
            let lines: &[&str] = match lines.split_last() {
                Some((&"", rest)) => rest,
                _ => &lines,
            };
            let fail = |line_no: usize, reason: String, scan: &mut SegmentScan| {
                scan.error = Some((line_no, reason));
            };
            let Some((header, body)) = lines.split_first() else {
                scan.torn = is_last;
                if !is_last {
                    fail(1, "empty segment file".to_string(), &mut scan);
                }
                return scan;
            };
            let expected_header = format!("{WAL_MAGIC} {index}");
            if *header != expected_header {
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
                    let hash = fields
                        .next()
                        .filter(|s| any_seal_width || s.len() == 16)
                        .and_then(|s| u64::from_str_radix(s, 16).ok());
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

        pub fn replay(wal_dir: &Path) -> Result<ReplayOutcome, ServeError> {
            replay_as(wal_dir, false)
        }

        pub fn replay_any_seal_width(wal_dir: &Path) -> Result<ReplayOutcome, ServeError> {
            replay_as(wal_dir, true)
        }

        fn replay_as(wal_dir: &Path, any_seal_width: bool) -> Result<ReplayOutcome, ServeError> {
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
                let scan = scan_segment(&text, index, out.next_seq, is_last, any_seal_width);
                if let Some((line, reason)) = scan.error {
                    if reason.starts_with("sequence gap") {
                        return Err(specialise(index, reason));
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

        /// Rebuilds a sequence-gap error from the scan's rendered
        /// reason (`sequence gap: expected E, found F`).
        fn specialise(segment: u64, reason: String) -> ServeError {
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
                    expected_seq = u64::MAX;
                    continue;
                }
                match std::fs::read_to_string(&path) {
                    Err(e) => row.error = Some(e.to_string()),
                    Ok(text) => {
                        let start = if expected_seq == u64::MAX {
                            first_entry_seq(&text).unwrap_or(0)
                        } else {
                            expected_seq
                        };
                        let scan = scan_segment(&text, index, start, is_last, false);
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

        fn first_entry_seq(text: &str) -> Option<u64> {
            text.lines().find_map(|l| {
                l.strip_prefix("r ")
                    .and_then(|rest| rest.split(' ').next())
                    .and_then(|s| s.parse().ok())
            })
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("towerlens-wal-{tag}-{}", std::process::id()));
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

    /// Segment bytes pinned from the `format!`-based writer the
    /// streaming one replaced: the same entries, checksums and seal,
    /// for ASCII and multi-byte lines alike.
    #[test]
    fn writer_output_is_byte_identical_for_ascii_and_multibyte_lines() {
        let dir = temp_dir("golden");
        let lines = [
            "1\t0\t600\t0\t10\taddr one",
            "2\t0\t600\t1\t20\tStraße 5",
            "3\t0\t600\t2\t30\t東京 7",
        ];
        write_entries(&dir, &lines, 2);
        assert_eq!(
            std::fs::read_to_string(segment_path(&dir, 0)).unwrap(),
            "towerlens-wal v1 segment 0\n\
             r 0 9f81f092364abbbc 1\t0\t600\t0\t10\taddr one\n\
             r 1 263875a5f0d455dd 2\t0\t600\t1\t20\tStraße 5\n\
             seal 2 b5ac14b1de0de23e\n"
        );
        assert_eq!(
            std::fs::read_to_string(segment_path(&dir, 1)).unwrap(),
            "towerlens-wal v1 segment 1\n\
             r 2 407aef6902649744 3\t0\t600\t2\t30\t東京 7\n"
        );
        for (seq, line) in lines.iter().enumerate() {
            let mut digits = [0u8; 20];
            assert_eq!(
                entry_checksum(decimal(seq as u64, &mut digits), line.as_bytes()),
                oracle::entry_checksum(seq as u64, line)
            );
        }
        for v in [0, 7, 10, 99, 4_096, 94_773, u64::MAX] {
            let mut digits = [0u8; 20];
            assert_eq!(decimal(v, &mut digits), v.to_string().as_bytes());
            assert_eq!(hex16(v), format!("{v:016x}").as_bytes());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newline_search_finds_the_first_newline() {
        let mut bytes: Vec<u8> = (0..=255u8).filter(|&b| b != b'\n').collect();
        bytes.extend_from_slice("Straße\u{0}\u{b}".as_bytes());
        for at in 0..=bytes.len() {
            for second in [None, Some(1), Some(7), Some(8), Some(9)] {
                let mut probe = bytes.clone();
                probe.insert(at, b'\n');
                if let Some(gap) = second {
                    probe.insert((at + gap).min(probe.len()), b'\n');
                }
                for start in [0, at / 2, at] {
                    let want = probe[start..].iter().position(|&b| b == b'\n');
                    assert_eq!(find_newline(&probe[start..]), want, "at {at} from {start}");
                }
            }
        }
        assert_eq!(find_newline(&bytes), None);
        assert_eq!(find_newline(b""), None);
    }

    /// The scanner against the oracle over a three-segment WAL (two
    /// sealed, one unsealed): every single-bit flip that keeps a byte
    /// ASCII, every truncation point and one appended byte must give
    /// the same replay result — the same entries, or the same error
    /// variant, segment, line and reason — and the same fsck rows. So
    /// must every truncation once the last segment is sealed too.
    #[test]
    fn scanner_matches_the_oracle_on_every_flip_truncation_and_append() {
        let dir = temp_dir("oracle");
        // Lines with spaces, tabs, an empty line and bytes one flip
        // away from a newline (`*`, `J`); two-digit sequence numbers in
        // the last segment.
        let lines = [
            "1\t0\t600\t0\t10\ta*J",
            "b c",
            "",
            "seal 1 0",
            "r 9 x",
            "J*",
            "d",
            "e f g",
            "h",
            "i",
            "k*",
            "l",
        ];
        let mut writer = write_entries(&dir, &lines, 5);
        let paths: Vec<PathBuf> = (0..3).map(|i| segment_path(&dir, i)).collect();
        let pristine: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
        assert_eq!(segment_indices(&dir).unwrap(), vec![0, 1, 2]);
        assert!(pristine[1].ends_with(b"\n") && !pristine[2].starts_with(b"seal"));

        let check = |what: &str| {
            let (got, want) = (replay(&dir), oracle::replay(&dir));
            assert_eq!(got, want, "replay after {what}");
            let (got, want) = (fsck_wal(&dir).unwrap(), oracle::fsck_wal(&dir).unwrap());
            assert_eq!(got, want, "fsck after {what}");
        };
        check("nothing");
        let mut cases = 0;
        for (seg, (path, bytes)) in paths.iter().zip(&pristine).enumerate() {
            for at in 0..bytes.len() {
                for bit in 0..7 {
                    let mut damaged = bytes.clone();
                    damaged[at] ^= 1 << bit;
                    std::fs::write(path, &damaged).unwrap();
                    check(&format!("flipping bit {bit} of byte {at} in segment {seg}"));
                    cases += 1;
                }
            }
            for len in 0..bytes.len() {
                std::fs::write(path, &bytes[..len]).unwrap();
                check(&format!("truncating segment {seg} to {len} bytes"));
                cases += 1;
            }
            for extra in [b'x', b'\n'] {
                let mut longer = bytes.clone();
                longer.push(extra);
                std::fs::write(path, &longer).unwrap();
                check(&format!("appending {extra:?} to segment {seg}"));
                cases += 1;
            }
            std::fs::write(path, bytes).unwrap();
        }
        assert!(cases > 3_000, "{cases} cases");
        // And every cut of a sealed last segment, its seal line included.
        writer.rotate().unwrap();
        let sealed = std::fs::read(&paths[2]).unwrap();
        for len in 0..sealed.len() {
            std::fs::write(&paths[2], &sealed[..len]).unwrap();
            check(&format!(
                "truncating the sealed last segment to {len} bytes"
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The one documented difference from the oracle: a byte that is
    /// not UTF-8 made the oracle's `read_to_string` fail the whole
    /// segment. The scanner judges the line like any other damage: a
    /// replay error at that line, or a tolerated torn final line of
    /// the last segment.
    #[test]
    fn non_utf8_bytes_are_judged_by_line_not_by_file() {
        let dir = temp_dir("non-utf8");
        write_entries(&dir, &["aa", "bb", "cc"], 2);
        let last = segment_path(&dir, 1);
        let pristine = std::fs::read(&last).unwrap();
        let mut damaged = pristine.clone();
        let at = damaged.len() - 2;
        damaged[at] ^= 0x80;
        std::fs::write(&last, &damaged).unwrap();
        assert!(matches!(oracle::replay(&dir), Err(ServeError::Io { .. })));
        let out = replay(&dir).unwrap();
        assert_eq!((out.next_seq, out.torn_tails), (2, 1));

        std::fs::write(&last, &pristine).unwrap();
        let first = segment_path(&dir, 0);
        let mut damaged = std::fs::read(&first).unwrap();
        let at = damaged.windows(2).position(|w| w == b"aa").unwrap();
        damaged[at] ^= 0x80;
        std::fs::write(&first, &damaged).unwrap();
        let err = replay(&dir).unwrap_err();
        assert!(
            matches!(err, ServeError::Wal { segment: 0, line: 2, ref reason } if reason.starts_with("bad entry")),
            "{err}"
        );
        assert_eq!(
            fsck_wal(&dir).unwrap()[0].error.as_deref().map(|e| &e[..7]),
            Some("line 2:")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The second documented difference: the replaced parsers took a
    /// seal hash of any length, so a crash inside the 16 digits of a
    /// footer left a line they read as a complete seal, and every
    /// replay failed on its checksum. The scanner tolerates that line
    /// as the torn tail of the last segment, and reports it in any
    /// other segment.
    #[test]
    fn seal_torn_inside_its_hash_is_a_torn_tail_only_when_last() {
        let dir = temp_dir("torn-seal");
        write_entries(&dir, &["aa", "bb", "cc"], 2)
            .rotate()
            .unwrap();
        let last = segment_path(&dir, 1);
        let sealed = std::fs::read(&last).unwrap();
        let hash_at = sealed.len() - 1 - SEAL_HASH_DIGITS;
        assert!(sealed[..hash_at].ends_with(b"\nseal 1 "));
        for digits in 1..SEAL_HASH_DIGITS {
            std::fs::write(&last, &sealed[..hash_at + digits]).unwrap();
            let old = oracle::replay_any_seal_width(&dir).unwrap_err();
            assert!(
                matches!(old, ServeError::Wal { segment: 1, line: 3, ref reason } if reason == "seal checksum mismatch"),
                "{digits} digits: {old}"
            );
            let out = replay(&dir).unwrap();
            assert_eq!(out, oracle::replay(&dir).unwrap(), "{digits} digits");
            assert_eq!((out.next_seq, out.torn_tails), (3, 1), "{digits} digits");
        }
        // Once a later segment exists, the same line is damage.
        std::fs::write(segment_path(&dir, 2), format!("{WAL_MAGIC} 2\n")).unwrap();
        let err = replay(&dir).unwrap_err();
        assert!(
            matches!(err, ServeError::Wal { segment: 1, line: 3, ref reason } if reason.starts_with("bad seal line")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replay, fsck and the writer's repair agree on the torn tail:
    /// the repair drops exactly the line replay tolerated, and the
    /// repaired directory replays to the same entries, untorn.
    #[test]
    fn repair_drops_exactly_the_line_replay_tolerates() {
        let dir = temp_dir("repair-agrees");
        let mut w = write_entries(&dir, &["a", "b", "c"], 2);
        w.append(3, "d").unwrap();
        w.sync().unwrap();
        drop(w);
        let path = segment_path(&dir, 1);
        let pristine = std::fs::read(&path).unwrap();
        let header_len = pristine.iter().position(|&b| b == b'\n').unwrap() + 1;
        for len in 0..pristine.len() {
            std::fs::write(&path, &pristine[..len]).unwrap();
            let before = replay(&dir).unwrap();
            let rows = fsck_wal(&dir).unwrap();
            assert_eq!(rows[1].torn_tail, before.torn_tails == 1, "cut at {len}");
            let w = WalWriter::open(&dir).unwrap();
            let after = replay(&dir).unwrap();
            assert_eq!(after.entries, before.entries, "cut at {len}");
            assert_eq!(after.torn_tails, 0, "cut at {len}");
            // A file torn before its header is whole is removed and its
            // index reused; otherwise the writer moves past it.
            let expect_index = if len + 1 < header_len { 1 } else { 2 };
            assert_eq!(w.segment_index(), expect_index, "cut at {len}");
        }
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
        assert_eq!(
            fsck_wal(&dir).unwrap()[0].error.as_deref(),
            Some("line 3: sequence gap: expected 1, found 2")
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

    /// Segment indices ascend, so after a missing segment every later
    /// one is off its position too: fsck reports each as a gap, as the
    /// oracle does.
    #[test]
    fn fsck_reports_every_segment_after_a_missing_one_as_a_gap() {
        let dir = temp_dir("fsck-gap");
        write_entries(&dir, &["a", "b", "c", "d", "e", "f", "g"], 2);
        std::fs::remove_file(segment_path(&dir, 1)).unwrap();
        let rows = fsck_wal(&dir).unwrap();
        assert_eq!(rows, oracle::fsck_wal(&dir).unwrap());
        assert!(rows[0].error.is_none());
        assert_eq!(
            rows[1..]
                .iter()
                .map(|r| r.error.as_deref().unwrap())
                .collect::<Vec<_>>(),
            [
                "segment gap: expected index 1, found 2",
                "segment gap: expected index 2, found 3"
            ]
        );
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
