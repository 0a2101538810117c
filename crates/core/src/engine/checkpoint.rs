//! Filesystem checkpointing of stage artifacts.
//!
//! One file per stage, `DIR/<stage>.ckpt`, in the workspace's
//! hand-rolled line-oriented text idiom (cf. the CLI's TSV files):
//!
//! ```text
//! towerlens-checkpoint v2
//! stage <name>
//! fingerprint <hex64>
//! cards <n>
//! card <value> <label…>        (n times)
//! data <body-line-count>
//! checksum <hex64>
//! <body lines…>                (the stage codec's payload)
//! end
//! ```
//!
//! The `fingerprint` is an FNV-1a hash of the run configuration: a
//! resume against a different configuration silently misses (the
//! stage recomputes and overwrites) rather than resurrecting stale
//! data. The `checksum` is an FNV-1a hash of the body text, verified
//! *before* the codec runs: a flipped byte that still decodes cleanly
//! (a plausible-but-wrong bit pattern) is caught here rather than
//! resurrected as data. The trailing `end` sentinel plus the recorded
//! body line count detect truncation. Floats are stored as IEEE-754
//! bit patterns ([`encode_f64`]/[`decode_f64`]) so reloads are
//! bit-identical.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use towerlens_artifact::replace_durably;
use towerlens_obs::Failpoints;

use super::stage::{Card, StageCodec};

/// Magic first line of every checkpoint file.
const MAGIC: &str = "towerlens-checkpoint v2";

/// Typed checkpoint failures. I/O errors are carried as rendered
/// strings so the error stays `Clone`/`PartialEq` (and thus
/// embeddable in [`crate::CoreError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io {
        /// The file involved.
        path: String,
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// The file exists but its content is malformed.
    Corrupt {
        /// The stage whose checkpoint is damaged.
        stage: String,
        /// 1-based line where parsing failed.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The file ends before its declared content (interrupted write).
    Truncated {
        /// The stage whose checkpoint is incomplete.
        stage: String,
    },
    /// The file is zero bytes (a crash between create and write).
    Empty {
        /// The stage whose checkpoint is empty.
        stage: String,
    },
    /// The body text does not hash to the recorded checksum (bit rot
    /// or a partial overwrite that still parses).
    ChecksumMismatch {
        /// The stage whose checkpoint is damaged.
        stage: String,
        /// The checksum recorded in the header.
        expected: u64,
        /// The checksum of the body actually on disk.
        found: u64,
    },
    /// The file was written under a different configuration
    /// fingerprint (reported by [`fsck_file`]; [`CheckpointStore::load`]
    /// treats this as a cache miss instead).
    FingerprintMismatch {
        /// The stage whose checkpoint is stale.
        stage: String,
        /// The fingerprint expected by the caller.
        expected: u64,
        /// The fingerprint in the file.
        found: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, message } => write!(f, "{path}: {message}"),
            CheckpointError::Corrupt {
                stage,
                line,
                reason,
            } => write!(
                f,
                "stage `{stage}` checkpoint corrupt at line {line}: {reason}"
            ),
            CheckpointError::Truncated { stage } => {
                write!(f, "stage `{stage}` checkpoint is truncated")
            }
            CheckpointError::Empty { stage } => {
                write!(f, "stage `{stage}` checkpoint is empty")
            }
            CheckpointError::ChecksumMismatch {
                stage,
                expected,
                found,
            } => write!(
                f,
                "stage `{stage}` checkpoint body checksum mismatch \
                 (expected {expected:016x}, found {found:016x})"
            ),
            CheckpointError::FingerprintMismatch {
                stage,
                expected,
                found,
            } => write!(
                f,
                "stage `{stage}` checkpoint belongs to a different configuration \
                 (expected fingerprint {expected:016x}, found {found:016x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// FNV-1a over a byte slice — the engine's configuration fingerprint
/// (and the study report's content hash). Re-exported from the
/// artifact crate's canonical definition, so WAL segments, engine
/// checkpoints, and artifact sections can never drift onto different
/// checksums.
pub use towerlens_artifact::fnv1a64;

/// Renders an `f64` as its IEEE-754 bit pattern in hex — the
/// round-trip-exact wire form used throughout checkpoint bodies.
pub fn encode_f64(v: f64) -> String {
    format!("{:x}", v.to_bits())
}

/// Inverse of [`encode_f64`].
///
/// # Errors
/// A rendered reason for a non-hex field.
pub fn decode_f64(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("expected f64 bit pattern, got `{s}`"))
}

/// Parses a decimal `usize` field.
///
/// # Errors
/// A rendered reason.
pub fn decode_usize(s: &str) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("expected integer, got `{s}`"))
}

/// Strips a leading `tag ` from a line, returning the remainder.
///
/// # Errors
/// A rendered reason when the line does not start with the tag.
pub fn expect_tag<'a>(line: &'a str, tag: &str) -> Result<&'a str, String> {
    if line == tag {
        return Ok("");
    }
    line.strip_prefix(tag)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| format!("expected `{tag} …`, got `{line}`"))
}

/// A line cursor over a checkpoint body that tracks the current line
/// number for error reporting.
pub struct BodyReader<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
    offset: usize,
}

impl<'a> BodyReader<'a> {
    /// Wraps a text block; `offset` is the 1-based file line of the
    /// block's first line (0 for standalone use).
    pub fn new(body: &'a str, offset: usize) -> Self {
        BodyReader {
            lines: body.lines(),
            line_no: 0,
            offset,
        }
    }

    /// The file line number of the most recently read line.
    pub fn line_no(&self) -> usize {
        self.offset + self.line_no
    }

    /// The next line.
    ///
    /// # Errors
    /// A rendered reason at end of body.
    pub fn line(&mut self) -> Result<&'a str, String> {
        self.line_no += 1;
        self.lines
            .next()
            .ok_or_else(|| "unexpected end of data".to_string())
    }

    /// The next line with its leading `tag ` stripped.
    ///
    /// # Errors
    /// As [`BodyReader::line`] and [`expect_tag`].
    pub fn tagged(&mut self, tag: &str) -> Result<&'a str, String> {
        let line = self.line()?;
        expect_tag(line, tag)
    }

    /// The next `n` lines without consuming them, or `None` when the
    /// text ends early — the checksum lookahead.
    fn peek_lines(&self, n: usize) -> Option<Vec<&'a str>> {
        let mut ahead = self.lines.clone();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(ahead.next()?);
        }
        Some(out)
    }
}

/// The parsed fixed header of a checkpoint file.
struct RawHeader {
    named: String,
    fingerprint: u64,
    cards: Vec<Card>,
    body_lines: usize,
    checksum: u64,
}

/// Number of header lines preceding the body for a given card count
/// (magic, stage, fingerprint, cards, the card lines, data, checksum).
fn header_lines(n_cards: usize) -> usize {
    6 + n_cards
}

fn read_header(reader: &mut BodyReader<'_>, stage: &str) -> Result<RawHeader, CheckpointError> {
    let corrupt = |line: usize, reason: String| CheckpointError::Corrupt {
        stage: stage.to_string(),
        line,
        reason,
    };
    let truncated = || CheckpointError::Truncated {
        stage: stage.to_string(),
    };
    let magic = reader.line().map_err(|_| truncated())?;
    if magic != MAGIC {
        return Err(corrupt(1, format!("bad magic `{magic}`")));
    }
    let named = reader
        .tagged("stage")
        .map_err(|r| corrupt(reader.line_no(), r))?
        .to_string();
    let fp_field = reader
        .tagged("fingerprint")
        .map_err(|r| corrupt(reader.line_no(), r))?;
    let fingerprint = u64::from_str_radix(fp_field, 16)
        .map_err(|_| corrupt(reader.line_no(), format!("bad fingerprint `{fp_field}`")))?;
    let n_cards = reader
        .tagged("cards")
        .and_then(decode_usize)
        .map_err(|r| corrupt(reader.line_no(), r))?;
    let mut cards = Vec::with_capacity(n_cards);
    for _ in 0..n_cards {
        let rest = reader.tagged("card").map_err(|_| truncated())?;
        let (value, label) = rest
            .split_once(' ')
            .ok_or_else(|| corrupt(reader.line_no(), format!("bad card `{rest}`")))?;
        let value = value
            .parse()
            .map_err(|_| corrupt(reader.line_no(), format!("bad card value `{value}`")))?;
        cards.push(Card::new(label, value));
    }
    let body_lines = reader
        .tagged("data")
        .and_then(decode_usize)
        .map_err(|r| corrupt(reader.line_no(), r))?;
    let ck_field = reader
        .tagged("checksum")
        .map_err(|r| corrupt(reader.line_no(), r))?;
    let checksum = u64::from_str_radix(ck_field, 16)
        .map_err(|_| corrupt(reader.line_no(), format!("bad checksum `{ck_field}`")))?;
    Ok(RawHeader {
        named,
        fingerprint,
        cards,
        body_lines,
        checksum,
    })
}

/// Hashes the next `body_lines` lines (without consuming the reader)
/// and compares against the recorded checksum.
fn verify_body(
    reader: &BodyReader<'_>,
    stage: &str,
    body_lines: usize,
    expected: u64,
) -> Result<(), CheckpointError> {
    let Some(lines) = reader.peek_lines(body_lines) else {
        return Err(CheckpointError::Truncated {
            stage: stage.to_string(),
        });
    };
    let mut body = lines.join("\n");
    if !body.is_empty() {
        body.push('\n');
    }
    let found = fnv1a64(body.as_bytes());
    if found != expected {
        return Err(CheckpointError::ChecksumMismatch {
            stage: stage.to_string(),
            expected,
            found,
        });
    }
    Ok(())
}

/// A directory of per-stage checkpoint files sharing one
/// configuration fingerprint.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    fingerprint: u64,
    /// Overrides the process failpoint registry for this store's
    /// `checkpoint.*` points.
    failpoints: Option<Arc<Failpoints>>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory for runs of
    /// the configuration hashed into `fingerprint`. Its failpoints are
    /// the process registry's ([`towerlens_obs::failpoints`]).
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, fingerprint: u64) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(CheckpointStore {
            dir,
            fingerprint,
            failpoints: None,
        })
    }

    /// Gives the store its own failpoint registry (builder style), so
    /// a test's hit counters are isolated from the process registry.
    pub fn with_failpoints(mut self, failpoints: Failpoints) -> Self {
        self.failpoints = Some(Arc::new(failpoints));
        self
    }

    /// The failpoint registry this store's `checkpoint.*` points fire
    /// on.
    pub fn failpoints(&self) -> &Failpoints {
        match &self.failpoints {
            Some(fp) => fp,
            None => towerlens_obs::failpoints(),
        }
    }

    /// Hits `checkpoint.<op>.<stage>`: an injected transient I/O
    /// fault before the real filesystem operation, so a faulted save
    /// leaves no partial state behind.
    fn injected_fault(&self, op: &str, stage: &str) -> Result<(), CheckpointError> {
        self.failpoints()
            .hit(&["checkpoint", op, stage])
            .map_err(|fired| CheckpointError::Io {
                path: self.path_of(stage).display().to_string(),
                message: format!("injected transient I/O fault: {fired}"),
            })
    }

    /// The configuration fingerprint this store validates against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The checkpoint file of a stage.
    pub fn path_of(&self, stage: &str) -> PathBuf {
        self.dir.join(format!("{stage}.ckpt"))
    }

    /// Persists a stage artifact through [`replace_durably`] (temp
    /// file fsynced before the rename, directory fsynced best-effort
    /// after it, failpoints `checkpoint.tmp` / `checkpoint`), so a
    /// power loss cannot leave a complete-looking-but-unsynced
    /// checkpoint behind.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on filesystem failure,
    /// [`CheckpointError::Corrupt`] when the codec rejects the
    /// artifact (wrong variant — a programming error surfaced as
    /// data).
    pub fn save<A>(
        &self,
        stage: &str,
        cards: &[Card],
        codec: &dyn StageCodec<A>,
        artifact: &A,
    ) -> Result<(), CheckpointError> {
        self.injected_fault("save", stage)?;
        let mut body = String::new();
        codec
            .encode(artifact, &mut body)
            .map_err(|reason| CheckpointError::Corrupt {
                stage: stage.to_string(),
                line: 0,
                reason,
            })?;
        if !body.is_empty() && !body.ends_with('\n') {
            body.push('\n');
        }
        let body_lines = body.lines().count();
        let checksum = fnv1a64(body.as_bytes());
        let mut text = String::with_capacity(body.len() + 256);
        text.push_str(MAGIC);
        text.push('\n');
        text.push_str(&format!("stage {stage}\n"));
        text.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        text.push_str(&format!("cards {}\n", cards.len()));
        for c in cards {
            text.push_str(&format!("card {} {}\n", c.value, c.label));
        }
        text.push_str(&format!("data {body_lines}\n"));
        text.push_str(&format!("checksum {checksum:016x}\n"));
        text.push_str(&body);
        text.push_str("end\n");

        replace_durably(
            &self.path_of(stage),
            text.as_bytes(),
            "checkpoint",
            self.failpoints(),
            io_err,
        )
    }

    /// Loads a stage artifact, if a valid checkpoint with a matching
    /// fingerprint exists. Returns `Ok(None)` for a missing file or a
    /// fingerprint mismatch (both mean "recompute"), and an error for
    /// a file that exists for this configuration but cannot be
    /// trusted.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on read failure,
    /// [`CheckpointError::Empty`] for a zero-byte file,
    /// [`CheckpointError::Truncated`] for an incomplete file,
    /// [`CheckpointError::ChecksumMismatch`] when the body does not
    /// hash to the recorded checksum,
    /// [`CheckpointError::Corrupt`] for malformed content.
    pub fn load<A>(
        &self,
        stage: &str,
        codec: &dyn StageCodec<A>,
    ) -> Result<Option<(A, Vec<Card>)>, CheckpointError> {
        self.injected_fault("load", stage)?;
        let path = self.path_of(stage);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, e)),
        };
        if text.is_empty() {
            return Err(CheckpointError::Empty {
                stage: stage.to_string(),
            });
        }
        let corrupt = |line: usize, reason: String| CheckpointError::Corrupt {
            stage: stage.to_string(),
            line,
            reason,
        };
        let truncated = || CheckpointError::Truncated {
            stage: stage.to_string(),
        };

        let mut reader = BodyReader::new(&text, 0);
        let header = read_header(&mut reader, stage)?;
        if header.named != stage {
            return Err(corrupt(2, format!("file is for stage `{}`", header.named)));
        }
        if header.fingerprint != self.fingerprint {
            // A checkpoint from a different configuration: stale, not
            // corrupt. Recompute (and overwrite on save).
            return Ok(None);
        }
        // Verify the body hash before handing anything to the codec —
        // a flipped byte that still parses must not come back as data.
        verify_body(&reader, stage, header.body_lines, header.checksum)?;

        let artifact = codec.decode(&mut reader).map_err(|r| {
            // Distinguish "file ends early" from "line is garbage".
            if r == "unexpected end of data" {
                truncated()
            } else {
                corrupt(reader.line_no(), r)
            }
        })?;
        // The codec must have consumed exactly the declared body, and
        // the `end` sentinel must follow — otherwise the write was
        // interrupted.
        let header_len = header_lines(header.cards.len());
        if reader.line_no() != header_len + header.body_lines {
            return Err(corrupt(
                reader.line_no(),
                format!(
                    "codec consumed {} body lines, header declares {}",
                    reader.line_no() - header_len,
                    header.body_lines
                ),
            ));
        }
        match reader.line() {
            Ok("end") => Ok(Some((artifact, header.cards))),
            Ok(other) => Err(corrupt(
                reader.line_no(),
                format!("expected `end`, got `{other}`"),
            )),
            Err(_) => Err(truncated()),
        }
    }
}

/// What [`fsck_file`] learned about a structurally valid checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckInfo {
    /// The stage named in the header.
    pub stage: String,
    /// The configuration fingerprint the file was written under.
    pub fingerprint: u64,
    /// The instrumentation cards recorded in the header.
    pub cards: Vec<Card>,
    /// The number of body lines.
    pub body_lines: usize,
}

/// Structurally validates a checkpoint file without decoding its
/// artifact: header shape, body checksum, declared line count, and
/// the `end` sentinel. Passing `expected_fingerprint` additionally
/// pins the configuration — a healthy file from another configuration
/// reports [`CheckpointError::FingerprintMismatch`] (unlike
/// [`CheckpointStore::load`], which treats that as a cache miss).
/// This is the `doctor` subcommand's workhorse.
///
/// # Errors
/// Any [`CheckpointError`]; the stage name in errors raised before
/// the header parses is the file stem.
pub fn fsck_file(
    path: &Path,
    expected_fingerprint: Option<u64>,
) -> Result<FsckInfo, CheckpointError> {
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("?")
        .to_string();
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    if text.is_empty() {
        return Err(CheckpointError::Empty { stage: stem });
    }
    let mut reader = BodyReader::new(&text, 0);
    let header = read_header(&mut reader, &stem)?;
    verify_body(&reader, &header.named, header.body_lines, header.checksum)?;
    for _ in 0..header.body_lines {
        reader.line().map_err(|_| CheckpointError::Truncated {
            stage: header.named.clone(),
        })?;
    }
    match reader.line() {
        Ok("end") => {}
        Ok(other) => {
            return Err(CheckpointError::Corrupt {
                stage: header.named,
                line: reader.line_no(),
                reason: format!("expected `end`, got `{other}`"),
            })
        }
        Err(_) => {
            return Err(CheckpointError::Truncated {
                stage: header.named,
            })
        }
    }
    if let Some(expected) = expected_fingerprint {
        if header.fingerprint != expected {
            return Err(CheckpointError::FingerprintMismatch {
                stage: header.named,
                expected,
                found: header.fingerprint,
            });
        }
    }
    Ok(FsckInfo {
        stage: header.named,
        fingerprint: header.fingerprint,
        cards: header.cards,
        body_lines: header.body_lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy artifact: a labelled list of floats.
    #[derive(Debug, Clone, PartialEq)]
    struct Toy {
        name: String,
        values: Vec<f64>,
    }

    struct ToyCodec;

    impl StageCodec<Toy> for ToyCodec {
        fn encode(&self, artifact: &Toy, out: &mut String) -> Result<(), String> {
            out.push_str(&format!("name {}\n", artifact.name));
            out.push_str(&format!("values {}", artifact.values.len()));
            for v in &artifact.values {
                out.push(' ');
                out.push_str(&encode_f64(*v));
            }
            out.push('\n');
            Ok(())
        }

        fn decode(&self, body: &mut BodyReader<'_>) -> Result<Toy, String> {
            let name = body.tagged("name")?.to_string();
            let mut fields = body.tagged("values")?.split_whitespace();
            let n = decode_usize(fields.next().ok_or("missing count")?)?;
            let values = fields.map(decode_f64).collect::<Result<Vec<_>, _>>()?;
            if values.len() != n {
                return Err(format!("expected {n} values, got {}", values.len()));
            }
            Ok(Toy { name, values })
        }
    }

    fn temp_store(tag: &str, fingerprint: u64) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("towerlens-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(dir, fingerprint).unwrap()
    }

    /// Recomputes the `checksum` header line from the (possibly
    /// edited) body, so tests can exercise codec-level corruption
    /// without tripping the checksum gate first.
    fn fix_checksum(text: &str) -> String {
        let lines: Vec<&str> = text.lines().collect();
        let ck_idx = lines
            .iter()
            .position(|l| l.starts_with("checksum "))
            .unwrap();
        let end_idx = lines.iter().rposition(|l| *l == "end").unwrap();
        let mut body = lines[ck_idx + 1..end_idx].join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        let mut out = String::new();
        for (i, l) in lines.iter().enumerate() {
            if i == ck_idx {
                out.push_str(&format!("checksum {:016x}\n", fnv1a64(body.as_bytes())));
            } else {
                out.push_str(l);
                out.push('\n');
            }
        }
        out
    }

    fn toy() -> Toy {
        Toy {
            name: "probe".into(),
            // Values chosen to break any decimal round-trip: an
            // irrational-ish sum, a subnormal, and negative zero.
            values: vec![0.1 + 0.2, f64::MIN_POSITIVE / 8.0, -0.0, 1.0e300],
        }
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let store = temp_store("roundtrip", 7);
        let cards = vec![Card::new("values", 4)];
        store.save("toy", &cards, &ToyCodec, &toy()).unwrap();
        let (loaded, loaded_cards) = store.load("toy", &ToyCodec).unwrap().unwrap();
        assert_eq!(loaded_cards, cards);
        assert_eq!(loaded.name, "probe");
        assert_eq!(loaded.values.len(), 4);
        for (a, b) in loaded.values.iter().zip(&toy().values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // -0.0 stayed -0.0 (a plain == would hide the sign).
        assert_eq!(loaded.values[2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn missing_file_is_a_cache_miss() {
        let store = temp_store("missing", 7);
        assert_eq!(store.load("toy", &ToyCodec).unwrap().map(|(a, _)| a), None);
    }

    #[test]
    fn fingerprint_mismatch_is_a_cache_miss() {
        let store = temp_store("fpmiss", 7);
        store.save("toy", &[], &ToyCodec, &toy()).unwrap();
        let other = CheckpointStore::open(store.dir.clone(), 8).unwrap();
        assert!(other.load("toy", &ToyCodec).unwrap().is_none());
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let store = temp_store("trunc", 7);
        store.save("toy", &[], &ToyCodec, &toy()).unwrap();
        let path = store.path_of("toy");
        let text = std::fs::read_to_string(&path).unwrap();
        // Drop the `end` sentinel and the last body line — an
        // interrupted write.
        let cut: Vec<&str> = text.lines().collect();
        std::fs::write(&path, cut[..cut.len() - 2].join("\n")).unwrap();
        match store.load("toy", &ToyCodec) {
            Err(CheckpointError::Truncated { stage }) => assert_eq!(stage, "toy"),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn missing_end_sentinel_is_truncated() {
        let store = temp_store("noend", 7);
        store.save("toy", &[], &ToyCodec, &toy()).unwrap();
        let path = store.path_of("toy");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("end\n", "")).unwrap();
        assert!(matches!(
            store.load("toy", &ToyCodec),
            Err(CheckpointError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupted_body_is_a_typed_error_with_line() {
        let store = temp_store("corrupt", 7);
        store.save("toy", &[], &ToyCodec, &toy()).unwrap();
        let path = store.path_of("toy");
        let text = std::fs::read_to_string(&path).unwrap();
        // Break a body tag but keep the checksum honest, so the codec
        // (not the checksum gate) is what rejects the file.
        std::fs::write(
            &path,
            fix_checksum(&text.replace("name probe", "nome probe")),
        )
        .unwrap();
        match store.load("toy", &ToyCodec) {
            Err(CheckpointError::Corrupt { stage, line, .. }) => {
                assert_eq!(stage, "toy");
                assert!(line > 0);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn flipped_byte_is_a_checksum_mismatch() {
        let store = temp_store("flip", 7);
        store.save("toy", &[], &ToyCodec, &toy()).unwrap();
        let path = store.path_of("toy");
        let text = std::fs::read_to_string(&path).unwrap();
        // Still parses as a name line — only the hash knows.
        std::fs::write(&path, text.replace("name probe", "name qrobe")).unwrap();
        match store.load("toy", &ToyCodec) {
            Err(CheckpointError::ChecksumMismatch {
                stage,
                expected,
                found,
            }) => {
                assert_eq!(stage, "toy");
                assert_ne!(expected, found);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_file_is_a_typed_error() {
        let store = temp_store("empty", 7);
        std::fs::write(store.path_of("toy"), "").unwrap();
        match store.load("toy", &ToyCodec) {
            Err(CheckpointError::Empty { stage }) => assert_eq!(stage, "toy"),
            other => panic!("expected Empty, got {other:?}"),
        }
    }

    #[test]
    fn fsck_validates_and_reports() {
        let store = temp_store("fsck", 7);
        let cards = vec![Card::new("values", 4)];
        store.save("toy", &cards, &ToyCodec, &toy()).unwrap();
        let path = store.path_of("toy");

        let info = fsck_file(&path, Some(7)).unwrap();
        assert_eq!(info.stage, "toy");
        assert_eq!(info.fingerprint, 7);
        assert_eq!(info.cards, cards);
        assert_eq!(info.body_lines, 2);

        // Unpinned fsck accepts any fingerprint; pinned fsck reports
        // the mismatch instead of treating it as a miss.
        assert!(fsck_file(&path, None).is_ok());
        match fsck_file(&path, Some(8)) {
            Err(CheckpointError::FingerprintMismatch {
                stage,
                expected,
                found,
            }) => {
                assert_eq!(stage, "toy");
                assert_eq!((expected, found), (8, 7));
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }

    #[test]
    fn fsck_flags_each_damage_class() {
        let store = temp_store("fsck-damage", 7);
        store.save("toy", &[], &ToyCodec, &toy()).unwrap();
        let path = store.path_of("toy");
        let pristine = std::fs::read_to_string(&path).unwrap();

        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            fsck_file(&path, None),
            Err(CheckpointError::Empty { .. })
        ));

        let cut: Vec<&str> = pristine.lines().collect();
        std::fs::write(&path, cut[..cut.len() - 2].join("\n")).unwrap();
        assert!(matches!(
            fsck_file(&path, None),
            Err(CheckpointError::Truncated { .. })
        ));

        std::fs::write(&path, pristine.replace("name probe", "name qrobe")).unwrap();
        assert!(matches!(
            fsck_file(&path, None),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));

        std::fs::write(&path, pristine.replace(MAGIC, "towerlens-checkpoint v0")).unwrap();
        assert!(matches!(
            fsck_file(&path, None),
            Err(CheckpointError::Corrupt { line: 1, .. })
        ));
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let store = temp_store("magic", 7);
        std::fs::write(store.path_of("toy"), "hello\nworld\n").unwrap();
        assert!(matches!(
            store.load("toy", &ToyCodec),
            Err(CheckpointError::Corrupt { line: 1, .. })
        ));
    }

    #[test]
    fn f64_field_roundtrip_covers_edge_values() {
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN,
            1.5e-310,
        ] {
            assert_eq!(decode_f64(&encode_f64(v)).unwrap().to_bits(), v.to_bits());
        }
        let nan = decode_f64(&encode_f64(f64::NAN)).unwrap();
        assert_eq!(nan.to_bits(), f64::NAN.to_bits());
        assert!(decode_f64("zz").is_err());
    }

    #[test]
    fn fnv1a64_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
