//! Filesystem checkpointing of stage artifacts.
//!
//! One file per stage, `DIR/<stage>.ckpt`, in the workspace's one
//! durable container ([`towerlens_artifact::container`]), holding
//! exactly two sections:
//!
//! | tag     | payload                                                   |
//! |---------|-----------------------------------------------------------|
//! | `stage` | stage name, configuration fingerprint, card count, then each card's value and label |
//! | `body`  | the stage codec's payload ([`StageCodec`])                |
//!
//! The container's header checksum, per-section checksums and tiling
//! rule cover every byte of the file, so a flipped, dropped or
//! appended byte anywhere — a card value included — is a typed
//! [`CheckpointError::Damaged`], never data. The `fingerprint` is an
//! FNV-1a hash of the run configuration: a resume against a different
//! configuration misses (the stage recomputes and overwrites) rather
//! than resurrecting stale data. Floats are stored as IEEE-754 bit
//! patterns, so reloads are bit-identical.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use towerlens_artifact::{replace_durably, ArtifactError, Container, ContainerWriter, Dec};
use towerlens_obs::Failpoints;

use super::stage::{Card, StageCodec};

const TAG_STAGE: [u8; 8] = *b"stage   ";
const TAG_BODY: [u8; 8] = *b"body    ";

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
    /// The file exists but cannot be trusted: it fails the container
    /// check (empty, truncated, extended, a checksum, the magic, the
    /// section table) or its stage section or stage codec rejects it.
    Damaged {
        /// The file involved.
        path: String,
        /// The stage whose checkpoint is damaged.
        stage: String,
        /// What the container or codec found.
        error: ArtifactError,
    },
    /// The file was written under a different configuration
    /// fingerprint (reported by [`fsck_checkpoint`];
    /// [`CheckpointStore::load`] treats this as a cache miss instead).
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
            CheckpointError::Damaged { path, error, .. } => write!(f, "{path}: {error}"),
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

fn damaged(path: &Path, stage: &str) -> impl Fn(ArtifactError) -> CheckpointError {
    let (path, stage) = (path.display().to_string(), stage.to_string());
    move |error| CheckpointError::Damaged {
        path: path.clone(),
        stage: stage.clone(),
        error,
    }
}

/// FNV-1a over a byte slice — the engine's configuration fingerprint
/// (and the study report's content hash). Re-exported from the
/// artifact crate's canonical definition, so WAL segments, engine
/// checkpoints, and artifact sections can never drift onto different
/// checksums.
pub use towerlens_artifact::fnv1a64;

/// What a checkpoint's `stage` section records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageHeader {
    /// The stage the file belongs to.
    pub stage: String,
    /// The configuration fingerprint the file was written under.
    pub fingerprint: u64,
    /// The stage's instrumentation cards.
    pub cards: Vec<Card>,
}

/// The container check and the `stage` section of a checkpoint file:
/// its header, and its `body` payload still to decode.
fn open_checkpoint(bytes: &[u8]) -> Result<(StageHeader, &[u8]), ArtifactError> {
    let sections = Container::parse(bytes)?.sections()?;
    let [(TAG_STAGE, head), (TAG_BODY, body)] = sections[..] else {
        return Err(ArtifactError::Corrupt {
            section: "table".into(),
            reason: "a checkpoint holds exactly a `stage` and a `body` section".into(),
        });
    };
    let mut d = Dec::new(head, "stage");
    let stage = d.str()?;
    let fingerprint = d.u64()?;
    // A card is at least its value and its label's length.
    let n_cards = d.count(16)?;
    let mut cards = Vec::with_capacity(n_cards);
    for _ in 0..n_cards {
        let value = d.u64()?;
        cards.push(Card::new(d.str()?, value));
    }
    d.finish()?;
    let header = StageHeader {
        stage,
        fingerprint,
        cards,
    };
    Ok((header, body))
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
    /// checkpoint behind. Returns the length of the file written.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on filesystem failure,
    /// [`CheckpointError::Damaged`] when the codec rejects the
    /// artifact (wrong variant — a programming error surfaced as
    /// data).
    pub fn save<A>(
        &self,
        stage: &str,
        cards: &[Card],
        codec: &dyn StageCodec<A>,
        artifact: &A,
    ) -> Result<u64, CheckpointError> {
        self.injected_fault("save", stage)?;
        let path = self.path_of(stage);
        let mut file = ContainerWriter::new(2);
        let head = file.section(TAG_STAGE);
        head.str(stage);
        head.u64(self.fingerprint);
        head.usize(cards.len());
        for c in cards {
            head.u64(c.value);
            head.str(&c.label);
        }
        codec
            .encode(artifact, file.section(TAG_BODY))
            .map_err(|reason| {
                damaged(&path, stage)(ArtifactError::Corrupt {
                    section: "body".into(),
                    reason,
                })
            })?;
        let bytes = file.finish();
        replace_durably(&path, &bytes, "checkpoint", self.failpoints(), io_err)?;
        Ok(bytes.len() as u64)
    }

    /// Loads a stage artifact, if a valid checkpoint with a matching
    /// fingerprint exists. Returns `Ok(None)` for a missing file or a
    /// fingerprint mismatch (both mean "recompute"), and an error for
    /// a file that cannot be trusted.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on read failure, and
    /// [`CheckpointError::Damaged`] for a file that fails the container
    /// check, belongs to another stage, or whose body the codec
    /// rejects or does not consume exactly.
    pub fn load<A>(
        &self,
        stage: &str,
        codec: &dyn StageCodec<A>,
    ) -> Result<Option<(A, Vec<Card>)>, CheckpointError> {
        self.injected_fault("load", stage)?;
        let path = self.path_of(stage);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, e)),
        };
        let damaged = damaged(&path, stage);
        let (header, body) = open_checkpoint(&bytes).map_err(&damaged)?;
        if header.stage != stage {
            return Err(damaged(ArtifactError::Corrupt {
                section: "stage".into(),
                reason: format!("file is for stage `{}`", header.stage),
            }));
        }
        if header.fingerprint != self.fingerprint {
            // A checkpoint from a different configuration: stale, not
            // corrupt. Recompute (and overwrite on save).
            return Ok(None);
        }
        let mut d = Dec::new(body, "body");
        let artifact = codec.decode(&mut d).map_err(&damaged)?;
        d.finish().map_err(&damaged)?;
        Ok(Some((artifact, header.cards)))
    }
}

/// Audits a checkpoint file without decoding its body: the container
/// check every `doctor` target goes through (header, table, every
/// section checksum), then the checkpoint's own semantic check (the
/// two sections and a readable `stage` section). Passing
/// `expected_fingerprint` additionally pins the configuration — a
/// healthy file from another configuration reports
/// [`CheckpointError::FingerprintMismatch`] (unlike
/// [`CheckpointStore::load`], which treats that as a cache miss).
///
/// # Errors
/// Any [`CheckpointError`]; the stage named in errors is the file
/// stem.
pub fn fsck_checkpoint(
    path: &Path,
    expected_fingerprint: Option<u64>,
) -> Result<StageHeader, CheckpointError> {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?");
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    let (header, _) = open_checkpoint(&bytes).map_err(damaged(path, stem))?;
    match expected_fingerprint {
        Some(expected) if header.fingerprint != expected => {
            Err(CheckpointError::FingerprintMismatch {
                stage: header.stage,
                expected,
                found: header.fingerprint,
            })
        }
        _ => Ok(header),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use towerlens_artifact::Enc;

    /// A toy artifact: a labelled list of floats.
    #[derive(Debug, Clone, PartialEq)]
    struct Toy {
        name: String,
        values: Vec<f64>,
    }

    struct ToyCodec;

    impl StageCodec<Toy> for ToyCodec {
        fn encode(&self, artifact: &Toy, out: &mut Enc) -> Result<(), String> {
            out.str(&artifact.name);
            out.usize(artifact.values.len());
            out.f64s(&artifact.values);
            Ok(())
        }

        fn decode(&self, body: &mut Dec<'_>) -> Result<Toy, ArtifactError> {
            let name = body.str()?;
            if name.is_empty() {
                return Err(body.corrupt("unnamed toy"));
            }
            let n = body.count(8)?;
            let values = body.f64s(n)?;
            Ok(Toy { name, values })
        }
    }

    fn temp_store(tag: &str, fingerprint: u64) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("towerlens-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(dir, fingerprint).unwrap()
    }

    fn toy() -> Toy {
        Toy {
            name: "probe".into(),
            // Values chosen to break any decimal round-trip: an
            // irrational-ish sum, a subnormal, and negative zero.
            values: vec![0.1 + 0.2, f64::MIN_POSITIVE / 8.0, -0.0, 1.0e300],
        }
    }

    fn damage_of<T: std::fmt::Debug>(result: Result<T, CheckpointError>) -> ArtifactError {
        match result {
            Err(CheckpointError::Damaged { error, .. }) => error,
            other => panic!("expected a damaged checkpoint, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let store = temp_store("roundtrip", 7);
        let cards = vec![Card::new("values", 4)];
        let written = store.save("toy", &cards, &ToyCodec, &toy()).unwrap();
        let on_disk = std::fs::metadata(store.path_of("toy")).unwrap().len();
        assert_eq!(written, on_disk, "save returns the length it wrote");
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

    /// Each damage class the runner recomputes from, as the container
    /// or the codec reports it.
    #[test]
    fn each_damage_class_is_a_typed_error() {
        let store = temp_store("damage", 7);
        store.save("toy", &[], &ToyCodec, &toy()).unwrap();
        let path = store.path_of("toy");
        let pristine = std::fs::read(&path).unwrap();
        let load = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            damage_of(store.load("toy", &ToyCodec))
        };

        let empty = load(&[]);
        assert!(matches!(empty, ArtifactError::Truncated { got: 0, .. }));
        let cut = load(&pristine[..pristine.len() - 9]);
        assert!(matches!(cut, ArtifactError::Truncated { .. }), "{cut}");
        let mut flipped = pristine.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(
            load(&flipped),
            ArtifactError::SectionChecksum { section, .. } if section == "body"
        ));
        let mut magic = pristine.clone();
        magic[..8].copy_from_slice(b"towerlen");
        assert_eq!(load(&magic), ArtifactError::BadMagic);
        // A plain text file, the format older builds wrote, is damage
        // too: such a checkpoint recomputes.
        assert_eq!(load(b"stage toy\ncards 0\nend\n"), ArtifactError::BadMagic);
    }

    /// A body whose checksum holds but which the codec rejects (an
    /// empty name here), or which it does not consume to the end.
    #[test]
    fn bodies_the_codec_rejects_are_damage() {
        let store = temp_store("codec", 7);
        let unnamed = Toy {
            name: String::new(),
            values: vec![1.0],
        };
        store.save("toy", &[], &ToyCodec, &unnamed).unwrap();
        let error = damage_of(store.load("toy", &ToyCodec));
        assert_eq!(
            error,
            ArtifactError::Corrupt {
                section: "body".into(),
                reason: "unnamed toy".into()
            }
        );

        struct Longer;
        impl StageCodec<Toy> for Longer {
            fn encode(&self, artifact: &Toy, out: &mut Enc) -> Result<(), String> {
                ToyCodec.encode(artifact, out)?;
                out.u64(0);
                Ok(())
            }
            fn decode(&self, body: &mut Dec<'_>) -> Result<Toy, ArtifactError> {
                ToyCodec.decode(body)
            }
        }
        store.save("toy", &[], &Longer, &toy()).unwrap();
        let error = damage_of(store.load("toy", &ToyCodec));
        assert!(matches!(error, ArtifactError::Corrupt { .. }), "{error}");
    }

    #[test]
    fn a_file_for_another_stage_is_damage() {
        let store = temp_store("renamed", 7);
        store.save("toy", &[], &ToyCodec, &toy()).unwrap();
        std::fs::rename(store.path_of("toy"), store.path_of("other")).unwrap();
        let error = damage_of(store.load("other", &ToyCodec));
        assert!(matches!(error, ArtifactError::Corrupt { section, .. } if section == "stage"));
    }

    #[test]
    fn fsck_validates_and_reports() {
        let store = temp_store("fsck", 7);
        let cards = vec![Card::new("values", 4)];
        store.save("toy", &cards, &ToyCodec, &toy()).unwrap();
        let path = store.path_of("toy");

        let header = fsck_checkpoint(&path, Some(7)).unwrap();
        assert_eq!(header.stage, "toy");
        assert_eq!(header.fingerprint, 7);
        assert_eq!(header.cards, cards);

        // Unpinned fsck accepts any fingerprint; pinned fsck reports
        // the mismatch instead of treating it as a miss.
        assert!(fsck_checkpoint(&path, None).is_ok());
        match fsck_checkpoint(&path, Some(8)) {
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

        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let error = damage_of(fsck_checkpoint(&path, None));
        assert!(matches!(error, ArtifactError::SectionChecksum { .. }));
    }

    #[test]
    fn fnv1a64_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
