//! Every byte of a checkpoint is covered: flipping, truncating at or
//! appending after any offset of a saved checkpoint makes
//! `CheckpointStore::load` return a typed `CheckpointError` — never
//! data, and never a silent cache miss — and makes `doctor` call the
//! file corrupt.

use std::path::Path;

use towerlens_artifact::{ArtifactError, Dec, Enc};
use towerlens_cli::commands::{checkpoint_health, doctor_checkpoints, Health};
use towerlens_core::engine::{Card, CheckpointError, CheckpointStore, StageCodec};

/// A small artifact: a few integers.
struct Ints;

impl StageCodec<Vec<u64>> for Ints {
    fn encode(&self, artifact: &Vec<u64>, out: &mut Enc) -> Result<(), String> {
        out.usize(artifact.len());
        for &v in artifact {
            out.u64(v);
        }
        Ok(())
    }

    fn decode(&self, body: &mut Dec<'_>) -> Result<Vec<u64>, ArtifactError> {
        let n = body.count(8)?;
        (0..n).map(|_| body.u64()).collect()
    }
}

const FINGERPRINT: u64 = 0x5eed;

fn saved(tag: &str) -> (CheckpointStore, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!(
        "towerlens-ckpt-coverage-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir, FINGERPRINT).expect("open store");
    let cards = [Card::new("towers", 120), Card::new("zones", 7)];
    store
        .save("city", &cards, &Ints, &vec![3, 1, 4, 1, 5])
        .expect("save");
    let bytes = std::fs::read(store.path_of("city")).expect("read back");
    (store, bytes)
}

/// Loads `bytes` as the stage's checkpoint; the damage must surface as
/// a typed error that `doctor` classifies as corrupt.
fn assert_damaged(store: &CheckpointStore, bytes: &[u8], what: &str) -> ArtifactError {
    let path = store.path_of("city");
    std::fs::write(&path, bytes).expect("write damaged file");
    let error = match store.load("city", &Ints) {
        Err(CheckpointError::Damaged { error, .. }) => error,
        other => panic!("{what}: expected a damaged checkpoint, got {other:?}"),
    };
    let dir = path.parent().unwrap_or(Path::new("."));
    let rows = doctor_checkpoints(dir, Some(FINGERPRINT)).expect("doctor");
    assert_eq!(rows.len(), 1, "{what}");
    assert_eq!(
        checkpoint_health(&rows[0].1),
        Health::Corrupt,
        "{what}: doctor row {:?}",
        rows[0]
    );
    error
}

#[test]
fn every_flipped_truncated_or_appended_byte_is_damage() {
    let (store, pristine) = saved("every");
    let (loaded, cards) = store.load("city", &Ints).unwrap().unwrap();
    assert_eq!(loaded, vec![3, 1, 4, 1, 5]);
    assert_eq!(cards.len(), 2);
    for at in 0..pristine.len() {
        let mut flipped = pristine.clone();
        flipped[at] ^= 0x01;
        assert_damaged(&store, &flipped, &format!("flip at byte {at}"));
        assert_damaged(&store, &pristine[..at], &format!("truncation at byte {at}"));
    }
    for extra in [0u8, b'\n', 0xff] {
        let mut longer = pristine.clone();
        longer.push(extra);
        assert_damaged(&store, &longer, &format!("appended byte {extra:#04x}"));
    }
}

/// A changed byte inside a card value once reloaded as data: the text
/// checkpoint kept its header lines, cards included, outside the body
/// checksum, so `card 120 towers` edited to `card 130 towers` resumed
/// showing `towers=130` and passed `doctor`. Cards now live in the
/// checksummed `stage` section.
#[test]
fn a_changed_card_value_is_damage_not_data() {
    let (store, pristine) = saved("card");
    let value = 120u64.to_le_bytes();
    let at = pristine
        .windows(8)
        .position(|w| w == value)
        .expect("the card value is in the file");
    let mut edited = pristine.clone();
    edited[at..at + 8].copy_from_slice(&130u64.to_le_bytes());
    let error = assert_damaged(&store, &edited, "card value 120 -> 130");
    assert!(
        matches!(&error, ArtifactError::SectionChecksum { section, .. } if section == "stage"),
        "{error}"
    );
}

/// A stale checkpoint is not damage: loading it under another
/// fingerprint is a miss, and `doctor --fingerprint` calls it degraded.
#[test]
fn a_stale_fingerprint_is_a_miss_and_a_degraded_row() {
    let (store, _) = saved("stale");
    let path = store.path_of("city");
    let dir = path.parent().unwrap_or(Path::new("."));
    let other = CheckpointStore::open(dir, FINGERPRINT + 1).expect("open store");
    assert!(matches!(other.load("city", &Ints), Ok(None)));
    let rows = doctor_checkpoints(dir, Some(FINGERPRINT + 1)).expect("doctor");
    assert!(matches!(
        &rows[0].1,
        Err(CheckpointError::FingerprintMismatch { expected, found, .. })
            if *expected == FINGERPRINT + 1 && *found == FINGERPRINT
    ));
    assert_eq!(checkpoint_health(&rows[0].1), Health::Degraded);
    let rows = doctor_checkpoints(dir, Some(FINGERPRINT)).expect("doctor");
    assert_eq!(checkpoint_health(&rows[0].1), Health::Healthy);
}
