//! The generation store: hot-reloadable snapshot publishing with a
//! last-good fallback.
//!
//! A long-running `towerlens serve` publishes each fresh study
//! snapshot as an immutable `gen-%08d.artifact` file plus an atomic
//! `CURRENT` pointer file naming the newest generation — the same
//! temp + fsync + rename discipline the WAL uses, so a crash at any
//! instant leaves either the old pointer or the new one, never a torn
//! store. A long-running `towerlens query --watch` follows the
//! pointer: [`Watcher::reload`] fully decodes (and therefore
//! checksums) each new generation *before* an atomic in-memory swap,
//! and stays on the last-good generation — flipping a degraded health
//! flag rather than crashing — when the new one is corrupt or torn.
//!
//! Publish order (each step is crash-atomic on its own):
//!
//! 1. write `gen-N.artifact.tmp`, fsync;
//! 2. rename to `gen-N.artifact`, fsync the directory;
//! 3. write `CURRENT.tmp` naming `gen-N.artifact`, fsync;
//! 4. rename to `CURRENT`, fsync the directory.
//!
//! Steps 1–2 and 3–4 are each one [`crate::replace_durably`] call,
//! whose failpoints are `publish.gen.tmp` / `publish.gen` and
//! `publish.cur.tmp` / `publish.cur`: the chaos suite aborts `serve`
//! at each of them on its `n`-th actual publish (`abort@<n>`).
//!
//! A reader that finds `CURRENT` naming a missing or corrupt file
//! (possible only under byte corruption, not under crashes) falls
//! back to the newest generation that fully decodes. Publishing is
//! idempotent: when `CURRENT` already names a generation whose bytes
//! equal the would-be snapshot, [`Publisher::publish`] is a no-op, so
//! a crashed-and-restarted publisher converges instead of minting
//! duplicate generations forever.

use std::path::{Path, PathBuf};

use towerlens_obs::{Failpoints, LazyCounter};

use crate::container::{io_err, ArtifactError};
use crate::durable::replace_durably;
use crate::format::Snapshot;
use crate::query::QueryIndex;

static QUERY_RELOADS: LazyCounter = LazyCounter::new("query.reload_total");
static QUERY_RELOAD_REJECTED: LazyCounter = LazyCounter::new("query.reload_rejected_total");

/// Name of the pointer file naming the current generation.
pub const CURRENT_POINTER: &str = "CURRENT";

/// File name of generation `n` (`gen-00000001.artifact`).
#[must_use]
pub fn generation_name(n: u64) -> String {
    format!("gen-{n:08}.artifact")
}

/// Parses a generation file name back to its number; `None` for
/// anything that is not exactly `gen-<digits>.artifact`.
#[must_use]
pub fn parse_generation_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("gen-")?.strip_suffix(".artifact")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// All generation numbers present in `dir`, ascending.
///
/// # Errors
/// [`ArtifactError::Io`] when the directory cannot be listed.
pub fn list_generations(dir: &Path) -> Result<Vec<u64>, ArtifactError> {
    let mut generations = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        if let Some(n) = entry.file_name().to_str().and_then(parse_generation_name) {
            generations.push(n);
        }
    }
    generations.sort_unstable();
    Ok(generations)
}

/// Reads the `CURRENT` pointer; `Ok(None)` when it does not exist.
///
/// # Errors
/// [`ArtifactError::Io`] on any failure other than the pointer being
/// absent.
pub fn read_current(dir: &Path) -> Result<Option<String>, ArtifactError> {
    let path = dir.join(CURRENT_POINTER);
    match std::fs::read_to_string(&path) {
        Ok(text) => Ok(Some(text.trim().to_string())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(&path, e)),
    }
}

// ------------------------------------------------------------ publisher

/// The producer half of the generation store. One per publishing
/// process; counts the real publishes it has performed.
#[derive(Debug)]
pub struct Publisher {
    dir: PathBuf,
    failpoints: Option<Failpoints>,
    published: u64,
}

impl Publisher {
    /// Opens (creating if needed) the generation store at `dir`.
    /// `failpoints` overrides the process registry
    /// ([`towerlens_obs::failpoints`]) for this publisher's `publish.*`
    /// points; `None` uses the process registry.
    ///
    /// # Errors
    /// [`ArtifactError::Io`] when the directory cannot be created.
    pub fn open(dir: &Path, failpoints: Option<Failpoints>) -> Result<Publisher, ArtifactError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        Ok(Publisher {
            dir: dir.to_path_buf(),
            failpoints,
            published: 0,
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Real (non-idempotent-no-op) publishes this process performed.
    #[must_use]
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Publishes a snapshot as the next generation and moves
    /// `CURRENT` to it, returning the generation number. Idempotent:
    /// when `CURRENT` already names a generation whose bytes equal
    /// this snapshot's encoding, nothing is written and the existing
    /// generation number is returned — so a publisher that crashed
    /// mid-publish and restarted converges instead of growing the
    /// store forever.
    ///
    /// # Errors
    /// [`ArtifactError::Io`] on any filesystem failure.
    pub fn publish(&mut self, snapshot: &Snapshot) -> Result<u64, ArtifactError> {
        let bytes = snapshot.encode();
        if let Ok(Some(name)) = read_current(&self.dir) {
            if let Some(n) = parse_generation_name(&name) {
                if let Ok(existing) = std::fs::read(self.dir.join(&name)) {
                    if existing == bytes {
                        return Ok(n);
                    }
                }
            }
        }
        self.published += 1;
        let fp = match &self.failpoints {
            Some(fp) => fp,
            None => towerlens_obs::failpoints(),
        };
        let generation = list_generations(&self.dir)?.last().copied().unwrap_or(0) + 1;
        let name = generation_name(generation);
        replace_durably(&self.dir.join(&name), &bytes, "publish.gen", fp, io_err)?;
        replace_durably(
            &self.dir.join(CURRENT_POINTER),
            format!("{name}\n").as_bytes(),
            "publish.cur",
            fp,
            io_err,
        )?;
        Ok(generation)
    }
}

// ------------------------------------------------------------- resolver

/// The outcome of resolving a generation store to a servable
/// snapshot.
#[derive(Debug)]
pub struct Resolved {
    /// The generation being served.
    pub generation: u64,
    /// Its fully decoded (and therefore checksum-verified) snapshot.
    pub snapshot: Snapshot,
    /// True when this is *not* the generation `CURRENT` names — the
    /// pointer is missing, unparseable, or names a generation that
    /// failed to decode, and the store fell back to the newest good
    /// one.
    pub degraded: bool,
    /// Why the resolution is degraded, when it is.
    pub note: Option<String>,
}

/// Resolves a store directory to the generation `CURRENT` names,
/// falling back to the newest generation that fully decodes when the
/// pointed-to one is missing, torn, or corrupt. A generation is only
/// ever served after a full decode, which verifies every section
/// checksum — bytes from a generation that fails fsck are never
/// served.
///
/// # Errors
/// [`ArtifactError::Io`] when the directory cannot be read, or the
/// last decode error when no generation decodes at all.
pub fn resolve_latest(dir: &Path) -> Result<Resolved, ArtifactError> {
    let target = read_current(dir)?
        .as_deref()
        .and_then(parse_generation_name);
    let mut candidates: Vec<u64> = Vec::new();
    if let Some(n) = target {
        candidates.push(n);
    }
    let mut rest = list_generations(dir)?;
    rest.reverse();
    candidates.extend(rest.into_iter().filter(|&n| Some(n) != target));
    let mut note: Option<String> = None;
    let mut last_err: Option<ArtifactError> = None;
    for generation in candidates {
        match crate::format::read_snapshot(&dir.join(generation_name(generation))) {
            Ok(snapshot) => {
                let degraded = Some(generation) != target;
                return Ok(Resolved {
                    generation,
                    snapshot,
                    degraded,
                    note: if degraded {
                        Some(note.unwrap_or_else(|| {
                            format!("{CURRENT_POINTER} pointer missing or unparseable")
                        }))
                    } else {
                        None
                    },
                });
            }
            Err(e) => {
                if note.is_none() {
                    note = Some(format!("{}: {e}", generation_name(generation)));
                }
                last_err = Some(e);
            }
        }
    }
    Err(last_err.unwrap_or_else(|| {
        io_err(
            &dir.join(CURRENT_POINTER),
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "generation store has no generations",
            ),
        )
    }))
}

// -------------------------------------------------------------- watcher

/// The consumer half of the generation store: a [`QueryIndex`] that
/// follows the `CURRENT` pointer. [`Watcher::reload`] swaps the
/// in-memory index atomically (from the caller's point of view: it
/// either fully swaps or fully keeps the old index) and never swaps
/// to a generation that fails its full decode — the last-good
/// generation keeps serving and the watcher reports itself degraded.
#[derive(Debug)]
pub struct Watcher {
    dir: PathBuf,
    index: QueryIndex,
    generation: u64,
    degraded: bool,
    reloads: u64,
    rejected: u64,
}

impl Watcher {
    /// Opens the store and loads its best generation.
    ///
    /// # Errors
    /// Any [`resolve_latest`] error (empty store, nothing decodes).
    pub fn open(dir: &Path) -> Result<Watcher, ArtifactError> {
        let resolved = resolve_latest(dir)?;
        Ok(Watcher {
            dir: dir.to_path_buf(),
            index: QueryIndex::new(resolved.snapshot),
            generation: resolved.generation,
            degraded: resolved.degraded,
            reloads: 0,
            rejected: 0,
        })
    }

    /// The live index.
    #[must_use]
    pub fn index(&self) -> &QueryIndex {
        &self.index
    }

    /// The generation currently served.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True when the watcher is not serving the generation `CURRENT`
    /// names (fallback after a corrupt or torn publish).
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Re-resolves the store. Three outcomes, each a one-line
    /// human-readable report:
    ///
    /// * `CURRENT` still names the served generation — a no-op;
    /// * a new generation fully decodes — atomic swap, counted under
    ///   `query.reload_total`, and the degraded flag clears;
    /// * the new generation is corrupt, torn, or the store is
    ///   unreadable — the swap is rejected, counted under
    ///   `query.reload_rejected_total`, the degraded flag is set, and
    ///   the last-good index keeps serving.
    pub fn reload(&mut self) -> String {
        match resolve_latest(&self.dir) {
            Ok(resolved) => {
                // A degraded resolution means the generation CURRENT
                // names failed to decode and the store fell back —
                // that is a rejected reload, whatever the fallback
                // was, and the last-good index keeps serving.
                if resolved.degraded {
                    self.rejected += 1;
                    QUERY_RELOAD_REJECTED.inc();
                    self.degraded = true;
                    return format!(
                        "reload rejected: {} (serving gen={})",
                        resolved.note.unwrap_or_else(|| "degraded store".into()),
                        self.generation
                    );
                }
                if resolved.generation == self.generation {
                    // CURRENT cleanly names what we already serve.
                    self.degraded = false;
                    return format!("reload gen={} noop", self.generation);
                }
                let was = self.generation;
                self.index = QueryIndex::new(resolved.snapshot);
                self.generation = resolved.generation;
                self.degraded = false;
                self.reloads += 1;
                QUERY_RELOADS.inc();
                format!("reload gen={} ok (was gen={was})", self.generation)
            }
            Err(e) => {
                self.rejected += 1;
                QUERY_RELOAD_REJECTED.inc();
                self.degraded = true;
                format!("reload rejected: {e} (serving gen={})", self.generation)
            }
        }
    }

    /// One-line health report:
    /// `health gen=<n> degraded=<yes|no> reloads=<a> rejected=<b>`.
    #[must_use]
    pub fn health(&self) -> String {
        format!(
            "health gen={} degraded={} reloads={} rejected={}",
            self.generation,
            if self.degraded { "yes" } else { "no" },
            self.reloads,
            self.rejected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::sample_snapshot;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("towerlens-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn variant(fingerprint: u64) -> Snapshot {
        let mut snapshot = sample_snapshot();
        snapshot.meta.fingerprint = fingerprint;
        snapshot
    }

    #[test]
    fn generation_names_round_trip_and_reject_imposters() {
        assert_eq!(generation_name(3), "gen-00000003.artifact");
        assert_eq!(parse_generation_name("gen-00000003.artifact"), Some(3));
        assert_eq!(parse_generation_name("gen-00000003.artifact.tmp"), None);
        assert_eq!(parse_generation_name("gen-.artifact"), None);
        assert_eq!(parse_generation_name("gen-x3.artifact"), None);
        assert_eq!(parse_generation_name("study.artifact"), None);
    }

    #[test]
    fn publish_advances_generations_and_current_and_is_idempotent() {
        let dir = tmp("publish");
        let mut publisher = Publisher::open(&dir, None).unwrap();
        assert_eq!(publisher.publish(&variant(1)).unwrap(), 1);
        assert_eq!(publisher.publish(&variant(2)).unwrap(), 2);
        assert_eq!(
            read_current(&dir).unwrap().as_deref(),
            Some("gen-00000002.artifact")
        );
        // Same bytes again: no third generation.
        assert_eq!(publisher.publish(&variant(2)).unwrap(), 2);
        assert_eq!(list_generations(&dir).unwrap(), vec![1, 2]);
        let resolved = resolve_latest(&dir).unwrap();
        assert_eq!(resolved.generation, 2);
        assert!(!resolved.degraded);
        assert_eq!(resolved.snapshot.meta.fingerprint, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_current_generation_falls_back_to_last_good() {
        let dir = tmp("fallback");
        let mut publisher = Publisher::open(&dir, None).unwrap();
        publisher.publish(&variant(1)).unwrap();
        publisher.publish(&variant(2)).unwrap();
        // Flip one byte near the end of the pointed-to generation.
        let target = dir.join(generation_name(2));
        let mut bytes = std::fs::read(&target).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&target, bytes).unwrap();
        let resolved = resolve_latest(&dir).unwrap();
        assert_eq!(resolved.generation, 1);
        assert!(resolved.degraded);
        assert!(resolved.note.unwrap().contains("gen-00000002.artifact"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watcher_swaps_on_good_publishes_and_rejects_corrupt_ones() {
        let dir = tmp("watcher");
        let mut publisher = Publisher::open(&dir, None).unwrap();
        publisher.publish(&variant(1)).unwrap();
        let mut watcher = Watcher::open(&dir).unwrap();
        assert_eq!(watcher.generation(), 1);
        assert!(!watcher.degraded());
        assert_eq!(watcher.reload(), "reload gen=1 noop");
        // A good publish swaps.
        publisher.publish(&variant(2)).unwrap();
        assert_eq!(watcher.reload(), "reload gen=2 ok (was gen=1)");
        assert_eq!(watcher.index().snapshot().meta.fingerprint, 2);
        // A corrupt publish is rejected; last-good keeps serving.
        publisher.publish(&variant(3)).unwrap();
        let target = dir.join(generation_name(3));
        let mut bytes = std::fs::read(&target).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&target, bytes).unwrap();
        let report = watcher.reload();
        assert!(report.starts_with("reload rejected: "), "{report}");
        assert!(report.contains("serving gen=2"), "{report}");
        assert_eq!(watcher.index().snapshot().meta.fingerprint, 2);
        assert!(watcher.degraded());
        assert_eq!(
            watcher.health(),
            "health gen=2 degraded=yes reloads=1 rejected=1"
        );
        // Repairing the store (a fresh good publish) clears degraded.
        let repaired = variant(4);
        std::fs::write(&target, repaired.encode()).unwrap();
        assert_eq!(watcher.reload(), "reload gen=3 ok (was gen=2)");
        assert!(!watcher.degraded());
        assert_eq!(
            watcher.health(),
            "health gen=3 degraded=no reloads=2 rejected=1"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tmp_files_are_invisible_to_readers() {
        let dir = tmp("torn");
        let mut publisher = Publisher::open(&dir, None).unwrap();
        publisher.publish(&variant(1)).unwrap();
        // A torn publish: temp written, never renamed.
        std::fs::write(dir.join("gen-00000002.artifact.tmp"), b"half").unwrap();
        std::fs::write(dir.join("CURRENT.tmp"), b"gen-00000009.artifact\n").unwrap();
        assert_eq!(list_generations(&dir).unwrap(), vec![1]);
        let resolved = resolve_latest(&dir).unwrap();
        assert_eq!(resolved.generation, 1);
        assert!(!resolved.degraded);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
