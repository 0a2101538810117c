//! Deterministic, seed-driven fault injection for robustness tests.
//!
//! The paper's pipeline ran for a month against a live operator feed
//! (§2), where collector hiccups — dropped batches, duplicated
//! retries, truncated flushes, skewed clocks, counter spikes, and
//! whole-tower blackouts — are routine. This module mutates record
//! streams and on-disk checkpoint files to reproduce those failure
//! classes on demand, so every robustness claim in the workspace is
//! exercised by a test rather than asserted in prose.
//!
//! All mutations are driven by a [SplitMix64] generator seeded
//! explicitly: the same seed always yields the same faults, which is
//! what lets `scripts/check.sh` pin its fault-injection pass to fixed
//! seeds.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::record::LogRecord;

/// SplitMix64: a tiny, high-quality, allocation-free generator. The
/// fault injector here draws from it, so its deterministic behaviour
/// is defined by this one implementation, not by whichever `rand`
/// shim the workspace carries.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator; the seed fully determines the stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A deterministic fault injector over record streams, serialized
/// dumps, and checkpoint files.
///
/// ```
/// use towerlens_trace::faults::FaultInjector;
/// use towerlens_trace::record::{parse_lines, to_lines, LogRecord};
///
/// let records = vec![LogRecord {
///     user_id: 1, start_s: 100, end_s: 700, cell_id: 0,
///     address: "BLK-1-1 Rd".into(), bytes: 500,
/// }; 20];
/// let mut inj = FaultInjector::new(7);
/// let mut faulty = records.clone();
/// let skewed = inj.skew_clocks(&mut faulty, 0.5);
/// let (ok, bad) = parse_lines(&to_lines(&faulty));
/// assert_eq!(bad.len(), skewed); // skewed clocks fail at parse
/// assert_eq!(ok.len(), records.len() - skewed);
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SplitMix64,
}

fn clamp01(fraction: f64) -> f64 {
    fraction.clamp(0.0, 1.0)
}

impl FaultInjector {
    /// Creates an injector; the seed fully determines every mutation.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: SplitMix64(seed),
        }
    }

    /// Drops roughly `fraction` of the records (collector losing
    /// batches). Returns the number removed.
    pub fn drop_records(&mut self, records: &mut Vec<LogRecord>, fraction: f64) -> usize {
        let fraction = clamp01(fraction);
        let before = records.len();
        let rng = &mut self.rng;
        records.retain(|_| rng.next_f64() >= fraction);
        before - records.len()
    }

    /// Duplicates roughly `fraction` of the records in place (each
    /// duplicate lands immediately after its original, like a
    /// collection-side retry). Returns the number of copies added.
    pub fn duplicate_records(&mut self, records: &mut Vec<LogRecord>, fraction: f64) -> usize {
        let fraction = clamp01(fraction);
        let mut out = Vec::with_capacity(records.len());
        let mut added = 0;
        for r in records.drain(..) {
            let dup = self.rng.next_f64() < fraction;
            out.push(r.clone());
            if dup {
                out.push(r);
                added += 1;
            }
        }
        *records = out;
        added
    }

    /// Swaps start/end timestamps on roughly `fraction` of the
    /// records with positive duration (a collector whose clock runs
    /// backwards). The mutated records fail parsing with
    /// [`crate::TraceError::NegativeDuration`] after a
    /// serialize/parse round trip. Returns the number skewed.
    pub fn skew_clocks(&mut self, records: &mut [LogRecord], fraction: f64) -> usize {
        let fraction = clamp01(fraction);
        let mut skewed = 0;
        for r in records.iter_mut() {
            if r.end_s > r.start_s && self.rng.next_f64() < fraction {
                std::mem::swap(&mut r.start_s, &mut r.end_s);
                skewed += 1;
            }
        }
        skewed
    }

    /// Multiplies the byte counter of roughly `fraction` of the
    /// records by `factor` (saturating) — the classic stuck/overflowed
    /// counter spike. Returns the number spiked.
    pub fn spike_bytes(&mut self, records: &mut [LogRecord], fraction: f64, factor: u64) -> usize {
        let fraction = clamp01(fraction);
        let mut spiked = 0;
        for r in records.iter_mut() {
            if self.rng.next_f64() < fraction {
                r.bytes = r.bytes.saturating_mul(factor);
                spiked += 1;
            }
        }
        spiked
    }

    /// Removes every record of `cell_id` whose connection overlaps
    /// `[start_s, end_s)` — a tower going dark for a window. This one
    /// is fully deterministic (no randomness); it lives here so the
    /// whole fault vocabulary shares one entry point. Returns the
    /// number removed.
    pub fn blackout(
        &mut self,
        records: &mut Vec<LogRecord>,
        cell_id: u32,
        start_s: u64,
        end_s: u64,
    ) -> usize {
        let before = records.len();
        records.retain(|r| r.cell_id != cell_id || r.end_s < start_s || r.start_s >= end_s);
        before - records.len()
    }

    /// Cuts roughly `fraction` of the lines of a serialized dump at a
    /// random character boundary (partial collector flush). Returns
    /// the mutated text and the number of lines truncated.
    pub fn truncate_lines(&mut self, text: &str, fraction: f64) -> (String, usize) {
        let fraction = clamp01(fraction);
        let mut out = String::with_capacity(text.len());
        let mut cut = 0;
        for line in text.lines() {
            if !line.is_empty() && self.rng.next_f64() < fraction {
                let boundaries: Vec<usize> = line.char_indices().map(|(i, _)| i).collect();
                let at = boundaries[self.rng.below(boundaries.len())];
                out.push_str(&line[..at]);
                cut += 1;
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        (out, cut)
    }

    /// Truncates a file to `keep_fraction` of its length (a partial
    /// write caught by a crash). Returns the new length in bytes.
    ///
    /// # Errors
    /// Propagates I/O failures from opening or resizing the file.
    pub fn truncate_file(&mut self, path: &Path, keep_fraction: f64) -> std::io::Result<u64> {
        let keep_fraction = clamp01(keep_fraction);
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        let len = file.metadata()?.len();
        let new_len = (len as f64 * keep_fraction) as u64;
        file.set_len(new_len)?;
        Ok(new_len)
    }

    /// Flips one bit of one byte at a seed-chosen offset (bit rot /
    /// torn sector). Returns the offset flipped.
    ///
    /// # Errors
    /// Propagates I/O failures; an empty file yields
    /// [`std::io::ErrorKind::UnexpectedEof`].
    pub fn flip_byte(&mut self, path: &Path) -> std::io::Result<u64> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "cannot flip a byte of an empty file",
            ));
        }
        let offset = self.rng.below(len as usize) as u64;
        let mut byte = [0u8; 1];
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut byte)?;
        byte[0] ^= 0x01;
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(&byte)?;
        Ok(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{parse_lines, to_lines};

    fn fleet(n: usize) -> Vec<LogRecord> {
        (0..n)
            .map(|i| LogRecord {
                user_id: i as u64,
                start_s: 1_000 + 100 * i as u64,
                end_s: 1_600 + 100 * i as u64,
                cell_id: (i % 4) as u32,
                address: format!("BLK-1-{} Rd", i % 4),
                bytes: 1_000 + i as u64,
            })
            .collect()
    }

    #[test]
    fn same_seed_same_faults() {
        let base = fleet(200);
        let run = |seed| {
            let mut inj = FaultInjector::new(seed);
            let mut r = base.clone();
            inj.drop_records(&mut r, 0.2);
            inj.duplicate_records(&mut r, 0.1);
            inj.skew_clocks(&mut r, 0.1);
            r
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn drop_and_duplicate_change_counts() {
        let mut inj = FaultInjector::new(1);
        let mut r = fleet(500);
        let dropped = inj.drop_records(&mut r, 0.3);
        assert_eq!(r.len(), 500 - dropped);
        assert!(dropped > 50 && dropped < 250, "dropped {dropped}");
        let added = inj.duplicate_records(&mut r, 0.2);
        assert_eq!(r.len(), 500 - dropped + added);
        assert!(added > 0);
    }

    #[test]
    fn duplicates_are_adjacent_to_originals() {
        let mut inj = FaultInjector::new(5);
        let mut r = fleet(100);
        inj.duplicate_records(&mut r, 0.5);
        let mut seen_dup = false;
        for pair in r.windows(2) {
            if pair[0] == pair[1] {
                seen_dup = true;
            }
        }
        assert!(seen_dup);
    }

    #[test]
    fn skewed_clocks_fail_parse_as_negative_duration() {
        let mut inj = FaultInjector::new(9);
        let mut r = fleet(50);
        let skewed = inj.skew_clocks(&mut r, 0.4);
        assert!(skewed > 0);
        let (ok, bad) = parse_lines(&to_lines(&r));
        assert_eq!(bad.len(), skewed);
        assert_eq!(ok.len(), 50 - skewed);
        assert!(bad
            .iter()
            .all(|e| matches!(e, crate::TraceError::NegativeDuration { .. })));
    }

    #[test]
    fn spike_multiplies_bytes_saturating() {
        let mut inj = FaultInjector::new(2);
        let mut r = fleet(40);
        let spiked = inj.spike_bytes(&mut r, 0.5, u64::MAX);
        assert!(spiked > 0);
        assert_eq!(r.iter().filter(|x| x.bytes == u64::MAX).count(), spiked);
    }

    #[test]
    fn blackout_removes_only_overlapping_records_of_the_tower() {
        let mut inj = FaultInjector::new(0);
        let mut r = fleet(100);
        let tower1_before = r.iter().filter(|x| x.cell_id == 1).count();
        let removed = inj.blackout(&mut r, 1, 0, u64::MAX);
        assert_eq!(removed, tower1_before);
        assert!(r.iter().all(|x| x.cell_id != 1));
        // A window touching nothing removes nothing.
        assert_eq!(inj.blackout(&mut r, 2, u64::MAX - 1, u64::MAX), 0);
    }

    #[test]
    fn truncated_lines_become_parse_errors() {
        let mut inj = FaultInjector::new(11);
        let dump = to_lines(&fleet(60));
        let (mutated, cut) = inj.truncate_lines(&dump, 0.3);
        assert!(cut > 0);
        let (ok, bad) = parse_lines(&mutated);
        // Every surviving line parses; cut lines mostly fail (a cut at
        // the end of the line can leave it parseable).
        assert!(ok.len() >= 60 - cut);
        assert!(!bad.is_empty());
    }

    #[test]
    fn file_faults_truncate_and_flip() {
        let dir = std::env::temp_dir().join(format!("towerlens-faults-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.txt");
        std::fs::write(&path, b"0123456789abcdef").unwrap();

        let mut inj = FaultInjector::new(3);
        let new_len = inj.truncate_file(&path, 0.5).unwrap();
        assert_eq!(new_len, 8);
        assert_eq!(std::fs::read(&path).unwrap(), b"01234567");

        let offset = inj.flip_byte(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[offset as usize], b"01234567"[offset as usize] ^ 0x01);

        std::fs::write(&path, b"").unwrap();
        assert!(inj.flip_byte(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
