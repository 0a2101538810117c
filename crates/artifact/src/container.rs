//! The one durable container: magic, version, section table, FNV-1a
//! checksums, and the little-endian field codec inside the sections.
//!
//! Every file towerlens writes to be read back — query artifacts,
//! published generations, stage checkpoints and serve snapshots — is
//! laid out as (all integers little-endian):
//!
//! | bytes             | field                                        |
//! |-------------------|----------------------------------------------|
//! | `0..8`            | magic `TLARTFCT`                             |
//! | `8..12`           | format version (`u32`, currently 1)          |
//! | `12..16`          | section count `n` (`u32`)                    |
//! | `16..16+32n`      | section table, 32 bytes per entry            |
//! | `16+32n..24+32n`  | header checksum (FNV-1a of bytes `0..16+32n`)|
//! | `24+32n..EOF`     | section payloads, contiguous, in table order |
//!
//! Each table entry is `tag[8]` (ASCII, space-padded), `offset: u64`
//! (from byte 0 of the file), `len: u64`, and `checksum: u64` (FNV-1a
//! of the payload bytes). Payloads tile the file: the first starts
//! right after the header checksum, each next one where the previous
//! ended, and the file ends exactly at the last payload's end.
//! Together with the two checksum layers this makes *any* single-byte
//! corruption detectable: a flip in a payload trips its section
//! checksum, a flip in the header or table trips the header checksum,
//! and appending or truncating bytes trips the length check.
//!
//! Which sections a file holds is its kind's business: [`crate::format`]
//! defines the query artifact's, the engine's checkpoint store a
//! `stage` and a `body` section. Inside a section, [`Enc`] writes and
//! [`Dec`] reads fixed-width fields — `u64` integers, `f64`s as their
//! IEEE-754 bit patterns (so a reload is bit-identical), and
//! length-prefixed UTF-8 strings.

use std::fmt;
use std::path::Path;

/// Leading file magic.
pub const MAGIC: [u8; 8] = *b"TLARTFCT";
/// Current format version.
pub const VERSION: u32 = 1;
/// Hard ceiling on the section count — a structural sanity bound so a
/// corrupted count can never drive an over-allocation.
pub const MAX_SECTIONS: u32 = 64;

/// 64-bit FNV-1a: the container's checksum, and the workspace's
/// configuration fingerprint and WAL entry checksum.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.update(bytes);
    hash.finish()
}

/// Streaming 64-bit FNV-1a: bytes fed in any number of pieces hash as
/// their concatenation would under [`fnv1a64`], so a checksum over
/// several fields needs no joined copy of them.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The state before any byte (the FNV-1a offset basis).
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything fed so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Everything that can go wrong reading or writing a container file.
/// All decode paths return one of these — they never panic, and a
/// checksum failure is always surfaced rather than yielding a wrong
/// answer. I/O errors are carried rendered, so the error stays
/// `Clone` and `Eq` (and embeddable in the engine's checkpoint error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Filesystem failure.
    Io {
        /// The offending path.
        path: String,
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is newer than this reader understands.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The file is shorter than its own layout claims.
    Truncated {
        /// Bytes the layout requires.
        needed: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The header/table bytes fail their checksum.
    HeaderChecksum {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum recomputed over the header bytes.
        found: u64,
    },
    /// A section payload fails its table checksum.
    SectionChecksum {
        /// The section's tag.
        section: String,
        /// Checksum recorded in the table.
        expected: u64,
        /// Checksum recomputed over the payload.
        found: u64,
    },
    /// A section decodes to structurally invalid data.
    Corrupt {
        /// The section's tag.
        section: String,
        /// What was wrong.
        reason: String,
    },
    /// A section the file's kind requires is absent.
    MissingSection {
        /// The missing tag.
        section: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io { path, message } => write!(f, "io {path}: {message}"),
            ArtifactError::BadMagic => write!(f, "not a towerlens artifact (bad magic)"),
            ArtifactError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported artifact version {found} (reader speaks {VERSION})"
                )
            }
            ArtifactError::Truncated { needed, got } => {
                write!(
                    f,
                    "truncated artifact: layout needs {needed} bytes, file has {got}"
                )
            }
            ArtifactError::HeaderChecksum { expected, found } => write!(
                f,
                "header checksum mismatch: recorded {expected:016x}, computed {found:016x}"
            ),
            ArtifactError::SectionChecksum {
                section,
                expected,
                found,
            } => write!(
                f,
                "section `{section}` checksum mismatch: recorded {expected:016x}, \
                 computed {found:016x}"
            ),
            ArtifactError::Corrupt { section, reason } => {
                write!(f, "section `{section}` corrupt: {reason}")
            }
            ArtifactError::MissingSection { section } => {
                write!(f, "required section `{section}` missing")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

pub(crate) fn io_err(path: &Path, e: std::io::Error) -> ArtifactError {
    ArtifactError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// A section tag with its space padding stripped.
pub(crate) fn tag_str(tag: &[u8; 8]) -> String {
    String::from_utf8_lossy(tag).trim_end().to_string()
}

// ------------------------------------------------------------ fields

/// Appends fixed-width little-endian fields to a section payload.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a run of `f64`s (no length prefix).
    pub fn f64s(&mut self, values: &[f64]) {
        self.buf.reserve(values.len() * 8);
        for &v in values {
            self.f64(v);
        }
    }

    /// Reserves room for exactly `additional` more bytes, so an
    /// encoder that knows its size up front never regrows the buffer.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve_exact(additional);
    }

    /// Writes raw bytes (no length prefix).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// The bytes written so far.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads the fields [`Enc`] writes back out of one section payload.
/// Every read is bounds-checked against the payload; a short or
/// malformed payload is an [`ArtifactError::Corrupt`] naming the
/// section, never a panic.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Dec<'a> {
    /// A reader over `bytes`, the payload of `section`.
    #[must_use]
    pub fn new(bytes: &'a [u8], section: &'static str) -> Dec<'a> {
        Dec {
            bytes,
            pos: 0,
            section,
        }
    }

    /// A [`ArtifactError::Corrupt`] for this section — the error a
    /// section codec raises for content it rejects.
    #[must_use]
    pub fn corrupt(&self, reason: impl Into<String>) -> ArtifactError {
        ArtifactError::Corrupt {
            section: self.section.to_string(),
            reason: reason.into(),
        }
    }

    /// Bytes not yet read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if n > self.remaining() {
            return Err(self.corrupt("payload shorter than its own layout"));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    /// [`ArtifactError::Corrupt`] past the end of the payload.
    pub fn u64(&mut self) -> Result<u64, ArtifactError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a `u64` that must fit a `usize`.
    ///
    /// # Errors
    /// As [`Dec::u64`], or when the value overflows `usize`.
    pub fn usize(&mut self) -> Result<usize, ArtifactError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("count {v} overflows usize")))
    }

    /// Reads the length of a list whose items take at least
    /// `item_bytes` each, and checks it against the bytes left, so a
    /// damaged count can never size an allocation beyond the payload.
    ///
    /// # Errors
    /// As [`Dec::usize`], or when the items cannot fit what is left.
    pub fn count(&mut self, item_bytes: usize) -> Result<usize, ArtifactError> {
        let n = self.usize()?;
        if n > self.remaining() / item_bytes.max(1) {
            return Err(self.corrupt(format!("count {n} exceeds payload size")));
        }
        Ok(n)
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    /// As [`Dec::u64`].
    pub fn f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `n` `f64`s written by [`Enc::f64s`].
    ///
    /// # Errors
    /// [`ArtifactError::Corrupt`] when fewer than `n` values remain.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, ArtifactError> {
        let len = n
            .checked_mul(8)
            .ok_or_else(|| self.corrupt(format!("{n} values overflow the payload")))?;
        Ok(self
            .take(len)?
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk"))))
            .collect())
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`ArtifactError::Corrupt`] for a length beyond the payload or
    /// bytes that are not UTF-8.
    pub fn str(&mut self) -> Result<String, ArtifactError> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("string is not UTF-8"))
    }

    /// Checks that the whole payload was read.
    ///
    /// # Errors
    /// [`ArtifactError::Corrupt`] when bytes are left over.
    pub fn finish(&self) -> Result<(), ArtifactError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes after payload", self.remaining())));
        }
        Ok(())
    }
}

// ------------------------------------------------------------ writer

/// Builds one container file in a single buffer: the header is
/// reserved up front, each section's payload is written in place
/// through [`ContainerWriter::section`], and [`ContainerWriter::finish`]
/// fills in the table and both checksum layers.
#[derive(Debug)]
pub struct ContainerWriter {
    enc: Enc,
    sections: usize,
    starts: Vec<([u8; 8], usize)>,
}

impl ContainerWriter {
    /// Starts a file that will hold exactly `sections` sections.
    #[must_use]
    pub fn new(sections: usize) -> ContainerWriter {
        ContainerWriter {
            enc: Enc {
                buf: vec![0; 24 + 32 * sections],
            },
            sections,
            starts: Vec::with_capacity(sections),
        }
    }

    /// Opens the next section: what is written through the returned
    /// encoder, until the next call or [`ContainerWriter::finish`], is
    /// its payload.
    pub fn section(&mut self, tag: [u8; 8]) -> &mut Enc {
        self.starts.push((tag, self.enc.buf.len()));
        &mut self.enc
    }

    /// The finished file.
    ///
    /// # Panics
    /// When the number of sections opened is not the number declared
    /// to [`ContainerWriter::new`] — a programming error.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        let n = self.sections;
        assert_eq!(self.starts.len(), n, "container declared {n} sections");
        let mut buf = self.enc.buf;
        let header_len = 16 + 32 * n;
        buf[0..8].copy_from_slice(&MAGIC);
        buf[8..12].copy_from_slice(&VERSION.to_le_bytes());
        buf[12..16].copy_from_slice(&(n as u32).to_le_bytes());
        for (i, &(tag, start)) in self.starts.iter().enumerate() {
            let end = self.starts.get(i + 1).map_or(buf.len(), |next| next.1);
            let checksum = fnv1a64(&buf[start..end]);
            let entry = &mut buf[16 + 32 * i..16 + 32 * (i + 1)];
            entry[0..8].copy_from_slice(&tag);
            entry[8..16].copy_from_slice(&(start as u64).to_le_bytes());
            entry[16..24].copy_from_slice(&((end - start) as u64).to_le_bytes());
            entry[24..32].copy_from_slice(&checksum.to_le_bytes());
        }
        let header_sum = fnv1a64(&buf[..header_len]);
        buf[header_len..header_len + 8].copy_from_slice(&header_sum.to_le_bytes());
        // Callers hold the file while they write or compare it, and
        // growth may have left up to twice its size allocated. A body
        // encoded after an exact `Enc::reserve` leaves nothing to free.
        buf.shrink_to_fit();
        buf
    }
}

// ------------------------------------------------------------ reader

struct TableEntry {
    tag: [u8; 8],
    offset: usize,
    len: usize,
    checksum: u64,
}

/// A section of a parsed container: its tag and its payload.
pub type Section<'a> = ([u8; 8], &'a [u8]);

/// A container whose header has been checked — magic, version, section
/// count, header checksum — and whose sections tile the file exactly.
/// Payload checksums are checked when the sections are read.
pub struct Container<'a> {
    bytes: &'a [u8],
    table: Vec<TableEntry>,
}

impl<'a> Container<'a> {
    /// Parses and validates the header and section table.
    ///
    /// # Errors
    /// [`ArtifactError::Truncated`], [`ArtifactError::BadMagic`],
    /// [`ArtifactError::UnsupportedVersion`],
    /// [`ArtifactError::HeaderChecksum`], or
    /// [`ArtifactError::Corrupt`] for a table that breaks contiguity or
    /// leaves trailing bytes; never panics on arbitrary input.
    pub fn parse(bytes: &'a [u8]) -> Result<Container<'a>, ArtifactError> {
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        if bytes.len() < 16 {
            return Err(ArtifactError::Truncated {
                needed: 16,
                got: bytes.len() as u64,
            });
        }
        if bytes[0..8] != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = u32_at(8);
        if version != VERSION {
            return Err(ArtifactError::UnsupportedVersion { found: version });
        }
        let n = u32_at(12);
        if n == 0 || n > MAX_SECTIONS {
            return Err(ArtifactError::Corrupt {
                section: "table".into(),
                reason: format!("section count {n} outside 1..={MAX_SECTIONS}"),
            });
        }
        let header_len = 16 + 32 * n as usize;
        let header_end = header_len + 8;
        if bytes.len() < header_end {
            return Err(ArtifactError::Truncated {
                needed: header_end as u64,
                got: bytes.len() as u64,
            });
        }
        let expected = u64_at(header_len);
        let found = fnv1a64(&bytes[..header_len]);
        if expected != found {
            return Err(ArtifactError::HeaderChecksum { expected, found });
        }
        let mut table = Vec::with_capacity(n as usize);
        let mut cursor = header_end as u64;
        for base in (16..header_len).step_by(32) {
            let tag: [u8; 8] = bytes[base..base + 8].try_into().expect("8 bytes");
            let (offset, len) = (u64_at(base + 8), u64_at(base + 16));
            if offset != cursor {
                return Err(ArtifactError::Corrupt {
                    section: tag_str(&tag),
                    reason: format!("offset {offset} breaks contiguity (expected {cursor})"),
                });
            }
            cursor = offset
                .checked_add(len)
                .ok_or_else(|| ArtifactError::Corrupt {
                    section: tag_str(&tag),
                    reason: "offset + len overflows".into(),
                })?;
            if cursor > bytes.len() as u64 {
                return Err(ArtifactError::Truncated {
                    needed: cursor,
                    got: bytes.len() as u64,
                });
            }
            table.push(TableEntry {
                tag,
                offset: offset as usize,
                len: len as usize,
                checksum: u64_at(base + 24),
            });
        }
        if cursor != bytes.len() as u64 {
            return Err(ArtifactError::Corrupt {
                section: "table".into(),
                reason: format!(
                    "{} trailing bytes after last section",
                    bytes.len() as u64 - cursor
                ),
            });
        }
        Ok(Container { bytes, table })
    }

    fn payload(&self, entry: &TableEntry) -> (&'a [u8], u64) {
        let payload = &self.bytes[entry.offset..entry.offset + entry.len];
        (payload, fnv1a64(payload))
    }

    /// Every section in table order, each payload checked against its
    /// checksum.
    ///
    /// # Errors
    /// [`ArtifactError::SectionChecksum`] for the first payload that
    /// fails its checksum.
    pub fn sections(&self) -> Result<Vec<Section<'a>>, ArtifactError> {
        self.table
            .iter()
            .map(|entry| match self.payload(entry) {
                (payload, found) if found == entry.checksum => Ok((entry.tag, payload)),
                (_, found) => Err(ArtifactError::SectionChecksum {
                    section: tag_str(&entry.tag),
                    expected: entry.checksum,
                    found,
                }),
            })
            .collect()
    }

    /// One verdict per section, in table order, collecting *all*
    /// checksum mismatches rather than stopping at the first, so an
    /// fsck can name every damaged section. Tags outside `known` are
    /// [`SectionStatus::Unknown`] when intact.
    pub(crate) fn audit(&self, known: &[[u8; 8]]) -> Vec<SectionFsck> {
        self.table
            .iter()
            .map(|entry| {
                let (_, found) = self.payload(entry);
                let status = if found != entry.checksum {
                    SectionStatus::ChecksumMismatch {
                        expected: entry.checksum,
                        found,
                    }
                } else if known.contains(&entry.tag) {
                    SectionStatus::Ok
                } else {
                    SectionStatus::Unknown
                };
                SectionFsck {
                    tag: tag_str(&entry.tag),
                    bytes: entry.len as u64,
                    status,
                }
            })
            .collect()
    }
}

/// Per-section verdict of an artifact fsck ([`crate::fsck_artifact`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionStatus {
    /// Checksum matches and the tag is one the file's kind defines.
    Ok,
    /// Tag unknown to this reader — checksum verified, content
    /// skipped. Readable, but a newer writer produced it.
    Unknown,
    /// Payload bytes do not match the table checksum.
    ChecksumMismatch {
        /// Checksum recorded in the table.
        expected: u64,
        /// Checksum recomputed over the payload.
        found: u64,
    },
}

/// One section row of an fsck report.
#[derive(Debug, Clone)]
pub struct SectionFsck {
    /// Section tag (trailing padding stripped).
    pub tag: String,
    /// Payload length in bytes.
    pub bytes: u64,
    /// Verdict.
    pub status: SectionStatus,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_sections() -> Vec<u8> {
        let mut w = ContainerWriter::new(2);
        w.section(*b"one     ").str("héllo");
        let two = w.section(*b"two     ");
        two.u64(7);
        two.f64s(&[-0.0, f64::MIN_POSITIVE / 8.0, 0.1 + 0.2]);
        w.finish()
    }

    #[test]
    fn fields_roundtrip_bit_identically() {
        let bytes = two_sections();
        let sections = Container::parse(&bytes).unwrap().sections().unwrap();
        assert_eq!(sections.len(), 2);
        let mut one = Dec::new(sections[0].1, "one");
        assert_eq!(one.str().unwrap(), "héllo");
        one.finish().unwrap();
        let mut two = Dec::new(sections[1].1, "two");
        assert_eq!(two.u64().unwrap(), 7);
        let values = two.f64s(3).unwrap();
        assert_eq!(values[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(values[1].to_bits(), (f64::MIN_POSITIVE / 8.0).to_bits());
        assert_eq!(values[2].to_bits(), (0.1f64 + 0.2).to_bits());
        two.finish().unwrap();
    }

    #[test]
    fn streaming_fnv_hashes_pieces_as_their_concatenation() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let text = "12\tStraße 5".as_bytes();
        for split in 0..=text.len() {
            let mut h = Fnv1a::new();
            h.update(&text[..split]);
            h.update(&text[split..]);
            assert_eq!(h.finish(), fnv1a64(text), "split at {split}");
        }
    }

    #[test]
    fn short_payloads_and_oversized_counts_are_corrupt_not_panics() {
        let mut enc = Enc::default();
        enc.u64(u64::MAX / 2);
        let bytes = enc.into_bytes();
        assert!(Dec::new(&bytes, "s").count(8).is_err());
        assert!(Dec::new(&bytes, "s").str().is_err());
        assert!(Dec::new(&bytes, "s").f64s(2).is_err());
        assert!(Dec::new(&bytes, "s").f64s(usize::MAX).is_err());
        assert!(Dec::new(&bytes[..3], "s").u64().is_err());
        let mut d = Dec::new(&bytes, "s");
        assert!(d.finish().is_err());
        d.u64().unwrap();
        assert!(d.finish().is_ok());
    }

    #[test]
    fn audit_collects_every_damaged_section() {
        let mut bytes = two_sections();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        let container = Container::parse(&bytes).unwrap();
        assert!(matches!(
            container.sections(),
            Err(ArtifactError::SectionChecksum { section, .. }) if section == "two"
        ));
        let rows = container.audit(&[*b"two     "]);
        assert_eq!(rows[0].status, SectionStatus::Unknown);
        assert!(matches!(
            rows[1].status,
            SectionStatus::ChecksumMismatch { .. }
        ));
    }
}
