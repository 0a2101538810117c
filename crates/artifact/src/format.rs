//! The binary snapshot codec: magic, version, section table, FNV-1a
//! checksums.
//!
//! A snapshot file is laid out as (all integers little-endian):
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
//! of the payload bytes). Payloads must be contiguous — the first
//! starts right after the header checksum, each next one where the
//! previous ended, and the file ends exactly at the last payload's
//! end. Together with the two checksum layers this makes *any*
//! single-byte corruption detectable: a flip in a payload trips its
//! section checksum, a flip in the header or table trips the header
//! checksum, and appending or truncating bytes trips the length
//! check.
//!
//! Unknown section tags are tolerated on read (their checksums are
//! still verified) so a v1 reader survives additive extensions;
//! incompatible changes bump the version and are rejected with
//! [`ArtifactError::UnsupportedVersion`]. See DESIGN.md §14 for the
//! full compatibility policy.

use std::collections::HashSet;
use std::fmt;
use std::path::Path;

/// Leading file magic.
pub const MAGIC: [u8; 8] = *b"TLARTFCT";
/// Current format version.
pub const VERSION: u32 = 1;
/// Hard ceiling on the section count — a structural sanity bound so a
/// corrupted count can never drive an over-allocation.
pub const MAX_SECTIONS: u32 = 64;

const TAG_META: [u8; 8] = *b"meta    ";
const TAG_TOWERS: [u8; 8] = *b"towers  ";
const TAG_FEAT: [u8; 8] = *b"feat    ";
const TAG_CENTROID: [u8; 8] = *b"centroid";
const TAG_KINDS: [u8; 8] = *b"kinds   ";
const TAG_BASIS: [u8; 8] = *b"basis   ";
const TAG_DECOMP: [u8; 8] = *b"decomp  ";
const TAG_PROFILE: [u8; 8] = *b"profile ";

/// 64-bit FNV-1a (same parameters as the engine checkpoint codec).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything that can go wrong reading or writing a snapshot. All
/// decode paths return one of these — they never panic, and a
/// checksum failure is always surfaced rather than yielding a wrong
/// answer.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure.
    Io {
        /// The offending path.
        path: String,
        /// The underlying error.
        source: std::io::Error,
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
    /// A section the snapshot semantics require is absent.
    MissingSection {
        /// The missing tag.
        section: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io { path, source } => write!(f, "io {path}: {source}"),
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

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> ArtifactError {
    ArtifactError::Io {
        path: path.display().to_string(),
        source,
    }
}

/// Study-level provenance and shape, from the `meta` section.
#[derive(Debug, Clone, PartialEq)]
pub struct Meta {
    /// Configuration fingerprint of the study that wrote the snapshot
    /// (the engine checkpoint fingerprint, or the analyze graph's).
    pub fingerprint: u64,
    /// Aggregation window start, seconds since trace epoch.
    pub window_start_s: u64,
    /// Bin width in seconds.
    pub bin_secs: u64,
    /// Bins per traffic vector.
    pub n_bins: usize,
    /// Number of patterns (clusters).
    pub k: usize,
    /// The dendrogram stop threshold that produced the clustering.
    pub threshold: f64,
    /// Feature space the clustering ran in (`"raw"` or `"spectral"`).
    pub feature_space: String,
}

/// The frozen primary-component basis, from the `basis` section.
#[derive(Debug, Clone, PartialEq)]
pub struct BasisSection {
    /// Vector index of each pure pattern's representative tower, in
    /// pure-pattern order (resident, transport, office,
    /// entertainment).
    pub representatives: [usize; 4],
    /// The representatives' 3-dim decomposition-space features
    /// (`[amp_day, phase_day, amp_half]`), same order.
    pub vertices: [[f64; 3]; 4],
}

/// One stored convex-combination decomposition, from the `decomp`
/// section.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompRow {
    /// Index of the decomposed tower in the kept-vector ordering.
    pub vector_index: usize,
    /// Convex coefficients in pure-pattern order.
    pub coefficients: [f64; 4],
    /// Squared residual of the fit.
    pub residual_sqr: f64,
    /// TF-IDF re-weighted coefficients.
    pub ntf_idf: [f64; 4],
}

/// Per-tower expected day shape, from the `profile` section: for each
/// bin-of-day, the mean and population standard deviation of the
/// tower's z-scored traffic across the study's days.
#[derive(Debug, Clone, PartialEq)]
pub struct DayProfile {
    /// Bins in one day.
    pub bins_per_day: usize,
    /// `mean[tower][bin_of_day]`.
    pub mean: Vec<Vec<f64>>,
    /// `std[tower][bin_of_day]` (population σ).
    pub std: Vec<Vec<f64>>,
}

impl DayProfile {
    /// Builds per-tower day profiles from z-scored traffic vectors.
    /// Only full days contribute; a trailing partial day is ignored.
    /// Returns an empty profile when `bins_per_day` is 0 or no vector
    /// spans a full day.
    #[must_use]
    pub fn from_vectors(vectors: &[Vec<f64>], bins_per_day: usize) -> DayProfile {
        let mut mean = Vec::with_capacity(vectors.len());
        let mut std = Vec::with_capacity(vectors.len());
        for v in vectors {
            let days = v.len().checked_div(bins_per_day).unwrap_or(0);
            if days == 0 {
                mean.push(vec![0.0; bins_per_day]);
                std.push(vec![0.0; bins_per_day]);
                continue;
            }
            let mut m = vec![0.0f64; bins_per_day];
            let mut s = vec![0.0f64; bins_per_day];
            for (b, slot) in m.iter_mut().enumerate() {
                let mut acc = 0.0;
                for d in 0..days {
                    acc += v[d * bins_per_day + b];
                }
                *slot = acc / days as f64;
            }
            for (b, slot) in s.iter_mut().enumerate() {
                let mut acc = 0.0;
                for d in 0..days {
                    let dev = v[d * bins_per_day + b] - m[b];
                    acc += dev * dev;
                }
                *slot = (acc / days as f64).sqrt();
            }
            mean.push(m);
            std.push(s);
        }
        DayProfile {
            bins_per_day,
            mean,
            std,
        }
    }
}

/// A complete, typed study snapshot: everything `towerlens query`
/// needs, decoupled from the engine's resume checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Provenance and shape.
    pub meta: Meta,
    /// Kept tower ids, in kept-vector order.
    pub tower_ids: Vec<u64>,
    /// Per-tower cluster label (`labels[i] < meta.k`).
    pub labels: Vec<u32>,
    /// Per-tower 6-dim spectral feature vector, `TowerFeatures::f6`
    /// order: `[amp_week, phase_week, amp_day, phase_day, amp_half,
    /// phase_half]`.
    pub features: Vec<[f64; 6]>,
    /// Cluster centroids in the traffic-vector space (the frozen
    /// classification basis `serve --basis` loads).
    pub centroids: Vec<Vec<f64>>,
    /// Per-cluster region-kind names (`RegionKind::label()` strings),
    /// when the study ran the geo labeler.
    pub kinds: Option<Vec<String>>,
    /// The frozen primary-component basis, when the study found all
    /// four pure patterns.
    pub basis: Option<BasisSection>,
    /// Stored decompositions (possibly a sample of towers; possibly
    /// empty).
    pub decompositions: Vec<DecompRow>,
    /// Per-tower expected day profiles for anomaly screening.
    pub profile: DayProfile,
}

impl Snapshot {
    /// Number of towers in the snapshot.
    #[must_use]
    pub fn n_towers(&self) -> usize {
        self.tower_ids.len()
    }
}

// ---------------------------------------------------------------- codec

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8], section: &'static str) -> Dec<'a> {
        Dec {
            bytes,
            pos: 0,
            section,
        }
    }
    fn corrupt(&self, reason: impl Into<String>) -> ArtifactError {
        ArtifactError::Corrupt {
            section: self.section.to_string(),
            reason: reason.into(),
        }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.corrupt("payload shorter than its own layout"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u64(&mut self) -> Result<u64, ArtifactError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }
    fn usize(&mut self) -> Result<usize, ArtifactError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("count {v} overflows usize")))
    }
    fn f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Result<String, ArtifactError> {
        let len = self.usize()?;
        if len > self.bytes.len() - self.pos {
            return Err(self.corrupt(format!("string length {len} exceeds payload")));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("string is not UTF-8"))
    }
    fn finish(&self) -> Result<(), ArtifactError> {
        if self.pos != self.bytes.len() {
            return Err(self.corrupt(format!(
                "{} trailing bytes after payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn encode_meta(meta: &Meta) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(meta.fingerprint);
    e.u64(meta.window_start_s);
    e.u64(meta.bin_secs);
    e.u64(meta.n_bins as u64);
    e.u64(meta.k as u64);
    e.f64(meta.threshold);
    e.str(&meta.feature_space);
    e.buf
}

fn decode_meta(bytes: &[u8]) -> Result<Meta, ArtifactError> {
    let mut d = Dec::new(bytes, "meta");
    let meta = Meta {
        fingerprint: d.u64()?,
        window_start_s: d.u64()?,
        bin_secs: d.u64()?,
        n_bins: d.usize()?,
        k: d.usize()?,
        threshold: d.f64()?,
        feature_space: d.str()?,
    };
    d.finish()?;
    Ok(meta)
}

fn encode_towers(ids: &[u64], labels: &[u32]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(ids.len() as u64);
    for (&id, &label) in ids.iter().zip(labels) {
        e.u64(id);
        e.u64(u64::from(label));
    }
    e.buf
}

fn decode_towers(bytes: &[u8], k: usize) -> Result<(Vec<u64>, Vec<u32>), ArtifactError> {
    let mut d = Dec::new(bytes, "towers");
    let n = d.usize()?;
    if n > bytes.len() / 16 {
        return Err(d.corrupt(format!("tower count {n} exceeds payload size")));
    }
    let mut ids = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(d.u64()?);
        let label = d.u64()?;
        if label >= k as u64 {
            return Err(d.corrupt(format!("label {label} out of range for k={k}")));
        }
        labels.push(label as u32);
    }
    d.finish()?;
    Ok((ids, labels))
}

fn encode_feat(features: &[[f64; 6]]) -> Vec<u8> {
    let mut e = Enc::new();
    for row in features {
        for &v in row {
            e.f64(v);
        }
    }
    e.buf
}

fn decode_feat(bytes: &[u8], n: usize) -> Result<Vec<[f64; 6]>, ArtifactError> {
    let mut d = Dec::new(bytes, "feat");
    if bytes.len() != n * 48 {
        return Err(d.corrupt(format!(
            "payload is {} bytes, expected {} for {n} towers",
            bytes.len(),
            n * 48
        )));
    }
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = [0.0f64; 6];
        for slot in &mut row {
            *slot = d.f64()?;
        }
        rows.push(row);
    }
    d.finish()?;
    Ok(rows)
}

fn encode_centroids(centroids: &[Vec<f64>]) -> Vec<u8> {
    let mut e = Enc::new();
    let dims = centroids.first().map_or(0, Vec::len);
    e.u64(dims as u64);
    for c in centroids {
        for &v in c {
            e.f64(v);
        }
    }
    e.buf
}

fn decode_centroids(bytes: &[u8], k: usize) -> Result<Vec<Vec<f64>>, ArtifactError> {
    let mut d = Dec::new(bytes, "centroid");
    let dims = d.usize()?;
    if bytes.len() != 8 + k * dims * 8 {
        return Err(d.corrupt(format!(
            "payload is {} bytes, expected {} for k={k} × dims={dims}",
            bytes.len(),
            8 + k * dims * 8
        )));
    }
    let mut centroids = Vec::with_capacity(k);
    for _ in 0..k {
        let mut c = Vec::with_capacity(dims);
        for _ in 0..dims {
            c.push(d.f64()?);
        }
        centroids.push(c);
    }
    d.finish()?;
    Ok(centroids)
}

fn encode_kinds(kinds: &[String]) -> Vec<u8> {
    let mut e = Enc::new();
    for kind in kinds {
        e.str(kind);
    }
    e.buf
}

fn decode_kinds(bytes: &[u8], k: usize) -> Result<Vec<String>, ArtifactError> {
    let mut d = Dec::new(bytes, "kinds");
    let mut kinds = Vec::with_capacity(k);
    for _ in 0..k {
        kinds.push(d.str()?);
    }
    d.finish()?;
    Ok(kinds)
}

fn encode_basis(basis: &BasisSection) -> Vec<u8> {
    let mut e = Enc::new();
    for &rep in &basis.representatives {
        e.u64(rep as u64);
    }
    for vertex in &basis.vertices {
        for &v in vertex {
            e.f64(v);
        }
    }
    e.buf
}

fn decode_basis(bytes: &[u8], n: usize) -> Result<BasisSection, ArtifactError> {
    let mut d = Dec::new(bytes, "basis");
    let mut representatives = [0usize; 4];
    for slot in &mut representatives {
        let rep = d.usize()?;
        if rep >= n {
            return Err(d.corrupt(format!(
                "representative index {rep} out of range for {n} towers"
            )));
        }
        *slot = rep;
    }
    let mut vertices = [[0.0f64; 3]; 4];
    for vertex in &mut vertices {
        for slot in vertex.iter_mut() {
            *slot = d.f64()?;
        }
    }
    d.finish()?;
    Ok(BasisSection {
        representatives,
        vertices,
    })
}

fn encode_decomp(rows: &[DecompRow]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(rows.len() as u64);
    for row in rows {
        e.u64(row.vector_index as u64);
        for &c in &row.coefficients {
            e.f64(c);
        }
        e.f64(row.residual_sqr);
        for &c in &row.ntf_idf {
            e.f64(c);
        }
    }
    e.buf
}

fn decode_decomp(bytes: &[u8], n: usize) -> Result<Vec<DecompRow>, ArtifactError> {
    let mut d = Dec::new(bytes, "decomp");
    let count = d.usize()?;
    if count > bytes.len() / 80 {
        return Err(d.corrupt(format!("row count {count} exceeds payload size")));
    }
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        let vector_index = d.usize()?;
        if vector_index >= n {
            return Err(d.corrupt(format!(
                "vector index {vector_index} out of range for {n} towers"
            )));
        }
        let mut coefficients = [0.0f64; 4];
        for slot in &mut coefficients {
            *slot = d.f64()?;
        }
        let residual_sqr = d.f64()?;
        let mut ntf_idf = [0.0f64; 4];
        for slot in &mut ntf_idf {
            *slot = d.f64()?;
        }
        rows.push(DecompRow {
            vector_index,
            coefficients,
            residual_sqr,
            ntf_idf,
        });
    }
    d.finish()?;
    Ok(rows)
}

fn encode_profile(profile: &DayProfile) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(profile.bins_per_day as u64);
    for (mean, std) in profile.mean.iter().zip(&profile.std) {
        for &v in mean {
            e.f64(v);
        }
        for &v in std {
            e.f64(v);
        }
    }
    e.buf
}

fn decode_profile(bytes: &[u8], n: usize) -> Result<DayProfile, ArtifactError> {
    let mut d = Dec::new(bytes, "profile");
    let bins_per_day = d.usize()?;
    if bytes.len() != 8 + n * bins_per_day * 16 {
        return Err(d.corrupt(format!(
            "payload is {} bytes, expected {} for {n} towers × {bins_per_day} bins",
            bytes.len(),
            8 + n * bins_per_day * 16
        )));
    }
    let mut mean = Vec::with_capacity(n);
    let mut std = Vec::with_capacity(n);
    for _ in 0..n {
        let mut m = Vec::with_capacity(bins_per_day);
        for _ in 0..bins_per_day {
            m.push(d.f64()?);
        }
        let mut s = Vec::with_capacity(bins_per_day);
        for _ in 0..bins_per_day {
            s.push(d.f64()?);
        }
        mean.push(m);
        std.push(s);
    }
    d.finish()?;
    Ok(DayProfile {
        bins_per_day,
        mean,
        std,
    })
}

fn tag_str(tag: &[u8; 8]) -> String {
    String::from_utf8_lossy(tag).trim_end().to_string()
}

impl Snapshot {
    /// Encodes the snapshot to its byte representation.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut sections: Vec<([u8; 8], Vec<u8>)> = vec![
            (TAG_META, encode_meta(&self.meta)),
            (TAG_TOWERS, encode_towers(&self.tower_ids, &self.labels)),
            (TAG_FEAT, encode_feat(&self.features)),
            (TAG_CENTROID, encode_centroids(&self.centroids)),
        ];
        if let Some(kinds) = &self.kinds {
            sections.push((TAG_KINDS, encode_kinds(kinds)));
        }
        if let Some(basis) = &self.basis {
            sections.push((TAG_BASIS, encode_basis(basis)));
        }
        sections.push((TAG_DECOMP, encode_decomp(&self.decompositions)));
        sections.push((TAG_PROFILE, encode_profile(&self.profile)));

        let n = sections.len();
        let header_len = 16 + 32 * n;
        let mut out = Vec::with_capacity(
            header_len + 8 + sections.iter().map(|(_, p)| p.len()).sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(n as u32).to_le_bytes());
        let mut offset = (header_len + 8) as u64;
        for (tag, payload) in &sections {
            out.extend_from_slice(tag);
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
            offset += payload.len() as u64;
        }
        let header_sum = fnv1a64(&out);
        out.extend_from_slice(&header_sum.to_le_bytes());
        for (_, payload) in &sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Decodes a snapshot from bytes, verifying the header checksum,
    /// every section checksum, the exact file length, and the
    /// structural invariants of every known section. Unknown section
    /// tags are tolerated (forward compatibility) but still
    /// checksum-verified.
    ///
    /// # Errors
    /// Any [`ArtifactError`] variant except `Io`; never panics on
    /// arbitrary input.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, ArtifactError> {
        let table = parse_header(bytes)?;
        let mut seen: HashSet<[u8; 8]> = HashSet::new();
        let mut meta = None;
        let mut towers_bytes = None;
        let mut feat_bytes = None;
        let mut centroid_bytes = None;
        let mut kinds_bytes = None;
        let mut basis_bytes = None;
        let mut decomp_bytes = None;
        let mut profile_bytes = None;
        for entry in &table {
            let payload = section_payload(bytes, entry)?;
            if !seen.insert(entry.tag) && is_known_tag(&entry.tag) {
                return Err(ArtifactError::Corrupt {
                    section: tag_str(&entry.tag),
                    reason: "duplicate section".into(),
                });
            }
            match entry.tag {
                TAG_META => meta = Some(decode_meta(payload)?),
                TAG_TOWERS => towers_bytes = Some(payload),
                TAG_FEAT => feat_bytes = Some(payload),
                TAG_CENTROID => centroid_bytes = Some(payload),
                TAG_KINDS => kinds_bytes = Some(payload),
                TAG_BASIS => basis_bytes = Some(payload),
                TAG_DECOMP => decomp_bytes = Some(payload),
                TAG_PROFILE => profile_bytes = Some(payload),
                _ => {} // unknown section: checksum verified above, content skipped
            }
        }
        let missing = |section: &str| ArtifactError::MissingSection {
            section: section.into(),
        };
        let meta = meta.ok_or_else(|| missing("meta"))?;
        let (tower_ids, labels) =
            decode_towers(towers_bytes.ok_or_else(|| missing("towers"))?, meta.k)?;
        let n = tower_ids.len();
        let features = decode_feat(feat_bytes.ok_or_else(|| missing("feat"))?, n)?;
        let centroids =
            decode_centroids(centroid_bytes.ok_or_else(|| missing("centroid"))?, meta.k)?;
        let kinds = kinds_bytes.map(|b| decode_kinds(b, meta.k)).transpose()?;
        let basis = basis_bytes.map(|b| decode_basis(b, n)).transpose()?;
        let decompositions = decode_decomp(decomp_bytes.ok_or_else(|| missing("decomp"))?, n)?;
        let profile = decode_profile(profile_bytes.ok_or_else(|| missing("profile"))?, n)?;
        Ok(Snapshot {
            meta,
            tower_ids,
            labels,
            features,
            centroids,
            kinds,
            basis,
            decompositions,
            profile,
        })
    }
}

struct TableEntry {
    tag: [u8; 8],
    offset: u64,
    len: u64,
    checksum: u64,
}

fn is_known_tag(tag: &[u8; 8]) -> bool {
    matches!(
        *tag,
        TAG_META
            | TAG_TOWERS
            | TAG_FEAT
            | TAG_CENTROID
            | TAG_KINDS
            | TAG_BASIS
            | TAG_DECOMP
            | TAG_PROFILE
    )
}

/// Parses and fully validates the header: magic, version, section
/// count, table bounds, header checksum, payload contiguity, and
/// exact file length.
fn parse_header(bytes: &[u8]) -> Result<Vec<TableEntry>, ArtifactError> {
    if bytes.len() < 16 {
        return Err(ArtifactError::Truncated {
            needed: 16,
            got: bytes.len() as u64,
        });
    }
    if bytes[0..8] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    if version != VERSION {
        return Err(ArtifactError::UnsupportedVersion { found: version });
    }
    let n = u32::from_le_bytes(bytes[12..16].try_into().expect("4-byte slice"));
    if n == 0 || n > MAX_SECTIONS {
        return Err(ArtifactError::Corrupt {
            section: "table".into(),
            reason: format!("section count {n} outside 1..={MAX_SECTIONS}"),
        });
    }
    let n = n as usize;
    let header_len = 16 + 32 * n;
    let header_end = header_len + 8;
    if bytes.len() < header_end {
        return Err(ArtifactError::Truncated {
            needed: header_end as u64,
            got: bytes.len() as u64,
        });
    }
    let expected = u64::from_le_bytes(
        bytes[header_len..header_end]
            .try_into()
            .expect("8-byte slice"),
    );
    let found = fnv1a64(&bytes[..header_len]);
    if expected != found {
        return Err(ArtifactError::HeaderChecksum { expected, found });
    }
    let mut table = Vec::with_capacity(n);
    let mut cursor = header_end as u64;
    for i in 0..n {
        let base = 16 + 32 * i;
        let mut tag = [0u8; 8];
        tag.copy_from_slice(&bytes[base..base + 8]);
        let offset = u64::from_le_bytes(bytes[base + 8..base + 16].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(bytes[base + 16..base + 24].try_into().expect("8 bytes"));
        let checksum = u64::from_le_bytes(bytes[base + 24..base + 32].try_into().expect("8 bytes"));
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
        table.push(TableEntry {
            tag,
            offset,
            len,
            checksum,
        });
    }
    if cursor != bytes.len() as u64 {
        if cursor > bytes.len() as u64 {
            return Err(ArtifactError::Truncated {
                needed: cursor,
                got: bytes.len() as u64,
            });
        }
        return Err(ArtifactError::Corrupt {
            section: "table".into(),
            reason: format!(
                "{} trailing bytes after last section",
                bytes.len() as u64 - cursor
            ),
        });
    }
    Ok(table)
}

fn section_payload<'a>(bytes: &'a [u8], entry: &TableEntry) -> Result<&'a [u8], ArtifactError> {
    // Bounds were validated by `parse_header`'s contiguity walk.
    let payload = &bytes[entry.offset as usize..(entry.offset + entry.len) as usize];
    let found = fnv1a64(payload);
    if found != entry.checksum {
        return Err(ArtifactError::SectionChecksum {
            section: tag_str(&entry.tag),
            expected: entry.checksum,
            found,
        });
    }
    Ok(payload)
}

// ------------------------------------------------------------- file I/O

/// Writes a snapshot atomically through [`crate::replace_durably`]
/// (failpoints `artifact.tmp` / `artifact`): encode, write to a
/// sibling temp file, fsync, rename over the target.
///
/// # Errors
/// [`ArtifactError::Io`] on any filesystem failure.
pub fn write_snapshot(path: &Path, snapshot: &Snapshot) -> Result<(), ArtifactError> {
    crate::replace_durably(
        path,
        &snapshot.encode(),
        "artifact",
        towerlens_obs::failpoints(),
        io_err,
    )
}

/// Reads and fully verifies a snapshot file.
///
/// # Errors
/// [`ArtifactError::Io`] on filesystem failure, otherwise any decode
/// error from [`Snapshot::decode`].
pub fn read_snapshot(path: &Path) -> Result<Snapshot, ArtifactError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    Snapshot::decode(&bytes)
}

/// Returns true when the bytes begin with the artifact magic — used
/// by loaders that accept either an artifact or a legacy text
/// checkpoint.
#[must_use]
pub fn sniff_magic(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && bytes[0..8] == MAGIC
}

// ----------------------------------------------------------------- fsck

/// Per-section verdict from [`fsck_artifact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionStatus {
    /// Checksum matches and (for known tags) the payload decodes.
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

/// One section row in a [`ArtifactFsck`] report.
#[derive(Debug, Clone)]
pub struct SectionFsck {
    /// Section tag (trailing padding stripped).
    pub tag: String,
    /// Payload length in bytes.
    pub bytes: u64,
    /// Verdict.
    pub status: SectionStatus,
}

/// The result of fsck'ing a snapshot whose header parses.
#[derive(Debug, Clone)]
pub struct ArtifactFsck {
    /// Format version from the header.
    pub version: u32,
    /// Study fingerprint from `meta` (0 when `meta` is unreadable).
    pub fingerprint: u64,
    /// Tower count (0 when unreadable).
    pub towers: usize,
    /// Pattern count from `meta` (0 when unreadable).
    pub k: usize,
    /// Per-section verdicts, in table order.
    pub sections: Vec<SectionFsck>,
    /// A semantic decode error hit after all checksums passed (e.g.
    /// an out-of-range label), if any.
    pub semantic: Option<String>,
}

impl ArtifactFsck {
    /// True when every section checksum matches and the snapshot
    /// decodes. Unknown sections do not make a file unhealthy — they
    /// make it *degraded* (see the doctor's health classification).
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.semantic.is_none() && self.sections.iter().all(|s| s.status == SectionStatus::Ok)
    }

    /// True when any section tag is unknown to this reader.
    #[must_use]
    pub fn has_unknown_sections(&self) -> bool {
        self.sections
            .iter()
            .any(|s| s.status == SectionStatus::Unknown)
    }
}

/// Structurally audits a snapshot file: header, every section
/// checksum (collecting *all* mismatches rather than stopping at the
/// first), then — only when all checksums pass — a full semantic
/// decode.
///
/// # Errors
/// [`ArtifactError::Io`] when the file cannot be read, or a header-
/// level error (`BadMagic`, `UnsupportedVersion`, `Truncated`,
/// `HeaderChecksum`, table corruption) when the section table itself
/// cannot be trusted. Section-level damage is reported in the
/// returned rows, not as an error.
pub fn fsck_artifact(path: &Path) -> Result<ArtifactFsck, ArtifactError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    let version = if bytes.len() >= 12 && bytes[0..8] == MAGIC {
        u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"))
    } else {
        0
    };
    let table = parse_header(&bytes)?;
    let mut sections = Vec::with_capacity(table.len());
    let mut all_ok = true;
    for entry in &table {
        let status = match section_payload(&bytes, entry) {
            Ok(_) if is_known_tag(&entry.tag) => SectionStatus::Ok,
            Ok(_) => SectionStatus::Unknown,
            Err(ArtifactError::SectionChecksum {
                expected, found, ..
            }) => {
                all_ok = false;
                SectionStatus::ChecksumMismatch { expected, found }
            }
            Err(_) => unreachable!("section_payload only fails with SectionChecksum"),
        };
        sections.push(SectionFsck {
            tag: tag_str(&entry.tag),
            bytes: entry.len,
            status,
        });
    }
    let (mut fingerprint, mut towers, mut k) = (0u64, 0usize, 0usize);
    let mut semantic = None;
    if all_ok {
        match Snapshot::decode(&bytes) {
            Ok(snap) => {
                fingerprint = snap.meta.fingerprint;
                towers = snap.n_towers();
                k = snap.meta.k;
            }
            Err(e) => semantic = Some(e.to_string()),
        }
    }
    Ok(ArtifactFsck {
        version,
        fingerprint,
        towers,
        k,
        sections,
        semantic,
    })
}

/// A small fully-populated snapshot for tests — every optional
/// section present, three towers, two clusters. Shared by this
/// crate's unit tests and downstream crates' doctor/query tests.
#[doc(hidden)]
pub fn sample_snapshot() -> Snapshot {
    let vectors: Vec<Vec<f64>> = (0..3)
        .map(|t| (0..8).map(|b| ((t * 8 + b) as f64 * 0.37).sin()).collect())
        .collect();
    Snapshot {
        meta: Meta {
            fingerprint: 0xdead_beef_cafe_f00d,
            window_start_s: 1000,
            bin_secs: 600,
            n_bins: 8,
            k: 2,
            threshold: 16.33,
            feature_space: "spectral".into(),
        },
        tower_ids: vec![11, 42, 99],
        labels: vec![0, 1, 0],
        features: (0..3)
            .map(|t| {
                let mut row = [0.0; 6];
                for (j, slot) in row.iter_mut().enumerate() {
                    *slot = (t * 6 + j) as f64 * 0.25 - 1.0;
                }
                row
            })
            .collect(),
        centroids: vec![vec![0.5; 8], vec![-0.5; 8]],
        kinds: Some(vec!["Resident".into(), "Office".into()]),
        basis: Some(BasisSection {
            representatives: [0, 1, 2, 0],
            vertices: [
                [1.0, 0.1, 0.2],
                [0.3, 1.5, 0.0],
                [0.7, 0.7, 0.9],
                [0.2, 0.4, 1.8],
            ],
        }),
        decompositions: vec![DecompRow {
            vector_index: 1,
            coefficients: [0.25, 0.25, 0.25, 0.25],
            residual_sqr: 0.125,
            ntf_idf: [0.4, 0.3, 0.2, 0.1],
        }],
        profile: DayProfile::from_vectors(&vectors, 4),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sibling targets that share a stem (`x.a`, `x.b`) get their own
    /// temp files: two writers racing on them must each land exactly
    /// their own bytes.
    #[test]
    fn concurrent_writes_to_sibling_targets_keep_their_own_bytes() {
        let dir = std::env::temp_dir().join(format!("towerlens-siblings-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, fingerprint: u64| {
            let mut snap = sample_snapshot();
            snap.meta.fingerprint = fingerprint;
            let path = dir.join(name);
            for _ in 0..50 {
                write_snapshot(&path, &snap).unwrap();
                assert_eq!(read_snapshot(&path).unwrap().meta.fingerprint, fingerprint);
            }
        };
        std::thread::scope(|scope| {
            scope.spawn(|| write("x.a", 1));
            scope.spawn(|| write("x.b", 2));
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn roundtrip_is_identity() {
        let snap = sample_snapshot();
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(snap, decoded);
    }

    #[test]
    fn roundtrip_without_optional_sections() {
        let mut snap = sample_snapshot();
        snap.kinds = None;
        snap.basis = None;
        snap.decompositions.clear();
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(snap, decoded);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample_snapshot().encode();
        bytes[0] ^= 0xff;
        // A magic flip trips BadMagic before the header checksum.
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(ArtifactError::BadMagic)
        ));
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = sample_snapshot().encode();
        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(
            Snapshot::decode(cut),
            Err(ArtifactError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_typed() {
        let mut bytes = sample_snapshot().encode();
        bytes.push(0);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(ArtifactError::Corrupt { .. })
        ));
    }

    #[test]
    fn day_profile_ignores_partial_trailing_day() {
        let v = vec![vec![1.0, 3.0, 1.0, 3.0, 100.0]]; // 2 full days of 2 bins + 1 stray
        let p = DayProfile::from_vectors(&v, 2);
        assert_eq!(p.mean[0], vec![1.0, 3.0]);
        assert_eq!(p.std[0], vec![0.0, 0.0]);
    }

    #[test]
    fn fsck_reports_each_damaged_section() {
        let snap = sample_snapshot();
        let mut bytes = snap.encode();
        let dir = std::env::temp_dir().join(format!("tl-artifact-fsck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.artifact");

        std::fs::write(&path, &bytes).unwrap();
        let clean = fsck_artifact(&path).unwrap();
        assert!(clean.healthy());
        assert_eq!(clean.towers, 3);
        assert_eq!(clean.fingerprint, snap.meta.fingerprint);

        let last = bytes.len() - 1; // inside the profile payload
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let damaged = fsck_artifact(&path).unwrap();
        assert!(!damaged.healthy());
        let bad: Vec<&str> = damaged
            .sections
            .iter()
            .filter(|s| matches!(s.status, SectionStatus::ChecksumMismatch { .. }))
            .map(|s| s.tag.as_str())
            .collect();
        assert_eq!(bad, vec!["profile"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
