//! The query artifact: the sections of a study snapshot on the
//! [`crate::container`] layout.
//!
//! | tag        | payload                                                |
//! |------------|--------------------------------------------------------|
//! | `meta`     | fingerprint, window, bin width, bins, k, threshold, space |
//! | `towers`   | tower count, then (id, label) per tower                |
//! | `feat`     | six spectral features per tower                        |
//! | `centroid` | dimension count, then k centroids                      |
//! | `kinds`    | k region-kind names (optional)                         |
//! | `basis`    | four representatives and their vertices (optional)     |
//! | `decomp`   | row count, then the stored decompositions              |
//! | `profile`  | bins per day, then per-tower day means and σ           |
//!
//! Unknown section tags are tolerated on read (their checksums are
//! still verified) so a v1 reader survives additive extensions;
//! incompatible changes bump the version and are rejected with
//! [`ArtifactError::UnsupportedVersion`]. See DESIGN.md §14 for the
//! full compatibility policy.

use std::collections::HashSet;
use std::path::Path;

use crate::container::{io_err, tag_str, Container, ContainerWriter, Dec, Enc, SectionFsck};
use crate::container::{ArtifactError, SectionStatus, VERSION};

const TAG_META: [u8; 8] = *b"meta    ";
const TAG_TOWERS: [u8; 8] = *b"towers  ";
const TAG_FEAT: [u8; 8] = *b"feat    ";
const TAG_CENTROID: [u8; 8] = *b"centroid";
const TAG_KINDS: [u8; 8] = *b"kinds   ";
const TAG_BASIS: [u8; 8] = *b"basis   ";
const TAG_DECOMP: [u8; 8] = *b"decomp  ";
const TAG_PROFILE: [u8; 8] = *b"profile ";

/// The section tags a v1 snapshot reader knows.
const KNOWN_TAGS: [[u8; 8]; 8] = [
    TAG_META,
    TAG_TOWERS,
    TAG_FEAT,
    TAG_CENTROID,
    TAG_KINDS,
    TAG_BASIS,
    TAG_DECOMP,
    TAG_PROFILE,
];

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

fn encode_meta(meta: &Meta, e: &mut Enc) {
    e.u64(meta.fingerprint);
    e.u64(meta.window_start_s);
    e.u64(meta.bin_secs);
    e.usize(meta.n_bins);
    e.usize(meta.k);
    e.f64(meta.threshold);
    e.str(&meta.feature_space);
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

fn encode_towers(ids: &[u64], labels: &[u32], e: &mut Enc) {
    e.usize(ids.len());
    for (&id, &label) in ids.iter().zip(labels) {
        e.u64(id);
        e.u64(u64::from(label));
    }
}

fn decode_towers(bytes: &[u8], k: usize) -> Result<(Vec<u64>, Vec<u32>), ArtifactError> {
    let mut d = Dec::new(bytes, "towers");
    let n = d.count(16)?;
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

fn encode_feat(features: &[[f64; 6]], e: &mut Enc) {
    for row in features {
        e.f64s(row);
    }
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

fn encode_centroids(centroids: &[Vec<f64>], e: &mut Enc) {
    e.usize(centroids.first().map_or(0, Vec::len));
    for c in centroids {
        e.f64s(c);
    }
}

fn decode_centroids(bytes: &[u8], k: usize) -> Result<Vec<Vec<f64>>, ArtifactError> {
    let mut d = Dec::new(bytes, "centroid");
    let dims = d.usize()?;
    let expected = k.checked_mul(dims).and_then(|v| v.checked_mul(8));
    if expected != Some(d.remaining()) || (dims == 0 && k > 0) {
        return Err(d.corrupt(format!(
            "payload is {} bytes, wrong for k={k} × dims={dims}",
            bytes.len()
        )));
    }
    let centroids = (0..k).map(|_| d.f64s(dims)).collect::<Result<_, _>>()?;
    d.finish()?;
    Ok(centroids)
}

fn encode_kinds(kinds: &[String], e: &mut Enc) {
    for kind in kinds {
        e.str(kind);
    }
}

fn decode_kinds(bytes: &[u8], k: usize) -> Result<Vec<String>, ArtifactError> {
    let mut d = Dec::new(bytes, "kinds");
    if k > bytes.len() / 8 {
        return Err(d.corrupt(format!("{k} names exceed payload size")));
    }
    let mut kinds = Vec::with_capacity(k);
    for _ in 0..k {
        kinds.push(d.str()?);
    }
    d.finish()?;
    Ok(kinds)
}

fn encode_basis(basis: &BasisSection, e: &mut Enc) {
    for &rep in &basis.representatives {
        e.usize(rep);
    }
    for vertex in &basis.vertices {
        e.f64s(vertex);
    }
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

fn encode_decomp(rows: &[DecompRow], e: &mut Enc) {
    e.usize(rows.len());
    for row in rows {
        e.usize(row.vector_index);
        e.f64s(&row.coefficients);
        e.f64(row.residual_sqr);
        e.f64s(&row.ntf_idf);
    }
}

fn decode_decomp(bytes: &[u8], n: usize) -> Result<Vec<DecompRow>, ArtifactError> {
    let mut d = Dec::new(bytes, "decomp");
    let count = d.count(80)?;
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

fn encode_profile(profile: &DayProfile, e: &mut Enc) {
    e.usize(profile.bins_per_day);
    for (mean, std) in profile.mean.iter().zip(&profile.std) {
        e.f64s(mean);
        e.f64s(std);
    }
}

fn decode_profile(bytes: &[u8], n: usize) -> Result<DayProfile, ArtifactError> {
    let mut d = Dec::new(bytes, "profile");
    let bins_per_day = d.usize()?;
    let expected = n.checked_mul(bins_per_day).and_then(|v| v.checked_mul(16));
    if expected != Some(d.remaining()) {
        return Err(d.corrupt(format!(
            "payload is {} bytes, wrong for {n} towers × {bins_per_day} bins",
            bytes.len()
        )));
    }
    let mut mean = Vec::with_capacity(n);
    let mut std = Vec::with_capacity(n);
    for _ in 0..n {
        mean.push(d.f64s(bins_per_day)?);
        std.push(d.f64s(bins_per_day)?);
    }
    d.finish()?;
    Ok(DayProfile {
        bins_per_day,
        mean,
        std,
    })
}

impl Snapshot {
    /// Encodes the snapshot to its byte representation.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let optional = usize::from(self.kinds.is_some()) + usize::from(self.basis.is_some());
        let mut file = ContainerWriter::new(6 + optional);
        encode_meta(&self.meta, file.section(TAG_META));
        encode_towers(&self.tower_ids, &self.labels, file.section(TAG_TOWERS));
        encode_feat(&self.features, file.section(TAG_FEAT));
        encode_centroids(&self.centroids, file.section(TAG_CENTROID));
        if let Some(kinds) = &self.kinds {
            encode_kinds(kinds, file.section(TAG_KINDS));
        }
        if let Some(basis) = &self.basis {
            encode_basis(basis, file.section(TAG_BASIS));
        }
        encode_decomp(&self.decompositions, file.section(TAG_DECOMP));
        encode_profile(&self.profile, file.section(TAG_PROFILE));
        file.finish()
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
        let sections = Container::parse(bytes)?.sections()?;
        let mut seen: HashSet<[u8; 8]> = HashSet::new();
        let mut meta = None;
        let mut towers_bytes = None;
        let mut feat_bytes = None;
        let mut centroid_bytes = None;
        let mut kinds_bytes = None;
        let mut basis_bytes = None;
        let mut decomp_bytes = None;
        let mut profile_bytes = None;
        for (tag, payload) in sections {
            if !seen.insert(tag) && KNOWN_TAGS.contains(&tag) {
                return Err(ArtifactError::Corrupt {
                    section: tag_str(&tag),
                    reason: "duplicate section".into(),
                });
            }
            match tag {
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

// ----------------------------------------------------------------- fsck

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
        self.semantic.is_none() && self.sections.iter().all(intact)
    }

    /// True when any section tag is unknown to this reader.
    #[must_use]
    pub fn has_unknown_sections(&self) -> bool {
        self.sections
            .iter()
            .any(|s| s.status == SectionStatus::Unknown)
    }
}

fn intact(section: &SectionFsck) -> bool {
    !matches!(section.status, SectionStatus::ChecksumMismatch { .. })
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
    let sections = Container::parse(&bytes)?.audit(&KNOWN_TAGS);
    let (mut fingerprint, mut towers, mut k) = (0u64, 0usize, 0usize);
    let mut semantic = None;
    if sections.iter().all(intact) {
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
        version: VERSION,
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

    /// An extra section a newer writer added is checksum-verified and
    /// skipped: the snapshot still decodes, and fsck calls the file
    /// intact but marks the section unknown.
    #[test]
    fn unknown_sections_are_tolerated_and_reported() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let sections = Container::parse(&bytes).unwrap().sections().unwrap();
        let mut file = ContainerWriter::new(sections.len() + 1);
        for (tag, payload) in &sections {
            file.section(*tag).bytes(payload);
        }
        file.section(*b"future  ").u64(42);
        let extended = file.finish();
        assert_eq!(Snapshot::decode(&extended).unwrap(), snap);

        let dir = std::env::temp_dir().join(format!("tl-artifact-unknown-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.artifact");
        std::fs::write(&path, &extended).unwrap();
        let fsck = fsck_artifact(&path).unwrap();
        assert!(fsck.healthy());
        assert!(fsck.has_unknown_sections());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The section decoders meet payloads that pass their checksums
    /// but hold anything at all (a buggy or hostile writer): each such
    /// file decodes or fails typed, without a panic and without an
    /// allocation sized by a count the payload cannot hold.
    #[test]
    fn arbitrary_section_payloads_never_panic() {
        let bytes = sample_snapshot().encode();
        let sections = Container::parse(&bytes).unwrap().sections().unwrap();
        let mut lcg = 7u64;
        for victim in 0..sections.len() {
            let len = sections[victim].1.len();
            let mut noise = vec![0u8; len + 24];
            for b in &mut noise {
                lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                *b = (lcg >> 56) as u8;
            }
            for payload in [vec![], vec![0xff; 64], vec![0xff; len], noise] {
                let mut file = ContainerWriter::new(sections.len());
                for (i, (tag, original)) in sections.iter().enumerate() {
                    let out = file.section(*tag);
                    out.bytes(if i == victim { &payload } else { original });
                }
                let _ = Snapshot::decode(&file.finish());
            }
        }
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
