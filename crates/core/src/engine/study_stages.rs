//! The full-study pipeline expressed as a stage graph.
//!
//! ```text
//! wave 0   city
//! wave 1   synthesize            (city)
//! wave 2   vectorize             (synthesize)
//! wave 3   cluster               (vectorize)
//! wave 4   label | timedomain | frequency      — concurrent
//! wave 5   decompose             (cluster, label, frequency)
//! ```
//!
//! Artifact keys are the stage names. The first four stages carry a
//! [`StageCodec`], so a run against a [`CheckpointStore`] persists the
//! expensive front of the pipeline (generation, synthesis,
//! vectorization, clustering) and a resume reloads it bit-identically.
//! The cluster checkpoint carries the study's spectral table
//! ([`IdentifiedPatterns::features`]), which the `frequency` stage
//! reads instead of extracting it again.

use towerlens_city::city::{City, Tower};
use towerlens_city::config::CityConfig;
use towerlens_city::generate::generate;
use towerlens_city::geo::GeoPoint;
use towerlens_city::poi::{Poi, PoiIndex};
use towerlens_city::zone::{PoiKind, RegionKind, Zone};
use towerlens_cluster::dendrogram::{Clustering, Dendrogram, Merge};
use towerlens_cluster::validity::DbiPoint;
use towerlens_mobility::config::SynthConfig;
use towerlens_mobility::synth::synthesize_city;
use towerlens_opt::simplex::Solver;
use towerlens_pipeline::normalize::{normalize_matrix, NormalizedMatrix};
use towerlens_trace::time::TraceWindow;

use crate::decompose::{Decomposer, Decomposition};
use crate::freq::{
    cluster_feature_stats, representative_towers, ClusterFeatureStats, TowerFeatures,
};
use crate::identifier::{IdentifiedPatterns, IdentifierConfig, PatternIdentifier};
use crate::labeling::{cluster_of_kind, label_clusters, GeoLabels};
use crate::study::StudyConfig;
use crate::timedomain::{cluster_series, cluster_time_stats, ClusterTimeStats};

use towerlens_artifact::{ArtifactError, Dec, Enc};

use super::checkpoint::fnv1a64;
use super::runner::Graph;
use super::stage::{Stage, StageCodec, StageContext, StageOutput};
use super::EngineError;

/// Everything the study stages exchange: one variant per stage.
#[derive(Debug)]
pub enum StudyArtifact {
    /// `city` — the generated ground truth.
    City(City),
    /// `synthesize` — raw per-tower binned traffic (tower × bin).
    Raw(Vec<Vec<f64>>),
    /// `vectorize` — z-scored vectors with kept/dropped provenance.
    Vectors(NormalizedMatrix),
    /// `cluster` — the identified patterns.
    Patterns(IdentifiedPatterns),
    /// `label` — geographic labels and POI validation.
    Geo(GeoLabels),
    /// `timedomain` — per-cluster series and time statistics.
    TimeDomain {
        /// Per-cluster aggregate raw series.
        series: Vec<Vec<f64>>,
        /// Per-cluster §4 statistics.
        stats: Vec<ClusterTimeStats>,
    },
    /// `frequency` — per-tower features and per-cluster statistics.
    Frequency {
        /// Per-tower frequency features (kept-index aligned).
        features: Vec<TowerFeatures>,
        /// Per-cluster feature statistics.
        stats: Vec<[ClusterFeatureStats; 3]>,
    },
    /// `decompose` — representatives and §5.3 decompositions.
    Decompose {
        /// Vector indices of the four representative towers.
        representatives: Option<[usize; 4]>,
        /// Decomposition rows.
        rows: Vec<Decomposition>,
    },
}

/// The checkpoint fingerprint of a study configuration: runs resumed
/// from a store only reuse artifacts written under an identical
/// configuration. Thread counts steer scheduling, never numbers —
/// every parallel path is bit-identical to serial — so they are
/// normalised out: a checkpoint written at any `--threads` resumes at
/// any other.
pub fn study_fingerprint(config: &StudyConfig) -> u64 {
    let mut normalized = config.clone();
    normalized.threads = 0;
    normalized.synth.threads = 0;
    normalized.identifier.threads = 0;
    fnv1a64(format!("{normalized:?}").as_bytes())
}

/// Builds the eight-stage study graph for a configuration.
pub fn study_graph(config: &StudyConfig) -> Graph<StudyArtifact> {
    Graph::new()
        .add_stage(CityStage {
            config: config.city.clone(),
        })
        .add_stage(SynthesizeStage {
            window: config.window,
            synth: config.synth,
        })
        .add_stage(VectorizeStage {
            threads: config.threads,
        })
        .add_stage(ClusterStage {
            config: config.identifier,
            window: config.window,
        })
        .add_stage(LabelStage {
            threads: config.threads,
        })
        .add_stage(TimeDomainStage {
            window: config.window,
        })
        .add_stage(FrequencyStage)
        .add_stage(DecomposeStage {
            sample: config.decompose_sample,
            threads: config.threads,
        })
}

// ---- typed artifact fetch helpers -------------------------------

fn city_of<'a>(ctx: &StageContext<'a, StudyArtifact>, name: &str) -> Result<&'a City, EngineError> {
    match ctx.artifact(name)? {
        StudyArtifact::City(c) => Ok(c),
        _ => Err(ctx.fail(format!("artifact `{name}` is not a city"))),
    }
}

fn raw_of<'a>(
    ctx: &StageContext<'a, StudyArtifact>,
    name: &str,
) -> Result<&'a Vec<Vec<f64>>, EngineError> {
    match ctx.artifact(name)? {
        StudyArtifact::Raw(r) => Ok(r),
        _ => Err(ctx.fail(format!("artifact `{name}` is not a raw matrix"))),
    }
}

fn vectors_of<'a>(
    ctx: &StageContext<'a, StudyArtifact>,
    name: &str,
) -> Result<&'a NormalizedMatrix, EngineError> {
    match ctx.artifact(name)? {
        StudyArtifact::Vectors(v) => Ok(v),
        _ => Err(ctx.fail(format!("artifact `{name}` is not a vector matrix"))),
    }
}

fn patterns_of<'a>(
    ctx: &StageContext<'a, StudyArtifact>,
    name: &str,
) -> Result<&'a IdentifiedPatterns, EngineError> {
    match ctx.artifact(name)? {
        StudyArtifact::Patterns(p) => Ok(p),
        _ => Err(ctx.fail(format!("artifact `{name}` is not a pattern set"))),
    }
}

fn geo_of<'a>(
    ctx: &StageContext<'a, StudyArtifact>,
    name: &str,
) -> Result<&'a GeoLabels, EngineError> {
    match ctx.artifact(name)? {
        StudyArtifact::Geo(g) => Ok(g),
        _ => Err(ctx.fail(format!("artifact `{name}` is not a label set"))),
    }
}

fn features_of_artifact<'a>(
    ctx: &StageContext<'a, StudyArtifact>,
    name: &str,
) -> Result<&'a [TowerFeatures], EngineError> {
    match ctx.artifact(name)? {
        StudyArtifact::Frequency { features, .. } => Ok(features),
        _ => Err(ctx.fail(format!("artifact `{name}` is not a feature set"))),
    }
}

// ---- stages -----------------------------------------------------

struct CityStage {
    config: CityConfig,
}

impl Stage<StudyArtifact> for CityStage {
    fn name(&self) -> &'static str {
        "city"
    }
    fn run(
        &self,
        ctx: &StageContext<'_, StudyArtifact>,
    ) -> Result<StageOutput<StudyArtifact>, EngineError> {
        let city = generate(&self.config).map_err(|e| ctx.fail(e))?;
        let (towers, zones, pois) = (
            city.towers().len() as u64,
            city.zones().len() as u64,
            city.pois().pois().len() as u64,
        );
        Ok(StageOutput::new(StudyArtifact::City(city))
            .with_card("towers", towers)
            .with_card("zones", zones)
            .with_card("pois", pois))
    }
    fn codec(&self) -> Option<&dyn StageCodec<StudyArtifact>> {
        Some(&CityCodec)
    }
}

struct SynthesizeStage {
    window: TraceWindow,
    synth: SynthConfig,
}

impl Stage<StudyArtifact> for SynthesizeStage {
    fn name(&self) -> &'static str {
        "synthesize"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["city"]
    }
    fn run(
        &self,
        ctx: &StageContext<'_, StudyArtifact>,
    ) -> Result<StageOutput<StudyArtifact>, EngineError> {
        let city = city_of(ctx, "city")?;
        let raw = synthesize_city(city, &self.window, &self.synth);
        let (towers, bins) = (raw.len() as u64, self.window.n_bins as u64);
        Ok(StageOutput::new(StudyArtifact::Raw(raw))
            .with_card("towers", towers)
            .with_card("bins", bins))
    }
    fn codec(&self) -> Option<&dyn StageCodec<StudyArtifact>> {
        Some(&RawCodec)
    }
}

struct VectorizeStage {
    threads: usize,
}

impl Stage<StudyArtifact> for VectorizeStage {
    fn name(&self) -> &'static str {
        "vectorize"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["synthesize"]
    }
    fn run(
        &self,
        ctx: &StageContext<'_, StudyArtifact>,
    ) -> Result<StageOutput<StudyArtifact>, EngineError> {
        let raw = raw_of(ctx, "synthesize")?;
        let normalized = normalize_matrix(raw, self.threads).map_err(|e| ctx.fail(e))?;
        let (kept, dropped) = (
            normalized.kept_ids.len() as u64,
            normalized.dropped.len() as u64,
        );
        Ok(StageOutput::new(StudyArtifact::Vectors(normalized))
            .with_card("kept", kept)
            .with_card("dropped", dropped))
    }
    fn codec(&self) -> Option<&dyn StageCodec<StudyArtifact>> {
        Some(&VectorsCodec)
    }
}

struct ClusterStage {
    config: IdentifierConfig,
    /// Supplies the principal bins of the spectral table.
    window: TraceWindow,
}

impl Stage<StudyArtifact> for ClusterStage {
    fn name(&self) -> &'static str {
        "cluster"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["vectorize"]
    }
    fn run(
        &self,
        ctx: &StageContext<'_, StudyArtifact>,
    ) -> Result<StageOutput<StudyArtifact>, EngineError> {
        let normalized = vectors_of(ctx, "vectorize")?;
        let identifier = PatternIdentifier::new(self.config);
        let patterns = identifier
            .identify_in(&normalized.vectors, Some(&self.window))
            .map_err(|e| ctx.fail(e))?;
        let (n, k, merges) = (
            normalized.vectors.len() as u64,
            patterns.k as u64,
            patterns.dendrogram.merges().len() as u64,
        );
        Ok(StageOutput::new(StudyArtifact::Patterns(patterns))
            .with_card("vectors", n)
            .with_card("k", k)
            .with_card("merges", merges))
    }
    fn codec(&self) -> Option<&dyn StageCodec<StudyArtifact>> {
        Some(&PatternsCodec)
    }
}

struct LabelStage {
    threads: usize,
}

impl Stage<StudyArtifact> for LabelStage {
    fn name(&self) -> &'static str {
        "label"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["city", "vectorize", "cluster"]
    }
    fn run(
        &self,
        ctx: &StageContext<'_, StudyArtifact>,
    ) -> Result<StageOutput<StudyArtifact>, EngineError> {
        let city = city_of(ctx, "city")?;
        let normalized = vectors_of(ctx, "vectorize")?;
        let patterns = patterns_of(ctx, "cluster")?;
        let geo = label_clusters(
            city,
            &patterns.clustering,
            &normalized.kept_ids,
            self.threads,
        )
        .map_err(|e| ctx.fail(e))?;
        let (clusters, hotspots) = (geo.labels.len() as u64, geo.hotspots.len() as u64);
        Ok(StageOutput::new(StudyArtifact::Geo(geo))
            .with_card("clusters", clusters)
            .with_card("hotspots", hotspots))
    }
    // Geographic labelling enriches the study but the clustering
    // stands on its own: degrade, don't die.
    fn optional(&self) -> bool {
        true
    }
}

struct TimeDomainStage {
    window: TraceWindow,
}

impl Stage<StudyArtifact> for TimeDomainStage {
    fn name(&self) -> &'static str {
        "timedomain"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["synthesize", "vectorize", "cluster"]
    }
    fn run(
        &self,
        ctx: &StageContext<'_, StudyArtifact>,
    ) -> Result<StageOutput<StudyArtifact>, EngineError> {
        let raw = raw_of(ctx, "synthesize")?;
        let normalized = vectors_of(ctx, "vectorize")?;
        let patterns = patterns_of(ctx, "cluster")?;
        let kept_raw: Vec<&[f64]> = normalized
            .kept_ids
            .iter()
            .map(|&id| raw[id].as_slice())
            .collect();
        let series = cluster_series(&kept_raw, &patterns.clustering).map_err(|e| ctx.fail(e))?;
        let stats: Vec<ClusterTimeStats> = series
            .iter()
            .map(|s| cluster_time_stats(s, &self.window))
            .collect::<Result<_, _>>()
            .map_err(|e| ctx.fail(e))?;
        let clusters = series.len() as u64;
        Ok(
            StageOutput::new(StudyArtifact::TimeDomain { series, stats })
                .with_card("clusters", clusters),
        )
    }
    fn optional(&self) -> bool {
        true
    }
}

/// Reads the cluster stage's spectral table; a window without a whole
/// week has none, and the stage fails with that.
struct FrequencyStage;

impl Stage<StudyArtifact> for FrequencyStage {
    fn name(&self) -> &'static str {
        "frequency"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["cluster"]
    }
    fn run(
        &self,
        ctx: &StageContext<'_, StudyArtifact>,
    ) -> Result<StageOutput<StudyArtifact>, EngineError> {
        let patterns = patterns_of(ctx, "cluster")?;
        let features = patterns.feature_table().map_err(|e| ctx.fail(e))?.to_vec();
        let stats =
            cluster_feature_stats(&features, &patterns.clustering).map_err(|e| ctx.fail(e))?;
        let (towers, clusters) = (features.len() as u64, stats.len() as u64);
        Ok(
            StageOutput::new(StudyArtifact::Frequency { features, stats })
                .with_card("towers", towers)
                .with_card("clusters", clusters),
        )
    }
    fn optional(&self) -> bool {
        true
    }
}

struct DecomposeStage {
    sample: usize,
    threads: usize,
}

impl Stage<StudyArtifact> for DecomposeStage {
    fn name(&self) -> &'static str {
        "decompose"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["cluster", "label", "frequency"]
    }
    fn run(
        &self,
        ctx: &StageContext<'_, StudyArtifact>,
    ) -> Result<StageOutput<StudyArtifact>, EngineError> {
        let patterns = patterns_of(ctx, "cluster")?;
        let geo = geo_of(ctx, "label")?;
        let features = features_of_artifact(ctx, "frequency")?;

        let pure_clusters: Option<Vec<usize>> = RegionKind::PURE
            .iter()
            .map(|&k| cluster_of_kind(&geo.labels, k))
            .collect();
        let (representatives, rows) = match pure_clusters {
            Some(pure) if pure.len() == 4 => {
                let reps = representative_towers(features, &patterns.clustering, &pure)
                    .map_err(|e| ctx.fail(e))?;
                let reps4: [usize; 4] = [reps[0], reps[1], reps[2], reps[3]];
                let rep_features: [TowerFeatures; 4] = [
                    features[reps4[0]],
                    features[reps4[1]],
                    features[reps4[2]],
                    features[reps4[3]],
                ];
                let decomposer = Decomposer::new(&rep_features, &geo.tower_poi, Solver::ActiveSet)
                    .map_err(|e| ctx.fail(e))?;
                // Rows F1..F4: the representatives themselves.
                let mut targets: Vec<usize> = reps4.to_vec();
                // Rows P1..Pn: sampled comprehensive towers.
                if let Some(comp) = cluster_of_kind(&geo.labels, RegionKind::Comprehensive) {
                    let members = patterns.clustering.members(comp);
                    let step = (members.len() / self.sample.max(1)).max(1);
                    targets.extend(members.iter().step_by(step).take(self.sample));
                }
                let rows = decomposer
                    .decompose_all_par(&targets, features, self.threads)
                    .map_err(|e| ctx.fail(e))?;
                (Some(reps4), rows)
            }
            _ => (None, Vec::new()),
        };
        let n_rows = rows.len() as u64;
        let n_reps = if representatives.is_some() { 4 } else { 0 };
        Ok(StageOutput::new(StudyArtifact::Decompose {
            representatives,
            rows,
        })
        .with_card("rows", n_rows)
        .with_card("representatives", n_reps))
    }
    fn optional(&self) -> bool {
        true
    }
}

// ---- codecs -----------------------------------------------------

fn encode_matrix(matrix: &[Vec<f64>], out: &mut Enc) {
    out.usize(matrix.len());
    out.usize(matrix.first().map_or(0, Vec::len));
    for row in matrix {
        out.f64s(row);
    }
}

fn decode_matrix(d: &mut Dec<'_>) -> Result<Vec<Vec<f64>>, ArtifactError> {
    let rows = d.usize()?;
    let cols = d.usize()?;
    let fits = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(8))
        .is_some_and(|bytes| bytes <= d.remaining());
    if !fits || (cols == 0 && rows > 0) {
        return Err(d.corrupt(format!("a {rows} x {cols} matrix exceeds the payload")));
    }
    (0..rows).map(|_| d.f64s(cols)).collect()
}

fn encode_ids(ids: &[usize], out: &mut Enc) {
    out.usize(ids.len());
    for &id in ids {
        out.usize(id);
    }
}

fn decode_ids(d: &mut Dec<'_>) -> Result<Vec<usize>, ArtifactError> {
    let n = d.count(8)?;
    (0..n).map(|_| d.usize()).collect()
}

fn encode_geo(p: &GeoPoint, out: &mut Enc) {
    out.f64(p.lon);
    out.f64(p.lat);
}

fn decode_geo(d: &mut Dec<'_>) -> Result<GeoPoint, ArtifactError> {
    Ok(GeoPoint {
        lon: d.f64()?,
        lat: d.f64()?,
    })
}

fn decode_region(d: &mut Dec<'_>) -> Result<RegionKind, ArtifactError> {
    let index = d.usize()?;
    RegionKind::from_index(index).ok_or_else(|| d.corrupt(format!("bad region kind {index}")))
}

struct CityCodec;

impl StageCodec<StudyArtifact> for CityCodec {
    fn encode(&self, artifact: &StudyArtifact, out: &mut Enc) -> Result<(), String> {
        let StudyArtifact::City(city) = artifact else {
            return Err("expected a city artifact".to_string());
        };
        encode_geo(&city.center(), out);
        out.f64s(&city.comprehensive_blend());
        out.usize(city.zones().len());
        for z in city.zones() {
            out.usize(z.id);
            out.usize(z.kind.index());
            out.f64(z.radius_m);
            encode_geo(&z.center, out);
        }
        out.usize(city.towers().len());
        for t in city.towers() {
            out.usize(t.id);
            out.usize(t.kind_truth.index());
            out.usize(t.zone_id);
            encode_geo(&t.position, out);
            out.str(&t.address);
        }
        let pois = city.pois().pois();
        out.usize(pois.len());
        for p in pois {
            out.usize(p.kind.index());
            out.usize(p.zone_id);
            encode_geo(&p.position, out);
        }
        Ok(())
    }

    fn decode(&self, d: &mut Dec<'_>) -> Result<StudyArtifact, ArtifactError> {
        let center = decode_geo(d)?;
        let mut blend = [0.0f64; 4];
        for b in &mut blend {
            *b = d.f64()?;
        }
        let n_zones = d.count(40)?;
        let mut zones = Vec::with_capacity(n_zones);
        for _ in 0..n_zones {
            zones.push(Zone {
                id: d.usize()?,
                kind: decode_region(d)?,
                radius_m: d.f64()?,
                center: decode_geo(d)?,
            });
        }
        let n_towers = d.count(48)?;
        let mut towers = Vec::with_capacity(n_towers);
        for _ in 0..n_towers {
            towers.push(Tower {
                id: d.usize()?,
                kind_truth: decode_region(d)?,
                zone_id: d.usize()?,
                position: decode_geo(d)?,
                address: d.str()?,
            });
        }
        let n_pois = d.count(32)?;
        let mut pois = Vec::with_capacity(n_pois);
        for _ in 0..n_pois {
            let index = d.usize()?;
            let kind = PoiKind::from_index(index)
                .ok_or_else(|| d.corrupt(format!("bad poi kind {index}")))?;
            pois.push(Poi {
                kind,
                zone_id: d.usize()?,
                position: decode_geo(d)?,
            });
        }
        Ok(StudyArtifact::City(City::from_parts(
            zones,
            towers,
            PoiIndex::build(pois),
            center,
            blend,
        )))
    }
}

struct RawCodec;

impl StageCodec<StudyArtifact> for RawCodec {
    fn encode(&self, artifact: &StudyArtifact, out: &mut Enc) -> Result<(), String> {
        let StudyArtifact::Raw(raw) = artifact else {
            return Err("expected a raw-matrix artifact".to_string());
        };
        encode_matrix(raw, out);
        Ok(())
    }

    fn decode(&self, d: &mut Dec<'_>) -> Result<StudyArtifact, ArtifactError> {
        Ok(StudyArtifact::Raw(decode_matrix(d)?))
    }
}

/// Encodes a [`NormalizedMatrix`] into a checkpoint body. Shared with
/// the CLI's analyze graph, which checkpoints the same artifact type.
pub fn encode_normalized(nm: &NormalizedMatrix, out: &mut Enc) {
    encode_ids(&nm.kept_ids, out);
    encode_ids(&nm.dropped, out);
    out.usize(nm.imputed.len());
    for mask in &nm.imputed {
        encode_ids(mask, out);
    }
    encode_matrix(&nm.vectors, out);
}

/// Decodes a [`NormalizedMatrix`] written by [`encode_normalized`].
///
/// # Errors
/// The reader's [`ArtifactError`] when the body is malformed or
/// inconsistent.
pub fn decode_normalized(d: &mut Dec<'_>) -> Result<NormalizedMatrix, ArtifactError> {
    let kept_ids = decode_ids(d)?;
    let dropped = decode_ids(d)?;
    let n_masks = d.count(8)?;
    let imputed = (0..n_masks)
        .map(|_| decode_ids(d))
        .collect::<Result<Vec<_>, _>>()?;
    let vectors = decode_matrix(d)?;
    if vectors.len() != kept_ids.len() || imputed.len() != kept_ids.len() {
        return Err(d.corrupt(format!(
            "{} vectors and {} imputed masks but {} kept ids",
            vectors.len(),
            imputed.len(),
            kept_ids.len()
        )));
    }
    Ok(NormalizedMatrix {
        vectors,
        kept_ids,
        dropped,
        imputed,
    })
}

/// Encodes an [`IdentifiedPatterns`], spectral table included, into a
/// checkpoint body. Shared with the CLI's analyze graph.
pub fn encode_patterns(p: &IdentifiedPatterns, out: &mut Enc) {
    out.usize(p.k);
    out.f64(p.threshold);
    encode_ids(&p.clustering.labels, out);
    out.usize(p.clustering.k);
    out.usize(p.dbi_curve.len());
    for point in &p.dbi_curve {
        out.usize(point.k);
        out.f64(point.threshold);
        out.f64(point.dbi);
    }
    encode_matrix(&p.centroids, out);
    out.usize(p.member_distances.len());
    for row in &p.member_distances {
        out.usize(row.len());
        out.f64s(row);
    }
    out.usize(p.dendrogram.len());
    out.usize(p.dendrogram.merges().len());
    for m in p.dendrogram.merges() {
        out.usize(m.a);
        out.usize(m.b);
        out.usize(m.size);
        out.f64(m.distance);
    }
    // The spectral table: a presence flag, then one six-feature row
    // per labelled vector.
    match &p.features {
        Some(table) => {
            out.u64(1);
            for f in table {
                out.f64s(&f.f6());
            }
        }
        None => out.u64(0),
    }
}

/// Decodes an [`IdentifiedPatterns`] written by [`encode_patterns`].
///
/// # Errors
/// The reader's [`ArtifactError`] when the body is malformed or
/// inconsistent.
pub fn decode_patterns(d: &mut Dec<'_>) -> Result<IdentifiedPatterns, ArtifactError> {
    let k = d.usize()?;
    let threshold = d.f64()?;
    let clustering = Clustering {
        labels: decode_ids(d)?,
        k: d.usize()?,
    };
    let n_points = d.count(24)?;
    let mut dbi_curve = Vec::with_capacity(n_points);
    for _ in 0..n_points {
        dbi_curve.push(DbiPoint {
            k: d.usize()?,
            threshold: d.f64()?,
            dbi: d.f64()?,
        });
    }
    let centroids = decode_matrix(d)?;
    let n_rows = d.count(8)?;
    let mut member_distances = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let len = d.usize()?;
        member_distances.push(d.f64s(len)?);
    }
    let n = d.usize()?;
    let n_merges = d.count(32)?;
    let mut merges = Vec::with_capacity(n_merges);
    for _ in 0..n_merges {
        merges.push(Merge {
            a: d.usize()?,
            b: d.usize()?,
            size: d.usize()?,
            distance: d.f64()?,
        });
    }
    let dendrogram =
        Dendrogram::from_sorted_merges(n, merges).map_err(|e| d.corrupt(e.to_string()))?;
    let features = match d.u64()? {
        0 => None,
        1 => {
            let rows = clustering.labels.len();
            let table = d.f64s(rows.saturating_mul(6))?;
            Some(
                table
                    .chunks_exact(6)
                    .map(|r| TowerFeatures {
                        amp_week: r[0],
                        phase_week: r[1],
                        amp_day: r[2],
                        phase_day: r[3],
                        amp_half: r[4],
                        phase_half: r[5],
                    })
                    .collect(),
            )
        }
        flag => return Err(d.corrupt(format!("bad spectral-table flag {flag}"))),
    };
    Ok(IdentifiedPatterns {
        clustering,
        k,
        threshold,
        dbi_curve,
        centroids,
        member_distances,
        dendrogram,
        features,
    })
}

struct VectorsCodec;

impl StageCodec<StudyArtifact> for VectorsCodec {
    fn encode(&self, artifact: &StudyArtifact, out: &mut Enc) -> Result<(), String> {
        let StudyArtifact::Vectors(nm) = artifact else {
            return Err("expected a vector-matrix artifact".to_string());
        };
        encode_normalized(nm, out);
        Ok(())
    }

    fn decode(&self, d: &mut Dec<'_>) -> Result<StudyArtifact, ArtifactError> {
        Ok(StudyArtifact::Vectors(decode_normalized(d)?))
    }
}

struct PatternsCodec;

impl StageCodec<StudyArtifact> for PatternsCodec {
    fn encode(&self, artifact: &StudyArtifact, out: &mut Enc) -> Result<(), String> {
        let StudyArtifact::Patterns(p) = artifact else {
            return Err("expected a pattern-set artifact".to_string());
        };
        encode_patterns(p, out);
        Ok(())
    }

    fn decode(&self, d: &mut Dec<'_>) -> Result<StudyArtifact, ArtifactError> {
        Ok(StudyArtifact::Patterns(decode_patterns(d)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::checkpoint::CheckpointStore;

    #[test]
    fn study_graph_schedules_the_documented_waves() {
        let graph = study_graph(&StudyConfig::tiny(7));
        assert_eq!(
            graph.waves().unwrap(),
            vec![
                vec!["city"],
                vec!["synthesize"],
                vec!["vectorize"],
                vec!["cluster"],
                vec!["label", "timedomain", "frequency"],
                vec!["decompose"],
            ]
        );
    }

    #[test]
    fn fingerprint_separates_configurations() {
        let a = study_fingerprint(&StudyConfig::tiny(7));
        assert_eq!(a, study_fingerprint(&StudyConfig::tiny(7)));
        assert_ne!(a, study_fingerprint(&StudyConfig::tiny(8)));
        assert_ne!(a, study_fingerprint(&StudyConfig::small(7)));
    }

    /// Thread counts only steer scheduling; a checkpoint written at
    /// one `--threads` must be reusable at any other.
    #[test]
    fn fingerprint_ignores_thread_counts() {
        let serial = study_fingerprint(&StudyConfig::tiny(7).with_threads(1));
        assert_eq!(serial, study_fingerprint(&StudyConfig::tiny(7)));
        assert_eq!(
            serial,
            study_fingerprint(&StudyConfig::tiny(7).with_threads(8))
        );
    }

    /// No study codec panics or over-allocates on a damaged body:
    /// every sampled prefix is an error, sampled single-byte changes
    /// decode to a value or an error, and counts beyond the payload are
    /// rejected before anything is sized by them.
    #[test]
    fn study_codecs_survive_arbitrary_bodies() {
        let outcome = study_graph(&StudyConfig::tiny(11)).run(None).unwrap();
        let codecs: [(&str, &dyn StageCodec<StudyArtifact>); 4] = [
            ("city", &CityCodec),
            ("synthesize", &RawCodec),
            ("vectorize", &VectorsCodec),
            ("cluster", &PatternsCodec),
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for (stage, codec) in codecs {
            let mut enc = Enc::default();
            codec.encode(&outcome.artifacts[stage], &mut enc).unwrap();
            let body = enc.into_bytes();
            let decode = |bytes: &[u8]| {
                let mut d = Dec::new(bytes, "body");
                codec.decode(&mut d).and_then(|a| d.finish().map(|()| a))
            };
            assert!(decode(&body).is_ok(), "{stage}");
            for cut in (0..body.len()).step_by((body.len() / 97).max(1)) {
                assert!(decode(&body[..cut]).is_err(), "{stage}: prefix {cut}");
            }
            let mut bent = body.clone();
            for _ in 0..200 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let at = (state >> 33) as usize % body.len();
                bent[at] ^= (state >> 8) as u8 | 1;
                let _ = decode(&bent);
                bent[at] = body[at];
            }
            assert!(decode(&[0xff; 64]).is_err(), "{stage}");
        }
    }

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir =
            std::env::temp_dir().join(format!("towerlens-stages-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(dir, 1).unwrap()
    }

    /// Every study codec must reload its artifact bit-identically.
    #[test]
    fn study_codecs_roundtrip_bit_identically() {
        let config = StudyConfig::tiny(11);
        let outcome = study_graph(&config).run(None).unwrap();
        let store = temp_store("roundtrip");

        // city
        let city_art = &outcome.artifacts["city"];
        store.save("city", &[], &CityCodec, city_art).unwrap();
        let (loaded, _) = store.load("city", &CityCodec).unwrap().unwrap();
        let (StudyArtifact::City(a), StudyArtifact::City(b)) = (city_art, &loaded) else {
            panic!("wrong variants");
        };
        assert_eq!(a.towers().len(), b.towers().len());
        assert_eq!(a.zones().len(), b.zones().len());
        assert_eq!(a.pois().pois().len(), b.pois().pois().len());
        for (x, y) in a.towers().iter().zip(b.towers()) {
            assert_eq!(x.position.lon.to_bits(), y.position.lon.to_bits());
            assert_eq!(x.address, y.address);
            assert_eq!(x.kind_truth, y.kind_truth);
        }
        assert_eq!(a.bounds().min_lon.to_bits(), b.bounds().min_lon.to_bits());
        assert_eq!(a.comprehensive_blend(), b.comprehensive_blend());

        // synthesize
        let raw_art = &outcome.artifacts["synthesize"];
        store.save("synthesize", &[], &RawCodec, raw_art).unwrap();
        let (loaded, _) = store.load("synthesize", &RawCodec).unwrap().unwrap();
        let (StudyArtifact::Raw(a), StudyArtifact::Raw(b)) = (raw_art, &loaded) else {
            panic!("wrong variants");
        };
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(b) {
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        // vectorize
        let vec_art = &outcome.artifacts["vectorize"];
        store
            .save("vectorize", &[], &VectorsCodec, vec_art)
            .unwrap();
        let (loaded, _) = store.load("vectorize", &VectorsCodec).unwrap().unwrap();
        let (StudyArtifact::Vectors(a), StudyArtifact::Vectors(b)) = (vec_art, &loaded) else {
            panic!("wrong variants");
        };
        assert_eq!(a.kept_ids, b.kept_ids);
        assert_eq!(a.dropped, b.dropped);
        for (ra, rb) in a.vectors.iter().zip(&b.vectors) {
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        // cluster
        let pat_art = &outcome.artifacts["cluster"];
        store.save("cluster", &[], &PatternsCodec, pat_art).unwrap();
        let (loaded, _) = store.load("cluster", &PatternsCodec).unwrap().unwrap();
        let (StudyArtifact::Patterns(a), StudyArtifact::Patterns(b)) = (pat_art, &loaded) else {
            panic!("wrong variants");
        };
        assert_eq!(a.k, b.k);
        assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.dbi_curve.len(), b.dbi_curve.len());
        for (x, y) in a.dbi_curve.iter().zip(&b.dbi_curve) {
            assert_eq!(x.k, y.k);
            assert_eq!(x.dbi.to_bits(), y.dbi.to_bits());
        }
        assert_eq!(a.member_distances, b.member_distances);
        assert_eq!(a.dendrogram.merges(), b.dendrogram.merges());
        // The spectral table, bit for bit.
        let bits = |p: &IdentifiedPatterns| -> Vec<[u64; 6]> {
            let table = p.feature_table().unwrap();
            table.iter().map(|f| f.f6().map(f64::to_bits)).collect()
        };
        assert_eq!(bits(a).len(), a.clustering.labels.len());
        assert_eq!(bits(a), bits(b));
        // The reloaded dendrogram must cut identically.
        for k in 1..=a.k {
            assert_eq!(
                a.dendrogram.cut_k(k).unwrap(),
                b.dendrogram.cut_k(k).unwrap()
            );
        }
    }
}
