//! End-to-end study driver: city → traffic → vectorizer → patterns →
//! labels → time & frequency analyses → decomposition.
//!
//! This is the programmatic equivalent of "run the whole paper once".
//! The pipeline is expressed as an [`engine`](crate::engine) stage
//! graph (see [`crate::engine::study_stages`] for the stage list and
//! wave structure); [`Study::run`] executes it and assembles the
//! [`StudyReport`] from the stage artifacts. The repro harness
//! (`towerlens-bench`) and the examples consume the report.
//!
//! [`Study::run_instrumented`] additionally returns the per-stage
//! [`RunReport`] and, given a [`CheckpointStore`], persists the
//! expensive front of the pipeline so a later run resumes from disk.

use std::collections::HashMap;

use towerlens_city::city::City;
use towerlens_city::config::CityConfig;
use towerlens_city::zone::RegionKind;
use towerlens_mobility::config::SynthConfig;
use towerlens_pipeline::feature::FeatureSpace;
use towerlens_trace::time::TraceWindow;

use crate::decompose::Decomposition;
use crate::engine::{
    study_fingerprint, study_graph, CheckpointStore, EngineError, RunOutcome, RunReport,
    StudyArtifact, Supervisor,
};
use crate::error::CoreError;
use crate::freq::{ClusterFeatureStats, TowerFeatures};
use crate::identifier::{IdentifiedPatterns, IdentifierConfig};
use crate::labeling::{cluster_of_kind, GeoLabels};
use crate::timedomain::ClusterTimeStats;

/// Configuration of a full study run.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// City generation parameters.
    pub city: CityConfig,
    /// Traffic synthesis parameters.
    pub synth: SynthConfig,
    /// Binning window.
    pub window: TraceWindow,
    /// Pattern-identifier parameters.
    pub identifier: IdentifierConfig,
    /// How many comprehensive-cluster towers to decompose in §5.3.
    pub decompose_sample: usize,
    /// Worker threads for the labelling, frequency, and decomposition
    /// stages (`0` = available parallelism). Synthesis and clustering
    /// carry their own knobs ([`SynthConfig::threads`],
    /// [`IdentifierConfig::threads`]); [`StudyConfig::with_threads`]
    /// sets all of them at once. Thread counts never change any
    /// number — every parallel path is bit-identical to serial.
    pub threads: usize,
}

impl StudyConfig {
    /// Paper scale: 9,600 towers, 4 weeks. Minutes of compute.
    pub fn paper_scale(seed: u64) -> Self {
        StudyConfig {
            city: CityConfig::paper_scale(seed),
            synth: SynthConfig {
                seed: seed ^ 0x5EED,
                ..SynthConfig::default()
            },
            window: TraceWindow::paper(),
            identifier: IdentifierConfig::default(),
            decompose_sample: 32,
            threads: 0,
        }
    }

    /// Applies one worker-thread budget across every parallel stage:
    /// synthesis, clustering, labelling, frequency, decomposition.
    /// `0` means "use available parallelism".
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self.synth.threads = threads;
        self.identifier.threads = threads;
        self
    }

    /// Medium scale (repro default): 2,400 towers, 4 weeks. Seconds.
    pub fn medium(seed: u64) -> Self {
        StudyConfig {
            city: CityConfig::medium(seed),
            ..StudyConfig::paper_scale(seed)
        }
    }

    /// Small scale: 600 towers, 2 weeks.
    pub fn small(seed: u64) -> Self {
        StudyConfig {
            city: CityConfig::small(seed),
            window: TraceWindow::days(14),
            ..StudyConfig::paper_scale(seed)
        }
    }

    /// Tiny scale for tests: 120 towers, 1 week.
    pub fn tiny(seed: u64) -> Self {
        StudyConfig {
            city: CityConfig::tiny(seed),
            window: TraceWindow::days(7),
            decompose_sample: 8,
            ..StudyConfig::paper_scale(seed)
        }
    }
}

/// Everything a study run produces.
#[derive(Debug)]
pub struct StudyReport {
    /// The generated city (ground truth included).
    pub city: City,
    /// The binning window used.
    pub window: TraceWindow,
    /// Raw per-tower traffic (tower id × bin, bytes).
    pub raw: Vec<Vec<f64>>,
    /// Tower id of each analysed (kept) vector.
    pub kept_ids: Vec<usize>,
    /// Z-scored traffic vectors (kept-index aligned).
    pub vectors: Vec<Vec<f64>>,
    /// The identified patterns (clustering, DBI curve, centroids).
    pub patterns: IdentifiedPatterns,
    /// Geographic labels and POI validation.
    pub geo: GeoLabels,
    /// Per-cluster aggregate raw series.
    pub cluster_series: Vec<Vec<f64>>,
    /// Per-cluster time-domain statistics (§4).
    pub time_stats: Vec<ClusterTimeStats>,
    /// Per-tower frequency features (kept-index aligned).
    pub features: Vec<TowerFeatures>,
    /// Per-cluster frequency-feature statistics (Fig 16).
    pub feature_stats: Vec<[ClusterFeatureStats; 3]>,
    /// Vector indices of the four representative towers (pure-pattern
    /// order), when all four pure patterns were labelled.
    pub representatives: Option<[usize; 4]>,
    /// §5.3 decompositions of sampled comprehensive towers (plus the
    /// four representatives themselves as the `F1..F4` sanity rows).
    pub decompositions: Vec<Decomposition>,
}

impl StudyReport {
    /// The cluster index labelled with `kind`, if any.
    pub fn cluster_of(&self, kind: RegionKind) -> Option<usize> {
        cluster_of_kind(&self.geo.labels, kind)
    }

    /// City-wide aggregate traffic series.
    pub fn total_series(&self) -> Vec<f64> {
        let n_bins = self.window.n_bins;
        let mut total = vec![0.0; n_bins];
        for row in &self.raw {
            for (t, v) in total.iter_mut().zip(row) {
                *t += v;
            }
        }
        total
    }

    /// The z-scored vector of a representative tower (by pure-pattern
    /// index 0..4), if representatives were found.
    pub fn representative_vector(&self, pure_idx: usize) -> Option<&[f64]> {
        let reps = self.representatives?;
        self.vectors.get(*reps.get(pure_idx)?).map(|v| v.as_slice())
    }

    /// An FNV-1a content hash over every numeric and categorical
    /// field of the report, with floats hashed by bit pattern. Two
    /// reports fingerprint equal iff the pipeline produced
    /// bit-identical results — the oracle for resumed vs fresh runs
    /// and for any thread count, and the engine's pin: a test holds
    /// the fingerprints of five seeded studies at fixed values. The
    /// spectral table is hashed once, as [`StudyReport::features`]: the
    /// frequency stage copies it from `patterns`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        // Window.
        h.u64(self.window.start_s);
        h.u64(self.window.bin_secs);
        h.usize(self.window.n_bins);
        // City (ordered collections only: hash the POI list in
        // insertion order, not the spatial index's sorted layout).
        for z in self.city.zones() {
            h.usize(z.id);
            h.usize(z.kind.index());
            h.f64(z.center.lon);
            h.f64(z.center.lat);
            h.f64(z.radius_m);
        }
        for t in self.city.towers() {
            h.usize(t.id);
            h.usize(t.kind_truth.index());
            h.usize(t.zone_id);
            h.f64(t.position.lon);
            h.f64(t.position.lat);
            h.bytes(t.address.as_bytes());
        }
        for p in self.city.pois().pois() {
            h.usize(p.kind.index());
            h.usize(p.zone_id);
            h.f64(p.position.lon);
            h.f64(p.position.lat);
        }
        let b = self.city.bounds();
        for v in [b.min_lon, b.max_lon, b.min_lat, b.max_lat] {
            h.f64(v);
        }
        h.f64(self.city.center().lon);
        h.f64(self.city.center().lat);
        for v in self.city.comprehensive_blend() {
            h.f64(v);
        }
        // Traffic and vectors.
        for row in &self.raw {
            h.row(row);
        }
        for &id in &self.kept_ids {
            h.usize(id);
        }
        for row in &self.vectors {
            h.row(row);
        }
        // Patterns.
        h.usize(self.patterns.k);
        h.f64(self.patterns.threshold);
        h.usize(self.patterns.clustering.k);
        for &l in &self.patterns.clustering.labels {
            h.usize(l);
        }
        for p in &self.patterns.dbi_curve {
            h.usize(p.k);
            h.f64(p.threshold);
            h.f64(p.dbi);
        }
        for row in &self.patterns.centroids {
            h.row(row);
        }
        for row in &self.patterns.member_distances {
            h.row(row);
        }
        for m in self.patterns.dendrogram.merges() {
            h.usize(m.a);
            h.usize(m.b);
            h.usize(m.size);
            h.f64(m.distance);
        }
        // Geography.
        for &l in &self.geo.labels {
            h.usize(l.index());
        }
        for profile in &self.geo.poi_profiles {
            for &v in profile {
                h.f64(v);
            }
        }
        for p in &self.geo.hotspots {
            h.f64(p.lon);
            h.f64(p.lat);
        }
        for counts in &self.geo.hotspot_poi {
            for &c in counts {
                h.usize(c);
            }
        }
        h.f64(self.geo.ground_truth_agreement);
        // Time domain.
        for row in &self.cluster_series {
            h.row(row);
        }
        for s in &self.time_stats {
            h.row(&s.weekday_profile);
            h.row(&s.weekend_profile);
            h.f64(s.weekday_weekend_ratio);
            for pv in [&s.weekday, &s.weekend] {
                h.f64(pv.max_traffic);
                h.f64(pv.min_traffic);
                h.f64(pv.peak_valley_ratio);
                h.u64(pv.peak_time.0 as u64);
                h.u64(pv.peak_time.1 as u64);
                h.u64(pv.valley_time.0 as u64);
                h.u64(pv.valley_time.1 as u64);
            }
        }
        // Frequency.
        for f in &self.features {
            for v in [
                f.amp_week,
                f.phase_week,
                f.amp_day,
                f.phase_day,
                f.amp_half,
                f.phase_half,
            ] {
                h.f64(v);
            }
        }
        for triple in &self.feature_stats {
            for s in triple {
                h.f64(s.amp_mean);
                h.f64(s.amp_std);
                h.option_f64(s.phase_mean);
                h.option_f64(s.phase_std);
            }
        }
        // Decomposition.
        match self.representatives {
            Some(reps) => {
                h.u64(1);
                for r in reps {
                    h.usize(r);
                }
            }
            None => h.u64(0),
        }
        for d in &self.decompositions {
            h.usize(d.vector_index);
            for v in d.coefficients {
                h.f64(v);
            }
            h.f64(d.residual_sqr);
            for v in d.ntf_idf {
                h.f64(v);
            }
        }
        h.finish()
    }
}

/// Incremental FNV-1a, with typed writers matching the report fields.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn option_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.f64(v);
            }
            None => self.u64(0),
        }
    }
    fn row(&mut self, row: &[f64]) {
        self.usize(row.len());
        for &v in row {
            self.f64(v);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The study driver.
#[derive(Debug, Clone)]
pub struct Study {
    config: StudyConfig,
}

impl Study {
    /// Creates a study from a configuration.
    pub fn new(config: StudyConfig) -> Self {
        Study { config }
    }

    /// The configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The checkpoint fingerprint of this study's configuration —
    /// what a [`CheckpointStore`] for this study must be opened with.
    pub fn checkpoint_fingerprint(&self) -> u64 {
        study_fingerprint(&self.config)
    }

    /// Runs the full pipeline through the stage engine.
    ///
    /// # Errors
    /// Propagates every stage's failure as [`CoreError`].
    pub fn run(&self) -> Result<StudyReport, CoreError> {
        Ok(self.run_instrumented(None)?.0)
    }

    /// Runs the pipeline and returns the per-stage instrumentation
    /// alongside the report. With a [`CheckpointStore`] (opened with
    /// [`Study::checkpoint_fingerprint`]) the generation, synthesis,
    /// vectorization, and clustering stages are persisted on first
    /// run and reloaded — bit-identically — on resume.
    ///
    /// # Errors
    /// As [`Study::run`], plus checkpoint I/O and corruption errors.
    pub fn run_instrumented(
        &self,
        store: Option<&CheckpointStore>,
    ) -> Result<(StudyReport, RunReport), CoreError> {
        self.run_instrumented_with(store, &Supervisor::default())
    }

    /// As [`Study::run_instrumented`], under a [`Supervisor`]:
    /// transient failures retry with deterministic backoff and stages
    /// may carry a wall-time budget. `Supervisor::default()` is
    /// exactly [`Study::run_instrumented`]. This is
    /// [`Study::run_resilient_with`] that insists on every section.
    ///
    /// # Errors
    /// As [`Study::run_instrumented`], plus stage-timeout errors from
    /// the watchdog. When an optional stage failed, its own error (the
    /// first in stage order).
    pub fn run_instrumented_with(
        &self,
        store: Option<&CheckpointStore>,
        supervisor: &Supervisor,
    ) -> Result<(StudyReport, RunReport), CoreError> {
        let (partial, report) = self.run_resilient_with(store, supervisor)?;
        match partial.into_full() {
            Some(study) => Ok((study, report)),
            None => Err(lost(&report, "report")),
        }
    }

    /// Runs the pipeline fault-tolerantly: a panic in any stage, or a
    /// failure in an optional one (labelling, time-domain, frequency,
    /// decomposition), degrades the corresponding report section to
    /// `None` instead of killing the run. The required spine (city →
    /// synthesize → vectorize → cluster) must still succeed. The
    /// [`RunReport`] records which stages failed (with their rendered
    /// errors) and which were pruned behind them.
    ///
    /// # Errors
    /// Failures of required stages, scheduling errors, and checkpoint
    /// I/O errors. Corrupt checkpoints are *not* errors here — they
    /// fall back to recompute with a [`RunReport::warnings`] entry.
    pub fn run_resilient(
        &self,
        store: Option<&CheckpointStore>,
    ) -> Result<(PartialStudyReport, RunReport), CoreError> {
        self.run_resilient_with(store, &Supervisor::default())
    }

    /// As [`Study::run_resilient`], under a [`Supervisor`] — the
    /// degraded-but-alive path with retries, deadlines, and the
    /// circuit breaker on top. This is what the CLI's `study` command
    /// runs when `--retries` / `--stage-timeout-ms` are given.
    ///
    /// # Errors
    /// As [`Study::run_resilient`]; a timed-out *required* stage still
    /// fails the run.
    pub fn run_resilient_with(
        &self,
        store: Option<&CheckpointStore>,
        supervisor: &Supervisor,
    ) -> Result<(PartialStudyReport, RunReport), CoreError> {
        let graph = study_graph(&self.config);
        let RunOutcome {
            mut artifacts,
            report,
        } = graph.run_with(store, supervisor)?;
        let partial = assemble_partial(&self.config, &mut artifacts, &report)?;
        Ok((partial, report))
    }
}

/// What a [`Study::run_resilient`] run produced: the required spine
/// plus whichever optional sections completed.
#[derive(Debug)]
pub struct PartialStudyReport {
    /// The generated city (ground truth included).
    pub city: City,
    /// The binning window used.
    pub window: TraceWindow,
    /// Raw per-tower traffic (tower id × bin, bytes).
    pub raw: Vec<Vec<f64>>,
    /// Tower id of each analysed (kept) vector.
    pub kept_ids: Vec<usize>,
    /// Z-scored traffic vectors (kept-index aligned).
    pub vectors: Vec<Vec<f64>>,
    /// The identified patterns (clustering, DBI curve, centroids).
    pub patterns: IdentifiedPatterns,
    /// Geographic labels, when the `label` stage completed.
    pub geo: Option<GeoLabels>,
    /// Per-cluster series and time statistics, when `timedomain`
    /// completed.
    pub time: Option<(Vec<Vec<f64>>, Vec<ClusterTimeStats>)>,
    /// Frequency features and per-cluster stats, when `frequency`
    /// completed.
    pub frequency: Option<(Vec<TowerFeatures>, Vec<[ClusterFeatureStats; 3]>)>,
    /// Representatives and §5.3 decomposition rows, when `decompose`
    /// completed.
    pub decomposition: Option<(Option<[usize; 4]>, Vec<Decomposition>)>,
}

impl PartialStudyReport {
    /// Whether every optional section completed.
    pub fn is_complete(&self) -> bool {
        self.geo.is_some()
            && self.time.is_some()
            && self.frequency.is_some()
            && self.decomposition.is_some()
    }

    /// Upgrades to a full [`StudyReport`] when nothing was lost.
    pub fn into_full(self) -> Option<StudyReport> {
        let geo = self.geo?;
        let (cluster_series, time_stats) = self.time?;
        let (features, feature_stats) = self.frequency?;
        let (representatives, decompositions) = self.decomposition?;
        Some(StudyReport {
            city: self.city,
            window: self.window,
            raw: self.raw,
            kept_ids: self.kept_ids,
            vectors: self.vectors,
            patterns: self.patterns,
            geo,
            cluster_series,
            time_stats,
            features,
            feature_stats,
            representatives,
            decompositions,
        })
    }
}

/// Builds the versioned query artifact from study results — the
/// checkpoint → artifact handoff. The snapshot is self-contained:
/// labels, spectral features, the frozen basis, stored
/// decompositions, classification centroids, and per-tower expected
/// day profiles for screening.
///
/// `feature_space` is the configured space (resolved against the
/// kept-tower count before being recorded); `fingerprint` is the
/// study's checkpoint fingerprint, carried for provenance.
///
/// This is the shared assembly point: [`StudyReport::to_snapshot`],
/// [`PartialStudyReport::to_snapshot`], and the CLI's analyze path
/// all feed it, so every writer freezes the basis the same way
/// (`Decomposer::new`'s construction — the representatives' `f3`
/// features in pure-pattern order).
///
/// # Errors
/// [`CoreError::NotEnoughData`] when the feature rows do not cover
/// the kept vectors.
#[allow(clippy::too_many_arguments)]
pub fn snapshot_from_parts(
    window: &TraceWindow,
    kept_ids: &[usize],
    vectors: &[Vec<f64>],
    patterns: &IdentifiedPatterns,
    kinds: Option<&[RegionKind]>,
    features: &[TowerFeatures],
    representatives: Option<[usize; 4]>,
    decompositions: &[Decomposition],
    fingerprint: u64,
    feature_space: FeatureSpace,
) -> Result<towerlens_artifact::Snapshot, CoreError> {
    if features.len() != vectors.len() {
        return Err(CoreError::NotEnoughData {
            what: "frequency features for snapshot",
            needed: vectors.len(),
            got: features.len(),
        });
    }
    // A window whose bin width does not tile a day still snapshots —
    // the profile section is just empty and `screen` reports that at
    // query time.
    let bins_per_day = if window.bin_secs > 0 && 86_400 % window.bin_secs == 0 {
        (86_400 / window.bin_secs) as usize
    } else {
        0
    };
    let basis = representatives.map(|reps| towerlens_artifact::BasisSection {
        representatives: reps,
        // Same construction as `Decomposer::new`: the representative
        // towers' f3 features, pure-pattern order — so live query
        // decompositions solve the exact system the study solved.
        vertices: [
            features[reps[0]].f3(),
            features[reps[1]].f3(),
            features[reps[2]].f3(),
            features[reps[3]].f3(),
        ],
    });
    Ok(towerlens_artifact::Snapshot {
        meta: towerlens_artifact::Meta {
            fingerprint,
            window_start_s: window.start_s,
            bin_secs: window.bin_secs,
            n_bins: window.n_bins,
            k: patterns.k,
            threshold: patterns.threshold,
            feature_space: match feature_space.resolve(vectors.len()) {
                FeatureSpace::Raw => "raw".to_string(),
                _ => "spectral".to_string(),
            },
        },
        tower_ids: kept_ids.iter().map(|&id| id as u64).collect(),
        labels: patterns
            .clustering
            .labels
            .iter()
            .map(|&label| label as u32)
            .collect(),
        features: features.iter().map(TowerFeatures::f6).collect(),
        centroids: patterns.centroids.clone(),
        kinds: kinds.map(|ks| ks.iter().map(|k| k.label().to_string()).collect()),
        basis,
        decompositions: decompositions
            .iter()
            .map(|d| towerlens_artifact::DecompRow {
                vector_index: d.vector_index,
                coefficients: d.coefficients,
                residual_sqr: d.residual_sqr,
                ntf_idf: d.ntf_idf,
            })
            .collect(),
        profile: towerlens_artifact::DayProfile::from_vectors(vectors, bins_per_day),
    })
}

impl StudyReport {
    /// Builds the versioned query artifact ([`towerlens_artifact::Snapshot`])
    /// from a complete study.
    ///
    /// # Errors
    /// [`CoreError::NotEnoughData`] when the feature rows do not
    /// cover the kept vectors.
    pub fn to_snapshot(
        &self,
        fingerprint: u64,
        feature_space: FeatureSpace,
    ) -> Result<towerlens_artifact::Snapshot, CoreError> {
        snapshot_from_parts(
            &self.window,
            &self.kept_ids,
            &self.vectors,
            &self.patterns,
            Some(&self.geo.labels),
            &self.features,
            self.representatives,
            &self.decompositions,
            fingerprint,
            feature_space,
        )
    }
}

impl PartialStudyReport {
    /// Builds the versioned query artifact from a possibly degraded
    /// study. The frequency stage is required (the snapshot *is* the
    /// feature index); geo labels, the basis, and stored
    /// decompositions are included when their stages completed.
    ///
    /// # Errors
    /// [`CoreError::NotEnoughData`] when the frequency stage did not
    /// complete.
    pub fn to_snapshot(
        &self,
        fingerprint: u64,
        feature_space: FeatureSpace,
    ) -> Result<towerlens_artifact::Snapshot, CoreError> {
        let Some((features, _)) = &self.frequency else {
            return Err(CoreError::NotEnoughData {
                what: "frequency features for snapshot",
                needed: self.vectors.len(),
                got: 0,
            });
        };
        let (representatives, decompositions) = match &self.decomposition {
            Some((reps, rows)) => (*reps, rows.as_slice()),
            None => (None, &[] as &[Decomposition]),
        };
        snapshot_from_parts(
            &self.window,
            &self.kept_ids,
            &self.vectors,
            &self.patterns,
            self.geo.as_ref().map(|g| g.labels.as_slice()),
            features,
            representatives,
            decompositions,
            fingerprint,
            feature_space,
        )
    }
}

fn type_mismatch(name: &'static str) -> CoreError {
    CoreError::Engine(EngineError::Stage {
        stage: name.to_string(),
        message: "artifact has unexpected type".to_string(),
    })
}

/// The error for an artifact a run could not deliver: the first failed
/// stage's own error, which names the stage (a missing artifact always
/// has one behind it), else the artifact itself.
fn lost(report: &RunReport, artifact: &str) -> CoreError {
    let error = report.first_error().cloned();
    CoreError::Engine(error.unwrap_or_else(|| EngineError::MissingArtifact {
        stage: "<assemble>".to_string(),
        dep: artifact.to_string(),
    }))
}

/// Assembles the partial report: the spine is required, the optional
/// sections degrade to `None` when their stage failed or was pruned.
/// This is the one assembler; [`Study::run_instrumented_with`] upgrades
/// its result with [`PartialStudyReport::into_full`].
fn assemble_partial(
    config: &StudyConfig,
    artifacts: &mut HashMap<&'static str, StudyArtifact>,
    report: &RunReport,
) -> Result<PartialStudyReport, CoreError> {
    let mut take = |name: &'static str| artifacts.remove(name).ok_or_else(|| lost(report, name));
    let StudyArtifact::City(city) = take("city")? else {
        return Err(type_mismatch("city"));
    };
    let StudyArtifact::Raw(raw) = take("synthesize")? else {
        return Err(type_mismatch("synthesize"));
    };
    let StudyArtifact::Vectors(normalized) = take("vectorize")? else {
        return Err(type_mismatch("vectorize"));
    };
    let StudyArtifact::Patterns(patterns) = take("cluster")? else {
        return Err(type_mismatch("cluster"));
    };
    let geo = match take("label") {
        Ok(StudyArtifact::Geo(geo)) => Some(geo),
        Ok(_) => return Err(type_mismatch("label")),
        Err(_) => None,
    };
    let time = match take("timedomain") {
        Ok(StudyArtifact::TimeDomain { series, stats }) => Some((series, stats)),
        Ok(_) => return Err(type_mismatch("timedomain")),
        Err(_) => None,
    };
    let frequency = match take("frequency") {
        Ok(StudyArtifact::Frequency { features, stats }) => Some((features, stats)),
        Ok(_) => return Err(type_mismatch("frequency")),
        Err(_) => None,
    };
    let decomposition = match take("decompose") {
        Ok(StudyArtifact::Decompose {
            representatives,
            rows,
        }) => Some((representatives, rows)),
        Ok(_) => return Err(type_mismatch("decompose")),
        Err(_) => None,
    };
    Ok(PartialStudyReport {
        city,
        window: config.window,
        raw,
        kept_ids: normalized.kept_ids,
        vectors: normalized.vectors,
        patterns,
        geo,
        time,
        frequency,
        decomposition,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StageStatus;

    #[test]
    fn tiny_study_runs_end_to_end() {
        let report = Study::new(StudyConfig::tiny(7)).run().unwrap();
        assert_eq!(report.raw.len(), 120);
        assert!(!report.vectors.is_empty());
        assert!(report.patterns.k >= 2);
        assert_eq!(report.geo.labels.len(), report.patterns.k);
        assert_eq!(report.time_stats.len(), report.patterns.k);
        assert_eq!(report.features.len(), report.vectors.len());
        let total = report.total_series();
        assert_eq!(total.len(), report.window.n_bins);
        assert!(total.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn study_is_deterministic() {
        let a = Study::new(StudyConfig::tiny(3)).run().unwrap();
        let b = Study::new(StudyConfig::tiny(3)).run().unwrap();
        assert_eq!(a.patterns.k, b.patterns.k);
        assert_eq!(a.patterns.clustering.labels, b.patterns.clustering.labels);
        assert_eq!(a.geo.labels, b.geo.labels);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// The five studies the two pins below run, by name.
    fn pinned_studies() -> [(&'static str, StudyConfig); 5] {
        let spectral = |mut config: StudyConfig| {
            config.identifier.feature_space = FeatureSpace::Spectral;
            config
        };
        [
            ("tiny 3", StudyConfig::tiny(3)),
            ("tiny 7", StudyConfig::tiny(7)),
            ("small 7", StudyConfig::small(7)),
            ("tiny 3 spectral", spectral(StudyConfig::tiny(3))),
            ("tiny 7 spectral", spectral(StudyConfig::tiny(7))),
        ]
    }

    /// Runs every pinned study and compares `render(report)` with its
    /// pin, reporting every study's value on failure.
    fn assert_pinned(pins: [&str; 5], render: impl Fn(&StudyReport) -> String, what: &str) {
        let (got, want): (Vec<_>, Vec<_>) = pinned_studies()
            .into_iter()
            .zip(pins)
            .map(|((name, config), pin)| {
                let report = Study::new(config).run().unwrap();
                ((name, render(&report)), (name, pin.to_string()))
            })
            .unzip();
        assert_eq!(got, want, "{what} moved");
    }

    /// The engine pinned by value: any change to a number a study
    /// reports moves its fingerprint. A change that moves raw bits but
    /// no result (as the synthesiser's noise kernel did) re-pins these
    /// while [`study_results_are_pinned`] holds. Release builds and the
    /// test profile agree on them; re-measure with
    /// `cargo test --release -p towerlens-core --lib engine_is_pinned_by_fingerprint`,
    /// whose failure message lists every study's value.
    #[test]
    fn engine_is_pinned_by_fingerprint() {
        let pins = [
            "4230bb328e7a9567",
            "b2fab4e4f131946d",
            "d1106e768f0e9933",
            "52aaf0d028d37c18",
            "8b6319fd770ca65e",
        ];
        assert_pinned(
            pins,
            |report| format!("{:016x}", report.fingerprint()),
            "study fingerprints",
        );
    }

    /// What the same five studies find, pinned apart from their bits:
    /// the pattern count, an FNV-1a digest of the cluster labels, the
    /// labelled region kinds, the agreement's bits and the number of
    /// decomposed rows. A change that moves stored floats in their last
    /// bits but no result (as the synthesiser's noise kernel did)
    /// re-pins [`engine_is_pinned_by_fingerprint`] and leaves these as
    /// they are.
    #[test]
    fn study_results_are_pinned() {
        let pins = [
            "k=5 labels=7ccdd0d5f431e7e3 kinds=Resident,Transport,Office,Entertainment,\
             Comprehensive agreement=3fee222222222222 rows=12",
            "k=4 labels=e28a3306922e1a84 kinds=Entertainment,Resident,Transport,Office \
             agreement=3fe599999999999a rows=4",
            "k=6 labels=3735a2739def05e3 kinds=Resident,Office,Comprehensive,Transport,\
             Entertainment,Comprehensive agreement=3feee147ae147ae1 rows=36",
            "k=5 labels=3372c46412b15c62 kinds=Resident,Transport,Office,Comprehensive,\
             Entertainment agreement=3fedddddddddddde rows=12",
            "k=3 labels=2f52f888694a4527 kinds=Resident,Office,Entertainment \
             agreement=3fe4888888888889 rows=0",
        ];
        assert_pinned(
            pins,
            |report| {
                let mut labels = Fnv::new();
                for &l in &report.patterns.clustering.labels {
                    labels.usize(l);
                }
                let kinds: Vec<String> =
                    report.geo.labels.iter().map(ToString::to_string).collect();
                format!(
                    "k={} labels={:016x} kinds={} agreement={:016x} rows={}",
                    report.patterns.k,
                    labels.finish(),
                    kinds.join(","),
                    report.geo.ground_truth_agreement.to_bits(),
                    report.decompositions.len()
                )
            },
            "study results",
        );
    }

    #[test]
    fn a_failed_optional_stage_fails_the_full_run_with_its_own_error() {
        // Ten days hold no whole week: the cluster stage builds no
        // spectral table, so the frequency stage fails and decompose is
        // pruned behind it. The full run reports that failure, not the
        // missing artifact it leaves behind.
        let mut config = StudyConfig::tiny(7);
        config.window = TraceWindow::days(10);
        let study = Study::new(config);
        let want = "stage `frequency` failed: not enough whole weeks in window: need 1, got 0";
        let err = study.run().unwrap_err();
        assert!(
            matches!(&err, CoreError::Engine(EngineError::Stage { stage, .. }) if stage == "frequency"),
            "{err}"
        );
        assert_eq!(err.to_string(), format!("engine: {want}"));
        let (partial, report) = study.run_resilient(None).unwrap();
        assert!(partial.geo.is_some() && partial.frequency.is_none());
        assert_eq!(report.with_status(StageStatus::Pruned), vec!["decompose"]);
        assert_eq!(
            report.first_error().map(ToString::to_string).as_deref(),
            Some(want)
        );
    }

    #[test]
    fn fingerprint_separates_different_runs() {
        let a = Study::new(StudyConfig::tiny(3)).run().unwrap();
        let b = Study::new(StudyConfig::tiny(4)).run().unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn resumed_run_reuses_checkpoints_and_matches_fresh_run() {
        let dir =
            std::env::temp_dir().join(format!("towerlens-study-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let study = Study::new(StudyConfig::tiny(7));
        let store = CheckpointStore::open(&dir, study.checkpoint_fingerprint()).unwrap();

        let (fresh, first) = study.run_instrumented(Some(&store)).unwrap();
        assert_eq!(first.with_status(StageStatus::Cached), Vec::<&str>::new());
        assert_eq!(first.with_status(StageStatus::Ran).len(), 8);

        let (resumed, second) = study.run_instrumented(Some(&store)).unwrap();
        assert_eq!(
            second.with_status(StageStatus::Cached),
            vec!["city", "synthesize", "vectorize", "cluster"]
        );
        // Cached stages keep their cardinality cards.
        let city_cards = &second.stage("city").unwrap().cards;
        assert!(city_cards
            .iter()
            .any(|c| c.label == "towers" && c.value == 120));
        assert_eq!(
            resumed.fingerprint(),
            fresh.fingerprint(),
            "resume changed the numbers"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resilient_run_on_a_healthy_study_is_complete_and_identical() {
        let study = Study::new(StudyConfig::tiny(7));
        let (partial, report) = study.run_resilient(None).unwrap();
        assert!(!report.degraded());
        assert!(partial.is_complete());
        let full = partial.into_full().unwrap();
        assert_eq!(full.fingerprint(), study.run().unwrap().fingerprint());
    }

    #[test]
    fn stale_fingerprint_recomputes_instead_of_resuming() {
        let dir =
            std::env::temp_dir().join(format!("towerlens-study-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seven = Study::new(StudyConfig::tiny(7));
        let store = CheckpointStore::open(&dir, seven.checkpoint_fingerprint()).unwrap();
        seven.run_instrumented(Some(&store)).unwrap();

        // A different seed opens the same directory with its own
        // fingerprint: every checkpoint misses.
        let eight = Study::new(StudyConfig::tiny(8));
        let store = CheckpointStore::open(&dir, eight.checkpoint_fingerprint()).unwrap();
        let (_, report) = eight.run_instrumented(Some(&store)).unwrap();
        assert_eq!(report.with_status(StageStatus::Cached), Vec::<&str>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
