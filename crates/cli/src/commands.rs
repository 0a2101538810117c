//! The `gen`, `analyze`, and `study` subcommands as library functions.
//!
//! `analyze` is expressed as a stage graph on the
//! [`towerlens_core::engine`] runtime:
//!
//! ```text
//! wave 0   ingest-logs | ingest-geo       — concurrent
//! wave 1   clean          (ingest-logs)
//! wave 2   vectorize      (clean)                [checkpointed]
//! wave 3   cluster        (vectorize)            [checkpointed]
//! wave 4   label | score  (ingest-geo, vectorize, cluster)
//! ```
//!
//! With `--resume DIR` the vectorize and cluster stages reload from
//! checkpoints, which also prunes the log ingestion and cleaning
//! stages entirely (their artifacts are no longer demanded).

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use towerlens_artifact::{fnv1a64, ArtifactError, ArtifactFsck, Dec, Enc};
use towerlens_city::config::CityConfig;
use towerlens_city::generate::generate;
use towerlens_city::geo::{BoundingBox, GeoPoint};
use towerlens_city::poi::{Poi, PoiIndex};
use towerlens_city::zone::RegionKind;
use towerlens_cluster::compare::adjusted_rand_index;
use towerlens_cluster::dendrogram::Clustering;
use towerlens_core::engine::{
    decode_normalized, decode_patterns, encode_normalized, encode_patterns, fsck_checkpoint,
    CheckpointError, CheckpointStore, EngineError, Graph, RunReport, Stage, StageCodec,
    StageContext, StageHeader, StageOutput,
};
use towerlens_core::freq::representative_towers;
use towerlens_core::identifier::{IdentifiedPatterns, IdentifierConfig, PatternIdentifier};
use towerlens_core::labeling::{cluster_of_kind, label_clusters_parts, GeoLabels};
use towerlens_core::study::snapshot_from_parts;
use towerlens_core::{PartialStudyReport, Study, StudyConfig};
use towerlens_mobility::agents::{AgentConfig, AgentPopulation};
use towerlens_obs::events::json_escape;
use towerlens_pipeline::feature::FeatureSpace;
use towerlens_pipeline::impute::ImputeConfig;
use towerlens_pipeline::normalize::NormalizedMatrix;
use towerlens_pipeline::vectorizer::{Vectorizer, VectorizerOptions};
use towerlens_trace::clean::clean_records;
use towerlens_trace::quarantine::{FaultPolicy, QuarantineReport};
use towerlens_trace::record::{LogRecord, RecordReader};
use towerlens_trace::time::TraceWindow;

use crate::files::{
    read_pois, read_towers, read_truth, write_pois, write_towers, write_truth, FileError, TowerRow,
};

/// Options for dataset generation.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// RNG seed.
    pub seed: u64,
    /// Number of towers.
    pub towers: usize,
    /// Number of subscribers.
    pub agents: usize,
    /// Days of logs (day 0 is a Monday).
    pub days: usize,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            seed: 42,
            towers: 120,
            agents: 800,
            days: 14,
        }
    }
}

/// Generates a dataset directory (`logs.tsv`, `towers.tsv`,
/// `pois.tsv`, `truth.tsv`). Returns the number of log records
/// written.
///
/// # Errors
/// Generation and I/O failures.
pub fn generate_dataset(
    dir: &Path,
    options: &GenOptions,
) -> Result<usize, Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    let mut city_cfg = CityConfig::tiny(options.seed);
    city_cfg.n_towers = options.towers;
    let city = generate(&city_cfg)?;
    let window = TraceWindow::days(options.days);
    let population = AgentPopulation::generate(
        &city,
        AgentConfig {
            seed: options.seed,
            n_agents: options.agents,
            sessions_per_hour: 2.4,
            ..AgentConfig::default()
        },
    );
    let records = population.emit_logs(&city, &window);

    // logs.tsv — streamed, operator exports are large.
    let mut w = BufWriter::new(std::fs::File::create(dir.join("logs.tsv"))?);
    for r in &records {
        writeln!(w, "{}", r.to_line())?;
    }
    w.flush()?;

    let towers: Vec<TowerRow> = city
        .towers()
        .iter()
        .map(|t| TowerRow {
            id: t.id,
            position: t.position,
            address: t.address.clone(),
        })
        .collect();
    write_towers(&dir.join("towers.tsv"), &towers)?;
    write_pois(&dir.join("pois.tsv"), city.pois().pois())?;
    let truth: Vec<(usize, RegionKind)> =
        city.towers().iter().map(|t| (t.id, t.kind_truth)).collect();
    write_truth(&dir.join("truth.tsv"), &truth)?;
    Ok(records.len())
}

/// Options for analysis.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Days covered by the logs (the binning window).
    pub days: usize,
    /// Worker threads for the vectorizer (0 = auto).
    pub threads: usize,
    /// Maximum tolerated fraction of quarantined (malformed or
    /// unknown-cell) records before ingestion fails closed.
    pub max_bad_fraction: f64,
    /// Detect per-tower outage windows and impute them from the
    /// paper's daily/weekly periodicity.
    pub impute: bool,
    /// Representation the cluster stage sees (`--feature-space`):
    /// raw traffic vectors, 6-dim spectral projections, or auto
    /// (spectral at large tower counts, raw below).
    pub feature_space: FeatureSpace,
    /// Write the versioned query artifact here after a successful
    /// run (`--snapshot`). Not part of the checkpoint fingerprint —
    /// it does not shape any number.
    pub snapshot: Option<PathBuf>,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            days: 14,
            threads: 0,
            max_bad_fraction: FaultPolicy::default().max_bad_fraction,
            impute: false,
            feature_space: FeatureSpace::Auto,
            snapshot: None,
        }
    }
}

impl AnalyzeOptions {
    fn policy(&self) -> FaultPolicy {
        FaultPolicy {
            max_bad_fraction: self.max_bad_fraction,
            ..FaultPolicy::default()
        }
    }

    fn impute_config(&self) -> Option<ImputeConfig> {
        self.impute.then(ImputeConfig::default)
    }
}

/// What `analyze` found.
#[derive(Debug)]
pub struct AnalyzeSummary {
    /// Records parsed from `logs.tsv`.
    pub records: usize,
    /// Records surviving cleaning.
    pub kept: usize,
    /// Number of patterns found.
    pub k: usize,
    /// Per-cluster labels (canonical kinds); `None` when the optional
    /// labelling stage failed and the run degraded.
    pub labels: Option<Vec<RegionKind>>,
    /// Per-cluster shares.
    pub shares: Vec<f64>,
    /// Adjusted Rand index vs `truth.tsv`, when present.
    pub ari_vs_truth: Option<f64>,
}

/// Everything the analyze stages exchange: one variant per stage.
#[derive(Debug)]
enum CliArtifact {
    /// `ingest-logs` — parsed log records (malformed-line counts are
    /// reported as a card, not carried forward).
    Logs(Vec<LogRecord>),
    /// `ingest-geo` — tower rows and POIs from disk.
    Geo {
        towers: Vec<TowerRow>,
        pois: Vec<Poi>,
    },
    /// `clean` — records surviving cleaning, plus the parsed total
    /// (the counts must survive a resume, so they travel forward).
    Clean {
        records: Vec<LogRecord>,
        parsed: usize,
    },
    /// `vectorize` — z-scored vectors plus record counts.
    Vectors {
        normalized: NormalizedMatrix,
        parsed: usize,
        cleaned: usize,
    },
    /// `cluster` — the identified patterns.
    Patterns(IdentifiedPatterns),
    /// `label` — geographic labels.
    Labels(GeoLabels),
    /// `score` — adjusted Rand index vs `truth.tsv`, when present.
    Score(Option<f64>),
}

// ---- typed artifact fetch helpers -------------------------------

fn geo_parts<'a>(
    ctx: &StageContext<'a, CliArtifact>,
) -> Result<(&'a Vec<TowerRow>, &'a Vec<Poi>), EngineError> {
    match ctx.artifact("ingest-geo")? {
        CliArtifact::Geo { towers, pois } => Ok((towers, pois)),
        _ => Err(ctx.fail("artifact `ingest-geo` has unexpected type")),
    }
}

fn vectors_parts<'a>(
    ctx: &StageContext<'a, CliArtifact>,
) -> Result<&'a NormalizedMatrix, EngineError> {
    match ctx.artifact("vectorize")? {
        CliArtifact::Vectors { normalized, .. } => Ok(normalized),
        _ => Err(ctx.fail("artifact `vectorize` has unexpected type")),
    }
}

fn patterns_part<'a>(
    ctx: &StageContext<'a, CliArtifact>,
) -> Result<&'a IdentifiedPatterns, EngineError> {
    match ctx.artifact("cluster")? {
        CliArtifact::Patterns(p) => Ok(p),
        _ => Err(ctx.fail("artifact `cluster` has unexpected type")),
    }
}

// ---- stages -----------------------------------------------------

struct IngestLogsStage {
    dir: PathBuf,
    policy: FaultPolicy,
}

impl Stage<CliArtifact> for IngestLogsStage {
    fn name(&self) -> &'static str {
        "ingest-logs"
    }
    fn run(
        &self,
        ctx: &StageContext<'_, CliArtifact>,
    ) -> Result<StageOutput<CliArtifact>, EngineError> {
        // Stream the log file: operator exports don't fit in memory.
        // Malformed lines are quarantined per category rather than
        // silently counted; the policy decides when the feed itself is
        // too broken to trust.
        let file = std::fs::File::open(self.dir.join("logs.tsv")).map_err(|e| ctx.fail(e))?;
        let mut records = Vec::new();
        let mut quarantine = QuarantineReport::default();
        for item in RecordReader::new(std::io::BufReader::new(file)) {
            quarantine.total += 1;
            match item.map_err(|e| ctx.fail(e))? {
                Ok(r) => records.push(r),
                Err(e) => quarantine.note(&e),
            }
        }
        towerlens_trace::quarantine::record_ingest_metrics(&quarantine);
        self.policy.enforce(&quarantine).map_err(|e| ctx.fail(e))?;
        if records.is_empty() {
            return Err(ctx.fail(FileError::Malformed {
                file: "logs.tsv",
                lines: quarantine.bad(),
            }));
        }
        if !quarantine.is_clean() {
            eprintln!("warning: ingest-logs: {}", quarantine.summary());
        }
        let (n, bad) = (records.len() as u64, quarantine.bad() as u64);
        Ok(StageOutput::new(CliArtifact::Logs(records))
            .with_card("records", n)
            .with_card("quarantined", bad))
    }
}

struct IngestGeoStage {
    dir: PathBuf,
}

impl Stage<CliArtifact> for IngestGeoStage {
    fn name(&self) -> &'static str {
        "ingest-geo"
    }
    fn run(
        &self,
        ctx: &StageContext<'_, CliArtifact>,
    ) -> Result<StageOutput<CliArtifact>, EngineError> {
        let (towers, _) = read_towers(&self.dir.join("towers.tsv")).map_err(|e| ctx.fail(e))?;
        let (pois, _) = read_pois(&self.dir.join("pois.tsv")).map_err(|e| ctx.fail(e))?;
        let (nt, np) = (towers.len() as u64, pois.len() as u64);
        Ok(StageOutput::new(CliArtifact::Geo { towers, pois })
            .with_card("towers", nt)
            .with_card("pois", np))
    }
}

struct CleanStage {
    days: usize,
}

impl Stage<CliArtifact> for CleanStage {
    fn name(&self) -> &'static str {
        "clean"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["ingest-logs"]
    }
    fn run(
        &self,
        ctx: &StageContext<'_, CliArtifact>,
    ) -> Result<StageOutput<CliArtifact>, EngineError> {
        let CliArtifact::Logs(records) = ctx.artifact("ingest-logs")? else {
            return Err(ctx.fail("artifact `ingest-logs` has unexpected type"));
        };
        let window = TraceWindow::days(self.days);
        // Guard the classic footgun: a window longer than the data pads
        // zero bins, which silently wrecks the z-scored clustering.
        let last_end = records.iter().map(|r| r.end_s).max().unwrap_or(0);
        if last_end < window.start_s + (window.end_s() - window.start_s) * 4 / 5 {
            eprintln!(
                "warning: logs end at {}s but the --days {} window runs to {}s; \
                 trailing bins will be zero — pass a --days matching the data",
                last_end,
                self.days,
                window.end_s()
            );
        }
        let (clean, _report) = clean_records(records);
        let (parsed, kept) = (records.len(), clean.len());
        Ok(StageOutput::new(CliArtifact::Clean {
            records: clean,
            parsed,
        })
        .with_card("kept", kept as u64)
        .with_card("dropped", (parsed - kept) as u64))
    }
}

struct CliVectorizeStage {
    days: usize,
    threads: usize,
    policy: FaultPolicy,
    impute: Option<ImputeConfig>,
}

impl Stage<CliArtifact> for CliVectorizeStage {
    fn name(&self) -> &'static str {
        "vectorize"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["clean"]
    }
    fn run(
        &self,
        ctx: &StageContext<'_, CliArtifact>,
    ) -> Result<StageOutput<CliArtifact>, EngineError> {
        let CliArtifact::Clean { records, parsed } = ctx.artifact("clean")? else {
            return Err(ctx.fail("artifact `clean` has unexpected type"));
        };
        let n_towers = records
            .iter()
            .map(|r| r.cell_id as usize + 1)
            .max()
            .unwrap_or(0);
        let vectorizer = Vectorizer::new(TraceWindow::days(self.days), self.threads);
        let options = VectorizerOptions {
            policy: self.policy,
            impute: self.impute,
        };
        let output = vectorizer
            .run_with(records, n_towers, &options)
            .map_err(|e| ctx.fail(e))?;
        if !output.quarantine.is_clean() {
            eprintln!("warning: vectorize: {}", output.quarantine.summary());
        }
        let kept = output.normalized.kept_ids.len() as u64;
        let imputed = output.normalized.imputed_bins() as u64;
        let quarantined = output.quarantine.bad() as u64;
        Ok(StageOutput::new(CliArtifact::Vectors {
            normalized: output.normalized,
            parsed: *parsed,
            cleaned: records.len(),
        })
        .with_card("kept", kept)
        .with_card("records", records.len() as u64)
        .with_card("quarantined", quarantined)
        .with_card("imputed", imputed))
    }
    fn codec(&self) -> Option<&dyn StageCodec<CliArtifact>> {
        Some(&CliVectorsCodec)
    }
}

struct CliClusterStage {
    threads: usize,
    /// Reconstructs the binning window — the source of the principal
    /// bins when the feature space resolves to spectral.
    days: usize,
    feature_space: FeatureSpace,
}

impl Stage<CliArtifact> for CliClusterStage {
    fn name(&self) -> &'static str {
        "cluster"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["vectorize"]
    }
    fn run(
        &self,
        ctx: &StageContext<'_, CliArtifact>,
    ) -> Result<StageOutput<CliArtifact>, EngineError> {
        let normalized = vectors_parts(ctx)?;
        let identifier = PatternIdentifier::new(IdentifierConfig {
            threads: self.threads,
            feature_space: self.feature_space,
            ..IdentifierConfig::default()
        });
        let patterns = identifier
            .identify_in(&normalized.vectors, Some(&TraceWindow::days(self.days)))
            .map_err(|e| ctx.fail(e))?;
        let (n, k) = (normalized.vectors.len() as u64, patterns.k as u64);
        Ok(StageOutput::new(CliArtifact::Patterns(patterns))
            .with_card("vectors", n)
            .with_card("k", k))
    }
    fn codec(&self) -> Option<&dyn StageCodec<CliArtifact>> {
        Some(&CliPatternsCodec)
    }
}

struct CliLabelStage {
    threads: usize,
}

impl Stage<CliArtifact> for CliLabelStage {
    fn name(&self) -> &'static str {
        "label"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["ingest-geo", "vectorize", "cluster"]
    }
    // Labelling enriches the clustering; a bad POI file should not
    // take the whole analysis down.
    fn optional(&self) -> bool {
        true
    }
    fn run(
        &self,
        ctx: &StageContext<'_, CliArtifact>,
    ) -> Result<StageOutput<CliArtifact>, EngineError> {
        let (towers, pois) = geo_parts(ctx)?;
        let normalized = vectors_parts(ctx)?;
        let patterns = patterns_part(ctx)?;
        // Geographic labelling from files (no synthetic City needed).
        let n_towers = towers.iter().map(|t| t.id + 1).max().unwrap_or(0);
        let mut positions = vec![GeoPoint::new(0.0, 0.0); n_towers];
        let mut bounds = BoundingBox::empty();
        for t in towers {
            positions[t.id] = t.position;
            bounds.include(&t.position);
        }
        let poi_index = PoiIndex::build(pois.clone());
        let geo = label_clusters_parts(
            &positions,
            &bounds,
            &poi_index,
            &patterns.clustering,
            &normalized.kept_ids,
            self.threads,
        )
        .map_err(|e| ctx.fail(e))?;
        let clusters = geo.labels.len() as u64;
        Ok(StageOutput::new(CliArtifact::Labels(geo)).with_card("clusters", clusters))
    }
}

struct ScoreStage {
    dir: PathBuf,
}

impl Stage<CliArtifact> for ScoreStage {
    fn name(&self) -> &'static str {
        "score"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["ingest-geo", "vectorize", "cluster"]
    }
    // Scoring is diagnostic: a damaged truth file degrades the run
    // instead of failing it.
    fn optional(&self) -> bool {
        true
    }
    fn run(
        &self,
        ctx: &StageContext<'_, CliArtifact>,
    ) -> Result<StageOutput<CliArtifact>, EngineError> {
        let (towers, _) = geo_parts(ctx)?;
        let normalized = vectors_parts(ctx)?;
        let patterns = patterns_part(ctx)?;
        let truth_path = self.dir.join("truth.tsv");
        if !truth_path.exists() {
            return Ok(StageOutput::new(CliArtifact::Score(None)).with_card("truth", 0));
        }
        let n_towers = towers.iter().map(|t| t.id + 1).max().unwrap_or(0);
        let (truth_rows, _) = read_truth(&truth_path).map_err(|e| ctx.fail(e))?;
        let mut by_id = vec![None; n_towers];
        for (id, kind) in truth_rows {
            if id < n_towers {
                by_id[id] = Some(kind);
            }
        }
        let truth_labels: Option<Vec<usize>> = normalized
            .kept_ids
            .iter()
            .map(|&id| by_id.get(id).copied().flatten().map(|k| k.index()))
            .collect();
        let ari = match truth_labels {
            Some(labels) => {
                // Compact to consecutive labels for the comparison.
                let mut map = std::collections::HashMap::new();
                let mut next = 0usize;
                let compact: Vec<usize> = labels
                    .into_iter()
                    .map(|l| {
                        *map.entry(l).or_insert_with(|| {
                            let v = next;
                            next += 1;
                            v
                        })
                    })
                    .collect();
                let truth_clustering = Clustering::from_labels(compact).map_err(|e| ctx.fail(e))?;
                Some(
                    adjusted_rand_index(&patterns.clustering, &truth_clustering)
                        .map_err(|e| ctx.fail(e))?,
                )
            }
            None => None,
        };
        let found = ari.is_some() as u64;
        Ok(StageOutput::new(CliArtifact::Score(ari)).with_card("truth", found))
    }
}

// ---- codecs -----------------------------------------------------

struct CliVectorsCodec;

impl StageCodec<CliArtifact> for CliVectorsCodec {
    fn encode(&self, artifact: &CliArtifact, out: &mut Enc) -> Result<(), String> {
        let CliArtifact::Vectors {
            normalized,
            parsed,
            cleaned,
        } = artifact
        else {
            return Err("expected a vectors artifact".to_string());
        };
        out.usize(*parsed);
        out.usize(*cleaned);
        encode_normalized(normalized, out);
        Ok(())
    }

    fn decode(&self, d: &mut Dec<'_>) -> Result<CliArtifact, ArtifactError> {
        Ok(CliArtifact::Vectors {
            parsed: d.usize()?,
            cleaned: d.usize()?,
            normalized: decode_normalized(d)?,
        })
    }
}

struct CliPatternsCodec;

impl StageCodec<CliArtifact> for CliPatternsCodec {
    fn encode(&self, artifact: &CliArtifact, out: &mut Enc) -> Result<(), String> {
        let CliArtifact::Patterns(p) = artifact else {
            return Err("expected a pattern-set artifact".to_string());
        };
        encode_patterns(p, out);
        Ok(())
    }

    fn decode(&self, d: &mut Dec<'_>) -> Result<CliArtifact, ArtifactError> {
        Ok(CliArtifact::Patterns(decode_patterns(d)?))
    }
}

// ---- drivers ----------------------------------------------------

fn analyze_graph(dir: &Path, options: &AnalyzeOptions) -> Graph<CliArtifact> {
    Graph::new()
        .add_stage(IngestLogsStage {
            dir: dir.to_path_buf(),
            policy: options.policy(),
        })
        .add_stage(IngestGeoStage {
            dir: dir.to_path_buf(),
        })
        .add_stage(CleanStage { days: options.days })
        .add_stage(CliVectorizeStage {
            days: options.days,
            threads: options.threads,
            policy: options.policy(),
            impute: options.impute_config(),
        })
        .add_stage(CliClusterStage {
            threads: options.threads,
            days: options.days,
            feature_space: options.feature_space,
        })
        .add_stage(CliLabelStage {
            threads: options.threads,
        })
        .add_stage(ScoreStage {
            dir: dir.to_path_buf(),
        })
}

/// The checkpoint fingerprint of an analyze invocation: the options
/// that shape the numbers plus the sizes of the input files, so an
/// edited dataset or changed window invalidates the cache. The thread
/// count is deliberately absent — every parallel path is bit-identical
/// to serial, so checkpoints written at one `--threads` resume at any
/// other.
///
/// # Errors
/// I/O failures reading the input file metadata.
pub fn analyze_fingerprint(dir: &Path, options: &AnalyzeOptions) -> std::io::Result<u64> {
    let mut s = format!(
        "analyze v4 days={} maxbad={} impute={} space={}",
        options.days, options.max_bad_fraction, options.impute, options.feature_space
    );
    for f in ["logs.tsv", "towers.tsv", "pois.tsv"] {
        let len = std::fs::metadata(dir.join(f))?.len();
        s.push_str(&format!(" {f}={len}"));
    }
    Ok(fnv1a64(s.as_bytes()))
}

/// Analyzes a dataset directory: parse → clean → vectorize → cluster
/// → label; scores against `truth.tsv` when present. Returns the
/// summary with the per-stage [`RunReport`]. With `resume`, the
/// vectorize and cluster stages are persisted to (and reloaded from)
/// that checkpoint directory, and a checkpoint probe or save that
/// fails with an I/O error is retried up to `retries` times. This is
/// what `analyze` runs.
///
/// # Errors
/// I/O, parse, and analysis failures (a failed required stage's own
/// error), plus checkpoint I/O errors past the retry budget.
pub fn analyze(
    dir: &Path,
    options: &AnalyzeOptions,
    resume: Option<&Path>,
    retries: u32,
) -> Result<(AnalyzeSummary, RunReport), Box<dyn std::error::Error>> {
    let store = match resume {
        Some(ckpt_dir) => Some(CheckpointStore::open(
            ckpt_dir,
            analyze_fingerprint(dir, options)?,
        )?),
        None => None,
    };
    let mut outcome = analyze_graph(dir, options).run(store.as_ref(), retries)?;
    let CliArtifact::Vectors {
        normalized,
        parsed,
        cleaned,
    } = outcome.take("vectorize")?
    else {
        return Err("artifact `vectorize` has unexpected type".into());
    };
    let CliArtifact::Patterns(patterns) = outcome.take("cluster")? else {
        return Err("artifact `cluster` has unexpected type".into());
    };
    // The labelling and scoring stages are optional: when one failed
    // (and was reported as such) its artifact is simply absent, and the
    // summary degrades rather than erroring.
    let labels = match outcome.take("label") {
        Ok(CliArtifact::Labels(geo)) => Some(geo.labels),
        Ok(_) => return Err("artifact `label` has unexpected type".into()),
        Err(_) => None,
    };
    let ari_vs_truth = match outcome.take("score") {
        Ok(CliArtifact::Score(ari)) => ari,
        Ok(_) => return Err("artifact `score` has unexpected type".into()),
        Err(_) => None,
    };
    if let Some(path) = &options.snapshot {
        let fingerprint = analyze_fingerprint(dir, options)?;
        let snapshot = analyze_snapshot(
            &normalized,
            &patterns,
            labels.as_deref(),
            options,
            fingerprint,
        )?;
        towerlens_artifact::write_snapshot(path, &snapshot)?;
    }
    Ok((
        AnalyzeSummary {
            records: parsed,
            kept: cleaned,
            k: patterns.k,
            labels,
            shares: patterns.clustering.shares(),
            ari_vs_truth,
        },
        outcome.report,
    ))
}

/// Assembles the versioned query artifact from an analyze run's
/// working set: the frequency features are the cluster stage's
/// spectral table (fresh or from its checkpoint), and the
/// primary-component basis is frozen only when the geographic labels
/// cover all four pure kinds. `analyze` has no
/// decomposer (it lacks the city ground truth), so the decomposition
/// section is empty and `query decompose` solves live against the
/// frozen basis.
fn analyze_snapshot(
    normalized: &NormalizedMatrix,
    patterns: &IdentifiedPatterns,
    labels: Option<&[RegionKind]>,
    options: &AnalyzeOptions,
    fingerprint: u64,
) -> Result<towerlens_artifact::Snapshot, Box<dyn std::error::Error>> {
    let window = TraceWindow::days(options.days);
    let features = patterns.feature_table()?;
    let representatives = labels.and_then(|labels| {
        let pure: Option<Vec<usize>> = RegionKind::PURE
            .iter()
            .map(|&k| cluster_of_kind(labels, k))
            .collect();
        match pure {
            Some(pure) if pure.len() == 4 => {
                representative_towers(features, &patterns.clustering, &pure)
                    .ok()
                    .map(|reps| [reps[0], reps[1], reps[2], reps[3]])
            }
            _ => None,
        }
    });
    Ok(snapshot_from_parts(
        &window,
        &normalized.kept_ids,
        &normalized.vectors,
        patterns,
        labels,
        features,
        representatives,
        &[],
        fingerprint,
        options.feature_space,
    )?)
}

/// Parses a scale name (`tiny` / `small` / `medium` / `paper`) into a
/// study configuration.
///
/// # Errors
/// A usage line for an unknown scale name.
pub fn study_config(scale: &str, seed: u64) -> Result<StudyConfig, String> {
    match scale {
        "tiny" => Ok(StudyConfig::tiny(seed)),
        "small" => Ok(StudyConfig::small(seed)),
        "medium" => Ok(StudyConfig::medium(seed)),
        "paper" => Ok(StudyConfig::paper_scale(seed)),
        other => Err(format!(
            "unknown scale `{other}` (expected tiny|small|medium|paper)"
        )),
    }
}

/// Runs the staged end-to-end study, optionally resuming from (and
/// writing to) a checkpoint directory.
///
/// Optional enrichment stages (labelling, time-domain, frequency,
/// decomposition) that fail are reported and pruned rather than
/// aborting: inspect [`PartialStudyReport::is_complete`] and
/// [`RunReport::degraded`] on the way out.
///
/// # Errors
/// Failures of the required spine (generation through clustering) and
/// checkpoint I/O failures.
pub fn run_study(
    config: StudyConfig,
    resume: Option<&Path>,
) -> Result<(PartialStudyReport, RunReport), Box<dyn std::error::Error>> {
    run_study_with(config, resume, 0)
}

/// As [`run_study`], retrying each checkpoint probe and save that
/// fails with an I/O error up to `retries` times. This is what
/// `study --retries N` runs.
///
/// # Errors
/// As [`run_study`]; checkpoint I/O failures only past the retry
/// budget.
pub fn run_study_with(
    config: StudyConfig,
    resume: Option<&Path>,
    retries: u32,
) -> Result<(PartialStudyReport, RunReport), Box<dyn std::error::Error>> {
    let study = Study::new(config);
    let store = match resume {
        Some(dir) => Some(CheckpointStore::open(dir, study.checkpoint_fingerprint())?),
        None => None,
    };
    Ok(study.run_resilient_with(store.as_ref(), retries)?)
}

/// One `doctor` verdict: the checkpoint's file name and its fsck
/// outcome.
pub type DoctorRow = (String, Result<StageHeader, CheckpointError>);

/// The files in `dir` with extension `ext`, in name order.
fn files_with_extension(dir: &Path, ext: &str) -> Result<Vec<PathBuf>, std::io::Error> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().and_then(|e| e.to_str()) == Some(ext)).then_some(path)
        })
        .collect();
    paths.sort();
    Ok(paths)
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Fscks every `*.ckpt` file in a checkpoint directory, in name order.
///
/// Returns one `(file name, verdict)` row per checkpoint; a damaged
/// file is a per-file [`CheckpointError`], not a hard error, so one
/// corrupt checkpoint never hides the health of the others. With
/// `expected_fingerprint`, every file is additionally pinned to that
/// configuration fingerprint, so stale checkpoints from an older
/// config surface as damage instead of passing as healthy files.
///
/// # Errors
/// Only directory-level I/O failures (missing or unreadable dir).
pub fn doctor_checkpoints(
    dir: &Path,
    expected_fingerprint: Option<u64>,
) -> Result<Vec<DoctorRow>, std::io::Error> {
    fn scan(dir: &Path, prefix: &str, fp: Option<u64>) -> Result<Vec<DoctorRow>, std::io::Error> {
        Ok(files_with_extension(dir, "ckpt")?
            .into_iter()
            .map(|path| {
                let verdict = fsck_checkpoint(&path, fp);
                (format!("{prefix}{}", file_name(&path)), verdict)
            })
            .collect())
    }
    let mut rows = scan(dir, "", expected_fingerprint)?;
    // A serve data directory keeps its snapshots under `snap/`; fsck
    // them in the same sweep. Snapshot fingerprints hash the serve
    // window, not the analyze config, so `--fingerprint` pinning stays
    // scoped to the top-level files.
    let snap = dir.join(towerlens_serve::SNAP_DIR);
    if snap.is_dir() {
        rows.extend(scan(&snap, "snap/", None)?);
    }
    Ok(rows)
}

/// One `doctor` artifact verdict: the artifact's file name and its
/// fsck outcome.
pub type ArtifactRow = (String, Result<ArtifactFsck, ArtifactError>);

/// Fscks every `*.artifact` file in a directory, in name order.
///
/// As with [`doctor_checkpoints`], a damaged artifact is a per-file
/// verdict, never a hard error. A missing directory is an I/O error;
/// a directory with no artifacts is an empty (healthy) report.
///
/// # Errors
/// Only directory-level I/O failures.
pub fn doctor_artifacts(dir: &Path) -> Result<Vec<ArtifactRow>, std::io::Error> {
    Ok(files_with_extension(dir, "artifact")?
        .into_iter()
        .map(|path| (file_name(&path), towerlens_artifact::fsck_artifact(&path)))
        .collect())
}

/// `doctor`'s three-way verdict for one inspected file.
///
/// The exit-code contract hangs off this: *degraded but readable*
/// states (a stale checkpoint from an older configuration, a WAL
/// segment with a tolerated torn tail, an artifact carrying only
/// unknown extra sections) warn but exit 0 — they are expected
/// operational states, not damage. Only [`Health::Corrupt`] (checksum
/// or structural failure) makes `doctor` exit 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Fully intact.
    Healthy,
    /// Readable, but in a state the operator should know about.
    Degraded,
    /// Damaged: checksum mismatch, truncation, or structural rot.
    Corrupt,
}

/// Classifies a checkpoint fsck verdict. A fingerprint mismatch means
/// the file is *stale* — internally consistent, written by another
/// configuration — which is degraded, not corrupt. Everything else
/// that errors is damage.
pub fn checkpoint_health(verdict: &Result<StageHeader, CheckpointError>) -> Health {
    match verdict {
        Ok(_) => Health::Healthy,
        Err(CheckpointError::FingerprintMismatch { .. }) => Health::Degraded,
        Err(_) => Health::Corrupt,
    }
}

/// Classifies a WAL segment fsck row. A torn tail on an unsealed
/// segment is the documented crash signature the replayer tolerates —
/// degraded. A structural error is corruption.
pub fn wal_health(row: &towerlens_serve::WalSegmentFsck) -> Health {
    if row.error.is_some() {
        Health::Corrupt
    } else if row.torn_tail {
        Health::Degraded
    } else {
        Health::Healthy
    }
}

/// Classifies an artifact fsck verdict. Header-level failures and any
/// section checksum mismatch (or a semantic decode failure) are
/// corruption; an artifact whose only oddity is unknown extra
/// sections — the forward-compatibility path — is degraded.
pub fn artifact_health(verdict: &Result<ArtifactFsck, ArtifactError>) -> Health {
    match verdict {
        Err(_) => Health::Corrupt,
        Ok(fsck) if !fsck.healthy() => Health::Corrupt,
        Ok(fsck) if fsck.has_unknown_sections() => Health::Degraded,
        Ok(_) => Health::Healthy,
    }
}

/// The `doctor` exit code over every inspected file: 1 iff anything
/// is [`Health::Corrupt`]; degraded states warn but exit 0.
pub fn doctor_exit(healths: &[Health]) -> i32 {
    i32::from(healths.contains(&Health::Corrupt))
}

impl Health {
    /// The stable lower-case label used by `doctor --json` and the
    /// summary line.
    pub fn label(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Corrupt => "corrupt",
        }
    }
}

/// One row of `doctor`'s flat verdict table: target kind
/// (`checkpoint` / `wal` / `artifact` / `pointer`), file name,
/// three-way health, and a human-readable detail (empty when
/// healthy).
pub type DoctorVerdict = (&'static str, String, Health, String);

/// The detail string for a checkpoint verdict.
pub fn checkpoint_detail(verdict: &Result<StageHeader, CheckpointError>) -> String {
    match verdict {
        Ok(_) => String::new(),
        Err(e) => e.to_string(),
    }
}

/// The detail string for a WAL segment fsck row.
pub fn wal_detail(row: &towerlens_serve::WalSegmentFsck) -> String {
    match &row.error {
        Some(e) => e.clone(),
        None if row.torn_tail => "torn tail dropped".to_string(),
        None => String::new(),
    }
}

/// The detail string for an artifact verdict: damaged sections and
/// the semantic error when unhealthy, the unknown-section note when
/// merely degraded, empty when healthy.
pub fn artifact_detail(verdict: &Result<ArtifactFsck, ArtifactError>) -> String {
    match verdict {
        Err(e) => e.to_string(),
        Ok(fsck) if !fsck.healthy() => {
            let mut parts: Vec<String> = fsck
                .sections
                .iter()
                .filter_map(|s| match &s.status {
                    towerlens_artifact::SectionStatus::ChecksumMismatch { .. } => {
                        Some(format!("section `{}` checksum", s.tag))
                    }
                    _ => None,
                })
                .collect();
            if let Some(semantic) = &fsck.semantic {
                parts.push(semantic.clone());
            }
            parts.join("; ")
        }
        Ok(fsck) if fsck.has_unknown_sections() => "unknown section(s) tolerated".to_string(),
        Ok(_) => String::new(),
    }
}

/// The verdict for the generation store's `CURRENT` pointer, when the
/// directory has one: `None` when absent, otherwise the pointer's
/// health against the already-fsck'd artifact rows. A pointer naming
/// a missing file is corrupt; one naming an artifact that fails its
/// own fsck is degraded — the file is intact and `query --watch`
/// falls back to the last good generation, which is exactly the
/// degraded-mode contract.
pub fn doctor_pointer(dir: &Path, artifacts: &[ArtifactRow]) -> Option<DoctorVerdict> {
    let target = match towerlens_artifact::read_current(dir) {
        Ok(Some(target)) => target,
        Ok(None) => return None,
        Err(e) => {
            return Some((
                "pointer",
                towerlens_artifact::CURRENT_POINTER.to_string(),
                Health::Corrupt,
                e.to_string(),
            ))
        }
    };
    let (health, detail) = match artifacts.iter().find(|(name, _)| *name == target) {
        None => (
            Health::Corrupt,
            format!("names missing generation `{target}`"),
        ),
        Some((_, verdict)) => match artifact_health(verdict) {
            Health::Corrupt => (
                Health::Degraded,
                format!("names `{target}` which fails fsck; query --watch serves last good"),
            ),
            _ => (Health::Healthy, format!("-> {target}")),
        },
    };
    Some((
        "pointer",
        towerlens_artifact::CURRENT_POINTER.to_string(),
        health,
        detail,
    ))
}

/// The final `doctor:` one-line summary over every inspected target.
pub fn doctor_summary(healths: &[Health]) -> String {
    let count = |h: Health| healths.iter().filter(|&&x| x == h).count();
    format!(
        "doctor: {} healthy, {} degraded, {} corrupt",
        count(Health::Healthy),
        count(Health::Degraded),
        count(Health::Corrupt)
    )
}

/// Renders the verdict table as a stable JSON document for scripting:
/// `{"dir": ..., "targets": [...], "summary": {...}}`, targets in
/// inspection order.
pub fn doctor_json(dir: &Path, verdicts: &[DoctorVerdict]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"dir\":\"{}\",\"targets\":[",
        json_escape(&dir.display().to_string())
    ));
    for (i, (kind, file, health, detail)) in verdicts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"kind\":\"{kind}\",\"file\":\"{}\",\"status\":\"{}\",\"detail\":\"{}\"}}",
            json_escape(file),
            health.label(),
            json_escape(detail)
        ));
    }
    let healths: Vec<Health> = verdicts.iter().map(|v| v.2).collect();
    let count = |h: Health| healths.iter().filter(|&&x| x == h).count();
    out.push_str(&format!(
        "],\"summary\":{{\"healthy\":{},\"degraded\":{},\"corrupt\":{}}}}}",
        count(Health::Healthy),
        count(Health::Degraded),
        count(Health::Corrupt)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use towerlens_core::StageStatus;

    #[test]
    fn gen_then_analyze_roundtrip() {
        let dir = std::env::temp_dir().join("towerlens-cli-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let options = GenOptions {
            seed: 5,
            towers: 80,
            agents: 500,
            days: 7,
        };
        let written = generate_dataset(&dir, &options).expect("gen");
        assert!(written > 1_000, "only {written} records");
        for f in ["logs.tsv", "towers.tsv", "pois.tsv", "truth.tsv"] {
            assert!(dir.join(f).exists(), "{f} missing");
        }
        let (summary, _) = analyze(
            &dir,
            &AnalyzeOptions {
                days: 7,
                threads: 2,
                ..AnalyzeOptions::default()
            },
            None,
            0,
        )
        .expect("analyze");
        assert_eq!(summary.records, written);
        assert!(summary.kept <= summary.records);
        assert!(summary.k >= 2, "k = {}", summary.k);
        let labels = summary.labels.as_ref().expect("labelling healthy");
        assert_eq!(labels.len(), summary.k);
        let ari = summary.ari_vs_truth.expect("truth present");
        assert!(ari > 0.1, "ari {ari}");
        let share_sum: f64 = summary.shares.iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_missing_dir_errors() {
        let dir = std::env::temp_dir().join("towerlens-cli-missing");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(analyze(&dir, &AnalyzeOptions::default(), None, 0).is_err());
    }

    #[test]
    fn analyze_resume_skips_ingestion_and_matches_fresh_run() {
        let dir = std::env::temp_dir().join("towerlens-cli-resume");
        let ckpt = std::env::temp_dir().join("towerlens-cli-resume-ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ckpt);
        generate_dataset(
            &dir,
            &GenOptions {
                seed: 5,
                towers: 80,
                agents: 500,
                days: 7,
            },
        )
        .expect("gen");
        let options = AnalyzeOptions {
            days: 7,
            threads: 2,
            ..AnalyzeOptions::default()
        };
        let (fresh, first) = analyze(&dir, &options, Some(&ckpt), 0).expect("first analyze");
        assert_eq!(first.with_status(StageStatus::Cached), Vec::<&str>::new());

        let (resumed, second) = analyze(&dir, &options, Some(&ckpt), 0).expect("second analyze");
        assert_eq!(
            second.with_status(StageStatus::Cached),
            vec!["vectorize", "cluster"]
        );
        // With the expensive middle cached, log ingestion and
        // cleaning are not demanded at all.
        assert_eq!(
            second.with_status(StageStatus::Skipped),
            vec!["ingest-logs", "clean"]
        );
        assert_eq!(resumed.records, fresh.records);
        assert_eq!(resumed.kept, fresh.kept);
        assert_eq!(resumed.k, fresh.k);
        assert_eq!(resumed.labels, fresh.labels);
        assert_eq!(
            resumed.ari_vs_truth.map(f64::to_bits),
            fresh.ari_vs_truth.map(f64::to_bits)
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ckpt);
    }

    #[test]
    fn study_config_parses_known_scales_only() {
        assert!(study_config("tiny", 7).is_ok());
        assert!(study_config("paper", 7).is_ok());
        let e = study_config("huge", 7).unwrap_err();
        assert!(e.contains("unknown scale `huge`"), "{e}");
    }

    /// The `doctor` exit-code matrix: degraded-but-readable states
    /// (stale checkpoints, torn WAL tails, unknown artifact sections)
    /// warn but exit 0; only corruption exits 1.
    #[test]
    fn doctor_exit_code_matrix() {
        use towerlens_serve::WalSegmentFsck;

        // Checkpoints: stale (wrong fingerprint) is degraded, damage
        // is corrupt.
        let stale = Err(CheckpointError::FingerprintMismatch {
            stage: "cluster".into(),
            expected: 1,
            found: 2,
        });
        let torn = Err(CheckpointError::Damaged {
            path: "cluster.ckpt".into(),
            stage: "cluster".into(),
            error: towerlens_artifact::ArtifactError::Truncated { needed: 64, got: 9 },
        });
        assert_eq!(checkpoint_health(&stale), Health::Degraded);
        assert_eq!(checkpoint_health(&torn), Health::Corrupt);

        // WAL segments: a tolerated torn tail is degraded; a
        // structural error is corrupt.
        let wal = |torn_tail: bool, error: Option<&str>| WalSegmentFsck {
            file: "wal-000001.log".into(),
            segment: 1,
            entries: 3,
            first_seq: Some(1),
            last_seq: Some(3),
            sealed: false,
            torn_tail,
            error: error.map(str::to_string),
        };
        assert_eq!(wal_health(&wal(false, None)), Health::Healthy);
        assert_eq!(wal_health(&wal(true, None)), Health::Degraded);
        assert_eq!(
            wal_health(&wal(false, Some("bad checksum"))),
            Health::Corrupt
        );
        // A structural error outranks a torn tail.
        assert_eq!(wal_health(&wal(true, Some("bad length"))), Health::Corrupt);

        // Artifacts: exercised through real files so the fsck verdicts
        // are the ones `doctor` actually sees.
        let dir = std::env::temp_dir().join("towerlens-doctor-matrix");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = towerlens_artifact::format::sample_snapshot();
        let good = dir.join("good.artifact");
        towerlens_artifact::write_snapshot(&good, &snap).unwrap();
        let bad = dir.join("zz-bad.artifact");
        let mut bytes = snap.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&bad, &bytes).unwrap();
        let rows = doctor_artifacts(&dir).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "good.artifact");
        assert_eq!(artifact_health(&rows[0].1), Health::Healthy);
        assert_eq!(artifact_health(&rows[1].1), Health::Corrupt);

        // The exit code: 1 iff anything is corrupt.
        assert_eq!(doctor_exit(&[]), 0);
        assert_eq!(doctor_exit(&[Health::Healthy, Health::Degraded]), 0);
        assert_eq!(doctor_exit(&[Health::Degraded, Health::Corrupt]), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
