//! Design-choice ablations (DESIGN.md §5): each function re-runs a
//! pipeline stage with an alternative choice and reports what changes.
//! Registered as extra `repro` subcommands (`ablate-...`).

use std::time::Instant;

use towerlens_city::zone::RegionKind;
use towerlens_cluster::agglomerative::{agglomerative, Linkage};
use towerlens_cluster::compare::{adjusted_rand_index, purity};
use towerlens_cluster::dendrogram::{Clustering, Dendrogram};
use towerlens_cluster::distance::DistanceMatrix;
use towerlens_cluster::validity::{calinski_harabasz, davies_bouldin, silhouette};
use towerlens_core::{CoreError, StudyReport};
use towerlens_mobility::config::SynthConfig;
use towerlens_mobility::synth::synthesize_city;
use towerlens_pipeline::normalize::normalize_matrix;

use crate::table::{num, TextTable};

/// All ablation ids.
pub const ALL_ABLATIONS: [&str; 4] = [
    "ablate-linkage",
    "ablate-tuner",
    "ablate-noise",
    "ablate-features",
];

/// Dispatches one ablation by id.
///
/// # Errors
/// Unknown ids yield [`CoreError::UnknownExperiment`]; analysis
/// failures propagate.
pub fn run(id: &str, report: &StudyReport) -> Result<String, CoreError> {
    match id {
        "ablate-linkage" => linkage(report),
        "ablate-tuner" => tuner(report),
        "ablate-noise" => noise(report),
        "ablate-features" => feature_space(report),
        _ => Err(CoreError::UnknownExperiment { id: id.to_string() }),
    }
}

/// Ground-truth clustering over the kept towers (compacted labels).
fn truth_clustering(report: &StudyReport) -> Result<Clustering, CoreError> {
    let labels: Vec<usize> = report
        .kept_ids
        .iter()
        .map(|&id| report.city.towers()[id].kind_truth.index())
        .collect();
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
    Clustering::from_labels(compact).map_err(CoreError::from)
}

/// How well a dendrogram's DBI-style sweep recovers structure under a
/// given cut count.
fn score_cut(
    dendrogram: &Dendrogram,
    vectors: &[Vec<f64>],
    truth: &Clustering,
    k: usize,
) -> Result<(f64, f64), CoreError> {
    let cut = dendrogram.cut_k(k)?;
    let ari = adjusted_rand_index(&cut, truth)?;
    let pur = purity(&cut, truth)?;
    let _ = vectors;
    Ok((ari, pur))
}

/// Ablation: linkage criterion. Does the five-pattern structure
/// survive single/complete/Ward linkage, or is average linkage (the
/// paper's choice) load-bearing?
pub fn linkage(report: &StudyReport) -> Result<String, CoreError> {
    let truth = truth_clustering(report)?;
    let mut out = String::from(
        "## Ablation — linkage criterion\n\
         The paper uses average linkage. Re-clustering the same vectors with the\n\
         alternatives (k fixed to 5 for comparability, plus each linkage's own\n\
         DBI-chosen k):\n\n",
    );
    let mut t = TextTable::new(vec![
        "linkage",
        "ARI@5 vs truth",
        "purity@5",
        "DBI-chosen k",
        "time (s)",
    ]);
    for (name, linkage) in [
        ("average", Linkage::Average),
        ("single", Linkage::Single),
        ("complete", Linkage::Complete),
        ("ward", Linkage::Ward),
    ] {
        let start = Instant::now();
        let dendro = agglomerative(DistanceMatrix::build(&report.vectors, 0)?, linkage)?;
        let elapsed = start.elapsed().as_secs_f64();
        let (ari, pur) = score_cut(&dendro, &report.vectors, &truth, 5)?;
        let sweep = towerlens_cluster::validity::dbi_sweep(&report.vectors, &dendro, 2, 12, 0)?;
        let chosen = towerlens_cluster::validity::best_by_dbi(&sweep)
            .map(|p| p.k)
            .unwrap_or(0);
        t.row(vec![
            name.to_string(),
            num(ari),
            num(pur),
            chosen.to_string(),
            num(elapsed),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Ablation: the metric tuner's objective. DBI (the paper's choice)
/// vs Calinski–Harabasz vs silhouette: which k does each pick on the
/// same dendrogram, and how good is that cut?
pub fn tuner(report: &StudyReport) -> Result<String, CoreError> {
    let truth = truth_clustering(report)?;
    let dendro = &report.patterns.dendrogram;
    let mut out = String::from(
        "## Ablation — metric-tuner objective\n\
         Same dendrogram, three stop rules:\n\n",
    );
    // Evaluate all three indices across cuts.
    let mut rows: Vec<(usize, f64, f64, f64)> = Vec::new();
    for k in 2..=10.min(report.vectors.len() - 1) {
        let cut = dendro.cut_k(k)?;
        let dbi = davies_bouldin(&report.vectors, &cut)?;
        let ch = calinski_harabasz(&report.vectors, &cut)?;
        // Silhouette is O(n²·d); subsample for speed.
        let (sil_pts, sil_cut) = subsample(&report.vectors, &cut, 400);
        let sil = silhouette(&sil_pts, &sil_cut).unwrap_or(f64::NAN);
        rows.push((k, dbi, ch, sil));
    }
    let mut t = TextTable::new(vec!["k", "DBI (min)", "CH (max)", "silhouette (max)"]);
    for (k, dbi, ch, sil) in &rows {
        t.row(vec![k.to_string(), num(*dbi), num(*ch), num(*sil)]);
    }
    out.push_str(&t.render());

    let best_dbi = rows
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|r| r.0)
        .unwrap_or(0);
    let best_ch = rows
        .iter()
        .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
        .map(|r| r.0)
        .unwrap_or(0);
    let best_sil = rows
        .iter()
        .max_by(|a, b| a.3.partial_cmp(&b.3).unwrap_or(std::cmp::Ordering::Equal))
        .map(|r| r.0)
        .unwrap_or(0);
    out.push('\n');
    for (name, k) in [("DBI", best_dbi), ("CH", best_ch), ("silhouette", best_sil)] {
        let (ari, pur) = score_cut(dendro, &report.vectors, &truth, k)?;
        out.push_str(&format!(
            "{name} picks k = {k}: ARI vs truth {}, purity {}\n",
            num(ari),
            num(pur)
        ));
    }
    Ok(out)
}

/// Subsamples points + labels for the O(n²) silhouette.
fn subsample(
    points: &[Vec<f64>],
    clustering: &Clustering,
    cap: usize,
) -> (Vec<Vec<f64>>, Clustering) {
    if points.len() <= cap {
        return (points.to_vec(), clustering.clone());
    }
    let step = points.len().div_ceil(cap);
    let idx: Vec<usize> = (0..points.len()).step_by(step).collect();
    let pts: Vec<Vec<f64>> = idx.iter().map(|&i| points[i].clone()).collect();
    let labels: Vec<usize> = idx.iter().map(|&i| clustering.labels[i]).collect();
    // Compact.
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
    (
        pts,
        Clustering::from_labels(compact).expect("compact labels"),
    )
}

/// Ablation: synthesis noise level. How much per-bin noise can the
/// pipeline absorb before the five-pattern structure degrades?
pub fn noise(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = String::from(
        "## Ablation — traffic noise level\n\
         Re-synthesising the same city at increasing per-bin log-normal noise and\n\
         re-running the identifier:\n\n",
    );
    let mut t = TextTable::new(vec!["bin noise σ", "chosen k", "ARI vs truth", "purity"]);
    for &sigma in &[0.03f64, 0.06, 0.12, 0.25, 0.5] {
        let synth = SynthConfig {
            bin_noise_sigma: sigma,
            day_noise_sigma: sigma / 3.0,
            ..SynthConfig::default()
        };
        let raw = synthesize_city(&report.city, &report.window, &synth);
        let normalized = normalize_matrix(&raw, synth.threads)?;
        let identifier = towerlens_core::PatternIdentifier::default();
        let found = identifier.identify(&normalized.vectors)?;
        // Truth over this run's kept ids.
        let labels: Vec<usize> = normalized
            .kept_ids
            .iter()
            .map(|&id| report.city.towers()[id].kind_truth.index())
            .collect();
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
        let truth = Clustering::from_labels(compact)?;
        let ari = adjusted_rand_index(&found.clustering, &truth)?;
        let pur = purity(&found.clustering, &truth)?;
        t.row(vec![num(sigma), found.k.to_string(), num(ari), num(pur)]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Ablation: feature space. Cluster the study's own spectral table —
/// the six amplitude/phase features at the principal bins (§5) —
/// against the raw 4,032-dimensional vectors, and compare both k = 5
/// cuts with the ground truth and with each other.
pub fn feature_space(report: &StudyReport) -> Result<String, CoreError> {
    let truth = truth_clustering(report)?;
    let mut out = String::from(
        "## Ablation — clustering feature space\n\
         Raw z-scored vectors (the paper's §3 pipeline) vs the study's spectral table\n\
         (A, P at the weekly, daily and half-day lines, §5):\n\n",
    );
    let f6: Vec<Vec<f64>> = report.features.iter().map(|f| f.f6().to_vec()).collect();

    let mut t = TextTable::new(vec![
        "space",
        "dims",
        "cluster time (s)",
        "ARI@5 vs truth",
        "purity@5",
    ]);
    let mut cuts = Vec::with_capacity(2);
    for (name, pts) in [("raw time-domain", &report.vectors), ("spectral f6", &f6)] {
        let start = Instant::now();
        let dendro = agglomerative(DistanceMatrix::build(pts, 0)?, Linkage::Average)?;
        let elapsed = start.elapsed().as_secs_f64();
        let cut = dendro.cut_k(5.min(pts.len()))?;
        t.row(vec![
            name.to_string(),
            pts[0].len().to_string(),
            num(elapsed),
            num(adjusted_rand_index(&cut, &truth)?),
            num(purity(&cut, &truth)?),
        ]);
        cuts.push(cut);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\ncross-agreement ARI(raw, spectral) = {}\n",
        num(adjusted_rand_index(&cuts[0], &cuts[1])?)
    ));
    Ok(out)
}

/// Pure-kind shares in a report's ground truth (used by tests).
pub fn truth_shares(report: &StudyReport) -> [f64; 5] {
    let mut counts = [0usize; 5];
    for &id in &report.kept_ids {
        counts[report.city.towers()[id].kind_truth.index()] += 1;
    }
    let total: usize = counts.iter().sum();
    let mut shares = [0.0; 5];
    for (s, &c) in shares.iter_mut().zip(&counts) {
        *s = c as f64 / total.max(1) as f64;
    }
    let _ = RegionKind::ALL;
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_study, Scale};
    use std::sync::OnceLock;

    fn report() -> &'static StudyReport {
        static REPORT: OnceLock<StudyReport> = OnceLock::new();
        REPORT.get_or_init(|| run_study(Scale::Tiny, 11).expect("tiny study"))
    }

    #[test]
    fn all_ablations_render() {
        for id in ALL_ABLATIONS {
            let text = run(id, report()).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(text.contains("Ablation"), "{id}");
            assert!(text.len() > 100, "{id} too short");
        }
    }

    #[test]
    fn unknown_ablation_errors() {
        assert!(run("ablate-everything", report()).is_err());
    }

    #[test]
    fn truth_shares_sum_to_one() {
        let shares = truth_shares(report());
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn subsample_respects_cap() {
        let pts: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let c = Clustering::from_labels((0..100).map(|i| i % 3).collect()).unwrap();
        let (sub_pts, sub_c) = subsample(&pts, &c, 30);
        assert!(sub_pts.len() <= 50);
        assert_eq!(sub_pts.len(), sub_c.labels.len());
    }
}
