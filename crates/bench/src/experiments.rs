//! One function per paper artefact (table/figure). Each takes the
//! shared [`StudyReport`] and renders a text artefact that mirrors the
//! quantity the paper plots, prefixed with the paper's claim so the
//! output is self-describing (EXPERIMENTS.md is assembled from these).

use towerlens_city::density::DensityGrid;
use towerlens_city::zone::{PoiKind, RegionKind};
use towerlens_core::decompose::{min_rank_consistency, time_domain_combination, Decomposer};
use towerlens_core::freq::{amplitude_variance, principal_bins, reconstruct_principal};
use towerlens_core::timedomain::{daily_profiles, double_peaks, lag_hours, profile_correlation};
use towerlens_core::{CoreError, StudyReport};
use towerlens_dsp::normalize::{by_max, to_shares};
use towerlens_dsp::spectrum::Spectrum;
use towerlens_dsp::stats::{variance, Ecdf};
use towerlens_opt::simplex::Solver;
use towerlens_trace::time::BINS_PER_DAY;

use crate::table::{hhmm, num, strip, TextTable};

/// All experiment ids, in paper order.
pub const ALL_EXPERIMENTS: [&str; 22] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1", "fig7", "table2", "fig8", "table3",
    "fig10", "table4", "table5", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "table6",
];

/// Dispatches one experiment by id (`fig18_19` is an alias for
/// [`table6`], which renders the Fig 18/19 companions too).
///
/// # Errors
/// Unknown ids yield [`CoreError::UnknownExperiment`]; analysis
/// errors propagate.
pub fn run(id: &str, report: &StudyReport) -> Result<String, CoreError> {
    match id {
        "fig1" => fig1(report),
        "fig2" => fig2(report),
        "fig3" => fig3(report),
        "fig4" => fig4(report),
        "fig5" => fig5(report),
        "fig6" => fig6(report),
        "table1" => table1(report),
        "fig7" => fig7(report),
        "table2" => table2(report),
        "fig8" => fig8(report),
        "table3" | "fig9" => table3(report),
        "fig10" => fig10(report),
        "table4" => table4(report),
        "table5" => table5(report),
        "fig11" => fig11(report),
        "fig12" => fig12(report),
        "fig13" => fig13(report),
        "fig14" => fig14(report),
        "fig15" => fig15(report),
        "fig16" => fig16(report),
        "fig17" => fig17(report),
        "table6" | "fig18_19" | "fig18" | "fig19" => table6(report),
        _ => Err(CoreError::UnknownExperiment { id: id.to_string() }),
    }
}

/// Clusters ordered for display: pure patterns in canonical order,
/// then comprehensive, then anything else.
fn display_order(report: &StudyReport) -> Vec<(usize, RegionKind)> {
    let mut order: Vec<(usize, RegionKind)> =
        report.geo.labels.iter().copied().enumerate().collect();
    order.sort_by_key(|&(c, kind)| (kind.index(), c));
    order
}

fn header(title: &str, claim: &str) -> String {
    format!("## {title}\nPaper: {claim}\n\n")
}

/// Fig 1: temporal distribution of aggregate traffic (hourly within a
/// day, daily within a week, weekly within the window).
pub fn fig1(report: &StudyReport) -> Result<String, CoreError> {
    let total = report.total_series();
    let mut out = header(
        "Fig 1 — temporal distribution of cellular traffic",
        "two daily peaks (~noon, ~22:00); night valley; weekend dip on weekly scale",
    );
    // (a) one day, Thursday of week 1.
    let day = 3;
    let day_series = &total[day * BINS_PER_DAY..(day + 1) * BINS_PER_DAY];
    out.push_str("(a) one day (Thu), 10-min bins  [00:00 → 24:00]\n");
    out.push_str(&format!("    {}\n", strip(day_series, 72)));
    let (peak_bin, _) = towerlens_dsp::stats::argmax(day_series).expect("non-empty");
    out.push_str(&format!(
        "    day peak at {}\n",
        hhmm(report.window.time_of_day(peak_bin))
    ));
    // (b) one week.
    let week = &total[..(7 * BINS_PER_DAY).min(total.len())];
    out.push_str("(b) one week (Mon..Sun)\n");
    out.push_str(&format!("    {}\n", strip(week, 84)));
    // (c) whole window, daily totals.
    let days = total.len() / BINS_PER_DAY;
    let daily: Vec<f64> = (0..days)
        .map(|d| total[d * BINS_PER_DAY..(d + 1) * BINS_PER_DAY].iter().sum())
        .collect();
    let mut t = TextTable::new(vec!["day", "dow", "traffic (bytes)"]);
    for (d, v) in daily.iter().enumerate() {
        let dow = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"][d % 7];
        t.row(vec![format!("{d}"), dow.to_string(), num(*v)]);
    }
    out.push_str("(c) daily totals over the window\n");
    out.push_str(&t.render());
    // Weekend dip check.
    let wd: f64 = daily
        .iter()
        .enumerate()
        .filter(|(d, _)| d % 7 < 5)
        .map(|(_, v)| v)
        .sum::<f64>()
        / daily.iter().enumerate().filter(|(d, _)| d % 7 < 5).count() as f64;
    let we: f64 = daily
        .iter()
        .enumerate()
        .filter(|(d, _)| d % 7 >= 5)
        .map(|(_, v)| v)
        .sum::<f64>()
        / daily
            .iter()
            .enumerate()
            .filter(|(d, _)| d % 7 >= 5)
            .count()
            .max(1) as f64;
    out.push_str(&format!(
        "measured: avg weekday/weekend daily traffic ratio = {}\n",
        num(wd / we)
    ));
    Ok(out)
}

/// Fig 2: spatial traffic density at 4AM / 10AM / 4PM / 10PM.
pub fn fig2(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 2 — spatial distribution of traffic density",
        "city centre hot at all hours; whole city dark at 4AM, bright at 10AM",
    );
    let day = 3; // Thursday
    let mut centre_vals = Vec::new();
    for &hour in &[4usize, 10, 16, 22] {
        let bin = day * BINS_PER_DAY + hour * 6;
        let mut grid = DensityGrid::new(*report.city.bounds(), 56, 24);
        for (id, row) in report.raw.iter().enumerate() {
            grid.add(&report.city.towers()[id].position, row[bin]);
        }
        out.push_str(&format!(
            "{:02}:00 (total {} bytes/10min)\n{}\n",
            hour,
            num(grid.total()),
            grid.ascii_heatmap("")
        ));
        // Centre cell intensity for the claim check.
        if let Some((c, r)) = grid.cell_of(&report.city.center()) {
            centre_vals.push(grid.get(c, r));
        }
    }
    out.push_str(&format!(
        "measured: centre-cell traffic by snapshot (04,10,16,22) = [{}]\n",
        centre_vals
            .iter()
            .map(|v| num(*v))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(out)
}

/// Average weekday day-profile of one tower, normalised by max.
fn tower_day_profile(report: &StudyReport, tower_id: usize) -> Result<Vec<f64>, CoreError> {
    let (wd, _) = daily_profiles(&report.raw[tower_id], &report.window)?;
    by_max(&wd).map_err(CoreError::from)
}

/// Fig 3: normalised traffic of towers in residential area vs business
/// district.
pub fn fig3(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 3 — residential vs business-district towers",
        "residential: two peaks, high across night; business: single midday peak, ~zero at night",
    );
    for (kind, label) in [
        (RegionKind::Resident, "residential area"),
        (RegionKind::Office, "business district"),
    ] {
        out.push_str(&format!("{label}:\n"));
        let ids = report.city.towers_of_kind(kind);
        for &id in ids.iter().take(4) {
            let profile = tower_day_profile(report, id)?;
            out.push_str(&format!("  tower {id:5}  {}\n", strip(&profile, 72)));
        }
    }
    // Night level comparison (23:00–24:00 mean of normalised profile).
    let night = |kind: RegionKind| -> Result<f64, CoreError> {
        let ids = report.city.towers_of_kind(kind);
        let mut acc = 0.0;
        let mut n = 0;
        for &id in ids.iter().take(8) {
            let p = tower_day_profile(report, id)?;
            acc += p[138..144].iter().sum::<f64>() / 6.0;
            n += 1;
        }
        Ok(acc / n.max(1) as f64)
    };
    out.push_str(&format!(
        "measured: normalised 23:00-24:00 level — residential {}, business {}\n",
        num(night(RegionKind::Resident)?),
        num(night(RegionKind::Office)?)
    ));
    Ok(out)
}

/// Fig 4: towers sampled across latitudes — large peak-hour variance.
pub fn fig4(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 4 — towers sampled across latitudes/longitudes",
        "peak hours vary wildly across towers (variance ≈ 10 h across the sample)",
    );
    let mut ids: Vec<usize> = (0..report.city.towers().len()).collect();
    ids.sort_by(|&a, &b| {
        report.city.towers()[a]
            .position
            .lat
            .partial_cmp(&report.city.towers()[b].position.lat)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let step = (ids.len() / 40).max(1);
    let sample: Vec<usize> = ids.iter().step_by(step).take(40).copied().collect();
    let mut peak_hours = Vec::new();
    out.push_str("south → north, one row per tower (avg weekday, normalised)\n");
    for &id in &sample {
        let profile = tower_day_profile(report, id)?;
        let (peak_bin, _) = towerlens_dsp::stats::argmax(&profile).expect("non-empty");
        peak_hours.push(peak_bin as f64 / 6.0);
        out.push_str(&format!(
            "  {:8.4}  {}\n",
            report.city.towers()[id].position.lat,
            strip(&profile, 72)
        ));
    }
    let var = variance(&peak_hours).unwrap_or(0.0);
    out.push_str(&format!(
        "measured: peak-hour spread across sample — variance {} h², std {} h\n",
        num(var),
        num(var.sqrt())
    ));
    Ok(out)
}

/// Fig 5: the same strips restricted to residential / business towers
/// — regular stripes.
pub fn fig5(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 5 — single-kind towers across latitudes",
        "within one functional kind the profiles are regular and mutually similar",
    );
    for (kind, label) in [
        (RegionKind::Resident, "residential"),
        (RegionKind::Office, "business"),
    ] {
        let mut ids = report.city.towers_of_kind(kind);
        ids.sort_by(|&a, &b| {
            report.city.towers()[a]
                .position
                .lat
                .partial_cmp(&report.city.towers()[b].position.lat)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let step = (ids.len() / 20).max(1);
        out.push_str(&format!("{label} towers (south → north):\n"));
        let mut peaks = Vec::new();
        for &id in ids.iter().step_by(step).take(20) {
            let profile = tower_day_profile(report, id)?;
            let (peak_bin, _) = towerlens_dsp::stats::argmax(&profile).expect("non-empty");
            peaks.push(peak_bin as f64 / 6.0);
            out.push_str(&format!("  {}\n", strip(&profile, 72)));
        }
        out.push_str(&format!(
            "  peak-hour std within kind: {} h\n",
            num(variance(&peaks).unwrap_or(0.0).sqrt())
        ));
    }
    Ok(out)
}

/// Fig 6: DBI curve, per-cluster distance CDFs, and the five pattern
/// profiles.
pub fn fig6(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 6 — identified patterns, DBI variation, distance CDFs",
        "DBI minimised at 5 clusters (threshold 16.33 in the paper's data); \
         ~80% of members within distance 10 of their centroid; five distinct profiles",
    );
    let mut t = TextTable::new(vec!["k", "threshold", "DBI"]);
    for p in &report.patterns.dbi_curve {
        let marker = if p.k == report.patterns.k {
            " <- min"
        } else {
            ""
        };
        t.row(vec![
            format!("{}{}", p.k, marker),
            num(p.threshold),
            num(p.dbi),
        ]);
    }
    out.push_str("(a) DBI vs cluster count\n");
    out.push_str(&t.render());
    out.push_str(&format!(
        "selected k = {}, stop threshold = {}\n\n",
        report.patterns.k,
        num(report.patterns.threshold)
    ));

    out.push_str("(b) member→centroid distance CDF quantiles\n");
    let mut t = TextTable::new(vec!["cluster", "label", "p50", "p80", "p95"]);
    for (c, kind) in display_order(report) {
        let ecdf = Ecdf::new(&report.patterns.member_distances[c]);
        t.row(vec![
            format!("#{c}"),
            kind.label().to_string(),
            num(ecdf.inverse(0.5).unwrap_or(0.0)),
            num(ecdf.inverse(0.8).unwrap_or(0.0)),
            num(ecdf.inverse(0.95).unwrap_or(0.0)),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\n(c-g) cluster centroid profiles (first 7 days, z-scored)\n");
    for (c, kind) in display_order(report) {
        let profile = &report.patterns.centroids[c];
        let week = &profile[..(7 * BINS_PER_DAY).min(profile.len())];
        out.push_str(&format!(
            "  #{c} {:<13} {}\n",
            kind.label(),
            strip(week, 84)
        ));
    }
    Ok(out)
}

/// Table 1: percentage of towers per cluster.
pub fn table1(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Table 1 — share of towers per cluster",
        "resident 17.55%, transport 2.58%, office 45.72%, entertainment 9.35%, comprehensive 24.81%",
    );
    let shares = report.patterns.clustering.shares();
    let sizes = report.patterns.clustering.sizes();
    let mut t = TextTable::new(vec!["cluster", "functional region", "towers", "share"]);
    for (c, kind) in display_order(report) {
        t.row(vec![
            format!("{}", c + 1),
            kind.label().to_string(),
            format!("{}", sizes[c]),
            format!("{:.2}%", shares[c] * 100.0),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Fig 7: geographic density of each cluster + hotspots A–E.
pub fn fig7(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 7 — geographic distribution of the five patterns",
        "office dense downtown, resident on the outskirts, transport on corridors, \
         entertainment near the centre, comprehensive uniform",
    );
    let names = ["A", "B", "C", "D", "E"];
    for (display_idx, (c, kind)) in display_order(report).into_iter().enumerate() {
        let mut grid = DensityGrid::new(*report.city.bounds(), 56, 20);
        for (i, &label) in report.patterns.clustering.labels.iter().enumerate() {
            if label == c {
                grid.add(&report.city.towers()[report.kept_ids[i]].position, 1.0);
            }
        }
        let hotspot = report.geo.hotspots[c];
        out.push_str(&format!(
            "#{c} {} — hotspot {} at ({:.4}, {:.4})\n{}\n",
            kind.label(),
            names.get(display_idx).unwrap_or(&"?"),
            hotspot.lon,
            hotspot.lat,
            grid.ascii_heatmap("")
        ));
        // Mean distance from centre as the compactness measure.
        let ids: Vec<usize> = report
            .patterns
            .clustering
            .labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == c)
            .map(|(i, _)| report.kept_ids[i])
            .collect();
        let mean_r = ids
            .iter()
            .map(|&id| {
                report.city.towers()[id]
                    .position
                    .distance_m(&report.city.center())
            })
            .sum::<f64>()
            / ids.len().max(1) as f64;
        out.push_str(&format!(
            "  mean distance from city centre: {:.1} km\n",
            mean_r / 1000.0
        ));
    }
    Ok(out)
}

/// Table 2: POI distribution at the chosen (hotspot) points.
pub fn table2(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Table 2 — POI counts within 200 m of each cluster's hotspot",
        "A: resident-dominated; B: relatively transport-heavy; C: office ≫ rest; \
         D: entertainment ≫ rest; E: mixed",
    );
    let names = ["A", "B", "C", "D", "E"];
    let mut t = TextTable::new(vec![
        "point",
        "cluster",
        "Resident",
        "Transport",
        "Office",
        "Entertain",
    ]);
    for (display_idx, (c, kind)) in display_order(report).into_iter().enumerate() {
        let poi = report.geo.hotspot_poi[c];
        t.row(vec![
            names.get(display_idx).unwrap_or(&"?").to_string(),
            kind.label().to_string(),
            poi[0].to_string(),
            poi[1].to_string(),
            poi[2].to_string(),
            poi[3].to_string(),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Fig 8: case-study windows — do tower labels match the zone map?
pub fn fig8(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 8 — case-study validation of labels",
        "tower labels match the coloured functional regions of the sampled areas",
    );
    // Window A around the resident hotspot, window B around office.
    for (name, kind) in [("A", RegionKind::Resident), ("B", RegionKind::Office)] {
        let Some(c) = report.cluster_of(kind) else {
            continue;
        };
        let center = report.geo.hotspots[c];
        let (zones, towers) = report.city.window(&center, 2_500.0);
        let mut matches = 0usize;
        let mut total = 0usize;
        for t in &towers {
            // The label assigned by the pipeline to this tower, if
            // it was analysed.
            let Some(vec_idx) = report.kept_ids.iter().position(|&id| id == t.id) else {
                continue;
            };
            let cluster = report.patterns.clustering.labels[vec_idx];
            let label = report.geo.labels[cluster];
            total += 1;
            if label == t.kind_truth {
                matches += 1;
            }
        }
        out.push_str(&format!(
            "area {name} (around the {} hotspot): {} zones, {} towers, \
             label/ground-truth agreement {}/{} = {:.1}%\n",
            kind.label(),
            zones.len(),
            towers.len(),
            matches,
            total,
            100.0 * matches as f64 / total.max(1) as f64
        ));
        out.push_str(&case_study_map(report, &center, 2_500.0));
        out.push('\n');
    }
    out.push_str(&format!(
        "city-wide agreement: {:.1}%\n",
        report.geo.ground_truth_agreement * 100.0
    ));
    Ok(out)
}

/// Renders a Fig 8-style map: lowercase letters are the ground-truth
/// zone kinds colouring the area (r/t/o/e/c), uppercase letters are the
/// towers with their *assigned* cluster labels — visual agreement means
/// matching case pairs.
fn case_study_map(
    report: &StudyReport,
    center: &towerlens_city::geo::GeoPoint,
    half_extent_m: f64,
) -> String {
    const COLS: usize = 56;
    const ROWS: usize = 16;
    let kind_char = |k: RegionKind| match k {
        RegionKind::Resident => 'r',
        RegionKind::Transport => 't',
        RegionKind::Office => 'o',
        RegionKind::Entertainment => 'e',
        RegionKind::Comprehensive => 'c',
    };
    let mut grid = vec![['.'; COLS]; ROWS];
    // Paint zones (nearest zone kind per cell within its radius).
    let (zones, _) = report.city.window(center, half_extent_m * 1.2);
    for (row_idx, row) in grid.iter_mut().enumerate() {
        for (col_idx, cell) in row.iter_mut().enumerate() {
            let dx = (col_idx as f64 / (COLS - 1) as f64) * 2.0 - 1.0;
            let dy = (row_idx as f64 / (ROWS - 1) as f64) * 2.0 - 1.0;
            let p = center.offset_m(dx * half_extent_m, -dy * half_extent_m);
            let mut best: Option<(f64, RegionKind)> = None;
            for z in &zones {
                let d = z.center.distance_m(&p);
                if d <= z.radius_m {
                    match best {
                        Some((bd, _)) if bd <= d => {}
                        _ => best = Some((d, z.kind)),
                    }
                }
            }
            if let Some((_, k)) = best {
                *cell = kind_char(k);
            }
        }
    }
    // Overlay towers with their assigned labels (uppercase).
    for (i, &label) in report.patterns.clustering.labels.iter().enumerate() {
        let t = &report.city.towers()[report.kept_ids[i]];
        let dx_m = {
            let east = towerlens_city::geo::GeoPoint::new(t.position.lon, center.lat);
            let sign = if t.position.lon >= center.lon {
                1.0
            } else {
                -1.0
            };
            sign * east.distance_m(&towerlens_city::geo::GeoPoint::new(center.lon, center.lat))
        };
        let dy_m = {
            let north = towerlens_city::geo::GeoPoint::new(center.lon, t.position.lat);
            let sign = if t.position.lat >= center.lat {
                1.0
            } else {
                -1.0
            };
            sign * north.distance_m(&towerlens_city::geo::GeoPoint::new(center.lon, center.lat))
        };
        if dx_m.abs() > half_extent_m || dy_m.abs() > half_extent_m {
            continue;
        }
        let col = (((dx_m / half_extent_m) + 1.0) / 2.0 * (COLS - 1) as f64).round() as usize;
        let row =
            ((1.0 - ((dy_m / half_extent_m) + 1.0) / 2.0) * (ROWS - 1) as f64).round() as usize;
        let c = kind_char(report.geo.labels[label]).to_ascii_uppercase();
        grid[row.min(ROWS - 1)][col.min(COLS - 1)] = c;
    }
    let mut out = String::from("  map: lowercase = ground-truth zones, UPPERCASE = tower labels\n");
    for row in grid {
        out.push_str("  ");
        out.extend(row);
        out.push('\n');
    }
    out
}

/// Table 3 (+ Fig 9): averaged normalised POI per cluster.
pub fn table3(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Table 3 / Fig 9 — averaged min-max-normalised POI of the clusters",
        "each pure cluster is dominated by its own POI type (transport 44% of its area's \
         POI share, entertainment 39%); comprehensive has no dominant type",
    );
    let mut t = TextTable::new(vec![
        "cluster",
        "label",
        "Resident",
        "Transport",
        "Office",
        "Entertain",
        "dominant",
    ]);
    for (c, kind) in display_order(report) {
        let profile = report.geo.poi_profiles[c];
        let shares = to_shares(&profile);
        let dominant = (0..4)
            .max_by(|&a, &b| shares[a].partial_cmp(&shares[b]).unwrap())
            .map(|i| PoiKind::ALL[i].label())
            .unwrap_or("-");
        t.row(vec![
            format!("#{c}"),
            kind.label().to_string(),
            format!("{} ({:.0}%)", num(profile[0]), shares[0] * 100.0),
            format!("{} ({:.0}%)", num(profile[1]), shares[1] * 100.0),
            format!("{} ({:.0}%)", num(profile[2]), shares[2] * 100.0),
            format!("{} ({:.0}%)", num(profile[3]), shares[3] * 100.0),
            dominant.to_string(),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Fig 10: weekday/weekend amount ratio and peak-valley ratios.
pub fn fig10(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 10 — weekday/weekend amount ratio & peak-valley ratio",
        "amount ratio ≈ 1 for resident/entertainment/comprehensive, 1.49 transport, \
         1.79 office; transport has by far the largest peak-valley ratio",
    );
    let mut t = TextTable::new(vec![
        "cluster",
        "label",
        "wd/we amount",
        "P/V weekday",
        "P/V weekend",
    ]);
    for (c, kind) in display_order(report) {
        let st = &report.time_stats[c];
        t.row(vec![
            format!("#{c}"),
            kind.label().to_string(),
            num(st.weekday_weekend_ratio),
            num(st.weekday.peak_valley_ratio),
            num(st.weekend.peak_valley_ratio),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Table 4: peak-valley features.
pub fn table4(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Table 4 — peak/valley traffic per cluster",
        "transport: smallest absolute traffic but highest P/V ratio (133 wd / 115 we); \
         resident & comprehensive: flattest (≈9-10)",
    );
    let mut t = TextTable::new(vec![
        "cluster", "label", "wd max", "wd min", "wd P/V", "we max", "we min", "we P/V",
    ]);
    for (c, kind) in display_order(report) {
        let st = &report.time_stats[c];
        t.row(vec![
            format!("#{c}"),
            kind.label().to_string(),
            num(st.weekday.max_traffic),
            num(st.weekday.min_traffic),
            num(st.weekday.peak_valley_ratio),
            num(st.weekend.max_traffic),
            num(st.weekend.min_traffic),
            num(st.weekend.peak_valley_ratio),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Table 5: times of peak and valley.
pub fn table5(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Table 5 — time of traffic peak and valley",
        "valley always 4:00-5:00; resident peak 21:30; transport 8:00 & 18:00 (weekday); \
         office 10:30 wd / 12:00 we; entertainment 18:00 wd / 12:30 we",
    );
    let mut t = TextTable::new(vec![
        "cluster",
        "label",
        "wd peak",
        "we peak",
        "wd valley",
        "we valley",
    ]);
    for (c, kind) in display_order(report) {
        let st = &report.time_stats[c];
        t.row(vec![
            format!("#{c}"),
            kind.label().to_string(),
            hhmm(st.weekday.peak_time),
            hhmm(st.weekend.peak_time),
            hhmm(st.weekday.valley_time),
            hhmm(st.weekend.valley_time),
        ]);
    }
    out.push_str(&t.render());
    // Transport's double peaks.
    if let Some(c) = report.cluster_of(RegionKind::Transport) {
        if let Some((m, e)) = double_peaks(&report.time_stats[c].weekday_profile, &report.window) {
            out.push_str(&format!(
                "transport weekday double peaks: {} and {}\n",
                hhmm(m),
                hhmm(e)
            ));
        }
    }
    Ok(out)
}

/// Fig 11: interrelationships between the patterns.
pub fn fig11(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 11 — interrelationships between patterns",
        "resident peak ≈ 3 h after transport's evening peak; office peak lies between \
         transport's two peaks; comprehensive ≈ average of all towers",
    );
    let get = |kind: RegionKind| -> Option<usize> { report.cluster_of(kind) };
    if let (Some(r), Some(t_), Some(o)) = (
        get(RegionKind::Resident),
        get(RegionKind::Transport),
        get(RegionKind::Office),
    ) {
        let transport_wd = &report.time_stats[t_].weekday_profile;
        if let Some((morning, evening)) = double_peaks(transport_wd, &report.window) {
            let res_peak = report.time_stats[r].weekday.peak_time;
            let off_peak = report.time_stats[o].weekday.peak_time;
            out.push_str(&format!(
                "transport peaks {} / {}; resident peak {} (lag after evening rush: {} h); \
                 office peak {} ({})\n",
                hhmm(morning),
                hhmm(evening),
                hhmm(res_peak),
                num(lag_hours(evening, res_peak)),
                hhmm(off_peak),
                if lag_hours(morning, off_peak) > 0.0 && lag_hours(off_peak, evening) > 0.0 {
                    "between the two rushes"
                } else {
                    "NOT between the rushes"
                }
            ));
        }
    }
    if let Some(comp) = get(RegionKind::Comprehensive) {
        let total = report.total_series();
        let r = profile_correlation(&report.cluster_series[comp], &total).unwrap_or(0.0);
        out.push_str(&format!(
            "correlation(comprehensive aggregate, all-tower aggregate) = {}\n",
            num(r)
        ));
    }
    Ok(out)
}

/// Fig 12: DFT of the aggregate traffic + sparse reconstruction.
pub fn fig12(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 12 — DFT of aggregate traffic and 3-component reconstruction",
        "spectral lines exactly at k = weeks (4), 7·weeks (28), 14·weeks (56); \
         reconstruction from those + DC loses < 6% energy",
    );
    let total = report.total_series();
    let summary = reconstruct_principal(&total, &report.window)?;
    let spectrum = Spectrum::of(&total)?;
    let mut t = TextTable::new(vec!["k", "interpretation", "|X[k]|"]);
    let [kw, kd, kh] = summary.bins;
    for (k, what) in [(kw, "one week"), (kd, "one day"), (kh, "half a day")] {
        t.row(vec![
            k.to_string(),
            what.to_string(),
            num(spectrum.amplitude(k)?),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "dominant bins found: {:?} (expected {:?})\n",
        summary.dominant, summary.bins
    ));
    out.push_str(&format!(
        "lost energy fraction: {:.3}% (paper: < 6%)\n",
        summary.lost_energy * 100.0
    ));
    out.push_str("original      ");
    out.push_str(&strip(&total[..BINS_PER_DAY * 7], 72));
    out.push_str("\nreconstructed ");
    out.push_str(&strip(&summary.reconstructed[..BINS_PER_DAY * 7], 72));
    out.push('\n');
    Ok(out)
}

/// Fig 13: variance of DFT amplitude across towers.
pub fn fig13(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 13 — variance of frequency components across towers",
        "the three principal components carry the largest cross-tower variance",
    );
    let var = amplitude_variance(&report.vectors)?;
    let [kw, kd, kh] = principal_bins(&report.window)?;
    let half = var.len() / 2;
    let mut idx: Vec<usize> = (1..=half).collect();
    idx.sort_by(|&a, &b| {
        var[b]
            .partial_cmp(&var[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut t = TextTable::new(vec!["rank", "k", "variance", "principal?"]);
    for (rank, &k) in idx.iter().take(8).enumerate() {
        let mark = if k == kw {
            "week"
        } else if k == kd {
            "day"
        } else if k == kh {
            "half-day"
        } else {
            ""
        };
        t.row(vec![
            format!("{}", rank + 1),
            k.to_string(),
            num(var[k]),
            mark.to_string(),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Fig 14: per-pattern reconstruction from the three components.
pub fn fig14(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 14 — reconstructed aggregate traffic of the four primary patterns",
        "reconstruction tracks the original closely for every pattern; spectra differ \
         most at the three principal components",
    );
    let mut t = TextTable::new(vec!["cluster", "label", "lost energy %", "dominant bins"]);
    for (c, kind) in display_order(report) {
        if kind == RegionKind::Comprehensive {
            continue;
        }
        let summary = reconstruct_principal(&report.cluster_series[c], &report.window)?;
        t.row(vec![
            format!("#{c}"),
            kind.label().to_string(),
            format!("{:.2}", summary.lost_energy * 100.0),
            format!("{:?}", summary.dominant),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Fig 15: amplitude/phase scatter of the three components.
pub fn fig15(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 15 — amplitude-phase distribution per cluster",
        "k=week: office strongest, phase ~π from resident/entertainment; k=day: phase \
         transitions resident → comprehensive/transport → office; k=half-day: transport \
         has the largest amplitude",
    );
    type FeatureGetter = fn(&towerlens_core::freq::TowerFeatures) -> (f64, f64);
    let comps: [(&str, FeatureGetter); 3] = [
        ("one week", |f| (f.amp_week, f.phase_week)),
        ("one day", |f| (f.amp_day, f.phase_day)),
        ("half a day", |f| (f.amp_half, f.phase_half)),
    ];
    for (name, get) in comps {
        out.push_str(&format!("component: {name}\n"));
        let mut t = TextTable::new(vec![
            "cluster",
            "label",
            "amp p10",
            "amp p90",
            "phase p10",
            "phase p90",
        ]);
        for (c, kind) in display_order(report) {
            let members: Vec<(f64, f64)> = report
                .features
                .iter()
                .zip(&report.patterns.clustering.labels)
                .filter(|(_, &l)| l == c)
                .map(|(f, _)| get(f))
                .collect();
            let amps: Vec<f64> = members.iter().map(|m| m.0).collect();
            let phases: Vec<f64> = members.iter().map(|m| m.1).collect();
            let ea = Ecdf::new(&amps);
            let ep = Ecdf::new(&phases);
            t.row(vec![
                format!("#{c}"),
                kind.label().to_string(),
                num(ea.inverse(0.1).unwrap_or(0.0)),
                num(ea.inverse(0.9).unwrap_or(0.0)),
                num(ep.inverse(0.1).unwrap_or(0.0)),
                num(ep.inverse(0.9).unwrap_or(0.0)),
            ]);
        }
        out.push_str(&t.render());
    }
    Ok(out)
}

/// Fig 16: means and standard deviations of amplitude & phase.
pub fn fig16(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 16 — mean ± std of amplitude and phase per cluster",
        "office: max weekly amplitude; daily phases increase along resident → transport \
         → office; transport: max half-day amplitude",
    );
    for (ci, name) in [(0usize, "one week"), (1, "one day"), (2, "half a day")] {
        out.push_str(&format!("component: {name}\n"));
        let mut t = TextTable::new(vec![
            "cluster",
            "label",
            "amp mean",
            "amp std",
            "phase mean",
            "phase std",
        ]);
        for (c, kind) in display_order(report) {
            let s = report.feature_stats[c][ci];
            t.row(vec![
                format!("#{c}"),
                kind.label().to_string(),
                num(s.amp_mean),
                num(s.amp_std),
                s.phase_mean.map(num).unwrap_or_else(|| "-".into()),
                s.phase_std.map(num).unwrap_or_else(|| "-".into()),
            ]);
        }
        out.push_str(&t.render());
    }
    Ok(out)
}

/// Fig 17: the feature polygon spanned by the four representative
/// towers.
pub fn fig17(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Fig 17 — towers live in the polygon of the four representative towers",
        "every tower's (A_day, P_day, A_half) feature is (approximately) inside the \
         polytope spanned by the four most representative towers",
    );
    let Some(reps) = report.representatives else {
        out.push_str("representatives unavailable (not all four pure patterns found)\n");
        return Ok(out);
    };
    let mut t = TextTable::new(vec!["pattern", "vector idx", "A_day", "P_day", "A_half"]);
    for (i, kind) in RegionKind::PURE.iter().enumerate() {
        let f = report.features[reps[i]].f3();
        t.row(vec![
            kind.label().to_string(),
            reps[i].to_string(),
            num(f[0]),
            num(f[1]),
            num(f[2]),
        ]);
    }
    out.push_str(&t.render());
    // Coverage: decompose a sample of all towers and look at residuals.
    let rep_features = [
        report.features[reps[0]],
        report.features[reps[1]],
        report.features[reps[2]],
        report.features[reps[3]],
    ];
    let decomposer = Decomposer::new(&rep_features, &report.geo.tower_poi, Solver::ActiveSet)?;
    let step = (report.features.len() / 300).max(1);
    let indices: Vec<usize> = (0..report.features.len()).step_by(step).collect();
    let rows = decomposer.decompose_all(&indices, &report.features)?;
    let residuals: Vec<f64> = rows.iter().map(|r| r.residual_sqr.sqrt()).collect();
    let ecdf = Ecdf::new(&residuals);
    // Scale reference: polygon diameter.
    let mut diam = 0.0f64;
    for i in 0..4 {
        for j in (i + 1)..4 {
            let a = rep_features[i].f3();
            let b = rep_features[j].f3();
            let d = ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt();
            diam = diam.max(d);
        }
    }
    let inside = residuals.iter().filter(|&&r| r < 0.05 * diam).count() as f64
        / residuals.len().max(1) as f64;
    out.push_str(&format!(
        "distance-to-polygon over {} sampled towers (polygon diameter {}):\n\
         p50 {}, p90 {}, p99 {}; {:.1}% within 5% of the diameter\n",
        residuals.len(),
        num(diam),
        num(ecdf.inverse(0.5).unwrap_or(0.0)),
        num(ecdf.inverse(0.9).unwrap_or(0.0)),
        num(ecdf.inverse(0.99).unwrap_or(0.0)),
        inside * 100.0
    ));
    Ok(out)
}

/// Table 6 (+ Figs 18/19): convex coefficients vs NTF-IDF.
pub fn table6(report: &StudyReport) -> Result<String, CoreError> {
    let mut out = header(
        "Table 6 / Figs 18-19 — convex decomposition vs POI NTF-IDF",
        "representatives decompose to a unit coefficient on themselves; comprehensive \
         towers get genuine mixtures whose small coefficients match small NTF-IDF entries",
    );
    if report.decompositions.is_empty() {
        out.push_str("decompositions unavailable (not all four pure patterns found)\n");
        return Ok(out);
    }
    let mut t = TextTable::new(vec![
        "tower", "c1", "c2", "c3", "c4", "ntf1", "ntf2", "ntf3", "ntf4", "residual",
    ]);
    for (i, row) in report.decompositions.iter().enumerate() {
        let name = if i < 4 {
            format!("F{}", i + 1)
        } else {
            format!("P{}", i - 3)
        };
        t.row(vec![
            name,
            format!("{:.2}", row.coefficients[0]),
            format!("{:.2}", row.coefficients[1]),
            format!("{:.2}", row.coefficients[2]),
            format!("{:.2}", row.coefficients[3]),
            format!("{:.2}", row.ntf_idf[0]),
            format!("{:.2}", row.ntf_idf[1]),
            format!("{:.2}", row.ntf_idf[2]),
            format!("{:.2}", row.ntf_idf[3]),
            num(row.residual_sqr),
        ]);
    }
    out.push_str(&t.render());
    // F-row sanity: coefficient ≈ 1 on self.
    let mut self_ok = 0;
    for (i, row) in report.decompositions.iter().take(4).enumerate() {
        if row.coefficients[i] > 0.95 {
            self_ok += 1;
        }
    }
    out.push_str(&format!(
        "representative self-coefficients > 0.95: {self_ok}/4\n"
    ));
    out.push_str(&format!(
        "min-rank consistency (small NTF-IDF ↔ small coefficient) over P rows: {:.1}%\n",
        min_rank_consistency(&report.decompositions[4.min(report.decompositions.len())..]) * 100.0
    ));
    // Fig 19: time-domain combination of the first comprehensive tower.
    if report.decompositions.len() > 4 {
        let p1 = &report.decompositions[4];
        if let Some(reps) = report.representatives {
            let rep_vectors: [&[f64]; 4] = [
                &report.vectors[reps[0]],
                &report.vectors[reps[1]],
                &report.vectors[reps[2]],
                &report.vectors[reps[3]],
            ];
            let combo = time_domain_combination(&p1.coefficients, &rep_vectors);
            let actual = &report.vectors[p1.vector_index];
            let r = profile_correlation(&combo, actual).unwrap_or(0.0);
            out.push_str(&format!(
                "Fig 19: corr(time-domain convex combination, actual tower P1) = {}\n",
                num(r)
            ));
            out.push_str(&format!(
                "  actual   {}\n",
                strip(&actual[..BINS_PER_DAY * 7], 72)
            ));
            out.push_str(&format!(
                "  combined {}\n",
                strip(&combo[..BINS_PER_DAY * 7], 72)
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_study, Scale};

    /// One shared tiny study for all experiment smoke tests.
    fn report() -> &'static StudyReport {
        use std::sync::OnceLock;
        static REPORT: OnceLock<StudyReport> = OnceLock::new();
        REPORT.get_or_init(|| run_study(Scale::Tiny, 11).expect("tiny study"))
    }

    #[test]
    fn all_experiments_render() {
        let r = report();
        for id in ALL_EXPERIMENTS {
            let text = run(id, r).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(text.contains("Paper:"), "{id} missing claim header");
            assert!(text.len() > 80, "{id} suspiciously short: {text}");
        }
    }

    #[test]
    fn unknown_experiment_errors() {
        assert!(run("fig99", report()).is_err());
    }

    #[test]
    fn table1_shares_sum_to_100() {
        let text = table1(report()).unwrap();
        let total: f64 = text
            .lines()
            .filter(|l| !l.starts_with("Paper:"))
            .filter_map(|l| l.split_whitespace().last())
            .filter(|s| s.ends_with('%'))
            .filter_map(|s| s.trim_end_matches('%').parse::<f64>().ok())
            .sum();
        assert!((total - 100.0).abs() < 0.5, "total {total}: {text}");
    }

    #[test]
    fn fig12_reports_energy() {
        let text = fig12(report()).unwrap();
        assert!(text.contains("lost energy fraction"));
    }
}
