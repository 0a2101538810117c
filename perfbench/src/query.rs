//! The `query-reload` workload.
//!
//! Before timing: two paper-scale snapshots (seeds S and S+1) are built
//! by child processes, so the measured process never holds the studies'
//! gigabyte of traffic matrices (its heap and resident peak describe the
//! query server alone), and the request stream and screening day files
//! are generated.
//! Set-up is `read_snapshot` followed by `QueryIndex::new`. Then one
//! closed-loop client sends batches of [`BATCH`] request lines through
//! `run_batch_with` with `nproc` threads; every [`RELOAD_EVERY`]
//! batches it switches to the other snapshot with `Publisher::publish`
//! followed by `Watcher::reload`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use towerlens_artifact::{
    generation_name, list_generations, read_snapshot, render_topk, run_batch_with, Publisher,
    QueryIndex, QueryPolicy, Snapshot, Watcher,
};
use towerlens_cluster::source::top_k_nearest;

use crate::report::{LayerRow, Outcome};
use crate::spans::Tracer;
use crate::stats::{fnv1a, median, supported_tail, SplitMix, FNV_START};

/// Request lines per batch.
pub const BATCH: usize = 1024;
/// Batches between two snapshot switches: about a second of queries per
/// publish and reload, so a 15-second run holds a dozen switches while
/// the disk syncs of publishing stay a minor share of the stream.
pub const RELOAD_EVERY: usize = 256;
/// Distinct batches generated before timing; the client cycles them.
const POOL_BATCHES: usize = 128;
/// Screening day files generated before timing.
const DAY_FILES: usize = 16;
/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 5;
/// `topk` neighbour count in the request mix.
const TOPK_K: usize = 8;

/// Builds the study snapshot for `seed` and writes it to `out`, with
/// `k` and the ground-truth agreement in `out.info`. Runs in a child
/// process.
pub fn make_snapshot(seed: u64, threads: usize, out: &Path) -> Result<(), String> {
    let cfg = crate::study::config(crate::study::Preset::Paper, seed, threads);
    let feature_space = cfg.identifier.feature_space;
    let study = towerlens_core::Study::new(cfg);
    let fingerprint = study.checkpoint_fingerprint();
    let (report, _) = study.run_instrumented(None).map_err(|e| e.to_string())?;
    let snapshot = report
        .to_snapshot(fingerprint, feature_space)
        .map_err(|e| e.to_string())?;
    towerlens_artifact::write_snapshot(out, &snapshot).map_err(|e| e.to_string())?;
    let info = format!(
        "{} {}\n",
        report.patterns.k,
        report.geo.ground_truth_agreement * 100.0
    );
    std::fs::write(info_path(out), info).map_err(|e| e.to_string())
}

fn info_path(snapshot: &Path) -> PathBuf {
    let mut p = snapshot.as_os_str().to_owned();
    p.push(".info");
    PathBuf::from(p)
}

fn build_snapshot(seed: u64, out: &Path) -> Result<(usize, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .arg("make-snapshot")
        .args(["--seed", &seed.to_string()])
        .arg("--out")
        .arg(out)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("snapshot build for seed {seed} failed: {status}"));
    }
    let info = std::fs::read_to_string(info_path(out)).map_err(|e| e.to_string())?;
    let mut words = info.split_whitespace();
    let k = words.next().and_then(|w| w.parse().ok());
    let agreement = words.next().and_then(|w| w.parse().ok());
    k.zip(agreement)
        .ok_or_else(|| format!("bad snapshot info `{info}`"))
}

/// Writes [`DAY_FILES`] days of `bins` traffic values under `dir`:
/// a daily swing with seeded phase, amplitude and noise.
pub fn write_day_files(seed: u64, dir: &Path, bins: usize) -> Result<Vec<String>, String> {
    let mut rng = SplitMix::new(seed ^ 0xDA75);
    (0..DAY_FILES)
        .map(|i| {
            let phase = rng.unit();
            let amp = 0.5 + rng.unit();
            let mut text = String::new();
            for b in 0..bins {
                let t = b as f64 / bins as f64;
                let v = 1.0
                    + amp * (1.0 - (2.0 * std::f64::consts::PI * (t - phase)).cos())
                    + 0.2 * rng.unit();
                text.push_str(&format!("{:.4}\n", v * 1e6));
            }
            let path = dir.join(format!("day-{i:02}.txt"));
            std::fs::write(&path, text).map_err(|e| e.to_string())?;
            Ok(path.to_string_lossy().into_owned())
        })
        .collect()
}

/// `batches` batches of [`BATCH`] request lines. Every block of eight
/// holds exactly five `pattern`, two `topk <id> 8` and one
/// `screen <id> <day-file>`, in seeded order; tower ids are uniform
/// over `ids`.
pub fn request_stream(
    seed: u64,
    ids: &[u64],
    day_files: &[String],
    batches: usize,
) -> Vec<Vec<String>> {
    let mut rng = SplitMix::new(seed ^ 0x0E7);
    (0..batches)
        .map(|_| {
            let mut batch = Vec::with_capacity(BATCH);
            while batch.len() < BATCH {
                let mut kinds = [0u8, 0, 0, 0, 0, 1, 1, 2];
                rng.shuffle(&mut kinds);
                for kind in kinds {
                    let id = ids[rng.below(ids.len())];
                    batch.push(match kind {
                        0 => format!("pattern {id}"),
                        1 => format!("topk {id} {TOPK_K}"),
                        _ => format!("screen {id} {}", day_files[rng.below(day_files.len())]),
                    });
                }
            }
            batch
        })
        .collect()
}

/// A snapshot held for publishing, with what the brute-force `topk`
/// check needs.
struct Side {
    snapshot: Snapshot,
    features: Vec<Vec<f64>>,
    index_of: HashMap<u64, usize>,
}

impl Side {
    fn new(snapshot: Snapshot) -> Side {
        Side {
            features: snapshot.features.iter().map(|f| f.to_vec()).collect(),
            index_of: snapshot
                .tower_ids
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, i))
                .collect(),
            snapshot,
        }
    }

    /// The brute-force answer to `topk <id> <k>`.
    fn topk_answer(&self, id: u64, k: usize) -> Option<String> {
        let idx = *self.index_of.get(&id)?;
        let neighbours: Vec<(u64, f64)> = top_k_nearest(&self.features[..], idx, k)
            .into_iter()
            .map(|(j, d)| (self.snapshot.tower_ids[j], d))
            .collect();
        Some(render_topk(id, &neighbours))
    }
}

fn fail(out: &mut Outcome, message: String) -> Outcome {
    out.failed += 1;
    out.attempted = out.attempted.max(1);
    out.problem(message);
    std::mem::take(out)
}

pub fn run(seed: u64, seconds: u64, threads: usize, traced: bool, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    out.provenance("threads", threads);
    out.provenance("batch", BATCH);
    out.provenance("reload_every", RELOAD_EVERY);

    // ---- inputs, before timing
    let paths = [dir.join("snap-a.artifact"), dir.join("snap-b.artifact")];
    let mut infos = Vec::new();
    for (i, path) in paths.iter().enumerate() {
        match build_snapshot(seed + i as u64, path) {
            Ok(info) => infos.push(info),
            Err(e) => return fail(&mut out, e),
        }
    }
    let sides = match (read_snapshot(&paths[0]), read_snapshot(&paths[1])) {
        (Ok(a), Ok(b)) => [Side::new(a), Side::new(b)],
        (Err(e), _) | (_, Err(e)) => return fail(&mut out, format!("read snapshot: {e}")),
    };
    let ids: Vec<u64> = sides[0]
        .snapshot
        .tower_ids
        .iter()
        .copied()
        .filter(|id| sides[1].index_of.contains_key(id))
        .collect();
    let bins = sides[0].snapshot.profile.bins_per_day;
    let day_files = match write_day_files(seed, dir, bins) {
        Ok(files) => files,
        Err(e) => return fail(&mut out, e),
    };
    let pool = request_stream(seed, &ids, &day_files, POOL_BATCHES);
    let mut hash = FNV_START;
    for path in &paths {
        hash = fnv1a(hash, &std::fs::read(path).unwrap_or_default());
    }
    for line in pool.iter().flatten() {
        hash = fnv1a(hash, line.as_bytes());
    }
    out.provenance("towers", sides[0].snapshot.n_towers());
    out.provenance("snapshot_seeds", format!("{} {}", seed, seed + 1));
    out.provenance("input_hash", format!("{hash:016x}"));

    let mut tracer = traced.then(Tracer::new);
    crate::sys::reset_peak_heap();

    // ---- set-up: read_snapshot + QueryIndex::new
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let snapshot = match &mut tracer {
            Some(t) => t.span("artifact.read", || read_snapshot(&paths[0])),
            None => read_snapshot(&paths[0]),
        };
        let Ok(snapshot) = snapshot else {
            return fail(&mut out, "set-up read_snapshot failed".to_string());
        };
        let index = match &mut tracer {
            Some(t) => t.span("artifact.index_build", || QueryIndex::new(snapshot)),
            None => QueryIndex::new(snapshot),
        };
        setup.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(&index);
    }

    // ---- the generation store starts at snapshot A
    let store = dir.join("store");
    let mut publisher = match Publisher::open(&store, None) {
        Ok(p) => p,
        Err(e) => return fail(&mut out, format!("open store: {e}")),
    };
    if let Err(e) = publisher.publish(&sides[0].snapshot) {
        return fail(&mut out, format!("first publish: {e}"));
    }
    let mut watcher = match Watcher::open(&store) {
        Ok(w) => w,
        Err(e) => return fail(&mut out, format!("open watcher: {e}")),
    };
    let policy = QueryPolicy {
        threads,
        ..QueryPolicy::default()
    };

    // ---- closed loop
    let mut batch_s: Vec<f64> = Vec::new();
    let mut reload_s: Vec<f64> = Vec::new();
    let mut publish_ms: Vec<f64> = Vec::new();
    let mut watch_ms: Vec<f64> = Vec::new();
    let mut snapshot_bytes = 0u64;
    let mut live = 0usize;
    let mut requests = 0u64;
    let mut topk_answered = 0u64;
    let mut allocs = 0u64;
    let mut check_rng = SplitMix::new(seed ^ 0xC4EC);
    let pruned_before = towerlens_obs::global()
        .snapshot()
        .counter("query.topk_pruned_total");
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut i = 0usize;
    while i < 2 * RELOAD_EVERY || Instant::now() < deadline {
        let batch = &pool[i % POOL_BATCHES];
        let (answers, tally) = match &mut tracer {
            Some(t) => {
                t.next_run();
                crate::sys::count_allocations(true);
                let a0 = crate::sys::allocations();
                let t0 = Instant::now();
                let r = t.span("query.batch", || {
                    run_batch_with(watcher.index(), batch, &policy)
                });
                batch_s.push(t0.elapsed().as_secs_f64());
                allocs += crate::sys::allocations() - a0;
                crate::sys::count_allocations(false);
                r
            }
            None => {
                let t0 = Instant::now();
                let r = run_batch_with(watcher.index(), batch, &policy);
                batch_s.push(t0.elapsed().as_secs_f64());
                r
            }
        };
        out.attempted += batch.len() as u64;
        requests += batch.len() as u64;
        topk_answered += tally.topk;
        let errors = answers.iter().filter(|a| a.starts_with("error:")).count() as u64;
        if errors > 0 {
            out.failed += errors;
            out.problem(format!("batch {i}: {errors} error lines"));
        }
        // One seeded topk request per batch against brute force.
        let topks: Vec<usize> = (0..batch.len())
            .filter(|&j| batch[j].starts_with("topk "))
            .collect();
        if !topks.is_empty() {
            let j = topks[check_rng.below(topks.len())];
            let id: u64 = batch[j]
                .split_whitespace()
                .nth(1)
                .and_then(|w| w.parse().ok())
                .unwrap_or(u64::MAX);
            let expected = sides[live].topk_answer(id, TOPK_K);
            out.check(expected.as_deref() == Some(answers[j].as_str()), || {
                format!(
                    "topk {id}: index answered `{}`, brute force `{expected:?}`",
                    answers[j]
                )
            });
        }
        i += 1;
        if i.is_multiple_of(RELOAD_EVERY) {
            let next = 1 - live;
            out.attempted += 1;
            let t0 = Instant::now();
            let published = match &mut tracer {
                Some(t) => t.span("artifact.publish", || {
                    publisher.publish(&sides[next].snapshot)
                }),
                None => publisher.publish(&sides[next].snapshot),
            };
            let t1 = Instant::now();
            let message = match &mut tracer {
                Some(t) => t.span("artifact.watch_reload", || watcher.reload()),
                None => watcher.reload(),
            };
            let t2 = Instant::now();
            match published {
                Ok(generation) => {
                    let expected =
                        format!("reload gen={generation} ok (was gen={})", generation - 1);
                    if message == expected {
                        reload_s.push((t2 - t0).as_secs_f64());
                        publish_ms.push((t1 - t0).as_secs_f64() * 1e3);
                        watch_ms.push((t2 - t1).as_secs_f64() * 1e3);
                        live = next;
                    } else {
                        out.failed += 1;
                        out.problem(format!("reload said `{message}`, expected `{expected}`"));
                        break;
                    }
                    snapshot_bytes = std::fs::metadata(store.join(generation_name(generation)))
                        .map_or(0, |m| m.len());
                    prune_generations(&store, generation);
                }
                Err(e) => {
                    out.failed += 1;
                    out.problem(format!("publish failed: {e}"));
                    break;
                }
            }
        }
    }
    let pruned = towerlens_obs::global()
        .snapshot()
        .counter("query.topk_pruned_total")
        - pruned_before;

    let busy: f64 = batch_s.iter().sum::<f64>() + reload_s.iter().sum::<f64>();
    let rps = requests as f64 / busy.max(f64::MIN_POSITIVE);
    let batches = batch_s.len();
    let batch_ms: Vec<f64> = batch_s.iter().map(|s| s * 1e3).collect();
    let reload_ms: Vec<f64> = reload_s.iter().map(|s| s * 1e3).collect();
    if let Some(t) = &tracer {
        let ms = |name: &str| median(&t.self_ms(name));
        let n = |name: &str| t.self_ms(name).len();
        out.metric("k_error", infos[0].0.abs_diff(5) as f64, 1);
        out.metric("agreement_pct", infos[0].1, 1);
        out.metric("artifact.read_ms", ms("artifact.read"), n("artifact.read"));
        out.metric(
            "artifact.index_build_ms",
            ms("artifact.index_build"),
            n("artifact.index_build"),
        );
        out.metric(
            "artifact.publish_ms",
            ms("artifact.publish"),
            n("artifact.publish"),
        );
        out.metric(
            "artifact.snapshot_bytes",
            snapshot_bytes as f64,
            reload_ms.len(),
        );
        out.metric(
            "artifact.watch_reload_ms",
            ms("artifact.watch_reload"),
            n("artifact.watch_reload"),
        );
        out.metric("query.batch_ms", ms("query.batch"), batches);
        out.metric(
            "query.allocs_per_request",
            allocs as f64 / requests.max(1) as f64,
            batches,
        );
        out.metric(
            "query.topk_pruned_per_topk",
            pruned as f64 / topk_answered.max(1) as f64,
            batches,
        );
        let row = |span: &'static str, work: u64, unit: &'static str| LayerRow {
            span,
            calls: t.self_ms(span).len(),
            total_ms: t.self_ms(span).iter().sum(),
            self_ms: t.self_ms(span).iter().sum(),
            work,
            work_unit: unit,
        };
        out.layers = vec![
            row("artifact.read", snapshot_bytes * SETUP_REPS as u64, "bytes"),
            row(
                "artifact.index_build",
                (sides[0].snapshot.n_towers() * SETUP_REPS) as u64,
                "towers",
            ),
            row("query.batch", requests, "requests"),
            row(
                "artifact.publish",
                snapshot_bytes * publish_ms.len() as u64,
                "bytes",
            ),
            row(
                "artifact.watch_reload",
                snapshot_bytes * watch_ms.len() as u64,
                "bytes",
            ),
        ];
    } else {
        out.metric("op_p50_ms", median(&batch_ms), batches);
        out.metric("throughput_per_s", rps, batches);
        out.metric("setup_s", median(&setup), SETUP_REPS);
        out.detail("query_rps", rps, "1/s", batches);
        out.detail("batch_p50_ms", median(&batch_ms), "ms", batches);
        if let Some((p, v)) = supported_tail(&batch_ms) {
            out.detail(&format!("batch_p{p}_ms"), v, "ms", batches);
        }
        out.detail("reload_ms", median(&reload_ms), "ms", reload_ms.len());
        out.detail("publish_ms", median(&publish_ms), "ms", publish_ms.len());
        out.detail("watch_reload_ms", median(&watch_ms), "ms", watch_ms.len());
        out.detail(
            "failed_ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
            out.attempted as usize,
        );
    }
    out.detail("snapshot_k", infos[0].0 as f64, "count", 1);
    out.detail("snapshot_agreement_pct", infos[0].1, "%", 1);
    drop(watcher);
    if let Some(t) = tracer {
        out.spans = Some(t);
    }
    out
}

/// Removes every generation older than the one before `current`, so the
/// store holds two snapshots however long the run.
fn prune_generations(store: &Path, current: u64) {
    if let Ok(generations) = list_generations(store) {
        for g in generations.into_iter().filter(|&g| g + 1 < current) {
            let _ = std::fs::remove_file(store.join(generation_name(g)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> Vec<String> {
        (0..DAY_FILES)
            .map(|i| format!("d/day-{i:02}.txt"))
            .collect()
    }

    #[test]
    fn request_stream_is_deterministic_per_seed() {
        let ids: Vec<u64> = (100..400).collect();
        let a = request_stream(7, &ids, &files(), 3);
        let b = request_stream(7, &ids, &files(), 3);
        let c = request_stream(8, &ids, &files(), 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|batch| batch.len() == BATCH));
    }

    #[test]
    fn request_stream_has_the_stated_mix_in_every_block_of_eight() {
        let ids: Vec<u64> = (0..50).collect();
        let stream = request_stream(3, &ids, &files(), 2);
        for batch in &stream {
            for block in batch.chunks(8) {
                let count = |verb: &str| block.iter().filter(|l| l.starts_with(verb)).count();
                assert_eq!(
                    (count("pattern "), count("topk "), count("screen ")),
                    (5, 2, 1)
                );
            }
            for line in batch {
                let id: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
                assert!(ids.contains(&id));
                if line.starts_with("topk ") {
                    assert!(line.ends_with(" 8"));
                }
                assert!(towerlens_artifact::query::parse_request(line).is_ok());
            }
        }
        // Uniform ids: every id of a small set shows up.
        let seen: std::collections::BTreeSet<&str> = stream
            .iter()
            .flatten()
            .map(|l| l.split_whitespace().nth(1).unwrap())
            .collect();
        assert_eq!(seen.len(), ids.len());
    }

    #[test]
    fn day_files_are_deterministic_and_not_flat() {
        let base = crate::stats::test_dir("days");
        let (a, b) = (base.join("a"), base.join("b"));
        std::fs::create_dir_all(&a).unwrap();
        std::fs::create_dir_all(&b).unwrap();
        let fa = write_day_files(5, &a, 144).unwrap();
        let fb = write_day_files(5, &b, 144).unwrap();
        for (x, y) in fa.iter().zip(&fb) {
            let (x, y) = (std::fs::read(x).unwrap(), std::fs::read(y).unwrap());
            assert_eq!(x, y);
        }
        let day = towerlens_artifact::query::read_day_file(Path::new(&fa[0])).unwrap();
        assert_eq!(day.len(), 144);
        assert!(day.iter().any(|&v| v != day[0]));
        std::fs::remove_dir_all(&base).unwrap();
    }
}
