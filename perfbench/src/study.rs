//! The `study-paper` and `study-medium-raw` workloads.
//!
//! Both passes run `Study::run_instrumented` in a closed loop, one study
//! after another, on the CLI's presets (`study --scale paper` and
//! `study --scale medium --feature-space raw`). The first study of a run
//! warms caches and the allocator and is not timed.
//!
//! The traced pass makes the same call. Its spans come from the engine's
//! own stage reports: one `study` span around the call with one child per
//! stage, each stage being one public layer call (see [`STAGE_SPANS`]).
//! Wave 4 (label, timedomain, frequency) runs concurrently, so the study
//! span's self time is its duration minus the union of its children.

use std::hint::black_box;
use std::time::{Duration, Instant};

use towerlens_city::zone::RegionKind;
use towerlens_core::engine::StageReport;
use towerlens_core::{Study, StudyConfig};
use towerlens_pipeline::FeatureSpace;

use crate::report::{LayerRow, Outcome};
use crate::spans::Tracer;
use crate::stats::{median, per_call_s_per_core};

/// Untimed warm-up studies at the start of every run.
const WARMUP: usize = 1;

/// Timed studies per run at least, whatever `--seconds` says.
const MIN_STUDIES: usize = 3;

/// Set-up is timed in this many groups of [`SETUP_BATCH`] builds on each
/// CPU.
const SETUP_SAMPLES: usize = 101;
const SETUP_BATCH: usize = 200;

/// The paper's pattern count.
const PAPER_K: usize = 5;

/// The span each engine stage is reported under: its layer and the
/// public call the stage makes.
pub const STAGE_SPANS: [(&str, &str); 8] = [
    ("city", "city.generate"),
    ("synthesize", "mobility.synthesize"),
    ("vectorize", "pipeline.normalize"),
    ("cluster", "cluster.identify"),
    ("label", "core.label"),
    ("timedomain", "core.timedomain"),
    ("frequency", "core.frequency"),
    ("decompose", "core.decompose"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    Paper,
    MediumRaw,
}

/// The configuration the CLI builds for this preset: `study --scale
/// paper` (default feature space) or `study --scale medium
/// --feature-space raw`, with `--threads threads`.
pub fn config(preset: Preset, seed: u64, threads: usize) -> StudyConfig {
    match preset {
        Preset::Paper => {
            let mut c = StudyConfig::paper_scale(seed).with_threads(threads);
            c.identifier.feature_space = FeatureSpace::Auto;
            c
        }
        Preset::MediumRaw => {
            let mut c = StudyConfig::medium(seed).with_threads(threads);
            c.identifier.feature_space = FeatureSpace::Raw;
            c
        }
    }
}

/// The result fields every repeated study must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    towers: usize,
    k: usize,
    labels: Vec<usize>,
    kinds: Vec<RegionKind>,
    agreement_bits: u64,
    decompose_rows: usize,
}

impl Answer {
    fn agreement_pct(&self) -> f64 {
        f64::from_bits(self.agreement_bits) * 100.0
    }
}

/// Set-up: building the study the CLI would run, with its checkpoint
/// fingerprint. Seconds per build, with the number of groups timed.
fn setup_time(preset: Preset, seed: u64, threads: usize) -> (f64, usize) {
    per_call_s_per_core(SETUP_SAMPLES, SETUP_BATCH, |_| {
        let study = Study::new(config(preset, seed, threads));
        black_box(study.checkpoint_fingerprint());
        black_box(&study);
        Ok(())
    })
    .expect("building a study cannot fail")
}

/// Registry counters read right after one traced study.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    kernel_evals: u64,
    goertzel_evals: u64,
}

impl Counts {
    fn read() -> Counts {
        let snapshot = towerlens_obs::global().snapshot();
        Counts {
            kernel_evals: snapshot.counter("cluster.distance.evaluations")
                + snapshot.counter("cluster.distance.on_demand_evaluations")
                + snapshot.counter("cluster.index.leaf_evaluations"),
            goertzel_evals: snapshot.counter("dsp.goertzel.evaluations"),
        }
    }
}

/// One study: its answer, the engine's stage reports and the wall time
/// of the `run_instrumented` call, which started at `started`.
struct Ran {
    answer: Answer,
    stages: Vec<StageReport>,
    started: Instant,
    wall: Duration,
}

impl Ran {
    fn stage_wall(&self, name: &str) -> Duration {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map_or(Duration::ZERO, |s| s.wall)
    }

    /// Wall time of wave 4 (label, timedomain and frequency, run
    /// concurrently): first start to last end.
    fn wave4(&self) -> Duration {
        let wave4 = self.stages.iter().filter(|s| s.wave == 4);
        let start = wave4.clone().map(|s| s.start).min().unwrap_or_default();
        let end = wave4.map(|s| s.start + s.wall).max().unwrap_or_default();
        end.saturating_sub(start)
    }
}

/// One study through the engine; `Err` carries the failure message.
fn run_study(cfg: &StudyConfig) -> Result<Ran, String> {
    let study = Study::new(cfg.clone());
    let started = Instant::now();
    let (report, run) = study.run_instrumented(None).map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    let not_ran: Vec<String> = run
        .stages
        .iter()
        .filter(|s| s.status.label() != "ran")
        .map(|s| format!("{}={}", s.name, s.status.label()))
        .collect();
    if !not_ran.is_empty() {
        return Err(format!("stages did not run: {}", not_ran.join(", ")));
    }
    let answer = Answer {
        towers: report.city.towers().len(),
        k: report.patterns.k,
        labels: report.patterns.clustering.labels.clone(),
        kinds: report.geo.labels.clone(),
        agreement_bits: report.geo.ground_truth_agreement.to_bits(),
        decompose_rows: report.decompositions.len(),
    };
    Ok(Ran {
        answer,
        stages: run.stages,
        started,
        wall,
    })
}

/// Records `ran` as a `study` span with one child per stage, under the
/// tracer's current run id.
fn record_spans(tracer: &mut Tracer, ran: &Ran) -> Result<(), String> {
    let root = tracer.record("study", None, ran.started, ran.started + ran.wall);
    for stage in &ran.stages {
        let name = STAGE_SPANS
            .iter()
            .find(|(s, _)| *s == stage.name)
            .map(|(_, span)| *span)
            .ok_or_else(|| format!("engine stage `{}` has no span name", stage.name))?;
        let start = ran.started + stage.start;
        tracer.record(name, Some(root), start, start + stage.wall);
    }
    Ok(())
}

/// One timed study and what the traced pass adds to it.
struct Sample {
    ran: Ran,
    counts: Counts,
    /// Time the traced pass spends on its own bookkeeping around the
    /// study: resetting the registry, recording spans, reading counters.
    overhead: Duration,
}

pub fn run(preset: Preset, seed: u64, seconds: u64, threads: usize, traced: bool) -> Outcome {
    let cfg = config(preset, seed, threads);
    let mut out = Outcome::default();
    let study = Study::new(cfg.clone());
    out.provenance("threads", threads);
    out.provenance("towers", cfg.city.n_towers);
    out.provenance("bins", cfg.window.n_bins);
    out.provenance(
        "feature_space",
        format!("{:?}", cfg.identifier.feature_space),
    );
    out.provenance(
        "input_hash",
        format!("{:016x}", study.checkpoint_fingerprint()),
    );

    // Set-up is sampled before the first study: after one, its
    // microseconds depend on the state a freed gigabyte leaves in the
    // allocator and caches.
    let setup = setup_time(preset, seed, threads);
    crate::sys::reset_peak_heap();
    let mut tracer = traced.then(Tracer::new);
    let mut samples: Vec<Sample> = Vec::new();
    let mut first: Option<Answer> = None;
    let mut deadline = Instant::now() + Duration::from_secs(seconds);
    let mut studies = 0usize;
    while samples.len() < MIN_STUDIES || Instant::now() < deadline {
        out.attempted += 1;
        let t_reset = Instant::now();
        if tracer.is_some() {
            towerlens_obs::global().reset();
        }
        let reset = t_reset.elapsed();
        let ran = match run_study(&cfg) {
            Ok(ran) => ran,
            Err(e) => {
                out.failed += 1;
                out.problem(format!("study failed: {e}"));
                break;
            }
        };
        let t_trace = Instant::now();
        let mut counts = Counts::default();
        if let Some(t) = &mut tracer {
            t.next_run();
            if let Err(e) = record_spans(t, &ran) {
                out.problem(e);
            }
            counts = Counts::read();
        }
        let overhead = reset + t_trace.elapsed();

        out.check(ran.answer.towers == cfg.city.n_towers, || {
            format!(
                "city has {} towers, the preset has {}",
                ran.answer.towers, cfg.city.n_towers
            )
        });
        match &first {
            Some(a) => out.check(ran.answer == *a, || {
                "a repeated study changed k, labels or agreement".to_string()
            }),
            None => first = Some(ran.answer.clone()),
        }
        studies += 1;
        if studies <= WARMUP {
            deadline = Instant::now() + Duration::from_secs(seconds);
            continue;
        }
        samples.push(Sample {
            ran,
            counts,
            overhead,
        });
    }
    let Some(answer) = first else {
        return out;
    };
    match tracer {
        None => untraced_metrics(preset, &cfg, &samples, setup, &answer, &mut out),
        Some(t) => traced_metrics(&cfg, &samples, &answer, t, &mut out),
    }
    out
}

fn secs(samples: &[Sample], f: impl Fn(&Ran) -> Duration) -> Vec<f64> {
    samples.iter().map(|s| f(&s.ran).as_secs_f64()).collect()
}

fn untraced_metrics(
    preset: Preset,
    cfg: &StudyConfig,
    samples: &[Sample],
    setup: (f64, usize),
    answer: &Answer,
    out: &mut Outcome,
) {
    let study_s = secs(samples, |r| r.wall);
    // The timed operation. At paper scale whether `decompose` runs at
    // all depends on the seed's outcome (all four pure patterns
    // labelled), which would make the figure bimodal across seeds, so
    // there it is timed separately; on the raw medium path it always
    // runs and is part of the operation.
    let op_s = match preset {
        Preset::Paper => secs(samples, |r| r.wall.saturating_sub(r.stage_wall("decompose"))),
        Preset::MediumRaw => study_s.clone(),
    };
    let cells = (cfg.city.n_towers * cfg.window.n_bins) as f64;
    let n = samples.len();
    let op_p50 = median(&op_s);
    out.metric("op_p50_ms", op_p50 * 1e3, n);
    out.metric(
        "throughput_per_s",
        cells / op_p50.max(f64::MIN_POSITIVE),
        n,
    );
    out.metric("setup_s", setup.0, setup.1);
    out.detail("study_s", median(&study_s), "s", n);
    out.detail(
        "op_min_ms",
        op_s.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        "ms",
        n,
    );
    out.detail(
        "op_max_ms",
        op_s.iter().copied().fold(0.0, f64::max) * 1e3,
        "ms",
        n,
    );
    out.detail(
        "decompose_s",
        median(&secs(samples, |r| r.stage_wall("decompose"))),
        "s",
        n,
    );
    out.detail("wave4_s", median(&secs(samples, Ran::wave4)), "s", n);
    out.detail("agreement_pct", answer.agreement_pct(), "%", 1);
    out.detail("k_error", answer.k.abs_diff(PAPER_K) as f64, "count", 1);
    out.detail("k", answer.k as f64, "count", 1);
    out.detail("decompose_rows", answer.decompose_rows as f64, "count", 1);
    out.detail(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted as usize,
    );
}

fn traced_metrics(
    cfg: &StudyConfig,
    samples: &[Sample],
    answer: &Answer,
    tracer: Tracer,
    out: &mut Outcome,
) {
    let Some(counts) = samples.first().map(|s| s.counts) else {
        return;
    };
    out.check(samples.iter().all(|s| s.counts.kernel_evals == counts.kernel_evals), || {
        "repeated studies counted different kernel evaluations".to_string()
    });
    let n = samples.len();
    // Only the timed studies' spans count; run ids start at 1.
    let timed = |s: &crate::spans::Span| s.run > WARMUP as u64;
    let self_ms = |name: &str| -> Vec<f64> {
        tracer
            .spans()
            .iter()
            .zip(tracer.self_times_ns())
            .filter(|(s, _)| s.name == name && timed(s))
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    };
    let total_ms = |name: &str| -> Vec<f64> {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == name && timed(s))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    };
    let ms = |name: &str| median(&self_ms(name));
    let towers = cfg.city.n_towers as f64;
    let cells = towers * cfg.window.n_bins as f64;
    let floor = towers * (towers - 1.0) / 2.0;
    let study_ms = median(&total_ms("study"));
    let overhead_ms: Vec<f64> = samples
        .iter()
        .map(|s| s.overhead.as_secs_f64() * 1e3)
        .collect();

    out.metric("agreement_pct", answer.agreement_pct(), 1);
    out.metric("k_error", answer.k.abs_diff(PAPER_K) as f64, 1);
    out.metric("city.generate_ms", ms("city.generate"), n);
    out.metric("mobility.synthesize_ms", ms("mobility.synthesize"), n);
    out.metric(
        "mobility.ns_per_cell",
        ms("mobility.synthesize") * 1e6 / cells,
        n,
    );
    out.metric("pipeline.normalize_ms", ms("pipeline.normalize"), n);
    out.metric("cluster.identify_ms", ms("cluster.identify"), n);
    out.metric("cluster.kernel_evals", counts.kernel_evals as f64, n);
    out.metric(
        "cluster.evals_over_floor",
        counts.kernel_evals as f64 / floor,
        n,
    );
    out.metric(
        "cluster.ns_per_eval",
        ms("cluster.identify") * 1e6 / counts.kernel_evals.max(1) as f64,
        n,
    );
    out.metric("core.label_ms", ms("core.label"), n);
    out.metric("core.timedomain_ms", ms("core.timedomain"), n);
    out.metric("core.frequency_ms", ms("core.frequency"), n);
    out.metric("dsp.goertzel_evals", counts.goertzel_evals as f64, n);
    out.metric("core.decompose_ms", ms("core.decompose"), n);
    out.metric("core.decompose_rows", answer.decompose_rows as f64, n);
    out.metric(
        "obs.tracing_overhead_pct",
        median(&overhead_ms) / study_ms * 100.0,
        n,
    );

    let row = |span: &'static str, work: u64, unit: &'static str| LayerRow {
        span,
        calls: self_ms(span).len(),
        total_ms: median(&total_ms(span)),
        self_ms: median(&self_ms(span)),
        work,
        work_unit: unit,
    };
    let (towers, cells) = (towers as u64, cells as u64);
    out.layers = vec![
        row("study", 0, "-"),
        row("city.generate", towers, "towers"),
        row("mobility.synthesize", cells, "cells"),
        row("pipeline.normalize", cells, "cells"),
        row("cluster.identify", counts.kernel_evals, "evals"),
        row("core.label", towers, "towers"),
        row("core.timedomain", cells, "cells"),
        row("core.frequency", towers, "towers"),
        row("core.decompose", answer.decompose_rows as u64, "rows"),
    ];
    let wave4_sum: f64 = ["core.label", "core.timedomain", "core.frequency"]
        .iter()
        .map(|s| median(&total_ms(s)))
        .sum();
    out.detail("study_ms", study_ms, "ms", n);
    out.detail("wave4_stage_sum_ms", wave4_sum, "ms", n);
    out.detail(
        "wave4_wall_ms",
        median(&secs(samples, Ran::wave4)) * 1e3,
        "ms",
        n,
    );
    out.detail("tracing_overhead_ms", median(&overhead_ms), "ms", n);
    out.spans = Some(tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CLI's `study` path (`run_study`, resilient engine run) and the
    /// benchmark's engine call give the same answer, here at tiny scale
    /// with both feature spaces, and every stage the engine reports has a
    /// span name.
    #[test]
    fn engine_study_matches_the_cli_and_every_stage_has_a_span() {
        for space in [FeatureSpace::Raw, FeatureSpace::Spectral] {
            let mut cfg = StudyConfig::tiny(5).with_threads(2);
            cfg.identifier.feature_space = space;
            let ran = run_study(&cfg).unwrap();
            let mut tracer = Tracer::new();
            record_spans(&mut tracer, &ran).unwrap();
            assert_eq!(tracer.spans().len(), 1 + ran.stages.len());
            let engine = &ran.answer;
            let (cli, _) = towerlens_cli::run_study(cfg.clone(), None).unwrap();
            let geo = cli.geo.expect("labelled");
            assert_eq!(cli.patterns.k, engine.k);
            assert_eq!(cli.patterns.clustering.labels, engine.labels);
            assert_eq!(geo.labels, engine.kinds);
            assert_eq!(geo.ground_truth_agreement.to_bits(), engine.agreement_bits);
        }
    }

    #[test]
    fn presets_match_the_cli() {
        let paper = config(Preset::Paper, 9, 2);
        let cli = towerlens_cli::study_config("paper", 9)
            .unwrap()
            .with_threads(2);
        assert_eq!(format!("{paper:?}"), format!("{cli:?}"));
        let medium = config(Preset::MediumRaw, 9, 2);
        let mut cli = towerlens_cli::study_config("medium", 9)
            .unwrap()
            .with_threads(2);
        cli.identifier.feature_space = FeatureSpace::Raw;
        assert_eq!(format!("{medium:?}"), format!("{cli:?}"));
    }
}
