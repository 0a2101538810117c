//! The metric catalogue and the result a run prints.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single definition of every
//! metric name the benchmark emits; `BENCHMARK.json` must list exactly
//! these (checked by a test). Workload metrics that only make sense on
//! one workload (the quality outcomes, reload and restart latency, the
//! batch tail) are printed and written to the result file as
//! [`Outcome::details`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric definition: name, unit, which direction is better, and the
/// regression bound for end-to-end metrics.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The workloads: name and why it was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "study-paper",
        "the configuration users run: 9,600 towers x 4,032 bins, default (spectral) space; synthesize, k-d index, label and wave-4 stages",
    ),
    (
        "study-medium-raw",
        "raw 4,032-dim path, the paper's best reproduction: materialised distance kernel and opt simplex solves, absent from study-paper",
    ),
    (
        "query-reload",
        "paper-scale query batches (5/8 pattern, 2/8 topk, 1/8 screen) beside publish+reload on the same artifact layer",
    ),
    (
        "ingest",
        "gen log (7 days, duplicates and conflicts) through serve: trace parsing, WAL, shard apply, snapshots, per-segment publish, restart",
    ),
];

/// Metrics every workload reports from the untraced pass.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("throughput_per_s", "1/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_heap_mb", "MiB", "lower", 0.1),
];

/// Metrics every workload reports from the traced pass. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: [MetricDef; 33] = [
    layer("agreement_pct", "%", "higher"),
    layer("k_error", "count", "lower"),
    layer("city.generate_ms", "ms", "lower"),
    layer("mobility.synthesize_ms", "ms", "lower"),
    layer("mobility.ns_per_cell", "ns", "lower"),
    layer("pipeline.normalize_ms", "ms", "lower"),
    layer("cluster.identify_ms", "ms", "lower"),
    layer("cluster.kernel_evals", "count", "lower"),
    layer("cluster.evals_over_floor", "ratio", "lower"),
    layer("cluster.ns_per_eval", "ns", "lower"),
    layer("core.label_ms", "ms", "lower"),
    layer("core.timedomain_ms", "ms", "lower"),
    layer("core.frequency_ms", "ms", "lower"),
    layer("dsp.goertzel_evals", "count", "lower"),
    layer("core.decompose_ms", "ms", "lower"),
    layer("core.decompose_rows", "count", "higher"),
    layer("artifact.read_ms", "ms", "lower"),
    layer("artifact.index_build_ms", "ms", "lower"),
    layer("artifact.publish_ms", "ms", "lower"),
    layer("artifact.snapshot_bytes", "bytes", "lower"),
    layer("artifact.watch_reload_ms", "ms", "lower"),
    layer("query.batch_ms", "ms", "lower"),
    layer("query.allocs_per_request", "count", "lower"),
    layer("query.topk_pruned_per_topk", "count", "higher"),
    layer("serve.serve_ms", "ms", "lower"),
    layer("serve.restart_ms", "ms", "lower"),
    layer("serve.wchar_per_record", "bytes", "lower"),
    layer("serve.generations_published", "count", "lower"),
    layer("serve.snapshots", "count", "lower"),
    layer("serve.wal_segments", "count", "lower"),
    layer("pipeline.vectorize_per_record", "ratio", "lower"),
    layer("trace.parse_ns_per_record", "ns", "lower"),
    layer("obs.tracing_overhead_pct", "%", "lower"),
];

/// For each per-layer metric: the end-to-end metric it should move, the
/// workload it should move it on, and the workloads where it should not.
pub const LAYER_EFFECTS: [(&str, &str, &str, &str); 33] = [
    (
        "agreement_pct",
        "(outcome; no speed effect)",
        "study-*",
        "-",
    ),
    ("k_error", "(outcome; no speed effect)", "study-*", "-"),
    (
        "city.generate_ms",
        "op_p50_ms",
        "study-paper (<1%)",
        "query-reload, ingest",
    ),
    (
        "mobility.synthesize_ms",
        "op_p50_ms",
        "study-paper (~36%)",
        "query-reload, ingest",
    ),
    (
        "mobility.ns_per_cell",
        "op_p50_ms",
        "study-paper",
        "query-reload, ingest",
    ),
    (
        "pipeline.normalize_ms",
        "op_p50_ms",
        "study-paper",
        "query-reload",
    ),
    (
        "cluster.identify_ms",
        "op_p50_ms",
        "study-medium-raw (~75%); study-paper (~37%)",
        "query-reload",
    ),
    (
        "cluster.kernel_evals",
        "op_p50_ms",
        "study-medium-raw; study-paper",
        "query-reload",
    ),
    (
        "cluster.evals_over_floor",
        "op_p50_ms",
        "study-paper (index)",
        "query-reload",
    ),
    (
        "cluster.ns_per_eval",
        "op_p50_ms",
        "study-medium-raw (kernel)",
        "query-reload",
    ),
    (
        "core.label_ms",
        "op_p50_ms",
        "study-paper (longest wave-4 stage)",
        "ingest",
    ),
    ("core.timedomain_ms", "op_p50_ms", "study-paper", "ingest"),
    ("core.frequency_ms", "op_p50_ms", "study-paper", "ingest"),
    (
        "dsp.goertzel_evals",
        "op_p50_ms",
        "study-paper (57,600 = 2x floor)",
        "study-medium-raw (single pass)",
    ),
    (
        "core.decompose_ms",
        "op_p50_ms",
        "study-medium-raw (18 rows)",
        "study-paper (0 rows)",
    ),
    (
        "core.decompose_rows",
        "(outcome)",
        "study-medium-raw",
        "study-paper",
    ),
    (
        "artifact.read_ms",
        "setup_s, throughput_per_s (reloads)",
        "query-reload",
        "study-*",
    ),
    (
        "artifact.index_build_ms",
        "setup_s, throughput_per_s (reloads)",
        "query-reload",
        "study-*",
    ),
    (
        "artifact.publish_ms",
        "throughput_per_s",
        "query-reload; ingest (once per segment)",
        "study-*",
    ),
    (
        "artifact.snapshot_bytes",
        "throughput_per_s",
        "query-reload; ingest",
        "study-*",
    ),
    (
        "artifact.watch_reload_ms",
        "throughput_per_s (reloads)",
        "query-reload",
        "ingest",
    ),
    (
        "query.batch_ms",
        "op_p50_ms, throughput_per_s",
        "query-reload",
        "ingest, study-*",
    ),
    (
        "query.allocs_per_request",
        "op_p50_ms",
        "query-reload",
        "ingest, study-*",
    ),
    (
        "query.topk_pruned_per_topk",
        "op_p50_ms",
        "query-reload",
        "ingest, study-*",
    ),
    (
        "serve.serve_ms",
        "op_p50_ms, throughput_per_s",
        "ingest",
        "query-reload",
    ),
    (
        "serve.restart_ms",
        "throughput_per_s",
        "ingest",
        "query-reload",
    ),
    (
        "serve.wchar_per_record",
        "op_p50_ms, throughput_per_s",
        "ingest",
        "-",
    ),
    ("serve.generations_published", "op_p50_ms", "ingest", "-"),
    ("serve.snapshots", "op_p50_ms", "ingest", "-"),
    ("serve.wal_segments", "op_p50_ms", "ingest", "-"),
    (
        "pipeline.vectorize_per_record",
        "op_p50_ms",
        "ingest",
        "study-*",
    ),
    (
        "trace.parse_ns_per_record",
        "op_p50_ms",
        "ingest",
        "study-*",
    ),
    (
        "obs.tracing_overhead_pct",
        "(checks traced numbers are honest)",
        "study-*",
        "-",
    ),
];

/// One measured value with its sample count.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// One row of the per-layer table: a span name with its total and self
/// time, and the work it did.
#[derive(Debug, Clone)]
pub struct LayerRow {
    pub span: &'static str,
    pub calls: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    pub work: u64,
    pub work_unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one message each.
    pub problems: Vec<String>,
    /// Values of catalogue metrics.
    pub metrics: Vec<Value>,
    /// Workload-specific values, printed and written to the result file.
    pub details: Vec<Value>,
    pub provenance: Vec<(String, String)>,
    pub layers: Vec<LayerRow>,
    /// The traced pass's spans, written out when the run ends.
    pub spans: Option<crate::spans::Tracer>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("`{name}` is not a catalogue metric"));
        self.metrics.push(Value {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.details.push(Value {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn provenance(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Records a failed check: the run is then not correct.
    pub fn problem(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("check failed: {message}");
        self.problems.push(message);
    }

    /// Records a check that passes when `ok` holds.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problem(message());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The catalogue metrics for `defs`, in catalogue order; a metric the
    /// run did not measure reads 0 with 0 samples.
    pub fn select(&self, defs: &[MetricDef]) -> Vec<Value> {
        let by_name: BTreeMap<&str, &Value> =
            self.metrics.iter().map(|v| (v.name.as_str(), v)).collect();
        defs.iter()
            .map(|d| match by_name.get(d.name) {
                Some(v) => (*v).clone(),
                None => Value {
                    name: d.name.to_string(),
                    value: 0.0,
                    unit: d.unit,
                    samples: 0,
                },
            })
            .collect()
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// A finite JSON number with every digit `f64` carries.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line result the driver reads.
pub fn result_line(outcome: &Outcome, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&v.name),
                json_number(v.value),
                json_string(v.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The full result document: provenance, every value with its sample
/// count, and the failed checks.
pub fn result_document(outcome: &Outcome, values: &[Value]) -> String {
    let section = |values: &[Value]| -> String {
        let rows: Vec<String> = values
            .iter()
            .map(|v| {
                format!(
                    "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    json_string(&v.name),
                    json_number(v.value),
                    json_string(v.unit),
                    v.samples
                )
            })
            .collect();
        format!("{{\n{}\n  }}", rows.join(",\n"))
    };
    let provenance: Vec<String> = outcome
        .provenance
        .iter()
        .map(|(k, v)| format!("    {}: {}", json_string(k), json_string(v)))
        .collect();
    let problems: Vec<String> = outcome.problems.iter().map(|p| json_string(p)).collect();
    format!(
        "{{\n  \"provenance\": {{\n{}\n  }},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"problems\": [{}],\n  \"metrics\": {},\n  \"details\": {}\n}}\n",
        provenance.join(",\n"),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        problems.join(", "),
        section(values),
        section(&outcome.details)
    )
}

/// Human-readable table of values with unit and sample count; catalogue
/// metrics also show which direction is better and their bound, and
/// per-layer metrics the end-to-end metric and workloads they affect.
pub fn value_table(title: &str, values: &[Value]) -> String {
    let mut out = format!(
        "{title}\n  {:<30} {:>18} {:<6} {:>8}  notes\n",
        "metric", "value", "unit", "samples"
    );
    for v in values {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|d| d.name == v.name);
        let effect = LAYER_EFFECTS.iter().find(|e| e.0 == v.name);
        let notes = match (def, effect) {
            (_, Some((_, moves, on, not_on))) => {
                format!("moves {moves} on {on}; not on {not_on}")
            }
            (Some(d), None) => format!(
                "{} is better, bound {}",
                d.better,
                d.bound.map_or("-".to_string(), |b| b.to_string())
            ),
            (None, None) => String::new(),
        };
        let _ = writeln!(
            out,
            "  {:<30} {:>18} {:<6} {:>8}  {notes}",
            v.name,
            format!("{:.6}", v.value),
            v.unit,
            v.samples
        );
    }
    out
}

/// The per-layer table: calls, total and self time, work units and the
/// cost per unit.
pub fn layer_table(rows: &[LayerRow]) -> String {
    let mut out = format!(
        "per-layer (traced pass)\n  {:<24} {:>6} {:>12} {:>12} {:>14} {:<10} {:>12}\n",
        "span", "calls", "total ms", "self ms", "work", "unit", "ns/unit"
    );
    for r in rows {
        let per_unit = if r.work > 0 {
            format!("{:.2}", r.self_ms * 1e6 / r.work as f64)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "  {:<24} {:>6} {:>12.3} {:>12.3} {:>14} {:<10} {:>12}",
            r.span, r.calls, r.total_ms, r.self_ms, r.work, r.work_unit, per_unit
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name));
        for name in names {
            assert!(valid_name(name), "bad name `{name}`");
            assert!(seen.insert(name), "duplicate name `{name}`");
        }
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit `{}`",
                d.unit
            );
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn layer_effects_cover_every_per_layer_metric_in_order() {
        let a: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        let b: Vec<&str> = LAYER_EFFECTS.iter().map(|e| e.0).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn setup_s_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert_eq!(setup.better, "lower");
        for d in END_TO_END {
            let bound = d.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(bound <= setup.bound.unwrap());
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("op_p50_ms", 1.25, 3);
        let line = result_line(&o, &o.select(&END_TO_END));
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
    }
}
