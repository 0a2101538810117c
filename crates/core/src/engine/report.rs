//! Per-stage and per-run instrumentation reports.

use std::time::Duration;

use towerlens_obs::events::json_escape;
use towerlens_obs::SpanEvent;

use super::stage::Card;
use super::EngineError;

/// How a stage was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// Computed in this run.
    Ran,
    /// Reloaded from a checkpoint.
    Cached,
    /// Not executed: every consumer of its artifact was satisfied
    /// from checkpoints.
    Skipped,
    /// Executed but did not produce an artifact: the stage panicked,
    /// or it errored and is [`super::Stage::optional`].
    Failed,
    /// Not executed because a stage it (transitively) depends on
    /// failed.
    Pruned,
}

impl StageStatus {
    /// Lower-case label (`ran` / `cached` / `skipped` / `failed` /
    /// `pruned`).
    pub fn label(self) -> &'static str {
        match self {
            StageStatus::Ran => "ran",
            StageStatus::Cached => "cached",
            StageStatus::Skipped => "skipped",
            StageStatus::Failed => "failed",
            StageStatus::Pruned => "pruned",
        }
    }
}

impl std::fmt::Display for StageStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What happened to one stage in one run.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// The stage name.
    pub name: &'static str,
    /// The wave (topological level) the stage was scheduled in.
    pub wave: usize,
    /// How the stage was satisfied.
    pub status: StageStatus,
    /// Offset from run start to when work on this stage began (the
    /// checkpoint probe for [`StageStatus::Cached`] stages, the
    /// scheduling point for stages that did no work).
    pub start: Duration,
    /// Wall time: compute + checkpoint write for [`StageStatus::Ran`],
    /// checkpoint read for [`StageStatus::Cached`], zero for
    /// [`StageStatus::Skipped`].
    pub wall: Duration,
    /// Input/output cardinalities (restored from the checkpoint
    /// header for cached stages).
    pub cards: Vec<Card>,
    /// The stage's own error, for [`StageStatus::Failed`] stages.
    pub error: Option<EngineError>,
    /// How many attempts the stage consumed: 1 for a clean run, +1
    /// per checkpoint I/O retry (probe or save), 0 for stages that did
    /// no work (skipped / pruned).
    pub attempts: u32,
}

/// The full instrumentation record of one graph run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-stage reports, in graph registration order.
    pub stages: Vec<StageReport>,
    /// End-to-end wall time of the run.
    pub total: Duration,
    /// Non-fatal conditions the run recovered from (e.g. a corrupt
    /// checkpoint that fell back to recompute).
    pub warnings: Vec<String>,
}

impl RunReport {
    /// The report of a stage, by name.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Stage names with a given status, in registration order.
    pub fn with_status(&self, status: StageStatus) -> Vec<&'static str> {
        self.stages
            .iter()
            .filter(|s| s.status == status)
            .map(|s| s.name)
            .collect()
    }

    /// The first failed stage's error, in registration order.
    pub(crate) fn first_error(&self) -> Option<&EngineError> {
        self.stages.iter().find_map(|s| s.error.as_ref())
    }

    /// Whether any stage failed (or was pruned behind a failure).
    pub fn degraded(&self) -> bool {
        self.stages
            .iter()
            .any(|s| matches!(s.status, StageStatus::Failed | StageStatus::Pruned))
    }

    /// The run as a structured span log, one [`SpanEvent`] per stage
    /// in registration order. The report is the single source of
    /// truth; spans are a projection of it, so the event log can
    /// never disagree with the table or the JSON.
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.stages
            .iter()
            .map(|s| {
                let start_us = s.start.as_micros() as u64;
                SpanEvent {
                    name: s.name.to_string(),
                    wave: s.wave as u64,
                    status: s.status.label().to_string(),
                    start_us,
                    end_us: start_us + s.wall.as_micros() as u64,
                    cards: s
                        .cards
                        .iter()
                        .map(|c| (c.label.to_string(), c.value))
                        .collect(),
                    error: s.error.as_ref().map(ToString::to_string),
                    attempts: u64::from(s.attempts),
                }
            })
            .collect()
    }

    /// Feeds the run into a metrics registry: one
    /// `core.engine.stages_<status>` counter increment per stage, one
    /// `core.engine.stage.<name>` timer observation per stage that did
    /// work (ran or cached), and a `core.engine.runs` counter plus
    /// `core.engine.total` timer per run. Checkpoint I/O retries feed
    /// `core.engine.stage_retries_total`, which is registered (at
    /// zero) even on quiet runs so metric dumps keep a stable key set.
    /// The engine runner calls this against the
    /// [`towerlens_obs::global`] registry for every run.
    pub fn feed_registry(&self, registry: &towerlens_obs::Registry) {
        registry.counter("core.engine.runs").inc();
        registry.timer("core.engine.total").observe(self.total);
        let retries: u64 = self
            .stages
            .iter()
            .map(|s| u64::from(s.attempts.saturating_sub(1)))
            .sum();
        registry
            .counter("core.engine.stage_retries_total")
            .add(retries);
        for s in &self.stages {
            match s.status {
                StageStatus::Ran => registry.counter("core.engine.stages_ran").inc(),
                StageStatus::Cached => registry.counter("core.engine.stages_cached").inc(),
                StageStatus::Skipped => registry.counter("core.engine.stages_skipped").inc(),
                StageStatus::Failed => registry.counter("core.engine.stages_failed").inc(),
                StageStatus::Pruned => registry.counter("core.engine.stages_pruned").inc(),
            }
            if matches!(s.status, StageStatus::Ran | StageStatus::Cached) {
                registry
                    .timer(&format!("core.engine.stage.{}", s.name))
                    .observe(s.wall);
            }
        }
    }

    /// A fixed-width human table, one row per stage plus a total row.
    pub fn render_table(&self) -> String {
        let name_w = self
            .stages
            .iter()
            .map(|s| s.name.len())
            .chain(["stage".len()])
            .max()
            .unwrap_or(5);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_w$}  wave  status   {:>10}  cards\n",
            "stage", "wall"
        ));
        for s in &self.stages {
            let mut cards = s
                .cards
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            if s.attempts > 1 {
                if !cards.is_empty() {
                    cards.push(' ');
                }
                cards.push_str(&format!("attempts={}", s.attempts));
            }
            if let Some(error) = &s.error {
                if !cards.is_empty() {
                    cards.push(' ');
                }
                cards.push_str(&format!("[{error}]"));
            }
            out.push_str(&format!(
                "{:<name_w$}  {:>4}  {:<7}  {:>8.2}ms  {}\n",
                s.name,
                s.wave,
                s.status.label(),
                s.wall.as_secs_f64() * 1e3,
                cards
            ));
        }
        out.push_str(&format!(
            "{:<name_w$}        total    {:>8.2}ms\n",
            "",
            self.total.as_secs_f64() * 1e3
        ));
        for w in &self.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        out
    }

    /// The report as a JSON object (hand-rolled; every string goes
    /// through the workspace's one escaper, the span log's).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"total_ms\":");
        out.push_str(&format!(
            "{:.3},\"stages\":[",
            self.total.as_secs_f64() * 1e3
        ));
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"wave\":{},\"status\":\"{}\",\"wall_ms\":{:.3},\"attempts\":{},\"cards\":{{",
                json_escape(s.name),
                s.wave,
                s.status.label(),
                s.wall.as_secs_f64() * 1e3,
                s.attempts
            ));
            for (j, c) in s.cards.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", json_escape(&c.label), c.value));
            }
            out.push('}');
            if let Some(error) = &s.error {
                out.push_str(&format!(
                    ",\"error\":\"{}\"",
                    json_escape(&error.to_string())
                ));
            }
            out.push('}');
        }
        out.push_str("],\"warnings\":[");
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", json_escape(w)));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            stages: vec![
                StageReport {
                    name: "city",
                    wave: 0,
                    status: StageStatus::Cached,
                    start: Duration::from_micros(100),
                    wall: Duration::from_micros(1_500),
                    cards: vec![Card::new("towers", 120)],
                    error: None,
                    attempts: 1,
                },
                StageReport {
                    name: "cluster",
                    wave: 1,
                    status: StageStatus::Ran,
                    start: Duration::from_micros(1_700),
                    wall: Duration::from_millis(12),
                    cards: vec![Card::new("k", 5), Card::new("vectors", 118)],
                    error: None,
                    attempts: 1,
                },
            ],
            total: Duration::from_millis(14),
            warnings: Vec::new(),
        }
    }

    fn degraded() -> RunReport {
        let mut r = sample();
        r.stages[1].status = StageStatus::Failed;
        r.stages[1].error = Some(EngineError::StagePanicked {
            stage: "cluster".to_string(),
            message: "boom".to_string(),
        });
        r.stages.push(StageReport {
            name: "label",
            wave: 2,
            status: StageStatus::Pruned,
            start: Duration::from_millis(13),
            wall: Duration::ZERO,
            cards: Vec::new(),
            error: None,
            attempts: 0,
        });
        r.warnings
            .push("checkpoint for stage `city` is unusable; recomputing".into());
        r
    }

    /// A run with checkpoint I/O retries: a retried stage, and a stage
    /// that failed after two checkpoint probe retries.
    fn supervised() -> RunReport {
        let mut r = sample();
        r.stages[1].attempts = 3;
        r.stages.push(StageReport {
            name: "label",
            wave: 2,
            status: StageStatus::Failed,
            start: Duration::from_millis(13),
            wall: Duration::from_millis(1),
            cards: Vec::new(),
            error: Some(EngineError::Stage {
                stage: "label".to_string(),
                message: "no data".to_string(),
            }),
            attempts: 3,
        });
        r
    }

    #[test]
    fn table_lists_every_stage_and_total() {
        let table = sample().render_table();
        assert!(table.contains("city"));
        assert!(table.contains("cached"));
        assert!(table.contains("towers=120"));
        assert!(table.contains("total"));
        assert_eq!(table.lines().count(), 4); // header + 2 stages + total
    }

    #[test]
    fn json_is_well_formed() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"name\":\"cluster\""));
        assert!(json.contains("\"status\":\"ran\""));
        assert!(json.contains("\"k\":5"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn lookup_and_status_filters() {
        let r = sample();
        assert_eq!(r.stage("city").unwrap().wave, 0);
        assert!(r.stage("nope").is_none());
        assert_eq!(r.with_status(StageStatus::Cached), vec!["city"]);
        assert_eq!(r.with_status(StageStatus::Skipped), Vec::<&str>::new());
    }

    #[test]
    fn json_escapes_an_error_as_the_span_log_does() {
        let mut r = degraded();
        r.stages[1].error = Some(EngineError::Stage {
            stage: "cluster".to_string(),
            message: "line one\nline \"two\"".to_string(),
        });
        let json = r.to_json();
        assert!(
            json.contains("\"error\":\"stage `cluster` failed: line one\\nline \\\"two\\\"\""),
            "{json}"
        );
        assert!(!json.contains("\\u000a"), "{json}");
    }

    #[test]
    fn spans_mirror_the_report() {
        let spans = sample().spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "city");
        assert_eq!(spans[0].status, "cached");
        assert_eq!(spans[0].start_us, 100);
        assert_eq!(spans[0].end_us, 1_600);
        assert_eq!(spans[0].cards, vec![("towers".to_string(), 120)]);
        assert_eq!(spans[1].status, "ran");
        assert_eq!(spans[1].duration_us(), 12_000);
        // A pruned stage still produces a (zero-width) span, so the
        // event log accounts for every stage in the graph.
        let degraded_spans = degraded().spans();
        let pruned = degraded_spans.iter().find(|s| s.name == "label").unwrap();
        assert_eq!(pruned.status, "pruned");
        assert_eq!(pruned.start_us, pruned.end_us);
        let failed = degraded_spans.iter().find(|s| s.name == "cluster").unwrap();
        assert_eq!(
            failed.error.as_deref(),
            Some("stage `cluster` panicked: boom")
        );
    }

    #[test]
    fn feed_registry_counts_statuses_and_times_work() {
        let registry = towerlens_obs::Registry::new();
        sample().feed_registry(&registry);
        degraded().feed_registry(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.engine.runs"), 2);
        assert_eq!(snap.counter("core.engine.stages_cached"), 2);
        assert_eq!(snap.counter("core.engine.stages_ran"), 1);
        assert_eq!(snap.counter("core.engine.stages_failed"), 1);
        assert_eq!(snap.counter("core.engine.stages_pruned"), 1);
        assert_eq!(snap.counter("core.engine.stages_skipped"), 0);
        // Per-stage timers exist only for stages that did work.
        assert_eq!(snap.timers["core.engine.stage.city"].count, 2);
        assert_eq!(snap.timers["core.engine.stage.cluster"].count, 1);
        assert!(!snap.timers.contains_key("core.engine.stage.label"));
        assert_eq!(snap.timers["core.engine.total"].count, 2);
    }

    #[test]
    fn supervision_counters_register_even_when_quiet() {
        let registry = towerlens_obs::Registry::new();
        sample().feed_registry(&registry);
        let quiet = registry.snapshot();
        let name = "core.engine.stage_retries_total";
        assert!(quiet.counters.contains_key(name), "missing {name}");
        assert_eq!(quiet.counter(name), 0, "{name} nonzero on a quiet run");
    }

    #[test]
    fn supervision_activity_feeds_counters_and_json() {
        let registry = towerlens_obs::Registry::new();
        supervised().feed_registry(&registry);
        let snap = registry.snapshot();
        // cluster: 3 attempts = 2 retries; label: 3 attempts = 2 more.
        assert_eq!(snap.counter("core.engine.stage_retries_total"), 4);

        let json = supervised().to_json();
        assert!(json.contains("\"attempts\":3"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let table = supervised().render_table();
        assert!(table.contains("attempts=3"));
        // Span events carry the attempt count through to the log.
        let spans = supervised().spans();
        assert_eq!(
            spans.iter().find(|s| s.name == "label").unwrap().attempts,
            3
        );
    }

    #[test]
    fn degraded_run_renders_failures_and_warnings() {
        let r = degraded();
        assert!(r.degraded());
        assert!(!sample().degraded());
        let table = r.render_table();
        assert!(table.contains("failed"));
        assert!(table.contains("pruned"));
        assert!(table.contains("panicked: boom"));
        assert!(table.contains("warning: checkpoint for stage `city`"));
        let json = r.to_json();
        assert!(json.contains("\"status\":\"failed\""));
        assert!(json.contains("\"status\":\"pruned\""));
        assert!(json.contains("\"error\":\"stage `cluster` panicked: boom\""));
        assert!(json.contains("\"warnings\":[\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(r.with_status(StageStatus::Failed), vec!["cluster"]);
        assert_eq!(r.with_status(StageStatus::Pruned), vec!["label"]);
    }
}
