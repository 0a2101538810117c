//! Graph validation, wave scheduling, and execution.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use super::checkpoint::{CheckpointError, CheckpointStore};
use super::report::{RunReport, StageReport, StageStatus};
use super::stage::{Card, Stage, StageContext, StageOutput};
use super::supervisor::Supervisor;
use super::EngineError;

/// Renders a panic payload — the common `&str`/`String` cases; other
/// payload types get a placeholder.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What one stage execution attempt chain produced: the final
/// result plus the supervision bookkeeping the report needs.
struct StageRun<A> {
    index: usize,
    result: Result<StageOutput<A>, EngineError>,
    start: Duration,
    wall: Duration,
    attempts: u32,
    breaker_opened: bool,
}

/// Messages on the watchdog channel: a finished stage, or the
/// monitor thread declaring the wave's deadline blown.
enum WatchMsg<A> {
    Done(StageRun<A>),
    Expired,
}

/// A checkpoint probe hit, with the retry count it took to get it.
struct CachedProbe<A> {
    artifact: A,
    cards: Vec<Card>,
    start: Duration,
    wall: Duration,
    attempts: u32,
}

/// A set of stages forming a dependency DAG, executed in topological
/// *waves*: all stages of a wave depend only on earlier waves and run
/// concurrently on scoped threads.
pub struct Graph<A> {
    stages: Vec<Box<dyn Stage<A>>>,
}

/// What a run produced: every completed stage's artifact (keyed by
/// stage name) plus the instrumentation report.
#[derive(Debug)]
pub struct RunOutcome<A> {
    /// Artifacts of all stages that ran or were reloaded from a
    /// checkpoint. Skipped stages have no entry.
    pub artifacts: HashMap<&'static str, A>,
    /// Per-stage timing, status, and cardinalities.
    pub report: RunReport,
}

impl<A> RunOutcome<A> {
    /// Removes and returns a stage's artifact.
    ///
    /// # Errors
    /// [`EngineError::MissingArtifact`] when the stage produced none
    /// (skipped) or it was already taken.
    pub fn take(&mut self, name: &str) -> Result<A, EngineError> {
        self.artifacts
            .remove(name)
            .ok_or_else(|| EngineError::MissingArtifact {
                stage: "<outcome>".to_string(),
                dep: name.to_string(),
            })
    }
}

impl<A> Default for Graph<A> {
    fn default() -> Self {
        Graph { stages: Vec::new() }
    }
}

impl<A: Send + Sync> Graph<A> {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a stage (builder style). Registration order is the
    /// report order and the tie-break order within a wave.
    pub fn add_stage(mut self, stage: impl Stage<A> + 'static) -> Self {
        self.stages.push(Box::new(stage));
        self
    }

    /// Registered stage names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Checks name uniqueness and dependency resolution.
    ///
    /// # Errors
    /// [`EngineError::DuplicateStage`] or
    /// [`EngineError::UnknownDependency`].
    pub fn validate(&self) -> Result<(), EngineError> {
        let mut seen = HashSet::new();
        for s in &self.stages {
            if !seen.insert(s.name()) {
                return Err(EngineError::DuplicateStage {
                    name: s.name().to_string(),
                });
            }
        }
        for s in &self.stages {
            for &d in s.deps() {
                if !seen.contains(d) {
                    return Err(EngineError::UnknownDependency {
                        stage: s.name().to_string(),
                        dep: d.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// The topological schedule: wave `i + 1` depends only on waves
    /// `0..=i`; stages within a wave are mutually independent and run
    /// concurrently. Deterministic (registration order within a
    /// wave), so tests can assert on it directly.
    ///
    /// # Errors
    /// Validation errors, plus [`EngineError::Cycle`] listing the
    /// unschedulable stages.
    pub fn waves(&self) -> Result<Vec<Vec<&'static str>>, EngineError> {
        self.validate()?;
        let mut done: HashSet<&'static str> = HashSet::new();
        let mut remaining: Vec<&dyn Stage<A>> = self.stages.iter().map(|b| b.as_ref()).collect();
        let mut waves = Vec::new();
        while !remaining.is_empty() {
            let (ready, rest): (Vec<_>, Vec<_>) = remaining
                .into_iter()
                .partition(|s| s.deps().iter().all(|d| done.contains(d)));
            if ready.is_empty() {
                return Err(EngineError::Cycle {
                    stages: rest.iter().map(|s| s.name().to_string()).collect(),
                });
            }
            let wave: Vec<&'static str> = ready.iter().map(|s| s.name()).collect();
            done.extend(wave.iter().copied());
            waves.push(wave);
            remaining = rest;
        }
        Ok(waves)
    }

    /// Runs the graph.
    ///
    /// Without a store, every stage executes ([`StageStatus::Ran`]).
    /// With a store, checkpointable stages whose artifact reloads
    /// under the store's fingerprint are [`StageStatus::Cached`], and
    /// stages whose artifact is then demanded by no executing stage
    /// are pruned ([`StageStatus::Skipped`]). Demand is traced
    /// backwards from the graph's sinks; a cached stage's
    /// dependencies are not demanded on its behalf.
    ///
    /// A checkpoint file that exists but cannot be trusted (truncated,
    /// checksum mismatch, malformed) is *not* fatal: the stage
    /// recomputes (overwriting the bad file on save) and the run
    /// carries a warning in [`RunReport::warnings`]. Only checkpoint
    /// I/O errors abort.
    ///
    /// Stage failures are contained where the graph can survive them:
    /// a panic in any stage, or an error from a [`Stage::optional`]
    /// stage, marks that stage [`StageStatus::Failed`] (with the
    /// rendered error in its report), transitively prunes its
    /// dependents ([`StageStatus::Pruned`] — unless their artifact was
    /// already cached), and lets the rest of the run complete. An
    /// error from a non-optional stage still fails the run.
    ///
    /// # Errors
    /// Scheduling errors, checkpoint I/O errors, and the first failing
    /// non-optional stage's error.
    pub fn run(&self, store: Option<&CheckpointStore>) -> Result<RunOutcome<A>, EngineError> {
        self.run_with(store, &Supervisor::default())
    }

    /// As [`Graph::run`], under a [`Supervisor`]: transient failures
    /// (checkpoint I/O errors and stage errors raised via
    /// [`StageContext::fail_transient`]) are retried up to the
    /// supervisor's budget with deterministic seeded backoff; an
    /// optional per-stage wall-time budget is enforced by a watchdog
    /// monitor thread (an overrunning stage is declared lost with
    /// [`EngineError::StageTimedOut`], which degrades optional stages
    /// and fails the run for required ones); and a circuit breaker
    /// stops retrying a flapping optional stage after N consecutive
    /// failures. `Supervisor::default()` reproduces [`Graph::run`]
    /// exactly.
    ///
    /// The watchdog bounds when a stage's result is *declared lost*,
    /// not the worker thread's lifetime: a truly hung stage still
    /// holds its scoped thread until it returns (killing threads is
    /// unsound); process-level supervision is the chaos harness's
    /// job.
    ///
    /// Before the first stage starts, the failpoints the run fires on
    /// (the process registry's `stage.<stage>`, and the store's
    /// `checkpoint.{save,load}.<stage>`) must name stages of this
    /// graph: a misspelt stage would otherwise inject nothing.
    ///
    /// # Errors
    /// As [`Graph::run`], plus [`EngineError::StageTimedOut`] for a
    /// required stage that blew its budget and
    /// [`EngineError::Failpoint`] for a failpoint naming an unknown
    /// stage.
    pub fn run_with(
        &self,
        store: Option<&CheckpointStore>,
        supervisor: &Supervisor,
    ) -> Result<RunOutcome<A>, EngineError> {
        let started = Instant::now();
        let waves = self.waves()?;
        let names: Vec<&str> = self.stages.iter().map(|s| s.name()).collect();
        towerlens_obs::failpoints()
            .check_stages(&names)
            .and_then(|()| store.map_or(Ok(()), |s| s.failpoints().check_stages(&names)))
            .map_err(EngineError::Failpoint)?;
        let index: HashMap<&'static str, usize> = self
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name(), i))
            .collect();
        let mut warnings: Vec<String> = Vec::new();

        // Probe checkpoints up front: demand pruning needs the full
        // hit set before the first wave starts. A damaged file is a
        // cache miss with a warning, not a dead run; a transient I/O
        // error retries under the supervisor's budget before
        // aborting.
        let mut cached: HashMap<&'static str, CachedProbe<A>> = HashMap::new();
        let mut probe_retries: HashMap<&'static str, u32> = HashMap::new();
        if let Some(store) = store {
            for s in &self.stages {
                if let Some(codec) = s.codec() {
                    let probe_started = Instant::now();
                    let probe_offset = probe_started.duration_since(started);
                    let mut retries = 0u32;
                    let outcome = loop {
                        match store.load(s.name(), codec) {
                            Err(e @ CheckpointError::Io { .. })
                                if retries < supervisor.retry.retries =>
                            {
                                drop(e);
                                std::thread::sleep(supervisor.retry.delay(s.name(), retries));
                                retries += 1;
                            }
                            other => break other,
                        }
                    };
                    if retries > 0 {
                        probe_retries.insert(s.name(), retries);
                    }
                    match outcome {
                        Ok(Some((artifact, cards))) => {
                            cached.insert(
                                s.name(),
                                CachedProbe {
                                    artifact,
                                    cards,
                                    start: probe_offset,
                                    wall: probe_started.elapsed(),
                                    attempts: retries + 1,
                                },
                            );
                        }
                        Ok(None) => {}
                        Err(e @ CheckpointError::Io { .. }) => return Err(e.into()),
                        Err(e) => warnings.push(format!(
                            "checkpoint for stage `{}` is unusable ({e}); recomputing",
                            s.name()
                        )),
                    }
                }
            }
        }

        // Backward demand trace from the sinks.
        let mut has_dependent: HashSet<&'static str> = HashSet::new();
        for s in &self.stages {
            has_dependent.extend(s.deps().iter().copied());
        }
        let mut demanded: HashSet<&'static str> = HashSet::new();
        let mut frontier: Vec<&'static str> = self
            .stages
            .iter()
            .map(|s| s.name())
            .filter(|n| !has_dependent.contains(n))
            .collect();
        while let Some(name) = frontier.pop() {
            if !demanded.insert(name) || cached.contains_key(name) {
                continue;
            }
            frontier.extend(self.stages[index[&name]].deps().iter().copied());
        }

        let mut artifacts: HashMap<&'static str, A> = HashMap::new();
        let mut reports: HashMap<&'static str, StageReport> = HashMap::new();
        // Stages whose artifact will never materialize this run:
        // failed stages and everything pruned behind them.
        let mut unavailable: HashSet<&'static str> = HashSet::new();
        for (w, wave) in waves.iter().enumerate() {
            let wave_offset = started.elapsed();
            let mut to_run: Vec<usize> = Vec::new();
            for &name in wave {
                if let Some(probe) = cached.remove(name) {
                    // A cached artifact is usable even when a
                    // dependency failed — the checkpoint already holds
                    // the finished product.
                    artifacts.insert(name, probe.artifact);
                    reports.insert(
                        name,
                        StageReport {
                            name,
                            wave: w,
                            status: StageStatus::Cached,
                            start: probe.start,
                            wall: probe.wall,
                            cards: probe.cards,
                            error: None,
                            attempts: probe.attempts,
                            timed_out: false,
                            breaker_opened: false,
                        },
                    );
                } else if self.stages[index[name]]
                    .deps()
                    .iter()
                    .any(|d| unavailable.contains(d))
                {
                    unavailable.insert(name);
                    reports.insert(
                        name,
                        StageReport {
                            name,
                            wave: w,
                            status: StageStatus::Pruned,
                            start: wave_offset,
                            wall: Duration::ZERO,
                            cards: Vec::new(),
                            error: None,
                            attempts: 0,
                            timed_out: false,
                            breaker_opened: false,
                        },
                    );
                } else if !demanded.contains(name) {
                    reports.insert(
                        name,
                        StageReport {
                            name,
                            wave: w,
                            status: StageStatus::Skipped,
                            start: wave_offset,
                            wall: Duration::ZERO,
                            cards: Vec::new(),
                            error: None,
                            attempts: 0,
                            timed_out: false,
                            breaker_opened: false,
                        },
                    );
                } else {
                    to_run.push(index[name]);
                }
            }

            let run_one = |i: usize, artifacts: &HashMap<&'static str, A>| -> StageRun<A> {
                let stage = &self.stages[i];
                let name = stage.name();
                let stage_started = Instant::now();
                let stage_offset = stage_started.duration_since(started);
                let mut attempts: u32 = 0;
                let mut breaker_opened = false;
                let result = loop {
                    attempts += 1;
                    // Contain panics so one sick stage cannot take
                    // down its wave siblings (or the process).
                    let attempt = catch_unwind(AssertUnwindSafe(|| {
                        towerlens_obs::failpoints()
                            .hit(&["stage", name])
                            .map_err(|message| EngineError::Stage {
                                stage: name.to_string(),
                                message,
                            })?;
                        stage.run(&StageContext::new(name, artifacts))
                    }))
                    .unwrap_or_else(|payload| {
                        Err(EngineError::StagePanicked {
                            stage: name.to_string(),
                            message: panic_message(payload),
                        })
                    });
                    match attempt {
                        Err(e) if e.is_transient() && attempts <= supervisor.retry.retries => {
                            // Circuit breaker: an optional stage that
                            // keeps flapping stops burning its retry
                            // budget — the graph degrades it instead.
                            if stage.optional() && attempts >= supervisor.breaker.threshold {
                                breaker_opened = true;
                                break Err(e);
                            }
                            std::thread::sleep(supervisor.retry.delay(name, attempts - 1));
                        }
                        other => break other,
                    }
                };
                StageRun {
                    index: i,
                    result,
                    start: stage_offset,
                    wall: stage_started.elapsed(),
                    attempts,
                    breaker_opened,
                }
            };
            let mut results: Vec<StageRun<A>> = if let Some(budget) = supervisor.stage_timeout {
                if to_run.is_empty() {
                    Vec::new()
                } else {
                    // Watchdog path: workers report completions over a
                    // channel; a monitor thread injects `Expired` when
                    // the wave's per-stage budget lapses, and every
                    // still-unfinished stage is declared lost. Late
                    // results are discarded (the scope still joins the
                    // stragglers before the wave commits).
                    let shared = &artifacts;
                    let run_one = &run_one;
                    std::thread::scope(|scope| {
                        let (tx, rx) = mpsc::channel::<WatchMsg<A>>();
                        for &i in &to_run {
                            let tx = tx.clone();
                            scope.spawn(move || {
                                let _ = tx.send(WatchMsg::Done(run_one(i, shared)));
                            });
                        }
                        let finished = Arc::new((Mutex::new(false), Condvar::new()));
                        {
                            let finished = Arc::clone(&finished);
                            let tx = tx.clone();
                            scope.spawn(move || {
                                let (flag, bell) = &*finished;
                                let guard = flag.lock().unwrap();
                                let (_guard, timeout) = bell
                                    .wait_timeout_while(guard, budget, |done| !*done)
                                    .unwrap();
                                if timeout.timed_out() {
                                    let _ = tx.send(WatchMsg::Expired);
                                }
                            });
                        }
                        drop(tx);
                        let mut results: Vec<StageRun<A>> = Vec::new();
                        let mut seen: HashSet<usize> = HashSet::new();
                        while seen.len() < to_run.len() {
                            match rx.recv() {
                                Ok(WatchMsg::Done(run)) => {
                                    seen.insert(run.index);
                                    results.push(run);
                                }
                                Ok(WatchMsg::Expired) => {
                                    for &i in &to_run {
                                        if !seen.contains(&i) {
                                            results.push(StageRun {
                                                index: i,
                                                result: Err(EngineError::StageTimedOut {
                                                    stage: self.stages[i].name().to_string(),
                                                    budget_ms: budget.as_millis() as u64,
                                                }),
                                                start: wave_offset,
                                                wall: budget,
                                                attempts: 1,
                                                breaker_opened: false,
                                            });
                                        }
                                    }
                                    break;
                                }
                                Err(_) => break,
                            }
                        }
                        // Release the monitor thread before the scope
                        // joins it.
                        let (flag, bell) = &*finished;
                        *flag.lock().unwrap() = true;
                        bell.notify_all();
                        results
                    })
                }
            } else if to_run.len() <= 1 {
                // A single runnable stage executes inline: no
                // thread spawn on the (common) sequential spine.
                to_run.iter().map(|&i| run_one(i, &artifacts)).collect()
            } else {
                let shared = &artifacts;
                let run_one = &run_one;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = to_run
                        .iter()
                        .map(|&i| scope.spawn(move || run_one(i, shared)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("stage thread panicked"))
                        .collect()
                })
            };
            // Commit in registration order whatever order the wave's
            // threads finished in, so the first-error semantics stay
            // deterministic.
            results.sort_by_key(|r| r.index);

            for run in results {
                let StageRun {
                    index: i,
                    result,
                    start,
                    mut wall,
                    mut attempts,
                    breaker_opened,
                } = run;
                let stage = &self.stages[i];
                let name = stage.name();
                attempts += probe_retries.get(name).copied().unwrap_or(0);
                let timed_out = matches!(result, Err(EngineError::StageTimedOut { .. }));
                let output = match result {
                    Ok(output) => output,
                    Err(e) => {
                        let contained =
                            stage.optional() || matches!(e, EngineError::StagePanicked { .. });
                        if !contained {
                            return Err(e);
                        }
                        unavailable.insert(name);
                        reports.insert(
                            name,
                            StageReport {
                                name,
                                wave: w,
                                status: StageStatus::Failed,
                                start,
                                wall,
                                cards: Vec::new(),
                                error: Some(e),
                                attempts,
                                timed_out,
                                breaker_opened,
                            },
                        );
                        continue;
                    }
                };
                if let (Some(store), Some(codec)) = (store, stage.codec()) {
                    let save_started = Instant::now();
                    let mut save_retries = 0u32;
                    loop {
                        match store.save(name, &output.cards, codec, &output.artifact) {
                            Ok(()) => break,
                            Err(e @ CheckpointError::Io { .. })
                                if save_retries < supervisor.retry.retries =>
                            {
                                drop(e);
                                std::thread::sleep(supervisor.retry.delay(name, save_retries));
                                save_retries += 1;
                                attempts += 1;
                            }
                            Err(e) => return Err(e.into()),
                        }
                    }
                    wall += save_started.elapsed();
                }
                reports.insert(
                    name,
                    StageReport {
                        name,
                        wave: w,
                        status: StageStatus::Ran,
                        start,
                        wall,
                        cards: output.cards,
                        error: None,
                        attempts,
                        timed_out: false,
                        breaker_opened: false,
                    },
                );
                artifacts.insert(name, output.artifact);
            }
        }

        let stages = self
            .stages
            .iter()
            .map(|s| reports.remove(s.name()).expect("every stage reported"))
            .collect();
        let report = RunReport {
            stages,
            total: started.elapsed(),
            warnings,
        };
        // Every run instruments the process-wide registry, so
        // `--metrics` and the benchmark see engine activity
        // without any caller-side plumbing.
        report.feed_registry(towerlens_obs::global());
        Ok(RunOutcome { artifacts, report })
    }
}

#[cfg(test)]
mod tests {
    use super::super::stage::{StageCodec, StageOutput};
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use towerlens_artifact::{ArtifactError, Dec, Enc};

    type RunFn =
        Box<dyn Fn(&StageContext<'_, u64>) -> Result<StageOutput<u64>, EngineError> + Send + Sync>;

    /// A test stage built from closures.
    struct TestStage {
        name: &'static str,
        deps: &'static [&'static str],
        body: RunFn,
        checkpointed: bool,
        is_optional: bool,
    }

    impl TestStage {
        fn new(
            name: &'static str,
            deps: &'static [&'static str],
            body: impl Fn(&StageContext<'_, u64>) -> Result<StageOutput<u64>, EngineError>
                + Send
                + Sync
                + 'static,
        ) -> Self {
            TestStage {
                name,
                deps,
                body: Box::new(body),
                checkpointed: false,
                is_optional: false,
            }
        }

        fn checkpointed(mut self) -> Self {
            self.checkpointed = true;
            self
        }

        fn optional(mut self) -> Self {
            self.is_optional = true;
            self
        }
    }

    /// Codec for `u64` artifacts: one field.
    struct U64Codec;

    impl StageCodec<u64> for U64Codec {
        fn encode(&self, artifact: &u64, out: &mut Enc) -> Result<(), String> {
            out.u64(*artifact);
            Ok(())
        }

        fn decode(&self, body: &mut Dec<'_>) -> Result<u64, ArtifactError> {
            body.u64()
        }
    }

    impl Stage<u64> for TestStage {
        fn name(&self) -> &'static str {
            self.name
        }
        fn deps(&self) -> &'static [&'static str] {
            self.deps
        }
        fn run(&self, ctx: &StageContext<'_, u64>) -> Result<StageOutput<u64>, EngineError> {
            (self.body)(ctx)
        }
        fn codec(&self) -> Option<&dyn StageCodec<u64>> {
            self.checkpointed.then_some(&U64Codec)
        }
        fn optional(&self) -> bool {
            self.is_optional
        }
    }

    fn constant(name: &'static str, deps: &'static [&'static str], v: u64) -> TestStage {
        TestStage::new(name, deps, move |_| Ok(StageOutput::new(v)))
    }

    #[test]
    fn waves_schedule_a_diamond() {
        let g = Graph::new()
            .add_stage(constant("a", &[], 1))
            .add_stage(constant("b", &["a"], 2))
            .add_stage(constant("c", &["a"], 3))
            .add_stage(constant("d", &["b", "c"], 4));
        assert_eq!(
            g.waves().unwrap(),
            vec![vec!["a"], vec!["b", "c"], vec!["d"]]
        );
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let g = Graph::new()
            .add_stage(constant("a", &[], 1))
            .add_stage(constant("a", &[], 2));
        assert!(matches!(
            g.waves(),
            Err(EngineError::DuplicateStage { name }) if name == "a"
        ));
    }

    #[test]
    fn unknown_dependency_is_rejected() {
        let g = Graph::new().add_stage(constant("a", &["ghost"], 1));
        assert!(matches!(
            g.waves(),
            Err(EngineError::UnknownDependency { dep, .. }) if dep == "ghost"
        ));
    }

    #[test]
    fn cycles_are_rejected() {
        let g = Graph::new()
            .add_stage(constant("a", &["b"], 1))
            .add_stage(constant("b", &["a"], 2));
        assert!(matches!(g.waves(), Err(EngineError::Cycle { stages }) if stages.len() == 2));
    }

    #[test]
    fn artifacts_flow_along_dependencies() {
        let g = Graph::new()
            .add_stage(constant("a", &[], 20))
            .add_stage(TestStage::new("b", &["a"], |ctx| {
                Ok(StageOutput::new(ctx.artifact("a")? * 2).with_card("doubled", 1))
            }));
        let mut outcome = g.run(None).unwrap();
        assert_eq!(outcome.take("b").unwrap(), 40);
        let report = outcome.report;
        assert_eq!(report.with_status(StageStatus::Ran).len(), 2);
        assert_eq!(report.stage("b").unwrap().cards[0].to_string(), "doubled=1");
    }

    #[test]
    fn undeclared_artifact_access_fails_typed() {
        let g = Graph::new().add_stage(TestStage::new("lone", &[], |ctx| {
            ctx.artifact("nothing")?;
            unreachable!()
        }));
        assert!(matches!(
            g.run(None),
            Err(EngineError::MissingArtifact { stage, dep }) if stage == "lone" && dep == "nothing"
        ));
    }

    #[test]
    fn stage_failure_carries_the_stage_name() {
        let g = Graph::new()
            .add_stage(constant("ok", &[], 1))
            .add_stage(TestStage::new(
                "boom",
                &["ok"],
                |ctx| Err(ctx.fail("kaput")),
            ));
        match g.run(None) {
            Err(EngineError::Stage { stage, message }) => {
                assert_eq!(stage, "boom");
                assert_eq!(message, "kaput");
            }
            other => panic!("expected stage failure, got {other:?}"),
        }
    }

    /// Independent stages of one wave must be *live concurrently*:
    /// each signals its arrival and then blocks until it has seen the
    /// other, with a generous timeout so a sequential runner fails
    /// the assertion rather than deadlocking.
    #[test]
    fn independent_stages_run_concurrently() {
        #[derive(Default)]
        struct Rendezvous {
            arrived: Mutex<Vec<&'static str>>,
            bell: Condvar,
        }
        let meet = Arc::new(Rendezvous::default());
        let stage = |name: &'static str, partner: &'static str| {
            let meet = Arc::clone(&meet);
            TestStage::new(name, &["src"], move |_| {
                let mut arrived = meet.arrived.lock().unwrap();
                arrived.push(name);
                meet.bell.notify_all();
                let deadline = std::time::Duration::from_secs(10);
                let (guard, timeout) = meet
                    .bell
                    .wait_timeout_while(arrived, deadline, |a| !a.contains(&partner))
                    .unwrap();
                drop(guard);
                Ok(StageOutput::new(u64::from(!timeout.timed_out())))
            })
        };
        let g = Graph::new()
            .add_stage(constant("src", &[], 0))
            .add_stage(stage("left", "right"))
            .add_stage(stage("right", "left"));
        let mut outcome = g.run(None).unwrap();
        assert_eq!(
            outcome.take("left").unwrap(),
            1,
            "left never saw right running"
        );
        assert_eq!(
            outcome.take("right").unwrap(),
            1,
            "right never saw left running"
        );
    }

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir =
            std::env::temp_dir().join(format!("towerlens-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(dir, 99).unwrap()
    }

    /// Builds `a → b → c` with `b` checkpointed, counting executions.
    fn counted_chain(counts: &Arc<[AtomicUsize; 3]>) -> Graph<u64> {
        let track = |i: usize| {
            let counts = Arc::clone(counts);
            move || counts[i].fetch_add(1, Ordering::SeqCst)
        };
        let (ta, tb, tc) = (track(0), track(1), track(2));
        Graph::new()
            .add_stage(TestStage::new("a", &[], move |_| {
                ta();
                Ok(StageOutput::new(5))
            }))
            .add_stage(
                TestStage::new("b", &["a"], move |ctx| {
                    tb();
                    Ok(StageOutput::new(ctx.artifact("a")? + 1).with_card("in", 5))
                })
                .checkpointed(),
            )
            .add_stage(TestStage::new("c", &["b"], move |ctx| {
                tc();
                Ok(StageOutput::new(ctx.artifact("b")? * 10))
            }))
    }

    #[test]
    fn resume_reloads_checkpoints_and_prunes_undemanded_upstream() {
        let store = temp_store("resume");
        let counts: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());

        let mut first = counted_chain(&counts).run(Some(&store)).unwrap();
        assert_eq!(first.take("c").unwrap(), 60);
        assert_eq!(
            first.report.with_status(StageStatus::Ran),
            vec!["a", "b", "c"]
        );

        let mut second = counted_chain(&counts).run(Some(&store)).unwrap();
        assert_eq!(
            second.take("c").unwrap(),
            60,
            "resumed run changed the result"
        );
        let report = &second.report;
        assert_eq!(report.with_status(StageStatus::Cached), vec!["b"]);
        assert_eq!(report.with_status(StageStatus::Skipped), vec!["a"]);
        assert_eq!(report.with_status(StageStatus::Ran), vec!["c"]);
        // Cached stages keep their cards across the reload.
        assert_eq!(report.stage("b").unwrap().cards[0].to_string(), "in=5");
        let runs = |i: usize| counts[i].load(Ordering::SeqCst);
        assert_eq!((runs(0), runs(1), runs(2)), (1, 1, 2));
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_recompute() {
        let store = temp_store("corrupt");
        let counts: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        counted_chain(&counts).run(Some(&store)).unwrap();
        let path = store.path_of("b");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0x20; // "TLARTFCT" -> "tLARTFCT"
        std::fs::write(&path, bytes).unwrap();

        // The damaged file is a warning and a recompute, not a dead
        // run — and the recompute overwrites it, so a third run caches
        // cleanly again.
        let mut second = counted_chain(&counts).run(Some(&store)).unwrap();
        assert_eq!(second.take("c").unwrap(), 60);
        let report = &second.report;
        assert_eq!(report.with_status(StageStatus::Ran), vec!["a", "b", "c"]);
        assert!(
            report.warnings.iter().any(|w| w.contains("stage `b`")),
            "missing warning: {:?}",
            report.warnings
        );

        let mut third = counted_chain(&counts).run(Some(&store)).unwrap();
        assert_eq!(third.take("c").unwrap(), 60);
        assert!(third.report.warnings.is_empty());
        assert_eq!(third.report.with_status(StageStatus::Cached), vec!["b"]);
    }

    type Damage = fn(&std::path::Path);

    #[test]
    fn damaged_checkpoints_fall_back_to_recompute() {
        let damage: [(&str, Damage); 3] = [
            ("truncated", |p| {
                let f = std::fs::OpenOptions::new().write(true).open(p).unwrap();
                let len = f.metadata().unwrap().len();
                f.set_len(len / 2).unwrap();
            }),
            ("flipped", |p| {
                // The body is the value 6 as a little-endian u64, the
                // file's last eight bytes: make it 7.
                let mut bytes = std::fs::read(p).unwrap();
                let at = bytes.len() - 8;
                assert_eq!(bytes[at], 6);
                bytes[at] = 7;
                std::fs::write(p, bytes).unwrap();
            }),
            ("empty", |p| std::fs::write(p, "").unwrap()),
        ];
        for (tag, hurt) in damage {
            let store = temp_store(&format!("damage-{tag}"));
            let counts: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
            counted_chain(&counts).run(Some(&store)).unwrap();
            hurt(&store.path_of("b"));
            let mut again = counted_chain(&counts).run(Some(&store)).unwrap();
            assert_eq!(again.take("c").unwrap(), 60, "{tag}: wrong result");
            assert!(!again.report.warnings.is_empty(), "{tag}: no warning");
            assert_eq!(
                counts[1].load(Ordering::SeqCst),
                2,
                "{tag}: b was not recomputed"
            );
        }
    }

    #[test]
    fn panicking_stage_fails_and_prunes_dependents() {
        let g = Graph::new()
            .add_stage(constant("a", &[], 1))
            .add_stage(TestStage::new("b", &["a"], |_| panic!("boom {}", 7)))
            .add_stage(TestStage::new("c", &["b"], |ctx| {
                Ok(StageOutput::new(ctx.artifact("b")? + 1))
            }))
            .add_stage(TestStage::new("d", &["a"], |ctx| {
                Ok(StageOutput::new(ctx.artifact("a")? + 10))
            }));
        let mut outcome = g.run(None).unwrap();
        let report = &outcome.report;
        assert!(report.degraded());
        assert_eq!(report.with_status(StageStatus::Failed), vec!["b"]);
        assert_eq!(report.with_status(StageStatus::Pruned), vec!["c"]);
        assert_eq!(report.with_status(StageStatus::Ran), vec!["a", "d"]);
        let err = report.stage("b").unwrap().error.as_ref().unwrap();
        assert!(
            matches!(err, EngineError::StagePanicked { message, .. } if message.contains("boom 7")),
            "{err}"
        );
        // Sibling work survived the panic; the dead branch yields no
        // artifact.
        assert_eq!(outcome.take("d").unwrap(), 11);
        assert!(outcome.take("b").is_err());
        assert!(outcome.take("c").is_err());
    }

    #[test]
    fn optional_stage_error_degrades_instead_of_aborting() {
        let g = Graph::new()
            .add_stage(constant("a", &[], 1))
            .add_stage(TestStage::new("b", &["a"], |ctx| Err(ctx.fail("no data"))).optional())
            .add_stage(TestStage::new("c", &["b"], |ctx| {
                Ok(StageOutput::new(*ctx.artifact("b")?))
            }))
            .add_stage(TestStage::new("d", &["c"], |ctx| {
                Ok(StageOutput::new(*ctx.artifact("c")?))
            }));
        let outcome = g.run(None).unwrap();
        let report = &outcome.report;
        assert_eq!(report.with_status(StageStatus::Failed), vec!["b"]);
        // Pruning is transitive: d never had a chance either.
        assert_eq!(report.with_status(StageStatus::Pruned), vec!["c", "d"]);
        assert_eq!(
            report
                .stage("b")
                .unwrap()
                .error
                .as_ref()
                .map(ToString::to_string),
            Some("stage `b` failed: no data".to_string())
        );
    }

    #[test]
    fn run_without_store_never_touches_disk_state() {
        let counts: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        counted_chain(&counts).run(None).unwrap();
        counted_chain(&counts).run(None).unwrap();
        assert_eq!(counts[1].load(Ordering::SeqCst), 2);
    }

    use towerlens_obs::Failpoints;

    /// A supervisor whose backoff unit is tiny, so retry tests spend
    /// microseconds sleeping instead of the production 25 ms base.
    fn fast_supervisor(retries: u32, stage_timeout: Option<Duration>) -> Supervisor {
        let mut sup = Supervisor::new(retries, stage_timeout);
        sup.retry.base = Duration::from_micros(50);
        sup
    }

    #[test]
    fn transient_failures_retry_to_success() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&tries);
        let g = Graph::new().add_stage(TestStage::new("flaky", &[], move |ctx| {
            if t.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(ctx.fail_transient("blip"))
            } else {
                Ok(StageOutput::new(7))
            }
        }));
        let mut outcome = g.run_with(None, &fast_supervisor(3, None)).unwrap();
        assert_eq!(outcome.take("flaky").unwrap(), 7);
        let report = outcome.report.stage("flaky").unwrap();
        assert_eq!(report.status, StageStatus::Ran);
        assert_eq!(report.attempts, 3);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_the_final_error() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&tries);
        let g = Graph::new().add_stage(TestStage::new("flaky", &[], move |ctx| {
            t.fetch_add(1, Ordering::SeqCst);
            Err(ctx.fail_transient("still down"))
        }));
        match g.run_with(None, &fast_supervisor(2, None)) {
            Err(EngineError::Stage { stage, message }) => {
                assert_eq!(stage, "flaky");
                assert!(message.contains("still down"));
            }
            other => panic!("expected stage failure, got {other:?}"),
        }
        // One initial try plus the full retry budget.
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn permanent_errors_fail_fast_despite_retry_budget() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&tries);
        let g = Graph::new().add_stage(TestStage::new("broken", &[], move |ctx| {
            t.fetch_add(1, Ordering::SeqCst);
            Err(ctx.fail("bad data"))
        }));
        assert!(g.run_with(None, &fast_supervisor(5, None)).is_err());
        assert_eq!(tries.load(Ordering::SeqCst), 1, "permanent error retried");
    }

    #[test]
    fn breaker_opens_on_flapping_optional_stage() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&tries);
        let g = Graph::new()
            .add_stage(
                TestStage::new("flap", &[], move |ctx| {
                    t.fetch_add(1, Ordering::SeqCst);
                    Err(ctx.fail_transient("flap"))
                })
                .optional(),
            )
            .add_stage(TestStage::new("down", &["flap"], |ctx| {
                Ok(StageOutput::new(*ctx.artifact("flap")?))
            }));
        // Budget of 10 retries, but the breaker (threshold 3) opens
        // long before it is spent.
        let outcome = g.run_with(None, &fast_supervisor(10, None)).unwrap();
        let report = &outcome.report;
        assert_eq!(report.with_status(StageStatus::Failed), vec!["flap"]);
        assert_eq!(report.with_status(StageStatus::Pruned), vec!["down"]);
        let flap = report.stage("flap").unwrap();
        assert!(flap.breaker_opened);
        assert_eq!(flap.attempts, 3);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn watchdog_declares_overrunning_optional_stage_lost() {
        let g = Graph::new()
            .add_stage(constant("a", &[], 1))
            .add_stage(
                TestStage::new("slow", &["a"], |_| {
                    std::thread::sleep(Duration::from_millis(400));
                    Ok(StageOutput::new(9))
                })
                .optional(),
            )
            .add_stage(TestStage::new("behind", &["slow"], |ctx| {
                Ok(StageOutput::new(*ctx.artifact("slow")?))
            }))
            .add_stage(TestStage::new("sibling", &["a"], |ctx| {
                Ok(StageOutput::new(ctx.artifact("a")? + 1))
            }));
        let sup = Supervisor::new(0, Some(Duration::from_millis(40)));
        let mut outcome = g.run_with(None, &sup).unwrap();
        let report = &outcome.report;
        assert_eq!(report.with_status(StageStatus::Failed), vec!["slow"]);
        assert_eq!(report.with_status(StageStatus::Pruned), vec!["behind"]);
        let slow = report.stage("slow").unwrap();
        assert!(slow.timed_out);
        let err = slow.error.as_ref().unwrap().to_string();
        assert!(err.contains("40 ms budget"), "{err}");
        // The sibling's result committed; the straggler's was
        // discarded even though its thread eventually finished.
        assert_eq!(outcome.take("sibling").unwrap(), 2);
        assert!(outcome.take("slow").is_err());
    }

    #[test]
    fn required_stage_timeout_fails_the_run() {
        let g = Graph::new().add_stage(TestStage::new("slow", &[], |_| {
            std::thread::sleep(Duration::from_millis(300));
            Ok(StageOutput::new(1))
        }));
        let sup = Supervisor::new(0, Some(Duration::from_millis(30)));
        match g.run_with(None, &sup) {
            Err(EngineError::StageTimedOut { stage, budget_ms }) => {
                assert_eq!(stage, "slow");
                assert_eq!(budget_ms, 30);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn fast_stages_run_unbothered_under_a_deadline() {
        let store = temp_store("deadline-quiet");
        let counts: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        let sup = Supervisor::new(1, Some(Duration::from_secs(30)));
        let mut outcome = counted_chain(&counts).run_with(Some(&store), &sup).unwrap();
        assert_eq!(outcome.take("c").unwrap(), 60);
        assert_eq!(
            outcome.report.with_status(StageStatus::Ran),
            vec!["a", "b", "c"]
        );
        assert!(outcome.report.stages.iter().all(|s| !s.timed_out));
    }

    #[test]
    fn injected_save_faults_retry_within_budget() {
        let store = temp_store("io-retry")
            .with_failpoints(Failpoints::parse("checkpoint.save.b=err*2").unwrap());
        let counts: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        let mut outcome = counted_chain(&counts)
            .run_with(Some(&store), &fast_supervisor(2, None))
            .unwrap();
        assert_eq!(outcome.take("c").unwrap(), 60);
        let b = outcome.report.stage("b").unwrap();
        assert_eq!(b.status, StageStatus::Ran);
        assert_eq!(b.attempts, 3, "1 compute + 2 save retries");
        // The checkpoint landed after the burst: a fresh run caches it.
        let second = counted_chain(&counts).run(Some(&store)).unwrap();
        assert_eq!(second.report.with_status(StageStatus::Cached), vec!["b"]);
    }

    #[test]
    fn injected_save_faults_beyond_budget_abort() {
        let store = temp_store("io-abort")
            .with_failpoints(Failpoints::parse("checkpoint.save.b=err*3").unwrap());
        let counts: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        let err = counted_chain(&counts)
            .run_with(Some(&store), &fast_supervisor(2, None))
            .unwrap_err();
        assert!(
            matches!(err, EngineError::Checkpoint(CheckpointError::Io { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn injected_load_faults_retry_during_probe() {
        let store = temp_store("probe-retry");
        let counts: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        counted_chain(&counts).run(Some(&store)).unwrap();
        let store = store.with_failpoints(Failpoints::parse("checkpoint.load.b=err*1").unwrap());
        let mut again = counted_chain(&counts)
            .run_with(Some(&store), &fast_supervisor(2, None))
            .unwrap();
        assert_eq!(again.take("c").unwrap(), 60);
        let b = again.report.stage("b").unwrap();
        assert_eq!(b.status, StageStatus::Cached);
        assert_eq!(b.attempts, 2, "one probe retry before the hit");
    }

    #[test]
    fn default_supervisor_reproduces_plain_run() {
        let store = temp_store("sup-default");
        let counts: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        let mut via_run = counted_chain(&counts).run(Some(&store)).unwrap();
        let mut via_sup = counted_chain(&counts)
            .run_with(Some(&store), &Supervisor::default())
            .unwrap();
        assert_eq!(via_run.take("c").unwrap(), via_sup.take("c").unwrap());
        assert_eq!(via_sup.report.with_status(StageStatus::Cached), vec!["b"]);
    }
}
