//! Graph validation, wave scheduling, and execution.
//!
//! [`Graph::run`] is the engine's one entry point. A wave's single
//! runnable stage runs inline on the caller's thread, several run on
//! scoped threads, and the wave commits once all of them returned.
//! Nothing inside the process bounds a stage's wall time: a thread
//! cannot be stopped, so a straggler is the process supervisor's to
//! kill, and `--resume` picks the run up from its checkpoints. What
//! the runner does retry is checkpoint I/O ([`retry_io`]).

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use super::checkpoint::{CheckpointError, CheckpointStore};
use super::report::{RunReport, StageReport, StageStatus};
use super::stage::{Card, Stage, StageContext, StageOutput};
use super::supervisor::retry_io;
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

/// What one stage execution produced: its result plus the timing the
/// report needs.
struct StageRun<A> {
    index: usize,
    result: Result<StageOutput<A>, EngineError>,
    start: Duration,
    wall: Duration,
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
    /// When the stage produced none: the first failed stage's own
    /// error, which a failed or pruned stage always has behind it;
    /// [`EngineError::MissingArtifact`] when no stage failed (the
    /// stage was skipped, or its artifact already taken).
    pub fn take(&mut self, name: &str) -> Result<A, EngineError> {
        self.artifacts.remove(name).ok_or_else(|| {
            self.report
                .first_error()
                .cloned()
                .unwrap_or_else(|| EngineError::MissingArtifact {
                    stage: "<outcome>".to_string(),
                    dep: name.to_string(),
                })
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

    /// Runs the graph, retrying each checkpoint probe and save that
    /// fails with [`CheckpointError::Io`] up to `retries` times
    /// ([`retry_io`]). Each stage runs once: a stage's own error or
    /// panic is final.
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
    /// I/O errors past the retry budget abort.
    ///
    /// Stage failures are contained where the graph can survive them:
    /// a panic in any stage, or an error from a [`Stage::optional`]
    /// stage, marks that stage [`StageStatus::Failed`] (with the
    /// rendered error in its report), transitively prunes its
    /// dependents ([`StageStatus::Pruned`] — unless their artifact was
    /// already cached), and lets the rest of the run complete. An
    /// error from a non-optional stage still fails the run.
    ///
    /// Before the first stage starts, the failpoints the run fires on
    /// (the process registry's `stage.<stage>`, and the store's
    /// `checkpoint.{save,load}.<stage>`) must name stages of this
    /// graph: a misspelt stage would otherwise inject nothing.
    ///
    /// # Errors
    /// Scheduling errors, checkpoint I/O errors past the retry budget,
    /// the first failing non-optional stage's error, and
    /// [`EngineError::Failpoint`] for a failpoint naming an unknown
    /// stage.
    pub fn run(
        &self,
        store: Option<&CheckpointStore>,
        retries: u32,
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
        // error retries under the budget before aborting.
        let mut cached: HashMap<&'static str, CachedProbe<A>> = HashMap::new();
        let mut probe_retries: HashMap<&'static str, u32> = HashMap::new();
        if let Some(store) = store {
            for s in &self.stages {
                if let Some(codec) = s.codec() {
                    let probe_started = Instant::now();
                    let probe_offset = probe_started.duration_since(started);
                    let (outcome, taken) = retry_io(retries, || store.load(s.name(), codec));
                    if taken > 0 {
                        probe_retries.insert(s.name(), taken);
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
                                    attempts: taken + 1,
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
                // Contain panics so one sick stage cannot take down its
                // wave siblings (or the process).
                let result = catch_unwind(AssertUnwindSafe(|| {
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
                StageRun {
                    index: i,
                    result,
                    start: stage_started.duration_since(started),
                    wall: stage_started.elapsed(),
                }
            };
            // A single runnable stage executes inline: no thread spawn
            // on the (common) sequential spine. Several run on scoped
            // threads, joined in registration order, so the wave
            // commits in that order whatever order they finish in and
            // the first-error semantics stay deterministic.
            let results: Vec<StageRun<A>> = if to_run.len() <= 1 {
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

            for run in results {
                let StageRun {
                    index: i,
                    result,
                    start,
                    mut wall,
                } = run;
                let stage = &self.stages[i];
                let name = stage.name();
                let mut attempts = 1 + probe_retries.get(name).copied().unwrap_or(0);
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
                            },
                        );
                        continue;
                    }
                };
                if let (Some(store), Some(codec)) = (store, stage.codec()) {
                    let save_started = Instant::now();
                    let (saved, save_retries) = retry_io(retries, || {
                        store.save(name, &output.cards, codec, &output.artifact)
                    });
                    saved?;
                    attempts += save_retries;
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
        let mut outcome = g.run(None, 0).unwrap();
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
            g.run(None, 0),
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
        match g.run(None, 0) {
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
        let mut outcome = g.run(None, 0).unwrap();
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

        let mut first = counted_chain(&counts).run(Some(&store), 0).unwrap();
        assert_eq!(first.take("c").unwrap(), 60);
        assert_eq!(
            first.report.with_status(StageStatus::Ran),
            vec!["a", "b", "c"]
        );

        let mut second = counted_chain(&counts).run(Some(&store), 0).unwrap();
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
        counted_chain(&counts).run(Some(&store), 0).unwrap();
        let path = store.path_of("b");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0x20; // "TLARTFCT" -> "tLARTFCT"
        std::fs::write(&path, bytes).unwrap();

        // The damaged file is a warning and a recompute, not a dead
        // run — and the recompute overwrites it, so a third run caches
        // cleanly again.
        let mut second = counted_chain(&counts).run(Some(&store), 0).unwrap();
        assert_eq!(second.take("c").unwrap(), 60);
        let report = &second.report;
        assert_eq!(report.with_status(StageStatus::Ran), vec!["a", "b", "c"]);
        assert!(
            report.warnings.iter().any(|w| w.contains("stage `b`")),
            "missing warning: {:?}",
            report.warnings
        );

        let mut third = counted_chain(&counts).run(Some(&store), 0).unwrap();
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
            counted_chain(&counts).run(Some(&store), 0).unwrap();
            hurt(&store.path_of("b"));
            let mut again = counted_chain(&counts).run(Some(&store), 0).unwrap();
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
        let mut outcome = g.run(None, 0).unwrap();
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
        // artifact, and asking for one gets the panic that killed it.
        assert_eq!(outcome.take("d").unwrap(), 11);
        for dead in ["b", "c"] {
            assert!(
                matches!(outcome.take(dead), Err(EngineError::StagePanicked { stage, .. }) if stage == "b"),
                "{dead}"
            );
        }
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
        let outcome = g.run(None, 0).unwrap();
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
        counted_chain(&counts).run(None, 0).unwrap();
        counted_chain(&counts).run(None, 0).unwrap();
        assert_eq!(counts[1].load(Ordering::SeqCst), 2);
    }

    use towerlens_obs::Failpoints;

    #[test]
    fn permanent_errors_fail_fast_despite_retry_budget() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&tries);
        let g = Graph::new().add_stage(TestStage::new("broken", &[], move |ctx| {
            t.fetch_add(1, Ordering::SeqCst);
            Err(ctx.fail("bad data"))
        }));
        assert!(g.run(None, 5).is_err());
        assert_eq!(tries.load(Ordering::SeqCst), 1, "permanent error retried");
    }

    #[test]
    fn injected_save_faults_retry_within_budget() {
        let store = temp_store("io-retry")
            .with_failpoints(Failpoints::parse("checkpoint.save.b=err*2").unwrap());
        let counts: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        let mut outcome = counted_chain(&counts).run(Some(&store), 2).unwrap();
        assert_eq!(outcome.take("c").unwrap(), 60);
        let b = outcome.report.stage("b").unwrap();
        assert_eq!(b.status, StageStatus::Ran);
        assert_eq!(b.attempts, 3, "1 compute + 2 save retries");
        // The checkpoint landed after the burst: a fresh run caches it.
        let second = counted_chain(&counts).run(Some(&store), 0).unwrap();
        assert_eq!(second.report.with_status(StageStatus::Cached), vec!["b"]);
    }

    #[test]
    fn injected_save_faults_beyond_budget_abort() {
        let store = temp_store("io-abort")
            .with_failpoints(Failpoints::parse("checkpoint.save.b=err*3").unwrap());
        let counts: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        let err = counted_chain(&counts).run(Some(&store), 2).unwrap_err();
        assert!(
            matches!(err, EngineError::Checkpoint(CheckpointError::Io { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn injected_load_faults_retry_during_probe() {
        let store = temp_store("probe-retry");
        let counts: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        counted_chain(&counts).run(Some(&store), 0).unwrap();
        let store = store.with_failpoints(Failpoints::parse("checkpoint.load.b=err*1").unwrap());
        let mut again = counted_chain(&counts).run(Some(&store), 2).unwrap();
        assert_eq!(again.take("c").unwrap(), 60);
        let b = again.report.stage("b").unwrap();
        assert_eq!(b.status, StageStatus::Cached);
        assert_eq!(b.attempts, 2, "one probe retry before the hit");
    }
}
