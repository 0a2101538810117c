//! The failpoint registry: seeded fault injection for the chaos
//! suites, configured by one environment variable with one grammar.
//!
//! ```text
//! TOWERLENS_FAILPOINTS='<point>=<action>[;<point>=<action>…]'
//!
//! action := panic        panic at every hit
//!         | err*<n>      fail the first <n> hits with an injected error
//!         | abort@<n>    abort the process at the <n>-th hit
//! ```
//!
//! `POINTS` declares every point and the action it takes. A
//! malformed entry, an unknown point, an action the point does not
//! take, or a point configured twice is a [`FailpointError`] naming
//! the variable and the entry: a chaos run with a misspelt failpoint
//! must fail loudly, not pass having injected nothing.
//!
//! Each configured point counts its own hits ([`Failpoints::hit`]),
//! which `err*<n>` and `abort@<n>` count against. The registry
//! registers no metrics, and with nothing configured a hit costs one
//! load.
//!
//! [`failpoints`] is the process registry, parsed from the environment
//! on first use; tests build isolated ones with [`Failpoints::parse`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The environment variable the process registry is read from.
const FAILPOINTS_ENV: &str = "TOWERLENS_FAILPOINTS";

/// Every failpoint as `(point, action, where it fires)`. `<stage>`
/// stands for a stage of the graph being run. The durable-replace
/// protocol fires
/// `<file>.tmp` after the temp file's fsync and `<file>` after the
/// rename, for each of the five files it writes.
#[rustfmt::skip]
const POINTS: &[(&str, &str, &str)] = &[
    ("stage.<stage>", "panic", "before the stage runs"),
    ("checkpoint.save.<stage>", "err*<n>", "before the stage's checkpoint is written"),
    ("checkpoint.load.<stage>", "err*<n>", "before the stage's checkpoint is read"),
    ("checkpoint.tmp", "abort@<n>", "after a checkpoint's temp file is fsynced"),
    ("checkpoint", "abort@<n>", "after a checkpoint replace (stages, serve's drain snapshot)"),
    ("artifact.tmp", "abort@<n>", "after a query artifact's temp file is fsynced"),
    ("artifact", "abort@<n>", "after a query artifact replace"),
    ("publish.gen.tmp", "abort@<n>", "after a generation's temp file is fsynced"),
    ("publish.gen", "abort@<n>", "after a generation is renamed, before CURRENT moves"),
    ("publish.cur.tmp", "abort@<n>", "after CURRENT.tmp is fsynced"),
    ("publish.cur", "abort@<n>", "after CURRENT is replaced"),
    ("wal.repair.tmp", "abort@<n>", "after a torn WAL segment's repair is fsynced"),
    ("wal.repair", "abort@<n>", "after a torn WAL segment is replaced"),
    ("wal.seal", "abort@<n>", "after a WAL segment is sealed"),
];

/// What a failpoint does when its site reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// `panic`: panic at every hit.
    Panic,
    /// `err*<n>`: the first `n` hits fail with an injected error.
    Err(u64),
    /// `abort@<n>`: abort the process at the `n`-th hit.
    Abort(u64),
}

impl Action {
    fn parse(text: &str) -> Result<Action, String> {
        let count = |digits: &str| {
            digits
                .parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("bad argument in `{text}` (a count of at least 1)"))
        };
        if text == "panic" {
            Ok(Action::Panic)
        } else if let Some(n) = text.strip_prefix("err*") {
            count(n).map(Action::Err)
        } else if let Some(n) = text.strip_prefix("abort@") {
            count(n).map(Action::Abort)
        } else {
            Err(format!(
                "unknown action `{text}` (expected panic, err*<n> or abort@<n>)"
            ))
        }
    }

    /// The action's form as [`POINTS`] writes it.
    fn form(self) -> &'static str {
        match self {
            Action::Panic => "panic",
            Action::Err(_) => "err*<n>",
            Action::Abort(_) => "abort@<n>",
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Panic => write!(f, "panic"),
            Action::Err(n) => write!(f, "err*{n}"),
            Action::Abort(n) => write!(f, "abort@{n}"),
        }
    }
}

/// The [`POINTS`] row naming `point`: its action, and the point's
/// `<stage>` argument when it takes one.
fn lookup(point: &str) -> Option<(&'static str, Option<&str>)> {
    POINTS.iter().find_map(|&(name, takes, _)| {
        let Some(prefix) = name.strip_suffix("<stage>") else {
            return (point == name).then_some((takes, None));
        };
        let stage = point.strip_prefix(prefix).filter(|v| !v.is_empty())?;
        Some((takes, Some(stage)))
    })
}

/// A rejected `TOWERLENS_FAILPOINTS` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailpointError {
    /// The offending `<point>=<action>` entry.
    pub entry: String,
    /// What is wrong with it.
    pub reason: String,
}

impl fmt::Display for FailpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{FAILPOINTS_ENV}: entry `{}`: {}",
            self.entry, self.reason
        )
    }
}

impl std::error::Error for FailpointError {}

#[derive(Debug)]
struct Entry {
    point: String,
    /// The `<stage>` argument, for the points that take one.
    stage: Option<String>,
    action: Action,
    hits: AtomicU64,
}

/// A set of configured failpoints with per-point hit counters.
#[derive(Debug, Default)]
pub struct Failpoints {
    entries: Vec<Entry>,
}

/// True when `point` is `parts` joined by `.`.
fn is_point(point: &str, parts: &[&str]) -> bool {
    point.split('.').eq(parts.iter().flat_map(|p| p.split('.')))
}

impl Failpoints {
    /// Parses a spec in the module's grammar. Empty entries are
    /// ignored; an empty spec configures nothing.
    ///
    /// # Errors
    /// The [`FailpointError`] of the first rejected entry.
    pub fn parse(spec: &str) -> Result<Failpoints, FailpointError> {
        let mut entries: Vec<Entry> = Vec::new();
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let fail = |reason: String| FailpointError {
                entry: entry.to_string(),
                reason,
            };
            let (point, action) = entry
                .split_once('=')
                .ok_or_else(|| fail("expected `<point>=<action>`".into()))?;
            let (point, action) = (point.trim(), action.trim());
            let (takes, stage) = lookup(point).ok_or_else(|| {
                let table: Vec<String> = POINTS
                    .iter()
                    .map(|(point, takes, fires)| format!("  {point:<24} {takes:<12} {fires}"))
                    .collect();
                fail(format!(
                    "unknown point `{point}`; the points are:\n{}",
                    table.join("\n")
                ))
            })?;
            let action = Action::parse(action).map_err(fail)?;
            if action.form() != takes {
                return Err(fail(format!(
                    "point `{point}` takes {takes}, not `{action}`"
                )));
            }
            if entries.iter().any(|e| e.point == point) {
                return Err(fail(format!("point `{point}` is configured twice")));
            }
            entries.push(Entry {
                point: point.to_string(),
                stage: stage.map(str::to_string),
                action,
                hits: AtomicU64::new(0),
            });
        }
        Ok(Failpoints { entries })
    }

    /// Counts a hit on the point named by `parts` joined with `.` and
    /// acts on it: `panic` panics, `abort@<n>` aborts the process at
    /// the n-th hit. Unconfigured points do nothing.
    ///
    /// # Errors
    /// For an `err*<n>` point within its first `n` hits, the message
    /// naming the point and the hit ordinal.
    pub fn hit(&self, parts: &[&str]) -> Result<(), String> {
        if self.entries.is_empty() {
            return Ok(());
        }
        let Some(entry) = self.entries.iter().find(|e| is_point(&e.point, parts)) else {
            return Ok(());
        };
        let hit = entry.hits.fetch_add(1, Ordering::SeqCst) + 1;
        let fired = || {
            format!(
                "failpoint `{}={}` fired at hit {hit}",
                entry.point, entry.action
            )
        };
        match entry.action {
            Action::Panic => panic!("{}", fired()),
            Action::Err(n) if hit <= n => return Err(fired()),
            Action::Abort(n) if hit == n => {
                eprintln!("{} — aborting", fired());
                std::process::abort();
            }
            Action::Err(_) | Action::Abort(_) => {}
        }
        Ok(())
    }

    /// Rejects an entry whose `<stage>` is not one of `stages`: a
    /// misspelt stage would otherwise never fire.
    ///
    /// # Errors
    /// The [`FailpointError`] of the first such entry.
    pub fn check_stages(&self, stages: &[&str]) -> Result<(), FailpointError> {
        for entry in &self.entries {
            if let Some(stage) = entry.stage.as_deref() {
                if !stages.contains(&stage) {
                    return Err(FailpointError {
                        entry: format!("{}={}", entry.point, entry.action),
                        reason: format!(
                            "no stage `{stage}` in the graph being run (stages: {})",
                            stages.join(", ")
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

static PROCESS: OnceLock<Result<Failpoints, FailpointError>> = OnceLock::new();
static EMPTY: Failpoints = Failpoints {
    entries: Vec::new(),
};

fn process() -> &'static Result<Failpoints, FailpointError> {
    PROCESS.get_or_init(|| match std::env::var_os(FAILPOINTS_ENV) {
        Some(spec) => Failpoints::parse(&spec.to_string_lossy()),
        None => Ok(Failpoints::default()),
    })
}

/// The process registry, parsed from `TOWERLENS_FAILPOINTS` on first
/// use. A malformed spec configures nothing here; [`check_failpoints`]
/// reports it, and every CLI command calls that before any work.
pub fn failpoints() -> &'static Failpoints {
    process().as_ref().unwrap_or(&EMPTY)
}

/// The parse error of a malformed `TOWERLENS_FAILPOINTS`, if any.
///
/// # Errors
/// The [`FailpointError`] of the first rejected entry.
pub fn check_failpoints() -> Result<(), FailpointError> {
    process().as_ref().map(|_| ()).map_err(Clone::clone)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_point_and_action_parses_and_renders_back() {
        let spec = "stage.cluster=panic;checkpoint.save.vectorize=err*2;\
                    checkpoint=abort@3;wal.seal=abort@1;publish.cur=abort@2";
        let fp = Failpoints::parse(spec).unwrap();
        let rendered: Vec<String> = fp
            .entries
            .iter()
            .map(|e| format!("{}={}", e.point, e.action))
            .collect();
        assert_eq!(rendered.join(";"), spec);
        assert!(Failpoints::parse(" ; wal.seal = abort@1 ;").is_ok());
        assert!(Failpoints::parse("").unwrap().entries.is_empty());
        for (point, takes, _) in POINTS {
            let point = point.replace("<stage>", "s");
            let action = takes.replace("<n>", "1");
            Failpoints::parse(&format!("{point}={action}")).unwrap();
        }
    }

    /// One row per rejection: the spec, and what the error says about
    /// its last entry (the one it names).
    #[test]
    fn grammar_rejects_every_malformed_entry() {
        for (spec, says) in [
            ("garbage", "expected `<point>=<action>`"),
            ("checkpoint", "expected `<point>=<action>`"),
            ("=panic", "unknown point ``"),
            ("stage=panic", "unknown point `stage`"),
            ("stage.=panic", "unknown point `stage.`"),
            ("chekpoint=abort@1", "unknown point `chekpoint`"),
            ("publish.fsync=abort@1", "unknown point"),
            ("shard.0=err*2", "unknown point `shard.0`"),
            ("query.cost=mul(2)", "unknown point `query.cost`"),
            ("checkpoint.save=err*1", "unknown point"),
            ("checkpoint=explode", "unknown action `explode`"),
            ("checkpoint=", "unknown action ``"),
            ("stage.label=sleep", "unknown action `sleep`"),
            ("stage.label=sleep(1)", "unknown action `sleep(1)`"),
            ("stage.label=sleep(6s)", "unknown action `sleep(6s)`"),
            ("checkpoint=abort@two", "bad argument in `abort@two`"),
            ("checkpoint=abort@0", "bad argument in `abort@0`"),
            ("checkpoint.save.b=err*0", "bad argument in `err*0`"),
            ("checkpoint.save.b=err*x", "bad argument"),
            ("checkpoint=mul(2)", "unknown action `mul(2)`"),
            ("stage.label=err*1", "takes panic, not"),
            ("checkpoint=panic", "`checkpoint` takes abort@<n>"),
            ("checkpoint.load.b=abort@1", "takes err*<n>, not `abort@1`"),
            ("wal.seal=abort@1;wal.seal=abort@2", "configured twice"),
            ("checkpoint=abort@1;publish.gen=x", "unknown action `x`"),
        ] {
            let entry = spec.rsplit(';').next().unwrap();
            let err = Failpoints::parse(spec).unwrap_err();
            assert_eq!(err.entry, entry, "spec `{spec}`");
            let rendered = err.to_string();
            let head = format!("TOWERLENS_FAILPOINTS: entry `{entry}`: ");
            assert!(
                rendered.starts_with(&head) && rendered.contains(says),
                "spec `{spec}`: {rendered}"
            );
        }
        // An unknown point lists the whole point table.
        let listing = Failpoints::parse("chekpoint=abort@1").unwrap_err().reason;
        assert!(POINTS.iter().all(|(point, _, _)| listing.contains(point)));
    }

    #[test]
    fn err_fails_exactly_the_first_n_hits_of_its_point() {
        let fp = Failpoints::parse("checkpoint.save.b=err*2").unwrap();
        // Other points neither fail nor consume the burst.
        assert!(fp.hit(&["checkpoint", "load", "b"]).is_ok());
        assert!(fp.hit(&["checkpoint", "save", "a"]).is_ok());
        assert_eq!(
            fp.hit(&["checkpoint", "save", "b"]),
            Err("failpoint `checkpoint.save.b=err*2` fired at hit 1".into())
        );
        assert!(fp.hit(&["checkpoint.save", "b"]).is_err());
        assert!(fp.hit(&["checkpoint", "save", "b"]).is_ok(), "burst over");
        // Abort before its ordinal is a counted no-op; panic names the
        // point and the hit.
        let fp = Failpoints::parse("publish.gen.tmp=abort@3;stage.label=panic").unwrap();
        assert!(fp.hit(&["publish.gen", "tmp"]).is_ok());
        assert!(fp.hit(&["publish.gen"]).is_ok());
        assert_eq!(fp.entries[0].hits.load(Ordering::SeqCst), 1);
        let payload = std::panic::catch_unwind(|| fp.hit(&["stage", "label"])).unwrap_err();
        let message = payload.downcast_ref::<String>().unwrap();
        assert_eq!(message, "failpoint `stage.label=panic` fired at hit 1");
    }

    #[test]
    fn stage_arguments_are_checked_against_the_graph() {
        let stages = ["vectorize", "cluster", "label"];
        let spec = "stage.label=panic;checkpoint.load.cluster=err*1;checkpoint=abort@2";
        assert!(Failpoints::parse(spec)
            .unwrap()
            .check_stages(&stages)
            .is_ok());
        let spec = "checkpoint.save.vectorise=err*2";
        let err = Failpoints::parse(spec)
            .unwrap()
            .check_stages(&stages)
            .unwrap_err();
        assert_eq!(err.entry, spec);
        assert_eq!(
            err.reason,
            "no stage `vectorise` in the graph being run (stages: vectorize, cluster, label)"
        );
    }
}
