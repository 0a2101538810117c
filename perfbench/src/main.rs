//! towerlens benchmark: four closed-loop workloads driven through the
//! crates' public functions, measured end to end (untraced pass) and
//! per layer (traced pass).
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `study-paper`, `study-medium-raw`, `query-reload`,
//! `ingest` (see `report::WORKLOADS` for why each was chosen). The last
//! line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` with the
//! end-to-end metrics for `--trace 0` and the per-layer metrics for
//! `--trace 1`. Tables with units and sample counts come before it.
//! Every run also writes `.bench_out/<workload>-seed<n>-trace<t>.json`
//! (provenance, all values with sample counts, failed checks) and, when
//! traced, the span log `.bench_out/<workload>-seed<n>-spans.json`.
//! Scratch files live under `.bench_run/` and are removed at exit.

mod ingest;
mod query;
mod report;
mod spans;
mod stats;
mod study;
mod sys;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload <study-paper|study-medium-raw|query-reload|ingest|all> \
--seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
}

fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn number<T: std::str::FromStr>(
    argv: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(argv, name) {
        Some(v) => v.parse().map_err(|_| format!("{name}: bad value `{v}`")),
        None => default.ok_or_else(|| format!("{name} is required")),
    }
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let workload = flag(argv, "--workload")
        .ok_or("--workload is required")?
        .to_string();
    if workload != "all" && !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let trace: u8 = number(argv, "--trace", Some(0))?;
    if trace > 1 {
        return Err("--trace must be 0 or 1".to_string());
    }
    Ok(Args {
        workload,
        seed: number(argv, "--seed", None)?,
        seconds: number(argv, "--seconds", None)?,
        trace: trace == 1,
        threads: sys::nproc(),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("make-snapshot") {
        return make_snapshot(&argv);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_one(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The child-process entry that builds one query snapshot.
fn make_snapshot(argv: &[String]) -> ExitCode {
    let built = (|| -> Result<(), String> {
        let seed = number(argv, "--seed", None)?;
        let out = flag(argv, "--out").ok_or("--out is required")?;
        query::make_snapshot(seed, sys::nproc(), Path::new(out))
    })();
    match built {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench make-snapshot: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, untraced then traced, each in its own process
/// so peak memory is per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for trace in ["0", "1"] {
            println!("== {workload} --trace {trace}");
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(args: &Args) -> Result<(), String> {
    let trace = u8::from(args.trace);
    let scratch = PathBuf::from(".bench_run").join(format!(
        "{}-s{}-t{}-{}",
        args.workload,
        args.seed,
        trace,
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut outcome = match args.workload.as_str() {
        "study-paper" => study::run(
            study::Preset::Paper,
            args.seed,
            args.seconds,
            args.threads,
            args.trace,
        ),
        "study-medium-raw" => study::run(
            study::Preset::MediumRaw,
            args.seed,
            args.seconds,
            args.threads,
            args.trace,
        ),
        "query-reload" => query::run(args.seed, args.seconds, args.threads, args.trace, &scratch),
        "ingest" => ingest::run(args.seed, args.seconds, args.trace, &scratch),
        other => unreachable!("workload `{other}` passed validation"),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_run");

    if !args.trace {
        outcome.metric("peak_heap_mb", sys::peak_heap_mb(), 1);
        outcome.detail("peak_rss_mb", sys::peak_rss_mb(), "MiB", 1);
    }
    outcome.provenance("workload", &args.workload);
    outcome.provenance("seed", args.seed);
    outcome.provenance("seconds", args.seconds);
    outcome.provenance("trace", trace);
    outcome.provenance("git_rev", sys::git_rev());
    outcome.provenance("nproc", sys::nproc());
    outcome.provenance("cpu_model", sys::cpu_model());

    let values = outcome.select(if args.trace { &PER_LAYER } else { &END_TO_END });
    print_tables(args, &outcome, &values);
    write_files(args, &outcome, &values)?;
    println!("{}", report::result_line(&outcome, &values));
    Ok(())
}

fn print_tables(args: &Args, outcome: &Outcome, values: &[report::Value]) {
    let pass = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "{}",
        report::value_table(
            &format!("{} seed {}: {pass} metrics", args.workload, args.seed),
            values
        )
    );
    if !outcome.details.is_empty() {
        println!(
            "{}",
            report::value_table("workload details", &outcome.details)
        );
    }
    if !outcome.layers.is_empty() {
        println!("{}", report::layer_table(&outcome.layers));
    }
    for (key, value) in &outcome.provenance {
        println!("  {key:<14} {value}");
    }
    let verdict = if outcome.correct() {
        "correct"
    } else {
        "INCORRECT"
    };
    println!(
        "{verdict}: attempted {} failed {} failed-checks {}",
        outcome.attempted,
        outcome.failed,
        outcome.problems.len()
    );
}

fn write_files(args: &Args, outcome: &Outcome, values: &[report::Value]) -> Result<(), String> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let base = format!("{}-seed{}", args.workload, args.seed);
    let result = dir.join(format!("{base}-trace{}.json", u8::from(args.trace)));
    std::fs::write(&result, report::result_document(outcome, values))
        .map_err(|e| format!("{}: {e}", result.display()))?;
    if let Some(tracer) = &outcome.spans {
        let path = dir.join(format!("{base}-spans.json"));
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "..."` values inside the JSON array under `key`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array");
        let mut depth = 0usize;
        let mut end = open;
        for (i, c) in json[open..].char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + i;
                        break;
                    }
                }
                _ => {}
            }
        }
        json[open..end]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').unwrap() + 1..];
                rest[..rest.find('"').unwrap()].to_string()
            })
            .collect()
    }

    fn benchmark_json() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_names() {
        let json = benchmark_json();
        let workloads: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        assert_eq!(names_in(&json, "workloads"), workloads);
        let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names_in(&json, "per_layer"), layers);
    }

    #[test]
    fn benchmark_json_carries_the_catalogue_units_bounds_and_whys() {
        let json = benchmark_json();
        for (workload, why) in WORKLOADS {
            let entry = format!("{{\"name\": \"{workload}\", \"why\": \"{why}\"}}");
            assert!(json.contains(&entry), "missing {entry}");
        }
        for d in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better,
                d.bound.unwrap()
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for d in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
    }

    #[test]
    fn arguments_parse_and_reject_unknown_workloads() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&argv("--workload ingest --seed 3 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("ingest", 3, 5, true)
        );
        assert!(parse(&argv("--workload nope --seed 3 --seconds 5 --trace 0")).is_err());
        assert!(parse(&argv("--workload ingest --seconds 5 --trace 0")).is_err());
        assert!(parse(&argv("--workload ingest --seed 1 --seconds 5 --trace 2")).is_err());
    }
}
