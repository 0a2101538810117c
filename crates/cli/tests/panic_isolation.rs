//! Panic containment, end to end: a stage that panics mid-study is
//! converted into a per-stage failure — the process survives, the
//! run report names the casualty, and the CLI exits non-zero with the
//! status table.
//!
//! The failpoint is `stage.label=panic` in the `TOWERLENS_FAILPOINTS`
//! environment variable, which the process registry reads once — so
//! this integration-test binary holds exactly one test and nothing
//! else may share the process.

use towerlens_cli::{run_study, study_config};
use towerlens_core::StageStatus;

#[test]
fn injected_panic_degrades_the_study_instead_of_aborting() {
    std::env::set_var("TOWERLENS_FAILPOINTS", "stage.label=panic");

    // Library surface: the panic is contained to the `label` stage.
    let config = study_config("tiny", 42).expect("scale");
    let (report, run_report) = run_study(config, None).expect("study survives the panic");
    assert!(run_report.degraded());
    assert_eq!(run_report.with_status(StageStatus::Failed), vec!["label"]);
    let error = run_report
        .stage("label")
        .expect("label stage reported")
        .error
        .as_ref()
        .expect("failure recorded")
        .to_string();
    assert!(
        error.contains("panicked") && error.contains("failpoint `stage.label=panic` fired at hit"),
        "unexpected error: {error}"
    );
    // The spine's numbers still came out; only the enrichment is gone.
    assert!(report.geo.is_none());
    assert!(!report.is_complete());
    assert!(report.patterns.k >= 2);

    // CLI surface: same run through the binary's entry point — exit
    // code 1 (degraded), not a process abort.
    let argv: Vec<String> = ["study", "--scale", "tiny", "--seed", "42"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(towerlens_cli::app::run(&argv), 1);

    std::env::remove_var("TOWERLENS_FAILPOINTS");
}
