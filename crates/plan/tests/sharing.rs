//! Prepared-scenario sharing through the plan executor: every report of
//! the checked-in smoke plans must be byte-identical with sharing on or
//! off, at one worker or four. Each instance the executor runs gets its
//! [`hetero_hpc::PreparedScenario`] from the process-wide cache, keyed by
//! `hetero-prep/key/v1`, so same-key instances share one; these tests are
//! the proof that the sharing — and the worker-pool scheduling around it —
//! never reaches the bytes. The core-level battery is
//! `tests/prep_sharing.rs`.

use hetero_hpc::prep;
use hetero_plan::exec::{execute_plan, ExecOptions, PlanOutcome};
use hetero_plan::load_str;
use std::sync::Mutex;

/// Sharing's disable switch is process-global: serialize the lanes.
static LOCK: Mutex<()> = Mutex::new(());

fn run_repo_plan(file: &str, workers: usize) -> PlanOutcome {
    let path = format!("{}/../../plans/{file}", env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let rp = load_str(&doc).unwrap_or_else(|e| panic!("{file}: line {}: {}", e.span.line, e.msg));
    let opts = ExecOptions {
        workers,
        ..ExecOptions::default()
    };
    execute_plan(&rp, &opts).unwrap_or_else(|e| panic!("{file}: {e:?}"))
}

/// All report texts of `file`, concatenated in stage order, for every
/// (sharing, workers) lane of the matrix.
fn report_lanes(file: &str) -> Vec<String> {
    let mut lanes = Vec::new();
    for workers in [1, 4] {
        for share in [true, false] {
            let _off = (!share).then(prep::disable_sharing_scoped);
            let outcome = run_repo_plan(file, workers);
            lanes.push(
                outcome
                    .reports
                    .iter()
                    .map(|(name, text)| format!("== {name} ==\n{text}"))
                    .collect::<String>(),
            );
        }
    }
    lanes
}

#[test]
fn fig4_smoke_reports_identical_across_sharing_and_workers() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let lanes = report_lanes("fig4_smoke.toml");
    assert!(!lanes[0].is_empty());
    for (i, lane) in lanes.iter().enumerate() {
        assert_eq!(lane, &lanes[0], "lane {i} diverged");
    }
}

#[test]
fn table3_smoke_reports_identical_across_sharing_and_workers() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let lanes = report_lanes("table3_smoke.toml");
    assert!(!lanes[0].is_empty());
    for (i, lane) in lanes.iter().enumerate() {
        assert_eq!(lane, &lanes[0], "lane {i} diverged");
    }
}
