//! Checked-in golden reports: the value-level pin *across* commits.
//!
//! Every other byte-identity suite compares two runs of one commit
//! (threads, engines, workers, cache states, kernel backends), so a change
//! that moved every number consistently would pass them all. These
//! constants are `canon::sha256_hex` of the serialized [`RunOutcome`] as
//! computed at commit `3799a23`, before the preconditioners got their
//! symbolic/numeric split: any drift in a factor, a solution, a Krylov
//! count, a virtual clock or a charged byte changes a digest.
//!
//! To re-pin after an *intended* model change, run
//! `cargo test --test golden_reports -- --nocapture`, copy the printed
//! digests — and say in CHANGES.md why the numbers moved.

use hetero_hpc::apps::App;
use hetero_hpc::canon;
use hetero_hpc::run::{execute, Fidelity, RunRequest};
use hetero_linalg::KernelBackend;
use hetero_platform::catalog;

/// `(platform, app, sha256 of the report JSON)`. The report does not echo
/// the kernel backend, so one digest pins a `(platform, app)` pair under
/// both backends — eight runs, and the backend identity across commits.
const GOLDEN: [(&str, &str, &str); 4] = [
    (
        "puma",
        "RD",
        "620ed03784ea91639f13ad5cc6cbbebcdfb00ccb636da1ab9b71df4cc0d45fca",
    ),
    (
        "puma",
        "NS",
        "42ff4180bcaedef63c312a2cc7671ba31982d6881359d343cbf018f67b3f982e",
    ),
    (
        "ec2",
        "RD",
        "5b97b96065e75c5b055f52eb3ae5233854a4f7444b72944b0f00399adeb76fb7",
    ),
    (
        "ec2",
        "NS",
        "ebf9a65c8c6b1ce5ef6478795c866209080f4dc117ddcf55552da0ff8a8638de",
    ),
];

fn digest(platform: &str, app: &str, backend: KernelBackend) -> String {
    let platform = catalog::by_key(platform).expect("catalog platform");
    let app = match app {
        "RD" => App::paper_rd(3),
        _ => App::paper_ns(3),
    };
    let req = RunRequest {
        fidelity: Fidelity::Numerical,
        seed: 2012,
        kernel_backend: Some(backend),
        ..RunRequest::new(platform, app, 8, 3)
    };
    let outcome = execute(&req).expect("golden run executes");
    let json = serde_json::to_string(&outcome).expect("outcome serializes");
    canon::sha256_hex(json.as_bytes())
}

#[test]
fn reports_match_the_checked_in_digests() {
    let mut drifted = Vec::new();
    for &(platform, app, want) in &GOLDEN {
        for backend in [KernelBackend::Assembled, KernelBackend::MatrixFree] {
            let got = digest(platform, app, backend);
            println!("{platform} {app} {backend:?}: {got}");
            if got != want {
                drifted.push(format!("{platform}/{app}/{backend:?}: {got} != {want}"));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "reports drifted from the golden digests:\n{}",
        drifted.join("\n")
    );
}
