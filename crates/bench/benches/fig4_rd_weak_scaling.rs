//! Regenerates **Figure 4**: weak scaling of the RD 3-D simulation on the
//! four platforms (initial mesh 20^3 per rank, ranks 1..=1000), plus a
//! numerical-engine cross-check of the modeled rows at small scale.

use hetero_bench::write_artifact;
use hetero_hpc::report::{render_weak_scaling, weak_scaling_csv, weak_scaling_json};
use hetero_hpc::run::{execute, Fidelity, RunRequest};
use hetero_hpc::scenarios::{fig4, ScenarioOptions};
use hetero_hpc::{App, TraceSpec};
use hetero_platform::catalog;

fn main() {
    let opts = ScenarioOptions {
        trace: Some(TraceSpec::phases()),
        ..ScenarioOptions::paper()
    };
    println!("=== Figure 4: RD weak scaling (modeled engine, paper ladder) ===\n");
    let table = fig4(&opts);
    let text = render_weak_scaling(&table);
    println!("{text}");
    write_artifact("fig4.txt", &text);
    write_artifact("fig4.csv", &weak_scaling_csv(&table));
    write_artifact(
        "fig4.json",
        &serde_json::to_string_pretty(&weak_scaling_json(&table)).unwrap(),
    );

    // The campaign's trace artifact: phase spans of the largest feasible
    // EC2 cell, viewable in Perfetto.
    let cell = table
        .rows
        .iter()
        .rev()
        .find_map(|row| {
            row.cells
                .iter()
                .find_map(|(key, cell)| (key == "ec2").then(|| cell.as_ref().ok()).flatten())
        })
        .expect("the cloud column has a feasible cell");
    let trace = cell.trace.as_ref().expect("tracing was requested");
    write_artifact("fig4_ec2_trace.chrome.json", &trace.chrome_json());

    println!("=== numerical cross-check (M:N scheduler, 8 ranks x 10^3 cells) ===\n");
    for platform in catalog::all_platforms() {
        let req = RunRequest {
            fidelity: Fidelity::Numerical,
            discard: 2,
            trace: Some(TraceSpec::collectives()),
            ..RunRequest::new(platform, App::paper_rd(4), 8, 10)
        };
        let key = req.platform.key.clone();
        let out = execute(&req).expect("8 ranks fit everywhere");
        let v = out.verification.unwrap();
        println!(
            "{key:>9}: total {:.3} s/iter (assembly {:.3}, precond {:.3}, solve {:.3}); \
             exact-solution linf error {:.1e}",
            out.phases.total, out.phases.assembly, out.phases.precond, out.phases.solve, v.linf
        );
        assert!(v.linf < 1e-4, "{key}: verification failed");
        if key == "puma" {
            let t = out.trace.as_ref().expect("tracing was requested");
            write_artifact("fig4_numerical_trace.chrome.json", &t.chrome_json());
            write_artifact("fig4_numerical_trace.jsonl", &t.jsonl());
        }
    }
    println!(
        "\nartifacts: target/paper-artifacts/fig4.{{txt,csv,json}} \
         + fig4_ec2_trace.chrome.json + fig4_numerical_trace.{{chrome.json,jsonl}}"
    );
}
