//! Regenerates **Figure 5**: weak scaling of the Navier-Stokes 3-D
//! simulation (Ethier-Steinman benchmark) on the four platforms.

use hetero_bench::write_artifact;
use hetero_hpc::report::{render_weak_scaling, weak_scaling_csv, weak_scaling_json};
use hetero_hpc::run::{execute, Fidelity, RunRequest};
use hetero_hpc::scenarios::{fig5, ScenarioOptions};
use hetero_hpc::{App, TraceSpec};
use hetero_platform::catalog;

fn main() {
    let opts = ScenarioOptions {
        trace: Some(TraceSpec::phases()),
        ..ScenarioOptions::paper()
    };
    println!("=== Figure 5: NS weak scaling (modeled engine, paper ladder) ===\n");
    let table = fig5(&opts);
    let text = render_weak_scaling(&table);
    println!("{text}");
    write_artifact("fig5.txt", &text);
    write_artifact("fig5.csv", &weak_scaling_csv(&table));
    write_artifact(
        "fig5.json",
        &serde_json::to_string_pretty(&weak_scaling_json(&table)).unwrap(),
    );

    // The paper's qualitative reading of the figure.
    let t = |r: usize, p: &str| table.outcome(r, p).map(|o| o.phases.total);
    println!("paper checkpoints:");
    println!(
        "  NS does not scale well anywhere: ec2 1 -> 125 ranks = {:.2}x",
        t(125, "ec2").unwrap() / t(1, "ec2").unwrap()
    );
    println!(
        "  most efficient machine is lagrange: {:?} s/iter at its largest feasible size",
        t(table.max_feasible_ranks("lagrange"), "lagrange").unwrap()
    );
    println!(
        "  at 27 ranks ec2 ({:.1} s) rivals lagrange ({:.1} s) and beats puma ({:.1} s)",
        t(27, "ec2").unwrap(),
        t(27, "lagrange").unwrap(),
        t(27, "puma").unwrap()
    );

    println!("\n=== numerical cross-check (M:N scheduler, 8 ranks x 5^3 cells) ===\n");
    let req = RunRequest {
        fidelity: Fidelity::Numerical,
        discard: 1,
        trace: Some(TraceSpec::collectives()),
        ..RunRequest::new(catalog::ec2(), App::paper_ns(3), 8, 5)
    };
    let out = execute(&req).unwrap();
    let v = out.verification.unwrap();
    println!(
        "ec2 numerical: total {:.3} s/iter; Ethier-Steinman velocity linf error {:.2e}",
        out.phases.total, v.linf
    );
    assert!(v.linf < 0.05);
    let t = out.trace.as_ref().expect("tracing was requested");
    write_artifact("fig5_numerical_trace.chrome.json", &t.chrome_json());
    println!(
        "\nartifacts: target/paper-artifacts/fig5.{{txt,csv,json}} \
         + fig5_numerical_trace.chrome.json"
    );
}
