//! Checked-in golden digests of the modeled engine: its full-precision pin
//! *across* commits.
//!
//! The modeled engine's reports otherwise reach a checked-in file only
//! through EXPERIMENTS.md's two-decimal tables, so a change that moved a
//! modeled clock in its tenth digit would pass every other suite. These
//! constants are `canon::sha256_hex` over the `f64::to_bits` of every
//! [`PhaseTimes`] field of every replayed step, then `bytes_per_iteration`
//! and `krylov_iters`, of [`run_modeled`] and [`run_modeled_sized`] runs,
//! computed at commit `8040ceb`, before a replay priced each link once:
//!
//! * [`GOLDEN_GRID`]: per `(app, solver variant)`, every platform of the
//!   catalogue at 1, 2, 8, 27 and 125 ranks, 3 steps, under the paper's
//!   weak-scaling sizing and under one fixed mesh;
//! * [`GOLDEN_PAPER`] (`--ignored`; run it in release): the paper's sizing,
//!   600 steps at 343 and 1000 ranks on `ec2` and `puma`;
//! * [`GOLDEN_CAMPAIGN`]: one modeled spot-with-restart campaign of 64
//!   ranks on a four-group fleet, traced — the serialized
//!   `ResilienceOutcome` followed by the trace's JSONL export.
//!
//! To re-pin after an *intended* model change, run
//! `cargo test --release --test golden_modeled -- --include-ignored --nocapture`,
//! copy the printed digests, and say in CHANGES.md why the numbers moved.

use hetero_fault::SpotMarket;
use hetero_fem::phase::PhaseTimes;
use hetero_hpc::apps::App;
use hetero_hpc::canon;
use hetero_hpc::modeled::{run_modeled, run_modeled_sized, ModeledRun};
use hetero_hpc::recovery::{execute_resilient, ResilienceSpec};
use hetero_hpc::run::{Fidelity, RunRequest};
use hetero_linalg::SolverVariant;
use hetero_platform::catalog;
use hetero_simmpi::ClusterTopology;
use hetero_trace::TraceSpec;

const SEED: u64 = 2012;
const VARIANTS: [SolverVariant; 3] = [
    SolverVariant::Blocking,
    SolverVariant::Overlapped,
    SolverVariant::Pipelined,
];

/// `(app, solver variant, sha256)` of the 3-step grid.
const GOLDEN_GRID: [(&str, &str, &str); 6] = [
    (
        "RD",
        "Blocking",
        "5b9772c1bca186b33e1eee91e64fc93c4b74897e934084f77a94685538d7c890",
    ),
    (
        "RD",
        "Overlapped",
        "4b63a65c5baf198be6d9e119eee29e24fb776af3fb70d6e400dedee61deab4eb",
    ),
    (
        "RD",
        "Pipelined",
        "221bc002389aad9770b28a884cc4f0ee347264da7e8e9990997d87743a25ec58",
    ),
    (
        "NS",
        "Blocking",
        "7767e878e02d9bd61e14319b0dd057014b2b63ab9869263e2b23b399ca295d28",
    ),
    (
        "NS",
        "Overlapped",
        "c4c748d91a875f0bcbffb0f4cc68324d73bb62803dc90e6f698d14cffefbca66",
    ),
    (
        "NS",
        "Pipelined",
        "919cbe7a0753dba7e2fe103a744cba3311e73f49af27022f712320f4e8f1b3ae",
    ),
];

/// `(app, solver variant, sha256)` of the paper-sized grid.
const GOLDEN_PAPER: [(&str, &str, &str); 6] = [
    (
        "RD",
        "Blocking",
        "c096637a5edf1acb2e5169594f7f9757f4826def7de09d19bffcbfa289c0e9b3",
    ),
    (
        "RD",
        "Overlapped",
        "468fd1c24833142ae88e6a54b7516f45e8fb4f126d4bf9eb3d6d517246695f2e",
    ),
    (
        "RD",
        "Pipelined",
        "890d36160a3c7143bf3953b3a36f9dad9c956827f14e8822eeca2eee4a7cd535",
    ),
    (
        "NS",
        "Blocking",
        "dfdeaa1cd00f14276855c09e6c9f3dd30f90bc5dba51e5312741f5257195232a",
    ),
    (
        "NS",
        "Overlapped",
        "d1f6ada7f1561c6e0d9a5716516d59da7a4ddabe02301455b3510157a72aec26",
    ),
    (
        "NS",
        "Pipelined",
        "c127ad718cc4022163cbade5eca6fd352081964990a0ae3622ddb1ba35cc12a0",
    ),
];

/// SHA-256 of the traced modeled campaign of [`campaign_request`].
const GOLDEN_CAMPAIGN: &str = "3bb9a8a7408388cedc70ada2729f2bd9f05aa31047aae29e1e3166a5d332d0e3";

fn app(name: &str, steps: usize, variant: SolverVariant) -> App {
    let app = if name == "RD" {
        App::paper_rd(steps)
    } else {
        App::paper_ns(steps)
    };
    app.with_solver_variant(variant)
}

/// Appends the bits of every value a modeled run reports.
fn push_run(bits: &mut Vec<u8>, run: &ModeledRun) {
    let mut push = |x: f64| bits.extend_from_slice(&x.to_bits().to_le_bytes());
    for &PhaseTimes {
        assembly,
        precond,
        solve,
        total,
    } in &run.iterations
    {
        for x in [assembly, precond, solve, total] {
            push(x);
        }
    }
    push(run.bytes_per_iteration);
    bits.extend_from_slice(&(run.krylov_iters as u64).to_le_bytes());
}

/// Digests every `(platform, ranks)` run of one `(app, variant)`: the
/// weak-scaling run at `per_rank_axis`, then, when `cells` is given, the
/// same ranks on that fixed mesh. A platform's fabric and cores are
/// placed on as many nodes as the ranks need, past its capacity too (the
/// paper grid runs puma's fabric at 1000 ranks).
fn grid_digest(
    app: &App,
    platforms: &[&str],
    ranks: &[usize],
    per_rank_axis: usize,
    cells: Option<(usize, usize, usize)>,
) -> String {
    let mut bits = Vec::new();
    for &key in platforms {
        let p = catalog::by_key(key).expect("catalog platform");
        for &r in ranks {
            let topo = ClusterTopology::uniform(r.div_ceil(p.cores_per_node), p.cores_per_node);
            push_run(
                &mut bits,
                &run_modeled(app, r, per_rank_axis, &topo, &p.network, p.compute, SEED),
            );
            if let Some(cells) = cells {
                push_run(
                    &mut bits,
                    &run_modeled_sized(app, r, cells, &topo, &p.network, p.compute, SEED),
                );
            }
        }
    }
    canon::sha256_hex(&bits)
}

fn check(
    pins: &[(&str, &str, &str)],
    digest: impl Fn(&App) -> String,
    steps: usize,
) -> Vec<String> {
    let mut drifted = Vec::new();
    for &(name, variant, want) in pins {
        let v = VARIANTS
            .into_iter()
            .find(|v| format!("{v:?}") == variant)
            .expect("a solver variant");
        let got = digest(&app(name, steps, v));
        println!("(\"{name}\", \"{variant}\", \"{got}\"),");
        if got != want {
            drifted.push(format!("{name}/{variant}: {got} != {want}"));
        }
    }
    drifted
}

#[test]
fn modeled_grid_matches_the_checked_in_digests() {
    let drifted = check(
        &GOLDEN_GRID,
        |app| {
            grid_digest(
                app,
                &["puma", "ellipse", "lagrange", "ec2"],
                &[1, 2, 8, 27, 125],
                20,
                Some((30, 30, 30)),
            )
        },
        3,
    );
    assert!(
        drifted.is_empty(),
        "modeled runs drifted from the golden digests:\n{}",
        drifted.join("\n")
    );
}

#[test]
#[ignore = "paper sizing: 600-step replays at 1000 ranks; run in release"]
fn paper_sized_modeled_grid_matches_the_checked_in_digests() {
    let drifted = check(
        &GOLDEN_PAPER,
        |app| grid_digest(app, &["ec2", "puma"], &[343, 1000], 20, None),
        600,
    );
    assert!(
        drifted.is_empty(),
        "paper-sized modeled runs drifted from the golden digests:\n{}",
        drifted.join("\n")
    );
}

/// A modeled RD campaign on 64 EC2 ranks: a spot fleet spread over four
/// placement groups, checkpoint-restart every 8 steps under a market
/// volatile enough to revoke the fleet inside the run, traced.
fn campaign_request() -> RunRequest {
    let ec2 = catalog::ec2();
    let mut spec = ResilienceSpec::spot_with_restart(&ec2, 1.0, 8, 60);
    spec.faults.spot = Some(SpotMarket {
        epoch_seconds: 30.0,
        spike_probability: 0.35,
        ..SpotMarket::ec2_like(1.0)
    });
    RunRequest {
        seed: SEED,
        discard: 2,
        fidelity: Fidelity::Modeled,
        resilience: Some(spec),
        trace: Some(TraceSpec::messages()),
        ..RunRequest::new(ec2, App::paper_rd(40), 64, 20)
    }
}

#[test]
fn modeled_campaign_matches_the_checked_in_digest() {
    let out = execute_resilient(&campaign_request()).expect("campaign executes");
    let mut text = serde_json::to_string(&out).expect("campaign outcome serializes");
    text.push_str(&out.trace.as_ref().expect("a traced campaign").jsonl());
    let got = canon::sha256_hex(text.as_bytes());
    println!("campaign: {got}");
    // The pin covers fault replay only if the fleet really was revoked.
    assert!(out.stats.attempts > 1, "{:?}", out.stats);
    assert_eq!(got, GOLDEN_CAMPAIGN, "{:?}", out.stats);
}
