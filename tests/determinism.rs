//! Reproducibility guarantees: same seed -> bitwise identical results, in
//! both fidelities, whatever the number of scheduler worker threads the
//! numerical one runs on — and despite injected faults in the resilient
//! path.

use hetero_fault::{FaultModel, SpotMarket};
use hetero_hpc::apps::App;
use hetero_hpc::prep;
use hetero_hpc::recovery::{execute_resilient, ResilienceSpec};
use hetero_hpc::run::{execute, Fidelity, RunOutcome, RunRequest};
use hetero_hpc::scenarios::{table2, ScenarioOptions};
use hetero_platform::catalog;

/// An RD run on an EC2 spot fleet under a market compressed enough to
/// revoke nodes inside the tiny virtual duration of an 8-rank test run, on
/// `sched_workers` scheduler workers (0 = auto).
fn faulty_rd_request(seed: u64, sched_workers: usize) -> RunRequest {
    let ec2 = catalog::ec2();
    let mut spec = ResilienceSpec::spot_with_restart(&ec2, 1.0, 1, 50);
    spec.faults = FaultModel {
        crashes: None,
        spot: Some(SpotMarket {
            epoch_seconds: 0.012,
            spike_probability: 0.35,
            ..SpotMarket::ec2_like(1.0)
        }),
        degradation: None,
    };
    RunRequest {
        fidelity: Fidelity::Numerical,
        sched_workers,
        seed,
        resilience: Some(spec),
        ..RunRequest::new(ec2, App::paper_rd(6), 8, 3)
    }
}

/// Executes `req` with prepared-scenario sharing off. A plain numerical
/// run on a shared scenario can be priced from the work tape of an earlier
/// run of the same app, which would compare a tape with itself; here every
/// run executes, on the worker pool it names.
fn execute_direct(req: &RunRequest) -> RunOutcome {
    let _off = prep::disable_sharing_scoped();
    let served = prep::tape_stats().served;
    let out = execute(req).unwrap();
    assert_eq!(prep::tape_stats().served, served, "a tape served the run");
    out
}

#[test]
fn numerical_engine_is_deterministic_across_runs() {
    // 27 OS threads race on real mailboxes, but virtual time and numerics
    // are scheduling-independent.
    let req = RunRequest {
        fidelity: Fidelity::Numerical,
        ..RunRequest::new(catalog::ec2(), App::paper_rd(3), 27, 3)
    };
    let a = execute_direct(&req);
    let b = execute_direct(&req);
    assert_eq!(a.phases, b.phases);
    assert_eq!(a.cost_per_iteration, b.cost_per_iteration);
    assert_eq!(a.verification.unwrap().l2, b.verification.unwrap().l2);
    assert_eq!(a.bytes_per_iteration, b.bytes_per_iteration);
}

#[test]
fn ns_report_is_bitwise_identical_across_thread_counts() {
    // The heavier NS pipeline — four solves per step, cached
    // momentum/pressure assemblies, SSOR sweeps — on one and on four
    // scheduler worker threads: byte-identical serialized reports.
    let run = |workers: usize| -> String {
        let req = RunRequest {
            fidelity: Fidelity::Numerical,
            sched_workers: workers,
            ..RunRequest::new(catalog::ec2(), App::paper_ns(2), 8, 3)
        };
        format!("{:?}", execute_direct(&req))
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn modeled_engine_is_deterministic() {
    let req = RunRequest::new(catalog::ec2(), App::paper_rd(4), 729, 20);
    let a = execute(&req).unwrap();
    let b = execute(&req).unwrap();
    assert_eq!(a.phases, b.phases);
}

#[test]
fn seed_changes_jittered_platforms_only_slightly() {
    // Different seeds resample EC2's virtualization jitter: times move, but
    // by noise, not by regime.
    let mk = |seed: u64| RunRequest {
        seed,
        ..RunRequest::new(catalog::ec2(), App::paper_rd(4), 216, 20)
    };
    let a = execute(&mk(1)).unwrap().phases.total;
    let b = execute(&mk(2)).unwrap().phases.total;
    assert_ne!(a, b);
    assert!((a - b).abs() / a < 0.25, "{a} vs {b}");
}

#[test]
fn ideal_deterministic_platform_ignores_the_seed() {
    // lagrange's jitter is ~0; the seed shouldn't move its modeled times
    // meaningfully.
    let mk = |seed: u64| RunRequest {
        seed,
        ..RunRequest::new(catalog::lagrange(), App::paper_rd(3), 216, 20)
    };
    let a = execute(&mk(1)).unwrap().phases.total;
    let b = execute(&mk(2)).unwrap().phases.total;
    assert!((a - b).abs() / a < 0.02, "{a} vs {b}");
}

#[test]
fn fault_injected_report_is_bitwise_identical_across_thread_counts() {
    // Spot revocations fell nodes mid-run and the campaign recovers through
    // checkpoints and re-acquisition — yet the full serialized report
    // (campaign stats, phases, costs, error norms) is a function of the
    // seed alone, never of the scheduler's worker threads or host
    // scheduling.
    let run = |workers: usize| -> String {
        let out = execute_resilient(&faulty_rd_request(2012, workers)).unwrap();
        assert!(
            out.stats.faults_injected >= 1,
            "the market was supposed to bite: {:?}",
            out.stats
        );
        format!("{out:?}")
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn fault_injected_report_is_deterministic_per_seed() {
    // A different seed samples a different market and crash stream: the
    // report changes, but each seed's report reproduces bitwise.
    let run = |seed: u64| -> String {
        let out = execute_resilient(&faulty_rd_request(seed, 0)).unwrap();
        format!("{out:?}")
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn whole_scenarios_reproduce_bitwise() {
    let opts = ScenarioOptions {
        steps: 2,
        discard: 0,
        max_k: 4,
        ..ScenarioOptions::paper()
    };
    let a = table2(&opts);
    let b = table2(&opts);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.full_time, y.full_time);
        assert_eq!(x.mix_time, y.mix_time);
        assert_eq!(x.mix_spot_nodes, y.mix_spot_nodes);
    }
}
