//! The M:N cooperative-scheduler battery.
//!
//! Pins the tentpole guarantee of the cooperative engine: the serialized
//! report of any numerical run is **byte-identical** between the legacy
//! one-OS-thread-per-rank engine and the M:N cooperative engine, at every
//! worker-pool size, with and without injected faults — and the
//! cooperative engine keeps that guarantee far past the old engine's rank
//! ceiling.

use hetero_fault::{FaultModel, SpotMarket};
use hetero_hpc::apps::App;
use hetero_hpc::prep;
use hetero_hpc::recovery::{execute_resilient, ResilienceSpec};
use hetero_hpc::run::{execute, Fidelity, RunRequest};
use hetero_platform::limits::ExecutionLimits;
use hetero_platform::{catalog, PlatformSpec};
use hetero_simmpi::EngineKind;

fn ncpu() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// An EC2-flavoured platform with enough nodes for `ranks` ranks: same
/// network, compute, and jitter models, capacity raised so runs beyond the
/// catalog fleet's 1008-core cap exercise the scheduler at scale.
fn big_ec2(ranks: usize) -> PlatformSpec {
    let mut p = catalog::ec2();
    let nodes = ranks.div_ceil(p.cores_per_node).max(1);
    p.max_nodes = nodes;
    p.limits = ExecutionLimits::capacity_only(nodes * p.cores_per_node);
    p
}

/// The serialized report of `req`, executed with prepared-scenario sharing
/// off. A plain numerical run on a shared scenario can be priced from the
/// work tape of an earlier run of the same app, which would compare one
/// engine's tape with itself; here every run executes on the engine and
/// pool it names.
fn direct_report(req: &RunRequest) -> String {
    let _off = prep::disable_sharing_scoped();
    let served = prep::tape_stats().served;
    let report = format!("{:?}", execute(req).unwrap());
    assert_eq!(prep::tape_stats().served, served, "a tape served the run");
    report
}

/// The serialized report of a numerical RD run under the given engine.
fn rd_report(ranks: usize, steps: usize, engine: EngineKind, workers: usize) -> String {
    direct_report(&RunRequest {
        fidelity: Fidelity::Numerical,
        engine,
        sched_workers: workers,
        ..RunRequest::new(catalog::ec2(), App::paper_rd(steps), ranks, 3)
    })
}

/// The serialized report of a numerical NS run under the given engine.
fn ns_report(ranks: usize, steps: usize, engine: EngineKind, workers: usize) -> String {
    direct_report(&RunRequest {
        fidelity: Fidelity::Numerical,
        engine,
        sched_workers: workers,
        ..RunRequest::new(catalog::ec2(), App::paper_ns(steps), ranks, 3)
    })
}

#[test]
fn rd_report_identical_across_engines_at_27_ranks() {
    let baseline = rd_report(27, 2, EngineKind::Threads, 0);
    for workers in [1, 4, ncpu()] {
        assert_eq!(
            baseline,
            rd_report(27, 2, EngineKind::Cooperative, workers),
            "cooperative engine with {workers} worker(s) diverged from the thread engine"
        );
    }
}

#[test]
fn rd_report_identical_across_engines_at_216_ranks() {
    // The paper's mid rung; one step keeps the debug-mode A/B affordable.
    let baseline = rd_report(216, 1, EngineKind::Threads, 0);
    assert_eq!(baseline, rd_report(216, 1, EngineKind::Cooperative, 1));
    assert_eq!(baseline, rd_report(216, 1, EngineKind::Cooperative, 4));
}

#[test]
#[ignore = "scale: minutes of debug-mode wall time; the CI stress job runs this in release with -- --ignored"]
fn rd_report_identical_across_engines_at_1000_ranks() {
    // 1000 ranks is the paper's largest configuration and close to the old
    // engine's practical ceiling; one step keeps the A/B affordable.
    let baseline = rd_report(1000, 1, EngineKind::Threads, 0);
    assert_eq!(baseline, rd_report(1000, 1, EngineKind::Cooperative, 1));
    assert_eq!(baseline, rd_report(1000, 1, EngineKind::Cooperative, 4));
}

#[test]
fn ns_report_identical_across_engines_at_27_ranks() {
    let baseline = ns_report(27, 2, EngineKind::Threads, 0);
    for workers in [1, 4, ncpu()] {
        assert_eq!(
            baseline,
            ns_report(27, 2, EngineKind::Cooperative, workers),
            "cooperative engine with {workers} worker(s) diverged from the thread engine"
        );
    }
}

#[test]
#[ignore = "scale: minutes of debug-mode wall time; the CI stress job runs this in release with -- --ignored"]
fn ns_report_identical_across_engines_at_216_ranks() {
    // The heavier app (four solves per step) at the paper's mid rung; one
    // step keeps the A/B affordable.
    let baseline = ns_report(216, 1, EngineKind::Threads, 0);
    assert_eq!(baseline, ns_report(216, 1, EngineKind::Cooperative, 1));
    assert_eq!(baseline, ns_report(216, 1, EngineKind::Cooperative, 4));
}

/// An RD run on an EC2 spot fleet under a market compressed enough to
/// revoke nodes inside the tiny virtual duration of an 8-rank test run —
/// the same campaign the determinism suite pins across thread counts,
/// here pinned across *engines* and worker pools. This re-covers the
/// felled-attempt teardown race fixed when resilience landed: a revoked
/// node's ranks unwind mid-collective while their peers still hold
/// mailbox locks.
fn faulty_rd_request(seed: u64, engine: EngineKind, workers: usize) -> RunRequest {
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
        engine,
        sched_workers: workers,
        seed,
        resilience: Some(spec),
        ..RunRequest::new(ec2, App::paper_rd(6), 8, 3)
    }
}

#[test]
fn fault_injected_campaign_identical_across_engines_and_pools() {
    let run = |engine: EngineKind, workers: usize| -> String {
        let out = execute_resilient(&faulty_rd_request(2012, engine, workers)).unwrap();
        assert!(
            out.stats.faults_injected >= 1,
            "the market was supposed to bite: {:?}",
            out.stats
        );
        format!("{out:?}")
    };
    let baseline = run(EngineKind::Threads, 0);
    assert_eq!(baseline, run(EngineKind::Cooperative, 1));
    assert_eq!(baseline, run(EngineKind::Cooperative, 4));
}

#[test]
#[ignore = "scale: minutes of debug-mode wall time; the CI stress job runs this in release with -- --ignored"]
fn big_rd_run_at_8192_ranks_is_pool_independent() {
    // The acceptance bar: a real numerical RD run at 8192 ranks — double
    // the old thread engine's 4096-rank ceiling — completes on the
    // cooperative engine, and its serialized report is byte-identical
    // whether one worker or four drive the coroutines.
    let run = |workers: usize| -> String {
        direct_report(&RunRequest {
            fidelity: Fidelity::Numerical,
            engine: EngineKind::Cooperative,
            sched_workers: workers,
            ..RunRequest::new(big_ec2(8192), App::paper_rd(1), 8192, 2)
        })
    };
    assert_eq!(run(1), run(4));
    // The set-up footprint must stay near-linear in ranks. While every rank
    // kept its own copy of the DoF map's all-gathered target lists it grew
    // ~4x per doubling, and this rung ran a 16 GB host out of memory. The
    // budget is twice the 7882 MiB this test peaks at (release build,
    // 2-core Linux host; the first job alone peaks at 5.2 GiB).
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
        let peak_kib: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .expect("a VmHWM line in kB");
        let budget_kib = (2 * 7882) << 10;
        eprintln!("VmHWM after both 8192-rank jobs: {peak_kib} kB");
        assert!(
            peak_kib < budget_kib,
            "peak RSS {peak_kib} kB exceeds {budget_kib} kB at 8192 ranks"
        );
    }
}

#[test]
#[ignore = "scale: minutes of debug-mode wall time; the CI stress job runs this in release with -- --ignored"]
fn weak_scaling_extends_to_20_cubed_ranks() {
    // The paper's weak-scaling ladder stops at 10^3 = 1000 ranks; the
    // cooperative engine extends the same experiment to the 20^3 = 8000
    // rung with real numerics. Verification stays at discretization
    // accuracy, so the extended rung is a genuine solve, not a replay.
    let req = RunRequest {
        fidelity: Fidelity::Numerical,
        engine: EngineKind::Cooperative,
        ..RunRequest::new(big_ec2(8000), App::paper_rd(1), 8000, 2)
    };
    let out = execute(&req).unwrap();
    assert_eq!(out.ranks, 8000);
    assert!(out.phases.total > 0.0);
    let v = out.verification.expect("numerical runs verify");
    // Run with --nocapture to harvest the EXPERIMENTS.md extension row.
    println!(
        "weak scaling at 20^3 = 8000 ranks (ec2-flavoured fleet): total {:.2} s/iter \
         (assembly {:.2}, precond {:.2}, solve {:.2}); exact-solution linf error {:.1e}",
        out.phases.total, out.phases.assembly, out.phases.precond, out.phases.solve, v.linf
    );
    assert!(v.linf.is_finite() && v.linf < 1.0, "linf = {}", v.linf);
}
