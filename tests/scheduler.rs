//! The M:N scheduler battery.
//!
//! Pins the scheduler's guarantee: the serialized report of a numerical
//! run is **byte-identical** at every worker-pool size, with and without
//! injected faults, up to thousands of ranks — and equal to a checked-in
//! digest ([`GOLDEN`]) that a one-OS-thread-per-rank engine also produced,
//! while one existed.

use hetero_fault::{FaultModel, SpotMarket};
use hetero_hpc::apps::App;
use hetero_hpc::recovery::{execute_resilient, ResilienceSpec};
use hetero_hpc::run::{execute, Fidelity, RunRequest};
use hetero_hpc::{canon, prep};
use hetero_platform::limits::ExecutionLimits;
use hetero_platform::{catalog, PlatformSpec};

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

/// `(run, sha256 of its serialized report)`, computed on the M:N
/// scheduler at commit `2dbfb76`, where the 27- and 216-rank runs of the
/// thread-per-rank engine produced the same bytes. The names are the
/// tests' runs: `rd1000` and `ns216` are the `#[ignore]`d scale rungs, and
/// `campaign` is [`faulty_rd_request`] at seed 2012.
const GOLDEN: [(&str, &str); 6] = [
    (
        "rd27",
        "14235bb991e991b65b7f54d2cb273e8afdc4a36277f12162460146b018a46db6",
    ),
    (
        "rd216",
        "1504d227cf0b528aed70801fa442b8b43a5d077bad11eb9a508e9da918fe06f2",
    ),
    (
        "rd1000",
        "3865a4764a3b8fae84a56ad6841f8b83888d63e9517201fedd39e7fff9999ad9",
    ),
    (
        "ns27",
        "b1cfe29a2f6c3c6961649b9caf1ca089893a48a1c6346a513a8135d7ff34239c",
    ),
    (
        "ns216",
        "4e0c37b3b57ffa7b77edd54ca14a192b808cf6bf9aeccf1f4fb72fb0277c624e",
    ),
    (
        "campaign",
        "f2a5e53dafee2bf848d73df01e2dc07733a2fa0bee07b48ad2c1d286f77711ea",
    ),
];

/// Asserts that `report`'s digest is the one pinned for `run`.
fn check_digest(run: &str, report: &str) {
    let want = GOLDEN
        .iter()
        .find(|(name, _)| *name == run)
        .expect("a pinned run")
        .1;
    let got = canon::sha256_hex(report.as_bytes());
    println!("{run}: {got}");
    assert_eq!(got, want, "{run} drifted from its checked-in digest");
}

/// The serialized report of `req`, executed with prepared-scenario sharing
/// off. A plain numerical run on a shared scenario can be priced from the
/// work tape of an earlier run of the same app, which would compare one
/// pool's tape with itself; here every run executes on the pool it names.
fn direct_report(req: &RunRequest) -> String {
    let _off = prep::disable_sharing_scoped();
    let served = prep::tape_stats().served;
    let report = serde_json::to_string(&execute(req).unwrap()).expect("outcome serializes");
    assert_eq!(prep::tape_stats().served, served, "a tape served the run");
    report
}

/// The serialized report of a numerical RD run on `workers` workers.
fn rd_report(ranks: usize, steps: usize, workers: usize) -> String {
    direct_report(&RunRequest {
        fidelity: Fidelity::Numerical,
        sched_workers: workers,
        ..RunRequest::new(catalog::ec2(), App::paper_rd(steps), ranks, 3)
    })
}

/// The serialized report of a numerical NS run on `workers` workers.
fn ns_report(ranks: usize, steps: usize, workers: usize) -> String {
    direct_report(&RunRequest {
        fidelity: Fidelity::Numerical,
        sched_workers: workers,
        ..RunRequest::new(catalog::ec2(), App::paper_ns(steps), ranks, 3)
    })
}

#[test]
fn rd_report_identical_across_worker_pools_at_27_ranks() {
    let baseline = rd_report(27, 2, 1);
    for workers in [4, ncpu()] {
        assert_eq!(
            baseline,
            rd_report(27, 2, workers),
            "{workers} workers diverged from one"
        );
    }
    check_digest("rd27", &baseline);
}

#[test]
fn rd_report_identical_across_worker_pools_at_216_ranks() {
    // The paper's mid rung; one step keeps the debug-mode A/B affordable.
    let baseline = rd_report(216, 1, 1);
    assert_eq!(baseline, rd_report(216, 1, 4));
    check_digest("rd216", &baseline);
}

#[test]
#[ignore = "scale: minutes of debug-mode wall time; the CI stress job runs this in release with -- --ignored"]
fn rd_report_identical_across_worker_pools_at_1000_ranks() {
    // 1000 ranks is the paper's largest configuration; one step keeps the
    // A/B affordable.
    let baseline = rd_report(1000, 1, 1);
    assert_eq!(baseline, rd_report(1000, 1, 4));
    check_digest("rd1000", &baseline);
}

#[test]
fn ns_report_identical_across_worker_pools_at_27_ranks() {
    let baseline = ns_report(27, 2, 1);
    for workers in [4, ncpu()] {
        assert_eq!(
            baseline,
            ns_report(27, 2, workers),
            "{workers} workers diverged from one"
        );
    }
    check_digest("ns27", &baseline);
}

#[test]
#[ignore = "scale: minutes of debug-mode wall time; the CI stress job runs this in release with -- --ignored"]
fn ns_report_identical_across_worker_pools_at_216_ranks() {
    // The heavier app (four solves per step) at the paper's mid rung; one
    // step keeps the A/B affordable.
    let baseline = ns_report(216, 1, 1);
    assert_eq!(baseline, ns_report(216, 1, 4));
    check_digest("ns216", &baseline);
}

/// An RD run on an EC2 spot fleet under a market compressed enough to
/// revoke nodes inside the tiny virtual duration of an 8-rank test run —
/// the same campaign the determinism suite pins, here across three worker
/// pools. This re-covers the
/// felled-attempt teardown race fixed when resilience landed: a revoked
/// node's ranks unwind mid-collective while their peers still hold
/// mailbox locks.
fn faulty_rd_request(seed: u64, workers: usize) -> RunRequest {
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
        sched_workers: workers,
        seed,
        resilience: Some(spec),
        ..RunRequest::new(ec2, App::paper_rd(6), 8, 3)
    }
}

#[test]
fn fault_injected_campaign_identical_across_worker_pools() {
    let run = |workers: usize| -> String {
        let out = execute_resilient(&faulty_rd_request(2012, workers)).unwrap();
        assert!(
            out.stats.faults_injected >= 1,
            "the market was supposed to bite: {:?}",
            out.stats
        );
        serde_json::to_string(&out).expect("campaign outcome serializes")
    };
    let baseline = run(1);
    assert_eq!(baseline, run(4));
    assert_eq!(baseline, run(ncpu()));
    check_digest("campaign", &baseline);
}

#[test]
#[ignore = "scale: minutes of debug-mode wall time; the CI stress job runs this in release with -- --ignored"]
fn big_rd_run_at_8192_ranks_is_pool_independent() {
    // The acceptance bar: a real numerical RD run at 8192 ranks completes,
    // and its serialized report is byte-identical whether one worker or
    // four drive the coroutines.
    let run = |workers: usize| -> String {
        direct_report(&RunRequest {
            fidelity: Fidelity::Numerical,
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
    // scheduler extends the same experiment to the 20^3 = 8000
    // rung with real numerics. Verification stays at discretization
    // accuracy, so the extended rung is a genuine solve, not a replay.
    let req = RunRequest {
        fidelity: Fidelity::Numerical,
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
