//! Prepared-scenario sharing must be invisible in every report byte.
//!
//! The cache (`hetero_hpc::prep`) shares what prices a run without
//! executing it — modeled space views, recorded work tapes, and the
//! fast-forward profile memo — across every run with the same
//! `hetero-prep/key/v1` key; a run that executes builds its own set-up.
//! These tests drive the same requests four ways (sharing disabled, cold
//! cache recording the tape, a traced run and an untraced one, both served
//! from the tape) across scheduler pools of 1 and 3 workers, run
//! fault-injected RD and NS campaigns with sharing on and off, and require the serialized outcome to be byte-identical everywhere. Two
//! modeled sweeps pin the locality the process-wide cache relies on: a
//! `ranks`-outer ladder wider than the cache, and a cadence sweep. The
//! golden key fixtures live in `tests/prep_keys.rs`, the tape battery in
//! `tests/work_tapes.rs`; the plan-executor and serve layers add their own
//! batteries on top.

use hetero_fault::{FaultModel, SpotMarket};
use hetero_hpc::apps::App;
use hetero_hpc::prep;
use hetero_hpc::recovery::{execute_resilient, ResilienceSpec};
use hetero_hpc::run::{execute, Fidelity, RunOutcome, RunRequest};
use hetero_hpc::scenarios::ScenarioOptions;
use hetero_platform::catalog;
use hetero_platform::limits::LimitViolation;
use hetero_trace::TraceSpec;
use std::sync::Mutex;

/// The scenario cache, its counters, and the disable switch are
/// process-global, so every test here serializes on this lock. (The
/// *results* are immune to interference by design — that's the point of
/// the battery — but the stats assertions are not.)
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn rd_req(sched_workers: usize) -> RunRequest {
    RunRequest {
        fidelity: Fidelity::Numerical,
        sched_workers,
        ..RunRequest::new(catalog::ec2(), App::paper_rd(3), 8, 3)
    }
}

fn ns_req(sched_workers: usize) -> RunRequest {
    RunRequest {
        fidelity: Fidelity::Numerical,
        sched_workers,
        ..RunRequest::new(catalog::ec2(), App::paper_ns(2), 8, 3)
    }
}

/// The fault-injected fixture of `tests/determinism.rs` and
/// `tests/resilience.rs`: an EC2 spot market compressed enough to revoke
/// nodes inside the run.
fn faulty_request(app: App, seed: u64, sched_workers: usize) -> RunRequest {
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
        ..RunRequest::new(ec2, app, 8, 3)
    }
}

fn json(out: RunOutcome) -> String {
    serde_json::to_string(&out).expect("outcome serializes")
}

/// Executes `req` four ways and returns the serialized outcomes (the
/// `serde_json` bytes, which leave a trace out):
///
/// * sharing disabled, so the run executes on the worker pool it names and
///   no tape is recorded or served;
/// * cold cache, which executes too and records the app's work tape;
/// * traced on the warm scenario: priced from the cold run's tape like any
///   other run, its trace being what the tape's evaluation implies;
/// * warm cache, priced from the cold run's tape.
fn four_ways(req: &RunRequest) -> [String; 4] {
    let fresh = {
        let _off = prep::disable_sharing_scoped();
        let before = prep::tape_stats();
        let out = json(execute(req).unwrap());
        assert_eq!(prep::tape_stats(), before, "the off lane uses no tape");
        out
    };
    prep::clear_cache();
    let before = prep::tape_stats();
    let cold = json(execute(req).unwrap());
    assert_eq!(prep::tape_stats().recorded, before.recorded + 1);
    let traced = RunRequest {
        trace: Some(TraceSpec::phases()),
        ..req.clone()
    };
    let traced = json(execute(&traced).unwrap());
    assert_eq!(prep::tape_stats().served, before.served + 1);
    let served = json(execute(req).unwrap());
    assert_eq!(prep::tape_stats().served, before.served + 2);
    [fresh, cold, traced, served]
}

#[test]
fn rd_reports_are_byte_identical_shared_vs_fresh() {
    let _g = lock();
    // One report for the whole matrix: sharing must not break what the
    // determinism battery already guarantees for worker pools.
    let mut reports = Vec::new();
    for workers in [1, 3] {
        reports.extend(four_ways(&rd_req(workers)));
    }
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r, &reports[0], "report {i} diverged");
    }
}

#[test]
fn ns_reports_are_byte_identical_shared_vs_fresh() {
    let _g = lock();
    let mut reports = Vec::new();
    for workers in [1, 3] {
        reports.extend(four_ways(&ns_req(workers)));
    }
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r, &reports[0], "report {i} diverged");
    }
}

/// RD at the determinism fixture's seed 7, NS at the resilience fixture's
/// seed 97: both markets revoke nodes mid-run.
#[test]
fn fault_injected_resilient_reports_are_byte_identical_shared_vs_fresh() {
    let _g = lock();
    for (app, seed) in [(App::paper_rd(6), 7), (App::paper_ns(4), 97)] {
        let mut reports = Vec::new();
        for workers in [1, 3] {
            let req = faulty_request(app.clone(), seed, workers);
            let fresh = {
                let _off = prep::disable_sharing_scoped();
                let out = execute_resilient(&req).unwrap();
                assert!(
                    out.stats.faults_injected >= 1,
                    "market never fired: {:?}",
                    out.stats
                );
                format!("{out:?}")
            };
            prep::clear_cache();
            let cold = format!("{:?}", execute_resilient(&req).unwrap());
            let warm = format!("{:?}", execute_resilient(&req).unwrap());
            reports.extend([fresh, cold, warm]);
        }
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(
                r,
                &reports[0],
                "{} resilient report {i} diverged",
                app.name()
            );
        }
    }
}

/// A seed sweep over one scenario builds its preparation exactly once.
#[test]
fn seed_sweep_builds_one_scenario_and_hits_thereafter() {
    let _g = lock();
    prep::clear_cache();
    let (builds0, hits0, _) = prep::cache_stats();
    for seed in 0..4 {
        let req = RunRequest { seed, ..rd_req(0) };
        execute(&req).unwrap();
    }
    let (builds1, hits1, _) = prep::cache_stats();
    assert_eq!(builds1 - builds0, 1, "one build for the whole sweep");
    assert_eq!(hits1 - hits0, 3, "every later seed reuses it");
}

/// A modeled sweep wider than the scenario cache (10 rungs against its
/// bound of 8), `ranks` outermost as every checked-in plan declares it,
/// meets each scenario in one contiguous run: one build per rung, a hit
/// for each of its other platforms, and the outcomes of the off lane.
#[test]
fn ranks_outer_sweep_wider_than_the_cache_builds_each_rung_once() {
    let _g = lock();
    let opts = ScenarioOptions::paper();
    let platforms = catalog::all_platforms();
    let sweep = || {
        let mut outcomes = Vec::new();
        for ranks in opts.ladder() {
            for platform in &platforms {
                let req = opts.request(platform, App::paper_rd(opts.steps), ranks);
                outcomes.push(match execute(&req) {
                    Ok(out) => json(out),
                    Err(limit) => format!("{limit:?}"),
                });
            }
        }
        outcomes
    };
    let fresh = {
        let _off = prep::disable_sharing_scoped();
        sweep()
    };
    prep::clear_cache();
    let (builds0, hits0, _) = prep::cache_stats();
    let shared = sweep();
    let (builds1, hits1, _) = prep::cache_stats();
    assert_eq!(shared, fresh);
    let rungs = opts.ladder().len() as u64;
    assert_eq!(builds1 - builds0, rungs, "one build per rung");
    assert_eq!(hits1 - hits0, rungs * (platforms.len() as u64 - 1));
}

/// A checkpoint-cadence sweep at one rung replays each seed's failure-free
/// profile once: every later cadence of that seed hits the memo, and the
/// campaigns are those of the off lane.
#[test]
fn cadence_sweep_computes_each_seeds_profile_once() {
    let _g = lock();
    let opts = ScenarioOptions::paper();
    let ec2 = catalog::ec2();
    let cadences = [1, 2, 4, 8];
    let campaign = |seed: u64, cadence: usize| {
        let req = RunRequest {
            seed,
            resilience: Some(ResilienceSpec::spot_with_restart(&ec2, 1.0, cadence, 8)),
            ..opts.request(&ec2, App::paper_rd(opts.steps), 64)
        };
        format!("{:?}", execute_resilient(&req).unwrap())
    };
    prep::clear_cache();
    for seed in [2012, 7919, 31] {
        let (_, _, before) = prep::cache_stats();
        let shared: Vec<String> = cadences.iter().map(|&c| campaign(seed, c)).collect();
        let (_, _, after) = prep::cache_stats();
        assert_eq!(after - before, cadences.len() as u64 - 1, "seed {seed}");
        let _off = prep::disable_sharing_scoped();
        let fresh: Vec<String> = cadences.iter().map(|&c| campaign(seed, c)).collect();
        assert_eq!(shared, fresh, "seed {seed}");
    }
}

/// With sharing disabled nothing is built, looked up, recorded, or counted.
#[test]
fn disabled_sharing_touches_no_cache() {
    let _g = lock();
    let _off = prep::disable_sharing_scoped();
    assert!(!prep::sharing_enabled());
    assert!(prep::scenario_for(&rd_req(0)).is_none());
    let before = (prep::cache_stats(), prep::tape_stats());
    execute(&rd_req(0)).unwrap();
    execute(&rd_req(0)).unwrap();
    assert_eq!((prep::cache_stats(), prep::tape_stats()), before);
}

/// A scenario build that panics (a zero per-rank axis has no cells to
/// split) must not take the cache down with it: the next job still runs.
/// `execute` rejects such a request before it builds anything, so the
/// build is reached through `prep::scenario_for`.
#[test]
fn a_panicking_build_does_not_poison_later_jobs() {
    let _g = lock();
    let bad = RunRequest {
        per_rank_axis: 0,
        ..rd_req(0)
    };
    assert_eq!(
        execute(&bad).unwrap_err(),
        LimitViolation::DegenerateRequest {
            field: "per_rank_axis".to_string()
        }
    );
    let panicked = std::panic::catch_unwind(|| prep::scenario_for(&bad));
    assert!(panicked.is_err(), "the zero axis was supposed to panic");
    execute(&rd_req(0)).expect("the cache survives the panic");
}
