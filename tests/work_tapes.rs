//! Work tapes must be invisible in every report byte.
//!
//! The first plain numerical run of an app on a shared scenario records
//! every rank's work tape; later plain runs of the same app on any
//! platform, seed, topology or cost model are priced from it instead of
//! executed (`hetero_hpc::prep`, DESIGN.md §13 "Work tapes"). Each test
//! here holds a tape-served outcome's `serde_json` bytes to those of the
//! same request executed directly — inside `disable_sharing_scoped()`,
//! where nothing is shared, recorded or served — and checks through
//! `prep::tape_stats()` that the path under test really was taken.

use hetero_hpc::apps::App;
use hetero_hpc::prep::{self, tape_stats};
use hetero_hpc::run::{execute, Fidelity, RunOutcome, RunRequest};
use hetero_linalg::SolverVariant;
use hetero_platform::{catalog, PlatformSpec};
use hetero_simmpi::ClusterTopology;
use hetero_trace::TraceSpec;
use std::sync::Mutex;

/// The scenario cache and the tape counters are process-global, so every
/// test here serializes on this lock to keep the counter deltas exact.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn request(platform: PlatformSpec, app: App, seed: u64) -> RunRequest {
    RunRequest {
        fidelity: Fidelity::Numerical,
        seed,
        discard: 1,
        ..RunRequest::new(platform, app, 8, 3)
    }
}

fn json(out: &RunOutcome) -> String {
    serde_json::to_string(out).expect("outcome serializes")
}

/// `req` executed with nothing shared: no scenario, no tape.
fn direct(req: &RunRequest) -> RunOutcome {
    let _off = prep::disable_sharing_scoped();
    let before = tape_stats();
    let out = execute(req).expect("direct run executes");
    assert_eq!(
        tape_stats(),
        before,
        "the off lane records and serves nothing"
    );
    out
}

/// `req` served from the tape its app already recorded.
fn served(req: &RunRequest) -> RunOutcome {
    let before = tape_stats().served;
    let out = execute(req).expect("tape-served run");
    assert_eq!(tape_stats().served, before + 1, "not served from a tape");
    out
}

/// Clears the cache and runs `req` once, which must record its app's tape.
fn record(req: &RunRequest) {
    prep::clear_cache();
    let before = tape_stats();
    execute(req).expect("recording run executes");
    let after = tape_stats();
    assert_eq!(after.recorded, before.recorded + 1, "no tape recorded");
    assert!(after.bytes_held > before.bytes_held);
}

#[test]
fn served_reports_match_direct_execution_on_every_platform_and_seed() {
    let _g = lock();
    for app in [App::paper_rd(3), App::paper_ns(2)] {
        record(&request(catalog::puma(), app.clone(), 2012));
        for platform in catalog::all_platforms() {
            for seed in [2012, 7919] {
                let req = request(platform.clone(), app.clone(), seed);
                assert_eq!(
                    json(&served(&req)),
                    json(&direct(&req)),
                    "{} on {} with seed {seed}",
                    app.name(),
                    platform.key
                );
            }
        }
    }
    // The tapes die with their scenarios.
    let held = tape_stats().bytes_held;
    prep::clear_cache();
    assert!(tape_stats().bytes_held < held);
}

#[test]
fn every_solver_variant_is_served_exactly() {
    // The overlapped and pipelined schedules post receives and complete
    // them later: the tape's `Post`/`Wait` ops.
    let _g = lock();
    for app in [App::paper_rd(3), App::paper_ns(2)] {
        for variant in [
            SolverVariant::Blocking,
            SolverVariant::Overlapped,
            SolverVariant::Pipelined,
        ] {
            let req = RunRequest {
                solver_variant: Some(variant),
                ..request(catalog::lagrange(), app.clone(), 2012)
            };
            record(&req);
            let ec2 = RunRequest {
                platform: catalog::ec2(),
                ..req
            };
            assert_eq!(
                json(&served(&ec2)),
                json(&direct(&ec2)),
                "{} {variant:?}",
                app.name()
            );
        }
    }
}

#[test]
fn topology_and_cost_overrides_are_served_exactly() {
    let _g = lock();
    let base = request(catalog::ec2(), App::paper_rd(3), 7919);
    record(&base);
    let placed = RunRequest {
        // Four two-core nodes dealt into two placement groups: most
        // messages cross nodes, some cross groups.
        topology_override: Some(ClusterTopology::round_robin_groups(4, 2, 2)),
        ..base.clone()
    };
    let spot = RunRequest {
        cost_override: Some(catalog::ec2_spot_cost()),
        ..base
    };
    for req in [placed, spot] {
        assert_eq!(json(&served(&req)), json(&direct(&req)));
    }
}

#[test]
fn a_traced_request_is_served_from_the_tape() {
    let _g = lock();
    let plain = request(catalog::ellipse(), App::paper_rd(3), 2012);
    record(&plain);
    let traced = RunRequest {
        trace: Some(TraceSpec::messages()),
        ..plain
    };
    let out = served(&traced);
    let reference = direct(&traced);
    assert_eq!(json(&out), json(&reference));
    let jsonl = |o: &RunOutcome| {
        o.trace
            .as_ref()
            .expect("a traced run returns its trace")
            .jsonl()
    };
    assert!(!jsonl(&out).is_empty());
    assert_eq!(jsonl(&out), jsonl(&reference));
}

#[test]
fn a_cold_traced_run_keeps_the_tape_its_trace_comes_from() {
    let _g = lock();
    let traced = RunRequest {
        trace: Some(TraceSpec::collectives()),
        ..request(catalog::puma(), App::paper_ns(2), 2012)
    };
    record(&traced);
    let plain = RunRequest {
        trace: None,
        platform: catalog::ec2(),
        ..traced.clone()
    };
    assert_eq!(json(&served(&plain)), json(&direct(&plain)));
    let traced_again = RunRequest {
        platform: catalog::ec2(),
        ..traced
    };
    let (out, reference) = (served(&traced_again), direct(&traced_again));
    assert_eq!(out.trace, reference.trace);
}

#[test]
fn a_128_rank_job_outgrows_its_share_and_keeps_no_tape() {
    let _g = lock();
    let req = RunRequest {
        fidelity: Fidelity::Numerical,
        ..RunRequest::new(catalog::ec2(), App::smoke_rd(2), 128, 2)
    };
    prep::clear_cache();
    let before = tape_stats();
    execute(&req).expect("128-rank run executes");
    let after = tape_stats();
    assert_eq!(after.abandoned, before.abandoned + 1);
    assert_eq!(
        (after.recorded, after.bytes_held),
        (before.recorded, before.bytes_held)
    );
    // Nothing to serve: the next platform executes (and gives up) again.
    let next = RunRequest {
        platform: catalog::lagrange(),
        ..req
    };
    execute(&next).expect("128-rank run executes");
    assert_eq!(tape_stats().served, after.served);
    assert_eq!(tape_stats().abandoned, after.abandoned + 1);
}
