//! The solver-variant contract, end to end through the harness: the
//! overlapped schedule reorders communication but never arithmetic, the
//! pipelined schedule trades one fused reduction per iteration for a
//! mildly reassociated recurrence, and the default blocking path is
//! untouched by the new machinery.

use hetero_hpc::apps::App;
use hetero_hpc::run::{execute, Fidelity, RunRequest};
use hetero_linalg::SolverVariant;
use hetero_platform::catalog;

/// An 8-rank RD run on `sched_workers` scheduler workers (0 = auto).
fn rd_numerical(variant: Option<SolverVariant>, sched_workers: usize) -> RunRequest {
    RunRequest {
        fidelity: Fidelity::Numerical,
        sched_workers,
        solver_variant: variant,
        discard: 1,
        ..RunRequest::new(catalog::ec2(), App::paper_rd(3), 8, 3)
    }
}

#[test]
fn blocking_override_is_the_identity() {
    // `Some(Blocking)` must be indistinguishable from `None`: the override
    // is folded into the app config, not a separate code path.
    let a = execute(&rd_numerical(None, 0)).unwrap();
    let b = execute(&rd_numerical(Some(SolverVariant::Blocking), 0)).unwrap();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn overlapped_rd_values_match_blocking_bitwise() {
    // Same iterates, same iteration counts, same errors — only the
    // simulated communication schedule (and hence phase times) may move.
    let a = execute(&rd_numerical(None, 0)).unwrap();
    let b = execute(&rd_numerical(Some(SolverVariant::Overlapped), 0)).unwrap();
    let (va, vb) = (a.verification.unwrap(), b.verification.unwrap());
    assert_eq!(va.linf.to_bits(), vb.linf.to_bits());
    assert_eq!(va.l2.to_bits(), vb.l2.to_bits());
    assert_eq!(a.krylov_iters, b.krylov_iters);
}

#[test]
fn overlapped_ns_values_match_blocking_bitwise() {
    let run = |variant: Option<SolverVariant>| {
        execute(&RunRequest {
            fidelity: Fidelity::Numerical,
            solver_variant: variant,
            ..RunRequest::new(catalog::ec2(), App::paper_ns(2), 8, 3)
        })
        .unwrap()
    };
    let a = run(None);
    let b = run(Some(SolverVariant::Overlapped));
    let (va, vb) = (a.verification.unwrap(), b.verification.unwrap());
    assert_eq!(va.linf.to_bits(), vb.linf.to_bits());
    assert_eq!(va.l2.to_bits(), vb.l2.to_bits());
    assert_eq!(a.krylov_iters, b.krylov_iters);
}

#[test]
fn overlapped_report_is_bitwise_identical_across_thread_counts() {
    // The overlapped path posts its halo exchanges around the interior
    // rows; on one and on four scheduler worker threads the whole
    // serialized report is still a function of the data alone.
    let run = |workers: usize| -> String {
        let out = execute(&rd_numerical(Some(SolverVariant::Overlapped), workers)).unwrap();
        format!("{out:?}")
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn pipelined_rd_tracks_blocking_accuracy_and_iterations() {
    let a = execute(&rd_numerical(None, 0)).unwrap();
    let p = execute(&rd_numerical(Some(SolverVariant::Pipelined), 0)).unwrap();
    let (va, vp) = (a.verification.unwrap(), p.verification.unwrap());
    // Pipelined CG reassociates the recurrences: same accuracy class, not
    // bitwise.
    assert!(vp.linf < 5e-6, "linf = {}", vp.linf);
    assert!(vp.l2 <= va.l2 * 10.0 + 1e-12, "{} vs {}", vp.l2, va.l2);
    assert!(
        (a.krylov_iters - p.krylov_iters).abs() <= 2.0,
        "pipelined {} vs classic {} mean iterations",
        p.krylov_iters,
        a.krylov_iters
    );
}

#[test]
fn modeled_solve_time_improves_at_scale_on_ethernet() {
    // The acceptance bar: at 216+ ranks on gigabit-Ethernet platforms the
    // overlapped and pipelined schedules must beat blocking in modeled
    // solve-phase time — latency is the dominant term there (paper
    // Section V), and both variants remove serialized latency from the
    // critical path.
    for (platform, ranks) in [
        (catalog::ec2(), 216),
        (catalog::ellipse(), 216),
        (catalog::ec2(), 1000),
    ] {
        let solve = |variant: Option<SolverVariant>| -> f64 {
            execute(&RunRequest {
                solver_variant: variant,
                discard: 1,
                ..RunRequest::new(platform.clone(), App::paper_rd(4), ranks, 20)
            })
            .unwrap()
            .phases
            .solve
        };
        let blocking = solve(None);
        let overlapped = solve(Some(SolverVariant::Overlapped));
        let pipelined = solve(Some(SolverVariant::Pipelined));
        assert!(
            overlapped < blocking,
            "{} x{ranks}: overlapped {overlapped} vs blocking {blocking}",
            platform.key
        );
        assert!(
            pipelined < blocking,
            "{} x{ranks}: pipelined {pipelined} vs blocking {blocking}",
            platform.key
        );
    }
}

#[test]
fn modeled_ns_solve_time_improves_at_scale_on_ethernet() {
    let solve = |variant: Option<SolverVariant>| -> f64 {
        execute(&RunRequest {
            solver_variant: variant,
            ..RunRequest::new(catalog::ec2(), App::paper_ns(2), 216, 20)
        })
        .unwrap()
        .phases
        .solve
    };
    let blocking = solve(None);
    let overlapped = solve(Some(SolverVariant::Overlapped));
    assert!(
        overlapped < blocking,
        "NS x216: overlapped {overlapped} vs blocking {blocking}"
    );
}
