//! Pins the analytic (modeled) engine to the numerical engine:
//! same sizes, same platforms, the simulated times must agree. This is the
//! license for using the modeled engine at the paper's 1000-rank scale.

use hetero_fem::profile;
use hetero_hpc::apps::App;
use hetero_hpc::run::{execute, Fidelity, RunRequest};
use hetero_platform::catalog;

fn both_engines(
    platform: hetero_platform::PlatformSpec,
    app: App,
    ranks: usize,
    axis: usize,
) -> (hetero_fem::phase::PhaseTimes, hetero_fem::phase::PhaseTimes) {
    let base = RunRequest {
        discard: 1,
        ..RunRequest::new(platform, app, ranks, axis)
    };
    let numerical = execute(&RunRequest {
        fidelity: Fidelity::Numerical,
        ..base.clone()
    })
    .unwrap()
    .phases;
    let modeled = execute(&RunRequest {
        fidelity: Fidelity::Modeled,
        ..base
    })
    .unwrap()
    .phases;
    (numerical, modeled)
}

fn assert_close(label: &str, a: f64, b: f64, rel_tol: f64) {
    let rel = (a - b).abs() / a.max(b).max(1e-30);
    assert!(
        rel < rel_tol,
        "{label}: numerical {a} vs modeled {b} (rel {rel:.3})"
    );
}

#[test]
fn rd_engines_agree_distributed() {
    // Distributed RD at the sizes where the iteration law is calibrated:
    // totals within 25%, assembly within 20%.
    for (ranks, axis) in [(8usize, 4usize), (8, 5), (27, 4)] {
        let (num, modeled) = both_engines(catalog::ellipse(), App::paper_rd(3), ranks, axis);
        assert_close(
            &format!("total {ranks}x{axis}^3"),
            num.total,
            modeled.total,
            0.25,
        );
        assert_close(
            &format!("assembly {ranks}x{axis}^3"),
            num.assembly,
            modeled.assembly,
            0.20,
        );
    }
}

#[test]
fn rd_engines_agree_on_every_platform() {
    // The agreement holds across network/compute models, not just one.
    for platform in catalog::all_platforms() {
        let key = platform.key.clone();
        let (num, modeled) = both_engines(platform, App::paper_rd(3), 8, 4);
        assert_close(&format!("{key} total"), num.total, modeled.total, 0.35);
    }
}

#[test]
fn ns_engines_agree_within_modeling_tolerance() {
    let (num, modeled) = both_engines(catalog::ec2(), App::paper_ns(3), 8, 3);
    assert_close("ns total", num.total, modeled.total, 0.45);
    assert_close("ns assembly", num.assembly, modeled.assembly, 0.25);
}

#[test]
fn rd_iteration_law_tracks_measured_counts() {
    // The modeled engine's CG iteration law vs the numerical engine's
    // actual counts (CG + ILU(0)), across resolutions.
    for (ranks, axis) in [(8usize, 4usize), (8, 5), (27, 4)] {
        let req = RunRequest {
            fidelity: Fidelity::Numerical,
            ..RunRequest::new(catalog::puma(), App::paper_rd(2), ranks, axis)
        };
        let out = execute(&req).unwrap();
        let n = axis * (ranks as f64).cbrt().round() as usize;
        let law = profile::rd_cg_iters(n) as f64;
        let measured = out.krylov_iters;
        let rel = (law - measured).abs() / measured;
        assert!(rel < 0.6, "n = {n}: law {law} vs measured {measured}");
    }
}

#[test]
fn engines_rank_platforms_identically() {
    // Whatever their absolute error, both engines must order the platforms
    // the same way — that ordering is the paper's actual claim.
    let order_by = |fidelity: Fidelity| -> Vec<String> {
        let mut v: Vec<(String, f64)> = catalog::all_platforms()
            .into_iter()
            .map(|p| {
                let key = p.key.clone();
                let req = RunRequest {
                    fidelity,
                    ..RunRequest::new(p, App::paper_rd(2), 8, 4)
                };
                (key, execute(&req).unwrap().phases.total)
            })
            .collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        v.into_iter().map(|(k, _)| k).collect()
    };
    assert_eq!(order_by(Fidelity::Numerical), order_by(Fidelity::Modeled));
}

#[test]
fn modeled_traffic_estimate_is_in_range_of_measured() {
    // The limit checks (lagrange's IB cap) rely on the modeled traffic
    // estimate; it must be the right order of magnitude vs the numerical
    // engine's actual accounting.
    let base = RunRequest {
        discard: 0,
        ..RunRequest::new(catalog::lagrange(), App::paper_rd(3), 27, 4)
    };
    let num = execute(&RunRequest {
        fidelity: Fidelity::Numerical,
        ..base.clone()
    })
    .unwrap();
    let modeled = execute(&RunRequest {
        fidelity: Fidelity::Modeled,
        ..base
    })
    .unwrap();
    let ratio = modeled.bytes_per_iteration / num.bytes_per_iteration;
    assert!((0.2..=5.0).contains(&ratio), "traffic ratio {ratio}");
}
