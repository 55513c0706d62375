//! End-to-end tests of the reaction-diffusion application across the full
//! stack: mesh -> partition -> DoF maps -> distributed assembly -> Krylov
//! solve -> platform timing/cost, on all four simulated platforms.

use hetero_fem::assembly::{apply_dirichlet, assemble_vector, scalar_kernels, MatrixAssembly};
use hetero_fem::dofmap::DofMap;
use hetero_fem::element::ElementOrder;
use hetero_fem::quadrature::GaussRule3d;
use hetero_hpc::apps::App;
use hetero_hpc::run::{execute, Fidelity, RunRequest};
use hetero_linalg::precond::Jacobi;
use hetero_linalg::solver::{cg, SolveOptions};
use hetero_mesh::{DistributedMesh, Point3, StructuredHexMesh};
use hetero_partition::block::near_cubic_factors;
use hetero_partition::BlockLayout;
use hetero_platform::catalog;
use hetero_simmpi::{run_spmd, ClusterTopology, ComputeModel, NetworkModel, SpmdConfig};
use std::sync::Arc;

#[test]
fn rd_is_exact_on_every_platform() {
    // The Q2 + BDF2 discretization reproduces the paper's exact solution on
    // all four platforms; only the simulated clock (and therefore cost)
    // differs.
    let mut totals = Vec::new();
    for platform in catalog::all_platforms() {
        let req = RunRequest {
            fidelity: Fidelity::Numerical,
            discard: 1,
            ..RunRequest::new(platform, App::paper_rd(3), 8, 3)
        };
        let out = execute(&req).expect("8 ranks fit everywhere");
        let v = out.verification.unwrap();
        assert!(v.linf < 5e-6, "{}: linf = {}", out.platform, v.linf);
        totals.push((out.platform.clone(), out.phases.total));
    }
    // Identical math, different simulated speeds: ec2 (newest CPUs) beats
    // puma (2006 Opterons).
    let time_of = |key: &str| totals.iter().find(|(k, _)| k == key).unwrap().1;
    assert!(time_of("ec2") < time_of("puma"));
    assert!(time_of("lagrange") < time_of("ellipse"));
}

#[test]
fn rd_iteration_time_is_stable_across_steps() {
    // Weak form of the paper's methodology: after discarding warm-up
    // iterations, per-iteration times are steady (each step does the same
    // work).
    let req = RunRequest {
        fidelity: Fidelity::Numerical,
        discard: 0,
        ..RunRequest::new(catalog::puma(), App::paper_rd(5), 8, 3)
    };
    let out = execute(&req).unwrap();
    // Re-run with discard and compare: the average barely moves.
    let req2 = RunRequest { discard: 2, ..req };
    let out2 = execute(&req2).unwrap();
    let rel = (out.phases.total - out2.phases.total).abs() / out.phases.total;
    assert!(rel < 0.25, "rel = {rel}");
}

/// A genuine convergence study with a manufactured non-polynomial solution:
/// -lap(u) = f with u = sin(pi x) sin(pi y) sin(pi z), via the same
/// assembly/solver machinery the RD app uses. Q1 nodal errors must drop at
/// ~O(h^2).
#[test]
fn manufactured_poisson_converges_at_second_order() {
    let exact = |p: Point3| {
        (std::f64::consts::PI * p.x).sin()
            * (std::f64::consts::PI * p.y).sin()
            * (std::f64::consts::PI * p.z).sin()
    };
    let forcing = move |p: Point3| 3.0 * std::f64::consts::PI.powi(2) * exact(p);

    let solve_on = |n: usize| -> f64 {
        let mesh = StructuredHexMesh::unit_cube(n);
        let assignment =
            Arc::new(BlockLayout::new(mesh.cell_dims(), near_cubic_factors(8)).assignment());
        let cfg = SpmdConfig {
            size: 8,
            topo: ClusterTopology::uniform(2, 4),
            net: NetworkModel::ideal(),
            compute: ComputeModel::new(1e9, 4e9),
            seed: 0,
        };
        let results = run_spmd(cfg, move |comm| {
            let dmesh = DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), comm.rank(), 8);
            let dm = DofMap::build(&dmesh, ElementOrder::Q1, comm);
            let h = mesh.cell_size();
            let kern = scalar_kernels(ElementOrder::Q1, h);
            let mut a = MatrixAssembly::new(1).assemble(&dm, &dm, comm, |_i, out| {
                out.copy_from_slice(&kern.stiffness);
            });
            // Per-cell quadrature of the spatially varying forcing.
            let rule = GaussRule3d::new(2);
            let owned: Vec<usize> = dmesh.owned_cells().to_vec();
            let mut b = assemble_vector(&dm, comm, |i, out| {
                let cell = mesh.cell_index(owned[i]);
                let lo = mesh.lo();
                let origin = Point3::new(
                    lo.x + h.x * cell.i as f64,
                    lo.y + h.y * cell.j as f64,
                    lo.z + h.z * cell.k as f64,
                );
                for (qp, &w) in rule.points.iter().zip(&rule.weights) {
                    let x = Point3::new(
                        origin.x + qp[0] * h.x,
                        origin.y + qp[1] * h.y,
                        origin.z + qp[2] * h.z,
                    );
                    let fval = forcing(x) * w * h.x * h.y * h.z;
                    for (a_loc, o) in out.iter_mut().enumerate() {
                        *o += fval * ElementOrder::Q1.shape(a_loc, qp[0], qp[1], qp[2]);
                    }
                }
            });
            apply_dirichlet(&mut a, &mut b, &dm, |_| 0.0, comm);
            let jac = Jacobi::new(&a, comm);
            let mut x = a.new_vector();
            let opts = SolveOptions {
                max_iters: 2000,
                ..SolveOptions::default()
            };
            let stats = cg(&a, &b, &mut x, &jac, opts, comm);
            assert!(stats.converged, "{stats:?}");
            dm.nodal_l2_error(&x, exact, comm)
        });
        results[0].value
    };

    let e4 = solve_on(4);
    let e8 = solve_on(8);
    let rate = (e4 / e8).log2();
    assert!(rate > 1.7, "rate = {rate} (e4 = {e4}, e8 = {e8})");
}

#[test]
fn rd_q1_and_q2_agree_on_this_exact_solution() {
    // Both orders reproduce the separable quadratic at the nodes — a strong
    // cross-check of two independent element implementations.
    for order in [ElementOrder::Q1, ElementOrder::Q2] {
        let app = App::Rd(hetero_fem::rd::RdConfig {
            order,
            steps: 2,
            ..hetero_fem::rd::RdConfig::default()
        });
        let req = RunRequest {
            fidelity: Fidelity::Numerical,
            ..RunRequest::new(catalog::puma(), app, 8, 3)
        };
        let out = execute(&req).unwrap();
        assert!(out.verification.unwrap().linf < 1e-5, "{order:?}");
    }
}

#[test]
fn decomposition_choice_does_not_change_the_numbers() {
    // Near-cubic blocks and x-major pencils give bitwise different layouts
    // but the same converged solution error.
    let mesh = StructuredHexMesh::unit_cube(4);
    let run_with = |assignment: Vec<usize>| -> f64 {
        let assignment = Arc::new(assignment);
        let mesh = mesh.clone();
        let cfg = SpmdConfig {
            size: 8,
            topo: ClusterTopology::uniform(2, 4),
            net: NetworkModel::gigabit_ethernet(),
            compute: ComputeModel::new(1e9, 4e9),
            seed: 1,
        };
        let results = run_spmd(cfg, move |comm| {
            let dmesh = DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), comm.rank(), 8);
            let r = hetero_fem::rd::solve_rd(
                &dmesh,
                &hetero_fem::rd::RdConfig {
                    steps: 2,
                    ..Default::default()
                },
                comm,
            );
            r.l2_error
        });
        results[0].value
    };
    let block = run_with(BlockLayout::new(mesh.cell_dims(), near_cubic_factors(8)).assignment());
    let pencils = run_with(BlockLayout::new(mesh.cell_dims(), (4, 2, 1)).assignment());
    assert!(
        (block - pencils).abs() < 1e-9,
        "block {block} vs pencils {pencils}"
    );
}
