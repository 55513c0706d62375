//! The paper's first test case: the 3-D reaction–diffusion equation.
//!
//! Solves `du/dt - (1/t^2) lap(u) - (2/t) u = -6` on the unit cube with
//! Dirichlet conditions from the exact solution `u = t^2 |x|^2`, using BDF2
//! in time and order-1 or order-2 elements in space (the paper uses
//! order 2). Each time step is split into the paper's three measured
//! phases: assembly (ii), preconditioner (iiia), solve (iiib).
//!
//! With Q2 elements the exact solution lies in the FEM space and BDF2 is
//! exact for its quadratic time dependence, so the computed nodal values
//! match the exact solution to solver tolerance — the strongest possible
//! end-to-end verification of the distributed pipeline.

use crate::assembly::{
    apply_dirichlet, assemble_vector, scalar_kernels, AssemblyStructure, MatrixAssembly,
};
use crate::bdf::BdfOrder;
use crate::dofmap::DofMap;
use crate::element::ElementOrder;
use crate::exact::RdExact;
use crate::phase::{PhaseRecorder, PhaseTimes};
use hetero_linalg::precond::{Identity, IluZero, Jacobi, Preconditioner, Ssor};
use hetero_linalg::solver::{cg, SolveOptions};
use hetero_linalg::{DistMatrix, DistVector};
use hetero_mesh::DistributedMesh;
use hetero_simmpi::SimComm;
use hetero_trace::{EventKind, Phase};
use serde::{Deserialize, Serialize};

/// Preconditioner selector for the applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrecondKind {
    /// No preconditioning.
    None,
    /// Diagonal scaling.
    Jacobi,
    /// Local symmetric Gauss–Seidel.
    Ssor,
    /// Local ILU(0) (additive Schwarz).
    Ilu0,
}

impl PrecondKind {
    /// Builds the preconditioner for `a`, a matrix assembled through
    /// `structure`, charging setup cost. SSOR and ILU(0) take their
    /// symbolic analysis from the structure (built on first use, then
    /// shared) and only refactorize numerically.
    pub fn build(
        self,
        a: &DistMatrix,
        structure: &AssemblyStructure,
        comm: &mut SimComm,
    ) -> Box<dyn Preconditioner> {
        match self {
            PrecondKind::None => Box::new(Identity),
            PrecondKind::Jacobi => Box::new(Jacobi::new(a, comm)),
            PrecondKind::Ssor => Box::new(Ssor::with_symbolic(
                structure.owned_block_symbolic(),
                a,
                comm,
            )),
            PrecondKind::Ilu0 => Box::new(IluZero::with_symbolic(
                structure.owned_block_symbolic(),
                a,
                comm,
            )),
        }
    }
}

/// Configuration of an RD run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RdConfig {
    /// Element order (the paper uses order 2).
    pub order: ElementOrder,
    /// Time integrator (the paper uses BDF2).
    pub bdf: BdfOrder,
    /// Initial time (must be positive: the PDE coefficients have 1/t).
    pub t0: f64,
    /// Time-step size.
    pub dt: f64,
    /// Number of time steps (each is one measured "iteration").
    pub steps: usize,
    /// Preconditioner for the CG solve.
    pub precond: PrecondKind,
    /// Krylov controls.
    pub solve: SolveOptions,
}

impl Default for RdConfig {
    fn default() -> Self {
        RdConfig {
            order: ElementOrder::Q2,
            bdf: BdfOrder::Two,
            t0: 1.0,
            dt: 0.05,
            steps: 8,
            precond: PrecondKind::Jacobi,
            solve: SolveOptions::default(),
        }
    }
}

/// Results of an RD run on one rank.
#[derive(Debug, Clone)]
pub struct RdReport {
    /// Phase times per time step (this rank's view). On a resumed run,
    /// covers only the steps executed by this attempt.
    pub iterations: Vec<PhaseTimes>,
    /// CG iterations per time step.
    pub krylov_iters: Vec<usize>,
    /// Nodal max error against the exact solution at the final time.
    pub linf_error: f64,
    /// Discrete L2 error at the final time.
    pub l2_error: f64,
    /// Global DoF count.
    pub n_global_dofs: usize,
}

/// Restart state for [`solve_rd_with`]: dense global values of the BDF
/// history, exactly as a checkpoint stores them.
///
/// `history[j]` holds `u` at `t0 + (start_step - j) * dt`; filling local
/// (owned + ghost) slots by global id reproduces the failure-free run's
/// in-memory state bitwise, so a resumed solve computes the exact same
/// solution trajectory (absolute step indexing keeps the float arithmetic
/// of `t` identical too).
#[derive(Debug, Clone)]
pub struct RdResume {
    /// Completed time steps (the checkpointed step index).
    pub start_step: usize,
    /// Dense global history fields, newest first; one per BDF level.
    pub history: Vec<Vec<f64>>,
}

/// What a step observer sees after each completed time step.
pub struct RdStepView<'a> {
    /// The just-completed (absolute, 1-based) step index.
    pub step: usize,
    /// The solver's DoF map (for snapshot capture).
    pub dm: &'a DofMap,
    /// BDF history, newest first; `history[0]` is the step's solution.
    pub history: &'a [DistVector],
    /// Phase times of the steps this attempt has executed so far.
    pub iterations: &'a [PhaseTimes],
}

/// Per-step callback: checkpointing hooks charge their I/O through the
/// provided communicator, keeping virtual time consistent.
pub type RdObserver<'a> = &'a mut dyn FnMut(&RdStepView<'_>, &mut SimComm);

/// Runs the RD application. Collective over all ranks of `comm`.
pub fn solve_rd(dmesh: &DistributedMesh, cfg: &RdConfig, comm: &mut SimComm) -> RdReport {
    solve_rd_with(dmesh, cfg, None, None, comm)
}

/// Runs the RD application, optionally resuming from checkpointed state
/// and/or observing each completed step (the fault-tolerance entry point).
/// Collective over all ranks of `comm`.
pub fn solve_rd_with(
    dmesh: &DistributedMesh,
    cfg: &RdConfig,
    resume: Option<&RdResume>,
    mut observer: Option<RdObserver<'_>>,
    comm: &mut SimComm,
) -> RdReport {
    assert!(cfg.t0 > 0.0 && cfg.dt > 0.0 && cfg.steps > 0);
    assert!(
        cfg.t0 - cfg.bdf.steps() as f64 * cfg.dt > 0.0,
        "history times must stay positive"
    );
    let ex = RdExact;
    let dm = DofMap::build(dmesh, cfg.order, comm);
    let h = dmesh.mesh().cell_size();
    let kern = scalar_kernels(cfg.order, h);
    let npe = cfg.order.nodes_per_element();

    // The mass matrix is time-independent: assembled once, used to apply the
    // BDF history term each step.
    let mut mass_asm = MatrixAssembly::new(1);
    let mass = mass_asm.assemble(&dm, &dm, comm, |_i, out| out.copy_from_slice(&kern.mass));

    // BDF history (u^{n-1}, u^{n-2}, ...): seeded from the exact solution,
    // or — on restart — refilled from the checkpoint's dense global fields
    // (owned and ghost slots alike, matching a post-update_ghosts state).
    let start_step = match resume {
        Some(r) => {
            assert!(r.start_step < cfg.steps, "resume beyond the final step");
            assert_eq!(r.history.len(), cfg.bdf.steps(), "resume history depth");
            r.start_step
        }
        None => 0,
    };
    let mut history: Vec<_> = match resume {
        Some(r) => r
            .history
            .iter()
            .map(|dense| {
                assert_eq!(dense.len(), dm.n_global(), "resume field size");
                let mut v = dm.new_vector();
                for l in 0..dm.n_local() {
                    v.as_mut_slice()[l] = dense[dm.global_id(l)];
                }
                v
            })
            .collect(),
        None => (1..=cfg.bdf.steps())
            .map(|j| dm.interpolate(|p| ex.u(p, cfg.t0 - (j as f64 - 1.0) * cfg.dt)))
            .collect(),
    };
    // history[0] = u at t0 + start_step*dt, history[1] = one dt earlier.

    let alpha = cfg.bdf.alpha();
    let hist_coeffs = cfg.bdf.history();

    let mut iterations = Vec::with_capacity(cfg.steps - start_step);
    let mut krylov_iters = Vec::with_capacity(cfg.steps - start_step);
    let mut u = dm.new_vector();
    // The system matrix changes values every step but never structure:
    // cache the sparsity pattern + scatter permutation across steps. The
    // structure is the mass matrix's (same maps, full dense blocks).
    let mut system_asm = MatrixAssembly::with_structure(
        2,
        mass_asm.shared_structure().expect("mass assembled above"),
    );

    for step in (start_step + 1)..=cfg.steps {
        let t = cfg.t0 + step as f64 * cfg.dt;
        let mut rec = PhaseRecorder::start(comm.phase_mark(step, None));

        // -- Assembly (ii): system matrix, history term, source, BCs. The
        // retained operator is refreshed in place (see `assemble_in_place`).
        let m_coeff = alpha / cfg.dt + ex.reaction(t);
        let k_coeff = ex.diffusion(t);
        let cell = |_i: usize, out: &mut [f64]| {
            for (o, (m, k)) in out.iter_mut().zip(kern.mass.iter().zip(&kern.stiffness)) {
                *o = m_coeff * m + k_coeff * k;
            }
        };
        let (a, structure) = system_asm.assemble_step(&dm, &dm, comm, cell);
        // w = sum_j c_j u^{n-j} / dt, combined over owned + ghost slots so
        // the mass SpMV sees consistent data.
        let mut w = dm.new_vector();
        for (j, &c) in hist_coeffs.iter().enumerate() {
            for (wi, hi) in w.as_mut_slice().iter_mut().zip(history[j].as_slice()) {
                *wi += c / cfg.dt * hi;
            }
        }
        comm.compute(hetero_simmpi::Work::new(
            2.0 * hist_coeffs.len() as f64 * dm.n_local() as f64,
            24.0 * hist_coeffs.len() as f64 * dm.n_local() as f64,
        ));
        let mut b = mass.new_vector();
        mass.spmv(&mut w, &mut b, comm);
        let source = assemble_vector(&dm, comm, |_i, out| {
            for (o, l) in out.iter_mut().zip(&kern.load[..npe]) {
                *o = ex.source() * l;
            }
        });
        b.axpy(1.0, &source, comm);
        apply_dirichlet(&mut *a, &mut b, &dm, |p| ex.u(p, t), comm);
        rec.end_assembly(comm.phase_mark(step, Some(Phase::Assembly)));

        // -- Preconditioner (iiia).
        let precond = cfg.precond.build(&*a, structure, comm);
        rec.end_precond(comm.phase_mark(step, Some(Phase::Precond)));

        // -- Solve (iiib). Warm start from the previous solution.
        u.copy_from(&history[0], comm);
        let stats = cg(&*a, &b, &mut u, precond.as_ref(), cfg.solve, comm);
        assert!(
            stats.converged,
            "RD solve failed at step {step}: {stats:?} (t = {t})"
        );
        krylov_iters.push(stats.iterations);
        rec.end_solve(comm.phase_mark(step, Some(Phase::Solve)));
        comm.trace_instant(EventKind::Solver {
            step: step as u32,
            iters: stats.iterations as u32,
        });

        // Rotate history (u's ghosts refreshed for the next history combo).
        u.update_ghosts(dm.plan(), comm);
        history.rotate_right(1);
        history[0].copy_from(&u, comm);
        iterations.push(rec.finish(comm.phase_mark(step, Some(Phase::Iteration))));

        if let Some(obs) = observer.as_mut() {
            let view = RdStepView {
                step,
                dm: &dm,
                history: &history,
                iterations: &iterations,
            };
            obs(&view, comm);
        }
    }

    let t_final = cfg.t0 + cfg.steps as f64 * cfg.dt;
    let linf_error = dm.nodal_linf_error(&history[0], |p| ex.u(p, t_final), comm);
    let l2_error = dm.nodal_l2_error(&history[0], |p| ex.u(p, t_final), comm);

    RdReport {
        iterations,
        krylov_iters,
        linf_error,
        l2_error,
        n_global_dofs: dm.n_global(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_mesh::StructuredHexMesh;
    use hetero_partition::{BlockPartitioner, Partitioner};
    use hetero_simmpi::{run_spmd, ClusterTopology, ComputeModel, NetworkModel, SpmdConfig};
    use std::sync::Arc;

    fn cfg(size: usize) -> SpmdConfig {
        SpmdConfig {
            size,
            topo: ClusterTopology::uniform(size.div_ceil(4).max(1), 4),
            net: NetworkModel::gigabit_ethernet(),
            compute: ComputeModel::new(1e9, 4e9),
            seed: 11,
        }
    }

    fn run_rd(n: usize, p: usize, rd_cfg: RdConfig) -> Vec<RdReport> {
        let mesh = StructuredHexMesh::unit_cube(n);
        let assignment = Arc::new(BlockPartitioner.partition(&mesh, p));
        run_spmd(cfg(p), move |comm| {
            let dmesh = DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), comm.rank(), p);
            solve_rd(&dmesh, &rd_cfg, comm)
        })
        .into_iter()
        .map(|r| r.value)
        .collect()
    }

    #[test]
    fn q2_bdf2_is_exact_to_solver_tolerance() {
        // The paper's discretization choices make the discrete solution
        // coincide with the exact one: the whole distributed pipeline must
        // reproduce it to (tight) solver tolerance.
        let reports = run_rd(
            3,
            1,
            RdConfig {
                steps: 4,
                ..RdConfig::default()
            },
        );
        assert!(
            reports[0].linf_error < 5e-6,
            "linf = {}",
            reports[0].linf_error
        );
    }

    #[test]
    fn distributed_run_matches_exactness_too() {
        let reports = run_rd(
            4,
            8,
            RdConfig {
                steps: 3,
                ..RdConfig::default()
            },
        );
        for r in &reports {
            assert!(r.linf_error < 5e-6, "linf = {}", r.linf_error);
            assert_eq!(r.iterations.len(), 3);
        }
        // Error metrics are global reductions: all ranks agree.
        let e0 = reports[0].linf_error;
        assert!(reports.iter().all(|r| (r.linf_error - e0).abs() < 1e-15));
    }

    #[test]
    fn q1_is_nodally_superconvergent_for_the_separable_solution() {
        // The exact solution t^2 (x^2 + y^2 + z^2) is a sum of 1-D
        // quadratics; on a uniform tensor grid Q1 FEM is nodally exact for
        // each 1-D factor, so even the order-1 discretization reproduces the
        // nodal values to solver tolerance. (A genuine convergence study
        // with a manufactured non-polynomial solution lives in
        // tests/integration_rd.rs.)
        let cfg = RdConfig {
            order: ElementOrder::Q1,
            steps: 2,
            dt: 0.02,
            ..RdConfig::default()
        };
        let r = run_rd(3, 1, cfg);
        assert!(r[0].l2_error < 1e-6, "l2 = {}", r[0].l2_error);
    }

    #[test]
    fn phase_times_are_positive_and_ordered() {
        let reports = run_rd(
            3,
            2,
            RdConfig {
                steps: 3,
                ..RdConfig::default()
            },
        );
        for r in &reports {
            for it in &r.iterations {
                assert!(it.assembly > 0.0);
                assert!(it.precond > 0.0);
                assert!(it.solve > 0.0);
                assert!(it.total >= it.assembly + it.precond + it.solve - 1e-12);
            }
        }
    }

    #[test]
    fn stronger_preconditioner_fewer_iterations() {
        let iters = |pk: PrecondKind| -> usize {
            let cfg = RdConfig {
                precond: pk,
                steps: 2,
                ..RdConfig::default()
            };
            run_rd(3, 1, cfg)[0].krylov_iters.iter().sum()
        };
        let none = iters(PrecondKind::None);
        let jac = iters(PrecondKind::Jacobi);
        let ilu = iters(PrecondKind::Ilu0);
        assert!(jac <= none, "jacobi {jac} vs none {none}");
        assert!(ilu < jac, "ilu {ilu} vs jacobi {jac}");
    }

    #[test]
    fn bdf1_is_less_accurate_than_bdf2() {
        let cfg1 = RdConfig {
            bdf: BdfOrder::One,
            steps: 4,
            ..RdConfig::default()
        };
        let cfg2 = RdConfig {
            bdf: BdfOrder::Two,
            steps: 4,
            ..RdConfig::default()
        };
        let e1 = run_rd(2, 1, cfg1)[0].linf_error;
        let e2 = run_rd(2, 1, cfg2)[0].linf_error;
        assert!(e1 > 100.0 * e2, "bdf1 {e1} vs bdf2 {e2}");
    }

    #[test]
    fn resumed_run_reproduces_the_trajectory_bitwise() {
        // Capture the BDF history after step 3 through the observer, then
        // resume from it: the final solution and error norms must be
        // bitwise identical to the uninterrupted run (rollback may lose
        // time, never accuracy).
        let mesh = StructuredHexMesh::unit_cube(3);
        let assignment = Arc::new(BlockPartitioner.partition(&mesh, 2));
        let rd_cfg = RdConfig {
            steps: 6,
            ..RdConfig::default()
        };
        let results = run_spmd(cfg(2), move |comm| {
            let dmesh = DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), comm.rank(), 2);
            let mut saved: Option<RdResume> = None;
            {
                let mut obs = |view: &RdStepView<'_>, _comm: &mut SimComm| {
                    if view.step == 3 {
                        let dense: Vec<Vec<f64>> = view
                            .history
                            .iter()
                            .map(|v| {
                                // Owned dofs tile the global space, so an
                                // owner-only scatter sums to the exact dense
                                // field across ranks.
                                let mut d = vec![0.0; view.dm.n_global()];
                                for l in 0..view.dm.n_owned() {
                                    d[view.dm.global_id(l)] = v.owned()[l];
                                }
                                d
                            })
                            .collect();
                        saved = Some(RdResume {
                            start_step: 3,
                            history: dense,
                        });
                    }
                };
                let full = solve_rd_with(&dmesh, &rd_cfg, None, Some(&mut obs), comm);
                let mut resume = saved.expect("observer fired at step 3");
                // Merge the partial dense fields across ranks so the resume
                // state is complete (rank-local zeros filled by the peer).
                for f in &mut resume.history {
                    *f = comm.allreduce(hetero_simmpi::collectives::ReduceOp::Sum, f);
                }
                let resumed = solve_rd_with(&dmesh, &rd_cfg, Some(&resume), None, comm);
                assert_eq!(resumed.iterations.len(), 3);
                (
                    full.linf_error,
                    full.l2_error,
                    resumed.linf_error,
                    resumed.l2_error,
                )
            }
        });
        for r in &results {
            let (fl, f2, rl, r2) = r.value;
            assert_eq!(fl, rl, "linf must match bitwise");
            assert_eq!(f2, r2, "l2 must match bitwise");
        }
    }

    #[test]
    #[should_panic(expected = "history times must stay positive")]
    fn t0_too_small_rejected() {
        let cfg = RdConfig {
            t0: 0.05,
            dt: 0.05,
            ..RdConfig::default()
        };
        run_rd(2, 1, cfg);
    }
}
