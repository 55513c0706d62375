//! The paper's second test case: incompressible Navier–Stokes on the
//! Ethier–Steinman benchmark.
//!
//! Discretization mirrors the paper: BDF2 in time, order-2 velocity /
//! order-1 pressure in space. The nonlinear term is handled semi-implicitly
//! with BDF2 extrapolation of the advecting field, and the saddle-point
//! system is decoupled by an incremental pressure-correction (projection)
//! scheme:
//!
//! 1. **momentum**: solve, per component,
//!    `(rho alpha/dt) M u* + mu K u* + rho C(w) u* = (rho/dt) M h - G p^{n-1}`
//!    with Dirichlet data from the exact solution;
//! 2. **pressure Poisson**: `L phi = -(rho alpha/dt) div(u*)`, with one
//!    pinned pressure DoF;
//! 3. **correction**: `u^n = u* - dt/(rho alpha) Ml^{-1} G phi`,
//!    `p^n = p^{n-1} + phi` (lumped velocity mass `Ml`).
//!
//! This is "by far more challenging than RD ... a vector problem involving
//! four scalar fields" — per iteration it assembles a convection-dependent
//! operator and solves four linear systems, exchanging roughly 4x the halo
//! data, which is exactly why the paper's NS weak scaling is worse on every
//! platform.

use crate::assembly::{
    assemble_vector, constrain_system, constrain_system_multi, gradient_kernel, scalar_kernels,
    MatrixAssembly,
};
use crate::bdf::BdfOrder;
use crate::dofmap::DofMap;
use crate::element::ElementOrder;
use crate::exact::EthierSteinman;
use crate::phase::{PhaseRecorder, PhaseTimes};
use crate::quadrature::{GaussRule3d, ShapeTable};
use crate::rd::PrecondKind;
use hetero_linalg::solver::{
    bicgstab_with_workspace, cg, gmres_with_workspace, SolveOptions, SolverWorkspace,
};
use hetero_linalg::DistVector;
use hetero_mesh::DistributedMesh;
use hetero_simmpi::SimComm;
use hetero_trace::{EventKind, Phase};
use serde::{Deserialize, Serialize};

/// Krylov method used for the nonsymmetric momentum systems — the choice an
/// AztecOO user makes in the paper's stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MomentumSolver {
    /// BiCGStab: two SpMVs per iteration, short recurrences.
    BiCgStab,
    /// Restarted GMRES(m): one SpMV per iteration, `m` stored basis
    /// vectors.
    Gmres {
        /// Restart length.
        restart: usize,
    },
}

/// Configuration of an NS run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NsConfig {
    /// Velocity element order (paper: order 2).
    pub vel_order: ElementOrder,
    /// Pressure element order (paper: order 1).
    pub p_order: ElementOrder,
    /// Time integrator.
    pub bdf: BdfOrder,
    /// Initial time.
    pub t0: f64,
    /// Time-step size.
    pub dt: f64,
    /// Number of time steps.
    pub steps: usize,
    /// Fluid density `rho`.
    pub rho: f64,
    /// Dynamic viscosity `mu`.
    pub mu: f64,
    /// Krylov method for the (nonsymmetric) momentum solves.
    pub momentum_solver: MomentumSolver,
    /// Momentum-solve preconditioner.
    pub precond_vel: PrecondKind,
    /// Pressure-solve preconditioner.
    pub precond_p: PrecondKind,
    /// Momentum Krylov controls (BiCGStab).
    pub solve_vel: SolveOptions,
    /// Pressure Krylov controls (CG).
    pub solve_p: SolveOptions,
}

impl Default for NsConfig {
    fn default() -> Self {
        NsConfig {
            vel_order: ElementOrder::Q2,
            p_order: ElementOrder::Q1,
            bdf: BdfOrder::Two,
            t0: 0.0,
            dt: 0.01,
            steps: 6,
            rho: 1.0,
            mu: 0.05,
            momentum_solver: MomentumSolver::BiCgStab,
            precond_vel: PrecondKind::Jacobi,
            precond_p: PrecondKind::Ssor,
            solve_vel: SolveOptions {
                rel_tol: 1e-9,
                abs_tol: 1e-13,
                max_iters: 400,
                ..SolveOptions::default()
            },
            solve_p: SolveOptions {
                rel_tol: 1e-9,
                abs_tol: 1e-13,
                max_iters: 800,
                ..SolveOptions::default()
            },
        }
    }
}

impl NsConfig {
    /// The exact solution for these fluid parameters.
    pub fn exact(&self) -> EthierSteinman {
        EthierSteinman::classical(self.mu / self.rho)
    }
}

/// Results of an NS run on one rank.
#[derive(Debug, Clone)]
pub struct NsReport {
    /// Phase times per time step.
    pub iterations: Vec<PhaseTimes>,
    /// Summed momentum-solve Krylov iterations per step (3 components).
    pub vel_iters: Vec<usize>,
    /// Pressure-solve Krylov iterations per step.
    pub p_iters: Vec<usize>,
    /// Velocity nodal max error at the final time (all 3 components).
    pub vel_linf_error: f64,
    /// Velocity discrete L2 error at the final time.
    pub vel_l2_error: f64,
    /// Global velocity DoFs (scalar space; the vector field has 3x).
    pub n_global_vel_dofs: usize,
    /// Global pressure DoFs.
    pub n_global_p_dofs: usize,
}

/// Restart state for [`solve_ns_with`]: dense global velocity history and
/// pressure, exactly as a checkpoint stores them (see
/// [`crate::rd::RdResume`] for the bitwise-resume argument).
#[derive(Debug, Clone)]
pub struct NsResume {
    /// Completed time steps (the checkpointed step index).
    pub start_step: usize,
    /// Dense global velocity history, newest first; one `[x, y, z]`
    /// component triple per BDF level.
    pub hist: Vec<[Vec<f64>; 3]>,
    /// Dense global pressure at the checkpointed step.
    pub pressure: Vec<f64>,
}

/// What a step observer sees after each completed NS time step.
pub struct NsStepView<'a> {
    /// The just-completed (absolute, 1-based) step index.
    pub step: usize,
    /// Velocity DoF map.
    pub vmap: &'a DofMap,
    /// Pressure DoF map.
    pub pmap: &'a DofMap,
    /// Velocity history, newest first.
    pub hist: &'a [[DistVector; 3]],
    /// Current pressure.
    pub pressure: &'a DistVector,
    /// Phase times of the steps this attempt has executed so far.
    pub iterations: &'a [PhaseTimes],
}

/// Per-step callback for checkpointing hooks.
pub type NsObserver<'a> = &'a mut dyn FnMut(&NsStepView<'_>, &mut SimComm);

/// Nodes of the largest supported element (Q2).
const MAX_NPE: usize = 27;

/// Adds one cell's convection block, `out[a][b] += rho * int (w . grad
/// phi_b) phi_a`, row-major `npe x npe`, for the advecting field `w` (one
/// vector of local nodal values per component) on the cell with local DoFs
/// `dofs`.
///
/// `w . grad phi_b` does not depend on the test function `a`, so it is
/// evaluated once per quadrature point rather than once per `(a, b)` pair.
/// Every entry still accumulates `(rho * w_q * phi_a) * (w . grad phi_b)`
/// over the quadrature points in order — the expression tree of the plain
/// `q, a, b` triple loop, hence its bits.
fn add_convection(
    out: &mut [f64],
    tab: &ShapeTable,
    vol: f64,
    rho: f64,
    dofs: &[usize],
    w: &[Vec<f64>; 3],
) {
    let npe = tab.npe;
    assert!(npe <= MAX_NPE && dofs.len() == npe && out.len() == npe * npe);
    let mut wg = [0.0f64; MAX_NPE];
    let wg = &mut wg[..npe];
    for (qi, &weight) in tab.weights.iter().enumerate() {
        let wq = weight * vol;
        let shapes = tab.shapes_at(qi);
        // w at this quadrature point.
        let mut wvec = [0.0f64; 3];
        for (&dof, &s) in dofs.iter().zip(shapes) {
            wvec[0] += w[0][dof] * s;
            wvec[1] += w[1][dof] * s;
            wvec[2] += w[2][dof] * s;
        }
        for (g, gb) in wg.iter_mut().zip(tab.grads_at(qi)) {
            *g = wvec[0] * gb[0] + wvec[1] * gb[1] + wvec[2] * gb[2];
        }
        for (row, &sa) in out.chunks_exact_mut(npe).zip(shapes) {
            let coeff = rho * wq * sa;
            for (o, &g) in row.iter_mut().zip(wg.iter()) {
                *o += coeff * g;
            }
        }
    }
}

/// Runs the NS application, optionally resuming from checkpointed state
/// and/or observing each completed step (the fault-tolerance entry point).
/// Collective over all ranks of `comm`.
pub fn solve_ns_with(
    dmesh: &DistributedMesh,
    cfg: &NsConfig,
    resume: Option<&NsResume>,
    mut observer: Option<NsObserver<'_>>,
    comm: &mut SimComm,
) -> NsReport {
    assert!(cfg.dt > 0.0 && cfg.steps > 0 && cfg.rho > 0.0 && cfg.mu > 0.0);
    let es = cfg.exact();
    let vmap = DofMap::build(dmesh, cfg.vel_order, comm);
    let pmap = DofMap::build(dmesh, cfg.p_order, comm);
    let h = dmesh.mesh().cell_size();
    let kern_v = scalar_kernels(cfg.vel_order, h);
    let kern_p = scalar_kernels(cfg.p_order, h);

    // Constant operators, assembled once. Each space pair shares one
    // symbolic structure, so the three gradients (and divergences) reuse
    // the structure of their first assembly — cached calls are
    // traffic-identical and bitwise-pinned, see `MatrixAssembly`. The
    // gradient and divergence assemblies are never refreshed, so they (and
    // their patterns' scatter arrays) are dropped once the three operators
    // exist.
    let mut mass_asm = MatrixAssembly::new(1);
    let mass_v = mass_asm.assemble(&vmap, &vmap, comm, |_i, out| {
        out.copy_from_slice(&kern_v.mass)
    });
    let grad: Vec<_> = {
        let mut asm = MatrixAssembly::new(1);
        (0..3)
            .map(|d| {
                let gk = gradient_kernel(cfg.vel_order, cfg.p_order, d, h);
                asm.assemble(&vmap, &pmap, comm, |_i, out| out.copy_from_slice(&gk))
            })
            .collect()
    };
    let div: Vec<_> = {
        let mut asm = MatrixAssembly::new(1);
        (0..3)
            .map(|d| {
                let dk = gradient_kernel(cfg.p_order, cfg.vel_order, d, h);
                asm.assemble(&pmap, &vmap, comm, |_i, out| out.copy_from_slice(&dk))
            })
            .collect()
    };
    // Lumped velocity mass (row sums = load vector entries).
    let lumped = assemble_vector(&vmap, comm, |_i, out| out.copy_from_slice(&kern_v.load));

    // Quadrature tables for the convection kernel.
    let rule = GaussRule3d::new(cfg.vel_order.quadrature_points_per_axis());
    let tab_v = ShapeTable::new(cfg.vel_order, &rule, h);
    let vol = h.x * h.y * h.z;

    // Velocity history [newest, older], each 3 components; pressure state.
    // On restart both are refilled from the checkpoint's dense global
    // fields (owned and ghost slots alike, matching a post-update_ghosts
    // state).
    let nhist = cfg.bdf.steps();
    let fill = |dm: &DofMap, dense: &[f64]| {
        assert_eq!(dense.len(), dm.n_global(), "resume field size");
        let mut v = dm.new_vector();
        for l in 0..dm.n_local() {
            v.as_mut_slice()[l] = dense[dm.global_id(l)];
        }
        v
    };
    let start_step = match resume {
        Some(r) => {
            assert!(r.start_step < cfg.steps, "resume beyond the final step");
            assert_eq!(r.hist.len(), nhist, "resume history depth");
            r.start_step
        }
        None => 0,
    };
    let mut hist: Vec<[DistVector; 3]> = match resume {
        Some(r) => r
            .hist
            .iter()
            .map(|comps| std::array::from_fn(|i| fill(&vmap, &comps[i])))
            .collect(),
        None => (0..nhist)
            .map(|j| {
                let t = cfg.t0 - j as f64 * cfg.dt;
                [
                    vmap.interpolate(|p| es.velocity_component(0, p, t)),
                    vmap.interpolate(|p| es.velocity_component(1, p, t)),
                    vmap.interpolate(|p| es.velocity_component(2, p, t)),
                ]
            })
            .collect(),
    };
    let mut pressure = match resume {
        Some(r) => fill(&pmap, &r.pressure),
        None => pmap.interpolate(|p| es.pressure(p, cfg.t0)),
    };

    let alpha = cfg.bdf.alpha();
    let hist_c = cfg.bdf.history();
    let extr_c = cfg.bdf.extrapolation();

    // The pinned pressure DoF: global lattice node 0 (a domain corner).
    let pin_local = pmap.local_id(0);

    let mut iterations = Vec::with_capacity(cfg.steps - start_step);
    let mut vel_iters = Vec::with_capacity(cfg.steps - start_step);
    let mut p_iters = Vec::with_capacity(cfg.steps - start_step);
    // Both per-step operators keep a fixed sparsity structure: cache the
    // symbolic phase and only re-scatter values each step. The momentum
    // structure is the velocity mass matrix's (same maps, full dense
    // blocks).
    let mut momentum_asm = MatrixAssembly::with_structure(
        8,
        mass_asm.shared_structure().expect("mass assembled above"),
    );
    let mut pressure_asm = MatrixAssembly::new(1);
    // Solver scratch shared by the three momentum solves of every step:
    // after the first step no solver vector is allocated again.
    let mut solver_ws = SolverWorkspace::new();

    for step in (start_step + 1)..=cfg.steps {
        let t = cfg.t0 + step as f64 * cfg.dt;
        let mut rec = PhaseRecorder::start(comm.phase_mark(step, None));

        // -- Assembly (ii) --------------------------------------------------
        // Extrapolated advecting field w (all local slots valid: histories
        // keep their ghosts fresh).
        let w: [Vec<f64>; 3] = std::array::from_fn(|i| {
            let mut out = vec![0.0; vmap.n_local()];
            for (j, &c) in extr_c.iter().enumerate() {
                for (o, v) in out.iter_mut().zip(hist[j][i].as_slice()) {
                    *o += c * v;
                }
            }
            out
        });
        comm.compute(hetero_simmpi::Work::new(
            6.0 * vmap.n_local() as f64,
            72.0 * vmap.n_local() as f64,
        ));

        // Momentum operator: (rho alpha/dt) M + mu K + rho C(w). The
        // charged cost (8 operator terms) reflects the paper's monolithic
        // vector-system assembly — three momentum blocks with convection
        // plus the gradient/divergence coupling — even though the projection
        // scheme shares one scalar block across components.
        let m_coeff = cfg.rho * alpha / cfg.dt;
        let momentum_cell = |i: usize, out: &mut [f64]| {
            for (o, (m, k)) in out
                .iter_mut()
                .zip(kern_v.mass.iter().zip(&kern_v.stiffness))
            {
                *o = m_coeff * m + cfg.mu * k;
            }
            add_convection(out, &tab_v, vol, cfg.rho, vmap.cell_dofs(i), &w);
        };
        let (a_v, vv) = momentum_asm.assemble_step(&vmap, &vmap, comm, momentum_cell);

        // Pressure Laplacian (assembled per step, as a general-coefficient
        // code would; values are constant here).
        let pressure_cell = |_i: usize, out: &mut [f64]| out.copy_from_slice(&kern_p.stiffness);
        let (l_p, pp) = pressure_asm.assemble_step(&pmap, &pmap, comm, pressure_cell);

        // Momentum right-hand sides.
        let mut rhs: Vec<DistVector> = Vec::with_capacity(3);
        for i in 0..3 {
            let mut hcombo = vmap.new_vector();
            for (j, &c) in hist_c.iter().enumerate() {
                for (o, v) in hcombo.as_mut_slice().iter_mut().zip(hist[j][i].as_slice()) {
                    *o += cfg.rho * c / cfg.dt * v;
                }
            }
            let mut b = vmap.new_vector();
            mass_v.spmv(&mut hcombo, &mut b, comm);
            // - G_i p^{n-1}
            let mut gp = vmap.new_vector();
            grad[i].spmv(&mut pressure, &mut gp, comm);
            b.axpy(-1.0, &gp, comm);
            rhs.push(b);
        }
        // Impose the three components' boundary traces in one pass so every
        // right-hand side is lifted against the unmodified matrix.
        {
            let mut mask = vec![false; vmap.n_local()];
            let mut values: [Vec<f64>; 3] = std::array::from_fn(|_| vec![0.0; vmap.n_local()]);
            for l in 0..vmap.n_local() {
                if vmap.on_boundary(l) {
                    mask[l] = true;
                    for (i, v) in values.iter_mut().enumerate() {
                        v[l] = es.velocity_component(i, vmap.coord(l), t);
                    }
                }
            }
            let mut rhs_iter = rhs.iter_mut();
            let (r0, r1, r2) = (
                rhs_iter.next().unwrap(),
                rhs_iter.next().unwrap(),
                rhs_iter.next().unwrap(),
            );
            constrain_system_multi(
                &mut *a_v,
                &mut [(r0, &values[0]), (r1, &values[1]), (r2, &values[2])],
                &mask,
                comm,
            );
        }
        rec.end_assembly(comm.phase_mark(step, Some(Phase::Assembly)));

        // -- Preconditioner (iiia) -------------------------------------------
        let pre_v = cfg.precond_vel.build(&*a_v, vv, comm);
        rec.end_precond(comm.phase_mark(step, Some(Phase::Precond)));

        // -- Solve (iiib) ----------------------------------------------------
        // Momentum: three component solves, warm-started.
        let mut ustar: Vec<DistVector> = Vec::with_capacity(3);
        let mut vits = 0usize;
        for (i, rhs_i) in rhs.iter().enumerate() {
            let mut x = vmap.new_vector();
            x.copy_from(&hist[0][i], comm);
            let stats = match cfg.momentum_solver {
                MomentumSolver::BiCgStab => bicgstab_with_workspace(
                    &*a_v,
                    rhs_i,
                    &mut x,
                    pre_v.as_ref(),
                    cfg.solve_vel,
                    &mut solver_ws,
                    comm,
                ),
                MomentumSolver::Gmres { restart } => gmres_with_workspace(
                    &*a_v,
                    rhs_i,
                    &mut x,
                    pre_v.as_ref(),
                    restart,
                    cfg.solve_vel,
                    &mut solver_ws,
                    comm,
                ),
            };
            assert!(
                stats.converged,
                "NS momentum solve {i} failed at step {step}: {stats:?}"
            );
            vits += stats.iterations;
            ustar.push(x);
        }

        // Pressure Poisson: L phi = -(rho alpha/dt) sum_i D_i u*_i.
        let mut rhs_p = pmap.new_vector();
        for i in 0..3 {
            let mut dterm = pmap.new_vector();
            div[i].spmv(&mut ustar[i], &mut dterm, comm);
            rhs_p.axpy(-cfg.rho * alpha / cfg.dt, &dterm, comm);
        }
        // Pin one pressure DoF to the exact increment to fix the gauge.
        let pin_value = es.pressure(hetero_mesh::Point3::ZERO, t)
            - es.pressure(hetero_mesh::Point3::ZERO, t - cfg.dt);
        {
            let mut mask = vec![false; pmap.n_local()];
            let mut values = vec![0.0; pmap.n_local()];
            if let Some(l) = pin_local {
                mask[l] = true;
                values[l] = pin_value;
            }
            constrain_system(&mut *l_p, &mut rhs_p, &mask, &values, comm);
        }
        let pre_p = cfg.precond_p.build(&*l_p, pp, comm);
        let mut phi = pmap.new_vector();
        let stats_p = cg(&*l_p, &rhs_p, &mut phi, pre_p.as_ref(), cfg.solve_p, comm);
        assert!(
            stats_p.converged,
            "NS pressure solve failed at step {step}: {stats_p:?}"
        );

        // Correction: u^n = u* - dt/(rho alpha) Ml^{-1} G phi; p += phi.
        let corr = cfg.dt / (cfg.rho * alpha);
        for i in 0..3 {
            let mut gphi = vmap.new_vector();
            grad[i].spmv(&mut phi, &mut gphi, comm);
            for ((u, g), ml) in ustar[i]
                .owned_mut()
                .iter_mut()
                .zip(gphi.owned())
                .zip(lumped.owned())
            {
                *u -= corr * g / ml;
            }
        }
        comm.compute(hetero_simmpi::Work::new(
            9.0 * vmap.n_owned() as f64,
            96.0 * vmap.n_owned() as f64,
        ));
        // Re-impose the exact velocity trace after the correction.
        for (i, ui) in ustar.iter_mut().enumerate() {
            for l in 0..vmap.n_owned() {
                if vmap.on_boundary(l) {
                    ui.owned_mut()[l] = es.velocity_component(i, vmap.coord(l), t);
                }
            }
            ui.update_ghosts(vmap.plan(), comm);
        }
        pressure.axpy(1.0, &phi, comm);
        pressure.update_ghosts(pmap.plan(), comm);
        rec.end_solve(comm.phase_mark(step, Some(Phase::Solve)));
        comm.trace_instant(EventKind::Solver {
            step: step as u32,
            iters: (vits + stats_p.iterations) as u32,
        });

        vel_iters.push(vits);
        p_iters.push(stats_p.iterations);

        // Rotate velocity history.
        hist.rotate_right(1);
        for (h, u) in hist[0].iter_mut().zip(&ustar) {
            h.copy_from(u, comm);
        }
        iterations.push(rec.finish(comm.phase_mark(step, Some(Phase::Iteration))));

        if let Some(obs) = observer.as_mut() {
            let view = NsStepView {
                step,
                vmap: &vmap,
                pmap: &pmap,
                hist: &hist,
                pressure: &pressure,
                iterations: &iterations,
            };
            obs(&view, comm);
        }
    }

    let t_final = cfg.t0 + cfg.steps as f64 * cfg.dt;
    let mut vel_linf_error = 0.0f64;
    let mut vel_l2_sq = 0.0f64;
    for (i, hi) in hist[0].iter().enumerate() {
        let linf = vmap.nodal_linf_error(hi, |p| es.velocity_component(i, p, t_final), comm);
        let l2 = vmap.nodal_l2_error(hi, |p| es.velocity_component(i, p, t_final), comm);
        vel_linf_error = vel_linf_error.max(linf);
        vel_l2_sq += l2 * l2;
    }

    NsReport {
        iterations,
        vel_iters,
        p_iters,
        vel_linf_error,
        vel_l2_error: vel_l2_sq.sqrt(),
        n_global_vel_dofs: vmap.n_global(),
        n_global_p_dofs: pmap.n_global(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_mesh::StructuredHexMesh;
    use hetero_partition::block::near_cubic_factors;
    use hetero_partition::BlockLayout;
    use hetero_simmpi::{run_spmd, ClusterTopology, ComputeModel, NetworkModel, SpmdConfig};
    use std::sync::Arc;

    fn cfg(size: usize) -> SpmdConfig {
        SpmdConfig {
            size,
            topo: ClusterTopology::uniform(size.div_ceil(4).max(1), 4),
            net: NetworkModel::gigabit_ethernet(),
            compute: ComputeModel::new(1e9, 4e9),
            seed: 13,
        }
    }

    fn run_ns(n: usize, p: usize, ns_cfg: NsConfig) -> Vec<NsReport> {
        let mesh = StructuredHexMesh::unit_cube(n);
        let assignment =
            Arc::new(BlockLayout::new(mesh.cell_dims(), near_cubic_factors(p)).assignment());
        run_spmd(cfg(p), move |comm| {
            let dmesh = DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), comm.rank(), p);
            solve_ns_with(&dmesh, &ns_cfg, None, None, comm)
        })
        .into_iter()
        .map(|r| r.value)
        .collect()
    }

    #[test]
    fn hoisted_convection_matches_the_triple_loop_bitwise() {
        // The reference is the kernel as it was: `w . grad phi_b`
        // recomputed for every `(a, b)` pair of every quadrature point.
        let h = hetero_mesh::Point3::new(0.5, 0.25, 0.2);
        let (vol, rho) = (h.x * h.y * h.z, 1.3);
        for order in [ElementOrder::Q1, ElementOrder::Q2] {
            let npe = order.nodes_per_element();
            let rule = GaussRule3d::new(order.quadrature_points_per_axis());
            let tab = ShapeTable::new(order, &rule, h);
            // A scattered cell in a larger local space, random field values.
            let dofs: Vec<usize> = (0..npe).map(|a| (7 * a + 3) % (2 * npe)).collect();
            let mut state = 0x2012u64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            };
            let w: [Vec<f64>; 3] = std::array::from_fn(|_| (0..2 * npe).map(|_| next()).collect());
            let start: Vec<f64> = (0..npe * npe).map(|_| next()).collect();

            let mut naive = start.clone();
            for qi in 0..rule.len() {
                let wq = rule.weights[qi] * vol;
                let mut wvec = [0.0f64; 3];
                for (a, &dof) in dofs.iter().enumerate() {
                    let s = tab.shape(qi, a);
                    wvec[0] += w[0][dof] * s;
                    wvec[1] += w[1][dof] * s;
                    wvec[2] += w[2][dof] * s;
                }
                for a in 0..npe {
                    let coeff = rho * wq * tab.shape(qi, a);
                    for b in 0..npe {
                        let gb = tab.grad(qi, b);
                        naive[a * npe + b] +=
                            coeff * (wvec[0] * gb[0] + wvec[1] * gb[1] + wvec[2] * gb[2]);
                    }
                }
            }

            let mut hoisted = start;
            add_convection(&mut hoisted, &tab, vol, rho, &dofs, &w);
            for (i, (x, y)) in hoisted.iter().zip(&naive).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{order:?} entry {i}");
            }
        }
    }

    #[test]
    fn ns_tracks_the_exact_solution() {
        // Short run on a coarse mesh: the velocity error must stay small
        // relative to the O(1) velocity magnitudes.
        let r = run_ns(
            3,
            1,
            NsConfig {
                steps: 4,
                ..NsConfig::default()
            },
        );
        assert!(r[0].vel_linf_error < 0.05, "linf = {}", r[0].vel_linf_error);
        assert_eq!(r[0].iterations.len(), 4);
    }

    #[test]
    fn distributed_matches_serial() {
        let serial = run_ns(
            3,
            1,
            NsConfig {
                steps: 3,
                ..NsConfig::default()
            },
        );
        let dist = run_ns(
            3,
            8,
            NsConfig {
                steps: 3,
                ..NsConfig::default()
            },
        );
        let rel = (serial[0].vel_l2_error - dist[0].vel_l2_error).abs()
            / serial[0].vel_l2_error.max(1e-30);
        assert!(
            rel < 1e-5,
            "serial {} vs dist {}",
            serial[0].vel_l2_error,
            dist[0].vel_l2_error
        );
        for r in &dist {
            assert!((r.vel_l2_error - dist[0].vel_l2_error).abs() < 1e-14);
        }
    }

    #[test]
    fn error_decreases_with_dt() {
        // High viscosity makes the exact field decay fast (exp(-nu d^2 t)),
        // so the temporal error dominates the coarse mesh's spatial floor;
        // same final time, quartered step.
        let e = |dt: f64, steps: usize| -> f64 {
            let cfg = NsConfig {
                dt,
                steps,
                mu: 1.5,
                ..NsConfig::default()
            };
            run_ns(2, 1, cfg)[0].vel_l2_error
        };
        let coarse = e(0.2, 2);
        let fine = e(0.05, 8);
        assert!(fine < 0.8 * coarse, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn ns_is_heavier_than_rd_per_iteration() {
        use crate::rd::{solve_rd, RdConfig};
        let mesh = StructuredHexMesh::unit_cube(3);
        let assignment =
            Arc::new(BlockLayout::new(mesh.cell_dims(), near_cubic_factors(2)).assignment());
        let r = run_spmd(cfg(2), move |comm| {
            let dmesh = DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), comm.rank(), 2);
            let rd = solve_rd(
                &dmesh,
                &RdConfig {
                    steps: 2,
                    ..RdConfig::default()
                },
                comm,
            );
            let ns = solve_ns_with(
                &dmesh,
                &NsConfig {
                    steps: 2,
                    ..NsConfig::default()
                },
                None,
                None,
                comm,
            );
            (rd.iterations[1].total, ns.iterations[1].total)
        });
        for res in &r {
            let (rd_t, ns_t) = res.value;
            assert!(ns_t > 2.0 * rd_t, "ns {ns_t} vs rd {rd_t}");
        }
    }

    #[test]
    fn gmres_momentum_solver_matches_bicgstab() {
        // Both Krylov choices converge to the same velocity field.
        let bi = run_ns(
            2,
            1,
            NsConfig {
                steps: 2,
                ..NsConfig::default()
            },
        );
        let gm = run_ns(
            2,
            1,
            NsConfig {
                steps: 2,
                momentum_solver: MomentumSolver::Gmres { restart: 30 },
                ..NsConfig::default()
            },
        );
        let rel = (bi[0].vel_l2_error - gm[0].vel_l2_error).abs() / bi[0].vel_l2_error.max(1e-30);
        assert!(
            rel < 1e-4,
            "bicgstab {} vs gmres {}",
            bi[0].vel_l2_error,
            gm[0].vel_l2_error
        );
    }

    #[test]
    fn resumed_ns_run_reproduces_the_trajectory_bitwise() {
        use hetero_simmpi::collectives::ReduceOp;
        let mesh = StructuredHexMesh::unit_cube(2);
        let assignment =
            Arc::new(BlockLayout::new(mesh.cell_dims(), near_cubic_factors(2)).assignment());
        let ns_cfg = NsConfig {
            steps: 4,
            ..NsConfig::default()
        };
        let results = run_spmd(cfg(2), move |comm| {
            let dmesh = DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), comm.rank(), 2);
            let mut saved: Option<NsResume> = None;
            let dense_of = |dm: &DofMap, v: &DistVector| {
                let mut d = vec![0.0; dm.n_global()];
                for l in 0..dm.n_owned() {
                    d[dm.global_id(l)] = v.owned()[l];
                }
                d
            };
            {
                let mut obs = |view: &NsStepView<'_>, _comm: &mut SimComm| {
                    if view.step == 2 {
                        saved = Some(NsResume {
                            start_step: 2,
                            hist: view
                                .hist
                                .iter()
                                .map(|comps| {
                                    std::array::from_fn(|i| dense_of(view.vmap, &comps[i]))
                                })
                                .collect(),
                            pressure: dense_of(view.pmap, view.pressure),
                        });
                    }
                };
                let full = solve_ns_with(&dmesh, &ns_cfg, None, Some(&mut obs), comm);
                let mut resume = saved.expect("observer fired at step 2");
                for comps in &mut resume.hist {
                    for f in comps.iter_mut() {
                        *f = comm.allreduce(ReduceOp::Sum, f);
                    }
                }
                resume.pressure = comm.allreduce(ReduceOp::Sum, &resume.pressure);
                let resumed = solve_ns_with(&dmesh, &ns_cfg, Some(&resume), None, comm);
                assert_eq!(resumed.iterations.len(), 2);
                (
                    full.vel_linf_error,
                    full.vel_l2_error,
                    resumed.vel_linf_error,
                    resumed.vel_l2_error,
                )
            }
        });
        for r in &results {
            let (fl, f2, rl, r2) = r.value;
            assert_eq!(fl, rl, "vel linf must match bitwise");
            assert_eq!(f2, r2, "vel l2 must match bitwise");
        }
    }

    #[test]
    fn pressure_solve_iterations_grow_with_resolution() {
        let its = |n: usize| -> usize {
            let r = run_ns(
                n,
                1,
                NsConfig {
                    steps: 1,
                    ..NsConfig::default()
                },
            );
            r[0].p_iters[0]
        };
        assert!(its(4) > its(2));
    }
}
