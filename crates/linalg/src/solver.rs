//! Preconditioned Krylov solvers: CG, BiCGStab, restarted GMRES.
//!
//! These are the step-(iiib) "solution of the preconditioned system" of the
//! paper's pipeline. Each iteration's cost structure — one or two SpMVs
//! (halo exchange), a handful of AXPYs, and two or more globally-reduced dot
//! products — is what makes the solve phase latency-sensitive, the effect the
//! paper observes on EC2 at scale.

use crate::distmat::DistMatrix;
use crate::precond::Preconditioner;
use crate::vector::{fused_dots, DistVector};
use hetero_simmpi::SimComm;
use serde::{Deserialize, Serialize};

/// Communication schedule used by the Krylov solvers.
///
/// `Blocking` reproduces the original solver schedule byte-for-byte; the
/// other two spend the same arithmetic but expose less communication time
/// on latency-bound fabrics (the paper's 1 GbE platforms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SolverVariant {
    /// Blocking halo exchange in each SpMV and one scalar all-reduce per
    /// inner product — the baseline schedule.
    #[default]
    Blocking,
    /// Halo exchanges overlapped with interior rows
    /// ([`DistMatrix::spmv_overlapped`]) plus fused dot-product reductions.
    /// Values are bitwise-identical to `Blocking`; only the virtual-time
    /// schedule changes.
    Overlapped,
    /// Single-reduction pipelined CG (Ghysels–Vanroose): one fused
    /// all-reduce per iteration. Mathematically equivalent to classic CG
    /// but rounded differently, so iteration counts can drift by one or
    /// two. Non-CG solvers fall back to the `Overlapped` schedule.
    Pipelined,
}

/// Convergence controls.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SolveOptions {
    /// Relative residual tolerance (`||r|| <= rel_tol * ||b||`).
    pub rel_tol: f64,
    /// Absolute residual floor.
    pub abs_tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Communication schedule.
    pub variant: SolverVariant,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            rel_tol: 1e-8,
            abs_tol: 1e-14,
            max_iters: 500,
            variant: SolverVariant::default(),
        }
    }
}

/// Pool of reusable solver scratch vectors.
///
/// [`bicgstab_with_workspace`] and [`gmres_with_workspace`] draw their work
/// vectors here instead of allocating per call and return them on exit, so
/// a caller that solves repeatedly (the NS momentum stepper runs three
/// BiCGStab/GMRES solves per time step) allocates no solver scratch in
/// steady state. Vectors are zeroed when drawn and allocation never charged
/// virtual time, so results *and* clocks are identical to the allocating
/// entry points.
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    pool: Vec<DistVector>,
}

impl SolverWorkspace {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws a zeroed vector shaped like `a`'s column space, reusing a
    /// pooled allocation when one matches.
    fn grab(&mut self, a: &DistMatrix) -> DistVector {
        let (no, nl) = (a.col_n_owned(), a.n_local());
        if let Some(i) = self
            .pool
            .iter()
            .position(|v| v.n_owned() == no && v.n_local() == nl)
        {
            let mut v = self.pool.swap_remove(i);
            v.fill(0.0);
            v
        } else {
            DistVector::zeros(no, nl - no)
        }
    }

    fn stash(&mut self, v: DistVector) {
        self.pool.push(v);
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Krylov iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// `||b - A x||` at entry.
    pub initial_residual: f64,
    /// `||b - A x||` at exit.
    pub final_residual: f64,
}

impl SolveOptions {
    fn target(&self, norm_b: f64) -> f64 {
        (self.rel_tol * norm_b).max(self.abs_tol)
    }
}

#[inline]
fn spmv_variant(
    a: &DistMatrix,
    x: &mut DistVector,
    y: &mut DistVector,
    overlapped: bool,
    comm: &mut SimComm,
) {
    if overlapped {
        a.spmv_overlapped(x, y, comm);
    } else {
        a.spmv(x, y, comm);
    }
}

/// Preconditioned conjugate gradients for SPD systems. Solves `A x = b`
/// starting from the incoming `x`. Dispatches on `opts.variant`:
/// `Pipelined` runs the pipelined recurrences (one fused all-reduce per
/// iteration); the other two run the classic iteration with blocking or
/// overlapped communication.
pub fn cg(
    a: &DistMatrix,
    b: &DistVector,
    x: &mut DistVector,
    m: &dyn Preconditioner,
    opts: SolveOptions,
    comm: &mut SimComm,
) -> SolveStats {
    match opts.variant {
        SolverVariant::Blocking => cg_classic(a, b, x, m, opts, false, comm),
        SolverVariant::Overlapped => cg_classic(a, b, x, m, opts, true, comm),
        SolverVariant::Pipelined => cg_pipelined(a, b, x, m, opts, comm),
    }
}

fn cg_classic(
    a: &DistMatrix,
    b: &DistVector,
    x: &mut DistVector,
    m: &dyn Preconditioner,
    opts: SolveOptions,
    overlapped: bool,
    comm: &mut SimComm,
) -> SolveStats {
    let norm_b = b.norm2(comm);
    let target = opts.target(norm_b);

    let mut r = a.new_vector();
    let mut q = a.new_vector();
    // r = b - A x
    spmv_variant(a, x, &mut q, overlapped, comm);
    r.copy_from(b, comm);
    r.axpy(-1.0, &q, comm);
    let initial_residual = r.norm2(comm);
    if initial_residual <= target {
        return SolveStats {
            iterations: 0,
            converged: true,
            initial_residual,
            final_residual: initial_residual,
        };
    }

    let mut z = a.new_vector();
    m.apply(&r, &mut z, comm);
    let mut p = a.new_vector();
    p.copy_from(&z, comm);
    let mut rz = r.dot(&z, comm);

    let mut res = initial_residual;
    for it in 1..=opts.max_iters {
        spmv_variant(a, &mut p, &mut q, overlapped, comm);
        let pq = p.dot(&q, comm);
        if pq == 0.0 {
            return SolveStats {
                iterations: it,
                converged: false,
                initial_residual,
                final_residual: res,
            };
        }
        let alpha = rz / pq;
        x.axpy(alpha, &p, comm);
        r.axpy(-alpha, &q, comm);
        let rz_new;
        if overlapped {
            // Apply the preconditioner before the convergence check so
            // ||r|| and (r, z) ride one fused reduction. Same scalar values
            // as the blocking schedule — only the timing differs.
            m.apply(&r, &mut z, comm);
            let d = fused_dots(&[(&r, &r), (&r, &z)], comm);
            res = d[0].sqrt();
            rz_new = d[1];
            if res <= target {
                return SolveStats {
                    iterations: it,
                    converged: true,
                    initial_residual,
                    final_residual: res,
                };
            }
        } else {
            res = r.norm2(comm);
            if res <= target {
                return SolveStats {
                    iterations: it,
                    converged: true,
                    initial_residual,
                    final_residual: res,
                };
            }
            m.apply(&r, &mut z, comm);
            rz_new = r.dot(&z, comm);
        }
        let beta = rz_new / rz;
        rz = rz_new;
        p.xpby(&z, beta, comm);
    }
    SolveStats {
        iterations: opts.max_iters,
        converged: false,
        initial_residual,
        final_residual: res,
    }
}

/// Pipelined conjugate gradients (Ghysels & Vanroose). The three inner
/// products of a CG iteration are rearranged through auxiliary recurrences
/// so that a **single fused all-reduce** per iteration carries all
/// reduction traffic, and every SpMV overlaps its halo exchange.
/// Mathematically equivalent to [`cg`]; the recurrences round differently
/// in floating point, so iteration counts can drift by an iteration or two.
fn cg_pipelined(
    a: &DistMatrix,
    b: &DistVector,
    x: &mut DistVector,
    m: &dyn Preconditioner,
    opts: SolveOptions,
    comm: &mut SimComm,
) -> SolveStats {
    let norm_b = b.norm2(comm);
    let target = opts.target(norm_b);

    let mut r = a.new_vector();
    let mut tmp = a.new_vector();
    a.spmv_overlapped(x, &mut tmp, comm);
    r.copy_from(b, comm);
    r.axpy(-1.0, &tmp, comm);
    let mut u = a.new_vector();
    m.apply(&r, &mut u, comm);
    let mut w = a.new_vector();
    a.spmv_overlapped(&mut u, &mut w, comm);
    // One reduction carries gamma = (r, u), delta = (w, u), and ||r||^2.
    let d = fused_dots(&[(&r, &u), (&w, &u), (&r, &r)], comm);
    let (mut gamma, mut delta) = (d[0], d[1]);
    let initial_residual = d[2].sqrt();
    if initial_residual <= target {
        return SolveStats {
            iterations: 0,
            converged: true,
            initial_residual,
            final_residual: initial_residual,
        };
    }

    let mut z = a.new_vector();
    let mut q = a.new_vector();
    let mut s = a.new_vector();
    let mut p = a.new_vector();
    let mut mv = a.new_vector();
    let mut nv = a.new_vector();
    let (mut gamma_prev, mut alpha_prev) = (0.0f64, 0.0f64);
    let mut res = initial_residual;
    for it in 1..=opts.max_iters {
        let fail = |res: f64| SolveStats {
            iterations: it,
            converged: false,
            initial_residual,
            final_residual: res,
        };
        m.apply(&w, &mut mv, comm);
        a.spmv_overlapped(&mut mv, &mut nv, comm);
        let (alpha, beta);
        if it == 1 {
            beta = 0.0;
            if delta == 0.0 {
                return fail(res);
            }
            alpha = gamma / delta;
        } else {
            beta = gamma / gamma_prev;
            let denom = delta - beta * gamma / alpha_prev;
            if denom == 0.0 {
                return fail(res);
            }
            alpha = gamma / denom;
        }
        z.xpby(&nv, beta, comm); // z = n + beta z  (A M^{-1} s recurrence)
        q.xpby(&mv, beta, comm); // q = m + beta q  (M^{-1} s recurrence)
        s.xpby(&w, beta, comm); //  s = w + beta s  (A p recurrence)
        p.xpby(&u, beta, comm); //  p = u + beta p
        x.axpy(alpha, &p, comm);
        r.axpy(-alpha, &s, comm);
        u.axpy(-alpha, &q, comm);
        w.axpy(-alpha, &z, comm);
        gamma_prev = gamma;
        alpha_prev = alpha;
        let d = fused_dots(&[(&r, &u), (&w, &u), (&r, &r)], comm);
        gamma = d[0];
        delta = d[1];
        res = d[2].sqrt();
        if res <= target {
            return SolveStats {
                iterations: it,
                converged: true,
                initial_residual,
                final_residual: res,
            };
        }
        if gamma == 0.0 {
            // Breakdown: the next step direction would vanish.
            return fail(res);
        }
    }
    SolveStats {
        iterations: opts.max_iters,
        converged: false,
        initial_residual,
        final_residual: res,
    }
}

/// Preconditioned BiCGStab for general (non-symmetric) systems.
pub fn bicgstab(
    a: &DistMatrix,
    b: &DistVector,
    x: &mut DistVector,
    m: &dyn Preconditioner,
    opts: SolveOptions,
    comm: &mut SimComm,
) -> SolveStats {
    let mut ws = SolverWorkspace::new();
    bicgstab_with_workspace(a, b, x, m, opts, &mut ws, comm)
}

/// The eight work vectors of one BiCGStab call.
struct BicgVecs {
    r: DistVector,
    t: DistVector,
    r_hat: DistVector,
    p: DistVector,
    v: DistVector,
    s: DistVector,
    phat: DistVector,
    shat: DistVector,
}

/// [`bicgstab`] drawing its work vectors from `ws` instead of allocating.
/// Identical results and virtual clocks; use it when solving repeatedly.
pub fn bicgstab_with_workspace(
    a: &DistMatrix,
    b: &DistVector,
    x: &mut DistVector,
    m: &dyn Preconditioner,
    opts: SolveOptions,
    ws: &mut SolverWorkspace,
    comm: &mut SimComm,
) -> SolveStats {
    let mut vecs = BicgVecs {
        r: ws.grab(a),
        t: ws.grab(a),
        r_hat: ws.grab(a),
        p: ws.grab(a),
        v: ws.grab(a),
        s: ws.grab(a),
        phat: ws.grab(a),
        shat: ws.grab(a),
    };
    let stats = bicgstab_inner(a, b, x, m, opts, &mut vecs, comm);
    let BicgVecs {
        r,
        t,
        r_hat,
        p,
        v,
        s,
        phat,
        shat,
    } = vecs;
    for vec in [r, t, r_hat, p, v, s, phat, shat] {
        ws.stash(vec);
    }
    stats
}

fn bicgstab_inner(
    a: &DistMatrix,
    b: &DistVector,
    x: &mut DistVector,
    m: &dyn Preconditioner,
    opts: SolveOptions,
    vecs: &mut BicgVecs,
    comm: &mut SimComm,
) -> SolveStats {
    let overlapped = opts.variant != SolverVariant::Blocking;
    let norm_b = b.norm2(comm);
    let target = opts.target(norm_b);

    let r = &mut vecs.r;
    let t = &mut vecs.t;
    spmv_variant(a, x, t, overlapped, comm);
    r.copy_from(b, comm);
    r.axpy(-1.0, t, comm);
    let initial_residual = r.norm2(comm);
    if initial_residual <= target {
        return SolveStats {
            iterations: 0,
            converged: true,
            initial_residual,
            final_residual: initial_residual,
        };
    }

    vecs.r_hat.copy_from(&vecs.r, comm);
    let (mut rho, mut alpha, mut omega) = (1.0f64, 1.0f64, 1.0f64);
    let mut res = initial_residual;

    for it in 1..=opts.max_iters {
        let rho_new = vecs.r_hat.dot(&vecs.r, comm);
        if rho_new == 0.0 {
            return SolveStats {
                iterations: it,
                converged: false,
                initial_residual,
                final_residual: res,
            };
        }
        if it == 1 {
            vecs.p.copy_from(&vecs.r, comm);
        } else {
            let beta = (rho_new / rho) * (alpha / omega);
            // p = r + beta * (p - omega * v)
            vecs.p.axpy(-omega, &vecs.v, comm);
            vecs.p.xpby(&vecs.r, beta, comm);
        }
        rho = rho_new;
        m.apply(&vecs.p, &mut vecs.phat, comm);
        spmv_variant(a, &mut vecs.phat, &mut vecs.v, overlapped, comm);
        let rhv = vecs.r_hat.dot(&vecs.v, comm);
        if rhv == 0.0 {
            return SolveStats {
                iterations: it,
                converged: false,
                initial_residual,
                final_residual: res,
            };
        }
        alpha = rho / rhv;
        vecs.s.copy_from(&vecs.r, comm);
        vecs.s.axpy(-alpha, &vecs.v, comm);
        let s_norm = vecs.s.norm2(comm);
        if s_norm <= target {
            x.axpy(alpha, &vecs.phat, comm);
            return SolveStats {
                iterations: it,
                converged: true,
                initial_residual,
                final_residual: s_norm,
            };
        }
        m.apply(&vecs.s, &mut vecs.shat, comm);
        spmv_variant(a, &mut vecs.shat, &mut vecs.t, overlapped, comm);
        let (tt, ts);
        if overlapped {
            // (t, t) and (t, s) ride one fused reduction.
            let d = fused_dots(&[(&vecs.t, &vecs.t), (&vecs.t, &vecs.s)], comm);
            tt = d[0];
            ts = d[1];
        } else {
            tt = vecs.t.dot(&vecs.t, comm);
            ts = if tt == 0.0 {
                0.0
            } else {
                vecs.t.dot(&vecs.s, comm)
            };
        }
        if tt == 0.0 {
            return SolveStats {
                iterations: it,
                converged: false,
                initial_residual,
                final_residual: s_norm,
            };
        }
        omega = ts / tt;
        x.axpy(alpha, &vecs.phat, comm);
        x.axpy(omega, &vecs.shat, comm);
        vecs.r.copy_from(&vecs.s, comm);
        vecs.r.axpy(-omega, &vecs.t, comm);
        res = vecs.r.norm2(comm);
        if res <= target {
            return SolveStats {
                iterations: it,
                converged: true,
                initial_residual,
                final_residual: res,
            };
        }
        if omega == 0.0 {
            return SolveStats {
                iterations: it,
                converged: false,
                initial_residual,
                final_residual: res,
            };
        }
    }
    SolveStats {
        iterations: opts.max_iters,
        converged: false,
        initial_residual,
        final_residual: res,
    }
}

/// Right-preconditioned restarted GMRES(m).
pub fn gmres(
    a: &DistMatrix,
    b: &DistVector,
    x: &mut DistVector,
    m: &dyn Preconditioner,
    restart: usize,
    opts: SolveOptions,
    comm: &mut SimComm,
) -> SolveStats {
    let mut ws = SolverWorkspace::new();
    gmres_with_workspace(a, b, x, m, restart, opts, &mut ws, comm)
}

/// [`gmres`] drawing its work vectors (residual, scratch, and the
/// `restart + 1` Krylov basis vectors) from `ws` instead of allocating in
/// the Arnoldi loop. Identical results and virtual clocks.
#[allow(clippy::too_many_arguments)]
pub fn gmres_with_workspace(
    a: &DistMatrix,
    b: &DistVector,
    x: &mut DistVector,
    m: &dyn Preconditioner,
    restart: usize,
    opts: SolveOptions,
    ws: &mut SolverWorkspace,
    comm: &mut SimComm,
) -> SolveStats {
    assert!(restart >= 1);
    let mut r = ws.grab(a);
    let mut tmp = ws.grab(a);
    let mut update = ws.grab(a);
    let mut w = ws.grab(a);
    let mut basis: Vec<DistVector> = (0..=restart).map(|_| ws.grab(a)).collect();
    let stats = gmres_inner(
        a,
        b,
        x,
        m,
        restart,
        opts,
        &mut r,
        &mut tmp,
        &mut update,
        &mut w,
        &mut basis,
        comm,
    );
    for vec in [r, tmp, update, w].into_iter().chain(basis) {
        ws.stash(vec);
    }
    stats
}

#[allow(clippy::too_many_arguments)]
fn gmres_inner(
    a: &DistMatrix,
    b: &DistVector,
    x: &mut DistVector,
    m: &dyn Preconditioner,
    restart: usize,
    opts: SolveOptions,
    r: &mut DistVector,
    tmp: &mut DistVector,
    update: &mut DistVector,
    w: &mut DistVector,
    basis: &mut [DistVector],
    comm: &mut SimComm,
) -> SolveStats {
    let overlapped = opts.variant != SolverVariant::Blocking;
    let norm_b = b.norm2(comm);
    let target = opts.target(norm_b);

    spmv_variant(a, x, tmp, overlapped, comm);
    r.copy_from(b, comm);
    r.axpy(-1.0, tmp, comm);
    let initial_residual = r.norm2(comm);
    let mut res = initial_residual;
    if res <= target {
        return SolveStats {
            iterations: 0,
            converged: true,
            initial_residual,
            final_residual: res,
        };
    }

    let mut total_iters = 0usize;
    while total_iters < opts.max_iters {
        // Arnoldi with modified Gram-Schmidt and Givens rotations.
        basis[0].copy_from(r, comm);
        basis[0].scale(1.0 / res, comm);

        let mut h = vec![vec![0.0f64; restart]; restart + 1];
        let mut cs = vec![0.0f64; restart];
        let mut sn = vec![0.0f64; restart];
        let mut g = vec![0.0f64; restart + 1];
        g[0] = res;

        let mut k_used = 0usize;
        for k in 0..restart {
            if total_iters >= opts.max_iters {
                break;
            }
            total_iters += 1;
            // w = A M^{-1} v_k
            m.apply(&basis[k], tmp, comm);
            spmv_variant(a, tmp, w, overlapped, comm);
            for (j, vj) in basis.iter().enumerate().take(k + 1) {
                h[j][k] = w.dot(vj, comm);
                w.axpy(-h[j][k], vj, comm);
            }
            let norm_w = w.norm2(comm);
            h[k + 1][k] = norm_w;
            // Apply previous rotations to the new column.
            for j in 0..k {
                let t1 = cs[j] * h[j][k] + sn[j] * h[j + 1][k];
                let t2 = -sn[j] * h[j][k] + cs[j] * h[j + 1][k];
                h[j][k] = t1;
                h[j + 1][k] = t2;
            }
            // New rotation to annihilate h[k+1][k].
            let denom = (h[k][k] * h[k][k] + h[k + 1][k] * h[k + 1][k]).sqrt();
            if denom == 0.0 {
                k_used = k + 1;
                break;
            }
            cs[k] = h[k][k] / denom;
            sn[k] = h[k + 1][k] / denom;
            h[k][k] = denom;
            h[k + 1][k] = 0.0;
            g[k + 1] = -sn[k] * g[k];
            g[k] *= cs[k];
            res = g[k + 1].abs();
            k_used = k + 1;
            if res <= target || norm_w == 0.0 {
                // Converged, or lucky breakdown (solution is in the span).
                break;
            }
            basis[k + 1].copy_from(w, comm);
            basis[k + 1].scale(1.0 / norm_w, comm);
        }

        // Back-substitute y from H y = g and update x += M^{-1} (V y).
        let k = k_used;
        let mut y = vec![0.0f64; k];
        for i in (0..k).rev() {
            let mut acc = g[i];
            for (j, &yj) in y.iter().enumerate().skip(i + 1) {
                acc -= h[i][j] * yj;
            }
            y[i] = acc / h[i][i];
        }
        update.fill(0.0);
        for (j, &yj) in y.iter().enumerate() {
            update.axpy(yj, &basis[j], comm);
        }
        m.apply(update, tmp, comm);
        x.axpy(1.0, tmp, comm);

        // True residual for the restart.
        spmv_variant(a, x, tmp, overlapped, comm);
        r.copy_from(b, comm);
        r.axpy(-1.0, tmp, comm);
        res = r.norm2(comm);
        if res <= target {
            return SolveStats {
                iterations: total_iters,
                converged: true,
                initial_residual,
                final_residual: res,
            };
        }
    }
    SolveStats {
        iterations: total_iters,
        converged: false,
        initial_residual,
        final_residual: res,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::TripletBuilder;
    use crate::precond::{Identity, IluZero, Jacobi, Ssor};
    use crate::vector::ExchangePlan;
    use hetero_simmpi::{run_spmd, ClusterTopology, ComputeModel, NetworkModel, SpmdConfig};

    fn cfg(size: usize) -> SpmdConfig {
        SpmdConfig {
            size,
            topo: ClusterTopology::uniform(size, 1),
            net: NetworkModel::gigabit_ethernet(),
            compute: ComputeModel::new(1e9, 4e9),
            seed: 3,
        }
    }

    fn laplacian_1d(n: usize) -> DistMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        DistMatrix::new(b.build(), ExchangePlan::empty())
    }

    fn check_solution(x: &DistVector, expected: &[f64], tol: f64) {
        for (xi, ei) in x.owned().iter().zip(expected) {
            assert!((xi - ei).abs() < tol, "{xi} vs {ei}");
        }
    }

    #[test]
    fn cg_solves_spd_system() {
        run_spmd(cfg(1), |comm| {
            let n = 20;
            let a = laplacian_1d(n);
            let expected: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut xe = DistVector::from_values(expected.clone(), n);
            let mut b = a.new_vector();
            a.spmv(&mut xe, &mut b, comm);
            let mut x = a.new_vector();
            let stats = cg(&a, &b, &mut x, &Identity, SolveOptions::default(), comm);
            assert!(stats.converged, "{stats:?}");
            assert!(stats.iterations <= n); // CG is exact in n steps
            check_solution(&x, &expected, 1e-6);
        });
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        run_spmd(cfg(1), |comm| {
            let n = 64;
            let a = laplacian_1d(n);
            let mut b = a.new_vector();
            for (i, v) in b.owned_mut().iter_mut().enumerate() {
                *v = (0.9 * i as f64).sin();
            }

            let run_with = |m: &dyn Preconditioner, comm: &mut hetero_simmpi::SimComm| {
                let mut x = a.new_vector();
                cg(&a, &b, &mut x, m, SolveOptions::default(), comm).iterations
            };
            let it_none = run_with(&Identity, comm);
            let jac = Jacobi::new(&a, comm);
            let it_jac = run_with(&jac, comm);
            let ssor = Ssor::new(&a, comm);
            let it_ssor = run_with(&ssor, comm);
            let ilu = IluZero::new(&a, comm);
            let it_ilu = run_with(&ilu, comm);
            // For this matrix Jacobi = diagonal scaling does not help, but
            // SSOR and ILU must beat it; ILU(0) on tridiagonal is exact.
            assert!(it_ssor < it_none, "ssor {it_ssor} vs none {it_none}");
            assert!(it_ilu <= 2, "ilu {it_ilu}");
            assert!(it_jac <= it_none + 1);
        });
    }

    #[test]
    fn bicgstab_solves_nonsymmetric_system() {
        run_spmd(cfg(1), |comm| {
            // 1-D convection-diffusion with upwinding: -u'' + c u' ->
            // tridiagonal with asymmetric off-diagonals.
            let n = 30;
            let c = 0.8;
            let mut bld = TripletBuilder::new(n, n);
            for i in 0..n {
                bld.add(i, i, 2.0 + c);
                if i > 0 {
                    bld.add(i, i - 1, -1.0 - c);
                }
                if i + 1 < n {
                    bld.add(i, i + 1, -1.0);
                }
            }
            let a = DistMatrix::new(bld.build(), ExchangePlan::empty());
            let expected: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
            let mut xe = DistVector::from_values(expected.clone(), n);
            let mut b = a.new_vector();
            a.spmv(&mut xe, &mut b, comm);
            let mut x = a.new_vector();
            let stats = bicgstab(&a, &b, &mut x, &Identity, SolveOptions::default(), comm);
            assert!(stats.converged, "{stats:?}");
            check_solution(&x, &expected, 1e-5);
        });
    }

    #[test]
    fn gmres_solves_nonsymmetric_system() {
        run_spmd(cfg(1), |comm| {
            let n = 30;
            let c = 1.5;
            let mut bld = TripletBuilder::new(n, n);
            for i in 0..n {
                bld.add(i, i, 2.0 + c);
                if i > 0 {
                    bld.add(i, i - 1, -1.0 - c);
                }
                if i + 1 < n {
                    bld.add(i, i + 1, -1.0);
                }
            }
            let a = DistMatrix::new(bld.build(), ExchangePlan::empty());
            let expected: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            let mut xe = DistVector::from_values(expected.clone(), n);
            let mut b = a.new_vector();
            a.spmv(&mut xe, &mut b, comm);
            let mut x = a.new_vector();
            let stats = gmres(&a, &b, &mut x, &Identity, 10, SolveOptions::default(), comm);
            assert!(stats.converged, "{stats:?}");
            check_solution(&x, &expected, 1e-5);
        });
    }

    #[test]
    fn gmres_with_restart_smaller_than_needed_still_converges() {
        run_spmd(cfg(1), |comm| {
            let n = 40;
            let a = laplacian_1d(n);
            let mut ones = a.new_vector();
            ones.fill(1.0);
            let mut b = a.new_vector();
            a.spmv(&mut ones, &mut b, comm);
            let mut x = a.new_vector();
            let opts = SolveOptions {
                max_iters: 2000,
                ..SolveOptions::default()
            };
            let stats = gmres(&a, &b, &mut x, &Identity, 20, opts, comm);
            assert!(stats.converged, "{stats:?}");
            for &v in x.owned() {
                assert!((v - 1.0).abs() < 1e-5, "x = {v}");
            }
        });
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        run_spmd(cfg(1), |comm| {
            let a = laplacian_1d(5);
            let b = a.new_vector();
            let mut x = a.new_vector();
            let stats = cg(&a, &b, &mut x, &Identity, SolveOptions::default(), comm);
            assert!(stats.converged);
            assert_eq!(stats.iterations, 0);
            assert!(x.owned().iter().all(|&v| v == 0.0));
        });
    }

    #[test]
    fn distributed_cg_matches_serial() {
        // Global 1-D Laplacian of size 16 over 1, 2, 4 ranks.
        let n_global = 16usize;
        let solve = |p: usize| -> Vec<f64> {
            let results = run_spmd(cfg(p), move |comm| {
                let rank = comm.rank();
                let size = comm.size();
                let n_per = n_global / size;
                let first = rank * n_per;
                let mut ghosts = Vec::new();
                if rank > 0 {
                    ghosts.push(first - 1);
                }
                if rank + 1 < size {
                    ghosts.push(first + n_per);
                }
                let n_local = n_per + ghosts.len();
                let local_of = |g: usize| -> usize {
                    if (first..first + n_per).contains(&g) {
                        g - first
                    } else {
                        n_per + ghosts.iter().position(|&x| x == g).unwrap()
                    }
                };
                let mut bld = TripletBuilder::new(n_per, n_local);
                for r in 0..n_per {
                    let g = first + r;
                    bld.add(r, r, 2.0);
                    if g > 0 {
                        bld.add(r, local_of(g - 1), -1.0);
                    }
                    if g + 1 < n_global {
                        bld.add(r, local_of(g + 1), -1.0);
                    }
                }
                let mut plan = ExchangePlan::empty();
                if rank > 0 {
                    plan.neighbors.push(rank - 1);
                    plan.send_indices.push(vec![0]);
                    plan.recv_indices.push(vec![local_of(first - 1)]);
                }
                if rank + 1 < size {
                    plan.neighbors.push(rank + 1);
                    plan.send_indices.push(vec![n_per - 1]);
                    plan.recv_indices.push(vec![local_of(first + n_per)]);
                }
                let a = DistMatrix::new(bld.build(), plan);
                let mut b = a.new_vector();
                for (i, v) in b.owned_mut().iter_mut().enumerate() {
                    *v = ((first + i) as f64 * 0.3).sin();
                }
                let mut x = a.new_vector();
                let stats = cg(&a, &b, &mut x, &Identity, SolveOptions::default(), comm);
                assert!(stats.converged);
                x.owned().to_vec()
            });
            results.into_iter().flat_map(|r| r.value).collect()
        };
        let serial = solve(1);
        for p in [2usize, 4] {
            let dist = solve(p);
            for (s, d) in serial.iter().zip(&dist) {
                assert!((s - d).abs() < 1e-6, "p = {p}: {s} vs {d}");
            }
        }
    }

    #[test]
    fn solver_time_depends_on_network() {
        // The same distributed solve must take longer simulated time on
        // Ethernet than on InfiniBand: the paper's core phenomenon.
        let time_on = |net: NetworkModel| -> f64 {
            let mut c = cfg(4);
            c.net = net;
            c.net.jitter_sigma = 0.0;
            let results = run_spmd(c, |comm| {
                let rank = comm.rank();
                let size = comm.size();
                let n_per = 8;
                let first = rank * n_per;
                let n_global = n_per * size;
                let mut ghosts = Vec::new();
                if rank > 0 {
                    ghosts.push(first - 1);
                }
                if rank + 1 < size {
                    ghosts.push(first + n_per);
                }
                let n_local = n_per + ghosts.len();
                let local_of = |g: usize| -> usize {
                    if (first..first + n_per).contains(&g) {
                        g - first
                    } else {
                        n_per + ghosts.iter().position(|&x| x == g).unwrap()
                    }
                };
                let mut bld = TripletBuilder::new(n_per, n_local);
                for r in 0..n_per {
                    let g = first + r;
                    bld.add(r, r, 2.0);
                    if g > 0 {
                        bld.add(r, local_of(g - 1), -1.0);
                    }
                    if g + 1 < n_global {
                        bld.add(r, local_of(g + 1), -1.0);
                    }
                }
                let mut plan = ExchangePlan::empty();
                if rank > 0 {
                    plan.neighbors.push(rank - 1);
                    plan.send_indices.push(vec![0]);
                    plan.recv_indices.push(vec![local_of(first - 1)]);
                }
                if rank + 1 < size {
                    plan.neighbors.push(rank + 1);
                    plan.send_indices.push(vec![n_per - 1]);
                    plan.recv_indices.push(vec![local_of(first + n_per)]);
                }
                let a = DistMatrix::new(bld.build(), plan);
                let mut b = a.new_vector();
                b.fill(1.0);
                let mut x = a.new_vector();
                let _ = cg(&a, &b, &mut x, &Identity, SolveOptions::default(), comm);
                comm.clock()
            });
            results.iter().map(|r| r.value).fold(0.0f64, f64::max)
        };
        let t_eth = time_on(NetworkModel::gigabit_ethernet());
        let t_ib = time_on(NetworkModel::infiniband_ddr());
        assert!(t_eth > 3.0 * t_ib, "eth {t_eth} vs ib {t_ib}");
    }

    /// Builds the rank-local block of the global 1-D Laplacian with
    /// `n_per` rows per rank, including its exchange plan. Returns the
    /// matrix and this rank's first global row.
    fn dist_laplacian(comm: &hetero_simmpi::SimComm, n_per: usize) -> (DistMatrix, usize) {
        let rank = comm.rank();
        let size = comm.size();
        let first = rank * n_per;
        let n_global = n_per * size;
        let mut ghosts = Vec::new();
        if rank > 0 {
            ghosts.push(first - 1);
        }
        if rank + 1 < size {
            ghosts.push(first + n_per);
        }
        let n_local = n_per + ghosts.len();
        let local_of = |g: usize| -> usize {
            if (first..first + n_per).contains(&g) {
                g - first
            } else {
                n_per + ghosts.iter().position(|&x| x == g).unwrap()
            }
        };
        let mut bld = TripletBuilder::new(n_per, n_local);
        for r in 0..n_per {
            let g = first + r;
            bld.add(r, r, 2.0);
            if g > 0 {
                bld.add(r, local_of(g - 1), -1.0);
            }
            if g + 1 < n_global {
                bld.add(r, local_of(g + 1), -1.0);
            }
        }
        let mut plan = ExchangePlan::empty();
        if rank > 0 {
            plan.neighbors.push(rank - 1);
            plan.send_indices.push(vec![0]);
            plan.recv_indices.push(vec![local_of(first - 1)]);
        }
        if rank + 1 < size {
            plan.neighbors.push(rank + 1);
            plan.send_indices.push(vec![n_per - 1]);
            plan.recv_indices.push(vec![local_of(first + n_per)]);
        }
        (DistMatrix::new(bld.build(), plan), first)
    }

    /// The overlapped variant reorders communication but never arithmetic:
    /// every solver must produce bitwise-identical iterates to blocking.
    #[test]
    fn overlapped_variant_is_bitwise_identical_to_blocking() {
        type RankResult = (Vec<Vec<f64>>, Vec<usize>);
        let solve = |variant: SolverVariant| -> Vec<RankResult> {
            run_spmd(cfg(4), move |comm| {
                let (a, first) = dist_laplacian(comm, 6);
                let mut b = a.new_vector();
                for (i, v) in b.owned_mut().iter_mut().enumerate() {
                    *v = ((first + i) as f64 * 0.3).sin();
                }
                let opts = SolveOptions {
                    variant,
                    ..SolveOptions::default()
                };
                let mut x_cg = a.new_vector();
                let s_cg = cg(&a, &b, &mut x_cg, &Identity, opts, comm);
                let mut x_bi = a.new_vector();
                let s_bi = bicgstab(&a, &b, &mut x_bi, &Identity, opts, comm);
                let mut x_gm = a.new_vector();
                let s_gm = gmres(&a, &b, &mut x_gm, &Identity, 10, opts, comm);
                (
                    vec![
                        x_cg.owned().to_vec(),
                        x_bi.owned().to_vec(),
                        x_gm.owned().to_vec(),
                    ],
                    vec![s_cg.iterations, s_bi.iterations, s_gm.iterations],
                )
            })
            .into_iter()
            .map(|r| r.value)
            .collect()
        };
        let blocking = solve(SolverVariant::Blocking);
        let overlapped = solve(SolverVariant::Overlapped);
        assert_eq!(blocking, overlapped);
    }

    /// Pipelined CG reassociates the recurrences, so it is not bitwise —
    /// but it must reach the same tolerance in a comparable iteration
    /// count (within ±2 of classic CG) and the same solution.
    #[test]
    fn pipelined_cg_tracks_classic_cg() {
        for p in [1usize, 4] {
            let solve = move |variant: SolverVariant| -> (Vec<f64>, usize, bool) {
                let results = run_spmd(cfg(p), move |comm| {
                    let (a, first) = dist_laplacian(comm, 24 / p);
                    let mut b = a.new_vector();
                    for (i, v) in b.owned_mut().iter_mut().enumerate() {
                        *v = ((first + i) as f64 * 0.3).sin();
                    }
                    let opts = SolveOptions {
                        variant,
                        ..SolveOptions::default()
                    };
                    let mut x = a.new_vector();
                    let stats = cg(&a, &b, &mut x, &Identity, opts, comm);
                    (x.owned().to_vec(), stats.iterations, stats.converged)
                });
                let iters = results[0].value.1;
                let converged = results.iter().all(|r| r.value.2);
                (
                    results.into_iter().flat_map(|r| r.value.0).collect(),
                    iters,
                    converged,
                )
            };
            let (x_c, it_c, ok_c) = solve(SolverVariant::Blocking);
            let (x_p, it_p, ok_p) = solve(SolverVariant::Pipelined);
            assert!(ok_c && ok_p, "p = {p}: both must converge");
            assert!(
                it_p.abs_diff(it_c) <= 2,
                "p = {p}: pipelined {it_p} vs classic {it_c} iterations"
            );
            for (c, pv) in x_c.iter().zip(&x_p) {
                assert!((c - pv).abs() < 1e-6, "p = {p}: {c} vs {pv}");
            }
        }
    }

    /// Reusing a `SolverWorkspace` across solves must change neither the
    /// computed values nor the simulated clock: pooled vectors are zeroed
    /// on grab and allocation is never charged virtual time.
    #[test]
    fn workspace_reuse_is_bitwise_and_clock_identical() {
        let run = |reuse: bool| -> Vec<(Vec<f64>, f64)> {
            run_spmd(cfg(2), move |comm| {
                let (a, first) = dist_laplacian(comm, 8);
                let mut b = a.new_vector();
                for (i, v) in b.owned_mut().iter_mut().enumerate() {
                    *v = 1.0 + ((first + i) as f64 * 0.2).cos();
                }
                let opts = SolveOptions::default();
                let mut ws = SolverWorkspace::new();
                let mut x = a.new_vector();
                for _ in 0..2 {
                    x.fill(0.0);
                    if reuse {
                        bicgstab_with_workspace(&a, &b, &mut x, &Identity, opts, &mut ws, comm);
                        gmres_with_workspace(&a, &b, &mut x, &Identity, 8, opts, &mut ws, comm);
                    } else {
                        bicgstab(&a, &b, &mut x, &Identity, opts, comm);
                        gmres(&a, &b, &mut x, &Identity, 8, opts, comm);
                    }
                }
                (x.owned().to_vec(), comm.clock())
            })
            .into_iter()
            .map(|r| r.value)
            .collect()
        };
        let fresh = run(false);
        let pooled = run(true);
        assert_eq!(fresh, pooled);
    }
}
