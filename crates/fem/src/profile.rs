//! Analytic per-cell/per-iteration work formulas.
//!
//! These are shared by the real assembler (which charges them to the
//! simulator while reusing precomputed uniform-cell kernels) and by the
//! modeled large-scale engine (which evaluates them without doing the math
//! at all). Keeping them in one place guarantees the two engines price
//! compute identically.

use crate::element::ElementOrder;
use hetero_simmpi::Work;

/// Work to integrate one cell's element matrix for `ops` operator terms
/// (mass, stiffness, convection ~ 2): the quadrature triple loop evaluates
/// `npe_row * npe_col` updates plus shape-function tables at each of the
/// `nq` points.
pub fn assembly_matrix_work(row: ElementOrder, col: ElementOrder, ops: usize) -> Work {
    let nq = row
        .quadrature_points_per_axis()
        .max(col.quadrature_points_per_axis())
        .pow(3) as f64;
    let nr = row.nodes_per_element() as f64;
    let nc = col.nodes_per_element() as f64;
    let flops = nq * (nr * nc * 6.0 * ops as f64 + (nr + nc) * 24.0);
    // Scatter traffic: one read-modify-write per (a, b) pair.
    let bytes = nq * nr * nc * 4.0 + nr * nc * 24.0;
    Work::new(flops, bytes)
}

/// Work to integrate one cell's load vector.
pub fn assembly_vector_work(order: ElementOrder) -> Work {
    let nq = order.quadrature_points_per_axis().pow(3) as f64;
    let npe = order.nodes_per_element() as f64;
    Work::new(nq * npe * 10.0, npe * 24.0)
}

/// Average stored nonzeros per matrix row for a scalar operator on a large
/// structured mesh (interior stencil sizes; Q2 averaged over its node
/// classes).
pub fn stencil_nnz_per_row(order: ElementOrder) -> f64 {
    match order {
        ElementOrder::Q1 => 27.0,
        ElementOrder::Q2 => 64.0,
    }
}

/// Empirical Krylov iteration-count law for the RD solve (CG + block-ILU(0),
/// as `App::paper_rd` runs it).
///
/// The RD operator `(alpha/dt - 2/t) M + (1/t^2) K` is mass-dominated for
/// the paper's time steps, so its condition number — and the iteration
/// count — grows slowly with resolution. Calibrated against the numerical
/// engine on `8^3 .. 40^3`-cell meshes (see `tests/model_validation.rs`);
/// the law is `iters ~ a + b * n^(1/2)` in the global cells-per-axis `n`.
pub fn rd_cg_iters(cells_per_axis: usize) -> usize {
    (8.0 + 2.1 * (cells_per_axis as f64).sqrt()).round() as usize
}

/// Empirical iteration law for one NS velocity solve (BiCGStab + Jacobi):
/// convection + mass dominance keep it nearly flat.
pub fn ns_velocity_iters(cells_per_axis: usize) -> usize {
    (6.0 + 0.9 * (cells_per_axis as f64).sqrt()).round() as usize
}

/// Empirical iteration law for the NS pressure-Poisson solve (CG +
/// block-ILU(0), as `App::paper_ns` runs it):
/// a pure Laplacian, iterations grow ~ linearly in the mesh diameter.
pub fn ns_pressure_iters(cells_per_axis: usize) -> usize {
    (10.0 + 1.35 * cells_per_axis as f64).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q2_assembly_costs_more_than_q1() {
        let q1 = assembly_matrix_work(ElementOrder::Q1, ElementOrder::Q1, 2);
        let q2 = assembly_matrix_work(ElementOrder::Q2, ElementOrder::Q2, 2);
        assert!(q2.flops > 10.0 * q1.flops, "{} vs {}", q2.flops, q1.flops);
    }

    #[test]
    fn more_operator_terms_cost_more() {
        let one = assembly_matrix_work(ElementOrder::Q2, ElementOrder::Q2, 1);
        let four = assembly_matrix_work(ElementOrder::Q2, ElementOrder::Q2, 4);
        assert!(four.flops > 2.0 * one.flops);
    }

    #[test]
    fn iteration_laws_grow_monotonically() {
        for law in [rd_cg_iters, ns_velocity_iters, ns_pressure_iters] {
            let mut prev = 0;
            for n in [20usize, 40, 80, 120, 160, 200] {
                let it = law(n);
                assert!(it >= prev);
                prev = it;
            }
        }
    }

    #[test]
    fn pressure_solve_hardest() {
        // The Poisson solve dominates iteration counts at scale.
        assert!(ns_pressure_iters(200) > rd_cg_iters(200));
        assert!(ns_pressure_iters(200) > ns_velocity_iters(200));
    }
}
