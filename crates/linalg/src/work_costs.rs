//! Analytic operation-count models for the linear-algebra kernels.
//!
//! These constants convert kernel sizes into [`Work`] charged to the
//! simulator. They encode the byte traffic of each kernel on a cold cache —
//! the regime of large FEM systems — and are the single place where the
//! compute cost model of the solve phase is calibrated.

use hetero_simmpi::Work;

/// Sparse matrix-vector product: per nonzero, one multiply-add (2 flops) and
/// the value (8 B) + column index (4 B) + source/destination vector traffic
/// (~8 B amortized).
pub fn spmv(nnz: usize) -> Work {
    Work::new(2.0 * nnz as f64, 20.0 * nnz as f64)
}

/// `y += alpha * x` over `n` entries: 2 flops, read x and y, write y.
pub fn axpy(n: usize) -> Work {
    Work::new(2.0 * n as f64, 24.0 * n as f64)
}

/// Dot product over `n` entries: 2 flops, read both vectors.
pub fn dot(n: usize) -> Work {
    Work::new(2.0 * n as f64, 16.0 * n as f64)
}

/// `y = alpha * y` over `n` entries.
pub fn scale(n: usize) -> Work {
    Work::new(n as f64, 16.0 * n as f64)
}

/// Copy of `n` entries.
pub fn copy(n: usize) -> Work {
    Work::new(0.0, 16.0 * n as f64)
}

/// One triangular sweep over a factor with `nnz` nonzeros (SSOR/ILU apply).
pub fn sweep(nnz: usize) -> Work {
    Work::new(2.0 * nnz as f64, 20.0 * nnz as f64)
}

/// ILU(0) factorization of a local block with `nnz` nonzeros and `n` rows.
pub fn ilu_factor(nnz: usize, n: usize) -> Work {
    // Each nonzero participates in ~a handful of update ops.
    Work::new(5.0 * nnz as f64 + n as f64, 24.0 * nnz as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_linearly() {
        assert_eq!(spmv(100).flops, 200.0);
        assert_eq!(axpy(50).flops, 100.0);
        assert_eq!(dot(10).bytes, 160.0);
        assert_eq!(copy(10).flops, 0.0);
    }

    #[test]
    fn spmv_is_memory_bound_on_typical_cores() {
        // Intensity 0.1 flop/byte is far below any ridge point.
        let w = spmv(1000);
        assert!(w.flops / w.bytes < 0.2);
    }
}
