//! Computational work accounting and the roofline compute model.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Mul};

/// A quantity of computational work: floating-point operations and bytes of
/// memory traffic.
///
/// Application kernels (assembly loops, SpMV, vector updates) report their
/// analytic operation counts through [`crate::SimComm::compute`]; the
/// platform's [`ComputeModel`] converts them to simulated seconds. Timing
/// therefore never depends on how fast the *host* executes the real
/// arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Work {
    /// Floating-point operations.
    pub flops: f64,
    /// Bytes moved through the memory hierarchy.
    pub bytes: f64,
}

impl Work {
    /// No work.
    pub const ZERO: Work = Work {
        flops: 0.0,
        bytes: 0.0,
    };

    /// Creates a work quantity.
    #[inline]
    pub const fn new(flops: f64, bytes: f64) -> Self {
        Work { flops, bytes }
    }

    /// Pure floating-point work with an assumed 1 byte of traffic per flop
    /// (a typical FEM/SpMV balance; callers with better estimates should use
    /// [`Work::new`]).
    #[inline]
    pub fn flops(f: f64) -> Self {
        Work { flops: f, bytes: f }
    }
}

impl Add for Work {
    type Output = Work;
    #[inline]
    fn add(self, rhs: Work) -> Work {
        Work {
            flops: self.flops + rhs.flops,
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl AddAssign for Work {
    #[inline]
    fn add_assign(&mut self, rhs: Work) {
        *self = *self + rhs;
    }
}

impl Mul<f64> for Work {
    type Output = Work;
    #[inline]
    fn mul(self, s: f64) -> Work {
        Work {
            flops: self.flops * s,
            bytes: self.bytes * s,
        }
    }
}

/// A roofline execution model for one CPU core of a platform.
///
/// Time for a kernel is `max(flops / flops_per_sec, bytes / mem_bw)` — the
/// kernel is either compute-bound or memory-bound. Sparse FEM kernels on the
/// paper's 2006–2011 era CPUs are strongly memory-bound, which is why the
/// per-core sustained rates below are far under peak.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeModel {
    /// Sustained floating-point rate per core (flop/s).
    pub flops_per_sec: f64,
    /// Sustained memory bandwidth per core (byte/s). On multi-core nodes the
    /// socket bandwidth is shared; callers should pass the per-core share.
    pub mem_bw: f64,
}

impl ComputeModel {
    /// Creates a model from sustained per-core rates.
    ///
    /// # Panics
    /// Panics if either rate is not strictly positive.
    pub fn new(flops_per_sec: f64, mem_bw: f64) -> Self {
        assert!(
            flops_per_sec > 0.0 && mem_bw > 0.0,
            "rates must be positive"
        );
        ComputeModel {
            flops_per_sec,
            mem_bw,
        }
    }

    /// Simulated seconds to execute `work` on one core.
    #[inline]
    pub fn time(&self, work: Work) -> f64 {
        (work.flops / self.flops_per_sec).max(work.bytes / self.mem_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_arithmetic() {
        let a = Work::new(10.0, 20.0);
        let b = Work::new(1.0, 2.0);
        assert_eq!(a + b, Work::new(11.0, 22.0));
        assert_eq!(a * 2.0, Work::new(20.0, 40.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

    #[test]
    fn intensity() {
        // Below the ridge (4 flops/byte) work is memory-bound; byte-free
        // work has infinite intensity and is compute-bound.
        let m = ComputeModel::new(2e9, 5e8);
        assert_eq!(m.time(Work::new(8.0, 4.0)), 4.0 / 5e8);
        assert_eq!(m.time(Work::new(8.0, 0.0)), 8.0 / 2e9);
    }

    #[test]
    fn roofline_compute_bound() {
        let m = ComputeModel::new(1e9, 1e9);
        // Intensity 4 > ridge 1: compute-bound.
        let t = m.time(Work::new(4e9, 1e9));
        assert!((t - 4.0).abs() < 1e-12);
    }

    #[test]
    fn roofline_memory_bound() {
        let m = ComputeModel::new(1e9, 1e8);
        // SpMV-like low intensity: memory-bound.
        let t = m.time(Work::new(1e8, 1e9));
        assert!((t - 10.0).abs() < 1e-12);
    }

    #[test]
    fn ridge_point() {
        // At intensity 4 = 2e9 / 5e8, exactly the ridge, both bounds agree.
        let m = ComputeModel::new(2e9, 5e8);
        let w = Work::new(4e8, 1e8);
        assert!((m.time(w) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_work_is_free() {
        let m = ComputeModel::new(1e9, 1e9);
        assert_eq!(m.time(Work::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "rates must be positive")]
    fn invalid_model_rejected() {
        ComputeModel::new(0.0, 1.0);
    }
}
