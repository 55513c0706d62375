//! Tensor-product hexahedral reference elements (Q1 and Q2).
//!
//! The reference cell is the unit cube `[0,1]^3`. An order-`q` element has
//! `(q+1)^3` nodes on the uniform tensor lattice; node `(a, b, c)` has local
//! index `a + (q+1) (b + (q+1) c)`, matching the global lattice ordering
//! used by [`crate::dofmap`].

use serde::{Deserialize, Serialize};

/// Polynomial order of the element space. The paper's applications use
/// "the FEM of order 2" for the RD unknown and the velocity, and order 1 for
/// the pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElementOrder {
    /// Trilinear (8-node) hexahedron.
    Q1,
    /// Triquadratic (27-node) hexahedron.
    Q2,
}

impl ElementOrder {
    /// The lattice order `q` (nodes per axis minus one).
    #[inline]
    pub fn q(self) -> usize {
        match self {
            ElementOrder::Q1 => 1,
            ElementOrder::Q2 => 2,
        }
    }

    /// Nodes per axis (`q + 1`).
    #[inline]
    fn nodes_per_axis(self) -> usize {
        self.q() + 1
    }

    /// Nodes per element (`(q+1)^3`).
    #[inline]
    pub fn nodes_per_element(self) -> usize {
        self.nodes_per_axis().pow(3)
    }

    /// Gauss points per axis needed to integrate mass-matrix entries
    /// exactly (degree `2q` integrands need `q + 1` points).
    #[inline]
    pub fn quadrature_points_per_axis(self) -> usize {
        self.q() + 1
    }

    /// 1-D shape function `a` (of `q+1`) at `x` in `[0,1]`.
    fn shape_1d(self, a: usize, x: f64) -> f64 {
        match self {
            ElementOrder::Q1 => match a {
                0 => 1.0 - x,
                1 => x,
                _ => panic!("Q1 node index out of range: {a}"),
            },
            ElementOrder::Q2 => match a {
                // Lagrange basis on {0, 1/2, 1}.
                0 => 2.0 * (x - 0.5) * (x - 1.0),
                1 => 4.0 * x * (1.0 - x),
                2 => 2.0 * x * (x - 0.5),
                _ => panic!("Q2 node index out of range: {a}"),
            },
        }
    }

    /// Derivative of the 1-D shape function `a` at `x`.
    fn dshape_1d(self, a: usize, x: f64) -> f64 {
        match self {
            ElementOrder::Q1 => match a {
                0 => -1.0,
                1 => 1.0,
                _ => panic!("Q1 node index out of range: {a}"),
            },
            ElementOrder::Q2 => match a {
                0 => 4.0 * x - 3.0,
                1 => 4.0 - 8.0 * x,
                2 => 4.0 * x - 1.0,
                _ => panic!("Q2 node index out of range: {a}"),
            },
        }
    }

    /// Decomposes a local node index into per-axis indices `(a, b, c)`.
    #[inline]
    fn node_abc(self, local: usize) -> (usize, usize, usize) {
        let n = self.nodes_per_axis();
        debug_assert!(local < n * n * n);
        (local % n, (local / n) % n, local / (n * n))
    }

    /// 3-D shape function of local node `local` at reference point
    /// `(x, y, z)` in `[0,1]^3`.
    pub fn shape(self, local: usize, x: f64, y: f64, z: f64) -> f64 {
        let (a, b, c) = self.node_abc(local);
        self.shape_1d(a, x) * self.shape_1d(b, y) * self.shape_1d(c, z)
    }

    /// Reference-space gradient of shape function `local` at `(x, y, z)`.
    pub fn grad_shape(self, local: usize, x: f64, y: f64, z: f64) -> [f64; 3] {
        let (a, b, c) = self.node_abc(local);
        let (na, nb, nc) = (
            self.shape_1d(a, x),
            self.shape_1d(b, y),
            self.shape_1d(c, z),
        );
        [
            self.dshape_1d(a, x) * nb * nc,
            na * self.dshape_1d(b, y) * nc,
            na * nb * self.dshape_1d(c, z),
        ]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl ElementOrder {
        /// Reference coordinates of local node `local`.
        pub(crate) fn node_point(self, local: usize) -> [f64; 3] {
            let (a, b, c) = self.node_abc(local);
            let q = self.q() as f64;
            [a as f64 / q, b as f64 / q, c as f64 / q]
        }
    }

    const ORDERS: [ElementOrder; 2] = [ElementOrder::Q1, ElementOrder::Q2];

    #[test]
    fn node_counts() {
        assert_eq!(ElementOrder::Q1.nodes_per_element(), 8);
        assert_eq!(ElementOrder::Q2.nodes_per_element(), 27);
    }

    #[test]
    fn kronecker_property() {
        // Shape function i equals 1 at node i and 0 at the others.
        for order in ORDERS {
            for i in 0..order.nodes_per_element() {
                for j in 0..order.nodes_per_element() {
                    let [x, y, z] = order.node_point(j);
                    let v = order.shape(i, x, y, z);
                    let expect = if i == j { 1.0 } else { 0.0 };
                    assert!(
                        (v - expect).abs() < 1e-14,
                        "{order:?} N_{i} at node {j}: {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_of_unity() {
        for order in ORDERS {
            for &(x, y, z) in &[(0.3, 0.7, 0.1), (0.0, 0.5, 1.0), (0.25, 0.25, 0.25)] {
                let sum: f64 = (0..order.nodes_per_element())
                    .map(|i| order.shape(i, x, y, z))
                    .sum();
                assert!(
                    (sum - 1.0).abs() < 1e-13,
                    "{order:?} at ({x},{y},{z}): {sum}"
                );
                // Gradients of a constant sum to zero.
                let mut g = [0.0; 3];
                for i in 0..order.nodes_per_element() {
                    let gi = order.grad_shape(i, x, y, z);
                    for (acc, gd) in g.iter_mut().zip(gi) {
                        *acc += gd;
                    }
                }
                for gd in g {
                    assert!(gd.abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn linear_completeness() {
        // Nodal interpolation reproduces x exactly for both orders.
        for order in ORDERS {
            let (x, y, z) = (0.37, 0.61, 0.93);
            let mut val = 0.0;
            for i in 0..order.nodes_per_element() {
                let p = order.node_point(i);
                val += p[0] * order.shape(i, x, y, z);
            }
            assert!((val - x).abs() < 1e-13, "{order:?}: {val}");
        }
    }

    #[test]
    fn quadratic_completeness_q2() {
        // Q2 reproduces x^2 exactly; Q1 does not.
        let f = |p: [f64; 3]| p[0] * p[0];
        let (x, y, z) = (0.3, 0.8, 0.45);
        let interp = |order: ElementOrder| -> f64 {
            (0..order.nodes_per_element())
                .map(|i| f(order.node_point(i)) * order.shape(i, x, y, z))
                .sum()
        };
        assert!((interp(ElementOrder::Q2) - x * x).abs() < 1e-13);
        assert!((interp(ElementOrder::Q1) - x * x).abs() > 1e-3);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let eps = 1e-6;
        for order in ORDERS {
            for i in 0..order.nodes_per_element() {
                let (x, y, z) = (0.41, 0.17, 0.66);
                let g = order.grad_shape(i, x, y, z);
                let fd = [
                    (order.shape(i, x + eps, y, z) - order.shape(i, x - eps, y, z)) / (2.0 * eps),
                    (order.shape(i, x, y + eps, z) - order.shape(i, x, y - eps, z)) / (2.0 * eps),
                    (order.shape(i, x, y, z + eps) - order.shape(i, x, y, z - eps)) / (2.0 * eps),
                ];
                for d in 0..3 {
                    assert!((g[d] - fd[d]).abs() < 1e-8, "{order:?} N_{i} axis {d}");
                }
            }
        }
    }

    #[test]
    fn node_abc_roundtrip() {
        for order in ORDERS {
            let n = order.nodes_per_axis();
            for local in 0..order.nodes_per_element() {
                let (a, b, c) = order.node_abc(local);
                assert_eq!(a + n * (b + n * c), local);
            }
        }
    }
}
