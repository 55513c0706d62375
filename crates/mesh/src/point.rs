//! Geometric and lattice primitives: [`Point3`] and [`Index3`].

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A point (or vector) in 3-D Euclidean space.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point3 {
    /// First coordinate (`x_1` in the paper's notation).
    pub x: f64,
    /// Second coordinate (`x_2`).
    pub y: f64,
    /// Third coordinate (`x_3`).
    pub z: f64,
}

impl Point3 {
    /// The origin.
    pub const ZERO: Point3 = Point3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a point from its three coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Point3 { x, y, z }
    }

    /// Creates a point whose coordinates are all `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Point3 { x: v, y: v, z: v }
    }

    /// Dot product with `other`.
    #[inline]
    pub fn dot(self, other: Point3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Squared Euclidean norm `x^2 + y^2 + z^2`.
    ///
    /// This quantity is the spatial factor of the paper's reaction-diffusion
    /// exact solution `u = t^2 (x_1^2 + x_2^2 + x_3^2)`.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }
}

impl Add for Point3 {
    type Output = Point3;
    #[inline]
    fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Point3 {
    #[inline]
    fn add_assign(&mut self, rhs: Point3) {
        *self = *self + rhs;
    }
}

impl Sub for Point3 {
    type Output = Point3;
    #[inline]
    fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f64> for Point3 {
    type Output = Point3;
    #[inline]
    fn mul(self, s: f64) -> Point3 {
        Point3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Point3> for f64 {
    type Output = Point3;
    #[inline]
    fn mul(self, p: Point3) -> Point3 {
        p * self
    }
}

impl Div<f64> for Point3 {
    type Output = Point3;
    #[inline]
    fn div(self, s: f64) -> Point3 {
        Point3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Point3 {
    type Output = Point3;
    #[inline]
    fn neg(self) -> Point3 {
        Point3::new(-self.x, -self.y, -self.z)
    }
}

/// An integer lattice index `(i, j, k)` addressing cells or corners of a
/// structured mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Index3 {
    /// Index along the x axis.
    pub i: usize,
    /// Index along the y axis.
    pub j: usize,
    /// Index along the z axis.
    pub k: usize,
}

impl Index3 {
    /// Creates a lattice index.
    #[inline]
    pub const fn new(i: usize, j: usize, k: usize) -> Self {
        Index3 { i, j, k }
    }

    /// Linearizes this index on a lattice with `dims = (nx, ny, nz)` entries
    /// per axis, x fastest (Fortran/lexicographic order).
    #[inline]
    pub fn linear(self, dims: (usize, usize, usize)) -> usize {
        debug_assert!(self.i < dims.0 && self.j < dims.1 && self.k < dims.2);
        self.i + dims.0 * (self.j + dims.1 * self.k)
    }

    /// Inverse of [`Index3::linear`].
    #[inline]
    pub fn from_linear(lin: usize, dims: (usize, usize, usize)) -> Self {
        debug_assert!(lin < dims.0 * dims.1 * dims.2);
        let i = lin % dims.0;
        let j = (lin / dims.0) % dims.1;
        let k = lin / (dims.0 * dims.1);
        Index3 { i, j, k }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(4.0, -5.0, 6.0);
        assert_eq!(a + b, Point3::new(5.0, -3.0, 9.0));
        assert_eq!(a - b, Point3::new(-3.0, 7.0, -3.0));
        assert_eq!(a * 2.0, Point3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Point3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Point3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_and_norm() {
        let a = Point3::new(1.0, 2.0, 2.0);
        assert_eq!(a.norm_sq(), 9.0);
        assert_eq!(a.dot(Point3::new(1.0, 0.0, 0.0)), 1.0);
    }

    #[test]
    fn index_linearization_roundtrip() {
        let dims = (3, 4, 5);
        for lin in 0..(3 * 4 * 5) {
            let idx = Index3::from_linear(lin, dims);
            assert_eq!(idx.linear(dims), lin);
        }
    }

    #[test]
    fn index_linear_x_fastest() {
        let dims = (10, 10, 10);
        assert_eq!(Index3::new(1, 0, 0).linear(dims), 1);
        assert_eq!(Index3::new(0, 1, 0).linear(dims), 10);
        assert_eq!(Index3::new(0, 0, 1).linear(dims), 100);
    }
}
