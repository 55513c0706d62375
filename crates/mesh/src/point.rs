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

    /// Cross product with `other`.
    #[inline]
    pub fn cross(self, other: Point3) -> Point3 {
        Point3 {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Squared Euclidean norm `x^2 + y^2 + z^2`.
    ///
    /// This quantity is the spatial factor of the paper's reaction-diffusion
    /// exact solution `u = t^2 (x_1^2 + x_2^2 + x_3^2)`.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Point3) -> Point3 {
        Point3::new(
            self.x.min(other.x),
            self.y.min(other.y),
            self.z.min(other.z),
        )
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Point3) -> Point3 {
        Point3::new(
            self.x.max(other.x),
            self.y.max(other.y),
            self.z.max(other.z),
        )
    }

    /// Returns the coordinate along `axis` (0 = x, 1 = y, 2 = z).
    ///
    /// # Panics
    /// Panics if `axis > 2`.
    #[inline]
    pub fn coord(self, axis: usize) -> f64 {
        match axis {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("axis out of range: {axis}"),
        }
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

    /// Returns the index along `axis` (0 = i, 1 = j, 2 = k).
    ///
    /// # Panics
    /// Panics if `axis > 2`.
    #[inline]
    pub fn coord(self, axis: usize) -> usize {
        match axis {
            0 => self.i,
            1 => self.j,
            2 => self.k,
            _ => panic!("axis out of range: {axis}"),
        }
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
    fn cross_is_orthogonal() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
    }

    #[test]
    fn cross_right_handed() {
        let x = Point3::new(1.0, 0.0, 0.0);
        let y = Point3::new(0.0, 1.0, 0.0);
        assert_eq!(x.cross(y), Point3::new(0.0, 0.0, 1.0));
    }

    #[test]
    fn coord_accessor() {
        let a = Point3::new(7.0, 8.0, 9.0);
        assert_eq!(a.coord(0), 7.0);
        assert_eq!(a.coord(1), 8.0);
        assert_eq!(a.coord(2), 9.0);
    }

    #[test]
    #[should_panic(expected = "axis out of range")]
    fn coord_accessor_panics() {
        Point3::ZERO.coord(3);
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

    #[test]
    fn min_max_componentwise() {
        let a = Point3::new(1.0, 5.0, -2.0);
        let b = Point3::new(3.0, 0.0, 0.0);
        assert_eq!(a.min(b), Point3::new(1.0, 0.0, -2.0));
        assert_eq!(a.max(b), Point3::new(3.0, 5.0, 0.0));
    }
}
