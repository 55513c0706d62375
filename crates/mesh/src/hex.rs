//! The structured hexahedral mesh over an axis-aligned box.

use crate::point::{Index3, Point3};
use serde::{Deserialize, Serialize};

/// A structured mesh of `nx * ny * nz` hexahedral cells over the box
/// `[lo, hi]`.
///
/// Cells are addressed either by [`Index3`] lattice indices or by
/// linearized ids (x fastest). The mesh is uniform:
/// every cell is an identical axis-aligned brick of size
/// `((hi-lo).x/nx, (hi-lo).y/ny, (hi-lo).z/nz)` — matching the paper's cube
/// test domain reticulations (`20^3 … 200^3` elements).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructuredHexMesh {
    nx: usize,
    ny: usize,
    nz: usize,
    lo: Point3,
    hi: Point3,
}

impl StructuredHexMesh {
    /// Creates a mesh with `nx * ny * nz` cells over the box `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if any cell count is zero or the box is degenerate.
    pub fn new(nx: usize, ny: usize, nz: usize, lo: Point3, hi: Point3) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "cell counts must be positive");
        assert!(
            hi.x > lo.x && hi.y > lo.y && hi.z > lo.z,
            "box must have positive volume"
        );
        StructuredHexMesh { nx, ny, nz, lo, hi }
    }

    /// Creates an `n^3`-cell mesh of the unit cube `[0,1]^3`, the domain of
    /// both of the paper's test cases.
    pub fn unit_cube(n: usize) -> Self {
        StructuredHexMesh::new(n, n, n, Point3::ZERO, Point3::splat(1.0))
    }

    /// Cell counts per axis.
    #[inline]
    pub fn cell_dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Lower corner of the box.
    #[inline]
    pub fn lo(&self) -> Point3 {
        self.lo
    }

    /// Upper corner of the box.
    #[inline]
    pub fn hi(&self) -> Point3 {
        self.hi
    }

    /// Edge lengths of a single cell.
    #[inline]
    pub fn cell_size(&self) -> Point3 {
        let d = self.hi - self.lo;
        Point3::new(
            d.x / self.nx as f64,
            d.y / self.ny as f64,
            d.z / self.nz as f64,
        )
    }

    /// Characteristic mesh size `h` (largest cell edge).
    #[inline]
    pub fn h(&self) -> f64 {
        let s = self.cell_size();
        s.x.max(s.y).max(s.z)
    }

    /// Linear cell id of lattice index `c`.
    #[inline]
    pub fn cell_id(&self, c: Index3) -> usize {
        c.linear(self.cell_dims())
    }

    /// Lattice index of linear cell id `id`.
    #[inline]
    pub fn cell_index(&self, id: usize) -> Index3 {
        Index3::from_linear(id, self.cell_dims())
    }

    /// Iterates over all cell lattice indices in linear order.
    pub fn cells(&self) -> impl Iterator<Item = Index3> + '_ {
        let dims = self.cell_dims();
        (0..self.num_cells()).map(move |lin| Index3::from_linear(lin, dims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_cube_counts() {
        let m = StructuredHexMesh::unit_cube(4);
        assert_eq!(m.num_cells(), 64);
        assert_eq!(m.cell_dims(), (4, 4, 4));
    }

    #[test]
    fn cell_size_and_h() {
        let m = StructuredHexMesh::new(2, 4, 8, Point3::ZERO, Point3::new(1.0, 1.0, 1.0));
        let s = m.cell_size();
        assert!((s.x - 0.5).abs() < 1e-15);
        assert!((s.y - 0.25).abs() < 1e-15);
        assert!((s.z - 0.125).abs() < 1e-15);
        assert!((m.h() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn corner_points_span_box() {
        // The last corner of the lattice lands on the box's upper corner.
        let m = StructuredHexMesh::new(3, 4, 5, Point3::new(-1.0, 0.5, 2.0), Point3::splat(3.0));
        let s = m.cell_size();
        let (nx, ny, nz) = m.cell_dims();
        let top = m.lo() + Point3::new(s.x * nx as f64, s.y * ny as f64, s.z * nz as f64);
        assert!((top - m.hi()).norm_sq() < 1e-28);
    }

    #[test]
    fn cells_iterator_covers_all_in_linear_order() {
        let m = StructuredHexMesh::new(2, 3, 2, Point3::ZERO, Point3::splat(1.0));
        let ids: Vec<_> = m.cells().map(|c| m.cell_id(c)).collect();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cell counts must be positive")]
    fn zero_cells_rejected() {
        StructuredHexMesh::new(0, 1, 1, Point3::ZERO, Point3::splat(1.0));
    }

    #[test]
    #[should_panic(expected = "positive volume")]
    fn degenerate_box_rejected() {
        StructuredHexMesh::new(1, 1, 1, Point3::ZERO, Point3::new(1.0, 0.0, 1.0));
    }
}
