//! The per-rank view of a partitioned mesh.
//!
//! In the paper's applications the global mesh is split by ParMETIS so that
//! "each process takes care only of a subset of the global mesh"; matrix rows
//! for interface nodes receive contributions from several processes and are
//! combined over MPI. [`DistributedMesh`] holds what a rank reads for that:
//! its owned cells and a deterministic ownership rule for shared lattice
//! nodes. The DoF map finds the neighbours it exchanges with from the nodes'
//! owners.

use crate::hex::StructuredHexMesh;
use crate::point::Index3;
use std::sync::Arc;

/// Returns the cells of a structured mesh that contain the node `node` of the
/// order-`q` tensor lattice (`q = 1`: cell corners; `q = 2`: Q2 nodes, i.e.
/// corners, edge/face midpoints and cell centers).
///
/// The lattice has `q * n + 1` nodes per axis for `n` cells. A node whose
/// lattice coordinate along an axis is a multiple of `q` sits on a cell
/// interface along that axis and belongs to up to two cell columns; otherwise
/// it is interior to one column. The result has 1, 2, 4, or 8 cells.
pub fn cells_touching_node(
    cell_dims: (usize, usize, usize),
    q: usize,
    node: Index3,
) -> Vec<Index3> {
    assert!(q >= 1, "lattice order must be at least 1");
    let span = |a: usize, n: usize| -> (usize, usize) {
        // Inclusive cell-index range [first, last] along one axis.
        if a.is_multiple_of(q) {
            let c = a / q;
            (c.saturating_sub(1), if c < n { c } else { c - 1 })
        } else {
            (a / q, a / q)
        }
    };
    let (nx, ny, nz) = cell_dims;
    let (i0, i1) = span(node.i, nx);
    let (j0, j1) = span(node.j, ny);
    let (k0, k1) = span(node.k, nz);
    let mut out = Vec::with_capacity(8);
    for k in k0..=k1 {
        for j in j0..=j1 {
            for i in i0..=i1 {
                out.push(Index3::new(i, j, k));
            }
        }
    }
    out
}

/// A single rank's view of a partitioned [`StructuredHexMesh`].
///
/// The partition is an assignment of every cell to a rank. Interface lattice
/// nodes (touched by cells of several ranks) are *owned* by the rank of the
/// touching cell with the smallest linear cell id — a deterministic rule both
/// sides of an interface can evaluate without communication.
#[derive(Debug, Clone)]
pub struct DistributedMesh {
    mesh: StructuredHexMesh,
    assignment: Arc<Vec<usize>>,
    rank: usize,
    owned_cells: Vec<usize>,
}

impl DistributedMesh {
    /// Builds the view of `rank` under the given cell-to-rank `assignment`
    /// over `num_parts` ranks.
    ///
    /// # Panics
    /// Panics if `assignment.len() != mesh.num_cells()`, if `rank >=
    /// num_parts`, or if any assigned part id is out of range.
    pub fn new(
        mesh: StructuredHexMesh,
        assignment: Arc<Vec<usize>>,
        rank: usize,
        num_parts: usize,
    ) -> Self {
        assert_eq!(
            assignment.len(),
            mesh.num_cells(),
            "assignment length must equal cell count"
        );
        assert!(rank < num_parts, "rank out of range");
        assert!(
            assignment.iter().all(|&p| p < num_parts),
            "assignment contains out-of-range part id"
        );

        let owned_cells: Vec<usize> = (0..mesh.num_cells())
            .filter(|&c| assignment[c] == rank)
            .collect();

        DistributedMesh {
            mesh,
            assignment,
            rank,
            owned_cells,
        }
    }

    /// The underlying global mesh.
    #[inline]
    pub fn mesh(&self) -> &StructuredHexMesh {
        &self.mesh
    }

    /// This rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Linear ids of the cells owned by this rank, ascending.
    #[inline]
    pub fn owned_cells(&self) -> &[usize] {
        &self.owned_cells
    }

    /// Owner rank of a lattice node of order `q`, under the smallest-cell-id
    /// rule. Consistent across ranks by construction.
    pub fn node_owner(&self, q: usize, node: Index3) -> usize {
        let touching = cells_touching_node(self.mesh.cell_dims(), q, node);
        let min_cell = touching
            .into_iter()
            .map(|c| self.mesh.cell_id(c))
            .min()
            .expect("every lattice node touches at least one cell");
        self.assignment[min_cell]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point3;

    fn two_slab_partition(n: usize) -> (StructuredHexMesh, Arc<Vec<usize>>) {
        // Split the cube into x < n/2 (rank 0) and x >= n/2 (rank 1).
        let mesh = StructuredHexMesh::unit_cube(n);
        let assignment: Vec<usize> = mesh
            .cells()
            .map(|c| if c.i < n / 2 { 0 } else { 1 })
            .collect();
        (mesh, Arc::new(assignment))
    }

    #[test]
    fn cells_touching_corner_counts() {
        let dims = (2, 2, 2);
        // Center corner of a 2^3 mesh touches all 8 cells.
        assert_eq!(cells_touching_node(dims, 1, Index3::new(1, 1, 1)).len(), 8);
        // Domain corner touches exactly 1.
        assert_eq!(cells_touching_node(dims, 1, Index3::new(0, 0, 0)).len(), 1);
        // Edge-interior corner touches 4? (1,0,0): x interface, y lo, z lo -> 2 cells.
        assert_eq!(cells_touching_node(dims, 1, Index3::new(1, 0, 0)).len(), 2);
        assert_eq!(cells_touching_node(dims, 1, Index3::new(1, 1, 0)).len(), 4);
    }

    #[test]
    fn cells_touching_q2_nodes() {
        let dims = (2, 2, 2);
        // Q2 lattice has 5 nodes per axis. Node (1,1,1) is a cell interior
        // node of cell (0,0,0): touches 1 cell.
        assert_eq!(cells_touching_node(dims, 2, Index3::new(1, 1, 1)).len(), 1);
        // Node (2,1,1) is a face midpoint between cells (0,0,0) and (1,0,0).
        let t = cells_touching_node(dims, 2, Index3::new(2, 1, 1));
        assert_eq!(t.len(), 2);
        assert!(t.contains(&Index3::new(0, 0, 0)));
        assert!(t.contains(&Index3::new(1, 0, 0)));
        // Node (2,2,2) is the center corner: 8 cells.
        assert_eq!(cells_touching_node(dims, 2, Index3::new(2, 2, 2)).len(), 8);
    }

    #[test]
    fn slab_partition_views() {
        let (mesh, asg) = two_slab_partition(4);
        let d0 = DistributedMesh::new(mesh.clone(), Arc::clone(&asg), 0, 2);
        let d1 = DistributedMesh::new(mesh, asg, 1, 2);
        assert_eq!((d0.rank(), d1.rank()), (0, 1));
        assert_eq!(d0.owned_cells().len(), 32);
        assert_eq!(d1.owned_cells().len(), 32);
        assert!(d0
            .owned_cells()
            .iter()
            .all(|&c| d0.mesh().cell_index(c).i < 2));
        assert!(d1
            .owned_cells()
            .iter()
            .all(|&c| d1.mesh().cell_index(c).i >= 2));
        // The x = 1/2 corner plane (5*5 = 25 corners) is the interface: the
        // lower slab owns it, and the upper slab owns the rest of its half.
        let owned_by = |d: &DistributedMesh, r: usize| {
            (0..125)
                .filter(|&id| d.node_owner(1, Index3::from_linear(id, (5, 5, 5))) == r)
                .count()
        };
        assert_eq!(owned_by(&d0, 0), 3 * 25);
        assert_eq!(owned_by(&d1, 1), 2 * 25);
    }

    #[test]
    fn node_ownership_is_consistent_across_ranks() {
        let (mesh, asg) = two_slab_partition(4);
        let d0 = DistributedMesh::new(mesh.clone(), Arc::clone(&asg), 0, 2);
        let d1 = DistributedMesh::new(mesh.clone(), asg, 1, 2);
        for q in [1usize, 2] {
            let (nx, ny, nz) = mesh.cell_dims();
            let dims = (q * nx + 1, q * ny + 1, q * nz + 1);
            for lin in 0..(dims.0 * dims.1 * dims.2) {
                let node = Index3::from_linear(lin, dims);
                assert_eq!(d0.node_owner(q, node), d1.node_owner(q, node));
            }
        }
    }

    #[test]
    fn interface_nodes_owned_by_lower_slab() {
        let (mesh, asg) = two_slab_partition(4);
        let d0 = DistributedMesh::new(mesh, asg, 0, 2);
        // Corner (2, j, k) lies on the interface plane; the smallest touching
        // cell id has i = 1, which belongs to rank 0.
        assert_eq!(d0.node_owner(1, Index3::new(2, 1, 1)), 0);
        // Node strictly inside the upper slab is owned by rank 1.
        assert_eq!(d0.node_owner(1, Index3::new(3, 1, 1)), 1);
    }

    #[test]
    fn single_rank_has_no_neighbors() {
        let mesh = StructuredHexMesh::unit_cube(3);
        let asg = Arc::new(vec![0usize; mesh.num_cells()]);
        let d = DistributedMesh::new(mesh, asg, 0, 1);
        assert_eq!(d.owned_cells().len(), 27);
        // It owns every node of both lattices, so it shares none.
        for q in [1usize, 2] {
            let dims = (3 * q + 1, 3 * q + 1, 3 * q + 1);
            for id in 0..dims.0 * dims.1 * dims.2 {
                assert_eq!(d.node_owner(q, Index3::from_linear(id, dims)), 0);
            }
        }
    }

    #[test]
    fn owned_cells_partition_the_mesh() {
        let mesh = StructuredHexMesh::new(3, 3, 3, Point3::ZERO, Point3::splat(1.0));
        // Assign cells round-robin to 4 parts.
        let asg = Arc::new((0..mesh.num_cells()).map(|c| c % 4).collect::<Vec<_>>());
        let mut seen = vec![false; mesh.num_cells()];
        for r in 0..4 {
            let d = DistributedMesh::new(mesh.clone(), Arc::clone(&asg), r, 4);
            for &c in d.owned_cells() {
                assert!(!seen[c]);
                seen[c] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "assignment length")]
    fn wrong_assignment_length_rejected() {
        let mesh = StructuredHexMesh::unit_cube(2);
        DistributedMesh::new(mesh, Arc::new(vec![0; 3]), 0, 1);
    }
}
