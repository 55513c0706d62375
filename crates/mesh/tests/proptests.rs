//! Property-based tests of the mesh invariants.

use hetero_mesh::distributed::cells_touching_node;
use hetero_mesh::{DistributedMesh, Index3, Point3, StructuredHexMesh};
use proptest::prelude::*;
use std::sync::Arc;

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..6, 1usize..6, 1usize..6)
}

proptest! {
    #[test]
    fn linearization_roundtrips(d in dims(), seed in 0usize..1000) {
        let total = d.0 * d.1 * d.2;
        let lin = seed % total;
        let idx = Index3::from_linear(lin, d);
        prop_assert_eq!(idx.linear(d), lin);
        prop_assert!(idx.i < d.0 && idx.j < d.1 && idx.k < d.2);
    }

    #[test]
    fn corner_points_are_inside_the_box(d in dims(), seed in 0usize..1000) {
        let lo = Point3::new(-1.0, 0.5, 2.0);
        let hi = Point3::new(3.0, 1.5, 4.0);
        let mesh = StructuredHexMesh::new(d.0, d.1, d.2, lo, hi);
        let c = Index3::from_linear(seed % ((d.0 + 1) * (d.1 + 1) * (d.2 + 1)), (d.0 + 1, d.1 + 1, d.2 + 1));
        let s = mesh.cell_size();
        let p = lo + Point3::new(s.x * c.i as f64, s.y * c.j as f64, s.z * c.k as f64);
        prop_assert!(p.x >= lo.x - 1e-12 && p.x <= hi.x + 1e-12);
        prop_assert!(p.y >= lo.y - 1e-12 && p.y <= hi.y + 1e-12);
        prop_assert!(p.z >= lo.z - 1e-12 && p.z <= hi.z + 1e-12);
    }

    #[test]
    fn cells_touching_node_contains_the_node(
        d in dims(),
        q in 1usize..3,
        seed in 0usize..10_000,
    ) {
        let lattice = (q * d.0 + 1, q * d.1 + 1, q * d.2 + 1);
        let total = lattice.0 * lattice.1 * lattice.2;
        let node = Index3::from_linear(seed % total, lattice);
        let cells = cells_touching_node(d, q, node);
        prop_assert!(!cells.is_empty());
        prop_assert!(matches!(cells.len(), 1 | 2 | 4 | 8));
        for cell in &cells {
            // The node's lattice coordinates must lie within the cell's
            // lattice span [q*cell, q*(cell+1)].
            prop_assert!(node.i >= q * cell.i && node.i <= q * (cell.i + 1));
            prop_assert!(node.j >= q * cell.j && node.j <= q * (cell.j + 1));
            prop_assert!(node.k >= q * cell.k && node.k <= q * (cell.k + 1));
            prop_assert!(cell.i < d.0 && cell.j < d.1 && cell.k < d.2);
        }
        // And conversely every cell spanning the node is in the list.
        let mesh = StructuredHexMesh::new(d.0, d.1, d.2, Point3::ZERO, Point3::splat(1.0));
        let brute: Vec<Index3> = mesh
            .cells()
            .filter(|c| {
                node.i >= q * c.i
                    && node.i <= q * (c.i + 1)
                    && node.j >= q * c.j
                    && node.j <= q * (c.j + 1)
                    && node.k >= q * c.k
                    && node.k <= q * (c.k + 1)
            })
            .collect();
        let mut got = cells.clone();
        got.sort();
        let mut want = brute;
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn node_ownership_is_total_and_consistent(
        n in 2usize..5,
        parts in 2usize..5,
        q in 1usize..3,
        seed in 0usize..5_000,
    ) {
        let mesh = StructuredHexMesh::unit_cube(n);
        // Deterministic pseudo-random assignment.
        let assignment: Vec<usize> =
            (0..mesh.num_cells()).map(|c| (c * 2654435761) % parts).collect();
        let assignment = Arc::new(assignment);
        let views: Vec<DistributedMesh> = (0..parts)
            .map(|r| DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), r, parts))
            .collect();
        let lattice = (q * n + 1, q * n + 1, q * n + 1);
        let total = lattice.0 * lattice.1 * lattice.2;
        let node = Index3::from_linear(seed % total, lattice);
        let owners: Vec<usize> = views.iter().map(|v| v.node_owner(q, node)).collect();
        // Every rank computes the same owner, and the owner is a valid part.
        for w in owners.windows(2) {
            prop_assert_eq!(w[0], w[1]);
        }
        prop_assert!(owners[0] < parts);
    }

    #[test]
    fn owned_cells_partition_under_any_assignment(
        n in 1usize..5,
        parts in 1usize..6,
        salt in 0usize..100,
    ) {
        let mesh = StructuredHexMesh::unit_cube(n);
        let assignment: Vec<usize> =
            (0..mesh.num_cells()).map(|c| (c * 31 + salt) % parts).collect();
        let assignment = Arc::new(assignment);
        let mut seen = vec![false; mesh.num_cells()];
        for r in 0..parts {
            let v = DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), r, parts);
            for &c in v.owned_cells() {
                prop_assert!(!seen[c], "cell {c} owned twice");
                seen[c] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}
