//! Property-based tests of the partitioners' contracts.

use hetero_mesh::quality::load_imbalance;
use hetero_mesh::StructuredHexMesh;
use hetero_partition::block::near_cubic_factors;
use hetero_partition::{BlockLayout, BlockPartitioner, Partitioner, RcbPartitioner};
use proptest::prelude::*;

fn mesh_and_parts() -> impl Strategy<Value = (usize, usize)> {
    (2usize..6, 1usize..9).prop_filter("parts <= cells", |(n, p)| *p <= n * n * n)
}

fn check_valid(assignment: &[usize], num_cells: usize, parts: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(assignment.len(), num_cells);
    prop_assert!(assignment.iter().all(|&p| p < parts));
    for part in 0..parts {
        prop_assert!(assignment.contains(&part), "part {part} empty");
    }
    Ok(())
}

proptest! {
    #[test]
    fn near_cubic_factors_multiply_back((_, p) in mesh_and_parts()) {
        let (a, b, c) = near_cubic_factors(p);
        prop_assert_eq!(a * b * c, p);
        prop_assert!(a <= b && b <= c);
    }

    #[test]
    fn every_partitioner_is_valid_and_bounded((n, p) in mesh_and_parts()) {
        let mesh = StructuredHexMesh::unit_cube(n);
        let partitioners: Vec<Box<dyn Partitioner>> =
            vec![Box::new(BlockPartitioner), Box::new(RcbPartitioner)];
        for part in partitioners {
            // Block layouts need the part grid to fit the cell grid.
            if part.name() == "block" {
                let f = near_cubic_factors(p);
                if f.2 > n {
                    continue;
                }
            }
            let asg = part.partition(&mesh, p);
            check_valid(&asg, mesh.num_cells(), p)?;
            let imb = load_imbalance(&asg, p);
            prop_assert!(imb <= 2.5, "{}: imbalance {imb}", part.name());
        }
    }

    #[test]
    fn partitioners_are_deterministic((n, p) in mesh_and_parts()) {
        let mesh = StructuredHexMesh::unit_cube(n);
        let a = RcbPartitioner.partition(&mesh, p);
        let b = RcbPartitioner.partition(&mesh, p);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn block_layout_covers_and_balances(
        nx in 2usize..8, ny in 2usize..8, nz in 2usize..8,
        px in 1usize..4, py in 1usize..4, pz in 1usize..4,
    ) {
        prop_assume!(px <= nx && py <= ny && pz <= nz);
        let layout = BlockLayout::new((nx, ny, nz), (px, py, pz));
        let total: usize = (0..layout.num_parts()).map(|r| layout.cells_in_rank(r)).sum();
        prop_assert_eq!(total, nx * ny * nz);
        // Chunked splitting keeps per-axis extents within 1 of each other.
        for r in 0..layout.num_parts() {
            let (a, b, c) = layout.block_extent(r);
            prop_assert!(a >= nx / px && a <= nx.div_ceil(px));
            prop_assert!(b >= ny / py && b <= ny.div_ceil(py));
            prop_assert!(c >= nz / pz && c <= nz.div_ceil(pz));
        }
    }

    #[test]
    fn block_layout_assignment_matches_queries(
        n in 2usize..7,
        p in 1usize..9,
    ) {
        let f = near_cubic_factors(p);
        prop_assume!(f.2 <= n);
        let mesh = StructuredHexMesh::unit_cube(n);
        let layout = BlockLayout::for_mesh(&mesh, p);
        let asg = layout.assignment();
        for cell in mesh.cells() {
            prop_assert_eq!(asg[mesh.cell_id(cell)], layout.rank_of_cell(cell));
        }
    }

    #[test]
    fn block_neighbors_are_mutual_with_equal_interfaces(
        n in 2usize..7,
        p in 2usize..9,
        q in 1usize..3,
    ) {
        let f = near_cubic_factors(p);
        prop_assume!(f.2 <= n);
        let layout = BlockLayout::new((n, n, n), f);
        for r in 0..layout.num_parts() {
            for &(s, count) in &layout.node_neighbors(r, q) {
                let back = layout.node_neighbors(s, q);
                let found = back.iter().find(|&&(t, _)| t == r);
                prop_assert!(found.is_some(), "asymmetric neighbors {r} {s}");
                prop_assert_eq!(found.unwrap().1, count);
            }
        }
    }
}
