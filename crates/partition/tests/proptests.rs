//! Property-based tests of the block layout's contracts.

use hetero_mesh::StructuredHexMesh;
use hetero_partition::block::near_cubic_factors;
use hetero_partition::BlockLayout;
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
        // Every factorisation of `p` that fits the grid, not only the
        // near-cubic one: slabs, pencils and permuted factors.
        let mesh = StructuredHexMesh::unit_cube(n);
        for px in (1..=p).filter(|d| p.is_multiple_of(*d)) {
            for py in (1..=p / px).filter(|d| (p / px).is_multiple_of(*d)) {
                let pz = p / px / py;
                if px.max(py).max(pz) > n {
                    continue;
                }
                let asg = BlockLayout::new(mesh.cell_dims(), (px, py, pz)).assignment();
                check_valid(&asg, mesh.num_cells(), p)?;
                let mut counts = vec![0usize; p];
                for &part in &asg {
                    counts[part] += 1;
                }
                let imb = counts.iter().max().unwrap() * p;
                prop_assert!(imb as f64 <= 2.5 * asg.len() as f64, "({px}, {py}, {pz})");
            }
        }
    }

    #[test]
    fn partitioners_are_deterministic((n, p) in mesh_and_parts()) {
        let f = near_cubic_factors(p);
        prop_assume!(f.2 <= n);
        let a = BlockLayout::new((n, n, n), f).assignment();
        let b = BlockLayout::new((n, n, n), f).assignment();
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
        // Each rank's cells fill a box, and chunked splitting keeps per-axis
        // extents within 1 of each other.
        let asg = layout.assignment();
        for r in 0..layout.num_parts() {
            let (mut lo, mut hi) = ([usize::MAX; 3], [0usize; 3]);
            for (id, _) in asg.iter().enumerate().filter(|&(_, &part)| part == r) {
                let ijk = [id % nx, id / nx % ny, id / (nx * ny)];
                for axis in 0..3 {
                    lo[axis] = lo[axis].min(ijk[axis]);
                    hi[axis] = hi[axis].max(ijk[axis] + 1);
                }
            }
            let (a, b, c) = (hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]);
            prop_assert_eq!(a * b * c, layout.cells_in_rank(r));
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
        let layout = BlockLayout::new((n, n, n), f);
        let asg = layout.assignment();
        // The ranks a rank's cells touch (sharing at least a corner) in the
        // expanded assignment are its closed-form node neighbours.
        for r in 0..p {
            prop_assert_eq!(asg.iter().filter(|&&part| part == r).count(), layout.cells_in_rank(r));
            let mut touched = std::collections::BTreeSet::new();
            for (id, _) in asg.iter().enumerate().filter(|&(_, &part)| part == r) {
                let (i, j, k) = ((id % n) as i64, (id / n % n) as i64, (id / (n * n)) as i64);
                for (di, dj, dk) in (0..27).map(|d| (d % 3 - 1, d / 3 % 3 - 1, d / 9 - 1)) {
                    let (a, b, c) = (i + di, j + dj, k + dk);
                    let n = n as i64;
                    if (0..n).contains(&a) && (0..n).contains(&b) && (0..n).contains(&c) {
                        let other = asg[(a + n * (b + n * c)) as usize];
                        if other != r {
                            touched.insert(other);
                        }
                    }
                }
            }
            let closed: Vec<usize> = layout.node_neighbors(r, 1).iter().map(|&(s, _)| s).collect();
            prop_assert_eq!(touched.into_iter().collect::<Vec<_>>(), closed);
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
