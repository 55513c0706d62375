//! Property-based tests of the FEM building blocks: shape-function algebra,
//! quadrature exactness, element-kernel identities, and BDF consistency.

use hetero_fem::assembly::scalar_kernels;
use hetero_fem::bdf::BdfOrder;
use hetero_fem::element::ElementOrder;
use hetero_fem::exact::{EthierSteinman, RdExact};
use hetero_fem::quadrature::{GaussRule1d, GaussRule3d};
use hetero_linalg::csr::TripletBuilder;
use hetero_mesh::Point3;
use proptest::prelude::*;

/// Assembles the triplet stream of `c1 M + c2 K` on an `n^3`-cell
/// structured mesh (serial, no communication), returning the builder and
/// the values in insertion order.
fn mesh_triplets(n: usize, o: ElementOrder, c1: f64, c2: f64) -> (TripletBuilder, Vec<f64>) {
    let q = o.q();
    let nn = q * n + 1;
    let total = nn * nn * nn;
    let kern = scalar_kernels(o, Point3::splat(1.0 / n as f64));
    let npe = o.nodes_per_element();
    let node = |i: usize, j: usize, k: usize| i + nn * (j + nn * k);
    let mut builder = TripletBuilder::with_capacity(total, total, n * n * n * npe * npe);
    let mut vals = Vec::with_capacity(n * n * n * npe * npe);
    for ck in 0..n {
        for cj in 0..n {
            for ci in 0..n {
                let dofs: Vec<usize> = (0..npe)
                    .map(|l| {
                        let (a, b, c) = (l % (q + 1), l / (q + 1) % (q + 1), l / (q + 1).pow(2));
                        node(q * ci + a, q * cj + b, q * ck + c)
                    })
                    .collect();
                for a in 0..npe {
                    for b in 0..npe {
                        let v = c1 * kern.mass[a * npe + b] + c2 * kern.stiffness[a * npe + b];
                        builder.add(dofs[a], dofs[b], v);
                        vals.push(v);
                    }
                }
            }
        }
    }
    (builder, vals)
}

fn unit_point() -> impl Strategy<Value = (f64, f64, f64)> {
    (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0)
}

fn order() -> impl Strategy<Value = ElementOrder> {
    prop_oneof![Just(ElementOrder::Q1), Just(ElementOrder::Q2)]
}

proptest! {
    #[test]
    fn partition_of_unity_everywhere(o in order(), (x, y, z) in unit_point()) {
        let sum: f64 = (0..o.nodes_per_element()).map(|i| o.shape(i, x, y, z)).sum();
        prop_assert!((sum - 1.0).abs() < 1e-12, "sum = {sum}");
        let mut g = [0.0f64; 3];
        for i in 0..o.nodes_per_element() {
            let gi = o.grad_shape(i, x, y, z);
            for (acc, gd) in g.iter_mut().zip(gi) {
                *acc += gd;
            }
        }
        for gd in g {
            prop_assert!(gd.abs() < 1e-11);
        }
    }

    #[test]
    fn interpolation_reproduces_polynomials_of_the_order(
        o in order(),
        (x, y, z) in unit_point(),
        c in prop::collection::vec(-2.0f64..2.0, 4),
    ) {
        // p(x,y,z) = c0 + c1 x + c2 y + c3 z is in both spaces.
        let f = |p: [f64; 3]| c[0] + c[1] * p[0] + c[2] * p[1] + c[3] * p[2];
        // Local nodes in tensor order, x fastest, on the lattice {0, 1/q, .., 1}.
        let (n, q) = (o.q() + 1, o.q() as f64);
        let node = |i: usize| [(i % n) as f64 / q, (i / n % n) as f64 / q, (i / (n * n)) as f64 / q];
        let interp: f64 = (0..o.nodes_per_element())
            .map(|i| f(node(i)) * o.shape(i, x, y, z))
            .sum();
        prop_assert!((interp - f([x, y, z])).abs() < 1e-11);
    }

    #[test]
    fn gauss_rules_integrate_their_degree(n in 1usize..=4, d in 0usize..8, scale in 0.5f64..3.0) {
        prop_assume!(d < 2 * n);
        let r = GaussRule1d::new(n);
        let val: f64 = r
            .points
            .iter()
            .zip(&r.weights)
            .map(|(&x, &w)| w * scale * x.powi(d as i32))
            .sum();
        prop_assert!((val - scale / (d as f64 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn tensor_rule_integrates_products(
        n in 2usize..=4,
        (dx, dy, dz) in (0usize..4, 0usize..4, 0usize..4),
    ) {
        prop_assume!(dx.max(dy).max(dz) < 2 * n);
        let r = GaussRule3d::new(n);
        let v = r.integrate(|[x, y, z]| {
            x.powi(dx as i32) * y.powi(dy as i32) * z.powi(dz as i32)
        });
        let expect = 1.0 / ((dx as f64 + 1.0) * (dy as f64 + 1.0) * (dz as f64 + 1.0));
        prop_assert!((v - expect).abs() < 1e-12, "{v} vs {expect}");
    }

    #[test]
    fn mass_kernel_total_equals_cell_volume(
        o in order(),
        hx in 0.01f64..2.0, hy in 0.01f64..2.0, hz in 0.01f64..2.0,
    ) {
        let k = scalar_kernels(o, Point3::new(hx, hy, hz));
        let total: f64 = k.mass.iter().sum();
        prop_assert!((total - hx * hy * hz).abs() < 1e-10 * (1.0 + hx * hy * hz));
        // Mass diagonals are positive; the matrix is symmetric.
        let npe = k.npe;
        for a in 0..npe {
            prop_assert!(k.mass[a * npe + a] > 0.0);
            for b in 0..npe {
                prop_assert!((k.mass[a * npe + b] - k.mass[b * npe + a]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn stiffness_kernel_is_symmetric_psd_and_annihilates_constants(
        o in order(),
        hx in 0.05f64..2.0, hy in 0.05f64..2.0, hz in 0.05f64..2.0,
        v in prop::collection::vec(-1.0f64..1.0, 27),
    ) {
        let k = scalar_kernels(o, Point3::new(hx, hy, hz));
        let npe = k.npe;
        // Symmetry + zero row sums.
        for a in 0..npe {
            let row: f64 = (0..npe).map(|b| k.stiffness[a * npe + b]).sum();
            prop_assert!(row.abs() < 1e-11);
            for b in 0..npe {
                prop_assert!((k.stiffness[a * npe + b] - k.stiffness[b * npe + a]).abs() < 1e-12);
            }
        }
        // Positive semidefinite: v' K v >= 0 for the random test vector.
        let mut quad = 0.0;
        for a in 0..npe {
            for b in 0..npe {
                quad += v[a] * k.stiffness[a * npe + b] * v[b];
            }
        }
        prop_assert!(quad > -1e-10, "v'Kv = {quad}");
    }

    #[test]
    fn symbolic_numeric_rebuild_equals_build_on_random_meshes(
        n in 1usize..=3,
        o in order(),
        c1 in 0.1f64..5.0,
        c2 in -2.0f64..2.0,
        scale in 0.25f64..4.0,
    ) {
        // The symbolic pattern + numeric scatter must reproduce a
        // from-scratch build exactly (same sparsity, same duplicate-merge
        // order, bitwise-equal values) — this is what lets the BDF2 time
        // loops reuse one pattern across steps.
        let (builder, vals) = mesh_triplets(n, o, c1, c2);
        let pattern = builder.clone().into_parts().0;
        let rebuilt = pattern.numeric(&vals);
        let built = builder.build();
        prop_assert_eq!(&rebuilt, &built);
        // Fresh values through the same pattern keep the structure intact.
        let scaled: Vec<f64> = vals.iter().map(|v| scale * v).collect();
        let rescaled = pattern.numeric(&scaled);
        prop_assert_eq!(rescaled.nnz(), built.nnz());
        for r in 0..rescaled.num_rows() {
            prop_assert_eq!(rescaled.row(r).0, built.row(r).0);
        }
    }

    #[test]
    fn bdf_derivatives_are_consistent(
        o in prop_oneof![Just(BdfOrder::One), Just(BdfOrder::Two)],
        a in -2.0f64..2.0,
        b in -2.0f64..2.0,
        t in 1.0f64..3.0,
        dt in 0.01f64..0.2,
    ) {
        // Exact for linear functions u = a t + b for both orders.
        let u = |s: f64| a * s + b;
        let mut v = o.alpha() * u(t);
        for (j, c) in o.history().iter().enumerate() {
            v -= c * u(t - (j as f64 + 1.0) * dt);
        }
        prop_assert!((v / dt - a).abs() < 1e-9 * (1.0 + a.abs()));
    }

    #[test]
    fn rd_exact_satisfies_its_pde_at_random_points(
        x in 0.0f64..1.0, y in 0.0f64..1.0, z in 0.0f64..1.0, t in 0.5f64..3.0,
    ) {
        let ex = RdExact;
        let p = Point3::new(x, y, z);
        // Analytic identities: du/dt = 2t|x|^2, lap(u) = 6t^2.
        let dudt = 2.0 * t * p.norm_sq();
        let lap = 6.0 * t * t;
        let residual = dudt - ex.diffusion(t) * lap + ex.reaction(t) * ex.u(p, t);
        prop_assert!((residual - ex.source()).abs() < 1e-9);
    }

    #[test]
    fn ethier_steinman_divergence_free_at_random_points(
        x in 0.0f64..1.0, y in 0.0f64..1.0, z in 0.0f64..1.0,
        t in 0.0f64..0.1, nu in 0.01f64..1.0,
    ) {
        let es = EthierSteinman::classical(nu);
        let eps = 1e-6;
        let mut div = 0.0;
        for i in 0..3 {
            let mut hi = Point3::new(x, y, z);
            let mut lo = hi;
            match i {
                0 => { hi.x += eps; lo.x -= eps; }
                1 => { hi.y += eps; lo.y -= eps; }
                _ => { hi.z += eps; lo.z -= eps; }
            }
            div += (es.velocity(hi, t)[i] - es.velocity(lo, t)[i]) / (2.0 * eps);
        }
        prop_assert!(div.abs() < 1e-6, "div = {div}");
    }
}
