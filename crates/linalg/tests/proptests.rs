//! Property-based tests of the linear-algebra contracts: CSR assembly vs a
//! dense oracle, SpMV linearity, solver correctness on random SPD systems,
//! and the ghost update against the point-to-point loops it replaced.

use hetero_linalg::csr::TripletBuilder;
use hetero_linalg::precond::{Identity, IluZero, Jacobi, Ssor};
use hetero_linalg::solver::{bicgstab, cg, gmres, SolveOptions, SolverVariant};
use hetero_linalg::{work_costs, DistMatrix, DistVector, ExchangePlan};
use hetero_simmpi::{
    run_spmd, run_spmd_opts, run_spmd_recorded, ClusterTopology, ComputeModel, EngineOpts,
    FaultPlan, NetworkModel, Payload, SimComm, SpmdConfig, TraceSpec, Work, WorkTape,
};
use proptest::prelude::*;

fn serial_cfg() -> SpmdConfig {
    SpmdConfig {
        size: 1,
        topo: ClusterTopology::uniform(1, 1),
        net: NetworkModel::ideal(),
        compute: ComputeModel::new(1e9, 4e9),
        seed: 0,
    }
}

/// Random triplets over a small matrix.
fn triplets(n: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0..n, 0..n, -5.0f64..5.0), 0..40)
}

/// A random diagonally dominant SPD matrix via its lower entries.
fn spd_system(n: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    let lower = prop::collection::vec(-1.0f64..1.0, n * n);
    let sol = prop::collection::vec(-3.0f64..3.0, n);
    (lower, sol).prop_map(move |(l, sol)| {
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..i {
                let v = l[i * n + j];
                a[i][j] = v;
                a[j][i] = v;
            }
        }
        for (i, row) in a.iter_mut().enumerate() {
            let off: f64 = row.iter().map(|v| v.abs()).sum();
            row[i] = off + 1.0; // strict diagonal dominance => SPD
        }
        (a, sol)
    })
}

/// A random banded matrix split into contiguous per-rank blocks: rank
/// count, half-bandwidth, block sizes, band values, and input vector.
/// Block sizes stay >= the half-bandwidth so halos only touch adjacent
/// ranks. Band values use a fixed stride of `BAND_STRIDE` per row with
/// the diagonal at offset `BAND_CENTER`, sized for the largest case.
type BandedCase = (usize, usize, Vec<usize>, Vec<f64>, Vec<f64>);

const BAND_STRIDE: usize = 5; // fits any half-bandwidth <= 2
const BAND_CENTER: usize = 2;

fn banded_partition() -> impl Strategy<Value = BandedCase> {
    let max_n = 4 * 8;
    (
        1usize..=4,
        1usize..=2,
        prop::collection::vec(2usize..8, 4),
        prop::collection::vec(-1.0f64..1.0, max_n * BAND_STRIDE),
        prop::collection::vec(-2.0f64..2.0, max_n),
    )
        .prop_map(|(p, bw, sizes, band, xv)| (p, bw, sizes[..p].to_vec(), band, xv))
}

/// Runs blocking and overlapped SpMV on the banded case across `p` ranks
/// on `workers` scheduler workers, returning the two global results.
fn banded_spmv_both_ways(case: &BandedCase, workers: usize) -> (Vec<f64>, Vec<f64>) {
    let (p, bw, sizes, band, xv) = case.clone();
    let spmd = SpmdConfig {
        size: p,
        topo: ClusterTopology::uniform(p, 1),
        net: NetworkModel::gigabit_ethernet(),
        compute: ComputeModel::new(1e9, 4e9),
        seed: 11,
    };
    let opts = EngineOpts::cooperative(workers);
    let (results, _) = run_spmd_opts(spmd, opts, FaultPlan::none(), None, move |comm| {
        let rank = comm.rank();
        let first: usize = sizes[..rank].iter().sum();
        let n_per = sizes[rank];
        let n_global: usize = sizes.iter().sum();
        // Band entry of the global matrix; the diagonal is made dominant.
        let entry = |i: usize, j: usize| -> f64 {
            if i == j {
                let off: f64 = (i.saturating_sub(bw)..(i + bw + 1).min(n_global))
                    .filter(|&c| c != i)
                    .map(|c| band[i * BAND_STRIDE + (c + BAND_CENTER - i)].abs())
                    .sum();
                off + 1.0
            } else {
                band[i * BAND_STRIDE + (j + BAND_CENTER - i)]
            }
        };
        let mut ghosts = Vec::new();
        for g in first.saturating_sub(bw)..first {
            ghosts.push(g);
        }
        for g in first + n_per..(first + n_per + bw).min(n_global) {
            ghosts.push(g);
        }
        let n_local = n_per + ghosts.len();
        let local_of = |g: usize| -> usize {
            if (first..first + n_per).contains(&g) {
                g - first
            } else {
                n_per + ghosts.iter().position(|&x| x == g).unwrap()
            }
        };
        let mut bld = TripletBuilder::new(n_per, n_local);
        for r in 0..n_per {
            let g = first + r;
            for j in g.saturating_sub(bw)..(g + bw + 1).min(n_global) {
                bld.add(r, local_of(j), entry(g, j));
            }
        }
        let mut plan = ExchangePlan::empty();
        if rank > 0 {
            let k = bw.min(first); // ghosts we hold from the previous rank
            plan.neighbors.push(rank - 1);
            plan.send_indices.push((0..bw.min(n_per)).collect());
            plan.recv_indices
                .push((first - k..first).map(local_of).collect());
        }
        if rank + 1 < sizes.len() {
            let k = bw.min(n_global - first - n_per);
            plan.neighbors.push(rank + 1);
            plan.send_indices
                .push((n_per - bw.min(n_per)..n_per).collect());
            plan.recv_indices
                .push((first + n_per..first + n_per + k).map(local_of).collect());
        }
        let a = DistMatrix::new(bld.build(), plan);
        let mut x1 = a.new_vector();
        x1.owned_mut().copy_from_slice(&xv[first..first + n_per]);
        let mut x2 = a.new_vector();
        x2.owned_mut().copy_from_slice(&xv[first..first + n_per]);
        let mut y1 = a.new_vector();
        let mut y2 = a.new_vector();
        a.spmv(&mut x1, &mut y1, comm);
        a.spmv_overlapped(&mut x2, &mut y2, comm);
        (y1.owned().to_vec(), y2.owned().to_vec())
    });
    let mut blocking = Vec::new();
    let mut overlapped = Vec::new();
    for r in results.expect("a trivial fault plan cannot fail a rank") {
        blocking.extend(r.value.0);
        overlapped.extend(r.value.1);
    }
    (blocking, overlapped)
}

fn dense_to_dist(a: &[Vec<f64>]) -> DistMatrix {
    let n = a.len();
    let mut b = TripletBuilder::new(n, n);
    for (i, row) in a.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if v != 0.0 || i == j {
                b.add(i, j, v);
            }
        }
    }
    DistMatrix::new(b.build(), ExchangePlan::empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_matches_dense_oracle(ts in triplets(6)) {
        let mut dense = vec![vec![0.0f64; 6]; 6];
        for &(r, c, v) in &ts {
            dense[r][c] += v;
        }
        let mut b = TripletBuilder::new(6, 6);
        for &(r, c, v) in &ts {
            b.add(r, c, v);
        }
        let csr = b.build();
        for (r, row) in dense.iter().enumerate() {
            for (c, &want) in row.iter().enumerate() {
                prop_assert!((csr.get(r, c) - want).abs() < 1e-12);
            }
        }
        // nnz never exceeds distinct coordinates.
        let mut coords: Vec<(usize, usize)> = ts.iter().map(|&(r, c, _)| (r, c)).collect();
        coords.sort_unstable();
        coords.dedup();
        prop_assert!(csr.nnz() <= coords.len());
    }

    #[test]
    fn spmv_is_linear(ts in triplets(5), x in prop::collection::vec(-2.0f64..2.0, 5), alpha in -3.0f64..3.0) {
        let mut b = TripletBuilder::new(5, 5);
        for &(r, c, v) in &ts {
            b.add(r, c, v);
        }
        let a = b.build();
        let mut y1 = vec![0.0; 5];
        a.spmv(&x, &mut y1);
        let ax: Vec<f64> = x.iter().map(|v| alpha * v).collect();
        let mut y2 = vec![0.0; 5];
        a.spmv(&ax, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            prop_assert!((alpha * u - v).abs() < 1e-9, "{u} {v}");
        }
    }

    #[test]
    fn cg_solves_random_spd_with_any_preconditioner((a, sol) in spd_system(6), pick in 0usize..4) {
        run_spmd(serial_cfg(), move |comm| {
            let m = dense_to_dist(&a);
            // b = A * sol
            let mut xs = DistVector::from_values(sol.clone(), sol.len());
            let mut b = m.new_vector();
            m.spmv(&mut xs, &mut b, comm);
            let mut x = m.new_vector();
            let opts = SolveOptions { rel_tol: 1e-10, max_iters: 500, ..Default::default() };
            let stats = match pick {
                0 => cg(&m, &b, &mut x, &Identity, opts, comm),
                1 => {
                    let p = Jacobi::new(&m, comm);
                    cg(&m, &b, &mut x, &p, opts, comm)
                }
                2 => {
                    let p = Ssor::new(&m, comm);
                    cg(&m, &b, &mut x, &p, opts, comm)
                }
                _ => {
                    let p = IluZero::new(&m, comm);
                    cg(&m, &b, &mut x, &p, opts, comm)
                }
            };
            assert!(stats.converged, "{stats:?}");
            for (xi, si) in x.owned().iter().zip(&sol) {
                assert!((xi - si).abs() < 1e-5, "{xi} vs {si}");
            }
        });
    }

    #[test]
    fn bicgstab_and_gmres_solve_random_dominant_systems(
        (mut a, sol) in spd_system(6),
        skew in prop::collection::vec(-0.3f64..0.3, 36),
    ) {
        // Perturb the SPD matrix into a nonsymmetric diagonally dominant one.
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    a[i][j] += skew[i * 6 + j];
                }
            }
            let off: f64 = (0..6).filter(|&j| j != i).map(|j| a[i][j].abs()).sum();
            a[i][i] = off + 1.0;
        }
        run_spmd(serial_cfg(), move |comm| {
            let m = dense_to_dist(&a);
            let mut xs = DistVector::from_values(sol.clone(), sol.len());
            let mut b = m.new_vector();
            m.spmv(&mut xs, &mut b, comm);
            let opts = SolveOptions { rel_tol: 1e-10, max_iters: 600, ..Default::default() };

            let mut x1 = m.new_vector();
            let s1 = bicgstab(&m, &b, &mut x1, &Identity, opts, comm);
            assert!(s1.converged, "bicgstab {s1:?}");
            let mut x2 = m.new_vector();
            let s2 = gmres(&m, &b, &mut x2, &Identity, 6, opts, comm);
            assert!(s2.converged, "gmres {s2:?}");
            for ((u, v), s) in x1.owned().iter().zip(x2.owned()).zip(&sol) {
                assert!((u - s).abs() < 1e-5);
                assert!((v - s).abs() < 1e-5);
            }
        });
    }

    #[test]
    fn dirichlet_row_is_idempotent(ts in triplets(5), row in 0usize..5) {
        let mut b = TripletBuilder::new(5, 5);
        b.add(row, row, 1.0); // ensure a stored diagonal
        for &(r, c, v) in &ts {
            b.add(r, c, v);
        }
        let mut a = b.build();
        a.set_dirichlet_row(row, 1.0);
        let (cols, vals) = a.row(row);
        for (&c, &v) in cols.iter().zip(vals) {
            prop_assert_eq!(v, if c as usize == row { 1.0 } else { 0.0 });
        }
    }

    #[test]
    fn vector_reductions_match_serial_folds(
        data in prop::collection::vec(-2.0f64..2.0, 1..20),
    ) {
        let expect_dot: f64 = data.iter().map(|v| v * v).sum();
        let n = data.len();
        run_spmd(serial_cfg(), move |comm| {
            let v = DistVector::from_values(data.clone(), n);
            let dot = v.dot(&v, comm);
            assert!((dot - expect_dot).abs() < 1e-10);
            assert!((v.norm2(comm) - expect_dot.sqrt()).abs() < 1e-10);
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Overlapped SpMV is bitwise-identical to blocking SpMV on random
    /// banded matrices under random contiguous partitions, and the result
    /// does not depend on the scheduler's worker count.
    #[test]
    fn overlapped_spmv_is_bitwise_identical_on_random_partitions(case in banded_partition()) {
        let (b1, o1) = banded_spmv_both_ways(&case, 1);
        let (b2, o2) = banded_spmv_both_ways(&case, 2);
        for (((b, o), b_mt), o_mt) in b1.iter().zip(&o1).zip(&b2).zip(&o2) {
            prop_assert_eq!(b.to_bits(), o.to_bits(), "overlapped vs blocking");
            prop_assert_eq!(b.to_bits(), b_mt.to_bits(), "blocking across workers");
            prop_assert_eq!(o.to_bits(), o_mt.to_bits(), "overlapped across workers");
        }
    }

    /// The fused multi-pair reduction returns bitwise the same values as
    /// the separate scalar dot products it replaces.
    #[test]
    fn fused_dots_match_separate_dots_bitwise(
        data in prop::collection::vec(-2.0f64..2.0, 1..40),
        other in prop::collection::vec(-2.0f64..2.0, 40),
    ) {
        let n = data.len();
        let w: Vec<f64> = other[..n].to_vec();
        run_spmd(serial_cfg(), move |comm| {
            let v = DistVector::from_values(data.clone(), n);
            let u = DistVector::from_values(w.clone(), n);
            let fused = hetero_linalg::fused_dots(&[(&v, &v), (&v, &u), (&u, &u)], comm);
            let separate = [v.dot(&v, comm), v.dot(&u, comm), u.dot(&u, comm)];
            for (f, s) in fused.iter().zip(&separate) {
                assert_eq!(f.to_bits(), s.to_bits());
            }
        });
    }

    /// Pipelined CG reaches the same residual tolerance as classic CG on
    /// random SPD systems, with an iteration count within ±2.
    #[test]
    fn pipelined_cg_matches_classic_on_random_spd((a, sol) in spd_system(6)) {
        run_spmd(serial_cfg(), move |comm| {
            let m = dense_to_dist(&a);
            let mut xs = DistVector::from_values(sol.clone(), sol.len());
            let mut b = m.new_vector();
            m.spmv(&mut xs, &mut b, comm);
            let base = SolveOptions { rel_tol: 1e-9, max_iters: 400, ..Default::default() };

            let mut xc = m.new_vector();
            let sc = cg(&m, &b, &mut xc, &Identity, base, comm);
            let mut xp = m.new_vector();
            let opts_p = SolveOptions { variant: SolverVariant::Pipelined, ..base };
            let sp = cg(&m, &b, &mut xp, &Identity, opts_p, comm);

            assert!(sc.converged && sp.converged, "classic {sc:?} pipelined {sp:?}");
            assert!(
                sp.iterations.abs_diff(sc.iterations) <= 2,
                "pipelined {} vs classic {} iterations",
                sp.iterations,
                sc.iterations
            );
            for ((c, p), s) in xc.owned().iter().zip(xp.owned()).zip(&sol) {
                assert!((c - s).abs() < 1e-5, "classic {c} vs exact {s}");
                assert!((p - s).abs() < 1e-5, "pipelined {p} vs exact {s}");
            }
        });
    }
}

/// Two ranks of 300 rows each, so the overlapped SpMV's interior sweep runs
/// hundreds of rows while the halo is in flight, on one and on four
/// scheduler workers.
#[test]
fn overlapped_spmv_bitwise_identity_holds_on_long_interior_sweeps() {
    let p = 2usize;
    let n_per = 300usize;
    let n: usize = p * n_per;
    let band: Vec<f64> = (0..n * BAND_STRIDE)
        .map(|i| ((i as f64) * 0.13).sin())
        .collect();
    let xv: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).cos()).collect();
    let case: BandedCase = (p, 1, vec![n_per; p], band, xv);
    let (b1, o1) = banded_spmv_both_ways(&case, 1);
    let (b4, o4) = banded_spmv_both_ways(&case, 4);
    assert_eq!(b1, o1);
    assert_eq!(b1, b4);
    assert_eq!(o1, o4);
}

// ---- the ghost update against the point-to-point oracle ----

/// The ghost update as point-to-point messages, as `DistVector` did it
/// before the exchange had its own slots: the oracle the exchange must
/// match in every value, clock, counter, tape op and traced event.
mod oracle {
    use super::*;

    const HALO_TAG: u64 = 9_000;

    fn send_all(plan: &ExchangePlan, values: &[f64], comm: &mut SimComm) {
        for (i, &nb) in plan.neighbors.iter().enumerate() {
            let buf: Vec<f64> = plan.send_indices[i].iter().map(|&j| values[j]).collect();
            comm.compute(work_costs::copy(buf.len()));
            comm.send(nb, HALO_TAG, Payload::F64(buf));
        }
    }

    fn scatter(plan: &ExchangePlan, i: usize, buf: &[f64], values: &mut [f64], comm: &mut SimComm) {
        let nb = plan.neighbors[i];
        assert_eq!(
            buf.len(),
            plan.recv_indices[i].len(),
            "halo size mismatch with rank {nb}"
        );
        for (&slot, &v) in plan.recv_indices[i].iter().zip(buf) {
            values[slot] = v;
        }
        comm.compute(work_costs::copy(buf.len()));
    }

    pub fn update(plan: &ExchangePlan, values: &mut [f64], comm: &mut SimComm) {
        send_all(plan, values, comm);
        for (i, &nb) in plan.neighbors.iter().enumerate() {
            let buf = comm.recv_f64(nb, HALO_TAG);
            scatter(plan, i, &buf, values, comm);
        }
    }

    pub fn posted(plan: &ExchangePlan, values: &mut [f64], work: Work, comm: &mut SimComm) {
        send_all(plan, values, comm);
        let reqs = plan
            .neighbors
            .iter()
            .map(|&nb| comm.irecv(nb, HALO_TAG))
            .collect();
        comm.compute(work);
        for (i, payload) in comm.wait_all(reqs).into_iter().enumerate() {
            let Payload::F64(buf) = payload else {
                panic!("expected an F64 halo")
            };
            scatter(plan, i, &buf, values, comm);
        }
    }
}

/// Owned entries per rank in a generated halo program.
const OWNED: usize = 5;

/// One step every rank of a generated halo program takes.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `reps` blocking ghost updates in a row on plan `plan`.
    Blocking { plan: usize, reps: usize },
    /// A posted ghost update on plan `plan` with `flops` of compute under
    /// the transfers.
    Posted { plan: usize, flops: u32 },
    /// Compute only.
    Compute { flops: u32 },
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..2, 1usize..=3).prop_map(|(plan, reps)| Step::Blocking { plan, reps }),
        (0usize..2, 1u32..3_000_000).prop_map(|(plan, flops)| Step::Posted { plan, flops }),
        (1u32..3_000_000).prop_map(|flops| Step::Compute { flops }),
    ]
}

/// Per unordered rank pair `(a, b)`, `a < b`, in `(0,1), (0,2), (1,2), …`
/// order: whether the plan links them, and how many values go `a → b` and
/// `b → a` (0 is an empty interface).
type Links = Vec<(bool, usize, usize)>;

/// A generated halo program: rank count, cores per node, fabric, seed, two
/// plans' links and the steps.
type HaloCase = (usize, usize, bool, u64, [Links; 2], Vec<Step>);

fn halo_case() -> impl Strategy<Value = HaloCase> {
    let links = || prop::collection::vec((any::<bool>(), 0usize..4, 0usize..4), 15);
    (
        (1usize..=6, 1usize..=3, any::<bool>(), 0u64..1000),
        (links(), links()),
        prop::collection::vec(step(), 1..8),
    )
        .prop_map(|((ranks, cores, ec2, seed), (a, b), steps)| {
            (ranks, cores, ec2, seed, [a, b], steps)
        })
}

/// Rank `me`'s side of plan `k` of `links`, with its ghosts after those of
/// the plans before it. Ranks 0 and 1 are neighbours in both plans, so the
/// two share a pair.
fn halo_plan(links: &[Links; 2], k: usize, ranks: usize, me: usize) -> ExchangePlan {
    let mut plan = ExchangePlan::empty();
    let mut ghost = OWNED + (0..k).map(|j| ghosts(links, j, ranks, me)).sum::<usize>();
    for nb in (0..ranks).filter(|&nb| nb != me) {
        let Some((to, from)) = link(&links[k], me, nb) else {
            continue;
        };
        plan.neighbors.push(nb);
        plan.send_indices
            .push((0..to).map(|i| (me + 2 * nb + 3 * i) % OWNED).collect());
        plan.recv_indices.push((ghost..ghost + from).collect());
        ghost += from;
    }
    plan
}

/// `(values me → nb, values nb → me)` if `links` joins the two ranks.
fn link(links: &Links, me: usize, nb: usize) -> Option<(usize, usize)> {
    let (a, b) = (me.min(nb), me.max(nb));
    let (on, ab, ba) = links[b * (b - 1) / 2 + a];
    (on || (a, b) == (0, 1)).then_some(if me == a { (ab, ba) } else { (ba, ab) })
}

/// Ghost entries rank `me` receives into under plan `k`.
fn ghosts(links: &[Links; 2], k: usize, ranks: usize, me: usize) -> usize {
    (0..ranks)
        .filter(|&nb| nb != me)
        .filter_map(|nb| link(&links[k], me, nb))
        .map(|(_, from)| from)
        .sum()
}

/// Runs `case` on this rank through `DistVector` or (`oracle`) the
/// point-to-point loops, fingerprinting the ghosts and the clock after
/// every step.
fn play_halo(case: &HaloCase, oracle: bool, comm: &mut SimComm) -> Vec<u64> {
    let (ranks, _, _, _, links, steps) = case;
    let me = comm.rank();
    let plans = [0, 1].map(|k| halo_plan(links, k, *ranks, me));
    let n_local = OWNED + ghosts(links, 0, *ranks, me) + ghosts(links, 1, *ranks, me);
    for plan in &plans {
        plan.validate(OWNED, n_local);
    }
    let mut v = DistVector::zeros(OWNED, n_local - OWNED);
    let mut fp = Vec::new();
    for (s, step) in steps.iter().enumerate() {
        for (j, x) in v.owned_mut().iter_mut().enumerate() {
            *x = *x * 0.5 + (me * 10 + j + s) as f64;
        }
        match *step {
            Step::Blocking { plan, reps } => {
                for _ in 0..reps {
                    if oracle {
                        oracle::update(&plans[plan], v.as_mut_slice(), comm);
                    } else {
                        v.update_ghosts(&plans[plan], comm);
                    }
                }
            }
            Step::Posted { plan, flops } => {
                let work = Work::new(f64::from(flops), 1e3);
                if oracle {
                    oracle::posted(&plans[plan], v.as_mut_slice(), work, comm);
                } else {
                    let posted = v.post_ghost_update(&plans[plan], comm);
                    comm.compute(work);
                    v.finish_ghost_update(&plans[plan], posted, comm);
                }
            }
            Step::Compute { flops } => comm.compute(Work::new(f64::from(flops), 1e4)),
        }
        fp.extend(v.as_slice()[OWNED..].iter().map(|x| x.to_bits()));
        fp.push(comm.clock().to_bits());
    }
    fp
}

/// Every rank's fingerprint, clock bits and counters; the message-level
/// trace; and the work tape.
type HaloRun = (Vec<(Vec<u64>, u64, String)>, String, Option<WorkTape>);

fn run_halo(case: &HaloCase, opts: EngineOpts, oracle: bool) -> HaloRun {
    let (ranks, cores, ec2, seed, _, _) = *case;
    let cfg = SpmdConfig {
        size: ranks,
        topo: ClusterTopology::uniform(ranks.div_ceil(cores), cores),
        net: if ec2 {
            NetworkModel::ten_gig_ethernet_ec2()
        } else {
            NetworkModel::gigabit_ethernet()
        },
        compute: ComputeModel::new(1e9, 4e9),
        seed,
    };
    let body = |comm: &mut SimComm| play_halo(case, oracle, comm);
    let (res, trace) = run_spmd_opts(
        cfg.clone(),
        opts,
        FaultPlan::none(),
        Some(TraceSpec::messages()),
        body,
    );
    let (_, tape) = run_spmd_recorded(cfg, opts, 1 << 22, body);
    let ranks = res
        .expect("a failure-free job")
        .into_iter()
        .map(|r| (r.value, r.clock.to_bits(), format!("{:?}", r.stats)))
        .collect();
    (ranks, trace.expect("traced").jsonl(), tape)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random symmetric plans — empty interfaces, three updates in a row on
    /// one plan, two plans sharing a pair — over random rank counts and
    /// topologies, blocking and posted: the exchange gives every rank the
    /// ghosts, clock, counters, tape and message trace of the
    /// point-to-point loops, on one, three and host-many workers.
    #[test]
    fn ghost_updates_match_the_point_to_point_oracle(case in halo_case()) {
        for workers in [1, 3, 0] {
            let opts = EngineOpts::cooperative(workers);
            let want = run_halo(&case, opts, true);
            let got = run_halo(&case, opts, false);
            prop_assert!(want.2.is_some(), "the oracle's tape fits");
            prop_assert_eq!(&got, &want, "{:?} on {:?}", opts, case);
        }
    }
}
