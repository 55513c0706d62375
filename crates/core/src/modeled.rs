//! The analytic (modeled) execution engine for paper-scale runs.
//!
//! Replays the per-iteration communication/computation sequence of
//! [`hetero_fem::rd::solve_rd`] / [`hetero_fem::ns::solve_ns`] on a
//! [`hetero_simmpi::modeled::VirtualRank`], using
//!
//! * the real [`BlockLayout`] partition topology (neighbour sets and shared
//!   interface node counts, in closed form even at 1000 ranks),
//! * the shared work formulas of [`hetero_fem::profile`], and
//! * Krylov iteration counts from the calibrated laws in the same module.
//!
//! The replayed rank is the partition's **critical rank** (largest
//! halo footprint), matching the paper's "total maximal iteration time"
//! reduction. `tests/model_validation.rs` checks the replay against the
//! numerical engine at small scale.
//!
//! Every step sends the same messages, so a replay prices each space's
//! halo and shipping lists once for its topology, with their byte sums
//! ([`VirtualRank::price`]), and each exchange then charges only the
//! messages' jitter. The traffic a replay reports is a function of the
//! neighbour lists and the app alone, so its first step is the traffic
//! probe the platform limits are checked against.

use hetero_fem::element::ElementOrder;
use hetero_fem::ns::NsConfig;
use hetero_fem::phase::PhaseTimes;
use hetero_fem::profile;
use hetero_fem::rd::RdConfig;
use hetero_linalg::SolverVariant;
use hetero_partition::BlockLayout;
use hetero_simmpi::modeled::{PricedMsgs, VirtualEnv, VirtualMsg, VirtualRank};
use hetero_simmpi::{ClusterTopology, ComputeModel, NetworkModel, Work};

use crate::apps::App;

/// A modeled run's result: per-iteration phase times of the critical rank
/// plus the aggregate traffic estimate used for limit checks.
#[derive(Debug, Clone)]
pub struct ModeledRun {
    /// Phase times for each simulated iteration.
    pub iterations: Vec<PhaseTimes>,
    /// Estimated aggregate bytes through the fabric per iteration (all
    /// ranks).
    pub bytes_per_iteration: f64,
    /// Krylov iterations per time step assumed by the replay (RD: CG; NS:
    /// summed momentum + pressure).
    pub krylov_iters: usize,
}

/// Mirror of one rank's view of the partition, in closed form.
struct Spaces {
    cells: usize,
    /// For each element order used: (neighbors with shared-node counts,
    /// owned dofs, matrix nnz).
    q1: SpaceInfo,
    q2: SpaceInfo,
    n_axis: usize,
}

struct SpaceInfo {
    neighbors: Vec<(usize, usize)>,
    n_owned: f64,
    nnz: f64,
    /// Stored entries in rows that reference ghost columns — the part of
    /// the SpMV that must wait for the halo under the overlapped schedule.
    boundary_nnz: f64,
}

fn space_info(layout: &BlockLayout, rank: usize, order: ElementOrder, ranks: usize) -> SpaceInfo {
    let q = order.q();
    let neighbors = layout.node_neighbors(rank, q);
    let (nx, ny, nz) = layout.cell_dims();
    let global = ((q * nx + 1) * (q * ny + 1) * (q * nz + 1)) as f64;
    let n_owned = global / ranks as f64;
    let stencil = profile::stencil_nnz_per_row(order);
    let nnz = n_owned * stencil;
    // One stencil layer of rows along each shared interface references
    // ghost columns; the interface node counts are exactly that layer.
    let shared: usize = neighbors.iter().map(|&(_, s)| s).sum();
    let boundary_nnz = (shared as f64 * stencil).min(nnz);
    SpaceInfo {
        neighbors,
        n_owned,
        nnz,
        boundary_nnz,
    }
}

/// The rank whose halo footprint is largest (ties to the lowest id).
fn critical_rank(layout: &BlockLayout, q: usize) -> usize {
    let mut best = (0usize, 0usize);
    for r in 0..layout.num_parts() {
        let total: usize = layout.node_neighbors(r, q).iter().map(|&(_, s)| s).sum();
        if total > best.1 {
            best = (r, total);
        }
    }
    best.0
}

/// A message list of the replay, priced once, with its payload bytes
/// summed in list order.
struct Exchange {
    msgs: PricedMsgs,
    bytes: f64,
}

/// A space as one replay exchanges over it: the closed-form sizes of the
/// critical rank's share, and its message lists priced once for the
/// replay's topology.
struct PricedSpace {
    n_owned: f64,
    nnz: f64,
    boundary_nnz: f64,
    /// A ghost update: every neighbour sends its shared values.
    halo: Exchange,
    /// Owner shipping of assembled matrix entries, 24 bytes per element
    /// node per shared interface node.
    ship_matrix: Exchange,
    /// Owner shipping of the assembled right-hand side (RD), 16 bytes per
    /// shared interface node.
    ship_rhs: Exchange,
}

/// Both spaces of a replay, priced.
struct PricedSpaces {
    cells: usize,
    n_axis: usize,
    q1: PricedSpace,
    q2: PricedSpace,
}

/// Prices the message lists of one space for the virtual rank `v`, which
/// replays `rank` placed on `topo`.
fn price_space(
    v: &VirtualRank,
    topo: &ClusterTopology,
    rank: usize,
    info: &SpaceInfo,
    order: ElementOrder,
) -> PricedSpace {
    let exchange = |bytes: &dyn Fn(usize, usize) -> f64| {
        let msgs: Vec<VirtualMsg> = info
            .neighbors
            .iter()
            .map(|&(peer, shared)| VirtualMsg {
                peer,
                bytes: bytes(peer, shared),
                same_node: topo.same_node(peer, rank),
                same_group: topo.same_group(peer, rank),
            })
            .collect();
        Exchange {
            bytes: msgs.iter().map(|m| m.bytes).sum::<f64>(),
            msgs: v.price(msgs),
        }
    };
    // Upper-coordinate neighbours ship `entry_bytes` per shared interface
    // node to this rank (the ownership rule hands interfaces to the lower
    // block); the others send 64 bytes.
    let ship = |entry_bytes: f64| {
        exchange(&|peer, shared| {
            if peer > rank {
                shared as f64 * entry_bytes
            } else {
                64.0
            }
        })
    };
    PricedSpace {
        n_owned: info.n_owned,
        nnz: info.nnz,
        boundary_nnz: info.boundary_nnz,
        halo: exchange(&|_, shared| shared as f64 * 8.0),
        ship_matrix: ship(24.0 * order.nodes_per_element() as f64),
        ship_rhs: ship(16.0),
    }
}

/// The replay context: a virtual rank plus its traffic count.
struct Replay {
    v: VirtualRank,
    size: usize,
    /// Total bytes this rank received (proxy for fabric traffic).
    recv_bytes: f64,
}

impl Replay {
    /// A blocking exchange of one priced list.
    fn exchange(&mut self, x: &Exchange) {
        self.recv_bytes += x.bytes;
        self.v.halo_exchange(&x.msgs);
    }

    /// A ghost update on a space.
    fn halo(&mut self, space: &PricedSpace) {
        self.exchange(&space.halo);
    }

    fn allreduce(&mut self, n: usize) {
        self.v.allreduce(n);
        if self.size > 1 {
            self.recv_bytes += 8.0 * n as f64 * 2.0;
        }
    }

    fn axpy(&mut self, n: f64) {
        self.v.compute(Work::new(2.0 * n, 24.0 * n));
    }

    fn spmv(&mut self, info: &PricedSpace) {
        self.halo(info);
        self.v.compute(Work::new(2.0 * info.nnz, 20.0 * info.nnz));
    }

    /// An overlapped SpMV: the halo transfer progresses while the interior
    /// rows compute; only the boundary rows serialize behind the wait.
    fn spmv_overlapped(&mut self, info: &PricedSpace) {
        self.recv_bytes += info.halo.bytes;
        let interior = info.nnz - info.boundary_nnz;
        self.v
            .halo_exchange_overlapped(&info.halo.msgs, Work::new(2.0 * interior, 20.0 * interior));
        self.v
            .compute(Work::new(2.0 * info.boundary_nnz, 20.0 * info.boundary_nnz));
    }

    fn sweep(&mut self, nnz: f64) {
        self.v.compute(Work::new(2.0 * nnz, 20.0 * nnz));
    }
}

/// Replays a preconditioned CG solve (initial residual plus `iters`
/// iterations) under the given communication schedule, mirroring the
/// per-iteration collective sequence of `hetero_linalg::solver::cg` /
/// `cg_pipelined`.
fn replay_cg(r: &mut Replay, info: &PricedSpace, iters: usize, variant: SolverVariant) {
    match variant {
        SolverVariant::Blocking => {
            // Initial residual: spmv + norm + precond + dot.
            r.spmv(info);
            r.allreduce(1);
            r.sweep(info.nnz);
            r.allreduce(1);
            for _ in 0..iters {
                r.spmv(info);
                r.allreduce(1); // dot(p, q)
                r.axpy(2.0 * info.n_owned);
                r.allreduce(1); // norm(r)
                r.sweep(info.nnz); // precond apply
                r.allreduce(1); // dot(r, z)
                r.axpy(info.n_owned);
            }
        }
        SolverVariant::Overlapped => {
            r.spmv_overlapped(info);
            r.allreduce(1);
            r.sweep(info.nnz);
            r.allreduce(1);
            for _ in 0..iters {
                r.spmv_overlapped(info);
                r.allreduce(1); // dot(p, q)
                r.axpy(2.0 * info.n_owned);
                r.sweep(info.nnz); // precond apply (before the check)
                r.allreduce(2); // fused [||r||^2, (r, z)]
                r.axpy(info.n_owned);
            }
        }
        SolverVariant::Pipelined => {
            // Setup: residual + preconditioned direction + fused triple.
            r.spmv_overlapped(info);
            r.sweep(info.nnz);
            r.spmv_overlapped(info);
            r.allreduce(3);
            for _ in 0..iters {
                r.sweep(info.nnz); // m = M w
                r.spmv_overlapped(info); // n = A m
                r.axpy(8.0 * info.n_owned); // 4 xpby + 4 axpy recurrences
                r.allreduce(3); // the single fused reduction
            }
        }
    }
}

/// Replays one RD time step; returns its phase times.
fn rd_step(r: &mut Replay, s: &PricedSpaces, cfg: &RdConfig) -> PhaseTimes {
    let order = cfg.order;
    let info = if order == ElementOrder::Q2 {
        &s.q2
    } else {
        &s.q1
    };
    let cells = s.cells as f64;
    let start = r.v.clock();

    // Assembly (ii): operator, history term, source, Dirichlet.
    r.v.compute(profile::assembly_matrix_work(order, order, 2) * cells);
    r.exchange(&info.ship_matrix);
    r.axpy(2.0 * info.n_owned); // history combination
    r.spmv(info); // mass * history
    r.v.compute(profile::assembly_vector_work(order) * cells);
    r.exchange(&info.ship_rhs);
    r.axpy(info.n_owned); // b += source
    r.v.compute(Work::new(2.0 * info.nnz, 40.0 * info.nnz)); // constrain
    let t_assembly = r.v.clock();

    // Preconditioner (iiia): ILU(0) factorization (the paper-scenario
    // default) — see `App::paper_rd`.
    r.v.compute(Work::new(5.0 * info.nnz + info.n_owned, 24.0 * info.nnz));
    let t_precond = r.v.clock();

    // Solve (iiib): CG under the configured communication schedule.
    let iters = profile::rd_cg_iters(s.n_axis);
    replay_cg(r, info, iters, cfg.solve.variant);
    let t_solve = r.v.clock();

    // History rotation ghosts.
    r.halo(info);
    let end = r.v.clock();

    PhaseTimes {
        assembly: t_assembly - start,
        precond: t_precond - t_assembly,
        solve: t_solve - t_precond,
        total: end - start,
    }
}

/// Replays one NS time step.
fn ns_step(r: &mut Replay, s: &PricedSpaces, cfg: &NsConfig) -> PhaseTimes {
    let v_info = &s.q2;
    let p_info = &s.q1;
    let cells = s.cells as f64;
    // Velocity-row x pressure-column gradient blocks: ~12 stored pressure
    // couplings per velocity row.
    let nnz_grad = v_info.n_owned * 12.0;
    let start = r.v.clock();

    // Assembly: extrapolation, momentum operator (mass+stiffness+convection),
    // pressure Laplacian, three right-hand sides, multi-component Dirichlet.
    r.axpy(3.0 * v_info.n_owned); // w extrapolation (3 components)
                                  // 8 operator terms: the monolithic vector-system assembly cost charged
                                  // by `hetero_fem::ns` (must stay in lockstep with it).
    r.v.compute(profile::assembly_matrix_work(ElementOrder::Q2, ElementOrder::Q2, 8) * cells);
    r.exchange(&v_info.ship_matrix);
    r.v.compute(profile::assembly_matrix_work(ElementOrder::Q1, ElementOrder::Q1, 1) * cells);
    r.exchange(&p_info.ship_matrix);
    for _ in 0..3 {
        r.axpy(2.0 * v_info.n_owned); // history combination
        r.spmv(v_info); // mass * history
                        // grad * pressure: pressure-space halo + rectangular spmv.
        r.halo(p_info);
        r.v.compute(Work::new(2.0 * nnz_grad, 20.0 * nnz_grad));
        r.axpy(v_info.n_owned);
    }
    r.v.compute(Work::new(4.0 * v_info.nnz, 80.0 * v_info.nnz)); // constrain x3
    let t_assembly = r.v.clock();

    // Preconditioners: Jacobi on the momentum block, ILU(0) on the
    // pressure Poisson.
    r.v.compute(Work::new(v_info.n_owned, 16.0 * v_info.n_owned));
    r.v.compute(Work::new(
        5.0 * p_info.nnz + p_info.n_owned,
        24.0 * p_info.nnz,
    ));
    let t_precond = r.v.clock();

    // Solve: 3 x BiCGStab (2 SpMV per iteration) + pressure CG + projection.
    let vel_overlapped = cfg.solve_vel.variant != SolverVariant::Blocking;
    let vel_iters = profile::ns_velocity_iters(s.n_axis);
    for _ in 0..3 {
        if vel_overlapped {
            r.spmv_overlapped(v_info); // initial residual
        } else {
            r.spmv(v_info);
        }
        r.allreduce(1);
        for _ in 0..vel_iters {
            for _ in 0..2 {
                if vel_overlapped {
                    r.spmv_overlapped(v_info);
                } else {
                    r.spmv(v_info);
                }
                r.axpy(v_info.n_owned); // Jacobi apply
            }
            if vel_overlapped {
                // rho and rhv stay scalar; (t,t)/(t,s) ride one fused pair.
                for _ in 0..2 {
                    r.allreduce(1);
                }
                r.allreduce(2);
            } else {
                for _ in 0..4 {
                    r.allreduce(1);
                }
            }
            r.axpy(6.0 * v_info.n_owned);
        }
    }
    // Pressure right-hand side: 3 divergence SpMVs over the velocity halo.
    for _ in 0..3 {
        r.halo(v_info);
        r.v.compute(Work::new(2.0 * nnz_grad, 20.0 * nnz_grad));
        r.axpy(p_info.n_owned);
    }
    let p_iters = profile::ns_pressure_iters(s.n_axis);
    match cfg.solve_p.variant {
        SolverVariant::Blocking => {
            r.spmv(p_info);
            r.allreduce(1);
            for _ in 0..p_iters {
                r.spmv(p_info);
                r.allreduce(1);
                r.axpy(2.0 * p_info.n_owned);
                r.allreduce(1);
                r.sweep(p_info.nnz);
                r.allreduce(1);
                r.axpy(p_info.n_owned);
            }
        }
        variant => replay_cg(r, p_info, p_iters, variant),
    }
    // Correction: 3 gradient SpMVs + lumped update; ghost refreshes.
    for _ in 0..3 {
        r.halo(p_info);
        r.v.compute(Work::new(2.0 * nnz_grad, 20.0 * nnz_grad));
        r.axpy(3.0 * v_info.n_owned);
        r.halo(v_info);
    }
    r.halo(p_info);
    let t_solve = r.v.clock();

    PhaseTimes {
        assembly: t_assembly - start,
        precond: t_precond - t_assembly,
        solve: t_solve - t_precond,
        total: t_solve - start,
    }
}

/// The weak-scaling sizing of [`run_modeled`] as `(factors, cells)`, with
/// `cells = near_cubic_factors(ranks) * per_rank_axis` per axis — the one
/// place the harness forms that product.
pub(crate) fn weak_scaling_grid(
    ranks: usize,
    per_rank_axis: usize,
) -> ((usize, usize, usize), (usize, usize, usize)) {
    let f = hetero_partition::block::near_cubic_factors(ranks);
    (
        f,
        (
            f.0 * per_rank_axis,
            f.1 * per_rank_axis,
            f.2 * per_rank_axis,
        ),
    )
}

/// The platform-independent setup of a modeled run: the block layout's
/// critical rank and its closed-form space views. A pure function of
/// `(ranks, cells, primary element order)` — platform, seed, solver
/// variant, and every host-only knob are irrelevant — so one prep serves
/// every instance of a sweep that shares the mesh and rank count.
pub(crate) struct ModeledPrep {
    ranks: usize,
    q: usize,
    rank: usize,
    spaces: Spaces,
}

impl ModeledPrep {
    /// Critical rank + its space views for a `(ranks, cells, q)` partition;
    /// `q` is the primary element order's degree
    /// (`app.primary_order().q()`).
    pub(crate) fn new(ranks: usize, cells: (usize, usize, usize), q: usize) -> Self {
        // Panics when an axis has more blocks than cells.
        let layout = BlockLayout::new(cells, hetero_partition::block::near_cubic_factors(ranks));
        let rank = critical_rank(&layout, q);
        let spaces = Spaces {
            cells: layout.cells_in_rank(rank),
            q1: space_info(&layout, rank, ElementOrder::Q1, ranks),
            q2: space_info(&layout, rank, ElementOrder::Q2, ranks),
            n_axis: cells.0.max(cells.1).max(cells.2),
        };
        ModeledPrep {
            ranks,
            q,
            rank,
            spaces,
        }
    }
}

/// Runs the modeled engine under the paper's weak-scaling sizing:
/// `per_rank_axis` is the paper's `m` (20), so the global mesh has
/// `m^3 * ranks` cells arranged by near-cubic factorization.
pub fn run_modeled(
    app: &App,
    ranks: usize,
    per_rank_axis: usize,
    topo: &ClusterTopology,
    net: &NetworkModel,
    compute: ComputeModel,
    seed: u64,
) -> ModeledRun {
    let cells = weak_scaling_grid(ranks, per_rank_axis).1;
    run_modeled_sized(app, ranks, cells, topo, net, compute, seed)
}

/// Runs the modeled engine on an explicit global mesh — used for strong
/// scaling, where the mesh stays fixed while ranks grow.
///
/// `topo` must have block placement compatible with `ranks`.
pub fn run_modeled_sized(
    app: &App,
    ranks: usize,
    cells: (usize, usize, usize),
    topo: &ClusterTopology,
    net: &NetworkModel,
    compute: ComputeModel,
    seed: u64,
) -> ModeledRun {
    let prep = ModeledPrep::new(ranks, cells, app.primary_order().q());
    run_modeled_prepared(app, &prep, topo, net, compute, seed)
}

/// The replay itself — the only part of a modeled run that touches
/// platform, seed, or solver knobs — on a setup built once per scenario.
/// `prep` must have been built for `app`'s primary element order; core
/// guarantees it by keying scenarios on the discretization.
pub(crate) fn run_modeled_prepared(
    app: &App,
    prep: &ModeledPrep,
    topo: &ClusterTopology,
    net: &NetworkModel,
    compute: ComputeModel,
    seed: u64,
) -> ModeledRun {
    debug_assert_eq!(prep.q, app.primary_order().q());
    let (ranks, rank, spaces) = (prep.ranks, prep.rank, &prep.spaces);
    let env = VirtualEnv {
        net: net.clone(),
        compute,
        nic_sharers: topo.cores_per_node().min(ranks),
        nodes_active: topo.nodes_for_ranks(ranks),
        size: ranks,
        rank,
        seed,
    };
    let v = VirtualRank::new(env);
    let spaces = PricedSpaces {
        cells: spaces.cells,
        n_axis: spaces.n_axis,
        q1: price_space(&v, topo, rank, &spaces.q1, ElementOrder::Q1),
        q2: price_space(&v, topo, rank, &spaces.q2, ElementOrder::Q2),
    };
    let mut replay = Replay {
        v,
        size: ranks,
        recv_bytes: 0.0,
    };

    let steps = app.steps();
    let mut iterations = Vec::with_capacity(steps);
    let mut bytes_first_iter = 0.0;
    for i in 0..steps {
        let before = replay.recv_bytes;
        let times = match app {
            App::Rd(cfg) => rd_step(&mut replay, &spaces, cfg),
            App::Ns(cfg) => ns_step(&mut replay, &spaces, cfg),
        };
        if i == 0 {
            bytes_first_iter = replay.recv_bytes - before;
        }
        iterations.push(times);
    }

    let krylov_iters = match app {
        App::Rd(_) => profile::rd_cg_iters(spaces.n_axis),
        App::Ns(_) => {
            3 * profile::ns_velocity_iters(spaces.n_axis)
                + profile::ns_pressure_iters(spaces.n_axis)
        }
    };

    ModeledRun {
        iterations,
        // The critical rank's received bytes scaled to all ranks.
        bytes_per_iteration: bytes_first_iter * ranks as f64,
        krylov_iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_platform::catalog;
    use hetero_platform::spot::{acquire_fleet, FleetStrategy};

    fn run_on(platform: &hetero_platform::PlatformSpec, app: &App, ranks: usize) -> ModeledRun {
        let topo = platform.topology(ranks);
        run_modeled(
            app,
            ranks,
            20,
            &topo,
            &platform.network,
            platform.compute,
            42,
        )
    }

    #[test]
    fn phases_are_positive() {
        let r = run_on(&catalog::ec2(), &App::paper_rd(3), 64);
        assert_eq!(r.iterations.len(), 3);
        for it in &r.iterations {
            assert!(it.assembly > 0.0 && it.precond > 0.0 && it.solve > 0.0);
            assert!(it.total >= it.assembly + it.precond + it.solve - 1e-12);
        }
        assert!(r.bytes_per_iteration > 0.0);
    }

    #[test]
    fn ns_costs_more_than_rd() {
        let rd = run_on(&catalog::ec2(), &App::paper_rd(1), 27);
        let ns = run_on(&catalog::ec2(), &App::paper_ns(1), 27);
        assert!(ns.iterations[0].total > 2.0 * rd.iterations[0].total);
    }

    #[test]
    fn infiniband_scales_better_than_ethernet() {
        let t = |p: &hetero_platform::PlatformSpec, ranks: usize| {
            run_on(p, &App::paper_rd(1), ranks).iterations[0].total
        };
        let puma_growth = t(&catalog::puma(), 125) / t(&catalog::puma(), 8);
        let lagrange_growth = t(&catalog::lagrange(), 125) / t(&catalog::lagrange(), 8);
        assert!(
            lagrange_growth < puma_growth,
            "lagrange {lagrange_growth} vs puma {puma_growth}"
        );
    }

    #[test]
    fn single_rank_has_no_communication() {
        let r = run_on(&catalog::ec2(), &App::paper_rd(2), 1);
        assert_eq!(r.bytes_per_iteration, 0.0);
        assert!(r.iterations[0].total > 0.0);
    }

    #[test]
    fn thousand_ranks_run_fast_in_model() {
        // The whole point of the modeled engine: paper-scale in milliseconds.
        let r = run_on(&catalog::ec2(), &App::paper_rd(2), 1000);
        assert!(r.iterations[0].total > 0.0);
    }

    #[test]
    fn a_one_step_probe_carries_the_full_runs_traffic() {
        // Bytes per iteration depend on the neighbour lists and the app
        // only: not on the steps, the topology, or the seed.
        let ec2 = catalog::ec2();
        let ranks = 64;
        let on_demand = ec2.topology(ranks);
        let strategy = FleetStrategy::SpotMix {
            groups: 4,
            max_bid: 1.0,
        };
        for app in [App::paper_rd(3), App::paper_ns(2)] {
            let bytes = |app: &App, topo: &ClusterTopology, seed: u64| {
                let run = run_modeled(app, ranks, 20, topo, &ec2.network, ec2.compute, seed);
                run.bytes_per_iteration
            };
            let probe = bytes(&app.with_steps(1), &on_demand, 2012);
            assert!(probe > 0.0);
            for seed in [2012, 7919] {
                let fleet = acquire_fleet(on_demand.num_nodes(), strategy, 2.4, seed)
                    .topology(ec2.cores_per_node);
                for topo in [&on_demand, &fleet] {
                    for steps in [1, app.steps()] {
                        let got = bytes(&app.with_steps(steps), topo, seed);
                        assert_eq!(got.to_bits(), probe.to_bits(), "{} seed {seed}", app.name());
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = run_on(&catalog::ec2(), &App::paper_rd(2), 64);
        let b = run_on(&catalog::ec2(), &App::paper_rd(2), 64);
        assert_eq!(a.iterations[1], b.iterations[1]);
    }
}
