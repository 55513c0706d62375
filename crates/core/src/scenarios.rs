//! Canned reproductions of every table and figure in the paper's
//! evaluation.

use crate::apps::App;
use crate::recovery::{execute_resilient, ResilienceSpec};
use crate::run::{execute, Fidelity, RunOutcome, RunRequest};
use hetero_fault::ResiliencePolicy;
use hetero_linalg::SolverVariant;
use hetero_platform::limits::LimitViolation;
use hetero_platform::provision::{environment_of, plan, ProvisionPlan};
use hetero_platform::spot::{acquire_fleet, FleetAllocation, FleetStrategy};
use hetero_platform::{catalog, PlatformSpec};
use hetero_simmpi::ClusterTopology;
use hetero_trace::TraceSpec;
use serde::{Deserialize, Serialize};

/// Shared knobs for the scenario sweeps.
#[derive(Debug, Clone)]
pub struct ScenarioOptions {
    /// Cells per axis per rank (the paper's 20).
    pub per_rank_axis: usize,
    /// Largest `k` of the `k^3`-rank ladder (the paper's 10).
    pub max_k: usize,
    /// Time steps simulated per run.
    pub steps: usize,
    /// Warm-up iterations discarded (the paper's 5).
    pub discard: usize,
    /// Engine selection.
    pub fidelity: Fidelity,
    /// Experiment seed.
    pub seed: u64,
    /// Structured-event tracing for every weak-scaling cell (`None`
    /// records nothing). Benches use this to emit trace artifacts
    /// alongside the snapshots.
    pub trace: Option<TraceSpec>,
}

impl ScenarioOptions {
    /// The paper's configuration: `20^3` cells/rank, ranks `1..=1000`,
    /// 5 discarded + 3 measured iterations, modeled engine.
    pub fn paper() -> Self {
        ScenarioOptions {
            per_rank_axis: 20,
            max_k: 10,
            steps: 8,
            discard: 5,
            fidelity: Fidelity::Modeled,
            seed: 2012,
            trace: None,
        }
    }

    /// A cheap configuration for tests: tiny meshes, numerical engine where
    /// affordable.
    pub fn smoke() -> Self {
        ScenarioOptions {
            per_rank_axis: 3,
            max_k: 2,
            steps: 3,
            discard: 1,
            fidelity: Fidelity::Auto,
            seed: 2012,
            trace: None,
        }
    }

    /// The rank ladder `k^3`.
    pub fn ladder(&self) -> Vec<usize> {
        (1..=self.max_k).map(|k| k * k * k).collect()
    }

    /// The run request of one sweep cell: this sweep's mesh size, seed,
    /// discard, and engine selection over [`RunRequest::new`]'s platform
    /// defaults. Untraced — [`ScenarioOptions::trace`] applies to the
    /// weak-scaling cells only, which set it themselves.
    pub fn request(&self, platform: &PlatformSpec, app: App, ranks: usize) -> RunRequest {
        RunRequest {
            seed: self.seed,
            discard: self.discard,
            fidelity: self.fidelity,
            ..RunRequest::new(platform.clone(), app, ranks, self.per_rank_axis)
        }
    }
}

/// One platform's cell in a weak-scaling table: an outcome or the limit
/// that prevented the run (the paper's truncated curves).
pub type Cell = Result<RunOutcome, LimitViolation>;

/// One rung of a weak-scaling figure.
#[derive(Debug)]
pub struct WeakScalingRow {
    /// Rank count.
    pub ranks: usize,
    /// Per-platform outcome, ordered as [`catalog::all_platforms`].
    pub cells: Vec<(String, Cell)>,
}

/// A full weak-scaling figure (Figure 4 or 5).
#[derive(Debug)]
pub struct WeakScalingTable {
    /// "RD" or "NS".
    pub app: &'static str,
    /// One row per rank count.
    pub rows: Vec<WeakScalingRow>,
}

impl WeakScalingTable {
    /// The outcome for (ranks, platform), if the run was feasible.
    pub fn outcome(&self, ranks: usize, platform: &str) -> Option<&RunOutcome> {
        self.rows
            .iter()
            .find(|r| r.ranks == ranks)?
            .cells
            .iter()
            .find(|(p, _)| p == platform)?
            .1
            .as_ref()
            .ok()
    }

    /// Largest feasible rank count for a platform.
    pub fn max_feasible_ranks(&self, platform: &str) -> usize {
        self.rows
            .iter()
            .filter(|r| r.cells.iter().any(|(p, c)| p == platform && c.is_ok()))
            .map(|r| r.ranks)
            .max()
            .unwrap_or(0)
    }
}

fn weak_scaling(app_for: impl Fn(usize) -> App, opts: &ScenarioOptions) -> WeakScalingTable {
    let platforms = catalog::all_platforms();
    let mut rows = Vec::new();
    let mut app_name = "RD";
    for ranks in opts.ladder() {
        let mut cells = Vec::new();
        for platform in &platforms {
            let app = app_for(opts.steps);
            app_name = match &app {
                App::Rd(_) => "RD",
                App::Ns(_) => "NS",
            };
            let req = RunRequest {
                trace: opts.trace,
                ..opts.request(platform, app, ranks)
            };
            cells.push((platform.key.clone(), execute(&req)));
        }
        rows.push(WeakScalingRow { ranks, cells });
    }
    WeakScalingTable {
        app: app_name,
        rows,
    }
}

/// **Figure 4**: weak scaling of the RD application on the four platforms.
pub fn fig4(opts: &ScenarioOptions) -> WeakScalingTable {
    weak_scaling(App::paper_rd, opts)
}

/// **Figure 5**: weak scaling of the Navier–Stokes application.
pub fn fig5(opts: &ScenarioOptions) -> WeakScalingTable {
    weak_scaling(App::paper_ns, opts)
}

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// MPI ranks.
    pub ranks: usize,
    /// cc2.8xlarge instances.
    pub nodes: usize,
    /// Per-iteration time, full-price single placement group.
    pub full_time: f64,
    /// Real cost per iteration of the full configuration.
    pub full_cost: f64,
    /// Per-iteration time, spot/on-demand mix over four placement groups.
    pub mix_time: f64,
    /// Estimated (all-spot-rate) cost per iteration of the mix.
    pub mix_est_cost: f64,
    /// Spot instances actually obtained for the mix fleet.
    pub mix_spot_nodes: usize,
}

/// **Table II**: EC2 full vs mix assemblies for the RD application.
pub fn table2(opts: &ScenarioOptions) -> Vec<Table2Row> {
    let ec2 = catalog::ec2();
    let mut rows = Vec::new();
    for ranks in opts.ladder() {
        let nodes = ec2.nodes_for(ranks);
        let base = opts.request(&ec2, App::paper_rd(opts.steps), ranks);
        let full = execute(&base).expect("EC2 runs the whole ladder");

        let fleet = acquire_fleet(
            nodes,
            FleetStrategy::SpotMix {
                groups: 4,
                max_bid: 1.0,
            },
            2.40,
            opts.seed,
        );
        let mix_req = RunRequest {
            topology_override: Some(fleet.topology(16)),
            cost_override: Some(catalog::ec2_spot_cost()),
            ..base
        };
        let mix = execute(&mix_req).expect("EC2 mix runs the whole ladder");

        rows.push(Table2Row {
            ranks,
            nodes,
            full_time: full.phases.total,
            full_cost: full.cost_per_iteration,
            mix_time: mix.phases.total,
            mix_est_cost: mix.cost_per_iteration,
            mix_spot_nodes: fleet.spot_count(),
        });
    }
    rows
}

/// One platform's cost curve for Figures 6/7.
#[derive(Debug, Clone)]
pub struct CostCurve {
    /// Curve label ("puma", ..., "ec2 mix").
    pub label: String,
    /// `(ranks, dollars per iteration)`; infeasible sizes omitted.
    pub points: Vec<(usize, f64)>,
}

/// Builds the per-iteration cost figures from a weak-scaling table,
/// appending the "ec2 mix" cost-aware curve (real mixed-fleet prices, which
/// converge toward the full-price curve once spot capacity runs out — the
/// paper's observation).
fn cost_curves(table: &WeakScalingTable, opts: &ScenarioOptions) -> Vec<CostCurve> {
    let mut curves: Vec<CostCurve> = Vec::new();
    for platform in catalog::all_platforms() {
        let mut points = Vec::new();
        for row in &table.rows {
            if let Some(out) = table.outcome(row.ranks, &platform.key) {
                points.push((row.ranks, out.cost_per_iteration));
            }
        }
        curves.push(CostCurve {
            label: platform.key.clone(),
            points,
        });
    }
    // ec2 mix: the same times priced at the actually-acquired fleet mix.
    let ec2 = catalog::ec2();
    let mut points = Vec::new();
    for row in &table.rows {
        if let Some(out) = table.outcome(row.ranks, "ec2") {
            let fleet: FleetAllocation = acquire_fleet(
                ec2.nodes_for(row.ranks),
                FleetStrategy::SpotMix {
                    groups: 4,
                    max_bid: 1.0,
                },
                2.40,
                opts.seed,
            );
            points.push((row.ranks, fleet.cost(out.phases.total)));
        }
    }
    curves.push(CostCurve {
        label: "ec2 mix".into(),
        points,
    });
    curves
}

/// **Figure 6**: per-iteration cost of the RD weak-scaling runs.
pub fn fig6(opts: &ScenarioOptions) -> (WeakScalingTable, Vec<CostCurve>) {
    let table = fig4(opts);
    let curves = cost_curves(&table, opts);
    (table, curves)
}

/// **Figure 7**: per-iteration cost of the NS weak-scaling runs.
pub fn fig7(opts: &ScenarioOptions) -> (WeakScalingTable, Vec<CostCurve>) {
    let table = fig5(opts);
    let curves = cost_curves(&table, opts);
    (table, curves)
}

/// One rung of a strong-scaling study (an *extension* beyond the paper's
/// weak-scaling-only evaluation).
#[derive(Debug, Clone)]
pub struct StrongScalingPoint {
    /// Rank count.
    pub ranks: usize,
    /// Per-iteration phase times.
    pub phases: hetero_fem::phase::PhaseTimes,
    /// `t(1) / t(p)`.
    pub speedup: f64,
    /// `speedup / p`.
    pub efficiency: f64,
}

/// Strong scaling: a **fixed** `global_axis^3`-cell mesh solved with growing
/// rank counts on one platform (modeled engine). The paper only studies
/// weak scaling; this extension answers the complementary question its
/// Section VIII raises — how far extra cloud cores can push time-to-solution
/// for a fixed problem.
pub fn strong_scaling(
    platform: &PlatformSpec,
    app_for: impl Fn(usize) -> App,
    global_axis: usize,
    opts: &ScenarioOptions,
) -> Vec<StrongScalingPoint> {
    let mut out = Vec::new();
    let mut t1 = None;
    for ranks in opts.ladder() {
        if platform.check_limits(ranks, 0.0).is_err() {
            break; // capacity or launcher limit
        }
        let factors = hetero_partition::block::near_cubic_factors(ranks);
        if factors.2 > global_axis {
            break; // more rank columns than cells along an axis
        }
        let topo = platform.topology(ranks);
        let app = app_for(opts.steps);
        let run = crate::modeled::run_modeled_sized(
            &app,
            ranks,
            (global_axis, global_axis, global_axis),
            &topo,
            &platform.network,
            platform.compute,
            opts.seed,
        );
        if platform
            .check_limits(ranks, run.bytes_per_iteration)
            .is_err()
        {
            break; // adapter volume limit
        }
        let phases = crate::attempt::reduce(&run.iterations, opts.discard);
        let t1 = *t1.get_or_insert(phases.total);
        let speedup = t1 / phases.total;
        out.push(StrongScalingPoint {
            ranks,
            phases,
            speedup,
            efficiency: speedup / ranks as f64,
        });
    }
    out
}

/// **Table I** + Section VI: the capability matrix and per-platform
/// provisioning plans with effort totals.
pub struct Table1 {
    /// The four platform specs.
    pub platforms: Vec<PlatformSpec>,
    /// Provisioning plans, one per platform.
    pub plans: Vec<ProvisionPlan>,
}

/// Builds Table I's data.
pub fn table1() -> Table1 {
    let platforms = catalog::all_platforms();
    let plans = platforms
        .iter()
        .map(|p| plan(&environment_of(&p.key).expect("catalog platform")).expect("satisfiable"))
        .collect();
    Table1 { platforms, plans }
}

/// Knobs for the resilience sweep (the "Table III" the paper could not
/// produce: expected time and dollars of RD on EC2 spot-with-restart vs
/// on-demand, across checkpoint cadences).
#[derive(Debug, Clone)]
pub struct ResilienceOptions {
    /// Mesh size, rank ladder, step count, engine, and base seed.
    pub base: ScenarioOptions,
    /// Checkpoint cadences swept for the spot campaigns (`0` = never).
    pub cadences: Vec<usize>,
    /// Independent market/crash seeds averaged into each cell.
    pub seeds: usize,
    /// Restart budget per campaign.
    pub max_restarts: usize,
    /// Spot bid as a multiple of the spot base price.
    pub max_bid: f64,
}

impl ResilienceOptions {
    /// The full sweep: 600-step campaigns over the paper ladder, five
    /// cadences bracketing the Young/Daly optimum, eight seeds per cell.
    pub fn paper() -> Self {
        ResilienceOptions {
            base: ScenarioOptions {
                steps: 600,
                ..ScenarioOptions::paper()
            },
            cadences: vec![1, 4, 16, 64, 0],
            seeds: 8,
            max_restarts: 60,
            max_bid: 1.0,
        }
    }

    /// A cheap configuration for tests.
    pub fn smoke() -> Self {
        ResilienceOptions {
            base: ScenarioOptions {
                steps: 40,
                max_k: 2,
                fidelity: Fidelity::Modeled,
                ..ScenarioOptions::paper()
            },
            cadences: vec![1, 8, 0],
            seeds: 2,
            max_restarts: 20,
            max_bid: 1.0,
        }
    }
}

/// One campaign configuration's expected outcome, averaged over the seeds.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Table3Cell {
    /// Mean campaign wall-clock (waits + backoff + all attempts), seconds.
    pub expected_seconds: f64,
    /// Mean campaign cost, dollars.
    pub expected_dollars: f64,
    /// Fraction of seeds whose campaign finished within the restart budget.
    pub completion_rate: f64,
    /// Mean attempts per campaign.
    pub mean_attempts: f64,
    /// Mean re-executed (rolled-back) seconds per campaign.
    pub mean_lost_work: f64,
    /// Mean checkpoint I/O seconds per campaign.
    pub mean_checkpoint_seconds: f64,
}

/// One rung of the resilience table.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// MPI ranks.
    pub ranks: usize,
    /// cc2.8xlarge instances.
    pub nodes: usize,
    /// The on-demand baseline (hardware crashes only, restart from scratch).
    pub on_demand: Table3Cell,
    /// Spot-with-restart cells, one per checkpoint cadence.
    pub spot: Vec<(usize, Table3Cell)>,
}

impl Table3Row {
    /// The swept cadence with the lowest expected dollars (completed
    /// campaigns preferred over cheap failures).
    pub fn best_cadence(&self) -> usize {
        let best_rate = self
            .spot
            .iter()
            .map(|(_, c)| c.completion_rate)
            .fold(0.0, f64::max);
        self.spot
            .iter()
            .filter(|(_, c)| c.completion_rate >= best_rate)
            .min_by(|(_, a), (_, b)| {
                a.expected_dollars
                    .partial_cmp(&b.expected_dollars)
                    .expect("expected dollars are finite")
            })
            .map(|&(cadence, _)| cadence)
            .expect("at least one cadence was swept")
    }
}

/// One seed-averaged campaign cell: `base` run through
/// [`execute_resilient`] under `spec` once per seed (seed `s` of the cell
/// is `base.seed + 7919 s`), the campaign statistics summed in seed order
/// and divided by the seed count. Table III and the plan executor's
/// campaign stages both call this, so they share one f64 accumulation
/// order.
pub fn campaign_cell(
    base: &RunRequest,
    spec: &ResilienceSpec,
    seeds: usize,
) -> Result<Table3Cell, LimitViolation> {
    let mut cell = Table3Cell::default();
    for s in 0..seeds {
        let req = RunRequest {
            seed: base.seed.wrapping_add(s as u64 * 7919),
            resilience: Some(spec.clone()),
            ..base.clone()
        };
        let out = execute_resilient(&req)?;
        cell.expected_seconds += out.stats.total_seconds;
        cell.expected_dollars += out.stats.total_dollars;
        cell.completion_rate += f64::from(out.stats.completed);
        cell.mean_attempts += out.stats.attempts as f64;
        cell.mean_lost_work += out.stats.lost_work_seconds;
        cell.mean_checkpoint_seconds += out.stats.checkpoint_seconds;
    }
    let n = seeds.max(1) as f64;
    cell.expected_seconds /= n;
    cell.expected_dollars /= n;
    cell.completion_rate /= n;
    cell.mean_attempts /= n;
    cell.mean_lost_work /= n;
    cell.mean_checkpoint_seconds /= n;
    Ok(cell)
}

/// **Table III** (extension): expected time/cost of the RD application on
/// EC2, on-demand vs spot-with-restart across checkpoint cadences.
pub fn table3(opts: &ResilienceOptions) -> Vec<Table3Row> {
    let ec2 = catalog::ec2();
    let mut rows = Vec::new();
    for ranks in opts.base.ladder() {
        let nodes = ec2.nodes_for(ranks);
        let base = opts
            .base
            .request(&ec2, App::paper_rd(opts.base.steps), ranks);
        // On-demand: only hardware crashes, no checkpoints (a crash restarts
        // the run from scratch, like the paper's unprotected LifeV jobs).
        let od_spec = ResilienceSpec {
            policy: ResiliencePolicy::restart(0, opts.max_restarts),
            ..ResilienceSpec::on_demand(&ec2)
        };
        let cell = |spec: &ResilienceSpec| {
            campaign_cell(&base, spec, opts.seeds).expect("the caller stays within EC2 limits")
        };
        let on_demand = cell(&od_spec);
        let spot = opts
            .cadences
            .iter()
            .map(|&cadence| {
                let spec = ResilienceSpec::spot_with_restart(
                    &ec2,
                    opts.max_bid,
                    cadence,
                    opts.max_restarts,
                );
                (cadence, cell(&spec))
            })
            .collect();
        rows.push(Table3Row {
            ranks,
            nodes,
            on_demand,
            spot,
        });
    }
    rows
}

/// The per-iteration phase times of one *what-if* cell: the application
/// driven through the modeled engine on an uncapped uniform topology —
/// enough nodes for the rank count even where the real platform tops out.
/// The question such a cell answers is what the platform's *interconnect*
/// would do, not whether its machine room has the nodes (capacity limits,
/// queue waits, and billing are all skipped).
pub fn uncapped_cell(
    platform: &PlatformSpec,
    app: &App,
    ranks: usize,
    opts: &ScenarioOptions,
) -> hetero_fem::phase::PhaseTimes {
    let topo = ClusterTopology::uniform(
        ranks.div_ceil(platform.cores_per_node),
        platform.cores_per_node,
    );
    let m = crate::modeled::run_modeled(
        app,
        ranks,
        opts.per_rank_axis,
        &topo,
        &platform.network,
        platform.compute,
        opts.seed,
    );
    crate::attempt::reduce(&m.iterations, opts.discard)
}

/// One row of the solver-schedule comparison table (the "Communication
/// overlap" extension): RD solve time per iteration for the blocking,
/// overlapped, and pipelined schedules on one platform at one rank count.
#[derive(Debug, Clone)]
pub struct SolverVariantRow {
    /// Platform key.
    pub platform: String,
    /// MPI ranks.
    pub ranks: usize,
    /// Solve seconds per iteration: `[blocking, overlapped, pipelined]`.
    pub times: [f64; 3],
}

/// The solver-schedule comparison behind EXPERIMENTS.md's "Communication
/// overlap" table: every catalog platform crossed with `ranks_list` and the
/// three solver schedules, each cell the solve-phase time of an
/// [`uncapped_cell`].
pub fn solver_variants(ranks_list: &[usize], opts: &ScenarioOptions) -> Vec<SolverVariantRow> {
    let variants = [
        SolverVariant::Blocking,
        SolverVariant::Overlapped,
        SolverVariant::Pipelined,
    ];
    let mut rows = Vec::new();
    for p in catalog::all_platforms() {
        for &ranks in ranks_list {
            let times = variants.map(|v| {
                let app = App::paper_rd(opts.steps).with_solver_variant(v);
                uncapped_cell(&p, &app, ranks, opts).solve
            });
            rows.push(SolverVariantRow {
                platform: p.key.clone(),
                ranks,
                times,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig4_truncates_where_the_paper_does() {
        // With max_k = 2 nothing truncates; use a modeled paper ladder.
        let opts = ScenarioOptions {
            steps: 2,
            discard: 0,
            ..ScenarioOptions::paper()
        };
        let t = fig4(&opts);
        assert_eq!(t.max_feasible_ranks("puma"), 125);
        assert_eq!(t.max_feasible_ranks("ellipse"), 512);
        assert_eq!(t.max_feasible_ranks("lagrange"), 343);
        assert_eq!(t.max_feasible_ranks("ec2"), 1000);
    }

    #[test]
    fn table2_shape_matches_the_paper() {
        let opts = ScenarioOptions {
            steps: 2,
            discard: 0,
            ..ScenarioOptions::paper()
        };
        let rows = table2(&opts);
        assert_eq!(rows.len(), 10);
        let nodes: Vec<usize> = rows.iter().map(|r| r.nodes).collect();
        assert_eq!(nodes, vec![1, 1, 2, 4, 8, 14, 22, 32, 46, 63]);
        for r in &rows {
            // Times statistically equal; est cost ~4.4x cheaper.
            let rel = (r.mix_time - r.full_time).abs() / r.full_time;
            assert!(
                rel < 0.25,
                "ranks {}: {} vs {}",
                r.ranks,
                r.full_time,
                r.mix_time
            );
            let ratio = r.full_cost / r.mix_est_cost * (r.mix_time / r.full_time);
            assert!(
                (3.5..=5.5).contains(&ratio),
                "ranks {}: cost ratio {ratio}",
                r.ranks
            );
        }
        // Large mixes never fill from spot alone.
        assert!(rows.last().unwrap().mix_spot_nodes < 63);
    }

    #[test]
    fn cost_curves_include_ec2_mix() {
        let opts = ScenarioOptions {
            steps: 2,
            discard: 0,
            max_k: 3,
            ..ScenarioOptions::paper()
        };
        let (_, curves) = fig6(&opts);
        let labels: Vec<&str> = curves.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["puma", "ellipse", "lagrange", "ec2", "ec2 mix"]
        );
        // Mix is never pricier than full ec2.
        let ec2 = &curves[3];
        let mix = &curves[4];
        for ((r1, full), (r2, m)) in ec2.points.iter().zip(&mix.points) {
            assert_eq!(r1, r2);
            assert!(m <= full, "ranks {r1}: mix {m} vs full {full}");
        }
    }

    #[test]
    fn strong_scaling_speeds_up_then_saturates() {
        use hetero_platform::catalog;
        let opts = ScenarioOptions {
            steps: 2,
            discard: 0,
            max_k: 8,
            ..ScenarioOptions::paper()
        };
        let points = strong_scaling(&catalog::lagrange(), App::paper_rd, 64, &opts);
        assert!(points.len() >= 4);
        assert_eq!(points[0].ranks, 1);
        assert!((points[0].efficiency - 1.0).abs() < 1e-12);
        // Speedup is real at small scale...
        assert!(
            points[1].speedup > 2.0,
            "speedup at 8 ranks: {}",
            points[1].speedup
        );
        // ...but efficiency decays monotonically-ish with rank count.
        assert!(points.last().unwrap().efficiency < points[1].efficiency);
        // On InfiniBand the mid-range stays efficient.
        let p64 = points.iter().find(|p| p.ranks == 64).unwrap();
        assert!(p64.efficiency > 0.5, "efficiency at 64: {}", p64.efficiency);
    }

    #[test]
    fn strong_scaling_is_worse_on_slow_fabrics() {
        use hetero_platform::catalog;
        let opts = ScenarioOptions {
            steps: 2,
            discard: 0,
            max_k: 5,
            ..ScenarioOptions::paper()
        };
        let ib = strong_scaling(&catalog::lagrange(), App::paper_rd, 40, &opts);
        let eth = strong_scaling(&catalog::ellipse(), App::paper_rd, 40, &opts);
        let eff = |pts: &[StrongScalingPoint], r: usize| {
            pts.iter().find(|p| p.ranks == r).unwrap().efficiency
        };
        assert!(
            eff(&ib, 64) > eff(&eth, 64),
            "ib {} vs eth {}",
            eff(&ib, 64),
            eff(&eth, 64)
        );
    }

    #[test]
    fn smoke_table3_prefers_spot_at_small_scale() {
        let opts = ResilienceOptions::smoke();
        let rows = table3(&opts);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.spot.len(), opts.cadences.len());
            assert!(row.on_demand.completion_rate > 0.0);
            // Small fleets fill from spot capacity and revocations are rare
            // price spikes: protected spot is cheaper in expectation.
            let best = row
                .spot
                .iter()
                .find(|&&(c, _)| c == row.best_cadence())
                .unwrap();
            assert!(
                best.1.expected_dollars < row.on_demand.expected_dollars,
                "ranks {}: spot {} vs od {}",
                row.ranks,
                best.1.expected_dollars,
                row.on_demand.expected_dollars
            );
        }
    }

    #[test]
    fn table3_is_deterministic() {
        let opts = ResilienceOptions {
            base: ScenarioOptions {
                max_k: 1,
                ..ResilienceOptions::smoke().base
            },
            seeds: 1,
            ..ResilienceOptions::smoke()
        };
        let a = table3(&opts);
        let b = table3(&opts);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn table1_covers_all_platforms() {
        let t = table1();
        assert_eq!(t.platforms.len(), 4);
        assert_eq!(t.plans.len(), 4);
        assert_eq!(t.plans[0].total_hours(), 0.0); // puma
        assert!(t.plans[3].total_hours() > t.plans[1].total_hours()); // ec2 > ellipse
    }
}
