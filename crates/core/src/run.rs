//! The unified run executor: one request, either engine, one outcome shape.

use crate::apps::App;
use crate::modeled::run_modeled_prepared;
use crate::prep::{PreparedScenario, RankPreps};
use crate::recovery::ResilienceSpec;
use hetero_fem::ns::{solve_ns_prepared, NsPrep};
use hetero_fem::phase::{summarize, PhaseTimes};
use hetero_fem::rd::{solve_rd_prepared, RdPrep};
use hetero_linalg::{KernelBackend, SolverVariant};
use hetero_mesh::{DistributedMesh, StructuredHexMesh};
use hetero_partition::block::near_cubic_factors;
use hetero_partition::BlockLayout;
use hetero_platform::limits::LimitViolation;
use hetero_platform::{CostModel, PlatformSpec};
use hetero_simmpi::{
    run_spmd_opts, ClusterTopology, EngineKind, EngineOpts, FaultPlan, SpmdConfig,
};
use hetero_trace::{EventKind, Phase as TracePhase, Trace, TraceEvent, TraceSpec};
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// Which engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fidelity {
    /// Real distributed numerics, one simulated rank per coroutine on the
    /// cooperative scheduler by default (see [`RunRequest::engine`]);
    /// verifiable against the exact solution.
    Numerical,
    /// Analytic replay (paper scale).
    Modeled,
    /// Numerical when affordable, modeled otherwise.
    Auto,
}

/// Auto switches to the modeled engine above this rank count...
pub const AUTO_MAX_NUMERICAL_RANKS: usize = 27;
/// ...or above this per-rank mesh edge.
pub const AUTO_MAX_NUMERICAL_AXIS: usize = 5;

/// A run request: application x platform x size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRequest {
    /// Target platform.
    pub platform: PlatformSpec,
    /// Application and configuration.
    pub app: App,
    /// MPI ranks.
    pub ranks: usize,
    /// Cells per axis owned by each rank (the paper uses 20).
    pub per_rank_axis: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Warm-up iterations discarded from averages (the paper discards 5).
    pub discard: usize,
    /// Intra-rank threads for the numerical engine's kernels (assembly,
    /// SpMV, reductions, preconditioner sweeps). The fixed-chunk
    /// parallelism is bitwise deterministic, so the computed report is
    /// identical at any value; only host wall time changes.
    pub threads_per_rank: usize,
    /// SPMD engine for the numerical path: the M:N cooperative scheduler
    /// (the default) or the legacy one-OS-thread-per-rank engine kept for
    /// A/B pinning. The computed report is bitwise identical either way;
    /// only host resource usage differs.
    pub engine: EngineKind,
    /// Worker threads for the cooperative scheduler (`0` = auto-size from
    /// host parallelism). Ignored by the thread engine. Reports are bitwise
    /// identical at any pool size.
    pub sched_workers: usize,
    /// Engine selection.
    pub fidelity: Fidelity,
    /// Overrides the solver communication schedule of **every** Krylov
    /// solve in the app (see [`SolverVariant`]). `None` keeps whatever the
    /// app's own [`hetero_linalg::SolveOptions`] say — the default blocking
    /// schedule unless the config was built otherwise.
    pub solver_variant: Option<SolverVariant>,
    /// Overrides the per-step operator backend of **every** assembled
    /// system in the app (see [`KernelBackend`]). `None` keeps whatever the
    /// app's own [`hetero_linalg::SolveOptions`] say — the default
    /// assemble-from-scratch path unless the config was built otherwise.
    /// Both backends produce bitwise-identical reports; `MatrixFree`
    /// refreshes a retained operator in place and skips the per-step
    /// matrix construction on the host.
    pub kernel_backend: Option<KernelBackend>,
    /// Replaces the platform's default topology (placement-group fleets).
    pub topology_override: Option<ClusterTopology>,
    /// Replaces the platform's cost model (spot pricing).
    pub cost_override: Option<CostModel>,
    /// Fault processes and recovery policy — `None` runs failure-free.
    /// Consumed by [`crate::recovery::execute_resilient`]; the plain
    /// [`execute`] path ignores it.
    pub resilience: Option<ResilienceSpec>,
    /// Structured-event tracing — `None` (the default) records nothing and
    /// costs nothing. With a spec, the numerical engine records per-rank
    /// phase/collective/message events in virtual time, and the modeled
    /// engine synthesizes the equivalent phase spans; either way the
    /// outcome carries a [`Trace`] whose rollup matches `phases` bitwise.
    pub trace: Option<TraceSpec>,
}

impl RunRequest {
    /// A request with platform defaults and `Auto` fidelity.
    pub fn new(platform: PlatformSpec, app: App, ranks: usize, per_rank_axis: usize) -> Self {
        RunRequest {
            platform,
            app,
            ranks,
            per_rank_axis,
            seed: 2012,
            discard: 0,
            threads_per_rank: 1,
            engine: EngineKind::default(),
            sched_workers: 0,
            fidelity: Fidelity::Auto,
            solver_variant: None,
            kernel_backend: None,
            topology_override: None,
            cost_override: None,
            resilience: None,
            trace: None,
        }
    }

    /// The app with [`RunRequest::solver_variant`] and
    /// [`RunRequest::kernel_backend`] applied (identity when both are
    /// `None`).
    pub fn resolved_app(&self) -> App {
        let app = match self.solver_variant {
            Some(v) => self.app.with_solver_variant(v),
            None => self.app.clone(),
        };
        match self.kernel_backend {
            Some(b) => app.with_kernel_backend(b),
            None => app,
        }
    }
}

/// Numerical verification against the exact solution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Verification {
    /// Nodal max error.
    pub linf: f64,
    /// Discrete L2 error.
    pub l2: f64,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Platform key.
    pub platform: String,
    /// Application name ("RD"/"NS").
    pub app: &'static str,
    /// Ranks used.
    pub ranks: usize,
    /// Nodes occupied.
    pub nodes: usize,
    /// Engine actually used.
    pub fidelity: Fidelity,
    /// Per-iteration phase times (max over ranks, averaged after discard).
    pub phases: PhaseTimes,
    /// Dollars per iteration at the platform's (or overridden) rates.
    pub cost_per_iteration: f64,
    /// Simulated queue wait before the job starts.
    pub queue_wait_seconds: f64,
    /// Krylov iterations per time step (RD: CG; NS: momentum + pressure).
    pub krylov_iters: f64,
    /// Exact-solution errors (numerical engine only).
    pub verification: Option<Verification>,
    /// Aggregate fabric traffic per iteration (bytes, all ranks).
    pub bytes_per_iteration: f64,
    /// The structured event trace, when [`RunRequest::trace`] asked for
    /// one. Deterministic: a pure function of the request.
    pub trace: Option<Trace>,
}

// Hand-written because `app` is a `&'static str` (interned "RD"/"NS") and
// `trace` holds borrowed event labels that cannot round-trip through JSON.
// A trace is a deterministic replay artifact, not part of the measured
// report, so serialization always writes `trace: null` and deserialization
// restores `None`; callers that persist outcomes (the serve cache) must
// strip traces from the request first.
impl Serialize for RunOutcome {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("platform".to_string(), self.platform.serialize_value()),
            ("app".to_string(), Value::String(self.app.to_string())),
            ("ranks".to_string(), self.ranks.serialize_value()),
            ("nodes".to_string(), self.nodes.serialize_value()),
            ("fidelity".to_string(), self.fidelity.serialize_value()),
            ("phases".to_string(), self.phases.serialize_value()),
            (
                "cost_per_iteration".to_string(),
                self.cost_per_iteration.serialize_value(),
            ),
            (
                "queue_wait_seconds".to_string(),
                self.queue_wait_seconds.serialize_value(),
            ),
            (
                "krylov_iters".to_string(),
                self.krylov_iters.serialize_value(),
            ),
            (
                "verification".to_string(),
                self.verification.serialize_value(),
            ),
            (
                "bytes_per_iteration".to_string(),
                self.bytes_per_iteration.serialize_value(),
            ),
            ("trace".to_string(), Value::Null),
        ])
    }
}

impl Deserialize for RunOutcome {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        let app = match v.field("app").as_str() {
            Some("RD") => "RD",
            Some("NS") => "NS",
            other => {
                return Err(serde::Error::new(format!(
                    "unknown application name {other:?} (expected \"RD\" or \"NS\")"
                )))
            }
        };
        Ok(RunOutcome {
            platform: String::deserialize_value(v.field("platform"))?,
            app,
            ranks: usize::deserialize_value(v.field("ranks"))?,
            nodes: usize::deserialize_value(v.field("nodes"))?,
            fidelity: Fidelity::deserialize_value(v.field("fidelity"))?,
            phases: PhaseTimes::deserialize_value(v.field("phases"))?,
            cost_per_iteration: f64::deserialize_value(v.field("cost_per_iteration"))?,
            queue_wait_seconds: f64::deserialize_value(v.field("queue_wait_seconds"))?,
            krylov_iters: f64::deserialize_value(v.field("krylov_iters"))?,
            verification: Option::<Verification>::deserialize_value(v.field("verification"))?,
            bytes_per_iteration: f64::deserialize_value(v.field("bytes_per_iteration"))?,
            trace: None,
        })
    }
}

pub(crate) fn resolve_fidelity(req: &RunRequest) -> Fidelity {
    match req.fidelity {
        Fidelity::Auto => {
            if req.ranks <= AUTO_MAX_NUMERICAL_RANKS && req.per_rank_axis <= AUTO_MAX_NUMERICAL_AXIS
            {
                Fidelity::Numerical
            } else {
                Fidelity::Modeled
            }
        }
        f => f,
    }
}

/// Executes a run, enforcing the platform's limits first.
///
/// # Errors
/// Returns the paper's observed failure modes: capacity exhaustion (puma
/// above 125 of the ladder), launcher failure (ellipse above 512), adapter
/// volume cap (lagrange above 343).
pub fn execute(req: &RunRequest) -> Result<RunOutcome, LimitViolation> {
    execute_with_prep(req, None)
}

/// [`execute`] with an optional pinned [`PreparedScenario`]. With `None`
/// the process-wide scenario cache is consulted (a no-op while sharing is
/// disabled — see [`crate::prep`]); a pinned scenario whose sub-key does
/// not match `req` falls back to the cache. Reports are byte-identical to
/// the fresh-setup path either way.
pub fn execute_with_prep(
    req: &RunRequest,
    prep: Option<Arc<PreparedScenario>>,
) -> Result<RunOutcome, LimitViolation> {
    // Normalize the solver-variant and kernel-backend overrides into the
    // app config so both engines see them through the ordinary
    // SolveOptions path.
    let req = &RunRequest {
        app: req.resolved_app(),
        solver_variant: None,
        kernel_backend: None,
        ..req.clone()
    };
    let prep = crate::prep::resolve(req, prep);
    // Capacity and launcher limits are independent of traffic: check them
    // before even building the topology (an oversubscribed topology cannot
    // be constructed).
    req.platform.check_limits(req.ranks, 0.0)?;
    let topo = req
        .topology_override
        .clone()
        .unwrap_or_else(|| req.platform.topology(req.ranks));
    assert!(
        topo.total_cores() >= req.ranks,
        "override topology too small"
    );

    // Traffic estimate from a one-step modeled probe (cheap, closed form).
    let probe = run_modeled_prepared(
        &req.app.with_steps(1),
        req.ranks,
        req.per_rank_axis,
        &topo,
        &req.platform.network,
        req.platform.compute,
        req.seed,
        prep.as_deref().map(|p| p.modeled()),
    );
    req.platform
        .check_limits(req.ranks, probe.bytes_per_iteration)?;

    let fidelity = resolve_fidelity(req);
    let cost_model = req
        .cost_override
        .clone()
        .unwrap_or_else(|| req.platform.cost.clone());
    let nodes = topo.nodes_for_ranks(req.ranks);
    let queue_wait_seconds = req.platform.queue_wait(req.ranks, req.seed);

    let (phases, krylov_iters, verification, bytes_per_iteration, trace) = match fidelity {
        Fidelity::Numerical => run_numerical(req, topo, prep.as_deref())?,
        Fidelity::Modeled | Fidelity::Auto => {
            let m = run_modeled_prepared(
                &req.app,
                req.ranks,
                req.per_rank_axis,
                &topo,
                &req.platform.network,
                req.platform.compute,
                req.seed,
                prep.as_deref().map(|p| p.modeled()),
            );
            let phases = summarize(&m.iterations, req.discard)
                .expect("modeled run produced no measurable iterations");
            let trace = req.trace.map(|_| synthesize_phase_trace(&m.iterations));
            (
                phases,
                m.krylov_iters as f64,
                None,
                m.bytes_per_iteration,
                trace,
            )
        }
    };

    Ok(RunOutcome {
        platform: req.platform.key.clone(),
        app: match &req.app {
            App::Rd(_) => "RD",
            App::Ns(_) => "NS",
        },
        ranks: req.ranks,
        nodes,
        fidelity,
        phases,
        cost_per_iteration: cost_model.cost(req.ranks, phases.total),
        queue_wait_seconds,
        krylov_iters,
        verification,
        bytes_per_iteration,
        trace,
    })
}

/// The trace the modeled engine implies: rank-0 phase spans per step with
/// the exact per-step durations, laid out on a cumulative virtual clock.
/// Rolling the result up reproduces `summarize(&iterations, d)` bitwise —
/// one span per `(step, phase)`, critical-rank max over the single rank,
/// then the identical sum-and-scale.
pub(crate) fn synthesize_phase_trace(iterations: &[PhaseTimes]) -> Trace {
    let mut events = Vec::with_capacity(iterations.len() * 5);
    let mut seq = 0u64;
    let mut clock = 0.0f64;
    for (i, it) in iterations.iter().enumerate() {
        let step = (i + 1) as u32;
        let named = it.assembly + it.precond + it.solve;
        let mut at = clock;
        for (dur, phase) in [
            (it.assembly, TracePhase::Assembly),
            (it.precond, TracePhase::Precond),
            (it.solve, TracePhase::Solve),
            (it.total - named, TracePhase::Other),
        ] {
            events.push(TraceEvent {
                at,
                dur,
                rank: 0,
                seq,
                kind: EventKind::Phase { phase, step },
            });
            seq += 1;
            at += dur;
        }
        events.push(TraceEvent {
            at: clock,
            dur: it.total,
            rank: 0,
            seq,
            kind: EventKind::Phase {
                phase: TracePhase::Iteration,
                step,
            },
        });
        seq += 1;
        clock += it.total;
    }
    let mut trace = Trace { events };
    trace.sort();
    trace
}

type NumericalResult = (PhaseTimes, f64, Option<Verification>, f64, Option<Trace>);

fn run_numerical(
    req: &RunRequest,
    topo: ClusterTopology,
    prep: Option<&PreparedScenario>,
) -> Result<NumericalResult, LimitViolation> {
    // Mesh + partition assignment: shared from the scenario when present
    // (both are pure functions of the prep sub-key), rebuilt otherwise.
    let (mesh, assignment) = match prep {
        Some(p) => {
            let g = p.geometry();
            (g.mesh.clone(), Arc::clone(&g.assignment))
        }
        None => {
            let factors = near_cubic_factors(req.ranks);
            let cells = (
                factors.0 * req.per_rank_axis,
                factors.1 * req.per_rank_axis,
                factors.2 * req.per_rank_axis,
            );
            let mesh = StructuredHexMesh::new(
                cells.0,
                cells.1,
                cells.2,
                hetero_mesh::Point3::ZERO,
                hetero_mesh::Point3::splat(1.0),
            );
            let layout = BlockLayout::new(cells, factors);
            (mesh, Arc::new(layout.assignment()))
        }
    };
    let ranks = req.ranks;
    let app = req.app.clone();
    let cfg = SpmdConfig {
        size: ranks,
        topo,
        net: req.platform.network.clone(),
        compute: req.platform.compute,
        seed: req.seed,
    };

    // Per-rank FEM setup: reused from the scenario's harvest when a prior
    // numerical run stored it; otherwise this run harvests its own
    // (resolved once, so every rank of this run agrees).
    let rank_preps: Option<RankPreps> = prep.and_then(|p| p.rank_preps());
    let harvest = prep.is_some() && rank_preps.is_none();

    enum PrepOut {
        Rd(RdPrep),
        Ns(NsPrep),
    }

    struct RankOut {
        iterations: Vec<PhaseTimes>,
        kiters: f64,
        linf: f64,
        l2: f64,
        bytes: f64,
        prep: Option<PrepOut>,
    }

    // One logical pool shared by all ranks; `install` binds the thread
    // count on each rank's own OS thread, so it must run inside the rank
    // closure.
    let pool = Arc::new(
        rayon::ThreadPoolBuilder::new()
            .num_threads(req.threads_per_rank.max(1))
            .build()
            .expect("the vendored pool builder cannot fail"),
    );

    let body = move |comm: &mut hetero_simmpi::SimComm| {
        pool.install(|| {
            let dmesh =
                DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), comm.rank(), ranks);
            match &app {
                App::Rd(c) => {
                    let rp = match &rank_preps {
                        Some(RankPreps::Rd(v)) => Some(&v[comm.rank()]),
                        _ => None,
                    };
                    let (r, built) = solve_rd_prepared(&dmesh, c, None, None, rp, comm);
                    RankOut {
                        iterations: r.iterations,
                        kiters: r.krylov_iters.iter().sum::<usize>() as f64
                            / r.krylov_iters.len() as f64,
                        linf: r.linf_error,
                        l2: r.l2_error,
                        bytes: comm.stats().bytes_received,
                        prep: harvest.then_some(PrepOut::Rd(built)),
                    }
                }
                App::Ns(c) => {
                    let rp = match &rank_preps {
                        Some(RankPreps::Ns(v)) => Some(&v[comm.rank()]),
                        _ => None,
                    };
                    let (r, built) = solve_ns_prepared(&dmesh, c, None, None, rp, comm);
                    let total_k: usize =
                        r.vel_iters.iter().sum::<usize>() + r.p_iters.iter().sum::<usize>();
                    RankOut {
                        iterations: r.iterations,
                        kiters: total_k as f64 / r.vel_iters.len() as f64,
                        linf: r.vel_linf_error,
                        l2: r.vel_l2_error,
                        bytes: comm.stats().bytes_received,
                        prep: harvest.then_some(PrepOut::Ns(built)),
                    }
                }
            }
        })
    };
    let opts = EngineOpts {
        engine: req.engine,
        workers: req.sched_workers,
        ..EngineOpts::default()
    };
    let (res, trace) = run_spmd_opts(cfg, opts, FaultPlan::none(), req.trace, body);
    let mut results = res.expect("a trivial fault plan cannot fail a rank");

    // Seed the scenario with this run's harvested per-rank setup.
    if harvest {
        if let Some(scen) = prep {
            results.sort_by_key(|r| r.rank);
            let mut rds = Vec::with_capacity(results.len());
            let mut nss = Vec::with_capacity(results.len());
            for r in &mut results {
                match r.value.prep.take() {
                    Some(PrepOut::Rd(p)) => rds.push(p),
                    Some(PrepOut::Ns(p)) => nss.push(p),
                    None => {}
                }
            }
            if rds.len() == results.len() {
                scen.store_rank_preps(RankPreps::Rd(Arc::new(rds)));
            } else if nss.len() == results.len() {
                scen.store_rank_preps(RankPreps::Ns(Arc::new(nss)));
            }
        }
    }

    // Critical-rank reduction: per-iteration max across ranks.
    let steps = results[0].value.iterations.len();
    let mut per_iter = vec![PhaseTimes::default(); steps];
    for r in &results {
        for (acc, &t) in per_iter.iter_mut().zip(&r.value.iterations) {
            *acc = acc.max(t);
        }
    }
    let phases = summarize(&per_iter, req.discard).expect("no measurable iterations");
    let kiters = results[0].value.kiters;
    let verification = Some(Verification {
        linf: results[0].value.linf,
        l2: results[0].value.l2,
    });
    let bytes: f64 = results.iter().map(|r| r.value.bytes).sum::<f64>() / steps as f64;
    Ok((phases, kiters, verification, bytes, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_platform::catalog;

    #[test]
    fn numerical_run_verifies_against_exact_solution() {
        let req = RunRequest {
            discard: 1,
            ..RunRequest::new(catalog::puma(), App::paper_rd(3), 8, 3)
        };
        let out = execute(&req).unwrap();
        assert_eq!(out.fidelity, Fidelity::Numerical);
        let v = out.verification.unwrap();
        assert!(v.linf < 5e-6, "linf = {}", v.linf);
        assert!(out.phases.total > 0.0);
        assert!(out.cost_per_iteration > 0.0);
        assert_eq!(out.nodes, 2);
    }

    #[test]
    fn auto_switches_to_modeled_at_scale() {
        let req = RunRequest::new(catalog::ec2(), App::paper_rd(2), 216, 20);
        let out = execute(&req).unwrap();
        assert_eq!(out.fidelity, Fidelity::Modeled);
        assert!(out.verification.is_none());
        assert_eq!(out.nodes, 14); // Table II's instance count for 216 ranks
    }

    #[test]
    fn puma_cannot_run_216_ranks() {
        let req = RunRequest::new(catalog::puma(), App::paper_rd(2), 216, 20);
        assert!(matches!(
            execute(&req),
            Err(LimitViolation::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn ellipse_cannot_launch_729_ranks() {
        let req = RunRequest::new(catalog::ellipse(), App::paper_rd(2), 729, 20);
        assert!(matches!(
            execute(&req),
            Err(LimitViolation::LauncherFailure { .. })
        ));
    }

    #[test]
    fn lagrange_hits_the_ib_volume_cap_beyond_343() {
        let ok = RunRequest::new(catalog::lagrange(), App::paper_rd(2), 343, 20);
        assert!(execute(&ok).is_ok());
        let too_big = RunRequest::new(catalog::lagrange(), App::paper_rd(2), 512, 20);
        assert!(matches!(
            execute(&too_big),
            Err(LimitViolation::AdapterVolumeExceeded { .. })
        ));
    }

    #[test]
    fn cost_override_changes_price_not_time() {
        let base = RunRequest::new(catalog::ec2(), App::paper_rd(2), 64, 20);
        let spot = RunRequest {
            cost_override: Some(catalog::ec2_spot_cost()),
            ..base.clone()
        };
        let a = execute(&base).unwrap();
        let b = execute(&spot).unwrap();
        assert_eq!(a.phases.total, b.phases.total);
        assert!(b.cost_per_iteration < a.cost_per_iteration / 3.0);
    }

    #[test]
    fn deterministic_outcomes() {
        let req = RunRequest::new(catalog::ellipse(), App::paper_rd(2), 64, 20);
        let a = execute(&req).unwrap();
        let b = execute(&req).unwrap();
        assert_eq!(a.phases.total, b.phases.total);
        assert_eq!(a.cost_per_iteration, b.cost_per_iteration);
    }

    #[test]
    fn traced_numerical_rollup_matches_report_bitwise() {
        let base = RunRequest {
            discard: 1,
            ..RunRequest::new(catalog::puma(), App::paper_rd(3), 8, 3)
        };
        let traced = RunRequest {
            trace: Some(TraceSpec::messages()),
            ..base.clone()
        };
        let plain = execute(&base).unwrap();
        let out = execute(&traced).unwrap();
        assert!(plain.trace.is_none(), "no spec, no trace");
        // Tracing observes; it must not perturb the run.
        assert_eq!(out.phases, plain.phases);
        let trace = out.trace.as_ref().unwrap();
        assert!(!trace.is_empty());
        let r = trace.phase_rollup(traced.discard).unwrap();
        assert_eq!(r.assembly, out.phases.assembly);
        assert_eq!(r.precond, out.phases.precond);
        assert_eq!(r.solve, out.phases.solve);
        assert_eq!(r.total, out.phases.total);
    }

    #[test]
    fn modeled_trace_rollup_matches_summarized_phases() {
        let req = RunRequest {
            discard: 1,
            trace: Some(TraceSpec::collectives()),
            ..RunRequest::new(catalog::ec2(), App::paper_rd(4), 216, 20)
        };
        let out = execute(&req).unwrap();
        assert_eq!(out.fidelity, Fidelity::Modeled);
        let r = out
            .trace
            .as_ref()
            .unwrap()
            .phase_rollup(req.discard)
            .unwrap();
        assert_eq!(r.assembly, out.phases.assembly);
        assert_eq!(r.precond, out.phases.precond);
        assert_eq!(r.solve, out.phases.solve);
        assert_eq!(r.total, out.phases.total);
    }
}
