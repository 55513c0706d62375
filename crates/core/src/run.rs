//! The unified run executor: one request, either engine, one outcome shape.

use crate::apps::App;
use crate::attempt::{outcome, run_plain, Measured};
use crate::modeled::run_modeled_prepared;
use crate::recovery::ResilienceSpec;
use hetero_fem::phase::PhaseTimes;
use hetero_linalg::SolverVariant;
use hetero_platform::limits::LimitViolation;
use hetero_platform::{CostModel, PlatformSpec};
use hetero_simmpi::{ClusterTopology, EngineKind, SpmdConfig, MAX_REAL_RANKS};
use hetero_trace::{EventKind, Phase as TracePhase, Trace, TraceEvent, TraceSpec};
use serde::{Deserialize, Serialize, Value};

/// Which engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fidelity {
    /// Real distributed numerics, one simulated rank per coroutine on the
    /// M:N scheduler (see [`RunRequest::sched_workers`]); verifiable
    /// against the exact solution. At most [`MAX_REAL_RANKS`] ranks.
    Numerical,
    /// Analytic replay (paper scale).
    Modeled,
    /// Numerical when affordable, modeled otherwise.
    Auto,
}

/// Auto switches to the modeled engine above this rank count...
const AUTO_MAX_NUMERICAL_RANKS: usize = 27;
/// ...or above this per-rank mesh edge.
const AUTO_MAX_NUMERICAL_AXIS: usize = 5;

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
    /// Inert: a rank is one coroutine on one scheduler worker and runs its
    /// kernels serially, as an MPI process on one core does. The field
    /// remains because the benchmark package names it, and goes with that
    /// use; it is in neither cache key, and a journaled request that
    /// carries any value still parses.
    pub threads_per_rank: usize,
    /// Inert: the numerical path has one engine, the M:N scheduler. The
    /// field remains because the benchmark package names it, and goes
    /// with that use; it is in neither cache key, and a request that names
    /// the retired `Threads` engine still parses.
    pub engine: EngineKind,
    /// Worker threads of the M:N scheduler that runs the numerical path
    /// (`0` = auto-size from host parallelism). Reports are bitwise
    /// identical at any pool size.
    pub sched_workers: usize,
    /// Engine selection.
    pub fidelity: Fidelity,
    /// Overrides the solver communication schedule of **every** Krylov
    /// solve in the app (see [`SolverVariant`]). `None` keeps whatever the
    /// app's own [`hetero_linalg::SolveOptions`] say — the default blocking
    /// schedule unless the config was built otherwise.
    pub solver_variant: Option<SolverVariant>,
    /// Replaces the platform's default topology (placement-group fleets).
    pub topology_override: Option<ClusterTopology>,
    /// Replaces the platform's cost model (spot pricing).
    pub cost_override: Option<CostModel>,
    /// Fault processes and recovery policy — `None` runs failure-free.
    /// Consumed by [`crate::recovery::execute_resilient`]; the plain
    /// [`execute`] path ignores it.
    pub resilience: Option<ResilienceSpec>,
    /// Structured-event tracing — `None` (the default) records nothing and
    /// costs nothing. With a spec, the numerical engine's trace is what
    /// evaluating the run's work tape implies (per-rank phase, collective
    /// and message events in virtual time), so a traced run is executed or
    /// priced from a recorded tape exactly as an untraced one; the modeled
    /// engine synthesizes the equivalent phase spans. Either way the
    /// outcome carries a [`Trace`] whose rollup at the request's `discard`
    /// matches `phases` bitwise.
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
            topology_override: None,
            cost_override: None,
            resilience: None,
            trace: None,
        }
    }

    /// The request both executors run: the solver-variant override folded
    /// into the app config, so every engine, attempt and probe sees it
    /// through the ordinary `SolveOptions` path.
    pub(crate) fn normalized(&self) -> RunRequest {
        RunRequest {
            app: match self.solver_variant {
                Some(v) => self.app.with_solver_variant(v),
                None => self.app.clone(),
            },
            solver_variant: None,
            ..self.clone()
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

/// Rejects a request for zero ranks, zero cells along a rank's axis, zero
/// time steps, or a platform without cores per node: none of them
/// describes a run (ranks cannot be placed on nodes without cores). Also
/// rejects a numerical run above [`MAX_REAL_RANKS`], which the simulator
/// cannot execute. Both executors turn these away before anything is
/// built for them.
pub(crate) fn check_not_degenerate(req: &RunRequest) -> Result<(), LimitViolation> {
    for (field, n) in [
        ("ranks", req.ranks),
        ("per_rank_axis", req.per_rank_axis),
        ("steps", req.app.steps()),
        ("cores_per_node", req.platform.cores_per_node),
    ] {
        if n == 0 {
            return Err(LimitViolation::DegenerateRequest {
                field: field.to_string(),
            });
        }
    }
    if req.ranks > MAX_REAL_RANKS && resolve_fidelity(req) == Fidelity::Numerical {
        return Err(LimitViolation::SimulatorRankCeiling {
            requested: req.ranks,
            max_ranks: MAX_REAL_RANKS,
        });
    }
    Ok(())
}

/// Executes a run, enforcing the platform's limits first.
///
/// # Errors
/// Returns the paper's observed failure modes: capacity exhaustion (puma
/// above 125 of the ladder, or a [`RunRequest::topology_override`] with
/// fewer cores than ranks), launcher failure (ellipse above 512), adapter
/// volume cap (lagrange above 343). A request for zero ranks, cells per
/// rank axis, steps or cores per node is a
/// [`LimitViolation::DegenerateRequest`], and a numerical run above
/// [`MAX_REAL_RANKS`] ranks a [`LimitViolation::SimulatorRankCeiling`].
///
/// The run takes its scenario from the process-wide cache (a private one
/// while sharing is disabled — see [`crate::prep`]). Reports are
/// byte-identical whichever scenario serves them.
pub fn execute(req: &RunRequest) -> Result<RunOutcome, LimitViolation> {
    check_not_degenerate(req)?;
    let req = &req.normalized();
    let scen = crate::prep::resolve(req);
    // Capacity and launcher limits are independent of traffic: check them
    // before even building the topology (an oversubscribed topology cannot
    // be constructed).
    req.platform.check_limits(req.ranks, 0.0)?;
    let topo = req
        .topology_override
        .clone()
        .unwrap_or_else(|| req.platform.topology(req.ranks));
    if topo.total_cores() < req.ranks {
        return Err(LimitViolation::InsufficientCapacity {
            requested: req.ranks,
            available: topo.total_cores(),
        });
    }

    let modeled = |app: &App| {
        run_modeled_prepared(
            app,
            scen.modeled(),
            &topo,
            &req.platform.network,
            req.platform.compute,
            req.seed,
        )
    };
    let nodes = topo.nodes_for_ranks(req.ranks);
    let measured = match resolve_fidelity(req) {
        Fidelity::Numerical => {
            // Traffic estimate from a one-step modeled probe (cheap, closed
            // form).
            let probe = modeled(&req.app.with_steps(1));
            req.platform
                .check_limits(req.ranks, probe.bytes_per_iteration)?;
            let cfg = SpmdConfig {
                size: req.ranks,
                topo,
                net: req.platform.network.clone(),
                compute: req.platform.compute,
                seed: req.seed,
            };
            run_plain(req, cfg, &scen)
        }
        Fidelity::Modeled | Fidelity::Auto => {
            // A replay's traffic is a function of the neighbour lists and
            // the app alone, so its first step is the probe.
            let run = modeled(&req.app);
            req.platform
                .check_limits(req.ranks, run.bytes_per_iteration)?;
            Measured::modeled(req, &run)
        }
    };
    let cost_model = req.cost_override.as_ref().unwrap_or(&req.platform.cost);
    Ok(outcome(req, nodes, measured, |seconds| {
        cost_model.cost(req.ranks, seconds)
    }))
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
    fn undersized_topology_override_is_a_capacity_violation() {
        let req = RunRequest {
            topology_override: Some(ClusterTopology::uniform(1, 4)),
            ..RunRequest::new(catalog::puma(), App::paper_rd(2), 8, 3)
        };
        assert_eq!(
            execute(&req).unwrap_err(),
            LimitViolation::InsufficientCapacity {
                requested: 8,
                available: 4
            }
        );
    }

    #[test]
    fn discard_beyond_the_run_keeps_the_last_iteration() {
        for (fidelity, ranks, axis) in [(Fidelity::Numerical, 8, 3), (Fidelity::Modeled, 64, 20)] {
            let run = |discard| {
                let req = RunRequest {
                    discard,
                    fidelity,
                    ..RunRequest::new(catalog::puma(), App::paper_rd(2), ranks, axis)
                };
                format!("{:?}", execute(&req).unwrap())
            };
            assert_eq!(run(5), run(1), "{fidelity:?}");
        }
    }

    #[test]
    fn a_numerical_run_above_the_rank_ceiling_is_rejected_before_set_up() {
        // Nothing is built for the request: a numerical job this size
        // would map 128 GiB of coroutine stacks.
        let ec2 = catalog::ec2();
        let req = RunRequest {
            fidelity: Fidelity::Numerical,
            resilience: Some(crate::recovery::ResilienceSpec::on_demand(&ec2)),
            ..RunRequest::new(ec2, App::paper_rd(2), MAX_REAL_RANKS + 1, 3)
        };
        let want = LimitViolation::SimulatorRankCeiling {
            requested: MAX_REAL_RANKS + 1,
            max_ranks: MAX_REAL_RANKS,
        };
        assert_eq!(execute(&req).unwrap_err(), want);
        assert_eq!(crate::recovery::execute_resilient(&req).unwrap_err(), want);
        let text = want.to_string();
        assert!(text.contains("rank ceiling (131072)"), "{text}");
        assert!(text.contains("Fidelity::Modeled"), "{text}");
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
        // A discard past the 3 steps keeps the last one, in the report and
        // in the rollup alike.
        for discard in [1, 7] {
            let base = RunRequest {
                discard,
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
            assert_eq!(r.discard, discard.min(2));
            assert_eq!(r.assembly, out.phases.assembly);
            assert_eq!(r.precond, out.phases.precond);
            assert_eq!(r.solve, out.phases.solve);
            assert_eq!(r.total, out.phases.total);
        }
    }

    #[test]
    fn modeled_trace_rollup_matches_summarized_phases() {
        for discard in [1, 9] {
            let req = RunRequest {
                discard,
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
            assert_eq!(r.discard, discard.min(3));
            assert_eq!(r.assembly, out.phases.assembly);
            assert_eq!(r.precond, out.phases.precond);
            assert_eq!(r.solve, out.phases.solve);
            assert_eq!(r.total, out.phases.total);
        }
    }
}
