//! The one route from a resolved request to a report (DESIGN.md §13,
//! "Request lifecycle"): the numerical attempt, the critical-rank
//! reduction with its discard rule, and the [`RunOutcome`] constructor.
//!
//! [`crate::run::execute`] is one failure-free attempt ([`run_plain`]),
//! priced from a recorded work tape when the scenario holds one for the
//! app; [`crate::recovery::execute_resilient`] is as many attempts as its
//! restart budget allows, each under a sampled fault plan. All of them
//! reduce through [`critical_rank`] and hand what was measured to
//! [`outcome`], so a plain, a tape-priced and a fault-injected report can
//! only differ where their inputs do. Tracing takes no path of its own: a
//! numerical trace is what evaluating the run's work tapes implies.

use crate::apps::App;
use crate::modeled::{weak_scaling_grid, ModeledRun};
use crate::prep::{tape_key, PreparedScenario, RecordedRun};
use crate::recovery::{Checkpointer, ResumeState};
use crate::run::{synthesize_phase_trace, Fidelity, RunOutcome, RunRequest, Verification};
use hetero_fem::ns::{solve_ns_with, NsStepView};
use hetero_fem::phase::{summarize, PhaseRecorder, PhaseTimes};
use hetero_fem::rd::{solve_rd_with, RdStepView};
use hetero_mesh::{DistributedMesh, Point3, StructuredHexMesh};
use hetero_partition::block::BlockLayout;
use hetero_simmpi::{
    run_spmd_opts, run_spmd_recorded, tape, EngineOpts, FaultPlan, RankFailed, SimComm, SpmdConfig,
    WorkTape,
};
use hetero_trace::Trace;
use std::sync::Arc;

/// What one engine run measured.
pub(crate) struct Measured {
    fidelity: Fidelity,
    /// The critical rank's iterations (numerical: the per-iteration max
    /// across ranks; modeled: the replayed rank) under [`reduce`].
    phases: PhaseTimes,
    krylov_iters: f64,
    verification: Option<Verification>,
    bytes_per_iteration: f64,
    /// The run's trace, when the request asked for one.
    pub(crate) trace: Option<Trace>,
}

impl Measured {
    /// The modeled engine's replay, with the phase trace it implies.
    pub(crate) fn modeled(req: &RunRequest, m: &ModeledRun) -> Self {
        Measured {
            fidelity: Fidelity::Modeled,
            phases: reduce(&m.iterations, req.discard),
            krylov_iters: m.krylov_iters as f64,
            verification: None,
            bytes_per_iteration: m.bytes_per_iteration,
            trace: req.trace.map(|_| synthesize_phase_trace(&m.iterations)),
        }
    }
}

/// The outputs of one rank's run that no platform changes: Krylov
/// iterations per step, exact-solution errors, modeled bytes received.
#[derive(Clone, Copy)]
pub(crate) struct RankNumerics {
    kiters: f64,
    linf: f64,
    l2: f64,
    bytes: f64,
}

/// What one rank hands back from its run of the application.
struct RankOut {
    iterations: Vec<PhaseTimes>,
    numerics: RankNumerics,
}

/// What one execution of every rank produced.
struct Executed {
    iterations: Vec<Vec<PhaseTimes>>,
    numerics: Vec<RankNumerics>,
    /// The latest rank's final clock.
    run_seconds: f64,
    trace: Option<Trace>,
    tape: Option<WorkTape>,
}

/// Runs the application numerically once: every rank of `cfg` builds its
/// own set-up on the attempt's mesh and steps RD or NS from `resume` (or
/// the initial condition), calling `checkpoint` after each step. Returns
/// the critical-rank measurement and the attempt's virtual duration, or
/// the first node loss `faults` inflicted.
pub(crate) fn run_attempt(
    req: &RunRequest,
    cfg: SpmdConfig,
    faults: FaultPlan,
    resume: Option<&ResumeState>,
    checkpoint: Option<&Checkpointer>,
) -> Result<(Measured, f64), RankFailed> {
    let run = execute_ranks(req, cfg, faults, resume, checkpoint, None)?;
    let seconds = run.run_seconds;
    Ok((
        critical_rank(req, &run.iterations, &run.numerics, run.trace),
        seconds,
    ))
}

/// The numerical run of a plain `execute`: failure-free, from the initial
/// condition, no checkpoints. When the scenario already holds a recorded
/// run of this app, it is priced on `cfg` from the tape, trace and all;
/// otherwise the ranks execute, and a run on a shared scenario records its
/// tape for the next platform. A traced run records its whole tape,
/// whatever its size, and its trace is that tape's evaluation; the
/// scenario keeps the tape if it fits the scenario's budget.
pub(crate) fn run_plain(req: &RunRequest, cfg: SpmdConfig, scen: &PreparedScenario) -> Measured {
    let budget = scen.tape_budget();
    let key = budget.map(|_| tape_key(req));
    if let Some(run) = key.as_deref().and_then(|k| scen.recorded_run(k)) {
        return priced(req, &cfg, &run.tape, &run.numerics);
    }
    let recording = req.trace.map(|_| usize::MAX).or(budget);
    let run = execute_ranks(req, cfg.clone(), FaultPlan::none(), None, None, recording)
        .expect("a trivial fault plan cannot fail a rank");
    let measured = match (&run.tape, req.trace) {
        (Some(tape), Some(_)) => priced(req, &cfg, tape, &run.numerics),
        _ => critical_rank(req, &run.iterations, &run.numerics, None),
    };
    if let (Some(key), Some(budget)) = (key, budget) {
        let recorded = run
            .tape
            .filter(|tape| tape.bytes() <= budget)
            .map(|tape| RecordedRun::new(tape, run.numerics));
        scen.store_recorded_run(&key, recorded);
    }
    measured
}

/// The critical-rank measurement `tape` implies on `cfg`, with the trace
/// it implies when the request asks for one.
fn priced(
    req: &RunRequest,
    cfg: &SpmdConfig,
    tape: &WorkTape,
    numerics: &[RankNumerics],
) -> Measured {
    let (clocks, trace) = tape::evaluate(tape, cfg, req.trace);
    let iterations: Vec<Vec<PhaseTimes>> = clocks
        .iter()
        .map(|rank| PhaseRecorder::replay(&rank.marks))
        .collect();
    critical_rank(req, &iterations, numerics, trace)
}

/// Executes every rank of the application once (see [`run_attempt`]),
/// recording the job's work tape within `tape_budget` bytes (`usize::MAX`:
/// all of it) when given one — which only a failure-free, unresumed,
/// uncheckpointed run asks for; without, the engine traces the run.
fn execute_ranks(
    req: &RunRequest,
    cfg: SpmdConfig,
    faults: FaultPlan,
    resume: Option<&ResumeState>,
    checkpoint: Option<&Checkpointer>,
    tape_budget: Option<usize>,
) -> Result<Executed, RankFailed> {
    // The attempt's mesh and block assignment, shared by its ranks.
    let (factors, cells) = weak_scaling_grid(req.ranks, req.per_rank_axis);
    let mesh = StructuredHexMesh::new(cells.0, cells.1, cells.2, Point3::ZERO, Point3::splat(1.0));
    let assignment = Arc::new(BlockLayout::new(cells, factors).assignment());

    // One logical pool shared by all ranks; `install` binds the thread
    // count on the calling thread — the scheduler worker running the rank's
    // coroutine under the default cooperative engine, the rank's own OS
    // thread under `EngineKind::Threads` — so it must run inside the rank
    // closure.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(req.threads_per_rank.max(1))
        .build()
        .expect("the vendored pool builder cannot fail");

    let body = |comm: &mut SimComm| {
        pool.install(|| {
            let dmesh = DistributedMesh::new(
                mesh.clone(),
                Arc::clone(&assignment),
                comm.rank(),
                req.ranks,
            );
            match &req.app {
                App::Rd(c) => {
                    let mut obs = |view: &RdStepView<'_>, comm: &mut SimComm| {
                        if let Some(ck) = checkpoint {
                            ck.rd_step(c, view, comm);
                        }
                    };
                    let resume = match resume {
                        Some(ResumeState::Rd(r)) => Some(r),
                        _ => None,
                    };
                    let r = solve_rd_with(&dmesh, c, resume, Some(&mut obs), comm);
                    RankOut {
                        iterations: r.iterations,
                        numerics: RankNumerics {
                            kiters: r.krylov_iters.iter().sum::<usize>() as f64
                                / r.krylov_iters.len() as f64,
                            linf: r.linf_error,
                            l2: r.l2_error,
                            bytes: comm.stats().bytes_received,
                        },
                    }
                }
                App::Ns(c) => {
                    let mut obs = |view: &NsStepView<'_>, comm: &mut SimComm| {
                        if let Some(ck) = checkpoint {
                            ck.ns_step(c, view, comm);
                        }
                    };
                    let resume = match resume {
                        Some(ResumeState::Ns(r)) => Some(r),
                        _ => None,
                    };
                    let r = solve_ns_with(&dmesh, c, resume, Some(&mut obs), comm);
                    let total_k: usize =
                        r.vel_iters.iter().sum::<usize>() + r.p_iters.iter().sum::<usize>();
                    RankOut {
                        iterations: r.iterations,
                        numerics: RankNumerics {
                            kiters: total_k as f64 / r.vel_iters.len() as f64,
                            linf: r.vel_linf_error,
                            l2: r.vel_l2_error,
                            bytes: comm.stats().bytes_received,
                        },
                    }
                }
            }
        })
    };
    let opts = EngineOpts {
        engine: req.engine,
        workers: req.sched_workers,
    };
    // A felled attempt's per-rank spans describe work the rollback
    // discards, so its trace is dropped with it.
    let (results, trace, tape) = match tape_budget {
        None => {
            let (result, trace) = run_spmd_opts(cfg, opts, faults, req.trace, body);
            (result?, trace, None)
        }
        Some(bytes) => {
            let (results, tape) = run_spmd_recorded(cfg, opts, bytes, body);
            (results, None, tape)
        }
    };

    // The engines return results in rank order.
    let run_seconds = results.iter().map(|r| r.clock).fold(0.0, f64::max);
    let (iterations, numerics) = results
        .into_iter()
        .map(|r| (r.value.iterations, r.value.numerics))
        .unzip();
    Ok(Executed {
        iterations,
        numerics,
        run_seconds,
        trace,
        tape,
    })
}

/// The critical-rank reduction of a numerical run, one code for executed
/// and tape-priced runs alike: the per-iteration max across ranks (in rank
/// order), rank 0's Krylov count and errors, and the bytes every rank
/// received per step. A resumed attempt reports only the steps it executed
/// itself.
fn critical_rank(
    req: &RunRequest,
    iterations: &[Vec<PhaseTimes>],
    numerics: &[RankNumerics],
    trace: Option<Trace>,
) -> Measured {
    let steps = iterations[0].len();
    let mut critical = vec![PhaseTimes::default(); steps];
    for rank in iterations {
        for (acc, &t) in critical.iter_mut().zip(rank) {
            *acc = acc.max(t);
        }
    }
    let first = numerics[0];
    Measured {
        fidelity: Fidelity::Numerical,
        phases: reduce(&critical, req.discard),
        krylov_iters: first.kiters,
        verification: Some(Verification {
            linf: first.linf,
            l2: first.l2,
        }),
        bytes_per_iteration: numerics.iter().map(|n| n.bytes).sum::<f64>() / steps as f64,
        trace,
    }
}

/// The paper's reduction under the one discard rule: drop the first
/// `discard` iterations — clamped so that one always remains — and average
/// the rest.
pub(crate) fn reduce(iterations: &[PhaseTimes], discard: usize) -> PhaseTimes {
    summarize(iterations, discard.min(iterations.len().saturating_sub(1)))
        .expect("every run executes at least one step")
}

/// The one [`RunOutcome`] constructor. `nodes` and `cost` (dollars for one
/// iteration of the given length) are the caller's: a plain run bills the
/// platform's cost model, a campaign the fleet it acquired.
pub(crate) fn outcome(
    req: &RunRequest,
    nodes: usize,
    m: Measured,
    cost: impl FnOnce(f64) -> f64,
) -> RunOutcome {
    RunOutcome {
        platform: req.platform.key.clone(),
        app: req.app.name(),
        ranks: req.ranks,
        nodes,
        fidelity: m.fidelity,
        phases: m.phases,
        cost_per_iteration: cost(m.phases.total),
        queue_wait_seconds: req.platform.queue_wait(req.ranks, req.seed),
        krylov_iters: m.krylov_iters,
        verification: m.verification,
        bytes_per_iteration: m.bytes_per_iteration,
        trace: m.trace,
    }
}
