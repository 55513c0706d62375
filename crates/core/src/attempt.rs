//! The one route from a resolved request to a report (DESIGN.md §13,
//! "Request lifecycle"): the numerical attempt, the critical-rank
//! reduction with its discard rule, and the [`RunOutcome`] constructor.
//!
//! [`crate::run::execute`] is one failure-free attempt;
//! [`crate::recovery::execute_resilient`] is as many attempts as its
//! restart budget allows, each under a sampled fault plan. Both hand what
//! the engine measured to [`outcome`], so a plain and a fault-injected
//! report can only differ where their inputs do.

use crate::apps::App;
use crate::modeled::ModeledRun;
use crate::prep::{PreparedScenario, RankPrep};
use crate::recovery::{Checkpointer, ResumeState};
use crate::run::{synthesize_phase_trace, Fidelity, RunOutcome, RunRequest, Verification};
use hetero_fem::ns::{solve_ns_prepared, NsStepView};
use hetero_fem::phase::{summarize, PhaseTimes};
use hetero_fem::rd::{solve_rd_prepared, RdStepView};
use hetero_mesh::DistributedMesh;
use hetero_simmpi::{run_spmd_opts, EngineOpts, FaultPlan, RankFailed, SimComm, SpmdConfig};
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

/// What one rank hands back from its run of the application.
struct RankOut {
    iterations: Vec<PhaseTimes>,
    kiters: f64,
    linf: f64,
    l2: f64,
    bytes: f64,
    prep: RankPrep,
}

/// Runs the application numerically once: every rank of `cfg` builds its
/// mesh view from `scen`'s shared geometry and steps RD or NS from
/// `resume` (or the initial condition), calling `checkpoint` after each
/// step. Returns the critical-rank measurement and the attempt's virtual
/// duration, or the first node loss `faults` inflicted.
///
/// Per-rank FEM setup comes from `scen` when an earlier run left it there;
/// otherwise a completed attempt stores its own — a felled one never does.
pub(crate) fn run_attempt(
    req: &RunRequest,
    cfg: SpmdConfig,
    faults: FaultPlan,
    resume: Option<&ResumeState>,
    checkpoint: Option<&Checkpointer>,
    scen: &PreparedScenario,
) -> Result<(Measured, f64), RankFailed> {
    let geo = scen.geometry();
    // Resolved once, so every rank of this attempt agrees.
    let rank_preps = scen.rank_preps();
    let rank_prep = |rank: usize| rank_preps.as_ref().map(|v| &v[rank]);

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
                geo.mesh.clone(),
                Arc::clone(&geo.assignment),
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
                    let rp = match rank_prep(comm.rank()) {
                        Some(RankPrep::Rd(p)) => Some(p),
                        _ => None,
                    };
                    let (r, built) = solve_rd_prepared(&dmesh, c, resume, Some(&mut obs), rp, comm);
                    RankOut {
                        iterations: r.iterations,
                        kiters: r.krylov_iters.iter().sum::<usize>() as f64
                            / r.krylov_iters.len() as f64,
                        linf: r.linf_error,
                        l2: r.l2_error,
                        bytes: comm.stats().bytes_received,
                        prep: RankPrep::Rd(built),
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
                    let rp = match rank_prep(comm.rank()) {
                        Some(RankPrep::Ns(p)) => Some(p),
                        _ => None,
                    };
                    let (r, built) = solve_ns_prepared(&dmesh, c, resume, Some(&mut obs), rp, comm);
                    let total_k: usize =
                        r.vel_iters.iter().sum::<usize>() + r.p_iters.iter().sum::<usize>();
                    RankOut {
                        iterations: r.iterations,
                        kiters: total_k as f64 / r.vel_iters.len() as f64,
                        linf: r.vel_linf_error,
                        l2: r.vel_l2_error,
                        bytes: comm.stats().bytes_received,
                        prep: RankPrep::Ns(built),
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
    let (result, trace) = run_spmd_opts(cfg, opts, faults, req.trace, body);
    let results = result?;

    // Critical-rank reduction: per-iteration max across ranks. A resumed
    // attempt reports only the steps it executed itself.
    let steps = results[0].value.iterations.len();
    let mut iterations = vec![PhaseTimes::default(); steps];
    for r in &results {
        for (acc, &t) in iterations.iter_mut().zip(&r.value.iterations) {
            *acc = acc.max(t);
        }
    }
    let measured = Measured {
        fidelity: Fidelity::Numerical,
        phases: reduce(&iterations, req.discard),
        krylov_iters: results[0].value.kiters,
        verification: Some(Verification {
            linf: results[0].value.linf,
            l2: results[0].value.l2,
        }),
        bytes_per_iteration: results.iter().map(|r| r.value.bytes).sum::<f64>() / steps as f64,
        trace,
    };
    let run_seconds = results.iter().map(|r| r.clock).fold(0.0, f64::max);
    if rank_preps.is_none() {
        // The engines return results in rank order.
        scen.store_rank_preps(Arc::new(
            results.into_iter().map(|r| r.value.prep).collect(),
        ));
    }
    Ok((measured, run_seconds))
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
