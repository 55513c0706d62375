//! The SPMD execution engine: an M:N cooperative scheduler that multiplexes
//! ranks as stackful coroutines onto a fixed worker pool (see
//! `crate::sched` and `DESIGN.md` §9), up to [`MAX_REAL_RANKS`] ranks.
//!
//! Every result is a pure function of `(config, faults, f)`, so reports are
//! byte-identical across worker-pool sizes; checked-in digests pin them
//! across commits.

use crate::comm::{SharedComm, SimComm};
use crate::fault::{FaultPanic, FaultPlan, RankFailed};
use crate::network::NetworkModel;
use crate::sched;
use crate::stats::CommStats;
use crate::tape::{self, RankTape, TapeBudget, WorkTape};
use crate::topology::ClusterTopology;
use crate::work::ComputeModel;
use hetero_trace::{Trace, TraceDetail, TraceSpec};
use serde::{Deserialize, Serialize};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};

/// Upper bound on the simulated ranks of one job; beyond this, use the
/// analytic engine in [`crate::modeled`] instead.
pub const MAX_REAL_RANKS: usize = 131_072;

/// Coroutine stack size of every rank. This is address space: a job's
/// stacks are mapped together when it starts and unmapped when it returns
/// (see `sched::context`), so a rank is resident only for the pages of its
/// stack it touches — typically three or four — and only while its job
/// runs. A rank that needs more than this aborts the process at its next
/// yield (canary check), it does not fault.
const DEFAULT_TASK_STACK_BYTES: usize = 1 << 20;

// The context switch (`sched::context`) is implemented for the System-V
// flavours of x86_64 and aarch64 only, and there is no other engine.
#[cfg(not(all(
    not(target_os = "windows"),
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!("hetero-simmpi runs ranks as coroutines: it needs x86_64 or aarch64, not Windows");

/// The SPMD engine. There is one, the M:N scheduler; the type remains
/// only for the inert `RunRequest::engine` field, which goes once the
/// benchmark package stops naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum EngineKind {
    /// M:N scheduler: ranks are cooperative tasks on a fixed worker pool.
    #[default]
    Cooperative,
}

/// Reads `"Cooperative"` and the retired `"Threads"` alike: a request
/// journaled when two engines existed named either, and both produced
/// byte-identical reports, so both mean the one engine.
impl Deserialize for EngineKind {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value.as_str() {
            Some("Cooperative" | "Threads") => Ok(EngineKind::Cooperative),
            _ => Err(serde::Error::new(format!(
                "invalid encoding for enum EngineKind: {value:?}"
            ))),
        }
    }
}

/// Tuning of one SPMD run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineOpts {
    /// Worker-pool size; 0 picks the host parallelism. Results are
    /// byte-identical at any value.
    pub workers: usize,
}

impl EngineOpts {
    /// An explicit worker-pool size (0 = auto).
    pub fn cooperative(workers: usize) -> Self {
        EngineOpts { workers }
    }
}

/// Configuration of one simulated SPMD job.
#[derive(Debug, Clone)]
pub struct SpmdConfig {
    /// Number of MPI ranks.
    pub size: usize,
    /// Node/core/placement-group layout.
    pub topo: ClusterTopology,
    /// Interconnect model.
    pub net: NetworkModel,
    /// Per-core compute model.
    pub compute: ComputeModel,
    /// Experiment seed (drives message jitter only).
    pub seed: u64,
}

/// What one rank produced: its return value, final virtual clock, and
/// counters.
#[derive(Debug, Clone)]
pub struct RankResult<T> {
    /// The rank id.
    pub rank: usize,
    /// The closure's return value.
    pub value: T,
    /// The rank's virtual clock at exit, in seconds.
    pub clock: f64,
    /// Accumulated communication/compute counters.
    pub stats: CommStats,
}

/// How one rank ended.
enum RankOutcome<T> {
    /// Closure returned normally.
    Ok(RankResult<T>),
    /// The rank observed its node's scheduled loss.
    Fault(RankFailed),
    /// The rank unwound because a peer poisoned the job; not the root
    /// cause, so it carries no information of its own.
    Poisoned,
    /// A genuine application panic.
    Panic(String),
}

/// Every rank's result, or the job's earliest node loss.
type JobResult<T> = Result<Vec<RankResult<T>>, RankFailed>;

/// What the engine keeps of one exited rank: how it ended, and its work
/// tape if it recorded one.
struct RankExit<T> {
    outcome: RankOutcome<T>,
    tape: Option<RankTape>,
}

impl<T> RankExit<T> {
    /// A rank whose unwind escaped its body's `catch_unwind`, so it handed
    /// over nothing: `message` keeps the failure diagnosable.
    fn crashed(message: String) -> Self {
        RankExit {
            outcome: RankOutcome::Panic(message),
            tape: None,
        }
    }
}

/// Best-effort string form of a panic payload, for diagnostics.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// Maps an unwound rank body to its outcome.
fn outcome_of_unwind<T>(payload: Box<dyn std::any::Any + Send>) -> RankOutcome<T> {
    if let Some(fp) = payload.downcast_ref::<FaultPanic>() {
        // Injected node loss; peers blocked on this rank's messages unwind
        // via the termination flag.
        RankOutcome::Fault(fp.0)
    } else {
        let msg = panic_message(payload.as_ref());
        if msg.starts_with("job poisoned:") {
            // Collateral unwind; the root cause is reported by whichever
            // rank died first (or by the deadlock report).
            RankOutcome::Poisoned
        } else {
            RankOutcome::Panic(msg)
        }
    }
}

/// Runs `f` as an SPMD program on `config.size` simulated ranks, and
/// returns the per-rank results ordered by rank.
///
/// The closure receives the rank's [`SimComm`]; ranks coordinate only
/// through it. Virtual time is deterministic for a fixed `config`.
///
/// # Panics
/// Panics if any rank panics (the first panic is propagated; blocked peers
/// are woken and unwound), if the program deadlocks (with a deterministic
/// report), or if `config.size` exceeds [`MAX_REAL_RANKS`] or the
/// topology's core capacity.
pub fn run_spmd<T, F>(config: SpmdConfig, f: F) -> Vec<RankResult<T>>
where
    T: Send,
    F: Fn(&mut SimComm) -> T + Send + Sync,
{
    run_spmd_inner(
        config,
        EngineOpts::default(),
        FaultPlan::none(),
        None,
        None,
        f,
    )
    .0
    .expect("a trivial fault plan cannot fail a rank")
}

/// Injected node losses and poison-path wakeups are control flow, not
/// errors: keep the default panic hook from printing a message + backtrace
/// for every one of them. Installed once, delegates real panics unchanged.
fn silence_fault_unwinds() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let poisoned = payload
                .downcast_ref::<&str>()
                .map(|s| s.starts_with("job poisoned:"))
                .or_else(|| {
                    payload
                        .downcast_ref::<String>()
                        .map(|s| s.starts_with("job poisoned:"))
                })
                .unwrap_or(false);
            if poisoned || payload.downcast_ref::<FaultPanic>().is_some() {
                return;
            }
            previous(info);
        }));
    });
}

/// Runs `f` like [`run_spmd`] on a worker pool of `opts` and under a [`FaultPlan`],
/// and, when `trace` is `Some`, records a [`Trace`] (returned as the second
/// tuple element; `None` skips recording).
///
/// Each rank watches its node's scheduled loss time against its own
/// virtual clock. The failure is deterministic regardless of the worker
/// pool: every rank's virtual trajectory is a function of the
/// program and the plan alone, so *which* ranks observe their node's death
/// — and at what virtual time — never depends on host scheduling. Ranks
/// blocked on a dead peer are woken through the poison path and do not
/// count as failures.
///
/// A traced job records every rank's work tape ([`crate::tape`]) without a
/// bound, and its trace is those tapes' evaluation under `faults`. The
/// trace is a pure function of `(config, faults, f)`, byte-identical across
/// worker pools and host thread counts, and it comes back even when the run
/// fails: a rank unwinds either at its own deterministic node-loss clock or
/// when a message it waits on provably cannot arrive, and its tape simply
/// ends there. A failed run's per-rank spans still describe work the caller
/// will roll back, which is why the recovery layer keeps only
/// campaign-level events from failed attempts.
///
/// # Errors
/// Returns the earliest observed node loss (ordered by virtual time, then
/// node id) when the plan fells a node mid-run.
///
/// # Panics
/// Panics if any rank raises a genuine application panic (fault- and
/// poison-unwinds excluded), on the size/capacity violations of
/// [`run_spmd`], or with a deterministic report if the program deadlocks.
pub fn run_spmd_opts<T, F>(
    config: SpmdConfig,
    opts: EngineOpts,
    faults: FaultPlan,
    trace: Option<TraceSpec>,
    f: F,
) -> (Result<Vec<RankResult<T>>, RankFailed>, Option<Trace>)
where
    T: Send,
    F: Fn(&mut SimComm) -> T + Send + Sync,
{
    let (result, trace, _) = run_spmd_inner(config, opts, faults, trace.map(|s| s.detail), None, f);
    (result, trace)
}

/// Runs `f` like [`run_spmd`] on a worker pool of `opts`, and records every
/// rank's work tape ([`crate::tape`]) within `tape_bytes` for the whole
/// job, split evenly across ranks. The tape comes back only if every rank's
/// fit in its share; recording never changes a result.
///
/// # Panics
/// As [`run_spmd`].
pub fn run_spmd_recorded<T, F>(
    config: SpmdConfig,
    opts: EngineOpts,
    tape_bytes: usize,
    f: F,
) -> (Vec<RankResult<T>>, Option<WorkTape>)
where
    T: Send,
    F: Fn(&mut SimComm) -> T + Send + Sync,
{
    let (result, _, tape) =
        run_spmd_inner(config, opts, FaultPlan::none(), None, Some(tape_bytes), f);
    (
        result.expect("a trivial fault plan cannot fail a rank"),
        tape,
    )
}

/// Every entry point's body. `tape_bytes` is the job's work-tape
/// budget, and `trace` the detail of the trace to evaluate from the tapes,
/// which are then recorded whatever their size; with neither, nothing is
/// recorded. Every rank hands its tape to the job once, when it exits, and
/// the job evaluates the trace and assembles the tape after the join.
pub(crate) fn run_spmd_inner<T, F>(
    config: SpmdConfig,
    opts: EngineOpts,
    faults: FaultPlan,
    trace: Option<TraceDetail>,
    tape_bytes: Option<usize>,
    f: F,
) -> (JobResult<T>, Option<Trace>, Option<WorkTape>)
where
    T: Send,
    F: Fn(&mut SimComm) -> T + Send + Sync,
{
    assert!(
        config.size <= MAX_REAL_RANKS,
        "{} ranks exceed the engine limit ({MAX_REAL_RANKS}); use hetero_simmpi::modeled",
        config.size
    );
    silence_fault_unwinds();
    let tape_bytes = trace.map(|_| usize::MAX).or(tape_bytes);
    let tapes = tape_bytes.map(|bytes| TapeBudget::new(config.size, bytes));
    let scheduler = sched::Scheduler::new(config.size);
    let shared = SharedComm::new(config, faults, scheduler, tapes);
    let (exits, deadlock) = run_cooperative(&shared, opts, f);
    let (outcomes, tapes): (Vec<_>, Vec<_>) =
        exits.into_iter().map(|e| (e.outcome, e.tape)).unzip();
    let result = collect_outcomes(outcomes, deadlock);
    // Past `collect_outcomes` no rank crashed, and a traced job's tapes
    // are unbounded, so every rank kept one.
    let trace = trace.map(|detail| {
        let ranks: Vec<&RankTape> = tapes.iter().flatten().collect();
        assert_eq!(
            ranks.len(),
            shared.model.size,
            "a traced rank lost its tape"
        );
        tape::trace(&ranks, &shared.model, detail)
    });
    let tape = match (&result, &shared.tapes) {
        (Ok(_), Some(budget)) => budget.collect(tapes),
        _ => None,
    };
    (result, trace, tape)
}

/// How a rank body's return (or unwind) ends the rank: its outcome and
/// what it recorded.
fn rank_exit<T>(rank: usize, comm: SimComm, out: std::thread::Result<T>) -> RankExit<T> {
    let outcome = match out {
        Ok(value) => RankOutcome::Ok(RankResult {
            rank,
            value,
            clock: comm.clock(),
            stats: *comm.stats(),
        }),
        Err(payload) => outcome_of_unwind(payload),
    };
    RankExit {
        outcome,
        tape: comm.into_tape(),
    }
}

/// Cooperative worker-pool size: explicit request, else host parallelism,
/// always within `[1, size]`.
fn resolve_workers(requested: usize, size: usize) -> usize {
    let w = if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(32)
    } else {
        requested
    };
    w.clamp(1, size.max(1))
}

/// Runs the ranks as stackful coroutines on a fixed worker pool.
fn run_cooperative<T, F>(
    shared: &Arc<SharedComm>,
    opts: EngineOpts,
    f: F,
) -> (Vec<RankExit<T>>, Option<String>)
where
    T: Send,
    F: Fn(&mut SimComm) -> T + Send + Sync,
{
    let scheduler = &shared.sched;
    let size = shared.model.size;
    let workers = resolve_workers(opts.workers, size);

    let slots: Vec<Mutex<Option<RankExit<T>>>> = (0..size).map(|_| Mutex::new(None)).collect();
    let stacks = sched::context::job_stacks(size, DEFAULT_TASK_STACK_BYTES);
    let mut tasks: Vec<Box<sched::TaskCtl>> = stacks
        .into_iter()
        .enumerate()
        .map(|(rank, stack)| {
            let shared = shared.clone();
            let f = &f;
            let slot = &slots[rank];
            let body: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let mut comm = SimComm::new(rank, shared);
                let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut comm)));
                let exit = rank_exit(rank, comm, out);
                *slot
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(exit);
            });
            // Erasure is sound: every task runs to completion inside the
            // scope below, which the borrows of `f`/`slots`/`shared` outlive.
            sched::TaskCtl::new(rank, stack, sched::erase_task_lifetime(body))
        })
        .collect();
    let table = sched::TaskTable::new(&mut tasks);

    std::thread::scope(|scope| {
        for _ in 1..workers {
            let table = &table;
            scope.spawn(move || scheduler.worker_loop(shared, table));
        }
        // The calling thread is worker 0: a single-worker run spawns no
        // threads at all.
        scheduler.worker_loop(shared, &table);
    });
    drop(table);

    let exits = slots
        .into_iter()
        .zip(tasks.iter_mut())
        .map(|(slot, task)| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                // The body never stored an exit: an unwind escaped its
                // catch_unwind. Propagate the captured payload.
                .unwrap_or_else(|| {
                    RankExit::crashed(format!(
                        "rank task crashed: {}",
                        task.crash_message()
                            .unwrap_or_else(|| "no outcome recorded".into())
                    ))
                })
        })
        .collect();
    (exits, scheduler.deadlock_report())
}

/// Folds per-rank outcomes into the engine result. Failure precedence:
/// first application panic (by rank), then earliest injected fault, then
/// the deadlock report.
fn collect_outcomes<T>(outcomes: Vec<RankOutcome<T>>, deadlock: Option<String>) -> JobResult<T> {
    let mut results = Vec::with_capacity(outcomes.len());
    let mut first_fault: Option<RankFailed> = None;
    let mut first_panic: Option<(usize, String)> = None;
    let mut poisoned_without_cause = false;
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            RankOutcome::Ok(r) => results.push(r),
            RankOutcome::Fault(rf) => {
                // Earliest loss in virtual time wins; node id breaks ties so
                // the selection is a pure function of the plan.
                let earlier = first_fault
                    .map(|cur| (rf.at, rf.node) < (cur.at, cur.node))
                    .unwrap_or(true);
                if earlier {
                    first_fault = Some(rf);
                }
            }
            RankOutcome::Poisoned => poisoned_without_cause = true,
            RankOutcome::Panic(e) => {
                if first_panic.is_none() {
                    first_panic = Some((rank, e));
                }
            }
        }
    }
    if let Some((rank, e)) = first_panic {
        panic!("rank {rank} panicked: {e}");
    }
    if let Some(rf) = first_fault {
        return Err(rf);
    }
    if let Some(report) = deadlock {
        panic!("{report}");
    }
    assert!(
        !poisoned_without_cause,
        "job poisoned but no rank reported a root cause"
    );
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Payload;
    use crate::fault::SlowWindow;
    use crate::work::Work;
    use hetero_trace::TraceEvent;

    fn cfg(size: usize) -> SpmdConfig {
        SpmdConfig {
            size,
            topo: ClusterTopology::uniform(size, 1),
            net: NetworkModel::ideal(),
            compute: ComputeModel::new(1e9, 1e9),
            seed: 0,
        }
    }

    #[test]
    fn results_are_ordered_by_rank() {
        let r = run_spmd(cfg(8), |comm| comm.rank() * 10);
        for (i, res) in r.iter().enumerate() {
            assert_eq!(res.rank, i);
            assert_eq!(res.value, i * 10);
        }
    }

    #[test]
    fn single_rank_job() {
        let r = run_spmd(cfg(1), |comm| comm.size());
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].value, 1);
        assert_eq!(r[0].clock, 0.0);
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked")]
    fn rank_panic_propagates() {
        run_spmd(cfg(4), |comm| {
            if comm.rank() == 2 {
                panic!("boom at rank 2");
            }
        });
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn panic_unblocks_waiting_peers() {
        // Rank 0 waits for a message that will never come because rank 1
        // panics; the job must unwind, not deadlock.
        run_spmd(cfg(2), |comm| {
            if comm.rank() == 0 {
                let _ = comm.recv(1, 9);
            } else {
                panic!("sender died");
            }
        });
    }

    #[test]
    fn many_ranks_work() {
        let r = run_spmd(cfg(64), |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 0, Payload::Usize(vec![comm.rank()]));
            comm.recv_usize(prev, 0)[0]
        });
        for (i, res) in r.iter().enumerate() {
            assert_eq!(res.value, (i + 64 - 1) % 64);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds cluster capacity")]
    fn oversubscribed_topology_rejected() {
        let mut c = cfg(4);
        c.topo = ClusterTopology::uniform(1, 2);
        run_spmd(c, |_| ());
    }

    #[test]
    fn node_loss_surfaces_as_err_not_deadlock() {
        // Rank 1's node dies at t = 1 s; rank 0 blocks on a message rank 1
        // will never send. The job must unwind and report the loss.
        let plan = FaultPlan {
            node_down_at: vec![f64::INFINITY, 1.0],
            slow_windows: vec![],
        };
        let (out, _) = run_spmd_opts(cfg(2), EngineOpts::default(), plan, None, |comm| {
            if comm.rank() == 0 {
                let _ = comm.recv(1, 3);
            } else {
                comm.compute(Work::new(5e9, 0.0)); // 5 virtual seconds > 1
                comm.send(0, 3, Payload::Empty);
            }
        });
        let rf = out.unwrap_err();
        assert_eq!(rf.node, 1);
        assert_eq!(rf.at, 1.0);
    }

    #[test]
    fn earliest_fault_wins_deterministically() {
        // Two independent nodes die; the report must name the earlier one
        // no matter which worker unwinds first.
        let plan = FaultPlan {
            node_down_at: vec![f64::INFINITY, 2.0, 0.5, f64::INFINITY],
            slow_windows: vec![],
        };
        for _ in 0..8 {
            let (out, _) =
                run_spmd_opts(cfg(4), EngineOpts::default(), plan.clone(), None, |comm| {
                    comm.compute(Work::new(10e9, 0.0)); // 10 virtual seconds
                });
            let rf = out.unwrap_err();
            assert_eq!((rf.node, rf.at), (2, 0.5));
        }
    }

    #[test]
    fn traced_run_records_deterministic_ordered_events() {
        let body = |comm: &mut SimComm| {
            comm.compute(Work::new(1e9, 0.0));
            let _ = comm.allreduce_scalar(crate::collectives::ReduceOp::Sum, 1.0);
            let _ = comm.allgather_usize(&[comm.rank()]);
            comm.clock()
        };
        let run = || {
            let (res, trace) = run_spmd_opts(
                cfg(4),
                EngineOpts::default(),
                FaultPlan::none(),
                Some(TraceSpec::messages()),
                body,
            );
            (res.unwrap(), trace.unwrap())
        };
        let (res_a, trace_a) = run();
        let (_res_b, trace_b) = run();
        assert!(!trace_a.is_empty());
        // Identical configs give bitwise-identical traces and exports.
        assert_eq!(trace_a, trace_b);
        assert_eq!(trace_a.jsonl(), trace_b.jsonl());
        // Events are in canonical (at, rank, seq) order.
        let mut sorted = trace_a.clone();
        sorted.sort();
        assert_eq!(trace_a, sorted);
        // Collectives and p2p traffic both made it in.
        use hetero_trace::EventKind;
        assert!(trace_a.events.iter().any(|e| matches!(
            e.kind,
            EventKind::Collective {
                op: "allgather",
                ..
            }
        )));
        assert!(trace_a
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SendMsg { .. })));
        // Tracing never perturbs virtual time.
        let untraced = run_spmd(cfg(4), body);
        for (t, u) in res_a.iter().zip(&untraced) {
            assert_eq!(t.value, u.value);
        }
    }

    /// Each rank's events of `trace`, in program order, after checking
    /// that the rank's sequence numbers run contiguously from 0.
    fn per_rank(trace: &Trace, size: usize) -> Vec<Vec<TraceEvent>> {
        let mut ranks = vec![Vec::new(); size];
        for e in &trace.events {
            ranks[e.rank as usize].push(*e);
        }
        for (rank, events) in ranks.iter_mut().enumerate() {
            events.sort_by_key(|e| e.seq);
            for (i, e) in events.iter().enumerate() {
                assert_eq!(e.seq, i as u64, "rank {rank}'s seq has a gap");
            }
        }
        ranks
    }

    #[test]
    fn a_rank_keeps_every_event_it_records() {
        // Each rank records 2 × 5000 message events, more than any fixed
        // per-rank buffer of a few thousand would hold.
        let msgs = 5000;
        let (res, trace) = run_spmd_opts(
            cfg(2),
            EngineOpts::default(),
            FaultPlan::none(),
            Some(TraceSpec::messages()),
            |comm| {
                let peer = 1 - comm.rank();
                for i in 0..msgs {
                    comm.send(peer, i, Payload::Empty);
                    let _ = comm.recv(peer, i);
                }
            },
        );
        res.unwrap();
        let ranks = per_rank(&trace.unwrap(), 2);
        for events in &ranks {
            assert_eq!(events.len(), 2 * msgs as usize);
        }
    }

    #[test]
    fn a_felled_job_returns_every_ranks_events_up_to_its_exit() {
        // Four ranks on four nodes in a ring. Node 2 dies mid-run: rank 2
        // observes the loss, and rank 3, waiting on rank 2's next message,
        // is poisoned, and so on around the ring.
        let mut c = cfg(4);
        c.topo = ClusterTopology::uniform(4, 1);
        c.net = NetworkModel::gigabit_ethernet();
        let body = |comm: &mut SimComm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            for step in 0..40 {
                comm.send(right, step, Payload::F64(vec![1.0; 64]));
                let _ = comm.recv_f64(left, step);
                comm.compute(Work::new(1e7, 0.0));
                if step % 8 == 7 {
                    let _ = comm.allreduce_scalar(crate::collectives::ReduceOp::Sum, 1.0);
                }
            }
        };
        let run = |opts: EngineOpts, faults: FaultPlan| {
            let (res, trace) =
                run_spmd_opts(c.clone(), opts, faults, Some(TraceSpec::messages()), body);
            (res.map(|_| ()), trace.unwrap())
        };
        let (clean_res, clean) = run(EngineOpts::default(), FaultPlan::none());
        clean_res.unwrap();
        let clean = per_rank(&clean, 4);
        let plan = FaultPlan {
            node_down_at: vec![f64::INFINITY, f64::INFINITY, 0.2, f64::INFINITY],
            slow_windows: vec![],
        };
        let mut exports = Vec::new();
        for opts in [
            EngineOpts::cooperative(1),
            EngineOpts::cooperative(3),
            EngineOpts::default(),
        ] {
            let (res, trace) = run(opts, plan.clone());
            let rf = res.unwrap_err();
            assert_eq!((rf.node, rf.at), (2, 0.2), "{opts:?}");
            // Every rank, the dead one and the poisoned ones too, kept
            // what it recorded before it exited: a proper prefix of its
            // fault-free events.
            for (rank, events) in per_rank(&trace, 4).iter().enumerate() {
                assert!(!events.is_empty(), "{opts:?}: rank {rank} lost its events");
                assert!(events.len() < clean[rank].len(), "{opts:?}: rank {rank}");
                assert_eq!(events[..], clean[rank][..events.len()], "{opts:?}");
            }
            exports.push(trace.jsonl());
        }
        assert!(exports.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn trivial_plan_changes_nothing() {
        let body = |comm: &mut SimComm| {
            comm.compute(Work::new(1e9, 0.0));
            comm.clock()
        };
        let base = run_spmd(cfg(2), body);
        let (faulted, _) =
            run_spmd_opts(cfg(2), EngineOpts::default(), FaultPlan::none(), None, body);
        let faulted = faulted.unwrap();
        assert_eq!(base[0].value, faulted[0].value);
        assert_eq!(base[1].value, faulted[1].value);
    }

    #[test]
    fn degradation_window_slows_covered_messages_only() {
        let clock_of = |windows: Vec<SlowWindow>| {
            let plan = FaultPlan {
                node_down_at: vec![],
                slow_windows: windows,
            };
            let mut c = cfg(2);
            c.net = NetworkModel::gigabit_ethernet();
            let (r, _) = run_spmd_opts(c, EngineOpts::default(), plan, None, |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, Payload::F64(vec![0.0; 100_000]));
                    0.0
                } else {
                    let _ = comm.recv_f64(0, 1);
                    comm.clock()
                }
            });
            let r = r.unwrap();
            r[1].value
        };
        let clean = clock_of(vec![]);
        let covered = clock_of(vec![SlowWindow {
            start: 0.0,
            end: 10.0,
            factor: 4.0,
        }]);
        let missed = clock_of(vec![SlowWindow {
            start: 100.0,
            end: 110.0,
            factor: 4.0,
        }]);
        assert!(covered > 2.0 * clean, "{covered} vs {clean}");
        assert_eq!(missed, clean);
    }

    /// A small communication-heavy body whose result depends on real data
    /// movement, virtual clocks, and jitter.
    fn ring_body(comm: &mut SimComm) -> (f64, f64) {
        let right = (comm.rank() + 1) % comm.size();
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        let mut acc = comm.rank() as f64;
        for step in 0..4 {
            comm.send(right, 7, Payload::F64(vec![acc; 200]));
            let v = comm.recv_f64(left, 7);
            acc += v[0] * 0.5;
            comm.compute(Work::new(1e7 * (step + 1) as f64, 1e6));
        }
        (acc, comm.clock())
    }

    /// One worker against several.
    #[test]
    fn worker_pools_agree_bitwise() {
        let mut c = cfg(12);
        c.net = NetworkModel::ten_gig_ethernet_ec2();
        c.topo = ClusterTopology::uniform(3, 4);
        c.seed = 9;
        let run = |opts: EngineOpts| {
            let (res, _) = run_spmd_opts(c.clone(), opts, FaultPlan::none(), None, ring_body);
            res.unwrap()
                .into_iter()
                .map(|r| (r.value, r.clock.to_bits()))
                .collect::<Vec<_>>()
        };
        let one = run(EngineOpts::cooperative(1));
        for workers in [2, 4, 7, 0] {
            assert_eq!(run(EngineOpts::cooperative(workers)), one, "{workers}");
        }
    }

    #[test]
    fn a_5000_rank_ring_completes() {
        let size = 5000;
        let mut c = cfg(size);
        c.topo = ClusterTopology::uniform(size.div_ceil(16), 16);
        let r = run_spmd(c, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 0, Payload::Usize(vec![comm.rank()]));
            comm.recv_usize(prev, 0)[0]
        });
        assert_eq!(r.len(), size);
        for (i, res) in r.iter().enumerate() {
            assert_eq!(res.value, (i + size - 1) % size);
        }
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        // Ranks 0 and 1 both recv before sending: a 2-cycle.
        let err = std::panic::catch_unwind(|| {
            run_spmd(cfg(2), |comm| {
                let peer = 1 - comm.rank();
                let _ = comm.recv(peer, 5);
                comm.send(peer, 5, Payload::Empty);
            })
        })
        .unwrap_err();
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("job deadlocked"), "got: {msg}");
        assert!(
            msg.contains("rank 0 waits on recv(src=1, tag=5)"),
            "got: {msg}"
        );
        assert!(
            msg.contains("rank 1 waits on recv(src=0, tag=5)"),
            "got: {msg}"
        );
    }

    #[test]
    fn deadlock_report_is_deterministic() {
        let report = || {
            let err = std::panic::catch_unwind(|| {
                run_spmd(cfg(4), |comm| {
                    // 4-cycle: everyone waits on its left neighbour.
                    let left = (comm.rank() + comm.size() - 1) % comm.size();
                    let _ = comm.recv(left, 2);
                })
            })
            .unwrap_err();
            panic_message(err.as_ref())
        };
        assert_eq!(report(), report());
    }

    /// One worker against several.
    #[test]
    fn faulted_runs_agree_across_worker_pools() {
        let plan = FaultPlan {
            node_down_at: vec![f64::INFINITY, f64::INFINITY, 0.02, f64::INFINITY],
            slow_windows: vec![SlowWindow {
                start: 0.0,
                end: 0.01,
                factor: 3.0,
            }],
        };
        let mut c = cfg(8);
        c.net = NetworkModel::gigabit_ethernet();
        c.topo = ClusterTopology::uniform(4, 2);
        let run = |opts: EngineOpts| {
            let (res, _) = run_spmd_opts(c.clone(), opts, plan.clone(), None, ring_body);
            res.unwrap_err()
        };
        let one = run(EngineOpts::cooperative(1));
        for workers in [3, 0] {
            let c = run(EngineOpts::cooperative(workers));
            assert_eq!((c.node, c.at.to_bits()), (one.node, one.at.to_bits()));
        }
    }

    #[test]
    fn crash_outside_body_keeps_its_payload() {
        // `recv` panics a bounds assert *before* entering the body's
        // catch_unwind? No — easiest honest probe: a body panic with a
        // distinctive payload must survive into the engine panic message.
        let err = std::panic::catch_unwind(|| {
            run_spmd(cfg(2), |comm| {
                if comm.rank() == 1 {
                    panic!("distinctive payload 0xBEEF");
                }
                let _ = comm.recv(1, 1);
            })
        })
        .unwrap_err();
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("distinctive payload 0xBEEF"), "got: {msg}");
    }
}
