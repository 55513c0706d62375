//! Resilient execution: the checkpoint → fault → rollback → re-acquire →
//! resume loop, in deterministic virtual time.
//!
//! [`execute_resilient`] wraps the two engines of [`crate::run`] with the
//! fault subsystem of [`hetero_fault`] (the numerical attempt itself is
//! `crate::attempt`'s, shared with the plain path):
//!
//! * each attempt acquires a fleet via [`acquire_fleet`] (restart **with
//!   re-acquisition**: a revoked spot fleet is re-bid from scratch under a
//!   fresh attempt seed),
//! * a [`FaultTimeline`] sampled for the attempt is lowered to the
//!   engine-level [`hetero_simmpi::FaultPlan`] and injected into the
//!   SPMD engine, which surfaces the first node loss as a
//!   [`hetero_simmpi::RankFailed`] error instead of a deadlock,
//! * the numerical path checkpoints through [`Snapshot`] at the policy's
//!   cadence (rank 0 writes to a simulated shared filesystem that survives
//!   the attempt), charges the write to every rank's virtual clock, and
//!   resumes the solver **bitwise** from the last durable checkpoint, and
//! * the modeled path replays the identical campaign analytically through
//!   [`hetero_fault::replay_campaign_observed`] for paper-scale rank counts.
//!
//! Everything — market epochs, crash times, checkpoint instants, restart
//! waits — is hash-derived from the experiment seed, so the same seed gives
//! a byte-identical [`RecoveryStats`] on any host at any thread count.

use crate::apps::App;
use crate::attempt::{outcome, run_attempt, Measured};
use crate::modeled::{run_modeled_prepared, weak_scaling_grid, ModeledRun};
use crate::prep::{ff_memo_key, FfProfile};
use crate::run::{resolve_fidelity, Fidelity, RunOutcome, RunRequest};
use crate::snapshot::Snapshot;
use hetero_fault::{
    replay_campaign_observed, AttemptEnv, CampaignEvent, CrashProcess, FaultKind, FaultModel,
    FaultTimeline, RecoveryStats, ResiliencePolicy, SpotMarket,
};
use hetero_fem::element::ElementOrder;
use hetero_fem::ns::{NsConfig, NsResume, NsStepView};
use hetero_fem::rd::{RdConfig, RdResume, RdStepView};
use hetero_platform::limits::LimitViolation;
use hetero_platform::spot::{acquire_fleet, FleetAllocation, FleetStrategy};
use hetero_platform::PlatformSpec;
use hetero_simmpi::rng::splitmix64;
use hetero_simmpi::{ClusterTopology, SimComm, SpmdConfig};
use hetero_trace::{EventKind, Trace};
use serde::{Deserialize, Serialize, Value};
use std::sync::Mutex;

/// How a run acquires its fleet, what can go wrong, and what it does about
/// it. Attached to [`RunRequest::resilience`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilienceSpec {
    /// Checkpoint cadence, restart budget, backoff, and store bandwidth.
    pub policy: ResiliencePolicy,
    /// The fault processes active during the run.
    pub faults: FaultModel,
    /// How each attempt's fleet is acquired.
    pub strategy: FleetStrategy,
}

impl ResilienceSpec {
    /// On-demand capacity with the platform's hardware crash process and no
    /// checkpoints: faults are rare and fatal (the failure-free baseline).
    pub fn on_demand(platform: &PlatformSpec) -> Self {
        ResilienceSpec {
            policy: ResiliencePolicy::fail_fast(),
            faults: FaultModel {
                crashes: Some(CrashProcess {
                    node_mtbf_hours: platform.node_mtbf_hours,
                }),
                spot: None,
                degradation: None,
            },
            strategy: FleetStrategy::OnDemandSingleGroup,
        }
    }

    /// A spot-mix fleet under a live revocation market plus the platform's
    /// crash process, protected by checkpoint/restart.
    pub fn spot_with_restart(
        platform: &PlatformSpec,
        max_bid: f64,
        checkpoint_every: usize,
        max_restarts: usize,
    ) -> Self {
        ResilienceSpec {
            policy: ResiliencePolicy::restart(checkpoint_every, max_restarts),
            faults: FaultModel {
                crashes: Some(CrashProcess {
                    node_mtbf_hours: platform.node_mtbf_hours,
                }),
                spot: Some(SpotMarket::ec2_like(max_bid)),
                degradation: None,
            },
            strategy: FleetStrategy::SpotMix { groups: 4, max_bid },
        }
    }
}

/// What a resilient campaign produced: the final run's outcome (when the
/// campaign finished within its restart budget) plus the full time/dollar
/// accounting across all attempts.
#[derive(Debug, Clone)]
pub struct ResilienceOutcome {
    /// The completed run, `None` if the restart budget ran out first.
    pub outcome: Option<RunOutcome>,
    /// Campaign accounting: attempts, faults, checkpoints, lost work,
    /// waits, and expected wall-clock/dollars.
    pub stats: RecoveryStats,
    /// Spot nodes held by the first attempt's fleet.
    pub first_attempt_spot_nodes: usize,
    /// The campaign timeline as a trace, when [`RunRequest::trace`] asked
    /// for one: attempt starts, revocations, rollbacks, durable checkpoint
    /// commits, per-attempt fleet expenses, and the closing time-account
    /// summary, all stamped in campaign-absolute virtual seconds. For the
    /// numerical engine the completed attempt's full per-rank trace is
    /// merged in (shifted to its campaign start); felled attempts
    /// contribute campaign-level events only — their partial per-rank
    /// spans describe work the rollback discarded, so the campaign keeps
    /// just the incident record.
    pub trace: Option<Trace>,
}

// Hand-written for the same reason as `RunOutcome`: the campaign trace
// holds borrowed labels and is a replay artifact, so it serializes as
// `null` and reads back as `None`.
impl Serialize for ResilienceOutcome {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("outcome".to_string(), self.outcome.serialize_value()),
            ("stats".to_string(), self.stats.serialize_value()),
            (
                "first_attempt_spot_nodes".to_string(),
                self.first_attempt_spot_nodes.serialize_value(),
            ),
            ("trace".to_string(), Value::Null),
        ])
    }
}

impl Deserialize for ResilienceOutcome {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(ResilienceOutcome {
            outcome: Option::<RunOutcome>::deserialize_value(v.field("outcome"))?,
            stats: RecoveryStats::deserialize_value(v.field("stats"))?,
            first_attempt_spot_nodes: usize::deserialize_value(
                v.field("first_attempt_spot_nodes"),
            )?,
            trace: None,
        })
    }
}

/// Seed for restart attempt `attempt` (0 = the initial launch). Each
/// attempt re-samples the market, the crash process, and the network
/// jitter under an independent hash stream.
fn attempt_seed(seed: u64, attempt: usize) -> u64 {
    splitmix64(seed ^ (attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F))
}

fn global_dofs(order: ElementOrder, ranks: usize, per_rank_axis: usize) -> f64 {
    let (_, n) = weak_scaling_grid(ranks, per_rank_axis);
    let q = order.q();
    ((q * n.0 + 1) * (q * n.1 + 1) * (q * n.2 + 1)) as f64
}

/// Bytes one durable checkpoint of `app`'s full resume state occupies (the
/// dense global fields rank 0 writes through the shared store).
fn state_bytes(app: &App, ranks: usize, per_rank_axis: usize) -> f64 {
    match app {
        App::Rd(c) => global_dofs(c.order, ranks, per_rank_axis) * c.bdf.steps() as f64 * 8.0,
        App::Ns(c) => {
            let v = global_dofs(c.vel_order, ranks, per_rank_axis);
            let p = global_dofs(c.p_order, ranks, per_rank_axis);
            (v * 3.0 * c.bdf.steps() as f64 + p) * 8.0
        }
    }
}

/// The node-hour price the on-demand top-up pays on this platform.
fn on_demand_node_hour(platform: &PlatformSpec) -> f64 {
    platform.cost_of(platform.cores_per_node, 3600.0)
}

/// Executes a run under its [`ResilienceSpec`] (platform-default on-demand
/// fail-fast when the request carries none), returning the campaign
/// accounting alongside the final outcome.
///
/// # Errors
/// Platform limits are enforced *before* the attempt loop: an infeasible
/// size (e.g. `ellipse` above 512 ranks) is a [`LimitViolation`]
/// immediately — bounded backoff never retries a structurally impossible
/// launch.
///
/// Beyond the modeled views shared with [`crate::run::execute`], the
/// resilient path memoizes its failure-free reference profile
/// `(fleet0, ff)` in the run's [`crate::prep::PreparedScenario`]:
/// the profile is a pure function of the request minus its
/// cadence/policy/host knobs (see `prep::ff_memo_key`), so a
/// checkpoint-cadence sweep replays it once per
/// `(platform, ranks, seed, strategy, app)` combination. The per-call
/// derived quantities (`ckpt_seconds`, `horizon`, the limit checks) are
/// always recomputed from the request, so outcomes are byte-identical
/// whichever scenario serves them.
pub fn execute_resilient(req: &RunRequest) -> Result<ResilienceOutcome, LimitViolation> {
    crate::run::check_not_degenerate(req)?;
    let req = &req.normalized();
    let scen = crate::prep::resolve(req);
    let spec = req
        .resilience
        .clone()
        .unwrap_or_else(|| ResilienceSpec::on_demand(&req.platform));

    // Capacity/launcher limits first, then the traffic estimate — as in
    // `execute`, and deliberately ahead of any attempt: a launcher failure
    // is not a fault to retry.
    req.platform.check_limits(req.ranks, 0.0)?;
    let nodes = req.platform.topology(req.ranks).num_nodes();
    let od_rate = on_demand_node_hour(&req.platform);

    // The failure-free reference profile, memoized in the scenario: the
    // values of the closed-form modeled replays below.
    let profile = scen.ff_profile_or_compute(&ff_memo_key(req, spec.strategy), || {
        let modeled = |app: &App, topo: &ClusterTopology| {
            run_modeled_prepared(
                app,
                scen.modeled(),
                topo,
                &req.platform.network,
                req.platform.compute,
                req.seed,
            )
        };
        let fleet0 = acquire_fleet(nodes, spec.strategy, od_rate, attempt_seed(req.seed, 0));
        let ff = modeled(&req.app, &fleet0.topology(req.platform.cores_per_node));
        FfProfile { fleet0, ff }
    });
    let FfProfile { fleet0, ff } = profile.as_ref();
    // A replay's traffic depends on the neighbour lists and the app only,
    // not on the fleet it ran on: the failure-free replay is the probe.
    req.platform
        .check_limits(req.ranks, ff.bytes_per_iteration)?;

    let ckpt_seconds =
        state_bytes(&req.app, req.ranks, req.per_rank_axis) / spec.policy.io_bandwidth;

    // Failure-free duration estimate sizes the fault-sampling horizon (with
    // generous slack for restart-induced re-execution).
    let ff_total: f64 = ff.iterations.iter().map(|p| p.total).sum();
    let horizon = 4.0 * (ff_total + req.app.steps() as f64 * ckpt_seconds) + 7200.0;

    Ok(match resolve_fidelity(req) {
        Fidelity::Numerical => run_resilient_numerical(req, &spec, nodes, horizon, od_rate),
        Fidelity::Modeled | Fidelity::Auto => run_resilient_modeled(
            req,
            &spec,
            nodes,
            horizon,
            od_rate,
            ckpt_seconds,
            ff,
            fleet0,
        ),
    })
}

fn attempt_wait(req: &RunRequest, nodes: usize, attempt: usize) -> f64 {
    if attempt == 0 {
        req.platform.queue_wait(req.ranks, req.seed)
    } else {
        req.platform
            .queue
            .reacquisition_wait_seconds(nodes, req.seed, attempt)
    }
}

#[allow(clippy::too_many_arguments)]
fn run_resilient_modeled(
    req: &RunRequest,
    spec: &ResilienceSpec,
    nodes: usize,
    horizon: f64,
    od_rate: f64,
    ckpt_seconds: f64,
    ff: &ModeledRun,
    fleet0: &FleetAllocation,
) -> ResilienceOutcome {
    let step_seconds: Vec<f64> = ff.iterations.iter().map(|p| p.total).collect();
    let traced = req.trace.is_some();
    // Per-attempt fatal node ids (captured while the env closure has the
    // attempt's timeline in hand) and the campaign incidents, both only
    // collected when a trace was requested.
    let mut fatal_nodes: Vec<Option<u32>> = Vec::new();
    let mut incidents: Vec<CampaignEvent> = Vec::new();
    let stats = replay_campaign_observed(
        &step_seconds,
        ckpt_seconds,
        &spec.policy,
        |attempt| {
            let aseed = attempt_seed(req.seed, attempt);
            let fleet = acquire_fleet(nodes, spec.strategy, od_rate, aseed);
            let timeline = FaultTimeline::generate(
                &spec.faults,
                nodes,
                &fleet.spot_node_indices(),
                horizon,
                aseed,
            );
            if traced {
                fatal_nodes.push(timeline.first_fatal().map(|e| match &e.kind {
                    FaultKind::NodeCrash { node } => *node as u32,
                    // A spot revocation fells the whole spot share at
                    // once; attribute it to the first spot node.
                    _ => fleet.spot_node_indices().first().copied().unwrap_or(0) as u32,
                }));
            }
            AttemptEnv {
                fatal_at: timeline.first_fatal().map(|e| e.time),
                wait_seconds: attempt_wait(req, nodes, attempt),
                hourly_cost: fleet.hourly_cost(),
            }
        },
        |e| {
            if traced {
                incidents.push(e);
            }
        },
    );

    let ckpt_bytes = state_bytes(&req.app, req.ranks, req.per_rank_axis);
    let trace = traced.then(|| {
        let mut t = Trace::default();
        push_campaign_incidents(&mut t, &incidents, &fatal_nodes, ckpt_bytes);
        push_time_accounts(&mut t, &stats);
        t.sort();
        t
    });

    let outcome = stats
        .completed
        .then(|| outcome(req, nodes, Measured::modeled(req, ff), |t| fleet0.cost(t)));
    ResilienceOutcome {
        outcome,
        stats,
        first_attempt_spot_nodes: fleet0.spot_count(),
        trace,
    }
}

/// Lowers the analytic replay's campaign incidents to trace events.
fn push_campaign_incidents(
    trace: &mut Trace,
    incidents: &[CampaignEvent],
    fatal_nodes: &[Option<u32>],
    ckpt_bytes: f64,
) {
    for e in incidents {
        match *e {
            CampaignEvent::AttemptStart { attempt, at } => trace.push_campaign(
                at,
                EventKind::AttemptStart {
                    attempt: attempt as u32,
                },
            ),
            CampaignEvent::CheckpointCommit { step, at } => trace.push_campaign(
                at,
                EventKind::Checkpoint {
                    step: step as u32,
                    bytes: ckpt_bytes,
                },
            ),
            CampaignEvent::Fault { attempt, at } => trace.push_campaign(
                at,
                EventKind::Revocation {
                    node: fatal_nodes.get(attempt).copied().flatten().unwrap_or(0),
                },
            ),
            CampaignEvent::Rollback {
                to_step,
                lost_seconds,
                at,
            } => trace.push_campaign(
                at,
                EventKind::Rollback {
                    to_step: to_step as u32,
                    lost_seconds,
                },
            ),
            CampaignEvent::Billed { dollars, at, .. } => {
                trace.push_campaign(
                    at,
                    EventKind::Expense {
                        account: "fleet",
                        dollars,
                    },
                );
            }
        }
    }
}

/// Closes a campaign trace with the recovery accounting identity: one
/// time-account instant per bucket, stamped at the campaign's end.
fn push_time_accounts(trace: &mut Trace, stats: &RecoveryStats) {
    let at = stats.total_seconds;
    for (account, seconds) in [
        ("wait", stats.wait_seconds),
        ("backoff", stats.backoff_seconds),
        ("checkpoint", stats.checkpoint_seconds),
        ("lost_work", stats.lost_work_seconds),
        ("compute", stats.compute_seconds),
    ] {
        trace.push_campaign(at, EventKind::TimeAccount { account, seconds });
    }
}

/// The simulated shared filesystem: rank 0's durable checkpoint writes
/// survive the attempt that made them (the role the paper's HDF5 files on
/// shared storage play for LifeV restarts). Nothing is serialized: the
/// store holds the snapshot in memory and the write is a modeled I/O
/// charge on the virtual clocks.
#[derive(Default)]
struct CheckpointStore {
    /// Last durable checkpoint.
    latest: Option<(usize, Snapshot)>,
    writes: usize,
    /// Rank 0's virtual clock right after the last durable write of the
    /// *current* attempt (0 when the attempt has written nothing yet).
    attempt_ckpt_clock: f64,
}

/// The solver state an attempt resumes from.
pub(crate) enum ResumeState {
    Rd(RdResume),
    Ns(NsResume),
}

/// A campaign's checkpoint hook: the store plus the policy that decides
/// when to write to it and what a write costs. `crate::attempt` calls
/// [`Checkpointer::rd_step`] / [`Checkpointer::ns_step`] after every step
/// of every rank.
pub(crate) struct Checkpointer {
    store: Mutex<CheckpointStore>,
    policy: ResiliencePolicy,
    total_steps: usize,
    /// Virtual seconds one durable write charges every rank.
    io_seconds: f64,
    /// Bytes of the dense state (recorded in the trace).
    bytes: f64,
}

impl Checkpointer {
    fn store(&self) -> std::sync::MutexGuard<'_, CheckpointStore> {
        self.store.lock().expect("checkpoint store never poisoned")
    }

    /// The state the next attempt resumes from: `None` before the first
    /// durable checkpoint.
    fn resume_state(&self, app: &App) -> Option<ResumeState> {
        let guard = self.store();
        let (step, snap) = guard.latest.as_ref()?;
        let dense = |name: &str| -> Vec<f64> {
            snap.field(name)
                .unwrap_or_else(|| panic!("checkpoint missing field {name}"))
                .values
                .clone()
        };
        Some(match app {
            App::Rd(c) => ResumeState::Rd(RdResume {
                start_step: *step,
                history: (0..c.bdf.steps())
                    .map(|j| dense(&format!("h{j}")))
                    .collect(),
            }),
            App::Ns(c) => ResumeState::Ns(NsResume {
                start_step: *step,
                hist: (0..c.bdf.steps())
                    .map(|j| [0, 1, 2].map(|k| dense(&format!("v{j}_{k}"))))
                    .collect(),
                pressure: dense("p"),
            }),
        })
    }

    /// The RD step hook: checkpoints the BDF history when the policy says
    /// one is due.
    pub(crate) fn rd_step(&self, c: &RdConfig, view: &RdStepView<'_>, comm: &mut SimComm) {
        if !self.policy.checkpoint_due(view.step, self.total_steps) {
            return;
        }
        let t = c.t0 + view.step as f64 * c.dt;
        let mut snap = Snapshot::new("RD", t, view.step);
        for (j, v) in view.history.iter().enumerate() {
            snap.capture(&format!("h{j}"), view.dm, v, comm);
        }
        self.commit(view.step, snap, comm);
    }

    /// The NS step hook: velocity history and pressure.
    pub(crate) fn ns_step(&self, c: &NsConfig, view: &NsStepView<'_>, comm: &mut SimComm) {
        if !self.policy.checkpoint_due(view.step, self.total_steps) {
            return;
        }
        let t = c.t0 + view.step as f64 * c.dt;
        let mut snap = Snapshot::new("NS", t, view.step);
        for (j, comps) in view.hist.iter().enumerate() {
            for (k, v) in comps.iter().enumerate() {
                snap.capture(&format!("v{j}_{k}"), view.vmap, v, comm);
            }
        }
        snap.capture("p", view.pmap, view.pressure, comm);
        self.commit(view.step, snap, comm);
    }

    /// Charges the durable write to every rank's virtual clock and commits
    /// it on rank 0. A rank felled *during* the charge unwinds before the
    /// commit, so an interrupted checkpoint is never durable.
    fn commit(&self, step: usize, snap: Snapshot, comm: &mut SimComm) {
        comm.advance(self.io_seconds);
        if comm.rank() == 0 {
            let mut s = self.store();
            s.latest = Some((step, snap));
            s.writes += 1;
            s.attempt_ckpt_clock = comm.clock();
            comm.trace_instant(EventKind::Checkpoint {
                step: step as u32,
                bytes: self.bytes,
            });
        }
    }
}

fn run_resilient_numerical(
    req: &RunRequest,
    spec: &ResilienceSpec,
    nodes: usize,
    horizon: f64,
    od_rate: f64,
) -> ResilienceOutcome {
    let bytes = state_bytes(&req.app, req.ranks, req.per_rank_axis);
    let ckpt = Checkpointer {
        store: Mutex::default(),
        policy: spec.policy,
        total_steps: req.app.steps(),
        io_seconds: bytes / spec.policy.io_bandwidth,
        bytes,
    };
    let max_restarts = spec.policy.max_restarts();

    let mut stats = RecoveryStats::default();
    let mut first_spot = 0usize;
    let mut completed: Option<RunOutcome> = None;
    let mut campaign: Option<Trace> = req.trace.map(|_| Trace::default());

    loop {
        let attempt = stats.attempts;
        let aseed = attempt_seed(req.seed, attempt);
        let fleet = acquire_fleet(nodes, spec.strategy, od_rate, aseed);
        if attempt == 0 {
            first_spot = fleet.spot_count();
        }
        let timeline = FaultTimeline::generate(
            &spec.faults,
            nodes,
            &fleet.spot_node_indices(),
            horizon,
            aseed,
        );
        let wait = attempt_wait(req, nodes, attempt);
        // Campaign-absolute time this attempt's compute starts.
        let start_abs = stats.total_seconds + wait;
        if let Some(c) = campaign.as_mut() {
            c.push_campaign(
                start_abs,
                EventKind::AttemptStart {
                    attempt: attempt as u32,
                },
            );
        }
        stats.attempts += 1;
        stats.wait_seconds += wait;
        ckpt.store().attempt_ckpt_clock = 0.0;

        let resume = ckpt.resume_state(&req.app);
        let cfg = SpmdConfig {
            size: req.ranks,
            topo: fleet.topology(req.platform.cores_per_node),
            net: req.platform.network.clone(),
            compute: req.platform.compute,
            seed: aseed,
        };
        // Felled attempts contribute campaign-level incident events alone;
        // only the completed attempt's own trace is kept.
        match run_attempt(req, cfg, timeline.to_plan(), resume.as_ref(), Some(&ckpt)) {
            Ok((measured, run_t)) => {
                stats.total_seconds += wait + run_t;
                stats.total_dollars += fleet.hourly_cost() * run_t / 3600.0;
                stats.completed = true;
                if let (Some(c), Some(t)) = (campaign.as_mut(), &measured.trace) {
                    let mut shifted = t.clone();
                    shifted.shift(start_abs);
                    c.merge(shifted);
                    c.push_campaign(
                        start_abs + run_t,
                        EventKind::Expense {
                            account: "fleet",
                            dollars: fleet.hourly_cost() * run_t / 3600.0,
                        },
                    );
                }
                completed = Some(outcome(req, nodes, measured, |t| fleet.cost(t)));
                break;
            }
            Err(failed) => {
                let (ckpt_clock, ckpt_step) = {
                    let s = ckpt.store();
                    (
                        s.attempt_ckpt_clock,
                        s.latest.as_ref().map_or(0, |(step, _)| *step),
                    )
                };
                stats.faults_injected += 1;
                stats.total_seconds += wait + failed.at;
                stats.total_dollars += fleet.hourly_cost() * failed.at / 3600.0;
                stats.lost_work_seconds += (failed.at - ckpt_clock).max(0.0);
                if let Some(c) = campaign.as_mut() {
                    let fail_abs = start_abs + failed.at;
                    c.push_campaign(
                        fail_abs,
                        EventKind::Revocation {
                            node: failed.node as u32,
                        },
                    );
                    c.push_campaign(
                        fail_abs,
                        EventKind::Rollback {
                            to_step: ckpt_step as u32,
                            lost_seconds: (failed.at - ckpt_clock).max(0.0),
                        },
                    );
                    c.push_campaign(
                        fail_abs,
                        EventKind::Expense {
                            account: "fleet",
                            dollars: fleet.hourly_cost() * failed.at / 3600.0,
                        },
                    );
                }
                let restarts_used = stats.attempts - 1;
                if restarts_used >= max_restarts {
                    break;
                }
                let delay = spec.policy.backoff.delay(restarts_used);
                stats.backoff_seconds += delay;
                stats.total_seconds += delay;
            }
        }
    }

    stats.checkpoints_written = ckpt.store().writes;
    stats.checkpoint_seconds = stats.checkpoints_written as f64 * ckpt.io_seconds;
    let run_seconds = stats.total_seconds - stats.wait_seconds - stats.backoff_seconds;
    stats.compute_seconds = run_seconds - stats.lost_work_seconds - stats.checkpoint_seconds;
    if let Some(c) = campaign.as_mut() {
        push_time_accounts(c, &stats);
        c.sort();
    }

    ResilienceOutcome {
        outcome: completed,
        stats,
        first_attempt_spot_nodes: first_spot,
        trace: campaign,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_fault::{Backoff, RecoveryMode};
    use hetero_platform::catalog;

    fn flaky_market(epoch_seconds: f64, spike_probability: f64) -> SpotMarket {
        SpotMarket {
            epoch_seconds,
            spike_probability,
            ..SpotMarket::ec2_like(1.0)
        }
    }

    fn small_spot_req(steps: usize, cadence: usize, epoch: f64, spike: f64) -> RunRequest {
        let ec2 = catalog::ec2();
        let spec = ResilienceSpec {
            policy: ResiliencePolicy {
                io_bandwidth: 500e6,
                backoff: Backoff {
                    base_seconds: 5.0,
                    factor: 2.0,
                    cap_seconds: 60.0,
                },
                ..ResiliencePolicy::restart(cadence, 50)
            },
            faults: FaultModel {
                crashes: None,
                spot: Some(flaky_market(epoch, spike)),
                degradation: None,
            },
            strategy: FleetStrategy::SpotMix {
                groups: 2,
                max_bid: 1.0,
            },
        };
        RunRequest {
            fidelity: Fidelity::Numerical,
            resilience: Some(spec),
            ..RunRequest::new(ec2, App::paper_rd(steps), 8, 3)
        }
    }

    #[test]
    fn fault_free_resilient_run_matches_plain_execute_accuracy() {
        for app in [App::paper_rd(3), App::paper_ns(3)] {
            // An epoch of 1e9 s never revokes within the horizon.
            let mut req = RunRequest {
                app,
                ..small_spot_req(3, 1, 1e9, 0.0)
            };
            let out = execute_resilient(&req).unwrap();
            assert!(out.stats.completed);
            assert_eq!(out.stats.attempts, 1);
            assert_eq!(out.stats.faults_injected, 0);
            assert!(out.stats.checkpoints_written >= 1);
            let resilient = out.outcome.unwrap();
            let v = resilient.verification.unwrap();
            req.resilience = None;
            let plain = crate::run::execute(&req).unwrap();
            let pv = plain.verification.unwrap();
            assert_eq!(v.linf, pv.linf, "checkpointing must not change numerics");
            assert_eq!(v.l2, pv.l2);
            assert_eq!(resilient.krylov_iters, plain.krylov_iters);
        }
    }

    #[test]
    fn revoked_run_recovers_with_exact_accuracy() {
        // A fast, nasty market: revocations every simulated second or so,
        // on a run whose virtual duration spans several epochs.
        let req = small_spot_req(6, 1, 0.012, 0.35);
        let out = execute_resilient(&req).unwrap();
        assert!(
            out.stats.completed,
            "restart budget must suffice: {:?}",
            out.stats
        );
        assert!(
            out.stats.faults_injected >= 1,
            "market never fired: {:?}",
            out.stats
        );
        assert!(out.stats.lost_work_seconds > 0.0);
        let v = out.outcome.unwrap().verification.unwrap();
        let mut plain = small_spot_req(6, 1, 0.012, 0.35);
        plain.resilience = None;
        let ff = crate::run::execute(&plain).unwrap().verification.unwrap();
        assert!(
            (v.linf - ff.linf).abs() <= 1e-12,
            "{} vs {}",
            v.linf,
            ff.linf
        );
        assert!((v.l2 - ff.l2).abs() <= 1e-12, "{} vs {}", v.l2, ff.l2);
    }

    #[test]
    fn fail_fast_surfaces_the_fault_without_retrying() {
        let mut req = small_spot_req(6, 0, 0.012, 0.35);
        if let Some(spec) = &mut req.resilience {
            spec.policy.mode = RecoveryMode::FailFast;
            spec.policy.checkpoint_every = 0;
        }
        let out = execute_resilient(&req).unwrap();
        assert!(!out.stats.completed);
        assert_eq!(out.stats.attempts, 1);
        assert_eq!(out.stats.faults_injected, 1);
        assert!(out.outcome.is_none());
        let rerun = out.stats.total_seconds - out.stats.wait_seconds;
        assert!(
            (out.stats.lost_work_seconds - rerun).abs() < 1e-9,
            "without checkpoints every run second is lost: {} vs {rerun}",
            out.stats.lost_work_seconds
        );
    }

    #[test]
    fn exhausted_restart_budget_terminates() {
        // Revocations far faster than any step completes: no attempt makes
        // progress, and the bounded budget must stop the loop.
        let mut req = small_spot_req(4, 1, 1e-4, 1.0);
        if let Some(spec) = &mut req.resilience {
            spec.policy.mode = RecoveryMode::Restart { max_restarts: 3 };
        }
        let out = execute_resilient(&req).unwrap();
        assert!(!out.stats.completed);
        assert_eq!(out.stats.attempts, 4); // 1 + 3 restarts
        assert_eq!(out.stats.faults_injected, 4);
        assert!(out.outcome.is_none());
    }

    #[test]
    fn limit_violations_preempt_the_attempt_loop() {
        let ellipse = catalog::ellipse();
        let req = RunRequest {
            resilience: Some(ResilienceSpec::spot_with_restart(&ellipse, 1.0, 4, 100)),
            ..RunRequest::new(ellipse, App::paper_rd(2), 729, 20)
        };
        assert!(matches!(
            execute_resilient(&req),
            Err(LimitViolation::LauncherFailure { .. })
        ));
    }

    #[test]
    fn modeled_path_accounts_like_the_replay() {
        let ec2 = catalog::ec2();
        let req = RunRequest {
            fidelity: Fidelity::Modeled,
            resilience: Some(ResilienceSpec::spot_with_restart(&ec2, 1.0, 8, 40)),
            ..RunRequest::new(ec2, App::paper_rd(40), 216, 20)
        };
        let out = execute_resilient(&req).unwrap();
        assert!(out.stats.completed);
        assert!(out.stats.total_dollars > 0.0);
        assert!(out.stats.total_seconds > 0.0);
        let o = out.outcome.unwrap();
        assert_eq!(o.fidelity, Fidelity::Modeled);
        assert!(o.verification.is_none());
        // Deterministic: same request, same campaign, bitwise.
        let again = execute_resilient(&req).unwrap();
        assert_eq!(format!("{:?}", out.stats), format!("{:?}", again.stats));
    }

    #[test]
    fn state_bytes_grow_with_order_and_history() {
        let rd = App::paper_rd(4);
        let ns = App::paper_ns(4);
        assert!(state_bytes(&ns, 8, 3) > state_bytes(&rd, 8, 3));
        assert!(state_bytes(&rd, 27, 3) > state_bytes(&rd, 8, 3));
    }
}
