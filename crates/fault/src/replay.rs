//! Analytic checkpoint→fault→rollback→resume accounting.
//!
//! The numerical engine executes recovery for real (threads, snapshots,
//! re-partitioning); the modeled engine at paper scale replays the same
//! campaign analytically from the failure-free per-step times. Both charge
//! the same ingredients — checkpoint I/O, lost work, backoff, and
//! re-acquisition waits — so their reports agree on what resilience costs.

use crate::policy::ResiliencePolicy;
use serde::{Deserialize, Serialize};

/// One attempt's environment: when it dies (if at all), how long acquiring
/// its resources took, and what its fleet costs while running.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptEnv {
    /// Virtual time (seconds from attempt start) at which a fatal fault
    /// fells the attempt; `None` = the attempt can run to completion.
    pub fatal_at: Option<f64>,
    /// Queue/boot/re-acquisition wait before the attempt starts, seconds
    /// (wall-clock, not billed).
    pub wait_seconds: f64,
    /// Fleet cost while the attempt runs, $/hour.
    pub hourly_cost: f64,
}

/// What a resilient campaign cost, in time and dollars.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Whether the campaign finished all steps within the restart budget.
    pub completed: bool,
    /// Attempts launched (1 = no restart was needed).
    pub attempts: usize,
    /// Fatal faults that fell an attempt.
    pub faults_injected: usize,
    /// Durable checkpoints written.
    pub checkpoints_written: usize,
    /// Total time spent writing durable checkpoints, seconds.
    pub checkpoint_seconds: f64,
    /// Work re-done because it post-dated the last durable checkpoint,
    /// seconds.
    pub lost_work_seconds: f64,
    /// Backoff delays between restarts, seconds.
    pub backoff_seconds: f64,
    /// Queue/boot/re-acquisition waits, seconds.
    pub wait_seconds: f64,
    /// Run time that produced durable forward progress, seconds.
    pub compute_seconds: f64,
    /// Expected wall-clock of the whole campaign, seconds.
    pub total_seconds: f64,
    /// Expected dollars billed (fleet-hours actually run).
    pub total_dollars: f64,
}

/// A campaign-level incident [`replay_campaign_observed`] reports as it
/// replays. Times are campaign-absolute seconds (acquisition waits and
/// backoff delays included), so observers can place the incidents on one
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CampaignEvent {
    /// An attempt's compute begins (its acquisition wait has elapsed).
    AttemptStart {
        /// 0-based attempt index (0 = the initial launch).
        attempt: usize,
        /// Campaign-absolute start time, seconds.
        at: f64,
    },
    /// A durable checkpoint write finished.
    CheckpointCommit {
        /// Step the snapshot covers.
        step: usize,
        /// Campaign-absolute commit time, seconds.
        at: f64,
    },
    /// A fatal fault felled the running attempt.
    Fault {
        /// The felled attempt.
        attempt: usize,
        /// Campaign-absolute fault time, seconds.
        at: f64,
    },
    /// Work after the last durable checkpoint is discarded; the next
    /// attempt (if any) resumes from `to_step`.
    Rollback {
        /// Step the campaign rolls back to.
        to_step: usize,
        /// Virtual seconds of work the rollback discards.
        lost_seconds: f64,
        /// Campaign-absolute time, seconds.
        at: f64,
    },
    /// What the attempt's fleet billed for its run time (an expense
    /// delta, charged when the attempt ends).
    Billed {
        /// The billed attempt.
        attempt: usize,
        /// Dollars charged.
        dollars: f64,
        /// Campaign-absolute time, seconds.
        at: f64,
    },
}

/// Replays a campaign of `step_seconds` (the failure-free per-step times)
/// under `policy`, drawing each attempt's fate from `env_for(attempt)`.
///
/// Within an attempt the clock walks the remaining steps from the last
/// durable checkpoint; a fault lands mid-step or mid-checkpoint at its
/// exact virtual time (a checkpoint interrupted by the fault is not
/// durable). Billing covers run time only; waits and backoff are unbilled
/// wall-clock.
///
/// `observe` sees every campaign-level incident (attempt launches, durable
/// checkpoint commits, faults, rollbacks, billing) as the replay walks the
/// timeline. Observation never changes the accounting.
pub fn replay_campaign_observed(
    step_seconds: &[f64],
    checkpoint_seconds: f64,
    policy: &ResiliencePolicy,
    mut env_for: impl FnMut(usize) -> AttemptEnv,
    mut observe: impl FnMut(CampaignEvent),
) -> RecoveryStats {
    let total_steps = step_seconds.len();
    let mut stats = RecoveryStats::default();
    let mut resume_step = 0usize;
    let max_restarts = policy.max_restarts();

    loop {
        let attempt = stats.attempts;
        let env = env_for(attempt);
        // Campaign-absolute time the attempt's compute starts: everything
        // booked so far plus this attempt's acquisition wait.
        let start_abs = stats.total_seconds + env.wait_seconds;
        observe(CampaignEvent::AttemptStart {
            attempt,
            at: start_abs,
        });
        stats.attempts += 1;
        stats.wait_seconds += env.wait_seconds;
        let fatal = env.fatal_at.map(|t| t.max(0.0));

        // Attempt-local clock; checkpoints are durable the instant their
        // write finishes.
        let mut t = 0.0f64;
        let mut last_ckpt_t = 0.0f64;
        let mut last_ckpt_step = resume_step;
        let mut died_at: Option<f64> = None;

        for (i, &s) in step_seconds.iter().enumerate().skip(resume_step) {
            if let Some(fa) = fatal {
                if t + s > fa {
                    died_at = Some(fa);
                    break;
                }
            }
            t += s;
            if policy.checkpoint_due(i + 1, total_steps) {
                if let Some(fa) = fatal {
                    if t + checkpoint_seconds > fa {
                        died_at = Some(fa);
                        break;
                    }
                }
                t += checkpoint_seconds;
                stats.checkpoints_written += 1;
                stats.checkpoint_seconds += checkpoint_seconds;
                last_ckpt_t = t;
                last_ckpt_step = i + 1;
                observe(CampaignEvent::CheckpointCommit {
                    step: i + 1,
                    at: start_abs + t,
                });
            }
        }

        match died_at {
            None => {
                stats.total_seconds += env.wait_seconds + t;
                stats.total_dollars += env.hourly_cost * t / 3600.0;
                stats.completed = true;
                observe(CampaignEvent::Billed {
                    attempt,
                    dollars: env.hourly_cost * t / 3600.0,
                    at: start_abs + t,
                });
                break;
            }
            Some(fa) => {
                stats.faults_injected += 1;
                stats.total_seconds += env.wait_seconds + fa;
                stats.total_dollars += env.hourly_cost * fa / 3600.0;
                stats.lost_work_seconds += fa - last_ckpt_t;
                resume_step = last_ckpt_step;
                observe(CampaignEvent::Fault {
                    attempt,
                    at: start_abs + fa,
                });
                observe(CampaignEvent::Rollback {
                    to_step: last_ckpt_step,
                    lost_seconds: fa - last_ckpt_t,
                    at: start_abs + fa,
                });
                observe(CampaignEvent::Billed {
                    attempt,
                    dollars: env.hourly_cost * fa / 3600.0,
                    at: start_abs + fa,
                });
                let restarts_used = stats.attempts - 1;
                if restarts_used >= max_restarts {
                    break;
                }
                let delay = policy.backoff.delay(restarts_used);
                stats.backoff_seconds += delay;
                stats.total_seconds += delay;
            }
        }
    }

    // Durable-progress time = everything run minus re-done work; the
    // checkpoint writes themselves are reported separately.
    let run_seconds = stats.total_seconds - stats.wait_seconds - stats.backoff_seconds;
    stats.compute_seconds = run_seconds - stats.lost_work_seconds - stats.checkpoint_seconds;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Backoff;

    /// The replay with no observer.
    fn replay_campaign(
        step_seconds: &[f64],
        checkpoint_seconds: f64,
        policy: &ResiliencePolicy,
        env_for: impl FnMut(usize) -> AttemptEnv,
    ) -> RecoveryStats {
        replay_campaign_observed(step_seconds, checkpoint_seconds, policy, env_for, |_| {})
    }

    fn steps(n: usize, each: f64) -> Vec<f64> {
        vec![each; n]
    }

    fn quiet(hourly: f64) -> impl FnMut(usize) -> AttemptEnv {
        move |_| AttemptEnv {
            fatal_at: None,
            wait_seconds: 60.0,
            hourly_cost: hourly,
        }
    }

    #[test]
    fn fault_free_campaign_is_just_steps_plus_checkpoints() {
        let policy = ResiliencePolicy::restart(4, 3);
        let s = replay_campaign(&steps(12, 10.0), 2.0, &policy, quiet(36.0));
        assert!(s.completed);
        assert_eq!(s.attempts, 1);
        assert_eq!(s.faults_injected, 0);
        assert_eq!(s.checkpoints_written, 2); // after steps 4 and 8; never after 12
        assert_eq!(s.total_seconds, 60.0 + 120.0 + 4.0);
        assert_eq!(s.compute_seconds, 120.0);
        assert!((s.total_dollars - 36.0 * 124.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn fail_fast_reports_one_attempt() {
        let policy = ResiliencePolicy::fail_fast();
        let s = replay_campaign(&steps(10, 10.0), 2.0, &policy, |_| AttemptEnv {
            fatal_at: Some(35.0),
            wait_seconds: 0.0,
            hourly_cost: 36.0,
        });
        assert!(!s.completed);
        assert_eq!(s.attempts, 1);
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.lost_work_seconds, 35.0); // no checkpoints: all of it
        assert_eq!(s.total_seconds, 35.0);
    }

    #[test]
    fn restart_resumes_from_last_durable_checkpoint() {
        // 12 steps of 10 s, checkpoint every 4 (2 s each). First attempt
        // dies at t = 95: checkpoints at 42 and 84 exist, so 11 s are lost
        // (95 - 84) and the retry resumes from step 8.
        let policy = ResiliencePolicy {
            backoff: Backoff {
                base_seconds: 30.0,
                factor: 2.0,
                cap_seconds: 1800.0,
            },
            ..ResiliencePolicy::restart(4, 3)
        };
        let mut fates = vec![Some(95.0), None].into_iter();
        let s = replay_campaign(&steps(12, 10.0), 2.0, &policy, |_| AttemptEnv {
            fatal_at: fates.next().unwrap(),
            wait_seconds: 10.0,
            hourly_cost: 0.0,
        });
        assert!(s.completed);
        assert_eq!(s.attempts, 2);
        assert_eq!(s.lost_work_seconds, 95.0 - 84.0);
        assert_eq!(s.backoff_seconds, 30.0);
        // Retry runs steps 9..12 = 40 s, no further checkpoint boundaries
        // except step... 8 already done; step 12 is final. Wait: step 8 is
        // the resume point, so boundaries 12 is final -> no checkpoint.
        assert_eq!(s.total_seconds, 10.0 + 95.0 + 30.0 + 10.0 + 40.0);
        assert_eq!(s.checkpoints_written, 2);
    }

    #[test]
    fn restart_budget_bounds_the_campaign() {
        let policy = ResiliencePolicy::restart(0, 5); // never checkpoints
        let s = replay_campaign(&steps(10, 10.0), 2.0, &policy, |_| AttemptEnv {
            fatal_at: Some(50.0),
            wait_seconds: 0.0,
            hourly_cost: 36.0,
        });
        assert!(!s.completed);
        assert_eq!(s.attempts, 6); // 1 + 5 restarts, then gives up
        assert_eq!(s.faults_injected, 6);
        assert_eq!(s.lost_work_seconds, 300.0);
    }

    #[test]
    fn checkpoint_interrupted_by_the_fault_is_not_durable() {
        // Checkpoint after step 4 runs over t in [40, 45]; a fault at 43
        // interrupts it, so the retry replays from step 0.
        let policy = ResiliencePolicy::restart(4, 1);
        let mut fates = vec![Some(43.0), None].into_iter();
        let s = replay_campaign(&steps(8, 10.0), 5.0, &policy, |_| AttemptEnv {
            fatal_at: fates.next().unwrap(),
            wait_seconds: 0.0,
            hourly_cost: 0.0,
        });
        assert!(s.completed);
        assert_eq!(s.lost_work_seconds, 43.0);
        // Retry: 8 steps + one durable checkpoint after step 4.
        assert_eq!(s.checkpoints_written, 1);
    }

    #[test]
    fn observed_replay_reports_the_campaign_it_accounts() {
        // Same scenario as `restart_resumes_from_last_durable_checkpoint`:
        // one fault at t = 95, checkpoints after steps 4 and 8, one retry.
        let policy = ResiliencePolicy {
            backoff: Backoff {
                base_seconds: 30.0,
                factor: 2.0,
                cap_seconds: 1800.0,
            },
            ..ResiliencePolicy::restart(4, 3)
        };
        let mut fates = vec![Some(95.0), None].into_iter();
        let mut events = Vec::new();
        let s = replay_campaign_observed(
            &steps(12, 10.0),
            2.0,
            &policy,
            |_| AttemptEnv {
                fatal_at: fates.next().unwrap(),
                wait_seconds: 10.0,
                hourly_cost: 36.0,
            },
            |e| events.push(e),
        );
        assert!(s.completed);
        // Attempt 0 starts after its wait; attempt 1 after wait + fault
        // time + backoff + its own wait.
        assert!(matches!(
            events[0],
            CampaignEvent::AttemptStart { attempt: 0, at } if at == 10.0
        ));
        let ckpts: Vec<(usize, f64)> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::CheckpointCommit { step, at } => Some((*step, *at)),
                _ => None,
            })
            .collect();
        // Attempt 0 commits after steps 4 (t=42) and 8 (t=84); the retry
        // resumes from step 8 and hits no further cadence boundary.
        assert_eq!(ckpts, vec![(4, 52.0), (8, 94.0)]);
        assert!(events.iter().any(|e| matches!(
            e,
            CampaignEvent::Rollback { to_step: 8, lost_seconds, at }
                if *lost_seconds == 11.0 && *at == 105.0
        )));
        let billed: f64 = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::Billed { dollars, .. } => Some(*dollars),
                _ => None,
            })
            .sum();
        assert!((billed - s.total_dollars).abs() < 1e-12);
        // Observation must not change the accounting.
        let mut fates2 = vec![Some(95.0), None].into_iter();
        let unobserved = replay_campaign(&steps(12, 10.0), 2.0, &policy, |_| AttemptEnv {
            fatal_at: fates2.next().unwrap(),
            wait_seconds: 10.0,
            hourly_cost: 36.0,
        });
        assert_eq!(s, unobserved);
    }

    #[test]
    fn moderate_cadence_beats_extremes_under_recurring_faults() {
        // Faults every ~500 s on 100 steps of 10 s: never checkpointing
        // loses everything each time; checkpointing every step drowns in
        // I/O; a moderate cadence wins.
        let total_of = |every: usize| {
            let policy = ResiliencePolicy {
                backoff: Backoff {
                    base_seconds: 0.0,
                    factor: 1.0,
                    cap_seconds: 0.0,
                },
                ..ResiliencePolicy::restart(every, 400)
            };
            let s = replay_campaign(&steps(100, 10.0), 6.0, &policy, |k| AttemptEnv {
                fatal_at: Some(500.0 + 7.0 * k as f64),
                wait_seconds: 0.0,
                hourly_cost: 36.0,
            });
            assert!(s.completed, "cadence {every} must finish");
            s.total_seconds
        };
        let never = total_of(0);
        let every_step = total_of(1);
        let moderate = total_of(10);
        assert!(moderate < never, "{moderate} vs never {never}");
        assert!(
            moderate < every_step,
            "{moderate} vs every-step {every_step}"
        );
    }
}
