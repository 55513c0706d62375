//! The "expense factor": the paper's qualitative platform characterization
//! made quantitative.
//!
//! The paper's abstract promises "preliminary insights into characterizing
//! these different types of platforms … in terms of deployment effort,
//! actual and nominal costs, application performance, and availability".
//! [`characterize`] computes all four axes for a (platform, application,
//! size) triple and combines them into a single comparable index for a
//! given campaign length.

use crate::apps::App;
use crate::run::{execute, RunOutcome, RunRequest};
use hetero_platform::limits::LimitViolation;
use hetero_platform::provision::{environment_of, plan};
use hetero_platform::PlatformSpec;

/// Default rate used to convert provisioning man-hours into dollars when
/// combining axes (a modest 2012 research-staff figure).
pub const DEFAULT_ENGINEER_RATE_PER_HOUR: f64 = 60.0;

/// The four axes of the paper's characterization, for one run
/// configuration.
#[derive(Debug, Clone)]
pub struct ExpenseFactor {
    /// Platform key.
    pub platform: String,
    /// Per-iteration wall time (performance axis).
    pub seconds_per_iteration: f64,
    /// Per-iteration dollars (cost axis).
    pub dollars_per_iteration: f64,
    /// One-time provisioning man-hours (deployment-effort axis).
    pub provisioning_hours: f64,
    /// Queue/boot wait before the job runs (availability axis).
    pub wait_seconds: f64,
    /// The underlying run outcome.
    pub outcome: RunOutcome,
}

impl ExpenseFactor {
    /// A single comparable index for a campaign of `iterations` iterations
    /// (lower is better): its dollars, with provisioning effort amortized at
    /// `rate_per_hour`, plus its time monetized at the same rate. The time
    /// runs from deciding to run to having the results: provisioning at
    /// one man ~ wall-clock, plus queue wait, plus compute.
    pub fn index(&self, iterations: usize, rate_per_hour: f64) -> f64 {
        let dollars = self.provisioning_hours * rate_per_hour
            + self.dollars_per_iteration * iterations as f64;
        let seconds = self.provisioning_hours * 3600.0
            + self.wait_seconds
            + self.seconds_per_iteration * iterations as f64;
        dollars + seconds / 3600.0 * rate_per_hour
    }
}

/// Characterizes one (platform, app, ranks) configuration.
///
/// # Errors
/// Propagates the platform's execution-limit violations.
pub fn characterize(
    platform: &PlatformSpec,
    app: App,
    ranks: usize,
    per_rank_axis: usize,
    seed: u64,
) -> Result<ExpenseFactor, LimitViolation> {
    let req = RunRequest {
        seed,
        ..RunRequest::new(platform.clone(), app, ranks, per_rank_axis)
    };
    let outcome = execute(&req)?;
    let provisioning_hours = environment_of(&platform.key)
        .and_then(|env| plan(&env).ok())
        .map(|p| p.total_hours())
        .unwrap_or(0.0);
    Ok(ExpenseFactor {
        platform: platform.key.clone(),
        seconds_per_iteration: outcome.phases.total,
        dollars_per_iteration: outcome.cost_per_iteration,
        provisioning_hours,
        wait_seconds: outcome.queue_wait_seconds,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_platform::catalog;

    fn factor(p: &PlatformSpec, ranks: usize) -> ExpenseFactor {
        characterize(p, App::paper_rd(2), ranks, 20, 7).unwrap()
    }

    #[test]
    fn axes_are_populated() {
        let f = factor(&catalog::ec2(), 64);
        assert!(f.seconds_per_iteration > 0.0);
        assert!(f.dollars_per_iteration > 0.0);
        assert!(f.provisioning_hours > 8.0);
        assert!(f.wait_seconds > 0.0);
    }

    #[test]
    fn home_platform_wins_short_campaigns_at_small_size() {
        // For a handful of iterations at small scale, zero provisioning and
        // a short queue beat everything (the paper's status quo: codes stay
        // on their home platform).
        let puma = factor(&catalog::puma(), 64);
        let ec2 = factor(&catalog::ec2(), 64);
        let lagrange = factor(&catalog::lagrange(), 64);
        let r = DEFAULT_ENGINEER_RATE_PER_HOUR;
        assert!(puma.index(10, r) < ec2.index(10, r));
        assert!(puma.index(10, r) < lagrange.index(10, r));
    }

    #[test]
    fn provisioning_amortizes_over_long_campaigns() {
        // EC2's one-time day of provisioning matters less and less as the
        // campaign grows.
        let ec2 = factor(&catalog::ec2(), 64);
        let r = DEFAULT_ENGINEER_RATE_PER_HOUR;
        let short = ec2.index(10, r) / 10.0;
        let long = ec2.index(100_000, r) / 100_000.0;
        assert!(long < short / 10.0);
    }

    #[test]
    fn only_the_cloud_reaches_1000_ranks() {
        assert!(characterize(&catalog::puma(), App::paper_rd(2), 1000, 20, 7).is_err());
        assert!(characterize(&catalog::ellipse(), App::paper_rd(2), 1000, 20, 7).is_err());
        assert!(characterize(&catalog::lagrange(), App::paper_rd(2), 1000, 20, 7).is_err());
        assert!(characterize(&catalog::ec2(), App::paper_rd(2), 1000, 20, 7).is_ok());
    }
}
