//! Fault injection in virtual time: per-node failure schedules and the
//! error they surface as.
//!
//! A [`FaultPlan`] tells the engine *when* (in virtual seconds) each node of
//! the topology dies and when the fabric is transiently degraded. The plan
//! is data, not a process: event generators live in the `hetero-fault`
//! crate, which derives plans deterministically from an experiment seed.
//! Injection is therefore exactly as reproducible as network jitter — the
//! same plan yields the same failure, bitwise, regardless of host
//! scheduling.
//!
//! A rank observes its node's death the first time its virtual clock
//! reaches the scheduled time; it raises [`RankFailed`] (as a typed panic
//! the engine intercepts), peers blocked in `recv` on a terminated sender
//! unwind instead of deadlocking, and
//! [`crate::engine::run_spmd_opts`] returns the failure as an error.

/// A transient network-degradation window in virtual time: messages whose
/// transfer overlaps the window are slowed by `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowWindow {
    /// Window start, virtual seconds.
    pub start: f64,
    /// Window end, virtual seconds.
    pub end: f64,
    /// Multiplicative slowdown on latency and drain time (>= 1).
    pub factor: f64,
}

impl SlowWindow {
    /// Whether the window covers virtual time `t`.
    #[inline]
    pub fn covers(&self, t: f64) -> bool {
        t >= self.start && t < self.end
    }
}

/// Per-node failure schedule injected into one SPMD job.
///
/// Times are virtual seconds from job start. A node index beyond
/// `node_down_at.len()` never fails, so `FaultPlan::default()` is the
/// fault-free plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Virtual time at which each topology node is lost
    /// (`f64::INFINITY` = survives), indexed by node id.
    pub node_down_at: Vec<f64>,
    /// Transient degradation windows (fabric-wide).
    pub slow_windows: Vec<SlowWindow>,
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan can affect a run at all.
    pub fn is_trivial(&self) -> bool {
        self.node_down_at.iter().all(|t| !t.is_finite()) && self.slow_windows.is_empty()
    }

    /// When `node` is scheduled to die (`INFINITY` if never).
    #[inline]
    pub fn down_time(&self, node: usize) -> f64 {
        self.node_down_at
            .get(node)
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// The earliest scheduled node loss among the first `nodes_in_use`
    /// nodes, if any is finite.
    pub fn earliest_down(&self, nodes_in_use: usize) -> Option<(usize, f64)> {
        self.node_down_at
            .iter()
            .take(nodes_in_use)
            .copied()
            .enumerate()
            .filter(|(_, t)| t.is_finite())
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// The degradation factor in force at virtual time `t` (1.0 outside
    /// every window; overlapping windows compound by the worst factor).
    #[inline]
    pub fn slow_factor(&self, t: f64) -> f64 {
        let mut f = 1.0f64;
        for w in &self.slow_windows {
            if w.covers(t) {
                f = f.max(w.factor);
            }
        }
        f
    }
}

/// A node loss observed by the engine: the failure a fault-injected run
/// surfaces instead of deadlocking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankFailed {
    /// Topology node that died.
    pub node: usize,
    /// Scheduled virtual time of the loss, seconds.
    pub at: f64,
}

impl std::fmt::Display for RankFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {} lost at virtual t = {:.6} s", self.node, self.at)
    }
}

/// The typed panic payload a rank raises when its node dies; intercepted by
/// the engine and turned into an `Err(RankFailed)`.
pub(crate) struct FaultPanic(pub(crate) RankFailed);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_trivial() {
        let p = FaultPlan::none();
        assert!(p.is_trivial());
        assert_eq!(p.down_time(0), f64::INFINITY);
        assert_eq!(p.down_time(99), f64::INFINITY);
        assert!(p.earliest_down(8).is_none());
        assert_eq!(p.slow_factor(1.0), 1.0);
    }

    #[test]
    fn earliest_down_prefers_time_then_node() {
        let p = FaultPlan {
            node_down_at: vec![f64::INFINITY, 5.0, 3.0, 3.0],
            slow_windows: vec![],
        };
        assert_eq!(p.earliest_down(4), Some((2, 3.0)));
        // Only the nodes actually in use count.
        assert_eq!(p.earliest_down(2), Some((1, 5.0)));
        assert!(p.earliest_down(1).is_none());
    }

    #[test]
    fn slow_factor_picks_the_worst_overlap() {
        let p = FaultPlan {
            node_down_at: vec![],
            slow_windows: vec![
                SlowWindow {
                    start: 1.0,
                    end: 4.0,
                    factor: 2.0,
                },
                SlowWindow {
                    start: 3.0,
                    end: 6.0,
                    factor: 5.0,
                },
            ],
        };
        assert_eq!(p.slow_factor(0.5), 1.0);
        assert_eq!(p.slow_factor(1.5), 2.0);
        assert_eq!(p.slow_factor(3.5), 5.0);
        assert_eq!(p.slow_factor(6.0), 1.0);
    }
}
