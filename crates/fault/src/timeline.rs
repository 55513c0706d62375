//! The merged fault stream for one attempt, and its conversion to the
//! engine-level injection plan.

use crate::event::{FaultEvent, FaultKind};
use crate::process::FaultModel;
use hetero_simmpi::fault::{FaultPlan, SlowWindow};
use serde::{Deserialize, Serialize};

/// Everything scheduled to go wrong during one attempt: a time-sorted
/// event stream plus the identity of the attempt's spot nodes (needed to
/// know *which* nodes a revocation removes).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultTimeline {
    /// Scheduled events, sorted by time (ties broken by generation order:
    /// revocation, crash, degradation).
    pub events: Vec<FaultEvent>,
    /// Topology node indices held as spot capacity this attempt.
    pub spot_nodes: Vec<usize>,
    /// Total nodes in the attempt's topology.
    pub num_nodes: usize,
}

impl FaultTimeline {
    /// Samples the timeline for one attempt: the first spot revocation
    /// (if the fleet holds spot capacity), the first node crash within
    /// `horizon`, and every degradation window starting before `horizon`.
    ///
    /// Only *first* fatal events are materialized — a second crash after
    /// the attempt is already dead cannot be observed, and each restart
    /// attempt samples a fresh timeline under a different seed.
    pub fn generate(
        model: &FaultModel,
        num_nodes: usize,
        spot_nodes: &[usize],
        horizon: f64,
        seed: u64,
    ) -> Self {
        let mut events = Vec::new();
        if let Some(market) = &model.spot {
            if let Some(t) = market.first_revocation(spot_nodes.len(), seed) {
                if t < horizon {
                    events.push(FaultEvent {
                        time: t,
                        kind: FaultKind::SpotRevocation {
                            nodes_lost: spot_nodes.len(),
                        },
                    });
                }
            }
        }
        if let Some(crashes) = &model.crashes {
            if let Some((node, t)) = crashes.first_crash(num_nodes, horizon, seed) {
                events.push(FaultEvent {
                    time: t,
                    kind: FaultKind::NodeCrash { node },
                });
            }
        }
        if let Some(deg) = &model.degradation {
            for w in deg.windows(horizon, seed) {
                events.push(FaultEvent {
                    time: w.start,
                    kind: FaultKind::NetworkDegradation {
                        duration: w.end - w.start,
                        factor: w.factor,
                    },
                });
            }
        }
        events.sort_by(|a, b| a.time.total_cmp(&b.time));
        FaultTimeline {
            events,
            spot_nodes: spot_nodes.to_vec(),
            num_nodes,
        }
    }

    /// The earliest fatal event (node-felling), if any.
    pub fn first_fatal(&self) -> Option<&FaultEvent> {
        self.events.iter().find(|e| e.kind.is_fatal())
    }

    /// Lowers the timeline to the per-node injection plan the simmpi
    /// engine consumes: each node's earliest death time plus the
    /// degradation windows.
    pub fn to_plan(&self) -> FaultPlan {
        let mut down = vec![f64::INFINITY; self.num_nodes];
        let mut windows = Vec::new();
        for e in &self.events {
            match e.kind {
                FaultKind::SpotRevocation { .. } => {
                    for &n in &self.spot_nodes {
                        if n < down.len() {
                            down[n] = down[n].min(e.time);
                        }
                    }
                }
                FaultKind::NodeCrash { node } => {
                    if node < down.len() {
                        down[node] = down[node].min(e.time);
                    }
                }
                FaultKind::NetworkDegradation { duration, factor } => {
                    windows.push(SlowWindow {
                        start: e.time,
                        end: e.time + duration,
                        factor,
                    });
                }
            }
        }
        FaultPlan {
            node_down_at: down,
            slow_windows: windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{CrashProcess, DegradationModel, SpotMarket};

    fn model() -> FaultModel {
        FaultModel {
            crashes: Some(CrashProcess {
                node_mtbf_hours: 50.0,
            }),
            spot: Some(SpotMarket::ec2_like(1.0)),
            degradation: Some(DegradationModel {
                mean_interval_seconds: 3600.0,
                duration_seconds: 60.0,
                slowdown: 3.0,
            }),
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let m = model();
        let a = FaultTimeline::generate(&m, 8, &[4, 5, 6, 7], 1e6, 42);
        let b = FaultTimeline::generate(&m, 8, &[4, 5, 6, 7], 1e6, 42);
        assert_eq!(a, b);
        let c = FaultTimeline::generate(&m, 8, &[4, 5, 6, 7], 1e6, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn events_are_sorted_and_fatal_lookup_works() {
        let tl = FaultTimeline::generate(&model(), 8, &[4, 5, 6, 7], 1e7, 11);
        for pair in tl.events.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        let fatal = tl
            .first_fatal()
            .expect("50 h MTBF over 10^7 s must fell a node");
        assert!(fatal.kind.is_fatal());
    }

    #[test]
    fn plan_lowers_revocations_to_spot_nodes_only() {
        let tl = FaultTimeline {
            events: vec![
                FaultEvent {
                    time: 100.0,
                    kind: FaultKind::SpotRevocation { nodes_lost: 2 },
                },
                FaultEvent {
                    time: 50.0,
                    kind: FaultKind::NodeCrash { node: 0 },
                },
                FaultEvent {
                    time: 10.0,
                    kind: FaultKind::NetworkDegradation {
                        duration: 5.0,
                        factor: 2.0,
                    },
                },
            ],
            spot_nodes: vec![2, 3],
            num_nodes: 4,
        };
        let plan = tl.to_plan();
        assert_eq!(plan.node_down_at, vec![50.0, f64::INFINITY, 100.0, 100.0]);
        assert_eq!(plan.slow_windows.len(), 1);
    }

    #[test]
    fn empty_model_yields_trivial_plan() {
        let tl = FaultTimeline::generate(&FaultModel::none(), 8, &[], 1e9, 1);
        assert!(tl.events.is_empty());
        assert!(tl.first_fatal().is_none());
        let plan = tl.to_plan();
        assert!(plan.node_down_at.iter().all(|t| t.is_infinite()));
        assert!(plan.slow_windows.is_empty());
    }
}
