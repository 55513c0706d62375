//! The EC2 spot-market and placement-group model (Table II).
//!
//! The paper compared a fully-paid 63-instance assembly in a single
//! placement group against a mix of spot-request and on-demand instances
//! scattered over four placement groups, finding the times statistically
//! equal and the mix ~4.5x cheaper — but also that "we never succeeded in
//! establishing a full 63-host configuration of spot request instances",
//! having to top the fleet up with on-demand hosts.

use crate::catalog::EC2_SPOT_NODE_HOUR;
use hetero_simmpi::rng::{hash_msg, to_unit};
use hetero_simmpi::ClusterTopology;
use serde::{Deserialize, Serialize};

/// How to acquire an instance fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FleetStrategy {
    /// All on-demand instances in a single placement group (Table II
    /// "full").
    OnDemandSingleGroup,
    /// Bid for spot instances, fall back to on-demand for the shortfall,
    /// scattered over `groups` placement groups (Table II "mix").
    SpotMix {
        /// Placement groups the fleet is drawn from.
        groups: usize,
        /// Maximum spot bid accepted, in dollars per instance-hour.
        max_bid: f64,
    },
}

/// One acquired instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeAllocation {
    /// Whether the instance was obtained via a spot request.
    pub spot: bool,
    /// Placement group the instance landed in.
    pub group: usize,
    /// Hourly price of this instance.
    pub price_per_hour: f64,
}

/// An acquired fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetAllocation {
    /// Per-instance allocations.
    pub nodes: Vec<NodeAllocation>,
    /// Strategy used.
    pub strategy: FleetStrategy,
}

/// Bounds on the number of cc2.8xlarge spot instances the market will hand
/// out at once. The study repeatedly failed to fill 63 hosts from spot
/// alone — modeled as a finite spot capacity drawn from this range, so a
/// 63-instance fleet always needs an on-demand top-up (the convergence of
/// the "mix" and "full" cost curves at large sizes in Figures 6/7).
const SPOT_CAPACITY_RANGE: (usize, usize) = (40, 60);

/// Acquires `nodes` cc2.8xlarge instances under `strategy`. Deterministic
/// per (strategy, nodes, seed).
pub fn acquire_fleet(
    nodes: usize,
    strategy: FleetStrategy,
    on_demand_price: f64,
    seed: u64,
) -> FleetAllocation {
    assert!(nodes > 0);
    let mut out = Vec::with_capacity(nodes);
    match strategy {
        FleetStrategy::OnDemandSingleGroup => {
            for _ in 0..nodes {
                out.push(NodeAllocation {
                    spot: false,
                    group: 0,
                    price_per_hour: on_demand_price,
                });
            }
        }
        FleetStrategy::SpotMix { groups, max_bid } => {
            assert!(groups > 0);
            let (lo, hi) = SPOT_CAPACITY_RANGE;
            let capacity = lo
                + (to_unit(hash_msg(seed, 0xF1EE7, nodes as u64, 0)) * (hi - lo + 1) as f64)
                    as usize;
            let bid_ok = EC2_SPOT_NODE_HOUR <= max_bid;
            for i in 0..nodes {
                let spot = bid_ok && i < capacity;
                out.push(NodeAllocation {
                    spot,
                    group: i % groups,
                    price_per_hour: if spot {
                        EC2_SPOT_NODE_HOUR
                    } else {
                        on_demand_price
                    },
                });
            }
        }
    }
    FleetAllocation {
        nodes: out,
        strategy,
    }
}

impl FleetAllocation {
    /// Number of instances.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet is empty (never for acquired fleets).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Instances acquired via spot requests.
    pub fn spot_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.spot).count()
    }

    /// Indices (node ids in the induced topology) of the spot instances —
    /// the nodes a market revocation removes.
    pub fn spot_node_indices(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.spot)
            .map(|(i, _)| i)
            .collect()
    }

    /// Real dollars per hour for the whole fleet.
    pub fn hourly_cost(&self) -> f64 {
        self.nodes.iter().map(|n| n.price_per_hour).sum()
    }

    /// Real dollars for holding the fleet `seconds`.
    pub fn cost(&self, seconds: f64) -> f64 {
        self.hourly_cost() * seconds / 3600.0
    }

    /// The cluster topology induced by the fleet's placement groups.
    pub fn topology(&self, cores_per_node: usize) -> ClusterTopology {
        ClusterTopology::with_groups(cores_per_node, self.nodes.iter().map(|n| n.group).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_demand_fleet_is_uniform() {
        let f = acquire_fleet(63, FleetStrategy::OnDemandSingleGroup, 2.40, 1);
        assert_eq!(f.len(), 63);
        assert_eq!(f.spot_count(), 0);
        assert!((f.hourly_cost() - 63.0 * 2.40).abs() < 1e-9);
        let topo = f.topology(16);
        assert!((0..63).all(|n| topo.group_of_node(n) == 0));
    }

    #[test]
    fn spot_mix_never_fills_large_fleets_with_spot_alone() {
        // The paper's experience: some on-demand top-up is always needed,
        // but spot still dominates the fleet.
        for seed in 0..100 {
            let f = acquire_fleet(
                63,
                FleetStrategy::SpotMix {
                    groups: 4,
                    max_bid: 1.0,
                },
                2.40,
                seed,
            );
            assert!(f.spot_count() < 63, "seed {seed} filled entirely from spot");
            assert!(f.spot_count() >= 40, "seed {seed}: {}", f.spot_count());
        }
        // Small fleets do fill from spot alone.
        let small = acquire_fleet(
            8,
            FleetStrategy::SpotMix {
                groups: 4,
                max_bid: 1.0,
            },
            2.40,
            1,
        );
        assert_eq!(small.spot_count(), 8);
    }

    #[test]
    fn mix_is_much_cheaper() {
        let full = acquire_fleet(63, FleetStrategy::OnDemandSingleGroup, 2.40, 3);
        let mix = acquire_fleet(
            63,
            FleetStrategy::SpotMix {
                groups: 4,
                max_bid: 1.0,
            },
            2.40,
            3,
        );
        let ratio = full.hourly_cost() / mix.hourly_cost();
        assert!(ratio > 1.8, "ratio = {ratio}");
        // The paper's "est. cost" column prices the whole fleet at the spot
        // rate: a ~4.4x saving.
        let est_ratio = 2.40 / EC2_SPOT_NODE_HOUR;
        assert!((est_ratio - 4.44).abs() < 0.05);
    }

    #[test]
    fn low_bid_gets_no_spot_instances() {
        let f = acquire_fleet(
            10,
            FleetStrategy::SpotMix {
                groups: 4,
                max_bid: 0.10,
            },
            2.40,
            1,
        );
        assert_eq!(f.spot_count(), 0);
        assert!((f.hourly_cost() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn mix_topology_spans_groups() {
        let f = acquire_fleet(
            8,
            FleetStrategy::SpotMix {
                groups: 4,
                max_bid: 1.0,
            },
            2.40,
            9,
        );
        let topo = f.topology(16);
        let groups: std::collections::BTreeSet<usize> =
            (0..8).map(|n| topo.group_of_node(n)).collect();
        assert_eq!(groups.len(), 4);
    }

    #[test]
    fn acquisition_is_deterministic() {
        let a = acquire_fleet(
            20,
            FleetStrategy::SpotMix {
                groups: 4,
                max_bid: 1.0,
            },
            2.40,
            7,
        );
        let b = acquire_fleet(
            20,
            FleetStrategy::SpotMix {
                groups: 4,
                max_bid: 1.0,
            },
            2.40,
            7,
        );
        assert_eq!(a, b);
    }
}
