//! The full platform specification: hardware, environment, cost, limits.

use crate::cost::CostModel;
use crate::limits::{ExecutionLimits, LimitViolation};
use crate::scheduler::{QueueModel, SchedulerKind};
use hetero_simmpi::{ClusterTopology, ComputeModel, NetworkModel, SpmdConfig};
use serde::{Deserialize, Serialize};

/// User privilege on the platform (Table I's "access" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    /// Unprivileged user space: software must be installed under `$HOME`.
    UserSpace,
    /// Root on the (virtual) machine: package managers and system
    /// configuration are available.
    Root,
}

/// One target platform, fully parameterized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Short key ("puma", "ellipse", "lagrange", "ec2").
    pub key: String,
    /// Human-readable description.
    pub description: String,
    /// CPU model string (Table I "cpu arch.").
    pub cpu_model: String,
    /// Cores per node.
    pub cores_per_node: usize,
    /// Nodes available to a single job.
    pub max_nodes: usize,
    /// RAM per core in GiB (Table I "RAM/core").
    pub ram_per_core_gib: f64,
    /// Per-core roofline model.
    pub compute: ComputeModel,
    /// Interconnect model.
    pub network: NetworkModel,
    /// Privilege level.
    pub access: AccessKind,
    /// Execution mechanism.
    pub scheduler: SchedulerKind,
    /// Queue-wait model.
    pub queue: QueueModel,
    /// Billing.
    pub cost: CostModel,
    /// Execution limits.
    pub limits: ExecutionLimits,
    /// Mean time between hardware failures of one node, hours. Drives the
    /// crash process of the fault subsystem; commodity clusters sit near
    /// 10^3 h, curated grid resources higher.
    pub node_mtbf_hours: f64,
}

impl PlatformSpec {
    /// Cluster topology for a job of `ranks` ranks (block placement over
    /// the minimum node count, single placement group).
    pub fn topology(&self, ranks: usize) -> ClusterTopology {
        let nodes = ranks
            .div_ceil(self.cores_per_node)
            .min(self.max_nodes)
            .max(1);
        ClusterTopology::uniform(nodes, self.cores_per_node)
    }

    /// SPMD configuration for the numerical engine (the M:N scheduler).
    pub fn spmd_config(&self, ranks: usize, seed: u64) -> SpmdConfig {
        SpmdConfig {
            size: ranks,
            topo: self.topology(ranks),
            net: self.network.clone(),
            compute: self.compute,
            seed,
        }
    }

    /// Nodes needed for `ranks` ranks.
    pub fn nodes_for(&self, ranks: usize) -> usize {
        ranks.div_ceil(self.cores_per_node)
    }

    /// Checks the platform's execution limits for a job.
    pub fn check_limits(
        &self,
        ranks: usize,
        bytes_per_node_per_iter: f64,
    ) -> Result<(), LimitViolation> {
        self.limits.check(ranks, bytes_per_node_per_iter)
    }

    /// Dollars for `ranks` ranks held for `seconds`.
    pub fn cost_of(&self, ranks: usize, seconds: f64) -> f64 {
        self.cost.cost(ranks, seconds)
    }

    /// Queue wait (seconds) before a job on `ranks` ranks starts.
    pub fn queue_wait(&self, ranks: usize, seed: u64) -> f64 {
        self.queue.wait_seconds(self.nodes_for(ranks).max(1), seed)
    }

    /// Total core capacity.
    pub fn total_cores(&self) -> usize {
        self.cores_per_node * self.max_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Billing;

    fn spec() -> PlatformSpec {
        PlatformSpec {
            key: "test".into(),
            description: "test platform".into(),
            cpu_model: "Test CPU".into(),
            cores_per_node: 4,
            max_nodes: 8,
            ram_per_core_gib: 2.0,
            compute: ComputeModel::new(1e9, 4e9),
            network: NetworkModel::gigabit_ethernet(),
            access: AccessKind::UserSpace,
            scheduler: SchedulerKind::PbsTorque,
            queue: QueueModel {
                base: 60.0,
                per_node: 10.0,
                spread: 0.0,
                size_exponent: 1.0,
            },
            cost: CostModel {
                billing: Billing::PerCoreHour(0.05),
                note: String::new(),
            },
            limits: ExecutionLimits::capacity_only(32),
            node_mtbf_hours: 1000.0,
        }
    }

    #[test]
    fn topology_uses_minimum_nodes() {
        let s = spec();
        assert_eq!(s.topology(4).num_nodes(), 1);
        assert_eq!(s.topology(5).num_nodes(), 2);
        assert_eq!(s.nodes_for(9), 3);
    }

    #[test]
    fn spmd_config_round_trip() {
        let s = spec();
        let cfg = s.spmd_config(8, 7);
        assert_eq!(cfg.size, 8);
        assert_eq!(cfg.topo.cores_per_node(), 4);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn limits_enforced() {
        let s = spec();
        assert!(s.check_limits(32, 0.0).is_ok());
        assert!(s.check_limits(33, 0.0).is_err());
    }

    #[test]
    fn queue_wait_positive() {
        let s = spec();
        assert!(s.queue_wait(8, 0) >= 60.0);
    }
}
