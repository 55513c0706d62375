//! Job schedulers and availability (queue-wait) models.
//!
//! The paper stresses that availability — "wait time to obtain access to the
//! machine" — is a first-class axis of heterogeneity: "IaaS's provide
//! resources immediately, while local and grid resources are often subject
//! to long queue wait times — an aspect that might offset any additional
//! expense."

use hetero_simmpi::rng::{splitmix64, to_unit};
use serde::{Deserialize, Serialize};

/// The execution mechanism on a platform (Table I's "execution" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// PBS/Torque batch scheduler (puma).
    PbsTorque,
    /// Sun Grid Engine configured for serial batches only; parallel jobs
    /// run by letting Open MPI liaise with SGE (ellipse).
    SgeSerialOnly,
    /// PBS Professional (lagrange).
    PbsPro,
    /// Direct shell + mpiexec on IaaS hosts (ec2).
    DirectShell,
}

impl SchedulerKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::PbsTorque => "PBS (Torque)",
            SchedulerKind::SgeSerialOnly => "SGE (serial-only)",
            SchedulerKind::PbsPro => "PBS Professional",
            SchedulerKind::DirectShell => "shell + mpiexec",
        }
    }
}

/// A deterministic queue-wait model: `wait = base + per_node * nodes`,
/// scaled by a hash-seeded congestion factor in `[1, 1 + spread]` and by a
/// superlinear large-job penalty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueModel {
    /// Minimum wait in seconds (submission/boot overhead).
    pub base: f64,
    /// Additional wait per node requested.
    pub per_node: f64,
    /// Relative spread of the congestion factor (0 = deterministic).
    pub spread: f64,
    /// Exponent on the node count for large-job queue penalties
    /// (1.0 = linear; grid centers queue big jobs much longer).
    pub size_exponent: f64,
}

impl QueueModel {
    /// Expected wait in seconds to obtain `nodes` nodes, for a given
    /// experiment seed (deterministic per (model, seed, nodes)).
    pub fn wait_seconds(&self, nodes: usize, seed: u64) -> f64 {
        assert!(nodes > 0);
        let h = splitmix64(seed ^ (nodes as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let congestion = 1.0 + self.spread * to_unit(h);
        (self.base + self.per_node * (nodes as f64).powf(self.size_exponent)) * congestion
    }

    /// Wait to *re*-acquire `nodes` nodes for restart attempt `attempt`
    /// (1-based). Each attempt resamples the congestion draw — the queue
    /// the job rejoins is not the queue it left — by salting the seed, so
    /// retries are deterministic per `(model, seed, nodes, attempt)`.
    pub fn reacquisition_wait_seconds(&self, nodes: usize, seed: u64, attempt: usize) -> f64 {
        self.wait_seconds(
            nodes,
            splitmix64(seed ^ (attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
        )
    }

    /// An on-demand model: boot latency only (IaaS).
    pub fn on_demand(boot_seconds: f64, per_node: f64) -> Self {
        QueueModel {
            base: boot_seconds,
            per_node,
            spread: 0.3,
            size_exponent: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_grows_with_nodes() {
        let q = QueueModel {
            base: 600.0,
            per_node: 60.0,
            spread: 0.0,
            size_exponent: 1.2,
        };
        assert!(q.wait_seconds(32, 1) > q.wait_seconds(2, 1));
    }

    #[test]
    fn wait_is_deterministic_per_seed() {
        let q = QueueModel {
            base: 100.0,
            per_node: 10.0,
            spread: 0.5,
            size_exponent: 1.0,
        };
        assert_eq!(q.wait_seconds(8, 42), q.wait_seconds(8, 42));
        assert_ne!(q.wait_seconds(8, 42), q.wait_seconds(8, 43));
    }

    #[test]
    fn on_demand_is_fast() {
        let cloud = QueueModel::on_demand(90.0, 2.0);
        let grid = QueueModel {
            base: 3600.0,
            per_node: 120.0,
            spread: 1.0,
            size_exponent: 1.3,
        };
        for nodes in [1usize, 8, 63] {
            assert!(cloud.wait_seconds(nodes, 7) < grid.wait_seconds(nodes, 7) / 5.0);
        }
    }

    #[test]
    fn congestion_bounded_by_spread() {
        let q = QueueModel {
            base: 100.0,
            per_node: 0.0,
            spread: 0.5,
            size_exponent: 1.0,
        };
        for seed in 0..200 {
            let w = q.wait_seconds(4, seed);
            assert!((100.0..150.0 + 1e-9).contains(&w), "w = {w}");
        }
    }
}
