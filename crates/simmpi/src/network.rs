//! The interconnect cost model.
//!
//! A message between ranks is charged
//!
//! * **intra-node**: `latency_intra + bytes / intra_bw` (a memory copy);
//! * **inter-node**: `latency * L + bytes / B_eff`, where
//!   `B_eff = node_bw / nic_sharers / fabric_contention(nodes) * G`,
//!   `L` and `G` are placement-group penalties when the endpoints' nodes sit
//!   in different groups, and the whole transfer is scaled by a
//!   deterministic per-message jitter factor (virtualization noise).
//!
//! `nic_sharers` captures the paper's own explanation of its results: all
//! ranks on a node share one network adapter, so a 4-core 1 GbE node gives
//! each rank ~31 MB/s while a 16-core 10 GbE cc2.8xlarge gives ~78 MB/s —
//! and the EC2 assembly "exploits notably fewer hosts hence the smaller
//! volume of data is exchanged".

use crate::rng::{hash_prefix, jitter_factor};
use serde::{Deserialize, Serialize};

/// Context for pricing one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgContext {
    /// Modeled payload size in bytes.
    pub bytes: f64,
    /// Endpoints share a node.
    pub same_node: bool,
    /// Endpoints' nodes share a placement group.
    pub same_group: bool,
    /// Ranks sharing the sending node's NIC (>= 1).
    pub nic_sharers: usize,
    /// Nodes participating in the job (drives fabric contention).
    pub nodes_active: usize,
    /// Jitter key: (seed, src, dst, per-pair sequence number).
    pub jitter_key: (u64, u64, u64, u64),
}

/// One message's route priced by [`NetworkModel::link`]: all of its cost
/// but the jitter of its sequence number, which [`NetworkModel::link_cost`]
/// applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Arrival latency before contention and jitter.
    latency: f64,
    /// Drain time (`bytes / bw`) before contention and jitter.
    drain: f64,
    /// Endpoints share a node: the copy is neither contended nor jittered.
    same_node: bool,
    /// [`hash_prefix`] of `(seed, src, dst)`.
    jitter_prefix: u64,
}

/// Parameters of one interconnect fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Human-readable fabric name ("1GbE", "10GbE", "IB 4X DDR").
    pub name: String,
    /// One-way inter-node latency in seconds (includes software overhead).
    pub latency: f64,
    /// Intra-node (shared-memory transport) latency in seconds.
    pub latency_intra: f64,
    /// Per-node NIC bandwidth, bytes/second (shared by all ranks on a node).
    pub node_bw: f64,
    /// Intra-node copy bandwidth, bytes/second.
    pub intra_bw: f64,
    /// Nodes served without contention by the switching fabric. Beyond this,
    /// effective bandwidth is divided by `(nodes / radix) ^ oversubscription`.
    pub switch_radix: usize,
    /// Fabric oversubscription exponent (0 = full bisection at any scale).
    pub oversubscription: f64,
    /// Latency multiplier for messages crossing placement groups.
    pub cross_group_lat_mult: f64,
    /// Bandwidth multiplier (<= 1) for messages crossing placement groups.
    pub cross_group_bw_mult: f64,
    /// Virtualization jitter amplitude (0 = deterministic fabric).
    pub jitter_sigma: f64,
}

impl NetworkModel {
    /// Fabric contention factor (>= 1) for a job spanning `nodes` nodes.
    #[inline]
    pub fn fabric_contention(&self, nodes: usize) -> f64 {
        if nodes <= self.switch_radix || self.oversubscription == 0.0 {
            1.0
        } else {
            (nodes as f64 / self.switch_radix as f64).powf(self.oversubscription)
        }
    }

    /// Prices one message as `(arrival latency, drain time)`.
    ///
    /// * **arrival latency** — time until the first byte is available at
    ///   the receiver's adapter; concurrent messages overlap on this part;
    /// * **drain time** — time to pull the payload through the receiver's
    ///   NIC share; a rank's inbound messages serialize on this part, which
    ///   is what makes the bulk assembly exchange so expensive on slow
    ///   fabrics.
    ///
    /// Fabric contention multiplies *both* parts for inter-node traffic:
    /// congested Ethernet fabrics suffer latency inflation (incast queueing,
    /// retransmits) at least as much as throughput loss — the mechanism
    /// behind the steep large-scale degradation in the paper's Figures 4/5.
    pub fn transfer_cost(&self, ctx: MsgContext) -> (f64, f64) {
        self.transfer_cost_under(ctx, self.fabric_contention(ctx.nodes_active))
    }

    /// [`Self::transfer_cost`] with the fabric contention of
    /// `ctx.nodes_active` already worked out, for a caller that prices many
    /// messages of one job.
    #[inline]
    pub(crate) fn transfer_cost_under(&self, ctx: MsgContext, contention: f64) -> (f64, f64) {
        let (seed, src, dst, seq) = ctx.jitter_key;
        // A same-node message is never jittered, so its pair is not hashed.
        let prefix = if ctx.same_node {
            0
        } else {
            hash_prefix(seed, src, dst)
        };
        let link = self.link(
            ctx.bytes,
            ctx.same_node,
            ctx.same_group,
            ctx.nic_sharers,
            prefix,
        );
        self.link_cost(&link, seq, contention)
    }

    /// Prices everything about a message of `bytes` (payload plus header)
    /// that its sequence number does not change: its route's unscaled
    /// latency and drain time. `jitter_prefix` is
    /// [`hash_prefix`]`(seed, src, dst)` of its endpoints.
    #[inline]
    pub fn link(
        &self,
        bytes: f64,
        same_node: bool,
        same_group: bool,
        nic_sharers: usize,
        jitter_prefix: u64,
    ) -> Link {
        if same_node {
            return Link {
                latency: self.latency_intra,
                drain: bytes / self.intra_bw,
                same_node,
                jitter_prefix,
            };
        }
        let latency = if same_group {
            self.latency
        } else {
            self.latency * self.cross_group_lat_mult
        };
        let mut bw = self.node_bw / nic_sharers.max(1) as f64;
        if !same_group {
            bw *= self.cross_group_bw_mult;
        }
        Link {
            latency,
            drain: bytes / bw,
            same_node,
            jitter_prefix,
        }
    }

    /// `(arrival latency, drain time)` of the `seq`-th message over `link`
    /// in a job whose fabric contention is `contention`: the one place a
    /// message's cost is worked out. An inter-node message scales both
    /// parts by the contention times its jitter factor; a same-node one
    /// costs its unscaled copy.
    #[inline]
    pub fn link_cost(&self, link: &Link, seq: u64, contention: f64) -> (f64, f64) {
        if link.same_node {
            return (link.latency, link.drain);
        }
        let scale = contention * jitter_factor(link.jitter_prefix, seq, self.jitter_sigma);
        (link.latency * scale, link.drain * scale)
    }

    /// Total time of one message transferred in isolation (latency +
    /// drain).
    pub fn transfer_time(&self, ctx: MsgContext) -> f64 {
        let (lat, drain) = self.transfer_cost(ctx);
        lat + drain
    }

    /// Gigabit Ethernet as found on `puma`/`ellipse` (2006-era department
    /// clusters): ~45 us MPI latency, ~117 MB/s per node, modestly
    /// oversubscribed edge switches.
    pub fn gigabit_ethernet() -> Self {
        NetworkModel {
            name: "1GbE".into(),
            latency: 45e-6,
            latency_intra: 1.2e-6,
            node_bw: 117e6,
            intra_bw: 2.5e9,
            switch_radix: 16,
            oversubscription: 1.0,
            cross_group_lat_mult: 1.0,
            cross_group_bw_mult: 1.0,
            jitter_sigma: 0.04,
        }
    }

    /// Virtualized 10 GbE as on EC2 cc2.8xlarge (2011/12): high software
    /// latency through the hypervisor, ~1.1 GB/s per instance, placement
    /// groups give locality, and substantial multi-tenant jitter.
    pub fn ten_gig_ethernet_ec2() -> Self {
        NetworkModel {
            name: "10GbE".into(),
            latency: 150e-6,
            latency_intra: 1.0e-6,
            node_bw: 1.1e9,
            intra_bw: 4.0e9,
            switch_radix: 4,
            oversubscription: 1.7,
            cross_group_lat_mult: 1.25,
            cross_group_bw_mult: 0.9,
            jitter_sigma: 0.35,
        }
    }

    /// InfiniBand 4X DDR (20 Gb/s signaled, ~1.9 GB/s data) on a fat-tree as
    /// on `lagrange`: microsecond latency, effectively full bisection.
    pub fn infiniband_ddr() -> Self {
        NetworkModel {
            name: "IB 4X DDR".into(),
            latency: 3.2e-6,
            latency_intra: 0.8e-6,
            node_bw: 1.9e9,
            intra_bw: 5.0e9,
            switch_radix: 512,
            oversubscription: 0.0,
            cross_group_lat_mult: 1.0,
            cross_group_bw_mult: 1.0,
            jitter_sigma: 0.01,
        }
    }

    /// An idealized zero-latency infinite-bandwidth fabric, useful for
    /// isolating compute time in tests and ablations.
    pub fn ideal() -> Self {
        NetworkModel {
            name: "ideal".into(),
            latency: 0.0,
            latency_intra: 0.0,
            node_bw: f64::INFINITY,
            intra_bw: f64::INFINITY,
            switch_radix: usize::MAX,
            oversubscription: 0.0,
            cross_group_lat_mult: 1.0,
            cross_group_bw_mult: 1.0,
            jitter_sigma: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(bytes: f64) -> MsgContext {
        MsgContext {
            bytes,
            same_node: false,
            same_group: true,
            nic_sharers: 1,
            nodes_active: 2,
            jitter_key: (0, 0, 1, 0),
        }
    }

    #[test]
    fn ideal_fabric_is_free() {
        let m = NetworkModel::ideal();
        assert_eq!(m.transfer_time(ctx(1e9)), 0.0);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let m = NetworkModel::gigabit_ethernet();
        let t = m.transfer_time(MsgContext {
            jitter_key: (0, 0, 1, 0),
            ..ctx(8.0)
        });
        // An 8-byte message costs roughly the latency (jitter < 5%).
        assert!((t / m.latency - 1.0).abs() < 0.1, "t = {t}");
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let m = NetworkModel::gigabit_ethernet();
        let t = m.transfer_time(ctx(117e6));
        assert!(t > 0.9 && t < 1.2, "t = {t}");
    }

    #[test]
    fn nic_sharing_divides_bandwidth() {
        let m = NetworkModel::infiniband_ddr(); // no jitter to speak of
        let alone = m.transfer_time(ctx(1e8));
        let shared = m.transfer_time(MsgContext {
            nic_sharers: 4,
            ..ctx(1e8)
        });
        assert!(
            shared / alone > 3.5 && shared / alone < 4.2,
            "ratio {}",
            shared / alone
        );
    }

    #[test]
    fn intra_node_is_fast() {
        let m = NetworkModel::gigabit_ethernet();
        let inter = m.transfer_time(ctx(1e6));
        let intra = m.transfer_time(MsgContext {
            same_node: true,
            ..ctx(1e6)
        });
        assert!(intra < inter / 10.0);
    }

    #[test]
    fn fabric_contention_kicks_in_beyond_radix() {
        let m = NetworkModel::gigabit_ethernet();
        assert_eq!(m.fabric_contention(16), 1.0);
        assert!(m.fabric_contention(96) > 2.0);
        let ib = NetworkModel::infiniband_ddr();
        assert_eq!(ib.fabric_contention(10_000), 1.0);
    }

    #[test]
    fn cross_group_penalty() {
        let mut m = NetworkModel::ten_gig_ethernet_ec2();
        m.jitter_sigma = 0.0; // isolate the group effect
        let within = m.transfer_time(ctx(1e6));
        let across = m.transfer_time(MsgContext {
            same_group: false,
            ..ctx(1e6)
        });
        assert!(across > within, "{across} vs {within}");
    }

    #[test]
    fn jitter_changes_with_sequence_number() {
        let m = NetworkModel::ten_gig_ethernet_ec2();
        let a = m.transfer_time(MsgContext {
            jitter_key: (7, 0, 1, 0),
            ..ctx(1e6)
        });
        let b = m.transfer_time(MsgContext {
            jitter_key: (7, 0, 1, 1),
            ..ctx(1e6)
        });
        assert_ne!(a, b);
        // But the same key is reproducible.
        let a2 = m.transfer_time(MsgContext {
            jitter_key: (7, 0, 1, 0),
            ..ctx(1e6)
        });
        assert_eq!(a, a2);
    }

    #[test]
    fn ethernet_slower_than_infiniband() {
        let eth = NetworkModel::gigabit_ethernet();
        let ib = NetworkModel::infiniband_ddr();
        for bytes in [8.0, 1e4, 1e6, 1e8] {
            assert!(
                eth.transfer_time(ctx(bytes)) > ib.transfer_time(ctx(bytes)),
                "bytes = {bytes}"
            );
        }
    }
}
