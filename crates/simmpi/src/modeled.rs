//! The analytic ("modeled") execution engine.
//!
//! For configurations too large to execute numerically on one host — the
//! paper's 1000-rank, 200^3-element runs — a [`VirtualRank`] replays the
//! *cost* of the communication/computation sequence a real rank would
//! execute, using the same [`NetworkModel`]/[`ComputeModel`] and the same
//! per-message overhead constants as the numerical engine
//! ([`crate::SimComm`]). The integration test `model_validation` checks the
//! two engines agree at small scale.
//!
//! The virtual rank represents the *critical* rank of a bulk-synchronous
//! application: peers are assumed to reach each phase at the same virtual
//! time (exact under perfect weak scaling, slightly pessimistic otherwise).
//!
//! A replay sends the same messages step after step, so a message list is
//! priced once ([`VirtualRank::price`]) into [`Link`]s — send charge,
//! unscaled latency and drain, the endpoints' jitter-hash prefix — and the
//! job's fabric contention is worked out once per rank. Each replayed
//! message then pays only its sequence number's jitter, through
//! [`NetworkModel::link_cost`], the arithmetic the numerical engine prices
//! its messages with.

use crate::comm::{HEADER_BYTES, RECV_OVERHEAD, SEND_OVERHEAD};
use crate::network::{Link, NetworkModel};
use crate::rng::hash_prefix;
use crate::work::{ComputeModel, Work};

/// Smallest `d` with `2^d >= n`.
#[inline]
pub fn ceil_log2(n: usize) -> u32 {
    assert!(n > 0);
    (n as u64).next_power_of_two().trailing_zeros()
}

/// One modeled halo-exchange message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualMsg {
    /// Peer rank id (keys the jitter hash only).
    pub peer: usize,
    /// Payload bytes.
    pub bytes: f64,
    /// Peer lives on the same node.
    pub same_node: bool,
    /// Peer's node shares this rank's placement group.
    pub same_group: bool,
}

/// The environment a virtual rank runs in.
#[derive(Debug, Clone)]
pub struct VirtualEnv {
    /// Interconnect model.
    pub net: NetworkModel,
    /// Per-core compute model.
    pub compute: ComputeModel,
    /// Ranks sharing this rank's NIC.
    pub nic_sharers: usize,
    /// Nodes in the job.
    pub nodes_active: usize,
    /// Total ranks in the job.
    pub size: usize,
    /// This rank's id (keys the jitter hash).
    pub rank: usize,
    /// Experiment seed.
    pub seed: u64,
}

/// One message of a [`PricedMsgs`] list.
#[derive(Debug, Clone, Copy)]
struct PricedMsg {
    /// The sender's clock advance: fixed overhead plus packing.
    send: f64,
    link: Link,
}

/// A message list priced once for one virtual rank by
/// [`VirtualRank::price`]; exchanging it charges each message's jitter
/// only.
#[derive(Debug, Clone)]
pub struct PricedMsgs {
    msgs: Vec<PricedMsg>,
}

/// Cost-only replay of one rank's execution.
#[derive(Debug, Clone)]
pub struct VirtualRank {
    env: VirtualEnv,
    /// `env.net.fabric_contention(env.nodes_active)`.
    contention: f64,
    /// Jitter-hash prefix of the collectives' modeled partner, `rank ^ 1`.
    collective_prefix: u64,
    clock: f64,
    seq: u64,
    /// An overlapped exchange's arrival times, kept between exchanges.
    avails: Vec<f64>,
}

impl VirtualRank {
    /// Creates a virtual rank at clock zero.
    pub fn new(env: VirtualEnv) -> Self {
        assert!(env.size > 0 && env.rank < env.size);
        VirtualRank {
            contention: env.net.fabric_contention(env.nodes_active),
            collective_prefix: hash_prefix(env.seed, (env.rank ^ 1) as u64, env.rank as u64),
            env,
            clock: 0.0,
            seq: 0,
            avails: Vec::new(),
        }
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Charges computation, as [`crate::SimComm::compute`] does.
    pub fn compute(&mut self, work: Work) {
        self.clock += self.env.compute.time(work);
    }

    /// Prices a message list for this rank: each message's send charge
    /// and its [`Link`] from the peer.
    pub fn price(&self, msgs: impl IntoIterator<Item = VirtualMsg>) -> PricedMsgs {
        let env = &self.env;
        let msgs = msgs
            .into_iter()
            .map(|m| {
                let bytes = m.bytes + HEADER_BYTES;
                PricedMsg {
                    send: SEND_OVERHEAD + bytes / env.net.intra_bw,
                    link: env.net.link(
                        bytes,
                        m.same_node,
                        m.same_group,
                        env.nic_sharers,
                        hash_prefix(env.seed, m.peer as u64, env.rank as u64),
                    ),
                }
            })
            .collect();
        PricedMsgs { msgs }
    }

    /// `(latency, drain)` of the next message over `link`.
    #[inline]
    fn transfer(&mut self, link: &Link) -> (f64, f64) {
        let cost = self.env.net.link_cost(link, self.seq, self.contention);
        self.seq += 1;
        cost
    }

    /// Charges a neighbour halo exchange: post all sends, then drain all
    /// receives (the overlap pattern the FEM ghost update uses). Peers are
    /// assumed to start the exchange at the same virtual time.
    pub fn halo_exchange(&mut self, msgs: &PricedMsgs) {
        if msgs.msgs.is_empty() {
            return;
        }
        // Sends: fixed overhead + packing, serialized on the CPU.
        for m in &msgs.msgs {
            self.clock += m.send;
        }
        let depart = self.clock;
        // Receives, mirroring `SimComm::recv`: each message becomes
        // available after its latency (peers posted at ~the same time, so
        // latencies overlap), then drains serially through this rank's NIC.
        for m in &msgs.msgs {
            let (latency, drain) = self.transfer(&m.link);
            self.clock = self.clock.max(depart + latency) + drain + RECV_OVERHEAD;
        }
    }

    /// Charges a halo exchange whose transfers overlap with `interior`
    /// compute, mirroring the numerical engine's post/compute/`wait_all`
    /// sequence (`spmv_overlapped`): sends are posted up front, each
    /// message's full transfer (latency + drain) then progresses while the
    /// interior work runs, and the wait point only stalls for whatever the
    /// compute did not cover.
    pub fn halo_exchange_overlapped(&mut self, msgs: &PricedMsgs, interior: Work) {
        if msgs.msgs.is_empty() {
            self.compute(interior);
            return;
        }
        for m in &msgs.msgs {
            self.clock += m.send;
        }
        let depart = self.clock;
        let mut avails = std::mem::take(&mut self.avails);
        avails.clear();
        for m in &msgs.msgs {
            let (latency, drain) = self.transfer(&m.link);
            avails.push(depart + latency + drain);
        }
        self.compute(interior);
        for &a in &avails {
            self.clock = self.clock.max(a) + RECV_OVERHEAD;
        }
        self.avails = avails;
    }

    /// Charges one blocking message of `bytes` per tree level in `levels`,
    /// exchanged with the modeled partner `rank ^ 1`. Tree edges at level
    /// `k` connect ranks `2^k` apart; under block placement those stay on
    /// one node while `2^k` is below the ranks-per-node count, which is
    /// why small jobs on many-core nodes see cheap collectives.
    fn tree_rounds(&mut self, bytes: f64, levels: impl Iterator<Item = u32>) {
        let env = &self.env;
        let bytes = bytes + HEADER_BYTES;
        let send = SEND_OVERHEAD + bytes / env.net.intra_bw;
        let link = |same_node| {
            env.net.link(
                bytes,
                same_node,
                true,
                env.nic_sharers,
                self.collective_prefix,
            )
        };
        let (intra, inter) = (link(true), link(false));
        for level in levels {
            let link = if (1usize << level) < self.env.nic_sharers {
                intra
            } else {
                inter
            };
            let (lat, drain) = self.transfer(&link);
            self.clock += send + lat + drain + RECV_OVERHEAD;
        }
    }

    /// Charges a binomial-tree reduce + broadcast all-reduce of `n` doubles,
    /// mirroring [`crate::SimComm::allreduce`]. The modeled rank pays the
    /// worst-case tree depth on both phases.
    pub fn allreduce(&mut self, n: usize) {
        let depth = ceil_log2(self.env.size);
        if depth == 0 {
            return;
        }
        self.tree_rounds(8.0 * n as f64, (0..2 * depth).map(|l| l % depth));
        // Combine flops on the reduce path.
        self.compute(Work::new(
            depth as f64 * n as f64,
            depth as f64 * 16.0 * n as f64,
        ));
    }

    /// Charges a dissemination barrier (`ceil(log2 p)` rounds of empty
    /// messages), with the same per-level node locality as [`Self::allreduce`].
    pub fn barrier(&mut self) {
        self.tree_rounds(0.0, 0..ceil_log2(self.env.size));
    }

    /// Advances the clock without attributing work.
    pub fn advance(&mut self, seconds: f64) {
        assert!(seconds >= 0.0);
        self.clock += seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClusterTopology;

    fn env(size: usize, net: NetworkModel) -> VirtualEnv {
        let topo = ClusterTopology::uniform(size.div_ceil(4).max(1), 4);
        VirtualEnv {
            net,
            compute: ComputeModel::new(1e9, 4e9),
            nic_sharers: topo.ranks_on_node(0, size),
            nodes_active: topo.nodes_for_ranks(size),
            size,
            rank: 0,
            seed: 7,
        }
    }

    /// The virtual rank as it was before message lists were priced: every
    /// message built its context and went through
    /// [`NetworkModel::transfer_cost`] from scratch. The oracle the priced
    /// exchanges must reproduce bitwise.
    struct PerMessage {
        env: VirtualEnv,
        clock: f64,
        seq: u64,
    }

    impl PerMessage {
        fn transfer(
            &mut self,
            bytes: f64,
            same_node: bool,
            same_group: bool,
            peer: usize,
        ) -> (f64, f64) {
            let ctx = crate::network::MsgContext {
                bytes: bytes + HEADER_BYTES,
                same_node,
                same_group,
                nic_sharers: self.env.nic_sharers,
                nodes_active: self.env.nodes_active,
                jitter_key: (self.env.seed, peer as u64, self.env.rank as u64, self.seq),
            };
            self.seq += 1;
            self.env.net.transfer_cost(ctx)
        }

        fn halo_exchange(&mut self, msgs: &[VirtualMsg]) {
            if msgs.is_empty() {
                return;
            }
            for m in msgs {
                self.clock += SEND_OVERHEAD + (m.bytes + HEADER_BYTES) / self.env.net.intra_bw;
            }
            let depart = self.clock;
            for m in msgs {
                let (latency, drain) = self.transfer(m.bytes, m.same_node, m.same_group, m.peer);
                self.clock = self.clock.max(depart + latency) + drain + RECV_OVERHEAD;
            }
        }

        fn halo_exchange_overlapped(&mut self, msgs: &[VirtualMsg], interior: Work) {
            if msgs.is_empty() {
                self.clock += self.env.compute.time(interior);
                return;
            }
            for m in msgs {
                self.clock += SEND_OVERHEAD + (m.bytes + HEADER_BYTES) / self.env.net.intra_bw;
            }
            let depart = self.clock;
            let mut avails = Vec::with_capacity(msgs.len());
            for m in msgs {
                let (latency, drain) = self.transfer(m.bytes, m.same_node, m.same_group, m.peer);
                avails.push(depart + latency + drain);
            }
            self.clock += self.env.compute.time(interior);
            for a in avails {
                self.clock = self.clock.max(a) + RECV_OVERHEAD;
            }
        }

        fn allreduce(&mut self, n: usize) {
            let depth = ceil_log2(self.env.size);
            if depth == 0 {
                return;
            }
            let bytes = 8.0 * n as f64;
            for phase_level in 0..2 * depth {
                let level = phase_level % depth;
                let same_node = (1usize << level) < self.env.nic_sharers;
                let (lat, drain) = self.transfer(bytes, same_node, true, self.env.rank ^ 1);
                self.clock += SEND_OVERHEAD
                    + (bytes + HEADER_BYTES) / self.env.net.intra_bw
                    + lat
                    + drain
                    + RECV_OVERHEAD;
            }
            self.clock += self.env.compute.time(Work::new(
                depth as f64 * n as f64,
                depth as f64 * 16.0 * n as f64,
            ));
        }

        fn barrier(&mut self) {
            for level in 0..ceil_log2(self.env.size) {
                let same_node = (1usize << level) < self.env.nic_sharers;
                let (lat, drain) = self.transfer(0.0, same_node, true, self.env.rank ^ 1);
                self.clock += SEND_OVERHEAD
                    + HEADER_BYTES / self.env.net.intra_bw
                    + lat
                    + drain
                    + RECV_OVERHEAD;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(512))]

        #[test]
        fn priced_exchanges_match_per_message_pricing(
            (size, rank_pick, nic_sharers, nodes_active) in (1usize..300, 0usize..300, 1usize..20, 1usize..120),
            (pick, seed, reduce_n) in (0usize..4, proptest::prelude::any::<u64>(), 1usize..4),
            raw in proptest::collection::vec(
                (0usize..300, 0.0f64..1e6, proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>()),
                0..12,
            ),
        ) {
            let net = match pick {
                0 => NetworkModel::gigabit_ethernet(),
                1 => NetworkModel::ten_gig_ethernet_ec2(),
                2 => NetworkModel::infiniband_ddr(),
                _ => NetworkModel::ideal(),
            };
            let env = VirtualEnv {
                net,
                compute: ComputeModel::new(1e9, 4e9),
                nic_sharers,
                nodes_active,
                size,
                rank: rank_pick % size,
                seed,
            };
            let msgs: Vec<VirtualMsg> = raw
                .iter()
                .map(|&(peer, bytes, same_node, same_group)| VirtualMsg {
                    peer,
                    bytes,
                    same_node,
                    same_group,
                })
                .collect();
            let mut want = PerMessage { env: env.clone(), clock: 0.0, seq: 0 };
            let mut got = VirtualRank::new(env);
            let priced = got.price(msgs.iter().copied());
            let interior = Work::new(3e5, 1e6);
            for _ in 0..3 {
                want.halo_exchange(&msgs);
                got.halo_exchange(&priced);
                proptest::prop_assert_eq!(got.clock().to_bits(), want.clock.to_bits());
                want.halo_exchange_overlapped(&msgs, interior);
                got.halo_exchange_overlapped(&priced, interior);
                proptest::prop_assert_eq!(got.clock().to_bits(), want.clock.to_bits());
                want.allreduce(reduce_n);
                got.allreduce(reduce_n);
                proptest::prop_assert_eq!(got.clock().to_bits(), want.clock.to_bits());
                want.barrier();
                got.barrier();
                proptest::prop_assert_eq!(got.clock().to_bits(), want.clock.to_bits());
            }
        }
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(1000), 10);
    }

    #[test]
    fn compute_matches_roofline() {
        let mut v = VirtualRank::new(env(1, NetworkModel::ideal()));
        v.compute(Work::new(3e9, 0.0));
        assert!((v.clock() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn halo_exchange_costs_at_least_one_transfer() {
        let mut v = VirtualRank::new(env(8, NetworkModel::gigabit_ethernet()));
        let msgs = v.price([VirtualMsg {
            peer: 1,
            bytes: 1e6,
            same_node: false,
            same_group: true,
        }]);
        v.halo_exchange(&msgs);
        // >= latency + bytes / (bw / sharers).
        assert!(
            v.clock() > 45e-6 + 1e6 / (117e6 / 4.0) * 0.9,
            "clock = {}",
            v.clock()
        );
    }

    #[test]
    fn more_neighbors_cost_more() {
        let one = {
            let mut v = VirtualRank::new(env(27, NetworkModel::gigabit_ethernet()));
            let msgs = v.price([VirtualMsg {
                peer: 1,
                bytes: 1e5,
                same_node: false,
                same_group: true,
            }]);
            v.halo_exchange(&msgs);
            v.clock()
        };
        let many = {
            let mut v = VirtualRank::new(env(27, NetworkModel::gigabit_ethernet()));
            let msgs = v.price((0..26).map(|p| VirtualMsg {
                peer: p,
                bytes: 1e5,
                same_node: false,
                same_group: true,
            }));
            v.halo_exchange(&msgs);
            v.clock()
        };
        assert!(many > one);
    }

    #[test]
    fn allreduce_scales_logarithmically() {
        let cost = |p: usize| {
            let mut e = env(p, NetworkModel::infiniband_ddr());
            e.nic_sharers = 1;
            let mut v = VirtualRank::new(e);
            v.allreduce(1);
            v.clock()
        };
        let t8 = cost(8);
        let t64 = cost(64);
        let t512 = cost(512);
        // Depth grows 3 -> 6 -> 9: roughly linear in log p.
        assert!(t64 / t8 > 1.5 && t64 / t8 < 2.5, "ratio {}", t64 / t8);
        assert!(t512 / t64 > 1.2 && t512 / t64 < 1.8, "ratio {}", t512 / t64);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let mut v = VirtualRank::new(env(1, NetworkModel::gigabit_ethernet()));
        v.allreduce(10);
        v.barrier();
        assert_eq!(v.clock(), 0.0);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut v = VirtualRank::new(env(64, NetworkModel::ten_gig_ethernet_ec2()));
            let msgs = v.price([VirtualMsg {
                peer: 3,
                bytes: 5e4,
                same_node: false,
                same_group: true,
            }]);
            for _ in 0..10 {
                v.halo_exchange(&msgs);
                v.allreduce(1);
            }
            v.clock()
        };
        assert_eq!(run(), run());
    }
}
