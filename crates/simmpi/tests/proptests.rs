//! Property-based tests of the simulator's semantic guarantees.

use hetero_simmpi::collectives::ReduceOp;
use hetero_simmpi::modeled::{VirtualEnv, VirtualMsg, VirtualRank};
use hetero_simmpi::rng::{hash_msg, hash_prefix, jitter_factor, splitmix64, to_unit};
use hetero_simmpi::{
    run_spmd, run_spmd_opts, ClusterTopology, ComputeModel, EngineOpts, FaultPlan, MsgContext,
    NetworkModel, Payload, SimComm, SpmdConfig, Work,
};
use proptest::prelude::*;

/// Per-message pricing as it was written before links were priced once:
/// four hash rounds and the whole network formula for every message. The
/// oracle the priced path must reproduce bitwise.
mod per_message {
    use hetero_simmpi::rng::{splitmix64, to_unit};
    use hetero_simmpi::NetworkModel;

    pub fn hash_msg(seed: u64, src: u64, dst: u64, seq: u64) -> u64 {
        let mut h = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
        h = splitmix64(h ^ src.wrapping_mul(0xE703_7ED1_A0B4_28DB));
        h = splitmix64(h ^ dst.wrapping_mul(0x8EBC_6AF0_9C88_C6E3));
        splitmix64(h ^ seq)
    }

    pub fn jitter_factor(seed: u64, src: u64, dst: u64, seq: u64, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return 1.0;
        }
        let h = hash_msg(seed, src, dst, seq);
        let u = to_unit(h);
        let p_spike = 0.02;
        let spike = 1.0 + 8.0 * sigma;
        if u < p_spike {
            spike
        } else {
            let v = to_unit(splitmix64(h));
            let base = 1.0 + sigma * (v - 0.5);
            (base - p_spike * (spike - 1.0)).max(0.05)
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn transfer_cost(
        net: &NetworkModel,
        bytes: f64,
        same_node: bool,
        same_group: bool,
        nic_sharers: usize,
        nodes_active: usize,
        (seed, src, dst, seq): (u64, u64, u64, u64),
    ) -> (f64, f64) {
        if same_node {
            return (net.latency_intra, bytes / net.intra_bw);
        }
        let lat = if same_group {
            net.latency
        } else {
            net.latency * net.cross_group_lat_mult
        };
        let mut bw = net.node_bw / nic_sharers.max(1) as f64;
        if !same_group {
            bw *= net.cross_group_bw_mult;
        }
        let contention = if nodes_active <= net.switch_radix || net.oversubscription == 0.0 {
            1.0
        } else {
            (nodes_active as f64 / net.switch_radix as f64).powf(net.oversubscription)
        };
        let scale = contention * jitter_factor(seed, src, dst, seq, net.jitter_sigma);
        (lat * scale, bytes / bw * scale)
    }
}

fn fabric(pick: usize) -> NetworkModel {
    match pick {
        0 => NetworkModel::gigabit_ethernet(),
        1 => NetworkModel::ten_gig_ethernet_ec2(),
        2 => NetworkModel::infiniband_ddr(),
        _ => NetworkModel::ideal(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_hash_prefix_then_one_round_is_the_message_hash(
        seed in any::<u64>(),
        src in any::<u64>(),
        dst in any::<u64>(),
        seq in any::<u64>(),
    ) {
        let h = hash_msg(seed, src, dst, seq);
        prop_assert_eq!(h, splitmix64(hash_prefix(seed, src, dst) ^ seq));
        prop_assert_eq!(h, per_message::hash_msg(seed, src, dst, seq));
    }

    #[test]
    fn a_priced_link_costs_what_per_message_pricing_did(
        (seed, src, dst, seq) in (any::<u64>(), 0u64..4096, 0u64..4096, any::<u64>()),
        (bytes, same_node, same_group) in (0.0f64..1e7, any::<bool>(), any::<bool>()),
        (nic_sharers, nodes, radix) in (0usize..40, 1usize..160, 1usize..64),
        (pick, sigma, oversubscription) in (
            0usize..4,
            prop_oneof![Just(0.0), 0.0f64..0.6],
            prop_oneof![Just(0.0), 0.0f64..2.0],
        ),
    ) {
        let net = NetworkModel {
            jitter_sigma: sigma,
            switch_radix: radix,
            oversubscription,
            ..fabric(pick)
        };
        let key = (seed, src, dst, seq);
        let want = per_message::transfer_cost(
            &net, bytes, same_node, same_group, nic_sharers, nodes, key,
        );
        let prefix = hash_prefix(seed, src, dst);
        prop_assert_eq!(
            jitter_factor(prefix, seq, sigma).to_bits(),
            per_message::jitter_factor(seed, src, dst, seq, sigma).to_bits()
        );
        let link = net.link(bytes, same_node, same_group, nic_sharers, prefix);
        let priced = net.link_cost(&link, seq, net.fabric_contention(nodes));
        let ctx = net.transfer_cost(MsgContext {
            bytes,
            same_node,
            same_group,
            nic_sharers,
            nodes_active: nodes,
            jitter_key: key,
        });
        for got in [priced, ctx] {
            prop_assert_eq!(got.0.to_bits(), want.0.to_bits(), "latency {:?} vs {:?}", got, want);
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits(), "drain {:?} vs {:?}", got, want);
        }
    }
}

fn cfg(size: usize, seed: u64) -> SpmdConfig {
    SpmdConfig {
        size,
        topo: ClusterTopology::uniform(size.div_ceil(4).max(1), 4),
        net: NetworkModel::gigabit_ethernet(),
        compute: ComputeModel::new(1e9, 4e9),
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn allreduce_equals_serial_fold(
        size in 1usize..10,
        values in prop::collection::vec(-10.0f64..10.0, 1..5),
        op_pick in 0usize..3,
    ) {
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][op_pick];
        let vals = values.clone();
        let results = run_spmd(cfg(size, 1), move |comm| {
            // Rank r contributes values scaled by (r+1).
            let mine: Vec<f64> =
                vals.iter().map(|v| v * (comm.rank() + 1) as f64).collect();
            comm.allreduce(op, &mine)
        });
        // Serial oracle.
        for (slot, &v) in values.iter().enumerate() {
            let contributions: Vec<f64> =
                (0..size).map(|r| v * (r + 1) as f64).collect();
            let expect = match op {
                ReduceOp::Sum => contributions.iter().sum::<f64>(),
                ReduceOp::Max => contributions.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                ReduceOp::Min => contributions.iter().cloned().fold(f64::INFINITY, f64::min),
            };
            for r in &results {
                prop_assert!((r.value[slot] - expect).abs() < 1e-9,
                    "slot {slot}: {} vs {expect}", r.value[slot]);
            }
        }
    }

    #[test]
    fn clocks_are_monotone_and_nonnegative(size in 2usize..8, rounds in 1usize..6) {
        let results = run_spmd(cfg(size, 2), move |comm| {
            let mut last = comm.clock();
            let mut ok = last >= 0.0;
            for _ in 0..rounds {
                comm.compute(Work::new(1e6, 1e6));
                ok &= comm.clock() >= last;
                last = comm.clock();
                let next = (comm.rank() + 1) % comm.size();
                let prev = (comm.rank() + comm.size() - 1) % comm.size();
                comm.send(next, 0, Payload::F64(vec![1.0; 16]));
                let _ = comm.recv_f64(prev, 0);
                ok &= comm.clock() >= last;
                last = comm.clock();
            }
            ok
        });
        for r in &results {
            prop_assert!(r.value);
            prop_assert!(r.clock > 0.0);
        }
    }

    #[test]
    fn virtual_time_is_scheduling_independent(size in 2usize..8, seed in 0u64..50) {
        let body = move |comm: &mut hetero_simmpi::SimComm| {
            for _ in 0..3 {
                let _ = comm.allreduce_scalar(ReduceOp::Sum, comm.rank() as f64);
                comm.barrier();
            }
            comm.clock()
        };
        let a = run_spmd(cfg(size, seed), body);
        let b = run_spmd(cfg(size, seed), body);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.value, y.value);
        }
    }

    #[test]
    fn transfer_cost_is_monotone_in_bytes(
        b1 in 0.0f64..1e6,
        extra in 1.0f64..1e6,
        sharers in 1usize..16,
        nodes in 1usize..64,
    ) {
        let net = NetworkModel::gigabit_ethernet();
        let ctx = |bytes: f64| MsgContext {
            bytes,
            same_node: false,
            same_group: true,
            nic_sharers: sharers,
            nodes_active: nodes,
            jitter_key: (1, 2, 3, 4),
        };
        prop_assert!(net.transfer_time(ctx(b1 + extra)) > net.transfer_time(ctx(b1)));
    }

    #[test]
    fn contention_is_monotone_in_nodes(n1 in 1usize..100, n2 in 1usize..100) {
        let net = NetworkModel::ten_gig_ethernet_ec2();
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        prop_assert!(net.fabric_contention(lo) <= net.fabric_contention(hi));
        prop_assert!(net.fabric_contention(lo) >= 1.0);
    }

    #[test]
    fn jitter_is_positive_and_mean_preserving(seed in 0u64..100, sigma in 0.0f64..0.6) {
        let n = 4000u64;
        let mut sum = 0.0;
        for s in 0..n {
            let j = jitter_factor(hash_prefix(seed, 1, 2), s, sigma);
            prop_assert!(j > 0.0);
            sum += j;
        }
        let mean = sum / n as f64;
        prop_assert!((mean - 1.0).abs() < 0.08, "mean = {mean}");
    }

    #[test]
    fn unit_samples_stay_in_range(h in any::<u64>()) {
        let u = to_unit(h);
        prop_assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn virtual_rank_halo_cost_is_monotone_in_message_count(
        peers in 1usize..20,
        bytes in 1.0f64..1e5,
    ) {
        let env = VirtualEnv {
            net: NetworkModel::gigabit_ethernet(),
            compute: ComputeModel::new(1e9, 4e9),
            nic_sharers: 4,
            nodes_active: 8,
            size: 32,
            rank: 0,
            seed: 9,
        };
        let cost = |k: usize| {
            let mut v = VirtualRank::new(env.clone());
            let msgs = v.price(
                (0..k).map(|p| VirtualMsg { peer: p + 1, bytes, same_node: false, same_group: true }),
            );
            v.halo_exchange(&msgs);
            v.clock()
        };
        prop_assert!(cost(peers + 1) > cost(peers));
    }

    #[test]
    fn gather_roundtrips_any_payload(
        size in 1usize..8,
        payload in prop::collection::vec(-5.0f64..5.0, 0..6),
    ) {
        let p2 = payload.clone();
        let results = run_spmd(cfg(size, 3), move |comm| {
            let mut mine = p2.clone();
            mine.push(comm.rank() as f64);
            comm.gather(0, &mine)
        });
        let root = results[0].value.as_ref().unwrap();
        for (r, v) in root.iter().enumerate() {
            let mut expect = payload.clone();
            expect.push(r as f64);
            prop_assert_eq!(v, &expect);
        }
    }
}

// ---- M:N cooperative-scheduler properties ----

/// One round of a randomly generated but deadlock-free SPMD program: every
/// rank executes the same round list, so every send has a matching recv.
#[derive(Debug, Clone, Copy)]
enum Round {
    /// Shift a payload of `len` f64s around the ring under `tag`.
    RingShift { tag: u64, len: usize },
    /// Same, in the other direction.
    ReverseShift { tag: u64, len: usize },
    /// A scalar sum allreduce.
    Allreduce,
    /// A dissemination barrier.
    Barrier,
    /// Local compute (advances the virtual clock without traffic).
    Compute { flops: u64 },
}

fn round_strategy() -> impl Strategy<Value = Round> {
    prop_oneof![
        (0u64..5, 1usize..64).prop_map(|(tag, len)| Round::RingShift { tag, len }),
        (0u64..5, 1usize..64).prop_map(|(tag, len)| Round::ReverseShift { tag, len }),
        Just(Round::Allreduce),
        Just(Round::Barrier),
        (1u64..50_000_000).prop_map(|flops| Round::Compute { flops }),
    ]
}

/// Executes the round list and returns a bitwise fingerprint of everything
/// observable: every received value, the running clock after each round,
/// and the final communication stats.
fn run_rounds(rounds: &[Round], comm: &mut SimComm) -> Vec<u64> {
    let size = comm.size();
    let mut fp = Vec::new();
    for r in rounds {
        match *r {
            Round::RingShift { tag, len } => {
                let next = (comm.rank() + 1) % size;
                let prev = (comm.rank() + size - 1) % size;
                comm.send(next, tag, Payload::F64(vec![comm.rank() as f64; len]));
                for v in comm.recv_f64(prev, tag) {
                    fp.push(v.to_bits());
                }
            }
            Round::ReverseShift { tag, len } => {
                let next = (comm.rank() + 1) % size;
                let prev = (comm.rank() + size - 1) % size;
                comm.send(prev, tag, Payload::F64(vec![comm.clock(); len]));
                for v in comm.recv_f64(next, tag) {
                    fp.push(v.to_bits());
                }
            }
            Round::Allreduce => {
                let s = comm.allreduce_scalar(ReduceOp::Sum, comm.rank() as f64 + 0.5);
                fp.push(s.to_bits());
            }
            Round::Barrier => comm.barrier(),
            Round::Compute { flops } => comm.compute(Work::new(flops as f64, 1e6)),
        }
        fp.push(comm.clock().to_bits());
    }
    fp.push(comm.stats().bytes_received.to_bits());
    fp
}

/// Fingerprints of all ranks on the given worker pool.
fn fingerprint(cfg: &SpmdConfig, opts: EngineOpts, rounds: &[Round]) -> Vec<(Vec<u64>, u64)> {
    let rounds = rounds.to_vec();
    let (res, _) = run_spmd_opts(cfg.clone(), opts, FaultPlan::none(), None, move |comm| {
        run_rounds(&rounds, comm)
    });
    res.expect("no faults planned")
        .into_iter()
        .map(|r| (r.value, r.clock.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of sends, recvs, and collectives over random
    /// rank counts produce the identical message order and final clocks at
    /// every pool size.
    #[test]
    fn random_programs_agree_across_worker_pools(
        size in 2usize..12,
        seed in 0u64..1000,
        rounds in prop::collection::vec(round_strategy(), 1..6),
    ) {
        let c = cfg(size, seed);
        let one = fingerprint(&c, EngineOpts::cooperative(1), &rounds);
        for workers in [3usize, 0] {
            let pool = fingerprint(&c, EngineOpts::cooperative(workers), &rounds);
            prop_assert_eq!(&pool, &one,
                "pool of {} diverged on {:?}", workers, rounds);
        }
    }
}

// ---- the mailbox against the structure it replaced ----

/// One step of a script rank 0 runs against its own mailbox, with ranks
/// `1..=MAIL_SOURCES` as the senders.
#[derive(Debug, Clone, Copy)]
enum MailOp {
    /// `src` posts a message under `tag`, and rank 0 waits for the source's
    /// acknowledgement — which queues behind the message in the same lane —
    /// so the message is in the mailbox before the next step.
    Push { src: usize, tag: u64 },
    /// Rank 0 receives the oldest queued `(src, tag)` message. Dropped from
    /// the script when the reference has none queued (it would deadlock).
    Pop { src: usize, tag: u64 },
    /// `src` is asked to post under `tag` and rank 0 receives from
    /// `(src, tag)` at once: the receive usually finds nothing queued yet
    /// and parks, which goes through the scheduler's `has_queued` re-check
    /// and the sender's wake.
    PostAndPop { src: usize, tag: u64 },
}

const MAIL_SOURCES: usize = 6;
const MAIL_TAGS: u64 = 5;
const MAIL_CMD: u64 = 100;
const MAIL_ACK: u64 = 101;

fn mail_op_strategy() -> impl Strategy<Value = MailOp> {
    // Two in five steps post, two in five receive, one in five does both.
    (0u8..5, 1usize..=MAIL_SOURCES, 0u64..MAIL_TAGS).prop_map(|(kind, src, tag)| match kind {
        0 | 1 => MailOp::Push { src, tag },
        2 | 3 => MailOp::Pop { src, tag },
        _ => MailOp::PostAndPop { src, tag },
    })
}

/// Runs `ops` on the mailbox the simulator had before per-source lanes — a
/// FIFO per `(src, tag)` key — and returns the script that can complete
/// (pops of an empty queue dropped, then every queue drained in key order)
/// with the value each of its receives must return. A message's value is
/// the index of the step that posted it.
fn reference_mailbox(ops: &[MailOp]) -> (Vec<MailOp>, Vec<usize>) {
    use std::collections::{HashMap, VecDeque};
    let mut queues: HashMap<(usize, u64), VecDeque<usize>> = HashMap::new();
    let mut script = Vec::new();
    let mut received = Vec::new();
    for &op in ops {
        let posted = script.len();
        match op {
            MailOp::Push { src, tag } => queues.entry((src, tag)).or_default().push_back(posted),
            MailOp::Pop { src, tag } => {
                match queues.get_mut(&(src, tag)).and_then(VecDeque::pop_front) {
                    Some(v) => received.push(v),
                    None => continue,
                }
            }
            MailOp::PostAndPop { src, tag } => {
                let q = queues.entry((src, tag)).or_default();
                q.push_back(posted);
                received.push(q.pop_front().expect("just pushed"));
            }
        }
        script.push(op);
    }
    let mut left: Vec<_> = queues.into_iter().collect();
    left.sort_by_key(|&(key, _)| key);
    for ((src, tag), q) in left {
        for v in q {
            script.push(MailOp::Pop { src, tag });
            received.push(v);
        }
    }
    (script, received)
}

/// Rank 0 runs `script` (returning what it received, in order); the other
/// ranks post what rank 0 commands until told to stop.
fn run_mail_script(script: &[MailOp], comm: &mut SimComm) -> Vec<usize> {
    if comm.rank() != 0 {
        while let Payload::Usize(cmd) = comm.recv(0, MAIL_CMD) {
            comm.send(0, cmd[0] as u64, Payload::Usize(vec![cmd[1]]));
            if cmd[2] == 1 {
                comm.send(0, MAIL_ACK, Payload::Empty);
            }
        }
        return Vec::new();
    }
    let mut received = Vec::new();
    for (step, &op) in script.iter().enumerate() {
        match op {
            MailOp::Push { src, tag } => {
                comm.send(src, MAIL_CMD, Payload::Usize(vec![tag as usize, step, 1]));
                let _ = comm.recv(src, MAIL_ACK);
            }
            MailOp::Pop { src, tag } => received.push(comm.recv_usize(src, tag)[0]),
            MailOp::PostAndPop { src, tag } => {
                comm.send(src, MAIL_CMD, Payload::Usize(vec![tag as usize, step, 0]));
                received.push(comm.recv_usize(src, tag)[0]);
            }
        }
    }
    for src in 1..comm.size() {
        comm.send(src, MAIL_CMD, Payload::Empty);
    }
    received
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random post/receive sequences over 6 sources and 5 tags deliver the
    /// same messages in the same order as a FIFO per `(src, tag)`, at every
    /// pool size.
    #[test]
    fn mailbox_matches_a_fifo_per_source_and_tag(
        ops in prop::collection::vec(mail_op_strategy(), 1..80),
    ) {
        let (script, expected) = reference_mailbox(&ops);
        for opts in [EngineOpts::cooperative(1), EngineOpts::cooperative(3), EngineOpts::default()] {
            let script = script.clone();
            let (res, _) = run_spmd_opts(
                cfg(MAIL_SOURCES + 1, 5),
                opts,
                FaultPlan::none(),
                None,
                move |comm| run_mail_script(&script, comm),
            );
            let res = res.expect("no faults planned");
            prop_assert_eq!(&res[0].value, &expected, "{:?} diverged", opts);
        }
    }
}

#[test]
fn random_program_agrees_across_pools_at_4523_ranks() {
    // The same property at thousands of ranks: pool sizes cannot change
    // anything observable.
    let size = 4523;
    let c = SpmdConfig {
        size,
        topo: ClusterTopology::uniform(size.div_ceil(16), 16),
        net: NetworkModel::gigabit_ethernet(),
        compute: ComputeModel::new(1e9, 4e9),
        seed: 17,
    };
    let rounds = [
        Round::RingShift { tag: 1, len: 8 },
        Round::Compute { flops: 1_000_000 },
        Round::ReverseShift { tag: 2, len: 4 },
        Round::Allreduce,
    ];
    let one = fingerprint(&c, EngineOpts::cooperative(1), &rounds);
    for workers in [3, 0] {
        assert_eq!(
            one,
            fingerprint(&c, EngineOpts::cooperative(workers), &rounds)
        );
    }
}

/// Runs `f` on a fresh thread and panics if it does not finish within
/// `secs` — the scheduler must *detect* deadlocks, never hang on them.
fn with_watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(std::time::Duration::from_secs(secs))
        .expect("deadlock detection must report, not hang")
}

#[test]
fn cyclic_recv_deadlock_surfaces_as_deterministic_error() {
    // Every rank waits on its left neighbour before sending: a recv cycle
    // with no message in flight. The run must fail fast with a stable,
    // structural report — identical across runs and pool sizes.
    let report = |workers: usize| -> String {
        with_watchdog(120, move || {
            let c = SpmdConfig {
                size: 5,
                topo: ClusterTopology::uniform(5, 1),
                net: NetworkModel::ideal(),
                compute: ComputeModel::new(1e9, 1e9),
                seed: 0,
            };
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_spmd_opts(
                    c,
                    EngineOpts::cooperative(workers),
                    FaultPlan::none(),
                    None,
                    |comm| {
                        let prev = (comm.rank() + comm.size() - 1) % comm.size();
                        let _ = comm.recv_f64(prev, 9);
                    },
                )
            }))
            .expect_err("a recv cycle must fail the job");
            err.downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".into())
        })
    };
    let first = report(1);
    assert!(first.contains("job deadlocked"), "got: {first}");
    assert!(
        first.contains("rank 0 waits on recv(src=4, tag=9)"),
        "got: {first}"
    );
    assert_eq!(first, report(1), "deadlock report must reproduce");
    assert_eq!(first, report(4), "deadlock report must be pool-independent");
}
