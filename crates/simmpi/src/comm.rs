//! The per-rank communicator: typed point-to-point messaging with virtual
//! clocks. Halo traffic does not come through here: it has its own
//! per-pair slots (see [`crate::exchange`]).

use crate::engine::SpmdConfig;
use crate::exchange::{Halo, Registry};
use crate::fault::{FaultPanic, FaultPlan, RankFailed};
use crate::network::{Link, MsgContext, NetworkModel, Path};
use crate::rendezvous::{Arrival, Fate, Kind, Rendezvous, Yield};
use crate::stats::CommStats;
use crate::tape::{Op, RankTape, Recorder, TapeBudget};
use crate::topology::ClusterTopology;
use crate::work::{ComputeModel, Work};
use hetero_trace::{EventKind, Phase};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Fixed CPU-side cost of posting a send (buffer packing setup).
pub(crate) const SEND_OVERHEAD: f64 = 0.4e-6;
/// Fixed CPU-side cost of completing a receive.
pub(crate) const RECV_OVERHEAD: f64 = 0.4e-6;
/// Per-message wire/protocol header, counted toward modeled bytes.
pub(crate) const HEADER_BYTES: f64 = 64.0;

/// A message payload. The simulator moves *real* data between ranks so that
/// applications compute correct results; `Empty` messages carry timing only
/// (their modeled size still matters).
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A vector of floats (solution fragments, halo values...).
    F64(Vec<f64>),
    /// A vector of indices (DoF maps, sizes...).
    Usize(Vec<usize>),
    /// No data; a signal, or synthetic traffic with modeled bytes.
    Empty,
}

impl Payload {
    /// Modeled wire size of the payload body, in bytes.
    pub fn body_bytes(&self) -> f64 {
        match self {
            Payload::F64(v) => 8.0 * v.len() as f64,
            Payload::Usize(v) => 8.0 * v.len() as f64,
            Payload::Empty => 0.0,
        }
    }

    /// Modeled size of the whole message, header included: what
    /// [`SimComm::send`] prices this payload at.
    pub fn wire_bytes(&self) -> f64 {
        self.body_bytes() + HEADER_BYTES
    }
}

/// Handle for a nonblocking receive posted with [`SimComm::irecv`].
///
/// The handle records the *post time* on this rank's virtual clock; the
/// matching [`SimComm::wait_all`] charges a transfer that progressed
/// concurrently with whatever compute the rank charged between post and
/// wait.
#[derive(Debug, Clone, Copy)]
#[must_use = "a posted receive must be completed with wait_all"]
pub struct RecvRequest {
    src: usize,
    tag: u64,
    /// This rank's virtual clock when the receive was posted.
    posted: f64,
    /// The post's index on the rank's work tape (0 when not recording).
    post: u32,
}

struct Envelope {
    payload: Payload,
    /// Modeled size used for pricing (body + header, or an explicit
    /// override for synthetic traffic).
    modeled_bytes: f64,
    /// Sender's virtual clock when the message left.
    depart: f64,
    /// Per-(src, dst) sequence number, keys the jitter hash.
    seq: u64,
    src: usize,
    tag: u64,
}

/// A map from peer rank to `V`, stored as a vector sorted by rank and
/// binary-searched.
///
/// A rank talks to a small, fixed set of peers (≤ 26 halo neighbours plus
/// its tree and dissemination partners), so the map is a kilobyte or two of
/// contiguous memory, a lookup is a handful of compares with no hashing,
/// and no key is ever removed. Sorted rather than insertion-ordered because
/// a gather root has `size - 1` peers, where a linear scan per message
/// would make every gather quadratic; a new peer's insert shifts the
/// entries above it, which each peer costs once per job.
pub(crate) struct PeerMap<V> {
    entries: Vec<(usize, V)>,
}

impl<V> Default for PeerMap<V> {
    fn default() -> Self {
        PeerMap {
            entries: Vec::new(),
        }
    }
}

impl<V> PeerMap<V> {
    fn position(&self, peer: usize) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&peer, |e| e.0)
    }

    pub(crate) fn get(&self, peer: usize) -> Option<&V> {
        self.position(peer).ok().map(|i| &self.entries[i].1)
    }

    fn get_mut(&mut self, peer: usize) -> Option<&mut V> {
        self.position(peer).ok().map(|i| &mut self.entries[i].1)
    }

    /// The value for `peer`, inserted as `V::default()` on first use.
    pub(crate) fn get_or_default(&mut self, peer: usize) -> &mut V
    where
        V: Default,
    {
        let mut at = usize::MAX;
        self.get_or_default_at(peer, &mut at)
    }

    /// Makes room for `n` entries in all, if there is none yet.
    pub(crate) fn reserve_for(&mut self, n: usize) {
        if self.entries.is_empty() {
            self.entries.reserve_exact(n);
        }
    }

    /// [`Self::get_or_default`], looked up at `at` first; `at` is left at
    /// the entry's position. (A new peer's insert shifts the entries above
    /// it, so a position is a hint, checked, never trusted.)
    #[inline]
    pub(crate) fn get_or_default_at(&mut self, peer: usize, at: &mut usize) -> &mut V
    where
        V: Default,
    {
        self.get_or_insert_at(peer, at, V::default)
    }

    /// The value for `peer`, inserted as `make()` on first use, looked up
    /// as [`Self::get_or_default_at`] does.
    #[inline]
    pub(crate) fn get_or_insert_at(
        &mut self,
        peer: usize,
        at: &mut usize,
        make: impl FnOnce() -> V,
    ) -> &mut V {
        if self.entries.get(*at).is_none_or(|e| e.0 != peer) {
            *at = match self.position(peer) {
                Ok(i) => i,
                Err(i) => {
                    self.entries.insert(i, (peer, make()));
                    i
                }
            };
        }
        &mut self.entries[*at].1
    }
}

/// The messages queued at one rank: one FIFO *lane* per source, holding
/// that source's undelivered envelopes of every tag in send order.
///
/// Matching is per-`(src, tag)` FIFO, as MPI requires: [`Lanes::pop`] takes
/// the first envelope from `src` that carries `tag`. Envelopes of one
/// `(src, tag)` sit in a lane in the order they were sent, so they are
/// received in that order, and an envelope of another tag ahead of them is
/// skipped, not consumed. In every exchange the applications and the
/// collectives produce, the match is the lane's front.
///
/// Keying the queues by `(src, tag)` instead gives the same matching but a
/// queue per tag ever seen, and every collective draws a fresh tag: the
/// structure then grows with a rank's step count. A lane is created on a
/// source's first message and kept, so a mailbox is bounded by the rank's
/// peer count; a lane that drains gives its buffer back, since the traffic
/// left on mailboxes (DoF-map requests, rooted collectives) comes once or
/// seldom per source.
#[derive(Default)]
pub(crate) struct Lanes {
    by_src: PeerMap<VecDeque<Envelope>>,
}

impl Lanes {
    fn push(&mut self, env: Envelope) {
        self.by_src.get_or_default(env.src).push_back(env);
    }

    /// Removes and returns the oldest queued envelope from `(src, tag)`.
    fn pop(&mut self, src: usize, tag: u64) -> Option<Envelope> {
        let lane = self.by_src.get_mut(src)?;
        let at = lane.iter().position(|env| env.tag == tag)?;
        let env = lane.remove(at);
        if lane.is_empty() {
            *lane = VecDeque::new();
        }
        env
    }

    fn has_queued(&self, src: usize, tag: u64) -> bool {
        self.by_src
            .get(src)
            .is_some_and(|lane| lane.iter().any(|env| env.tag == tag))
    }
}

/// One rank's receive side: the lanes under a lock (senders are other
/// ranks, possibly on other workers).
#[derive(Default)]
pub(crate) struct Mailbox {
    lanes: Mutex<Lanes>,
}

impl Mailbox {
    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, Lanes> {
        self.lanes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The static pricing model of one job: everything a charge reads besides
/// the rank's own clock. The clock arithmetic of every charge lives here
/// and in [`Transfer`], as pure functions that [`SimComm`] and
/// [`crate::tape::evaluate`] both call, so a clock priced from a work tape
/// is the executed clock bitwise by construction.
pub(crate) struct JobModel {
    pub(crate) size: usize,
    pub(crate) topo: ClusterTopology,
    pub(crate) net: NetworkModel,
    pub(crate) compute: ComputeModel,
    pub(crate) seed: u64,
    pub(crate) nodes_active: usize,
    /// `net.fabric_contention(nodes_active)`, which every inter-node
    /// transfer of the job multiplies by.
    contention: f64,
    pub(crate) faults: FaultPlan,
}

impl JobModel {
    pub(crate) fn new(config: SpmdConfig, faults: FaultPlan) -> Self {
        let SpmdConfig {
            size,
            topo,
            net,
            compute,
            seed,
        } = config;
        assert!(size > 0, "job must have at least one rank");
        assert!(
            size <= topo.total_cores(),
            "job of {size} ranks exceeds cluster capacity {}",
            topo.total_cores()
        );
        let nodes_active = topo.nodes_for_ranks(size);
        JobModel {
            size,
            topo,
            contention: net.fabric_contention(nodes_active),
            net,
            compute,
            seed,
            nodes_active,
            faults,
        }
    }

    /// Clock advance of a compute charge: the roofline time of `work`.
    #[inline]
    pub(crate) fn compute_cost(&self, work: Work) -> f64 {
        self.compute.time(work)
    }

    /// Clock advance of a send of `modeled_bytes`: the fixed overhead plus
    /// copying into the transport. The sender's clock after it is the
    /// message's departure time.
    #[inline]
    pub(crate) fn send_cost(&self, modeled_bytes: f64) -> f64 {
        SEND_OVERHEAD + modeled_bytes / self.net.intra_bw
    }

    /// Prices the transfer of the `seq`-th message from `src` to `dst`
    /// (the per-pair sequence number keys the jitter hash) from the network
    /// model and the fault plan's degradation windows.
    pub(crate) fn transfer(
        &self,
        src: usize,
        dst: usize,
        seq: u64,
        modeled_bytes: f64,
        depart: f64,
    ) -> Transfer {
        let link = self.path(src, dst).link(modeled_bytes);
        self.transfer_over(&link, seq, depart)
    }

    /// The [`Path`] of messages from `src` to `dst`: everything about
    /// their price that their size, sequence number and departure do not
    /// change.
    pub(crate) fn path(&self, src: usize, dst: usize) -> Path {
        let topo = &self.topo;
        let (src_node, dst_node) = (topo.node_of_rank(src), topo.node_of_rank(dst));
        // Both endpoints' NICs are shared by their node-mates; the busier
        // side bounds the transfer.
        let sharers = topo
            .ranks_on_node(src_node, self.size)
            .max(topo.ranks_on_node(dst_node, self.size));
        self.net.path_of(&MsgContext {
            bytes: 0.0,
            same_node: src_node == dst_node,
            same_group: topo.group_of_node(src_node) == topo.group_of_node(dst_node),
            nic_sharers: sharers,
            nodes_active: self.nodes_active,
            jitter_key: (self.seed, src as u64, dst as u64, 0),
        })
    }

    /// Prices the transfer of the `seq`-th message over `link` that
    /// departed at `depart`.
    #[inline]
    pub(crate) fn transfer_over(&self, link: &Link, seq: u64, depart: f64) -> Transfer {
        let (latency, drain) = self.net.link_cost(link, seq, self.contention);
        // Transient degradation windows stretch the wire portion of the
        // transfer; keyed to the deterministic departure time so both ends
        // of the exchange agree on whether the window applied.
        let slow = self.faults.slow_factor(depart);
        Transfer {
            latency,
            drain,
            slow,
        }
    }
}

/// The priced transfer of one delivered message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transfer {
    latency: f64,
    drain: f64,
    slow: f64,
}

impl Transfer {
    /// The receiver's clock after a blocking receive at `clock` of a
    /// message that departed at `depart`: the first byte arrives after the
    /// latency (overlapping with other in-flight messages); the payload
    /// then drains serially through this rank's NIC share.
    #[inline]
    pub(crate) fn recv(&self, clock: f64, depart: f64) -> f64 {
        clock.max(depart + self.latency * self.slow) + self.drain * self.slow + RECV_OVERHEAD
    }

    /// `(clock, avail)` after waiting at `clock` on a receive posted at
    /// `posted`: the message is fully transferred at `avail`, and the
    /// waiter stalls only for what compute since the post did not cover.
    /// See [`SimComm::wait_all`] and [`SimComm::exchange_wait`].
    #[inline]
    pub(crate) fn wait(&self, clock: f64, posted: f64, depart: f64) -> (f64, f64) {
        let avail = posted.max(depart + self.latency * self.slow) + self.drain * self.slow;
        (clock.max(avail) + RECV_OVERHEAD, avail)
    }
}

/// State shared by all ranks of one SPMD job.
pub(crate) struct SharedComm {
    pub(crate) model: JobModel,
    /// The M:N scheduler the ranks block in and are woken through.
    pub(crate) sched: crate::sched::Scheduler,
    /// Work-tape recording; `None` (the default) records nothing, so every
    /// rank then holds no recorder at all.
    pub(crate) tapes: Option<TapeBudget>,
    mailboxes: Vec<Mailbox>,
    /// Every directed pair's halo channel (see [`crate::exchange`]).
    pub(crate) halo: Registry,
    /// Where the symmetric collectives meet (see [`crate::rendezvous`]).
    pub(crate) rendezvous: Rendezvous,
    /// One flag per rank, raised when that rank has exited (clean return,
    /// injected fault, or panic). A receiver blocked on a message unwinds
    /// only once its *sender* is gone — a virtual-time-determined
    /// condition — never on a global "something failed" flag, which would
    /// make the survivors' progress (and any side effects like checkpoint
    /// commits) depend on wall-clock scheduling.
    terminated: Vec<AtomicBool>,
}

impl SharedComm {
    pub(crate) fn new(
        config: SpmdConfig,
        faults: FaultPlan,
        sched: crate::sched::Scheduler,
        tapes: Option<TapeBudget>,
    ) -> Arc<Self> {
        let model = JobModel::new(config, faults);
        let mailboxes = (0..model.size).map(|_| Mailbox::default()).collect();
        let terminated = (0..model.size).map(|_| AtomicBool::new(false)).collect();
        let rendezvous = Rendezvous::new();
        Arc::new(SharedComm {
            model,
            sched,
            tapes,
            mailboxes,
            halo: Registry::default(),
            rendezvous,
            terminated,
        })
    }

    /// Raises `rank`'s termination flag, completing an open collective it
    /// was the last rank missing from. All of the rank's sends
    /// happen-before this store, and the worker calls this *before* waking
    /// the dead rank's waiters through the scheduler, so a woken receiver
    /// that still finds its queue empty can safely conclude the message
    /// will never come.
    pub(crate) fn mark_terminated(&self, rank: usize) {
        self.terminated[rank].store(true, Ordering::SeqCst);
        self.rank_gone();
    }

    pub(crate) fn rank_terminated(&self, rank: usize) -> bool {
        self.terminated[rank].load(Ordering::SeqCst)
    }

    /// Whether a message from `(src, tag)` is queued at `dst`'s mailbox.
    /// Used by the scheduler's blocked-registration re-check; takes the
    /// mailbox lock, so callers may hold the scheduler lock (the lock
    /// order scheduler → mailbox is only ever taken in this direction —
    /// senders release the mailbox lock before touching the scheduler).
    pub(crate) fn has_queued(&self, dst: usize, src: usize, tag: u64) -> bool {
        self.mailboxes[dst].lock().has_queued(src, tag)
    }
}

/// The half of one rank's communicator that charges move: its virtual
/// clock, counters, per-destination sequence numbers and work-tape
/// recorder.
///
/// A rank's own sends, receives and computes charge it through the methods
/// below. While the rank is parked in a collective it lends its ledger to
/// the rendezvous, whose evaluator charges the collective's hops to it
/// through the same methods, so a hop costs, counts and records exactly
/// what a message of the rank's own would.
#[derive(Default)]
pub(crate) struct Ledger {
    pub(crate) clock: f64,
    pub(crate) stats: CommStats,
    /// Per-destination sequence counters, allocated on first use: a rank
    /// typically talks to O(1) neighbours, and a dense `Vec` would cost
    /// O(size²) across the job (ruinous at 10⁴–10⁵ ranks). Read and bumped
    /// on every send, hence a [`PeerMap`] and not a hash map.
    send_seq: PeerMap<u64>,
    /// Work-tape recorder: `None` unless the job records, and dropped for
    /// good once this rank outgrows its share. Boxed, so lending the
    /// ledger moves a few words.
    tape: Option<Box<Recorder>>,
}

impl Ledger {
    /// Records on the rank's work tape, if it keeps one, through `push`. A
    /// rank that outgrows its share gives up: the job then keeps no tape.
    #[inline]
    fn keep(&mut self, push: impl FnOnce(&mut Recorder) -> bool) {
        if self.tape.as_mut().is_some_and(|t| !push(t)) {
            self.tape = None;
        }
    }

    /// Appends `op` to the rank's work tape.
    #[inline]
    pub(crate) fn record(&mut self, op: Op) {
        self.keep(|t| t.push(op));
    }

    /// Ends a batch of `waits` completed waits on the tape (an empty batch
    /// ends none).
    pub(crate) fn end_batch(&mut self, waits: usize) {
        if let Some(t) = self.tape.as_mut().filter(|_| waits > 0) {
            t.end_batch();
        }
    }

    /// Charges the roofline time of `work`.
    pub(crate) fn compute(&mut self, model: &JobModel, work: Work) {
        let dt = model.compute_cost(work);
        self.clock += dt;
        self.stats.flops += work.flops;
        self.stats.mem_bytes += work.bytes;
        self.stats.compute_time += dt;
        self.keep(|t| t.compute(work));
    }

    /// Charges a send of `modeled_bytes` to `dst` and returns the message's
    /// per-pair sequence number. The clock after it is the message's
    /// departure time.
    pub(crate) fn send(&mut self, model: &JobModel, dst: usize, modeled_bytes: f64) -> u64 {
        let mut at = usize::MAX;
        self.send_at(model, dst, modeled_bytes, &mut at)
    }

    /// [`Self::send`], given where `dst`'s sequence counter sat at the
    /// caller's last send to it (`at`, updated if it has moved).
    #[inline]
    pub(crate) fn send_at(
        &mut self,
        model: &JobModel,
        dst: usize,
        modeled_bytes: f64,
        at: &mut usize,
    ) -> u64 {
        let counter = self.send_seq.get_or_default_at(dst, at);
        let seq = *counter;
        *counter += 1;
        let cost = model.send_cost(modeled_bytes);
        self.clock += cost;
        self.stats.comm_time += cost;
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += modeled_bytes;
        self.record(Op::Send {
            dst: dst as u32,
            bytes: modeled_bytes,
        });
        seq
    }

    /// Posts recorded so far: the tape index the next [`Op::Post`] gets.
    pub(crate) fn posts(&self) -> u32 {
        self.tape.as_ref().map_or(0, |t| t.posts())
    }

    /// Charges rank `me`'s blocking receive of the `seq`-th message from
    /// `src`: `modeled_bytes` that departed at `depart`.
    pub(crate) fn recv(
        &mut self,
        model: &JobModel,
        me: usize,
        src: usize,
        seq: u64,
        modeled_bytes: f64,
        depart: f64,
    ) {
        let t = model.transfer(src, me, seq, modeled_bytes, depart);
        self.recv_over(t, src, seq, modeled_bytes, depart);
    }

    /// Charges a blocking receive of the `seq`-th message from `src`,
    /// priced as `t`. (A tape numbers a pair's messages in `u32`: four
    /// billion to one peer is past any job this engine runs.)
    pub(crate) fn recv_over(
        &mut self,
        t: Transfer,
        src: usize,
        seq: u64,
        modeled_bytes: f64,
        depart: f64,
    ) {
        let before = self.clock;
        self.clock = t.recv(self.clock, depart);
        self.stats.comm_time += self.clock - before;
        self.stats.msgs_received += 1;
        self.stats.bytes_received += modeled_bytes;
        self.record(Op::Recv {
            src: src as u32,
            seq: seq as u32,
        });
    }

    /// Charges the completion of post number `post`, made at `posted`, by
    /// the `seq`-th message from `src`: `(seq, modeled_bytes, depart)`,
    /// priced as `t`.
    pub(crate) fn wait_over(
        &mut self,
        t: Transfer,
        src: usize,
        (seq, modeled_bytes, depart): (u64, f64, f64),
        (posted, post): (f64, u32),
    ) {
        let before = self.clock;
        self.clock = t.wait(before, posted, depart).0;
        self.record(Op::Wait {
            src: src as u32,
            seq: seq as u32,
            post,
            last: false,
        });
        self.stats.comm_time += self.clock - before;
        self.stats.msgs_received += 1;
        self.stats.bytes_received += modeled_bytes;
    }
}

/// One rank's handle on the simulated job: point-to-point messaging, halo
/// exchanges ([`crate::exchange`]), virtual clock, and work accounting. Not shareable across threads; each rank owns
/// exactly one.
pub struct SimComm {
    pub(crate) rank: usize,
    pub(crate) shared: Arc<SharedComm>,
    pub(crate) ledger: Ledger,
    /// This rank's halo channels.
    pub(crate) halo: Halo,
    coll_epoch: u64,
    /// This rank's topology node and its scheduled death time (cached from
    /// the shared fault plan; `INFINITY` means the node survives).
    pub(crate) node: usize,
    pub(crate) down_at: f64,
}

/// Raises [`RankFailed`] for `node` (as a typed panic the engine
/// intercepts) once `clock` has reached its loss time `down_at`.
#[inline]
pub(crate) fn fail_if_down(clock: f64, down_at: f64, node: usize) {
    if clock >= down_at {
        std::panic::panic_any(FaultPanic(RankFailed { node, at: down_at }));
    }
}

impl SimComm {
    pub(crate) fn new(rank: usize, shared: Arc<SharedComm>) -> Self {
        assert!(rank < shared.model.size);
        let node = shared.model.topo.node_of_rank(rank);
        let down_at = shared.model.faults.down_time(node);
        let ledger = Ledger {
            tape: shared.tapes.as_ref().map(|t| Box::new(t.recorder())),
            ..Ledger::default()
        };
        SimComm {
            rank,
            shared,
            ledger,
            halo: Halo::default(),
            coll_epoch: 0,
            node,
            down_at,
        }
    }

    /// This rank's work tape, if it kept one. The engine takes it once the
    /// rank has exited.
    pub(crate) fn into_tape(self) -> Option<RankTape> {
        self.ledger.tape.map(|t| RankTape::from(*t))
    }

    /// Raises [`RankFailed`] (as a typed panic the engine intercepts) once
    /// the virtual clock has reached this rank's node-loss time. Called by
    /// every clock-advancing operation, so a dead node is observed at the
    /// first virtual instant it could be — deterministically, because the
    /// clock itself is deterministic.
    #[inline]
    pub(crate) fn maybe_fail(&self) {
        fail_if_down(self.ledger.clock, self.down_at, self.node);
    }

    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    #[inline]
    pub fn size(&self) -> usize {
        self.shared.model.size
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn clock(&self) -> f64 {
        self.ledger.clock
    }

    /// The current virtual time, read as a phase boundary of time step
    /// `step` that `closes` the given phase: `None` where the step starts,
    /// [`Phase::Iteration`] where it ends (closing its `Other` remainder
    /// too). It is the one clock read an application makes that a work
    /// tape replays (as a `Mark`), and a trace's phase spans run between
    /// these reads. Phase timings must come from here, not from
    /// [`Self::clock`], for a run priced from its tape to report them.
    #[inline]
    pub fn phase_mark(&mut self, step: usize, closes: Option<Phase>) -> f64 {
        let step = step as u32;
        self.ledger.record(Op::Mark { step, closes });
        self.ledger.clock
    }

    /// Accumulated counters.
    #[inline]
    pub fn stats(&self) -> &CommStats {
        &self.ledger.stats
    }

    /// The cluster topology this job runs on.
    #[inline]
    pub fn topology(&self) -> &ClusterTopology {
        &self.shared.model.topo
    }

    /// The network model in force.
    #[inline]
    pub fn network(&self) -> &NetworkModel {
        &self.shared.model.net
    }

    /// Nodes occupied by this job.
    #[inline]
    pub fn nodes_active(&self) -> usize {
        self.shared.model.nodes_active
    }

    /// Advances the virtual clock by the roofline time of `work` and records
    /// the counters. This is how application kernels charge their cost.
    pub fn compute(&mut self, work: Work) {
        self.ledger.compute(&self.shared.model, work);
        self.maybe_fail();
    }

    /// Advances the virtual clock by `seconds` without attributing work
    /// (checkpoint I/O, delays injected by the harness); a work tape
    /// records the seconds, so pricing it adds the same.
    pub fn advance(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "cannot rewind the clock");
        self.ledger.record(Op::Advance(seconds));
        self.ledger.clock += seconds;
        self.ledger.stats.other_time += seconds;
        self.maybe_fail();
    }

    /// Sends `payload` to rank `dst` with the given `tag`.
    ///
    /// Non-blocking (infinite buffering, like a buffered MPI send). The
    /// sender pays a small CPU overhead plus a packing cost.
    pub fn send(&mut self, dst: usize, tag: u64, payload: Payload) {
        let bytes = payload.wire_bytes();
        self.send_with_modeled_bytes(dst, tag, payload, bytes);
    }

    /// Sends `payload` but prices it as `modeled_bytes` on the wire. Used by
    /// synthetic benchmarks and the modeled large-scale runs, where a small
    /// real payload stands in for a large virtual one.
    pub fn send_with_modeled_bytes(
        &mut self,
        dst: usize,
        tag: u64,
        payload: Payload,
        modeled_bytes: f64,
    ) {
        assert!(
            dst < self.shared.model.size,
            "destination rank out of range"
        );
        // A dead sender must not enqueue: the message would teleport data
        // off a lost node. Check before the clock moves past the send.
        self.maybe_fail();
        let seq = self.ledger.send(&self.shared.model, dst, modeled_bytes);

        let env = Envelope {
            payload,
            modeled_bytes,
            depart: self.ledger.clock,
            seq,
            src: self.rank,
            tag,
        };
        self.shared.mailboxes[dst].lock().push(env);
        // Wake the receiver *after* releasing the mailbox lock: this takes
        // the scheduler lock, and the only permitted nesting is scheduler →
        // mailbox (worker side), never the reverse.
        self.shared.sched.notify_send(self.rank, dst, tag);
    }

    /// Blocks until a message from `(src, tag)` is queued, then pops it.
    /// This is the yield point: the coroutine parks with its current
    /// virtual clock as its run-queue key; the worker registers the block
    /// (re-checking the mailbox under the scheduler lock, so no wakeup can
    /// be lost) and runs other ranks. The rank unwinds (poison panic) only
    /// once the sender is provably gone — a virtual-time-determined
    /// condition shared by the blocking and posted receives.
    fn block_for_envelope(&mut self, src: usize, tag: u64) -> Envelope {
        loop {
            {
                let mut lanes = self.shared.mailboxes[self.rank].lock();
                if let Some(env) = lanes.pop(src, tag) {
                    return env;
                }
                // Unwind only when the *sender* is provably gone: whether a
                // message is ever sent is a pure function of virtual time,
                // so every survivor's unwind point is deterministic too.
                // The termination flag is raised before the scheduler wake,
                // and all of src's sends happen-before the flag, so "flag
                // up + queue empty" (checked under the one mailbox lock)
                // proves the message will never arrive.
                if self.shared.rank_terminated(src) {
                    panic!(
                        "job poisoned: rank {} waited on ({src}, {tag}) but the sender is gone",
                        self.rank
                    );
                }
            }
            // Lock released before yielding; the worker-side registration
            // re-check closes the window between the look and the park.
            match crate::sched::yield_blocked(src, tag, self.ledger.clock) {
                crate::sched::Verdict::Retry => continue,
                crate::sched::Verdict::Deadlock => panic!(
                    "job poisoned: deadlock victim rank {} blocked on recv({src}, {tag})",
                    self.rank
                ),
            }
        }
    }

    /// Receives the next message from `src` with `tag`, blocking this rank
    /// until it arrives. The virtual clock advances to the message's
    /// modeled arrival time (if later than now) plus a receive overhead.
    pub fn recv(&mut self, src: usize, tag: u64) -> Payload {
        assert!(src < self.shared.model.size, "source rank out of range");
        // A rank whose node is already down must not block on a mailbox it
        // will never drain.
        self.maybe_fail();
        let env = self.block_for_envelope(src, tag);
        debug_assert_eq!(env.src, src);
        self.ledger.recv(
            &self.shared.model,
            self.rank,
            src,
            env.seq,
            env.modeled_bytes,
            env.depart,
        );
        self.maybe_fail();
        env.payload
    }

    /// Receives and unwraps an `F64` payload.
    ///
    /// # Panics
    /// Panics if the message is not `Payload::F64`.
    pub fn recv_f64(&mut self, src: usize, tag: u64) -> Vec<f64> {
        match self.recv(src, tag) {
            Payload::F64(v) => v,
            other => panic!("expected F64 payload from rank {src}, got {other:?}"),
        }
    }

    /// Receives and unwraps a `Usize` payload.
    ///
    /// # Panics
    /// Panics if the message is not `Payload::Usize`.
    pub fn recv_usize(&mut self, src: usize, tag: u64) -> Vec<usize> {
        match self.recv(src, tag) {
            Payload::Usize(v) => v,
            other => panic!("expected Usize payload from rank {src}, got {other:?}"),
        }
    }

    /// Posts a nonblocking receive for the next message from `(src, tag)`.
    ///
    /// Free on the virtual clock: the post merely records the current time.
    /// From this instant the transfer progresses *concurrently* with any
    /// compute the rank charges, until the matching [`Self::wait_all`]
    /// completes it. (Sends are buffered, so a posted send is a
    /// [`Self::send`].)
    pub fn irecv(&mut self, src: usize, tag: u64) -> RecvRequest {
        assert!(src < self.shared.model.size, "source rank out of range");
        self.maybe_fail();
        let post = self.ledger.posts();
        self.ledger.record(Op::Post);
        RecvRequest {
            src,
            tag,
            posted: self.ledger.clock,
            post,
        }
    }

    /// Completes posted receives in order, returning their payloads.
    ///
    /// Deterministic virtual-time overlap model: a message posted at `P`
    /// that departed its sender at `D` is fully transferred (latency plus
    /// drain, both stretched by any degradation window keyed to `D`) at
    ///
    /// ```text
    /// avail = max(P, D + latency·slow) + drain·slow
    /// ```
    ///
    /// and the waiter's clock advances to `max(wait_point, avail)` plus the
    /// receive overhead — i.e. completion is `max(post + transfer,
    /// wait_point)`: transfer time already covered by compute charged
    /// between post and wait is *hidden*, only the remainder stalls the
    /// receiver. Every term is a pure function of virtual times, so the
    /// result is independent of host scheduling. When the wait immediately
    /// follows the post this degenerates to exactly the blocking
    /// [`Self::recv`] cost.
    ///
    /// A trace shows the batch as one [`EventKind::Overlap`] instant (at
    /// `Collectives` detail or finer): the hidden vs exposed split of its
    /// transfers.
    pub fn wait_all(&mut self, reqs: Vec<RecvRequest>) -> Vec<Payload> {
        self.maybe_fail();
        let mut out = Vec::with_capacity(reqs.len());
        for req in reqs {
            let env = self.block_for_envelope(req.src, req.tag);
            debug_assert_eq!(env.src, req.src);
            let t = self.shared.model.transfer(
                env.src,
                self.rank,
                env.seq,
                env.modeled_bytes,
                env.depart,
            );
            let msg = (env.seq, env.modeled_bytes, env.depart);
            self.ledger
                .wait_over(t, env.src, msg, (req.posted, req.post));
            self.maybe_fail();
            out.push(env.payload);
        }
        self.ledger.end_batch(out.len());
        out
    }

    pub(crate) fn next_collective_epoch(&mut self) -> u64 {
        let e = self.coll_epoch;
        self.coll_epoch += 1;
        e
    }

    /// Enters the symmetric collective `kind` with `data`: lends this
    /// rank's ledger to the job's rendezvous until the collective has been
    /// evaluated, then leaves with its result, or with the fault or poison
    /// the collective's hops met (see [`crate::rendezvous`]).
    pub(crate) fn join_collective(&mut self, kind: Kind, data: Payload) -> Yield {
        let epoch = self.coll_epoch;
        self.coll_epoch += kind.epochs();
        self.ledger.record(Op::Open);
        let arrival = Arrival {
            kind,
            epoch,
            data,
            ledger: std::mem::take(&mut self.ledger),
        };
        let release = self.shared.rendezvous(self.rank, arrival);
        self.ledger = release.ledger;
        match release.outcome {
            Ok(out) => out,
            Err(Fate::Fault(failed)) => std::panic::panic_any(FaultPanic(failed)),
            Err(Fate::Panic(msg)) => panic!("{msg}"),
        }
    }

    /// Adds the application's event `kind` to the trace, at the current
    /// clock (solver counts, checkpoint commits). It goes on the work
    /// tape, so a run priced from the tape reports it too; a run that
    /// records no tape drops it.
    #[inline]
    pub fn trace_instant(&mut self, kind: EventKind) {
        self.ledger.keep(|t| t.instant(kind));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_spmd, run_spmd_opts, EngineOpts, SpmdConfig};
    use crate::exchange::tests::{copy, ring, values};

    fn cfg(size: usize) -> SpmdConfig {
        SpmdConfig {
            size,
            topo: ClusterTopology::uniform(size.div_ceil(4).max(1), 4),
            net: NetworkModel::gigabit_ethernet(),
            compute: ComputeModel::new(1e9, 4e9),
            seed: 42,
        }
    }

    /// One rank per node, so every halo crosses the network.
    fn halo_cfg(size: usize) -> SpmdConfig {
        SpmdConfig {
            topo: ClusterTopology::uniform(size, 1),
            ..cfg(size)
        }
    }

    #[test]
    fn ping_pong_delivers_data_and_advances_clocks() {
        let mut c = cfg(2);
        c.topo = ClusterTopology::uniform(2, 1); // force inter-node traffic
        let results = run_spmd(c, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, Payload::F64(vec![1.0, 2.0, 3.0]));
                comm.recv_f64(1, 8)
            } else {
                let v = comm.recv_f64(0, 7);
                let doubled: Vec<f64> = v.iter().map(|x| 2.0 * x).collect();
                comm.send(0, 8, Payload::F64(doubled.clone()));
                doubled
            }
        });
        assert_eq!(results[0].value, vec![2.0, 4.0, 6.0]);
        // Rank 0's clock covers a full round trip: at least 2 latencies.
        assert!(
            results[0].clock > 2.0 * 45e-6,
            "clock = {}",
            results[0].clock
        );
    }

    #[test]
    fn messages_between_same_pair_preserve_order() {
        let results = run_spmd(cfg(2), |comm| {
            if comm.rank() == 0 {
                for i in 0..10 {
                    comm.send(1, 5, Payload::F64(vec![i as f64]));
                }
                vec![]
            } else {
                (0..10).map(|_| comm.recv_f64(0, 5)[0]).collect()
            }
        });
        assert_eq!(
            results[1].value,
            (0..10).map(|i| i as f64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tags_demultiplex() {
        let results = run_spmd(cfg(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, Payload::F64(vec![1.0]));
                comm.send(1, 2, Payload::F64(vec![2.0]));
                0.0
            } else {
                // Receive in reverse tag order.
                let b = comm.recv_f64(0, 2)[0];
                let a = comm.recv_f64(0, 1)[0];
                10.0 * a + b
            }
        });
        assert_eq!(results[1].value, 12.0);
    }

    /// `(lane count, largest lane capacity)` of the calling rank's mailbox.
    fn lane_shape(comm: &SimComm) -> (usize, usize) {
        let lanes = comm.shared.mailboxes[comm.rank()].lock();
        let lanes = &lanes.by_src.entries;
        (
            lanes.len(),
            lanes.iter().map(|(_, q)| q.capacity()).max().unwrap_or(0),
        )
    }

    #[test]
    fn distinct_collective_tags_reuse_one_lane() {
        // Every broadcast draws a fresh collective tag; on two ranks each
        // one is a single message from the one peer. The mailbox must not
        // keep anything per tag.
        let results = run_spmd(cfg(2), |comm| {
            for i in 0..10_000 {
                comm.bcast(i % 2, Vec::new());
            }
            lane_shape(comm)
        });
        for r in &results {
            let (lanes, capacity) = r.value;
            assert_eq!(lanes, 1);
            assert!(capacity <= 8, "lane capacity grew to {capacity}");
        }
    }

    #[test]
    fn interleaved_tags_on_one_source_are_each_fifo() {
        let env = |tag: u64, seq: u64| Envelope {
            payload: Payload::Usize(vec![seq as usize]),
            modeled_bytes: HEADER_BYTES,
            depart: 0.0,
            seq,
            src: 3,
            tag,
        };
        let mut lanes = Lanes::default();
        for (tag, seq) in [(1, 0), (2, 1), (1, 2), (2, 3)] {
            lanes.push(env(tag, seq));
        }
        assert!(lanes.has_queued(3, 1) && lanes.has_queued(3, 2));
        assert!(!lanes.has_queued(3, 7) && !lanes.has_queued(4, 1));
        // Drain in the opposite order to the sends: tag 2 first.
        let mut seqs = |tag: u64| -> Vec<u64> {
            std::iter::from_fn(|| lanes.pop(3, tag))
                .map(|e| e.seq)
                .collect()
        };
        assert_eq!(seqs(2), [1, 3]);
        assert_eq!(seqs(1), [0, 2]);
        assert!(!lanes.has_queued(3, 1) && !lanes.has_queued(3, 2));
    }

    #[test]
    fn gather_posted_in_reverse_rank_order_is_rank_ordered() {
        // A token walks down from the last rank, so the root's lanes are
        // created in descending source order: every insert lands at the
        // front of the sorted vector.
        const TOKEN: u64 = 11;
        let size = 64;
        let results = run_spmd(cfg(size), move |comm| {
            let rank = comm.rank();
            if rank > 0 && rank < size - 1 {
                let _ = comm.recv(rank + 1, TOKEN);
            }
            let gathered = comm.gather(0, &[rank as f64]);
            if rank > 1 {
                comm.send(rank - 1, TOKEN, Payload::Empty);
            }
            gathered.map(|g| (g, lane_shape(comm).0))
        });
        let (gathered, lanes) = results[0].value.as_ref().expect("root gets the data");
        let expect: Vec<Vec<f64>> = (0..size).map(|r| vec![r as f64]).collect();
        assert_eq!(gathered, &expect);
        assert_eq!(*lanes, size - 1);
    }

    #[test]
    fn compute_advances_clock_deterministically() {
        let results = run_spmd(cfg(1), |comm| {
            comm.compute(Work::new(2e9, 1e9));
            comm.clock()
        });
        // 2e9 flops at 1e9 flop/s = 2 s (compute-bound vs 0.25 s mem time).
        assert!((results[0].value - 2.0).abs() < 1e-9);
    }

    #[test]
    fn same_seed_same_clocks() {
        let run = || {
            run_spmd(cfg(4), |comm| {
                let right = (comm.rank() + 1) % comm.size();
                let left = (comm.rank() + comm.size() - 1) % comm.size();
                for _ in 0..5 {
                    comm.send(right, 1, Payload::F64(vec![0.5; 1000]));
                    let _ = comm.recv_f64(left, 1);
                }
                comm.clock()
            })
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.value, y.value);
        }
    }

    #[test]
    fn different_seed_different_clocks_with_jitter() {
        let mut c1 = cfg(2);
        c1.net = NetworkModel::ten_gig_ethernet_ec2();
        c1.topo = ClusterTopology::uniform(2, 1);
        let mut c2 = c1.clone();
        c2.seed = 43;
        let body = |comm: &mut SimComm| {
            if comm.rank() == 0 {
                comm.send(1, 1, Payload::F64(vec![0.0; 4096]));
                0.0
            } else {
                let _ = comm.recv_f64(0, 1);
                comm.clock()
            }
        };
        let a = run_spmd(c1, body);
        let b = run_spmd(c2, body);
        assert_ne!(a[1].value, b[1].value);
    }

    #[test]
    fn intra_node_messages_are_cheaper() {
        // Two ranks on one node vs two ranks on two nodes.
        let mut on_one = cfg(2);
        on_one.topo = ClusterTopology::uniform(1, 4);
        let mut on_two = cfg(2);
        on_two.topo = ClusterTopology::uniform(2, 1);
        let body = |comm: &mut SimComm| {
            if comm.rank() == 0 {
                comm.send(1, 1, Payload::F64(vec![1.0; 10_000]));
                0.0
            } else {
                let _ = comm.recv_f64(0, 1);
                comm.clock()
            }
        };
        let same = run_spmd(on_one, body);
        let cross = run_spmd(on_two, body);
        assert!(same[1].value < cross[1].value / 5.0);
    }

    #[test]
    fn stats_track_traffic() {
        let results = run_spmd(cfg(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, Payload::F64(vec![0.0; 100]));
            } else {
                let _ = comm.recv(0, 1);
            }
            *comm.stats()
        });
        assert_eq!(results[0].value.msgs_sent, 1);
        assert_eq!(results[0].value.bytes_sent, 800.0 + 64.0);
        assert_eq!(results[1].value.msgs_received, 1);
        assert!(results[1].value.comm_time > 0.0);
    }

    #[test]
    fn modeled_bytes_override_prices_the_virtual_size() {
        let mut c = cfg(2);
        c.topo = ClusterTopology::uniform(2, 1);
        let results = run_spmd(c, |comm| {
            if comm.rank() == 0 {
                comm.send_with_modeled_bytes(1, 1, Payload::Empty, 117e6);
                0.0
            } else {
                let _ = comm.recv(0, 1);
                comm.clock()
            }
        });
        // 117 MB at ~117 MB/s should take about a second.
        assert!(results[1].value > 0.5, "clock = {}", results[1].value);
    }

    #[test]
    #[should_panic(expected = "destination rank out of range")]
    fn send_out_of_range_panics() {
        run_spmd(cfg(1), |comm| comm.send(5, 0, Payload::Empty));
    }

    #[test]
    fn immediate_wait_matches_blocking_recv() {
        // With no compute between post and wait, the overlap model must
        // degenerate to exactly the blocking recv cost.
        let mut c = cfg(2);
        c.topo = ClusterTopology::uniform(2, 1);
        let body = |posted: bool| {
            move |comm: &mut SimComm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, Payload::F64(vec![1.5; 5000]));
                    (vec![], 0)
                } else {
                    let v = if posted {
                        let req = comm.irecv(0, 1);
                        comm.wait_all(vec![req]).pop().unwrap()
                    } else {
                        comm.recv(0, 1)
                    };
                    (vec![v], comm.clock().to_bits())
                }
            }
        };
        let a = run_spmd(c.clone(), body(false));
        let b = run_spmd(c, body(true));
        assert_eq!(a[1].value, b[1].value);
    }

    #[test]
    fn compute_between_post_and_wait_hides_transfer() {
        let len = 200_000; // ~1.6 MB: drain-dominated
        let overlap_work = Work::new(5e8, 0.0); // 0.5 virtual seconds
        let run = |posted: bool| {
            run_spmd(halo_cfg(2), move |comm| {
                let plan = ring(comm.rank(), 2, len);
                let mut v = values(comm.rank(), len, &plan);
                if posted {
                    let p = comm.exchange_post(&plan, &v, copy);
                    comm.compute(overlap_work); // transfer progresses underneath
                    comm.exchange_wait(&plan, p, &mut v, copy);
                } else {
                    comm.exchange(&plan, &mut v, copy);
                    comm.compute(overlap_work);
                }
                comm.clock()
            })
        };
        let (blocking, overlapped) = (run(false)[1].value, run(true)[1].value);
        // Same total work and traffic, but the overlapped schedule finishes
        // earlier because the drain ran during the compute.
        assert!(
            overlapped < blocking - 0.01,
            "overlapped {overlapped} vs blocking {blocking}"
        );
        // And never earlier than the compute alone.
        assert!(overlapped >= 0.5);
    }

    #[test]
    fn overlapped_clocks_are_deterministic() {
        let body = |comm: &mut SimComm| {
            let plan = ring(comm.rank(), comm.size(), 2000);
            let mut v = values(comm.rank(), 2000, &plan);
            for _ in 0..4 {
                let p = comm.exchange_post(&plan, &v, copy);
                comm.compute(Work::new(1e7, 0.0));
                comm.exchange_wait(&plan, p, &mut v, copy);
            }
            comm.clock().to_bits()
        };
        let run = |opts: EngineOpts| {
            let (res, _) = run_spmd_opts(halo_cfg(4), opts, FaultPlan::none(), None, body);
            res.unwrap()
                .into_iter()
                .map(|r| r.value)
                .collect::<Vec<_>>()
        };
        let first = run(EngineOpts::cooperative(1));
        assert_eq!(run(EngineOpts::cooperative(1)), first);
        for workers in [3, 0] {
            assert_eq!(run(EngineOpts::cooperative(workers)), first);
        }
    }

    #[test]
    fn wait_all_returns_payloads_in_request_order() {
        let r = run_spmd(cfg(3), |comm| {
            if comm.rank() == 0 {
                let reqs = vec![comm.irecv(2, 4), comm.irecv(1, 4)];
                comm.wait_all(reqs)
                    .into_iter()
                    .map(|p| match p {
                        Payload::F64(v) => v[0],
                        other => panic!("expected F64, got {other:?}"),
                    })
                    .collect()
            } else {
                comm.send(0, 4, Payload::F64(vec![comm.rank() as f64]));
                vec![]
            }
        });
        assert_eq!(r[0].value, vec![2.0, 1.0]);
    }
}
