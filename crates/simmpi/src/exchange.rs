//! The neighbour halo exchange: one call per ghost update, over per-pair
//! slots instead of mailboxes.
//!
//! A halo exchange is the one pattern the FEM solvers repeat thousands of
//! times per step: every rank sends a slice of its owned values to each
//! neighbour and receives a slice back, always to and from the same ranks,
//! always of the same lengths. As point-to-point messages each of them
//! allocated a payload, took the receiver's mailbox lock and the
//! scheduler lock, and was looked up by `(src, tag)` at the other end.
//! Here a directed pair `src → dst` owns one channel, met on first
//! use and kept by both ranks from then on: two reused deposit slots, a
//! count of deposits published and a count consumed. The sender gathers
//! its values straight into the next slot and publishes it; the receiver
//! reads its slots in plan order and scatters them into its ghosts. No
//! lock is taken and nothing is allocated once every slot has grown to its
//! length. (The MPI standard's name for the operation is
//! `MPI_Neighbor_alltoallv`; PyFR likewise plans its exchange buffers
//! once.)
//!
//! Channels are per pair rather than per plan: a pair's deposits are then
//! FIFO across every plan that links it (NS exchanges over a velocity and a
//! pressure plan with the same neighbours), and a rank keeps one entry
//! per neighbour, walked in the plan's sorted order with a position hint,
//! with no per-plan state to key or invalidate.
//!
//! **What is charged is unchanged.** A send is the ledger's own send (so
//! the pair's sequence number, its jitter key, the tape's `Send` and the
//! trace's `SendMsg` are what a message would have had), preceded by the
//! gather's `copy`; a receive is the ledger's receive, priced over the
//! pair's `network::Path` (worked out once) through
//! [`NetworkModel::link_cost`](crate::NetworkModel::link_cost), then the
//! scatter's `copy`. The overlapped form posts the sends, records one
//! `Post` per neighbour, and completes with the wait charge of
//! `Transfer::wait`, one `Wait` per neighbour, the last of which ends the
//! batch (one `Overlap` instant in a trace) — exactly the
//! `send`/`irecv`/`wait_all` sequence the ghost update used to be.
//!
//! **Two slots suffice, and the bound is checked.** Plans are symmetric,
//! so in every exchange a rank both sends to and receives from each
//! neighbour. For `src` to publish its deposit `n + 2` to `dst` it must
//! have received `dst`'s deposit `n + 1`, which `dst` publishes only after
//! finishing exchange `n`, where it consumed `src`'s deposit `n`. So at
//! most two deposits of a pair are ever outstanding, and deposit `n` lands
//! in slot `n % 2`. An exchange that would find both slots taken (an
//! asymmetric plan, or a second exchange posted before the first one
//! completed) panics instead of overwriting one; that check is what makes
//! the lock-free slots sound.
//!
//! **No lost wakeup.** A receiver that finds its slot empty sleeps: its
//! worker registers it, under the scheduler lock, as waiting in an
//! exchange on that sender. The sleeper raises the channel's `waiting`
//! flag, fences, and re-reads the published count. A sender publishes all
//! of an exchange's deposits, fences once, and then reads (and clears)
//! each channel's flag. The two fences are sequentially consistent, so one
//! of them comes first: either the sleeper's re-read sees the deposit and
//! it does not sleep, or the sender sees the flag and wakes it. A sender therefore takes a lock only when its receiver is
//! actually asleep on it. A receiver whose sender has terminated with the
//! slot still empty is poisoned there, as a receive from a dead rank is.

use crate::comm::{fail_if_down, JobModel, PeerMap, SharedComm, SimComm, Transfer, HEADER_BYTES};
use crate::network::Path;
use crate::tape::Op;
use crate::work::Work;
use std::collections::HashMap;
use std::sync::atomic::{fence, Ordering};
use std::sync::Mutex;

/// A symmetric halo-exchange plan between a rank and its neighbours.
///
/// Local vector layout is `[owned entries | ghost entries]`. For neighbour
/// `i`, `send_indices[i]` lists owned local slots whose values the neighbour
/// needs, and `recv_indices[i]` lists the ghost slots filled by its reply.
/// Plans are built by the FEM DoF map; both sides must list each other and
/// agree on the interface ordering (guaranteed there by sorting on global
/// ids).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExchangePlan {
    /// Neighbour ranks, ascending.
    pub neighbors: Vec<usize>,
    /// Per neighbour: owned local indices to send.
    pub send_indices: Vec<Vec<usize>>,
    /// Per neighbour: local slots (>= n_owned) to receive into.
    pub recv_indices: Vec<Vec<usize>>,
}

impl ExchangePlan {
    /// Validates internal consistency against a vector layout.
    ///
    /// # Panics
    /// Panics if the plan's shape is inconsistent.
    pub fn validate(&self, n_owned: usize, n_local: usize) {
        assert_eq!(self.neighbors.len(), self.send_indices.len());
        assert_eq!(self.neighbors.len(), self.recv_indices.len());
        assert!(
            self.neighbors.windows(2).all(|w| w[0] < w[1]),
            "neighbors must be sorted"
        );
        for s in &self.send_indices {
            assert!(s.iter().all(|&i| i < n_owned), "send indices must be owned");
        }
        for r in &self.recv_indices {
            assert!(
                r.iter().all(|&i| (n_owned..n_local).contains(&i)),
                "recv indices must be ghosts"
            );
        }
    }
}

/// An exchange whose sends are posted ([`SimComm::exchange_post`]) and
/// whose receives [`SimComm::exchange_wait`] completes.
#[derive(Debug, Clone, Copy)]
#[must_use = "a posted exchange must be completed with exchange_wait"]
pub struct PostedExchange {
    /// The rank's clock when the receives were posted.
    posted: f64,
    /// The tape index of the first neighbour's post.
    first_post: u32,
    /// Neighbours the exchange was posted to.
    neighbors: usize,
}

/// The per-pair channel: two deposit slots that one sender fills and one
/// receiver drains, without a lock.
mod channel {
    // The slots are plain memory shared by two ranks, handed back and
    // forth by the `published`/`consumed` counters; this module is the
    // crate's second `unsafe` island (after the coroutine switch in
    // `sched`), and nothing outside it touches a slot.
    #![allow(unsafe_code)]

    use std::cell::UnsafeCell;
    use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    /// One deposit: a gathered halo and the header it travels under. Its
    /// modeled size is its body plus the message header, as a sent
    /// payload's is.
    #[derive(Default)]
    pub(crate) struct Deposit {
        pub(crate) values: Vec<f64>,
        /// The pair's sequence number of the send.
        pub(crate) seq: u64,
        /// The sender's clock after the send.
        pub(crate) depart: f64,
    }

    /// The halo traffic of one directed pair `src → dst`. Its slots are
    /// reached only through the pair's one [`Tx`] and one [`Rx`].
    #[derive(Default)]
    pub(crate) struct Channel {
        /// Deposits `src` has published.
        published: AtomicU64,
        /// Deposits `dst` is done with.
        consumed: AtomicU64,
        /// Raised by (or for) `dst` before it sleeps on this channel;
        /// cleared by the sender that wakes it.
        waiting: AtomicBool,
        slots: [UnsafeCell<Deposit>; 2],
    }

    // SAFETY: the counters and the flag are atomics. A slot is written
    // only through the pair's one `Tx` (by `&mut`) while the counters show
    // it consumed, and read only through its one `Rx` while they show it
    // published and not yet consumed; the counters' release/acquire pairs
    // order those accesses (see `Tx::publish`, `Rx::front` and
    // `Rx::consume`). `Deposit` holds only `f64`s and plain integers.
    unsafe impl Sync for Channel {}

    impl Channel {
        /// Whether a deposit is waiting to be consumed.
        pub(crate) fn ready(&self) -> bool {
            self.published.load(Ordering::Acquire) > self.consumed.load(Ordering::Relaxed)
        }

        /// Raises the `waiting` flag and re-reads the counters: `true`
        /// means a deposit raced in and the receiver must not sleep. The
        /// sleeping half of the lost-wakeup argument (module docs).
        pub(crate) fn sleep_unless_ready(&self) -> bool {
            self.waiting.store(true, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            if self.ready() {
                self.waiting.store(false, Ordering::Relaxed);
                return true;
            }
            false
        }
    }

    /// The sending end of a channel; one per channel, held by `src`.
    pub(crate) struct Tx(Arc<Channel>);

    /// The receiving end of a channel; one per channel, held by `dst`.
    pub(crate) struct Rx(Arc<Channel>);

    /// A new channel's two ends.
    pub(crate) fn pair() -> (Tx, Rx) {
        let ch = Arc::new(Channel::default());
        (Tx(Arc::clone(&ch)), Rx(ch))
    }

    impl Tx {
        /// Gathers `indices` of `values` into the next slot under the
        /// header `(seq, depart)` and publishes it. The receiver is not
        /// woken here: see [`Self::take_waiter`].
        ///
        /// # Panics
        /// Panics (naming the pair `(src, dst)`) if both slots still hold
        /// unconsumed deposits.
        pub(crate) fn publish(
            &mut self,
            (src, dst): (usize, usize),
            (seq, depart): (u64, f64),
            indices: &[usize],
            values: &[f64],
        ) {
            let ch = &*self.0;
            let n = ch.published.load(Ordering::Relaxed);
            let outstanding = n - ch.consumed.load(Ordering::Acquire);
            assert!(
                outstanding < 2,
                "halo exchange from rank {src} to rank {dst} would hold {} unconsumed deposits: \
                 plans must be symmetric, and a posted exchange completed before the next",
                outstanding + 1
            );
            // SAFETY: deposit `n - 2`, the last one in this slot, is
            // consumed (the acquire load above saw the receiver's release
            // of it), and the receiver reads a slot only once `published`
            // covers it, which it does not yet. This `Tx` is the channel's
            // only writer and is borrowed mutably.
            let slot = unsafe { &mut *ch.slots[(n % 2) as usize].get() };
            slot.values.clear();
            slot.values.extend(indices.iter().map(|&j| values[j]));
            slot.seq = seq;
            slot.depart = depart;
            ch.published.store(n + 1, Ordering::Release);
        }

        /// Whether the receiver sleeps on this channel, clearing the flag.
        /// The publishing half of the lost-wakeup argument: called after
        /// a sequentially consistent fence that follows the publishes.
        pub(crate) fn take_waiter(&self) -> bool {
            self.0.waiting.load(Ordering::Relaxed) && self.0.waiting.swap(false, Ordering::Relaxed)
        }
    }

    impl Rx {
        /// The channel, for the scheduler's registration re-check.
        pub(crate) fn channel(&self) -> &Arc<Channel> {
            &self.0
        }

        /// The oldest unconsumed deposit.
        ///
        /// # Panics
        /// Panics if none is published.
        pub(crate) fn front(&self) -> &Deposit {
            let ch = &*self.0;
            assert!(ch.ready(), "no deposit published");
            let c = ch.consumed.load(Ordering::Relaxed);
            // SAFETY: the acquire load in `ready` saw the sender's release
            // of this deposit, and the sender does not write this slot
            // again before `consume` (which needs this borrow to end)
            // releases it. This `Rx` is the channel's only reader.
            unsafe { &*ch.slots[(c % 2) as usize].get() }
        }

        /// Frees the oldest deposit's slot for the sender.
        ///
        /// # Panics
        /// Panics if none is published.
        pub(crate) fn consume(&mut self) {
            let ch = &*self.0;
            assert!(ch.ready(), "no deposit published");
            let c = ch.consumed.load(Ordering::Relaxed);
            // Release: the caller's reads of the slot happen-before the
            // sender's acquire of the count and so its next write there.
            ch.consumed.store(c + 1, Ordering::Release);
        }

        /// `(published, consumed)` and each slot's buffer address.
        #[cfg(test)]
        pub(crate) fn inspect(&self) -> ((u64, u64), [usize; 2]) {
            let ch = &*self.0;
            // SAFETY: called from the receiving rank between exchanges, so
            // no deposit is being written or read.
            let ptr = |i: usize| unsafe { (*ch.slots[i].get()).values.as_ptr() as usize };
            let counts = (
                ch.published.load(Ordering::Acquire),
                ch.consumed.load(Ordering::Relaxed),
            );
            (counts, [ptr(0), ptr(1)])
        }
    }
}

pub(crate) use channel::Channel;
use channel::{Rx, Tx};

/// One neighbour of a rank: both ends of its channels, where its sequence
/// counter sits among the ledger's, and the path its messages take here.
struct Peer {
    tx: Tx,
    rx: Rx,
    seq_at: usize,
    path: Path,
}

/// One rank's neighbours, by rank. An exchange walks its plan's sorted
/// neighbours through them with a position hint, so a plan that keeps its
/// neighbours in order finds each without a search.
#[derive(Default)]
pub(crate) struct Halo {
    peers: PeerMap<Peer>,
}

impl Halo {
    /// Neighbour `nb`, looked up at `*at` first and left there; its
    /// channel ends come from the job's [`Registry`] on first use.
    fn peer(&mut self, shared: &SharedComm, me: usize, nb: usize, at: &mut usize) -> &mut Peer {
        self.peers.get_or_insert_at(nb, at, || Peer {
            tx: shared.halo.tx(me, nb),
            rx: shared.halo.rx(nb, me),
            seq_at: usize::MAX,
            path: shared.model.path(nb, me),
        })
    }
}

/// A channel end waiting for its owner to take it.
enum End {
    Tx(Tx),
    Rx(Rx),
}

/// Where the two ends of a pair's channel meet: the first rank to ask
/// creates the channel and leaves the other end here, and the other rank
/// takes it. Each rank asks once per neighbour (its [`Halo`] keeps the
/// end), so the map holds only pairs half-taken.
#[derive(Default)]
pub(crate) struct Registry {
    ends: Mutex<HashMap<(usize, usize), End>>,
}

impl Registry {
    /// The end of `pair`'s channel that `mine` picks out of a fresh pair of
    /// ends, the other one left for its owner; or the end its owner left.
    fn take(&self, pair: (usize, usize), mine: fn((Tx, Rx)) -> (End, End)) -> End {
        let mut ends = self
            .ends
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match ends.remove(&pair) {
            Some(end) => {
                if ends.is_empty() {
                    // Every pair met so far is whole: give the table back.
                    ends.shrink_to_fit();
                }
                end
            }
            None => {
                let (mine, other) = mine(channel::pair());
                ends.insert(pair, other);
                mine
            }
        }
    }

    /// The sending end of `src → dst`.
    fn tx(&self, src: usize, dst: usize) -> Tx {
        match self.take((src, dst), |(tx, rx)| (End::Tx(tx), End::Rx(rx))) {
            End::Tx(tx) => tx,
            End::Rx(_) => unreachable!("a sender asks for its end once"),
        }
    }

    /// The receiving end of `src → dst`.
    fn rx(&self, src: usize, dst: usize) -> Rx {
        match self.take((src, dst), |(tx, rx)| (End::Rx(rx), End::Tx(tx))) {
            End::Rx(rx) => rx,
            End::Tx(_) => unreachable!("a receiver asks for its end once"),
        }
    }
}

/// The transfer of `deposit` from `src` over `path`, and its modeled size.
fn priced(model: &JobModel, path: &Path, deposit: &channel::Deposit) -> (Transfer, f64) {
    let bytes = 8.0 * deposit.values.len() as f64 + HEADER_BYTES;
    let t = model.transfer_over(&path.link(bytes), deposit.seq, deposit.depart);
    (t, bytes)
}

/// Scatters a received halo into its ghost slots, returning its length.
fn scatter(src: usize, halo: &[f64], slots: &[usize], values: &mut [f64]) -> usize {
    assert_eq!(
        halo.len(),
        slots.len(),
        "halo size mismatch with rank {src}"
    );
    for (&slot, &v) in slots.iter().zip(halo) {
        values[slot] = v;
    }
    halo.len()
}

/// The copy charge of gathering or scattering `n` values.
pub type CopyCost = fn(usize) -> Work;

impl SimComm {
    /// Refreshes the ghosts of `values` from their owners according to
    /// `plan`: for each neighbour in plan order, charges `copy` of its
    /// interface and sends it; then, for each neighbour in plan order,
    /// receives its interface, scatters it into the ghost slots and
    /// charges `copy`. Every rank the plan names must call this with its
    /// own side of the plan.
    ///
    /// # Panics
    /// Panics with "halo size mismatch with rank N" if neighbour `N` sends
    /// a different number of values than the plan receives from it, and on
    /// an asymmetric plan (see the module docs).
    pub fn exchange(&mut self, plan: &ExchangePlan, values: &mut [f64], copy: CopyCost) {
        self.exchange_sends(plan, values, copy);
        let me = self.rank;
        let mut at = 0;
        for (&src, slots) in plan.neighbors.iter().zip(&plan.recv_indices) {
            self.maybe_fail();
            let SimComm {
                shared,
                ledger,
                halo,
                node,
                down_at,
                ..
            } = self;
            let peer = halo.peer(shared, me, src, &mut at);
            at += 1;
            shared.await_deposit(me, src, &peer.rx, ledger.clock);
            let deposit = peer.rx.front();
            let (t, bytes) = priced(&shared.model, &peer.path, deposit);
            ledger.recv_over(t, src, deposit.seq, bytes, deposit.depart);
            fail_if_down(ledger.clock, *down_at, *node);
            let len = scatter(src, &deposit.values, slots, values);
            peer.rx.consume();
            self.compute(copy(len));
        }
    }

    /// Posts the exchange of [`Self::exchange`] without completing it:
    /// charges and sends every neighbour's interface, then posts one
    /// receive per neighbour at the current clock. Transfers progress
    /// during any compute charged before the matching
    /// [`Self::exchange_wait`].
    pub fn exchange_post(
        &mut self,
        plan: &ExchangePlan,
        values: &[f64],
        copy: CopyCost,
    ) -> PostedExchange {
        self.exchange_sends(plan, values, copy);
        let first_post = self.ledger.posts();
        for _ in &plan.neighbors {
            self.maybe_fail();
            self.ledger.record(Op::Post);
        }
        PostedExchange {
            posted: self.ledger.clock,
            first_post,
            neighbors: plan.neighbors.len(),
        }
    }

    /// Completes an exchange posted by [`Self::exchange_post`]: waits for
    /// every neighbour's interface in plan order — a message that arrived
    /// under the compute charged since the post costs only what that
    /// compute did not cover (`Transfer::wait`) — then scatters each into
    /// its ghost slots and charges `copy`. The ghosts are then bitwise what
    /// [`Self::exchange`] would have produced.
    ///
    /// # Panics
    /// As [`Self::exchange`], and if `posted` was posted over a plan with
    /// another neighbour count.
    pub fn exchange_wait(
        &mut self,
        plan: &ExchangePlan,
        posted: PostedExchange,
        values: &mut [f64],
        copy: CopyCost,
    ) {
        assert_eq!(posted.neighbors, plan.neighbors.len());
        self.maybe_fail();
        let me = self.rank;
        let mut at = 0;
        for (&src, post) in plan.neighbors.iter().zip(posted.first_post..) {
            let SimComm {
                shared,
                ledger,
                halo,
                node,
                down_at,
                ..
            } = self;
            let peer = halo.peer(shared, me, src, &mut at);
            at += 1;
            shared.await_deposit(me, src, &peer.rx, ledger.clock);
            let deposit = peer.rx.front();
            let (t, bytes) = priced(&shared.model, &peer.path, deposit);
            let msg = (deposit.seq, bytes, deposit.depart);
            ledger.wait_over(t, src, msg, (posted.posted, post));
            fail_if_down(ledger.clock, *down_at, *node);
        }
        self.ledger.end_batch(plan.neighbors.len());
        let mut at = 0;
        for (&src, slots) in plan.neighbors.iter().zip(&plan.recv_indices) {
            let peer = self.halo.peer(&self.shared, me, src, &mut at);
            at += 1;
            let len = scatter(src, &peer.rx.front().values, slots, values);
            peer.rx.consume();
            self.compute(copy(len));
        }
    }

    /// The send half of both forms: per neighbour in plan order, the
    /// gather's `copy` charge, then the send, gathered straight into the
    /// pair's next slot; then one fence, and a wake for each neighbour
    /// asleep on its channel from this rank.
    fn exchange_sends(&mut self, plan: &ExchangePlan, values: &[f64], copy: CopyCost) {
        let me = self.rank;
        self.halo.peers.reserve_for(plan.neighbors.len());
        let mut at = 0;
        for (&dst, indices) in plan.neighbors.iter().zip(&plan.send_indices) {
            self.compute(copy(indices.len()));
            let bytes = 8.0 * indices.len() as f64 + HEADER_BYTES;
            let SimComm {
                shared,
                ledger,
                halo,
                ..
            } = self;
            let peer = halo.peer(shared, me, dst, &mut at);
            at += 1;
            let seq = ledger.send_at(&shared.model, dst, bytes, &mut peer.seq_at);
            peer.tx
                .publish((me, dst), (seq, ledger.clock), indices, values);
        }
        if plan.neighbors.is_empty() {
            return;
        }
        // One fence orders every publish above before every flag read
        // below (module docs, "No lost wakeup").
        fence(Ordering::SeqCst);
        let mut at = 0;
        for &dst in &plan.neighbors {
            let waiter = self
                .halo
                .peer(&self.shared, me, dst, &mut at)
                .tx
                .take_waiter();
            at += 1;
            if waiter {
                self.shared.sched.notify_exchange(me, dst);
            }
        }
    }
}

impl SharedComm {
    /// Returns once `channel` (from `src` to `me`) holds a deposit,
    /// sleeping until it does: a coroutine yield registered under the
    /// scheduler lock.
    ///
    /// # Panics
    /// Poisons `me` once `src` has terminated with nothing published, or
    /// when the scheduler declares a deadlock.
    fn await_deposit(&self, me: usize, src: usize, rx: &Rx, clock: f64) {
        loop {
            if rx.channel().ready() {
                return;
            }
            // `src`'s deposits happen-before its termination flag.
            if self.rank_terminated(src) {
                if rx.channel().ready() {
                    return;
                }
                panic!(
                    "job poisoned: rank {me} waited in exchange(src={src}) but the sender is gone"
                );
            }
            if crate::sched::yield_exchange(std::sync::Arc::clone(rx.channel()), src, clock)
                == crate::sched::Verdict::Deadlock
            {
                panic!("job poisoned: deadlock victim rank {me} blocked in exchange(src={src})");
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{run_spmd, run_spmd_opts, EngineOpts, SpmdConfig};
    use crate::{ClusterTopology, ComputeModel, FaultPlan, NetworkModel};

    fn cfg(size: usize) -> SpmdConfig {
        SpmdConfig {
            size,
            topo: ClusterTopology::uniform(size, 1),
            net: NetworkModel::gigabit_ethernet(),
            compute: ComputeModel::new(1e9, 4e9),
            seed: 42,
        }
    }

    /// The copy charge the vector layer passes.
    pub(crate) fn copy(n: usize) -> Work {
        Work::new(0.0, 16.0 * n as f64)
    }

    /// A ring plan over `len` owned values: the whole owned block goes to
    /// each of the rank's distinct ring neighbours (itself, on one rank),
    /// and neighbour `i`'s block lands in ghosts `len·(i+1)..len·(i+2)`.
    pub(crate) fn ring(rank: usize, size: usize, len: usize) -> ExchangePlan {
        let mut neighbors = vec![(rank + size - 1) % size, (rank + 1) % size];
        neighbors.sort_unstable();
        neighbors.dedup();
        let n = neighbors.len();
        ExchangePlan {
            neighbors,
            send_indices: vec![(0..len).collect(); n],
            recv_indices: (1..=n)
                .map(|i| (i * len..(i + 1) * len).collect())
                .collect(),
        }
    }

    /// Owned values `rank + j/len` followed by zeroed ghosts for `plan`.
    pub(crate) fn values(rank: usize, len: usize, plan: &ExchangePlan) -> Vec<f64> {
        let mut v: Vec<f64> = (0..len)
            .map(|j| rank as f64 + j as f64 / len as f64)
            .collect();
        v.resize(len * (1 + plan.neighbors.len()), 0.0);
        v
    }

    #[test]
    fn a_ring_exchange_moves_every_neighbours_block() {
        let r = run_spmd(cfg(4), |comm| {
            let plan = ring(comm.rank(), 4, 3);
            let mut v = values(comm.rank(), 3, &plan);
            comm.exchange(&plan, &mut v, copy);
            v
        });
        for (rank, res) in r.iter().enumerate() {
            let plan = ring(rank, 4, 3);
            for (i, &nb) in plan.neighbors.iter().enumerate() {
                let got = &res.value[3 * (i + 1)..3 * (i + 2)];
                assert_eq!(got, &values(nb, 3, &plan)[..3], "rank {rank} from {nb}");
            }
        }
    }

    #[test]
    fn a_posted_exchange_waited_at_once_costs_the_blocking_one() {
        // With no compute between post and wait, the overlap model must
        // degenerate to exactly the blocking receive's cost.
        let run = |posted: bool| {
            run_spmd(cfg(2), move |comm| {
                let plan = ring(comm.rank(), 2, 5000);
                let mut v = values(comm.rank(), 5000, &plan);
                if posted {
                    let p = comm.exchange_post(&plan, &v, copy);
                    comm.exchange_wait(&plan, p, &mut v, copy);
                } else {
                    comm.exchange(&plan, &mut v, copy);
                }
                (v, comm.clock().to_bits())
            })
        };
        let (blocking, posted) = (run(false), run(true));
        for (a, b) in blocking.iter().zip(&posted) {
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn back_to_back_exchanges_reuse_two_slots_per_pair() {
        // Three exchanges in a row on one plan (NS's velocity pattern), a
        // hundred times: every deposit lands in one of the pair's two
        // slots, and neither slot is reallocated after its first deposit.
        let r = run_spmd(cfg(3), |comm| {
            let plan = ring(comm.rank(), 3, 16);
            let mut v = values(comm.rank(), 16, &plan);
            let inspect = |comm: &SimComm| -> Vec<_> {
                plan.neighbors
                    .iter()
                    .map(|&nb| comm.halo.peers.get(nb).unwrap().rx.inspect())
                    .collect()
            };
            let mut first = None;
            for _ in 0..100 {
                for _ in 0..3 {
                    comm.exchange(&plan, &mut v, copy);
                }
                first.get_or_insert_with(|| inspect(comm));
            }
            (first.unwrap(), inspect(comm))
        });
        for res in &r {
            let (first, last) = &res.value;
            for (&(_, slots_first), &(counts, slots_last)) in first.iter().zip(last) {
                assert_eq!(counts, (300, 300));
                assert_eq!(slots_first, slots_last, "a slot was reallocated");
            }
        }
    }

    #[test]
    fn a_third_outstanding_deposit_panics_instead_of_overwriting() {
        let err = std::panic::catch_unwind(|| {
            run_spmd(cfg(2), |comm| {
                if comm.rank() == 0 {
                    let plan = ring(0, 2, 1);
                    let v = values(0, 1, &plan);
                    for _ in 0..3 {
                        let _ = comm.exchange_post(&plan, &v, copy);
                    }
                }
            })
        })
        .unwrap_err();
        let msg = crate::engine::panic_message(err.as_ref());
        assert!(
            msg.contains("from rank 0 to rank 1 would hold 3 unconsumed deposits"),
            "got: {msg}"
        );
    }

    #[test]
    fn an_asymmetric_plan_ends_in_a_deadlock_report_not_a_hang() {
        // Rank 0 exchanges with rank 1; rank 1's plan lists nobody, and it
        // goes on to an allreduce that rank 0 never reaches.
        for workers in [1, 2] {
            let err = std::panic::catch_unwind(|| {
                run_spmd_opts(
                    cfg(2),
                    EngineOpts::cooperative(workers),
                    FaultPlan::none(),
                    None,
                    |comm| {
                        let plan = if comm.rank() == 0 {
                            ring(0, 2, 4)
                        } else {
                            ExchangePlan::default()
                        };
                        let mut v = values(comm.rank(), 4, &plan);
                        comm.exchange(&plan, &mut v, copy);
                        let _ = comm.allreduce_scalar(crate::collectives::ReduceOp::Sum, 1.0);
                    },
                )
            })
            .unwrap_err();
            let msg = crate::engine::panic_message(err.as_ref());
            assert!(msg.contains("job deadlocked"), "got: {msg}");
            assert!(
                msg.contains("rank 0 waits on exchange(src=1);"),
                "got: {msg}"
            );
            assert!(msg.contains("rank 1 waits on allreduce;"), "got: {msg}");
        }
    }

    #[test]
    fn a_worker_pool_loses_no_channel_and_no_wakeup() {
        // Seventeen ranks on two, three and seventeen workers meet their
        // neighbours' channels for the first time concurrently, then sleep
        // and wake on them between collectives.
        for seed in 0..30 {
            for workers in [2, 3, 17] {
                let opts = EngineOpts::cooperative(workers);
                let c = SpmdConfig { seed, ..cfg(17) };
                let (res, _) = run_spmd_opts(c, opts, FaultPlan::none(), None, |comm| {
                    for k in 0..20 {
                        let len = 3 + k % 4;
                        let plan = ring(comm.rank(), comm.size(), len);
                        let mut v = values(comm.rank(), len, &plan);
                        let p = comm.exchange_post(&plan, &v, copy);
                        let flops = 1e5 * ((comm.rank() * 7 + k) % 5) as f64;
                        comm.compute(Work::new(flops, 1e3));
                        comm.exchange_wait(&plan, p, &mut v, copy);
                        let _ = comm.allreduce_vec(crate::collectives::ReduceOp::Sum, &[1.0]);
                        comm.exchange(&plan, &mut v, copy);
                    }
                });
                res.unwrap();
            }
        }
    }
}
