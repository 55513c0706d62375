//! # hetero-simmpi
//!
//! A virtual-time SPMD message-passing runtime — the substitute for "MPI on
//! hardware we do not have" in the `hetero-hpc` reproduction.
//!
//! The paper benchmarks identical MPI applications on four platforms whose
//! *secondary* characteristics differ: interconnect (1 GbE, 10 GbE,
//! InfiniBand 4X DDR), cores per node (4/12/16), CPU generation, and cloud
//! virtualization artifacts. This crate reproduces that setting in
//! simulation:
//!
//! * Each MPI rank runs as a cooperatively scheduled stackful coroutine
//!   executing the *actual* application code on real data
//!   ([`engine::run_spmd`]); an M:N scheduler multiplexes up to
//!   [`engine::MAX_REAL_RANKS`] ranks onto a fixed worker pool. It is the
//!   only engine, so the crate builds only where its context switch exists
//!   (x86_64 and aarch64, not Windows).
//! * Each rank carries a **virtual clock** (seconds of simulated platform
//!   time). Computation advances it through a roofline model
//!   ([`work::ComputeModel`]); messages advance it through a latency /
//!   bandwidth / NIC-sharing / fabric-contention / jitter model
//!   ([`network::NetworkModel`]).
//! * Collectives ([`collectives`]) are priced as modeled point-to-point
//!   messages (binomial trees, ring), so their cost emerges from the same
//!   network parameters the paper varies. The symmetric ones (allreduce,
//!   all-gather) run as one rendezvous per call: the ranks park, and one
//!   evaluator charges every hop of the tree to them exactly as the
//!   messages would have.
//! * A halo exchange ([`exchange`]) is one call over per-pair reused
//!   slots, charged message by message as point-to-point halo traffic
//!   would be.
//!
//! Simulated time is **deterministic**: it depends only on the program's
//! communication structure, the platform parameters, and an experiment seed
//! (jitter is hash-derived per message) — never on host scheduling or
//! wall-clock. Running the same experiment twice, on any worker pool, gives
//! bitwise-identical timings, which the test suite exploits.
//!
//! For configurations too large to execute numerically (the paper's
//! 1000-rank runs) the same cost formulas are evaluated analytically; see
//! [`modeled`]. A run that has executed once can be priced again on other
//! platforms from its recorded charges without re-executing; see [`tape`].
//!
//! Runs can optionally return a deterministic, virtual-clock-stamped trace
//! (phases, collectives, point-to-point traffic) through
//! [`engine::run_spmd_opts`]. A trace is a view of the work tape: what
//! evaluating the run's tape implies ([`tape::evaluate`]), not a
//! second record. See the `hetero-trace` crate for the event model and
//! exporters.

// `deny` rather than `forbid`: the coroutine context switch in `sched` and
// the halo exchange's lock-free slots (`exchange::channel`) need scoped
// `unsafe` islands; everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod collectives;
pub mod comm;
pub mod engine;
pub mod exchange;
pub mod fault;
pub mod modeled;
pub mod network;
mod rendezvous;
pub mod rng;
pub(crate) mod sched;
pub mod stats;
pub mod tape;
pub mod topology;
pub mod work;

pub use comm::{Payload, RecvRequest, SimComm};
pub use engine::{
    run_spmd, run_spmd_opts, run_spmd_recorded, EngineKind, EngineOpts, RankResult, SpmdConfig,
    MAX_REAL_RANKS,
};
pub use exchange::{ExchangePlan, PostedExchange};
pub use fault::{FaultPlan, RankFailed, SlowWindow};
pub use hetero_trace::{Trace, TraceDetail, TraceSpec};
pub use network::NetworkModel;
pub use stats::CommStats;
pub use tape::WorkTape;
pub use topology::ClusterTopology;
pub use work::{ComputeModel, Work};
