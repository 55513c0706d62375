//! Trace event vocabulary.
//!
//! Every event is stamped with the *virtual* clock of the rank that emitted
//! it — never wall time — so a trace is a pure function of the program, the
//! platform models, and the seed. Events are `Copy` (no heap payloads) so
//! recording one is a single `Vec` push.

/// The FEM phases of one solver iteration (the paper's Figs. 4–7 split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Matrix/vector assembly — the paper's step (ii).
    Assembly,
    /// Preconditioner computation — step (iiia).
    Precond,
    /// Krylov solution — step (iiib).
    Solve,
    /// Whatever the iteration spent outside the three named phases
    /// (BC application, history rotation, norm bookkeeping).
    Other,
    /// The enclosing whole-iteration span; its duration is the iteration
    /// wall (virtual) time, so `assembly + precond + solve + other` must
    /// reproduce it.
    Iteration,
}

impl Phase {
    /// Stable lowercase name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Assembly => "assembly",
            Phase::Precond => "precond",
            Phase::Solve => "solve",
            Phase::Other => "other",
            Phase::Iteration => "iteration",
        }
    }

    /// Dense index for per-phase tables.
    pub fn index(self) -> usize {
        match self {
            Phase::Assembly => 0,
            Phase::Precond => 1,
            Phase::Solve => 2,
            Phase::Other => 3,
            Phase::Iteration => 4,
        }
    }
}

/// What happened. Span-like kinds carry their duration on the enclosing
/// [`TraceEvent`]; instant kinds have `dur == 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A FEM phase segment of time-step `step` (span).
    Phase {
        /// Which phase.
        phase: Phase,
        /// Absolute time-step index (absolute so resumed runs line up).
        step: u32,
    },
    /// One collective operation (span): `bytes` is the wire volume this
    /// rank sent inside it.
    Collective {
        /// Operation name (`"reduce"`, `"bcast"`, `"allgather"`, ...).
        op: &'static str,
        /// Modeled bytes this rank sent during the operation.
        bytes: f64,
    },
    /// A point-to-point send completed by this rank (instant).
    SendMsg {
        /// Destination rank.
        peer: u32,
        /// Modeled wire bytes.
        bytes: f64,
    },
    /// A point-to-point receive completed by this rank (span: from the
    /// moment the rank started waiting to delivery).
    RecvMsg {
        /// Source rank.
        peer: u32,
        /// Modeled wire bytes.
        bytes: f64,
    },
    /// Outcome of a nonblocking wait batch (instant): how much of the
    /// posted transfers' wire time ran concurrently with compute charged
    /// between post and wait (`hidden`) versus stalling the receiver at the
    /// wait point (`exposed`). The rollup sums these to show how much
    /// communication the overlapped solver paths actually hide.
    Overlap {
        /// Messages completed by the wait.
        msgs: u32,
        /// Transfer seconds hidden behind compute.
        hidden: f64,
        /// Seconds the receiver stalled at the wait point.
        exposed: f64,
    },
    /// Krylov iteration count of one time-step's solve (instant).
    Solver {
        /// Absolute time-step index.
        step: u32,
        /// Krylov iterations spent in this step.
        iters: u32,
    },
    /// A checkpoint became durable (instant, stamped after the I/O charge).
    Checkpoint {
        /// Absolute time-step index the snapshot covers.
        step: u32,
        /// Serialized snapshot size charged to the I/O model.
        bytes: f64,
    },
    /// A node was revoked / crashed (instant, campaign timeline).
    Revocation {
        /// Topology node id.
        node: u32,
    },
    /// The campaign rolled back to its last durable checkpoint (instant).
    Rollback {
        /// Step index the campaign resumed from.
        to_step: u32,
        /// Virtual seconds of work discarded by the rollback.
        lost_seconds: f64,
    },
    /// A (re)started attempt began executing (instant, campaign timeline).
    AttemptStart {
        /// 1-based attempt number.
        attempt: u32,
    },
    /// Dollars charged to an account (instant; an expense *delta*).
    Expense {
        /// Billing account (`"fleet"`, `"wait"`, ...).
        account: &'static str,
        /// Dollars charged.
        dollars: f64,
    },
    /// Virtual seconds attributed to a campaign accounting bucket
    /// (instant; the buckets reproduce the recovery accounting identity).
    TimeAccount {
        /// Accounting bucket (`"compute"`, `"lost_work"`, ...).
        account: &'static str,
        /// Seconds attributed.
        seconds: f64,
    },
}

/// Synthetic rank id used for campaign-level events (attempt starts,
/// revocations, expense deltas) that no simulated rank emitted.
pub const CAMPAIGN_RANK: u32 = u32::MAX;

/// One recorded event: virtual timestamp, duration (0 for instants), the
/// emitting rank, a per-rank monotonic sequence number, and the kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Virtual start time, seconds.
    pub at: f64,
    /// Virtual duration, seconds (0 for instants).
    pub dur: f64,
    /// Emitting rank ([`CAMPAIGN_RANK`] for campaign-level events).
    pub rank: u32,
    /// Per-rank monotonic sequence number; makes the sort key total.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Total order on events: `(at, rank, seq)` with `total_cmp` on the
/// timestamp so the comparison is a total order even if a NaN ever slipped
/// in. Wall clock never participates.
pub fn cmp_events(a: &TraceEvent, b: &TraceEvent) -> std::cmp::Ordering {
    a.at.total_cmp(&b.at)
        .then_with(|| a.rank.cmp(&b.rank))
        .then_with(|| a.seq.cmp(&b.seq))
}
