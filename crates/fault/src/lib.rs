//! # hetero-fault
//!
//! Deterministic virtual-time fault processes and checkpoint/restart
//! resilience policies for the `hetero-hpc` reproduction.
//!
//! The paper's spot-instance experience — "we never succeeded in
//! establishing a full 63-host configuration of spot request instances" —
//! is invisible to a failure-free simulator. This crate supplies the
//! missing half of the spot story:
//!
//! * **Fault processes** ([`process`]): per-platform event generators for
//!   spot revocations (a price/capacity-crossing model over the same
//!   bid machinery `platform::spot` uses), node crashes (per-platform
//!   MTBF), and transient network-degradation windows. All sampling is
//!   hash-derived from the experiment seed, exactly like network jitter:
//!   the same seed yields the same faults, bitwise, on any host.
//! * **Timelines** ([`timeline`]): the merged, time-sorted
//!   `(virtual_time, FaultEvent)` stream for one attempt, convertible to
//!   the [`hetero_simmpi::FaultPlan`] the engine injects.
//! * **Policies** ([`policy`]): what a run does about faults — checkpoint
//!   cadence, restart with re-acquisition under bounded exponential
//!   backoff, or fail-fast.
//! * **Replay** ([`replay`]): the analytic checkpoint→fault→rollback→
//!   resume accounting used by the modeled (paper-scale) engine, charging
//!   checkpoint I/O, lost work, backoff, and re-acquisition waits into
//!   expected time and dollars.
//!
//! The crate deliberately depends only on `hetero-simmpi` (for the plan
//! type and the hash RNG); `hetero-hpc` composes it with the platform
//! catalog and fleet machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod policy;
pub mod process;
pub mod replay;
pub mod timeline;

pub use event::{FaultEvent, FaultKind};
pub use policy::{Backoff, RecoveryMode, ResiliencePolicy};
pub use process::{CrashProcess, DegradationModel, FaultModel, SpotMarket};
pub use replay::{replay_campaign_observed, AttemptEnv, CampaignEvent, RecoveryStats};
pub use timeline::FaultTimeline;
