//! # hetero-trace
//!
//! Deterministic, virtual-clock-stamped structured tracing and metrics for
//! the hetero-hpc stack.
//!
//! Every event is stamped with the emitting rank's *virtual* clock, so a
//! trace is a pure function of `(program, platform models, seed)` —
//! byte-identical across host thread counts and host machines. Events are
//! merged in `(virtual time, rank, per-rank sequence)` order; wall clock
//! never participates.
//!
//! The pieces:
//! - [`event`]: the event vocabulary ([`TraceEvent`], [`EventKind`],
//!   [`Phase`]) — `Copy` records, no heap payloads.
//! - [`sink`]: the merged [`Trace`] and what a request asks to trace
//!   ([`TraceSpec`]). This crate records nothing while a job runs: a rank
//!   records its work tape, and a trace is what evaluating the job's tapes
//!   implies (`hetero_simmpi::tape::evaluate`), merged once in
//!   canonical order. An untraced run therefore pays nothing for tracing.
//! - [`metrics`]: [`MetricsRegistry`] — monotonic counters + fixed-bucket
//!   histograms derived from a finished trace (zero recording overhead).
//! - [`export`]: JSONL and Chrome `trace_event` JSON writers
//!   (deterministic bytes; the latter opens in `about://tracing` or
//!   Perfetto).
//! - [`rollup`]: [`PhaseRollup`] — reduces phase spans back to the
//!   paper's per-iteration assembly/precond/solve/total numbers with the
//!   report pipeline's exact operation order.
//! - [`diff`]: [`first_divergence`] — where two JSONL exports first
//!   differ, with the event's rank, virtual time and context.

pub mod diff;
pub mod event;
pub mod export;
pub mod metrics;
pub mod rollup;
pub mod sink;

pub use diff::{first_divergence, Divergence};
pub use event::{cmp_events, EventKind, Phase, TraceEvent, CAMPAIGN_RANK};
pub use metrics::{Histogram, MetricsRegistry};
pub use rollup::{rollup as phase_rollup, PhaseRollup};
pub use sink::{Trace, TraceDetail, TraceSpec};
