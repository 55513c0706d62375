//! Recording: a per-rank event list, and the merged [`Trace`] the job
//! builds from every rank's list once the ranks have exited.
//!
//! The hot path is [`RankTracer::record`], a `Vec` push; a rank's sequence
//! number is its list's length. Nothing is shared while the job runs, so
//! recording takes no lock. When tracing is off the communicator holds no
//! tracer at all, so the disabled path is a single `Option` test.

use crate::event::{cmp_events, EventKind, TraceEvent};
use crate::export;
use crate::metrics::MetricsRegistry;
use crate::rollup::{rollup, PhaseRollup};
use serde::{Deserialize, Serialize};

/// How much of the stack to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TraceDetail {
    /// FEM phase spans, solver counts, and fault/recovery/expense events.
    Phases,
    /// `Phases` plus one span per collective operation.
    Collectives,
    /// `Collectives` plus every point-to-point message. Verbose: a Krylov
    /// solve emits two events per halo exchange per iteration.
    Messages,
}

/// Tracing configuration carried by a run request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Recording granularity.
    pub detail: TraceDetail,
}

impl TraceSpec {
    /// Phase-level tracing (the cheapest useful granularity).
    pub fn phases() -> Self {
        TraceSpec {
            detail: TraceDetail::Phases,
        }
    }

    /// Phase + collective tracing (the default).
    pub fn collectives() -> Self {
        Self::default()
    }

    /// Everything, including per-message point-to-point events.
    pub fn messages() -> Self {
        TraceSpec {
            detail: TraceDetail::Messages,
        }
    }
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            detail: TraceDetail::Collectives,
        }
    }
}

/// One rank's recording: its events in program order, each numbered by
/// its position, which makes the global sort key total.
pub struct RankTracer {
    rank: u32,
    detail: TraceDetail,
    events: Vec<TraceEvent>,
}

impl RankTracer {
    /// An empty recording for `rank` at `detail`.
    pub fn new(rank: u32, detail: TraceDetail) -> Self {
        RankTracer {
            rank,
            detail,
            events: Vec::new(),
        }
    }

    /// Recording granularity.
    #[inline]
    pub fn detail(&self) -> TraceDetail {
        self.detail
    }

    /// Records one event stamped at virtual time `at` lasting `dur`
    /// virtual seconds.
    #[inline]
    pub fn record(&mut self, at: f64, dur: f64, kind: EventKind) {
        self.events.push(TraceEvent {
            at,
            dur,
            rank: self.rank,
            seq: self.events.len() as u64,
            kind,
        });
    }

    /// The recorded events, in program order.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

/// A merged, deterministically ordered trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Events sorted by `(virtual time, rank, per-rank seq)`.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Merges per-rank event lists into one trace in canonical order.
    pub fn from_ranks(ranks: Vec<Vec<TraceEvent>>) -> Self {
        let mut events = Vec::with_capacity(ranks.iter().map(Vec::len).sum());
        for rank in ranks {
            events.extend(rank);
        }
        let mut trace = Trace { events };
        trace.sort();
        trace
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Restores the canonical `(at, rank, seq)` order after edits.
    pub fn sort(&mut self) {
        self.events.sort_by(cmp_events);
    }

    /// Shifts every timestamp by `offset` virtual seconds (used to place an
    /// attempt's trace on the campaign timeline).
    pub fn shift(&mut self, offset: f64) {
        for e in &mut self.events {
            e.at += offset;
        }
    }

    /// Appends a campaign-level event (rank [`crate::event::CAMPAIGN_RANK`])
    /// with the next free sequence number for that rank. Call [`Self::sort`]
    /// once after the last push.
    pub fn push_campaign(&mut self, at: f64, kind: EventKind) {
        let rank = crate::event::CAMPAIGN_RANK;
        let seq = self
            .events
            .iter()
            .filter(|e| e.rank == rank)
            .map(|e| e.seq + 1)
            .max()
            .unwrap_or(0);
        self.events.push(TraceEvent {
            at,
            dur: 0.0,
            rank,
            seq,
            kind,
        });
    }

    /// Merges `other`'s events in and restores canonical order.
    pub fn merge(&mut self, other: Trace) {
        self.events.extend(other.events);
        self.sort();
    }

    /// One JSON object per line; byte-identical for byte-identical traces.
    pub fn jsonl(&self) -> String {
        export::jsonl(&self.events)
    }

    /// Chrome `trace_event` JSON (opens in `about://tracing` / Perfetto).
    pub fn chrome_json(&self) -> String {
        export::chrome_json(&self.events)
    }

    /// Derives the metrics registry (counters + histograms) from the
    /// recorded events.
    pub fn metrics(&self) -> MetricsRegistry {
        MetricsRegistry::from_events(&self.events)
    }

    /// Per-phase rollup reproducing the report's critical-rank +
    /// discard-and-average reduction. `None` if no complete iteration
    /// survives the discard.
    pub fn phase_rollup(&self, discard: usize) -> Option<PhaseRollup> {
        rollup(&self.events, discard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    #[test]
    fn record_and_finish_orders_by_virtual_time_then_rank() {
        let mut t1 = RankTracer::new(1, TraceDetail::Collectives);
        let mut t0 = RankTracer::new(0, TraceDetail::Collectives);
        // Rank 1 records first in wall time, but its events sort by `at`.
        t1.record(
            2.0,
            0.5,
            EventKind::Phase {
                phase: Phase::Solve,
                step: 0,
            },
        );
        t0.record(
            1.0,
            0.5,
            EventKind::Phase {
                phase: Phase::Assembly,
                step: 0,
            },
        );
        t1.record(1.0, 0.0, EventKind::Solver { step: 0, iters: 3 });
        let trace = Trace::from_ranks(vec![t1.into_events(), t0.into_events()]);
        let order: Vec<(f64, u32, u64)> =
            trace.events.iter().map(|e| (e.at, e.rank, e.seq)).collect();
        assert_eq!(order, vec![(1.0, 0, 0), (1.0, 1, 1), (2.0, 1, 0)]);
    }

    #[test]
    fn shift_and_campaign_push_keep_order_after_sort() {
        let mut t = RankTracer::new(0, TraceDetail::Collectives);
        t.record(
            1.0,
            1.0,
            EventKind::Collective {
                op: "barrier",
                bytes: 64.0,
            },
        );
        let mut trace = Trace::from_ranks(vec![t.into_events()]);
        trace.shift(10.0);
        trace.push_campaign(5.0, EventKind::AttemptStart { attempt: 1 });
        trace.push_campaign(5.0, EventKind::Revocation { node: 0 });
        trace.sort();
        assert_eq!(trace.events[0].at, 5.0);
        assert!(matches!(
            trace.events[0].kind,
            EventKind::AttemptStart { attempt: 1 }
        ));
        assert_eq!(trace.events[1].seq, 1);
        assert_eq!(trace.events[2].at, 11.0);
    }
}
