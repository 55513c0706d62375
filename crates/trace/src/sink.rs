//! The merged [`Trace`] built from every rank's event list, and what a
//! request asks to trace ([`TraceSpec`]).
//!
//! Nothing here records while a job runs: a rank records its work tape,
//! and the per-rank lists are what evaluating the tapes implies (see
//! `hetero_simmpi::tape`). A rank's sequence numbers are its list's
//! positions, which makes the merge order total.

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

/// A merged, deterministically ordered trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Events sorted by `(virtual time, rank, per-rank seq)`.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Merges per-rank event lists (each in program order, numbered by
    /// position) into one trace in canonical order.
    pub fn from_ranks(ranks: Vec<Vec<TraceEvent>>) -> Self {
        let mut trace = Trace {
            events: ranks.concat(),
        };
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
    /// discard-and-average reduction, under the report's discard rule.
    /// `None` if the trace holds no phase span.
    pub fn phase_rollup(&self, discard: usize) -> Option<PhaseRollup> {
        rollup(&self.events, discard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    /// `rank`'s list of `(at, dur, kind)` events, numbered in order.
    fn events(rank: u32, list: &[(f64, f64, EventKind)]) -> Vec<TraceEvent> {
        list.iter()
            .enumerate()
            .map(|(seq, &(at, dur, kind))| TraceEvent {
                at,
                dur,
                rank,
                seq: seq as u64,
                kind,
            })
            .collect()
    }

    #[test]
    fn merge_orders_by_virtual_time_then_rank() {
        let phase = |phase| EventKind::Phase { phase, step: 0 };
        // Rank 1's list comes first, but its events sort by `at`.
        let t1 = events(
            1,
            &[
                (2.0, 0.5, phase(Phase::Solve)),
                (1.0, 0.0, EventKind::Solver { step: 0, iters: 3 }),
            ],
        );
        let t0 = events(0, &[(1.0, 0.5, phase(Phase::Assembly))]);
        let trace = Trace::from_ranks(vec![t1, t0]);
        let order: Vec<(f64, u32, u64)> =
            trace.events.iter().map(|e| (e.at, e.rank, e.seq)).collect();
        assert_eq!(order, vec![(1.0, 0, 0), (1.0, 1, 1), (2.0, 1, 0)]);
    }

    #[test]
    fn shift_and_campaign_push_keep_order_after_sort() {
        let barrier = EventKind::Collective {
            op: "barrier",
            bytes: 64.0,
        };
        let mut trace = Trace::from_ranks(vec![events(0, &[(1.0, 1.0, barrier)])]);
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
