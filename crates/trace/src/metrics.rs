//! Metrics registry: monotonic counters and fixed-bucket histograms.
//!
//! The registry is *derived* from a finished trace rather than updated on
//! the recording hot path, so metrics cost nothing while ranks run and are
//! trivially deterministic: `BTreeMap` keys give a stable iteration order
//! and every value is a fold over the already-ordered event list.

use crate::event::{EventKind, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Fixed bucket bounds (upper edges, seconds) for phase-duration
/// histograms: 100 µs to 100 s, decade-spaced.
pub const SECONDS_BUCKETS: &[f64] = &[1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];
/// Fixed bucket bounds (upper edges, bytes) for volume histograms:
/// 1 KiB to 1 GiB, ~decade-spaced.
pub const BYTES_BUCKETS: &[f64] = &[1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9];
/// Fixed bucket bounds for per-step Krylov iteration counts.
pub const ITERS_BUCKETS: &[f64] = &[5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0];

/// A fixed-bucket histogram (cumulative-style buckets plus an overflow
/// bucket, a count, and a sum — enough to recover means and tails).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// An empty histogram over `bounds` (upper bucket edges, ascending;
    /// one extra overflow bucket is appended).
    pub fn new(bounds: &'static [f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, x: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| x <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += x;
    }

    /// Upper bucket edges.
    pub fn bounds(&self) -> &[f64] {
        self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Monotonic counters and fixed-bucket histograms keyed by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` (must be >= 0: counters are monotonic) to counter `name`.
    /// Allocates the name only when the counter is new.
    pub fn add(&mut self, name: &str, v: f64) {
        debug_assert!(v >= 0.0, "counters are monotonic; got {v} for {name}");
        match self.counters.get_mut(name) {
            Some(c) => *c += v,
            None => *self.counters.entry(name.to_string()).or_insert(0.0) += v,
        }
    }

    /// Records `x` into histogram `name`, creating it over `bounds` on
    /// first use (the only call that allocates the name).
    pub fn observe(&mut self, name: &str, bounds: &'static [f64], x: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(x),
            None => self
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Histogram::new(bounds))
                .observe(x),
        }
    }

    /// Counter value (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, f64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Derives the registry from an ordered event list.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut m = MetricsRegistry::new();
        for e in events {
            match e.kind {
                EventKind::Phase { phase, .. } => {
                    m.add(&format!("phase.{}.seconds_total", phase.name()), e.dur);
                    m.observe(
                        &format!("phase.{}.seconds", phase.name()),
                        SECONDS_BUCKETS,
                        e.dur,
                    );
                }
                EventKind::Collective { op, bytes } => {
                    m.add(&format!("comm.{op}.calls"), 1.0);
                    m.add(&format!("comm.{op}.bytes"), bytes);
                    m.add(&format!("comm.{op}.seconds_total"), e.dur);
                    m.observe(&format!("comm.{op}.bytes_per_call"), BYTES_BUCKETS, bytes);
                }
                EventKind::SendMsg { bytes, .. } => {
                    m.add("comm.p2p.msgs", 1.0);
                    m.add("comm.p2p.bytes", bytes);
                }
                EventKind::RecvMsg { .. } => {
                    m.add("comm.p2p.recv_wait_seconds", e.dur);
                }
                EventKind::Overlap {
                    msgs,
                    hidden,
                    exposed,
                } => {
                    m.add("comm.overlap.waits", 1.0);
                    m.add("comm.overlap.msgs", f64::from(msgs));
                    m.add("comm.overlap.hidden_seconds", hidden);
                    m.add("comm.overlap.exposed_seconds", exposed);
                }
                EventKind::Solver { iters, .. } => {
                    m.add("solver.krylov_iters", f64::from(iters));
                    m.observe("solver.iters_per_step", ITERS_BUCKETS, f64::from(iters));
                }
                EventKind::Checkpoint { bytes, .. } => {
                    m.add("checkpoint.commits", 1.0);
                    m.add("checkpoint.bytes", bytes);
                    m.observe("checkpoint.bytes_per_commit", BYTES_BUCKETS, bytes);
                }
                EventKind::Revocation { .. } => {
                    m.add("fault.revocations", 1.0);
                }
                EventKind::Rollback { lost_seconds, .. } => {
                    m.add("fault.rollbacks", 1.0);
                    m.add("fault.lost_work_seconds", lost_seconds);
                    m.observe(
                        "fault.lost_work_per_rollback",
                        SECONDS_BUCKETS,
                        lost_seconds,
                    );
                }
                EventKind::AttemptStart { .. } => {
                    m.add("campaign.attempts", 1.0);
                }
                EventKind::Expense { account, dollars } => {
                    m.add(&format!("expense.{account}.dollars"), dollars);
                    m.add("expense.total_dollars", dollars);
                }
                EventKind::TimeAccount { account, seconds } => {
                    m.add(&format!("time.{account}.seconds"), seconds);
                }
            }
        }
        m
    }

    /// Stable plain-text rendering (counters then histograms, name order).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} = {v}");
        }
        for (name, h) in &self.histograms {
            let _ = write!(out, "histogram {name}: count={} sum={}", h.count, h.sum);
            let _ = write!(out, " buckets=[");
            for (i, c) in h.counts.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    #[test]
    fn repeated_adds_sum_and_counters_stay_in_name_order() {
        let mut m = MetricsRegistry::new();
        for _ in 0..3 {
            m.add("serve.jobs.submitted", 1.0);
            m.add("serve.cache.hits", 0.5);
            m.add("a.first", 2.0);
        }
        m.observe("lat", SECONDS_BUCKETS, 1.0);
        m.observe("lat", SECONDS_BUCKETS, 2.0);
        let counters: Vec<(&str, f64)> = m.counters().collect();
        assert_eq!(
            counters,
            [
                ("a.first", 6.0),
                ("serve.cache.hits", 1.5),
                ("serve.jobs.submitted", 3.0)
            ]
        );
        assert_eq!(m.histogram("lat").unwrap().count(), 2);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        for x in [0.5, 1.0, 5.0, 100.0] {
            h.observe(x);
        }
        assert_eq!(h.bucket_counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 106.5).abs() < 1e-12);
    }

    #[test]
    fn registry_derives_from_events() {
        let events = vec![
            TraceEvent {
                at: 0.0,
                dur: 0.25,
                rank: 0,
                seq: 0,
                kind: EventKind::Phase {
                    phase: Phase::Solve,
                    step: 0,
                },
            },
            TraceEvent {
                at: 0.25,
                dur: 0.0,
                rank: 0,
                seq: 1,
                kind: EventKind::Solver { step: 0, iters: 17 },
            },
            TraceEvent {
                at: 0.25,
                dur: 0.01,
                rank: 0,
                seq: 2,
                kind: EventKind::Collective {
                    op: "reduce",
                    bytes: 72.0,
                },
            },
        ];
        let m = MetricsRegistry::from_events(&events);
        assert_eq!(m.counter("solver.krylov_iters"), 17.0);
        assert_eq!(m.counter("comm.reduce.calls"), 1.0);
        assert_eq!(m.counter("comm.reduce.bytes"), 72.0);
        assert_eq!(m.counter("phase.solve.seconds_total"), 0.25);
        let h = m.histogram("solver.iters_per_step").unwrap();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn render_text_is_stable_name_order() {
        let mut m = MetricsRegistry::new();
        m.add("zeta", 1.0);
        m.add("alpha", 2.0);
        let text = m.render_text();
        let a = text.find("alpha").unwrap();
        let z = text.find("zeta").unwrap();
        assert!(a < z);
    }
}
