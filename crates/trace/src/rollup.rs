//! Per-phase rollup: reduces phase spans back to the paper's numbers.
//!
//! The reduction mirrors the report pipeline *operation for operation* so
//! the rollup of a run's trace equals the run's reported [`assembly`,
//! `precond`, `solve`, `total`] bitwise: per-step phase durations are
//! accumulated per rank in that rank's chronological segment order (the
//! same order `fem::phase::PhaseRecorder` adds them), reduced across ranks
//! with `f64::max` (the critical rank), then the first `discard` steps are
//! dropped and the rest averaged by summing in step order and multiplying
//! by `1/n` — exactly `fem::phase::summarize`.
//!
//! [`assembly`]: PhaseRollup::assembly
//! [`precond`]: PhaseRollup::precond
//! [`solve`]: PhaseRollup::solve
//! [`total`]: PhaseRollup::total

use crate::event::{EventKind, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Mean per-iteration critical-rank phase times recovered from a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRollup {
    /// Iterations that survived the discard and were averaged.
    pub steps: usize,
    /// Warm-up iterations dropped before averaging: the requested discard,
    /// clamped so that one iteration remains.
    pub discard: usize,
    /// Mean assembly seconds per iteration (critical rank).
    pub assembly: f64,
    /// Mean preconditioner seconds per iteration.
    pub precond: f64,
    /// Mean Krylov-solve seconds per iteration.
    pub solve: f64,
    /// Mean seconds per iteration spent outside the three named phases.
    pub other: f64,
    /// Mean whole-iteration seconds (the paper's "total maximal iteration
    /// time").
    pub total: f64,
}

/// Engineering-notation seconds for the rollup table.
fn fmt_seconds(s: f64) -> String {
    let a = s.abs();
    if a == 0.0 {
        "0 s".to_string()
    } else if a < 1e-3 {
        format!("{:.3} µs", s * 1e6)
    } else if a < 1.0 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

impl PhaseRollup {
    /// Renders the per-phase table (Fig. 4's assembly/precond/solve split
    /// plus the remainder), with each phase's share of the iteration.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "per-iteration phase rollup ({} iterations, first {} discarded)",
            self.steps, self.discard
        );
        let _ = writeln!(out, "  {:<10} {:>14} {:>8}", "phase", "mean/iter", "share");
        let share = |x: f64| {
            if self.total > 0.0 {
                format!("{:.1}%", 100.0 * x / self.total)
            } else {
                "-".to_string()
            }
        };
        for (name, val) in [
            ("assembly", self.assembly),
            ("precond", self.precond),
            ("solve", self.solve),
            ("other", self.other),
        ] {
            let _ = writeln!(
                out,
                "  {:<10} {:>14} {:>8}",
                name,
                fmt_seconds(val),
                share(val)
            );
        }
        let _ = writeln!(
            out,
            "  {:<10} {:>14} {:>8}",
            "total",
            fmt_seconds(self.total),
            "100.0%"
        );
        out
    }
}

/// Reduces the phase spans of `events` to mean per-iteration critical-rank
/// times, discarding the first `discard` iterations — clamped, as the
/// report clamps it, so that one always remains. Returns `None` when
/// `events` hold no phase span.
pub fn rollup(events: &[TraceEvent], discard: usize) -> Option<PhaseRollup> {
    // (step, rank) -> per-phase accumulated seconds, in the rank's own
    // chronological segment order (events are sorted by (at, rank, seq), so
    // the subsequence of one rank is chronological).
    let mut acc: BTreeMap<(u32, u32), [f64; 5]> = BTreeMap::new();
    for e in events {
        if let EventKind::Phase { phase, step } = e.kind {
            acc.entry((step, e.rank)).or_insert([0.0; 5])[phase.index()] += e.dur;
        }
    }
    if acc.is_empty() {
        return None;
    }
    // Critical-rank reduction: element-wise max over ranks, per step.
    // BTreeMap iteration yields (step, rank) ascending, so steps come out
    // grouped and in order.
    let mut per_step: Vec<[f64; 5]> = Vec::new();
    let mut cur_step: Option<u32> = None;
    let mut cur = [0.0f64; 5];
    for ((step, _rank), v) in &acc {
        if cur_step != Some(*step) {
            if cur_step.is_some() {
                per_step.push(cur);
            }
            cur_step = Some(*step);
            cur = [0.0; 5];
        }
        for (c, x) in cur.iter_mut().zip(v) {
            *c = c.max(*x);
        }
    }
    per_step.push(cur);

    // The report's discard rule (at least one step is kept) and the
    // paper's average, with `summarize`'s exact operation order: sum in
    // step order, multiply by the reciprocal.
    let discard = discard.min(per_step.len() - 1);
    let kept = &per_step[discard..];
    let mut sum = [0.0f64; 5];
    for step in kept {
        for (s, x) in sum.iter_mut().zip(step) {
            *s += x;
        }
    }
    let scale = 1.0 / kept.len() as f64;
    Some(PhaseRollup {
        steps: kept.len(),
        discard,
        assembly: sum[0] * scale,
        precond: sum[1] * scale,
        solve: sum[2] * scale,
        other: sum[3] * scale,
        total: sum[4] * scale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    fn span(at: f64, dur: f64, rank: u32, seq: u64, phase: Phase, step: u32) -> TraceEvent {
        TraceEvent {
            at,
            dur,
            rank,
            seq,
            kind: EventKind::Phase { phase, step },
        }
    }

    #[test]
    fn rollup_takes_critical_rank_then_averages() {
        // Two ranks, two steps; rank 1 is slower in assembly, rank 0 in
        // solve. The rollup must take the max per phase per step.
        let events = vec![
            span(0.0, 1.0, 0, 0, Phase::Assembly, 1),
            span(0.0, 2.0, 1, 0, Phase::Assembly, 1),
            span(2.0, 3.0, 0, 1, Phase::Solve, 1),
            span(2.0, 1.0, 1, 1, Phase::Solve, 1),
            span(0.0, 5.0, 0, 2, Phase::Iteration, 1),
            span(0.0, 5.0, 1, 2, Phase::Iteration, 1),
            span(5.0, 4.0, 0, 3, Phase::Assembly, 2),
            span(5.0, 2.0, 1, 3, Phase::Assembly, 2),
            span(9.0, 1.0, 0, 4, Phase::Solve, 2),
            span(9.0, 1.0, 1, 4, Phase::Solve, 2),
            span(5.0, 7.0, 0, 5, Phase::Iteration, 2),
            span(5.0, 6.0, 1, 5, Phase::Iteration, 2),
        ];
        let r = rollup(&events, 0).unwrap();
        assert_eq!(r.steps, 2);
        assert_eq!(r.assembly, (2.0 + 4.0) / 2.0);
        assert_eq!(r.solve, (3.0 + 1.0) / 2.0);
        assert_eq!(r.total, (5.0 + 7.0) / 2.0);
    }

    #[test]
    fn rollup_discards_warmup_steps() {
        let events = vec![
            span(0.0, 100.0, 0, 0, Phase::Solve, 1),
            span(0.0, 100.0, 0, 1, Phase::Iteration, 1),
            span(100.0, 1.0, 0, 2, Phase::Solve, 2),
            span(100.0, 1.0, 0, 3, Phase::Iteration, 2),
        ];
        let r = rollup(&events, 1).unwrap();
        assert_eq!(r.steps, 1);
        assert_eq!(r.solve, 1.0);
        // Discarding every step keeps the last, as the report does.
        let last = rollup(&events, 5).unwrap();
        assert_eq!((last.steps, last.discard, last.solve), (1, 1, 1.0));
        assert!(rollup(&[], 0).is_none());
    }

    #[test]
    fn repeated_segments_accumulate_like_the_recorder() {
        // NS interleaves assembly/solve segments within one step.
        let events = vec![
            span(0.0, 1.0, 0, 0, Phase::Assembly, 1),
            span(1.0, 2.0, 0, 1, Phase::Solve, 1),
            span(3.0, 0.5, 0, 2, Phase::Assembly, 1),
            span(3.5, 1.5, 0, 3, Phase::Solve, 1),
            span(0.0, 5.0, 0, 4, Phase::Iteration, 1),
        ];
        let r = rollup(&events, 0).unwrap();
        assert_eq!(r.assembly, 1.5);
        assert_eq!(r.solve, 3.5);
        assert_eq!(r.total, 5.0);
    }

    #[test]
    fn render_mentions_every_phase() {
        let events = vec![
            span(0.0, 1.0, 0, 0, Phase::Assembly, 1),
            span(1.0, 3.0, 0, 1, Phase::Solve, 1),
            span(0.0, 4.0, 0, 2, Phase::Iteration, 1),
        ];
        let text = rollup(&events, 0).unwrap().render();
        for phase in ["assembly", "precond", "solve", "other", "total"] {
            assert!(text.contains(phase), "missing {phase} in:\n{text}");
        }
    }
}
