//! Per-iteration phase timing — the quantity every figure of the paper
//! plots.
//!
//! The paper records, for each time-step iteration, "the average times of
//! assembly, preconditioning, and solver phases with the total maximal
//! iteration time", discarding the first 5 iterations to exclude MPI
//! startup artifacts. [`PhaseTimes`] holds one iteration's simulated
//! durations; [`summarize`] applies the same discard-and-average reduction.

use serde::{Deserialize, Serialize};

/// Simulated durations (seconds) of one iteration's phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Matrix/vector assembly — the paper's step (ii).
    pub assembly: f64,
    /// Preconditioner computation — step (iiia).
    pub precond: f64,
    /// Krylov solution — step (iiib).
    pub solve: f64,
    /// Whole iteration (>= sum of the above; includes BC application etc.).
    pub total: f64,
}

impl PhaseTimes {
    /// Element-wise maximum (used to reduce per-rank times to the critical
    /// rank, the paper's "total maximal iteration time").
    pub fn max(self, other: PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            assembly: self.assembly.max(other.assembly),
            precond: self.precond.max(other.precond),
            solve: self.solve.max(other.solve),
            total: self.total.max(other.total),
        }
    }

    /// Element-wise sum.
    #[allow(clippy::should_implement_trait)] // deliberate value-returning helper
    pub fn add(self, other: PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            assembly: self.assembly + other.assembly,
            precond: self.precond + other.precond,
            solve: self.solve + other.solve,
            total: self.total + other.total,
        }
    }

    /// Element-wise division by a scalar.
    pub fn scale(self, s: f64) -> PhaseTimes {
        PhaseTimes {
            assembly: self.assembly * s,
            precond: self.precond * s,
            solve: self.solve * s,
            total: self.total * s,
        }
    }
}

/// Records one iteration's phase boundaries from a rank's virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct PhaseRecorder {
    start: f64,
    last: f64,
    times: PhaseTimes,
}

impl PhaseRecorder {
    /// Starts recording at virtual time `clock`.
    pub fn start(clock: f64) -> Self {
        PhaseRecorder {
            start: clock,
            last: clock,
            times: PhaseTimes::default(),
        }
    }

    /// Marks the end of the assembly phase.
    pub fn end_assembly(&mut self, clock: f64) {
        self.times.assembly += clock - self.last;
        self.last = clock;
    }

    /// Marks the end of the preconditioner phase.
    pub fn end_precond(&mut self, clock: f64) {
        self.times.precond += clock - self.last;
        self.last = clock;
    }

    /// Marks the end of the solve phase.
    pub fn end_solve(&mut self, clock: f64) {
        self.times.solve += clock - self.last;
        self.last = clock;
    }

    /// Finishes the iteration and returns its phase times.
    pub fn finish(mut self, clock: f64) -> PhaseTimes {
        self.times.total = clock - self.start;
        self.times
    }

    /// Rebuilds a run's per-iteration phase times from the clock readings
    /// its steppers took through `SimComm::phase_mark`, five per step in
    /// the order every stepper takes them: [`Self::start`],
    /// [`Self::end_assembly`], [`Self::end_precond`], [`Self::end_solve`],
    /// [`Self::finish`]. The same methods on the same clocks give the
    /// same times, bitwise — and a trace's phase spans run between the same
    /// readings.
    ///
    /// # Panics
    /// Panics if `marks` is not a whole number of steps.
    pub fn replay(marks: &[f64]) -> Vec<PhaseTimes> {
        assert_eq!(marks.len() % 5, 0, "five phase marks per step");
        marks
            .chunks_exact(5)
            .map(|m| {
                let mut rec = PhaseRecorder::start(m[0]);
                rec.end_assembly(m[1]);
                rec.end_precond(m[2]);
                rec.end_solve(m[3]);
                rec.finish(m[4])
            })
            .collect()
    }
}

/// The paper's reduction: drop the first `discard` iterations, average the
/// rest. Returns `None` if nothing remains.
pub fn summarize(iterations: &[PhaseTimes], discard: usize) -> Option<PhaseTimes> {
    let kept = iterations.get(discard.min(iterations.len())..)?;
    if kept.is_empty() {
        return None;
    }
    let sum = kept
        .iter()
        .fold(PhaseTimes::default(), |acc, &t| acc.add(t));
    Some(sum.scale(1.0 / kept.len() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(a: f64, p: f64, s: f64, t: f64) -> PhaseTimes {
        PhaseTimes {
            assembly: a,
            precond: p,
            solve: s,
            total: t,
        }
    }

    #[test]
    fn recorder_splits_a_timeline() {
        let mut rec = PhaseRecorder::start(10.0);
        rec.end_assembly(12.5);
        rec.end_precond(13.0);
        rec.end_solve(17.0);
        let t = rec.finish(17.25);
        assert_eq!(t.assembly, 2.5);
        assert_eq!(t.precond, 0.5);
        assert_eq!(t.solve, 4.0);
        assert_eq!(t.total, 7.25);
        assert!(t.total >= t.assembly + t.precond + t.solve - 1e-12);
    }

    #[test]
    fn recorder_accumulates_repeated_phases() {
        // NS solves several systems per iteration; phases interleave.
        let mut rec = PhaseRecorder::start(0.0);
        rec.end_assembly(1.0);
        rec.end_solve(3.0);
        rec.end_assembly(4.0); // second assembly segment
        rec.end_solve(9.0);
        let t = rec.finish(9.0);
        assert_eq!(t.assembly, 2.0);
        assert_eq!(t.solve, 7.0);
    }

    #[test]
    fn max_is_elementwise() {
        let a = pt(1.0, 5.0, 2.0, 8.0);
        let b = pt(2.0, 1.0, 3.0, 6.0);
        assert_eq!(a.max(b), pt(2.0, 5.0, 3.0, 8.0));
    }

    #[test]
    fn summarize_discards_warmup() {
        let warm = pt(100.0, 100.0, 100.0, 300.0);
        let steady = pt(1.0, 2.0, 3.0, 6.0);
        let iters = vec![warm, warm, steady, steady, steady, steady];
        let avg = summarize(&iters, 2).unwrap();
        assert_eq!(avg, steady);
    }

    #[test]
    fn summarize_empty_after_discard() {
        let iters = vec![pt(1.0, 1.0, 1.0, 3.0)];
        assert!(summarize(&iters, 5).is_none());
        assert!(summarize(&[], 0).is_none());
    }

    #[test]
    fn summarize_averages() {
        let iters = vec![pt(1.0, 0.0, 0.0, 1.0), pt(3.0, 0.0, 0.0, 3.0)];
        let avg = summarize(&iters, 0).unwrap();
        assert_eq!(avg.assembly, 2.0);
        assert_eq!(avg.total, 2.0);
    }
}
