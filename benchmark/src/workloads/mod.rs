//! The four workloads. Each is a struct built from `--seed` (its inputs)
//! whose `op` is the unit the benchmark times. The end-to-end path stays on
//! the top-level entry points (`execute`, `prep::clear_cache`,
//! `plan::load_str`, `execute_plan`, `ServeHandle::*`), so a refactor below
//! them never forces a benchmark edit.

mod campaign_table3;
mod fem_sweep_8r;
mod sched_512r;
mod serve_mixed;

use crate::layers::Metrics;
use crate::spans::Spans;
use hetero_hpc::RunOutcome;
use std::path::Path;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "fem_sweep_8r",
    "sched_512r",
    "campaign_table3",
    "serve_mixed",
];

pub trait Workload {
    /// Runs one op and checks its outputs. `Ok(Some(text))` is the op's
    /// serialized results, which must be byte-identical on every op.
    fn op(&mut self, spans: &mut Spans) -> Result<Option<String>, String>;

    /// Ops a fresh process must run after op 0 before its ops cost the same
    /// every time; a run executes and checks them but does not time them.
    fn warmup_ops(&self) -> usize {
        0
    }

    /// Rank count of the communication probes: the workload's own.
    fn ranks(&self) -> usize {
        8
    }

    /// Exact counts and per-layer readings only this workload can give
    /// (traced run only; the ops themselves have already run). `op_times`
    /// are the wall seconds of the run's untraced timed ops.
    fn layer_metrics(
        &mut self,
        spans: &mut Spans,
        op_times: &[f64],
        out: &mut Metrics,
    ) -> Result<(), String>;
}

/// One JSON line per outcome: the text an SPMD workload's ops must repeat.
fn serialize_outcomes(outs: &[RunOutcome]) -> Result<String, String> {
    let mut text = String::new();
    for o in outs {
        text.push_str(&serde_json::to_string(o).map_err(|e| e.to_string())?);
        text.push('\n');
    }
    Ok(text)
}

/// Builds the inputs of `name` from `seed`; state goes under `state_dir`.
pub fn build(name: &str, seed: u64, state_dir: &Path) -> Result<Box<dyn Workload>, String> {
    match name {
        "fem_sweep_8r" => Ok(Box::new(fem_sweep_8r::FemSweep::new(seed))),
        "sched_512r" => Ok(Box::new(sched_512r::Sched::new(seed))),
        "campaign_table3" => Ok(Box::new(campaign_table3::Campaign::new(seed, state_dir)?)),
        "serve_mixed" => Ok(Box::new(serve_mixed::ServeMixed::new(seed, state_dir))),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

pub use fem_sweep_8r::FemSweep;
