//! `campaign_table3`: one whole paper artifact — the Table III sweep (rank
//! ladder 1..1000, 600-step campaigns, five cadences, two seeds per cell)
//! through the plan executor, cold then warm. The modeled engine, recovery,
//! fault replay, the spot market, canonical keys + SHA-256 and JSON
//! artifacts do all the work; `fem`, `linalg` and the SPMD engine none.

use super::Workload;
use crate::host;
use crate::layers::Metrics;
use crate::spans::Spans;
use hetero_hpc::prep;
use hetero_plan::{execute_plan, load_str, ExecOptions, PlanOutcome};
use std::path::{Path, PathBuf};

/// A benchmark-owned copy of `plans/table3.toml` with `seeds = 2`, embedded
/// so later edits to `plans/` cannot change the workload.
const PLAN: &str = include_str!("../../inputs/table3_bench.toml");
const SEED_LINE: &str = "seed = 2012";

pub struct Campaign {
    plan_text: String,
    cache_dir: PathBuf,
    /// `(instances, warm hits, cache files, cache bytes)` of the last op.
    last: (usize, usize, u64, u64),
}

impl Campaign {
    pub fn new(seed: u64, state_dir: &Path) -> Result<Self, String> {
        if !PLAN.contains(SEED_LINE) {
            return Err(format!(
                "inputs/table3_bench.toml lost its `{SEED_LINE}` line"
            ));
        }
        Ok(Campaign {
            plan_text: PLAN.replace(SEED_LINE, &format!("seed = {seed}")),
            cache_dir: state_dir.join("stage-cache"),
            last: (0, 0, 0, 0),
        })
    }
}

fn results_text(out: &PlanOutcome) -> Result<String, String> {
    let mut text = String::new();
    for r in &out.results {
        text.push_str(&r.key);
        text.push(' ');
        text.push_str(&serde_json::to_string(&r.artifact).map_err(|e| e.to_string())?);
        text.push('\n');
    }
    for (name, report) in &out.reports {
        text.push_str(name);
        text.push('\n');
        text.push_str(report);
    }
    Ok(text)
}

impl Workload for Campaign {
    fn op(&mut self, spans: &mut Spans) -> Result<Option<String>, String> {
        spans.scope("core.prep.clear_cache", |_| prep::clear_cache());
        match std::fs::remove_dir_all(&self.cache_dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.to_string()),
            _ => {}
        }
        let plan = spans
            .scope("plan.load_resolve", |_| load_str(&self.plan_text))
            .map_err(|e| e.to_string())?;
        let opts = ExecOptions {
            workers: 1,
            cache_dir: Some(self.cache_dir.clone()),
        };
        let cold = spans
            .scope("plan.execute_cold", |_| execute_plan(&plan, &opts))
            .map_err(|e| e.to_string())?;
        let warm = spans
            .scope("plan.execute_warm", |_| execute_plan(&plan, &opts))
            .map_err(|e| e.to_string())?;

        if let Some(r) = cold.results.iter().find(|r| r.cached) {
            return Err(format!("cold run served `{}` from the cache", r.id));
        }
        if let Some(r) = warm.results.iter().find(|r| !r.cached) {
            return Err(format!("warm run executed `{}`", r.id));
        }
        let cold_text = results_text(&cold)?;
        if cold_text != results_text(&warm)? {
            return Err("warm results differ from cold".to_string());
        }

        let (files, bytes) = host::dir_files_bytes(&self.cache_dir).map_err(|e| e.to_string())?;
        self.last = (plan.instances.len(), warm.results.len(), files, bytes);
        Ok(Some(cold_text))
    }

    fn layer_metrics(
        &mut self,
        _spans: &mut Spans,
        _op_times: &[f64],
        out: &mut Metrics,
    ) -> Result<(), String> {
        let (instances, warm_hits, files, bytes) = self.last;
        out.set("plan.instances", instances as f64);
        out.set("plan.warm_hits", warm_hits as f64);
        out.set("plan.cache_files", files as f64);
        out.set("plan.cache_bytes", bytes as f64);
        Ok(())
    }
}
