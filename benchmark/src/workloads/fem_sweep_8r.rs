//! `fem_sweep_8r`: the paper's own experiment at host scale — the same RD
//! and NS problems on all four platforms, 8 ranks, real numerics. `fem` and
//! `linalg` do almost all of the work. The first job per app builds the
//! prepared scenario and the other three hit it, so cold and warm set-up
//! are both inside the op.

use super::{serialize_outcomes, Workload};
use crate::layers::{comm_counts, Metrics};
use crate::spans::Spans;
use hetero_hpc::{execute, prep, App, Fidelity, RunOutcome, RunRequest, TraceSpec};
use hetero_platform::catalog;

pub struct FemSweep {
    /// `[RD on 4 platforms, NS on 4 platforms]`.
    requests: Vec<RunRequest>,
}

const RD_LINF_MAX: f64 = 1e-5;
const NS_LINF_MAX: f64 = 1e-3;

impl FemSweep {
    pub fn new(seed: u64) -> Self {
        let mut requests = Vec::with_capacity(8);
        for (app, axis) in [(App::paper_rd(4), 4), (App::paper_ns(5), 5)] {
            for platform in catalog::all_platforms() {
                requests.push(RunRequest {
                    seed,
                    discard: 1,
                    fidelity: Fidelity::Numerical,
                    sched_workers: 1,
                    threads_per_rank: 1,
                    ..RunRequest::new(platform, app.clone(), 8, axis)
                });
            }
        }
        FemSweep { requests }
    }

    /// The op, also returning the eight outcomes (the `core.sim.*` source).
    pub fn sweep(&self, spans: &mut Spans) -> Result<Vec<RunOutcome>, String> {
        spans.scope("core.prep.clear_cache", |_| prep::clear_cache());
        let mut outs: Vec<RunOutcome> = Vec::with_capacity(8);
        for (i, req) in self.requests.iter().enumerate() {
            let name = match (i / 4, i % 4) {
                (0, 0) => "core.execute_rd_cold",
                (0, _) => "core.execute_rd_warm",
                (_, 0) => "core.execute_ns_cold",
                _ => "core.execute_ns_warm",
            };
            let out = spans
                .scope(name, |_| execute(req))
                .map_err(|e| format!("{} on {}: {e:?}", req.app.name(), req.platform.key))?;
            let limit = if i < 4 { RD_LINF_MAX } else { NS_LINF_MAX };
            let v = out
                .verification
                .ok_or("numerical run without verification")?;
            if v.linf.is_nan() || v.linf >= limit {
                return Err(format!(
                    "{} on {}: linf {} >= {limit}",
                    out.app, out.platform, v.linf
                ));
            }
            // The platform changes virtual time only: numerics must agree
            // with the first platform of the same app.
            if let Some(first) = outs.get(i - i % 4) {
                if first.krylov_iters != out.krylov_iters || first.verification != out.verification
                {
                    return Err(format!(
                        "{} numerics differ between {} and {}",
                        out.app, first.platform, out.platform
                    ));
                }
            }
            outs.push(out);
        }
        Ok(outs)
    }
}

impl Workload for FemSweep {
    fn op(&mut self, spans: &mut Spans) -> Result<Option<String>, String> {
        serialize_outcomes(&self.sweep(spans)?).map(Some)
    }

    fn layer_metrics(
        &mut self,
        spans: &mut Spans,
        op_times: &[f64],
        out: &mut Metrics,
    ) -> Result<(), String> {
        // One op with message-level tracing gives the exact counts.
        prep::clear_cache();
        let mut traces = Vec::new();
        let (_, traced_s) = spans.timed("trace.messages_op", |_| {
            for req in &self.requests {
                let traced = RunRequest {
                    trace: Some(TraceSpec::messages()),
                    ..req.clone()
                };
                if let Ok(o) = execute(&traced) {
                    traces.extend(o.trace);
                }
            }
        });
        if traces.len() != self.requests.len() {
            return Err("a traced job failed or returned no trace".to_string());
        }
        comm_counts(&traces, traced_s, op_times, self.ranks(), out);
        Ok(())
    }
}
