//! `sched_512r`: 512 ranks of a trivial Q1 problem on one scheduler worker.
//! Per-rank compute is negligible, so the M:N scheduler, mailboxes and
//! collectives do most of the work, and coroutine stacks make it the one
//! workload with a large resident set — the same layers `fem_sweep_8r`
//! uses, used the opposite way.

use super::{serialize_outcomes, Workload};
use crate::layers::{comm_counts, Metrics};
use crate::spans::Spans;
use hetero_hpc::{execute, prep, App, Fidelity, RunRequest, TraceSpec};
use hetero_platform::catalog;
use hetero_simmpi::EngineKind;

pub struct Sched {
    request: RunRequest,
}

const RANKS: usize = 512;
const LINF_MAX: f64 = 1e-5;

impl Sched {
    pub fn new(seed: u64) -> Self {
        Sched {
            request: RunRequest {
                seed,
                fidelity: Fidelity::Numerical,
                engine: EngineKind::Cooperative,
                sched_workers: 1,
                threads_per_rank: 1,
                ..RunRequest::new(catalog::ec2(), App::smoke_rd(6), RANKS, 2)
            },
        }
    }
}

impl Workload for Sched {
    fn op(&mut self, spans: &mut Spans) -> Result<Option<String>, String> {
        spans.scope("core.prep.clear_cache", |_| prep::clear_cache());
        let out = spans
            .scope("core.execute_rd_cold", |_| execute(&self.request))
            .map_err(|e| format!("{e:?}"))?;
        let v = out
            .verification
            .ok_or("numerical run without verification")?;
        if v.linf.is_nan() || v.linf >= LINF_MAX {
            return Err(format!("linf {} >= {LINF_MAX}", v.linf));
        }
        serialize_outcomes(&[out]).map(Some)
    }

    /// The allocator hands every op's 512 one-MiB stacks out at other
    /// offsets of the heap it retains, so the resident set grows by about
    /// 100 MB per op (each costing 0.3–0.5 s of page faults) until the whole
    /// heap is resident: 705 MB, reached by op 6 on every run measured.
    fn warmup_ops(&self) -> usize {
        6
    }

    fn ranks(&self) -> usize {
        RANKS
    }

    fn layer_metrics(
        &mut self,
        spans: &mut Spans,
        op_times: &[f64],
        out: &mut Metrics,
    ) -> Result<(), String> {
        prep::clear_cache();
        let traced = RunRequest {
            trace: Some(TraceSpec::messages()),
            ..self.request.clone()
        };
        let (res, traced_s) = spans.timed("trace.messages_op", |_| execute(&traced));
        let trace = res
            .map_err(|e| format!("{e:?}"))?
            .trace
            .ok_or("traced job returned no trace")?;
        comm_counts(&[trace], traced_s, op_times, RANKS, out);
        Ok(())
    }
}
