//! `serve_mixed`: one closed-loop client against a one-worker service, for
//! one whole service lifetime per op: open the state directory the previous
//! lifetime left, re-read the 256-key hot set, serve 16 384 requests, shut
//! down. All bursts but one per round are verified cache hits on the hot
//! set; the last of each round is a sweep of one shape with fresh seeds
//! plus two duplicates, so the journal, batch claims and single-flight
//! coalescing run. Requests are small modeled jobs, which keeps the result
//! cache (verify-on-read), `core::canon` and JSON dominant — a second,
//! differently shaped path through `core::execute` and a content-addressed
//! store than `campaign_table3`.
//!
//! Two measured facts shaped it. The service keeps every finished job in
//! memory, so it gets slower and larger with every job served: an op is a
//! whole lifetime so that every op does the same work and the growth stays
//! inside the measurement. And creating a file on the checkout's disk costs
//! anything from 26 to 500 us depending on what the disk did in the last
//! hour, so fresh (executed, stored) jobs are kept to under 1 % of the
//! requests: at the 11 % the issue proposed they were half of the op time
//! and all of its noise.

use super::Workload;
use crate::host;
use crate::layers::Metrics;
use crate::rng::Rng;
use crate::spans::Spans;
use hetero_hpc::{App, Fidelity, RunRequest};
use hetero_platform::catalog;
use hetero_serve::{JobOutcome, ServeConfig, ServeHandle};
use std::path::{Path, PathBuf};
use std::time::Instant;

const HOT_KEYS: usize = 256;
/// A lifetime serves `ROUNDS_PER_OP` rounds of `BURSTS_PER_ROUND` bursts of
/// `BURST` requests: 16 384 requests.
const ROUNDS_PER_OP: usize = 8;
const BURSTS_PER_ROUND: usize = 128;
const BURST: usize = 16;
/// Every `SWEEP_EVERY`-th burst (the last of each round) is a sweep of
/// fresh keys.
const SWEEP_EVERY: usize = BURSTS_PER_ROUND;
/// A sweep burst is `BURST - SWEEP_DUPLICATES` fresh seeds, then repeats of
/// its first requests.
const SWEEP_DUPLICATES: usize = 2;
const REQUESTS_PER_OP: usize = ROUNDS_PER_OP * BURSTS_PER_ROUND * BURST;

pub struct ServeMixed {
    dir: PathBuf,
    rng: Rng,
    /// The 32 request shapes: {RD, NS} x ranks k^3 (k = 1..4) x 4 platforms.
    /// Sweeps walk them in order, so every op sweeps each shape equally.
    shapes: Vec<RunRequest>,
    sweeps: usize,
    hot: Vec<RunRequest>,
    /// `serde_json::to_string` of the first outcome of each hot key.
    hot_json: Vec<String>,
    /// Readings of the latest lifetime, for the traced run.
    last: Lifetime,
    /// `(first round, last round)` wall seconds of every lifetime.
    round_times: Vec<(f64, f64)>,
    /// Latency samples, recorded only while spans are.
    hot_submit_us: Vec<f64>,
    cold_burst_us_per_job: Vec<f64>,
}

#[derive(Default)]
struct Lifetime {
    open_preload_s: f64,
    rss_kb_per_1k_jobs: f64,
    journal_bytes_per_cold_job: f64,
    cache_bytes_per_artifact: f64,
    /// Values of [`COUNTERS`].
    counters: [f64; 5],
}

/// `(per-layer metric, service counter)` pairs read after every lifetime.
const COUNTERS: [(&str, &str); 5] = [
    ("serve.cache_hits", "serve.cache.hits"),
    ("serve.cache_misses", "serve.cache.misses"),
    ("serve.dedup_coalesced", "serve.dedup.coalesced"),
    ("serve.batch_executions", "serve.batch.executions"),
    ("serve.batch_jobs", "serve.batch.jobs"),
];
/// Index of `serve.batch.jobs` (jobs executed) in [`COUNTERS`].
const EXECUTED_JOBS: usize = 4;

fn config(dir: &Path) -> ServeConfig {
    ServeConfig::new(dir).with_workers(1)
}

fn outcome_json(outcome: &JobOutcome) -> Result<String, String> {
    if !matches!(outcome, JobOutcome::Completed(_)) {
        return Err("a request was rejected by its platform".to_string());
    }
    serde_json::to_string(outcome).map_err(|e| e.to_string())
}

impl ServeMixed {
    pub fn new(seed: u64, state_dir: &Path) -> Self {
        let mut shapes = Vec::with_capacity(32);
        for app in [App::paper_rd(4), App::paper_ns(4)] {
            for k in 1..=4usize {
                for platform in catalog::all_platforms() {
                    shapes.push(RunRequest {
                        discard: 1,
                        fidelity: Fidelity::Modeled,
                        ..RunRequest::new(platform, app.clone(), k * k * k, 20)
                    });
                }
            }
        }
        let mut rng = Rng::new(seed, 1);
        let hot = (0..HOT_KEYS)
            .map(|i| RunRequest {
                seed: rng.next_u64(),
                ..shapes[i % shapes.len()].clone()
            })
            .collect();
        ServeMixed {
            dir: state_dir.join("serve"),
            rng,
            shapes,
            sweeps: 0,
            hot,
            hot_json: Vec::new(),
            last: Lifetime::default(),
            round_times: Vec::new(),
            hot_submit_us: Vec::new(),
            cold_burst_us_per_job: Vec::new(),
        }
    }

    /// Opens the service on the directory the previous lifetime left and
    /// asks for the whole hot set: executed by the first lifetime, served
    /// from disk — with the same bytes — by every later one.
    fn open_preload(&mut self) -> Result<ServeHandle, String> {
        let handle = ServeHandle::open(config(&self.dir)).map_err(|e| e.to_string())?;
        let mut texts = Vec::with_capacity(HOT_KEYS);
        for req in &self.hot {
            let outcome = handle.submit_wait(req).map_err(|e| e.to_string())?;
            texts.push(outcome_json(&outcome)?);
        }
        if self.hot_json.is_empty() {
            self.hot_json = texts;
        } else if self.hot_json != texts {
            return Err("a restarted service served different hot outcomes".to_string());
        }
        Ok(handle)
    }

    fn hot_burst(&mut self, handle: &ServeHandle, sample: bool) -> Result<(), String> {
        let mut jobs = [(0u64, 0usize); BURST];
        for slot in &mut jobs {
            let i = self.rng.below(HOT_KEYS);
            let t = Instant::now();
            let id = handle.submit(&self.hot[i]).map_err(|e| e.to_string())?;
            if sample {
                self.hot_submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            *slot = (id, i);
        }
        for (id, i) in jobs {
            let outcome = handle.wait(id).map_err(|e| e.to_string())?;
            if outcome_json(&outcome)? != self.hot_json[i] {
                return Err(format!("hit on hot key {i} is not byte-identical"));
            }
        }
        Ok(())
    }

    fn sweep_burst(&mut self, handle: &ServeHandle, sample: bool) -> Result<(), String> {
        let shape = &self.shapes[self.sweeps % self.shapes.len()];
        self.sweeps += 1;
        let fresh = BURST - SWEEP_DUPLICATES;
        let mut requests: Vec<RunRequest> = (0..fresh)
            .map(|_| RunRequest {
                seed: self.rng.next_u64(),
                ..shape.clone()
            })
            .collect();
        requests.extend_from_within(..SWEEP_DUPLICATES);
        let t = Instant::now();
        let mut ids = Vec::with_capacity(BURST);
        for req in &requests {
            ids.push(handle.submit(req).map_err(|e| e.to_string())?);
        }
        let mut texts = Vec::with_capacity(BURST);
        for id in ids {
            let outcome = handle.wait(id).map_err(|e| e.to_string())?;
            texts.push(outcome_json(&outcome)?);
        }
        if sample {
            self.cold_burst_us_per_job
                .push(t.elapsed().as_secs_f64() * 1e6 / BURST as f64);
        }
        for d in 0..SWEEP_DUPLICATES {
            if texts[fresh + d] != texts[d] {
                return Err("a duplicate request got a different outcome".to_string());
            }
        }
        Ok(())
    }

    /// What the finished lifetime left on disk and in the counters.
    fn read_lifetime(&self, handle: &ServeHandle, life: &mut Lifetime) -> Result<(), String> {
        let m = handle.metrics();
        for (slot, (_, counter)) in life.counters.iter_mut().zip(COUNTERS) {
            *slot = m.counter(counter);
        }
        let journal_bytes = std::fs::metadata(self.dir.join("journal.log"))
            .map_err(|e| e.to_string())?
            .len();
        let (files, bytes) =
            host::dir_files_bytes(&self.dir.join("cache")).map_err(|e| e.to_string())?;
        // The journal is compacted at open, so it holds this lifetime's
        // records: a submit and an ack per executed job.
        life.journal_bytes_per_cold_job =
            journal_bytes as f64 / life.counters[EXECUTED_JOBS].max(1.0);
        life.cache_bytes_per_artifact = bytes as f64 / files.max(1) as f64;
        Ok(())
    }
}

impl Workload for ServeMixed {
    fn op(&mut self, spans: &mut Spans) -> Result<Option<String>, String> {
        let sample = spans.recording();
        let mut life = Lifetime::default();
        let (handle, open_preload_s) = spans.timed("serve.open_preload", |_| self.open_preload());
        let handle = handle?;
        life.open_preload_s = open_preload_s;
        let rss_after_preload_kb = host::rss_kb();

        let mut rounds = [0.0f64; ROUNDS_PER_OP];
        for round in &mut rounds {
            let t = Instant::now();
            for burst in 0..BURSTS_PER_ROUND {
                if burst % SWEEP_EVERY == SWEEP_EVERY - 1 {
                    spans.scope("serve.sweep_burst", |_| self.sweep_burst(&handle, sample))?;
                } else {
                    spans.scope("serve.hot_burst", |_| self.hot_burst(&handle, sample))?;
                }
            }
            *round = t.elapsed().as_secs_f64();
        }
        self.round_times
            .push((rounds[0], rounds[ROUNDS_PER_OP - 1]));
        // Later lifetimes reuse the memory the first one freed, so only the
        // first shows what a job leaves behind.
        life.rss_kb_per_1k_jobs = if self.round_times.len() == 1 {
            (host::rss_kb() - rss_after_preload_kb) / REQUESTS_PER_OP as f64 * 1e3
        } else {
            self.last.rss_kb_per_1k_jobs
        };
        self.read_lifetime(&handle, &mut life)?;
        spans.scope("serve.shutdown", |_| handle.shutdown());
        self.last = life;
        // Requests differ from op to op, so there is no op-0 text to match.
        Ok(None)
    }

    fn layer_metrics(
        &mut self,
        spans: &mut Spans,
        op_times: &[f64],
        out: &mut Metrics,
    ) -> Result<(), String> {
        for ((metric, _), value) in COUNTERS.into_iter().zip(self.last.counters) {
            out.set(metric, value);
        }
        out.set("serve.hot_submit_us_p50", host::median(&self.hot_submit_us));
        out.set(
            "serve.hot_submit_us_p99",
            host::quantile(&self.hot_submit_us, 0.99),
        );
        out.set(
            "serve.cold_burst_us_per_job_p50",
            host::median(&self.cold_burst_us_per_job),
        );
        out.set(
            "serve.cold_burst_us_per_job_p99",
            host::quantile(&self.cold_burst_us_per_job, 0.99),
        );
        let op_s = host::min(op_times);
        if op_s > 0.0 {
            out.set("serve.requests_per_s", REQUESTS_PER_OP as f64 / op_s);
        }
        // First and last round of a lifetime: a young and an old service.
        let (first, last): (Vec<f64>, Vec<f64>) = self.round_times.iter().copied().unzip();
        out.set("serve.op_s_first_decile", host::median(&first));
        out.set("serve.op_s_last_decile", host::median(&last));
        out.set("serve.open_preload_s", self.last.open_preload_s);
        out.set("serve.rss_kb_per_1k_jobs", self.last.rss_kb_per_1k_jobs);
        out.set(
            "serve.journal_bytes_per_cold_job",
            self.last.journal_bytes_per_cold_job,
        );
        out.set(
            "serve.cache_bytes_per_artifact",
            self.last.cache_bytes_per_artifact,
        );

        // Reopen the directory the last lifetime left behind: journal
        // replay + compaction + cache indexing.
        let (reopened, reopen_s) = spans.timed("serve.reopen_replay", |_| {
            ServeHandle::open(config(&self.dir))
        });
        reopened.map_err(|e| e.to_string())?.shutdown();
        out.set("serve.reopen_replay_s", reopen_s);
        Ok(())
    }
}
