//! The service: submission front door, dedup/batch scheduler, worker
//! pool, and the transactional completion protocol.
//!
//! ## Life of a submission
//!
//! 1. the request is **normalized** (its `trace` spec is stripped —
//!    cached outcomes never carry traces, and tracing never perturbs the
//!    measured report) and its canonical key computed;
//! 2. the **cache** is probed. A verified hit completes the job
//!    immediately — microseconds, no journal traffic, byte-identical to
//!    cold execution;
//! 3. on a miss the job is **journaled** (`submit` record, durable before
//!    the job is visible to workers), then either **coalesced** onto an
//!    already-in-flight execution of the same key or enqueued;
//! 4. a worker claims the queue head plus any queued jobs of the same
//!    *batch shape* — same platform key, rank count, and per-rank mesh —
//!    up to `batch_max`, and executes them back to back;
//! 5. completion is transactional, in this order: write the cache
//!    artifact (temp file + atomic rename), then append `ack` records for
//!    every coalesced submission, then wake waiters. A crash between
//!    artifact and ack merely replays the job into a cache hit at next
//!    startup — re-acked without re-execution. A crash before the
//!    artifact replays into a real re-execution, which is safe because
//!    every engine is a pure function of the request.
//!
//! A panicking job (engine bug) is caught per job: it appends a `fail`
//! record, reports the panic to its waiters, and the worker moves on.

use crate::cache::{CacheLookup, ResultCache};
use crate::journal::{Journal, PendingJob};
use hetero_hpc::canon::prep_key;
use hetero_hpc::canon::request_key;
use hetero_hpc::prep::{scenario_for, PreparedScenario};
use hetero_hpc::recovery::execute_resilient_with_prep;
use hetero_hpc::{execute_with_prep, ResilienceOutcome, RunOutcome, RunRequest};
use hetero_platform::limits::LimitViolation;
use hetero_trace::MetricsRegistry;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Identifies one accepted submission (unique across service restarts on
/// the same state directory).
pub type JobId = u64;

/// What a job produced. All three arms are deterministic functions of the
/// request, so all three are cacheable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JobOutcome {
    /// A plain run (no resilience spec) that executed within limits.
    Completed(RunOutcome),
    /// A resilient campaign (request carried a [`hetero_hpc::ResilienceSpec`]).
    Resilient(ResilienceOutcome),
    /// The platform refused the request (capacity, launcher, or adapter
    /// limits) — the paper's observed failure modes, served from cache
    /// like any other deterministic outcome.
    Rejected(LimitViolation),
}

/// Why a submission or wait failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// The job's execution panicked; the payload is the panic message.
    JobPanicked(String),
    /// A journal or cache write failed; the payload is the I/O error text.
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::JobPanicked(msg) => write!(f, "job panicked: {msg}"),
            ServeError::Io(msg) => write!(f, "journal/cache I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Configuration of one service instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// State directory: holds `journal.log` and the `cache/` artifacts.
    pub dir: PathBuf,
    /// Worker threads executing jobs concurrently.
    pub workers: usize,
    /// Whether journal appends fsync before returning. Off by default:
    /// the tests and demo value latency, a production deployment of the
    /// simulation service would turn it on.
    pub fsync: bool,
    /// Upper bound on jobs dispatched to one worker as a batch.
    pub batch_max: usize,
}

impl ServeConfig {
    /// A config with 2 workers, batching up to 4, no fsync.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            dir: dir.into(),
            workers: 2,
            fsync: false,
            batch_max: 4,
        }
    }

    /// Replaces the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Replaces the batch bound.
    #[must_use]
    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max.max(1);
        self
    }

    /// Enables fsync on journal appends.
    #[must_use]
    pub fn with_fsync(mut self) -> Self {
        self.fsync = true;
        self
    }
}

/// One queued unique-key execution.
struct QueuedJob {
    key: String,
    request: RunRequest,
}

/// The batch shape: queued jobs agreeing on every coordinate ride to a
/// worker together (one dispatch, shared scheduling overhead — the
/// service-level analogue of the paper's "same platform, same size"
/// sweep columns). Besides the platform/size coordinates this folds in
/// the `hetero-prep/key/v1` sub-key — so every job of a batch shares one
/// [`PreparedScenario`] resolution — and the solver-variant override,
/// which the prep key deliberately excludes: two jobs differing only in
/// communication schedule must not claim-group as interchangeable work.
fn batch_shape(req: &RunRequest) -> (String, String, usize, usize, String) {
    (
        prep_key(req),
        req.platform.key.clone(),
        req.ranks,
        req.per_rank_axis,
        format!("{:?}", req.solver_variant),
    )
}

struct State {
    journal: Journal,
    cache: ResultCache,
    queue: VecDeque<QueuedJob>,
    /// key → job ids waiting on the in-flight (queued or executing)
    /// execution of that key.
    inflight: HashMap<String, Vec<JobId>>,
    done: HashMap<JobId, Result<Arc<JobOutcome>, ServeError>>,
    metrics: MetricsRegistry,
    next_job: JobId,
    /// Set by `shutdown`: stop accepting, drain the queue, exit.
    draining: bool,
    /// Set by `kill`: stop accepting, abandon the queue, exit.
    abandoned: bool,
    /// Jobs replayed from the journal at startup.
    recovered: Vec<JobId>,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    completion: Condvar,
}

/// Handle to a running service instance. Dropping it without calling
/// [`ServeHandle::shutdown`] or [`ServeHandle::kill`] drains like
/// `shutdown`.
pub struct ServeHandle {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// Opens the service over `config.dir`: replays the journal, re-acks
    /// pending jobs whose results are already cached, re-enqueues the
    /// rest, and starts the worker pool.
    ///
    /// # Errors
    /// Propagates filesystem errors from the journal or cache.
    pub fn open(config: ServeConfig) -> io::Result<ServeHandle> {
        std::fs::create_dir_all(&config.dir)?;
        let (mut journal, pending, next_job) =
            Journal::open(&config.dir.join("journal.log"), config.fsync)?;
        let mut cache = ResultCache::open(&config.dir.join("cache"))?;

        let mut metrics = MetricsRegistry::new();
        let mut queue = VecDeque::new();
        let mut inflight: HashMap<String, Vec<JobId>> = HashMap::new();
        let mut done = HashMap::new();
        let mut recovered = Vec::new();
        for PendingJob { id, request, .. } in pending {
            metrics.add("serve.recovered.replayed", 1.0);
            recovered.push(id);
            // Re-derive the key instead of trusting the journaled one: a
            // record written under a retired key schema must neither look
            // up nor store into that generation.
            let key = request_key(&request);
            // The crash may have hit between artifact and ack: complete
            // from cache without re-executing.
            match cache.get(&key) {
                CacheLookup::Hit(outcome) => {
                    journal.append_ack(id)?;
                    done.insert(id, Ok(Arc::new(*outcome)));
                    metrics.add("serve.recovered.from_cache", 1.0);
                    metrics.add("serve.jobs.completed", 1.0);
                }
                lookup @ (CacheLookup::Quarantined | CacheLookup::Miss) => {
                    if matches!(lookup, CacheLookup::Quarantined) {
                        metrics.add("serve.cache.quarantined", 1.0);
                    }
                    match inflight.entry(key.clone()) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            e.get_mut().push(id);
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(vec![id]);
                            queue.push_back(QueuedJob { key, request });
                        }
                    }
                }
            }
        }

        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                journal,
                cache,
                queue,
                inflight,
                done,
                metrics,
                next_job,
                draining: false,
                abandoned: false,
                recovered,
            }),
            work: Condvar::new(),
            completion: Condvar::new(),
        });

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let batch_max = config.batch_max.max(1);
                std::thread::spawn(move || worker_loop(&shared, batch_max))
            })
            .collect();

        Ok(ServeHandle { shared, workers })
    }

    /// Accepts a request: cache-hit jobs complete before this returns;
    /// misses are journaled and queued (or coalesced onto an in-flight
    /// execution of the same key). Returns the job id to [`wait`] on.
    ///
    /// [`wait`]: ServeHandle::wait
    ///
    /// # Errors
    /// [`ServeError::ShuttingDown`] after [`ServeHandle::shutdown`] /
    /// [`ServeHandle::kill`]; [`ServeError::Io`] if the journal append
    /// failed (the job was not accepted).
    pub fn submit(&self, request: &RunRequest) -> Result<JobId, ServeError> {
        // Normalize: traces are replay artifacts, never cached, and never
        // perturb the report — a traced and an untraced request are the
        // same job.
        let request = RunRequest {
            trace: None,
            ..request.clone()
        };
        let key = request_key(&request);

        let mut st = self.shared.state.lock().expect("serve state poisoned");
        if st.draining || st.abandoned {
            return Err(ServeError::ShuttingDown);
        }
        let id = st.next_job;
        st.next_job += 1;
        st.metrics.add("serve.jobs.submitted", 1.0);

        match st.cache.get(&key) {
            CacheLookup::Hit(outcome) => {
                st.metrics.add("serve.cache.hits", 1.0);
                st.metrics.add("serve.jobs.completed", 1.0);
                st.done.insert(id, Ok(Arc::new(*outcome)));
                self.shared.completion.notify_all();
                return Ok(id);
            }
            CacheLookup::Quarantined => {
                st.metrics.add("serve.cache.quarantined", 1.0);
                st.metrics.add("serve.cache.misses", 1.0);
            }
            CacheLookup::Miss => {
                st.metrics.add("serve.cache.misses", 1.0);
            }
        }

        if let Err(e) = st.journal.append_submit(id, &key, &request) {
            return Err(ServeError::Io(e.to_string()));
        }
        match st.inflight.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                // Same key already queued or executing: coalesce.
                e.get_mut().push(id);
                st.metrics.add("serve.dedup.coalesced", 1.0);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(vec![id]);
                st.queue.push_back(QueuedJob { key, request });
                self.shared.work.notify_one();
            }
        }
        Ok(id)
    }

    /// Blocks until `job` completes and returns its outcome (shared —
    /// coalesced submissions all see the same `Arc`).
    ///
    /// # Errors
    /// [`ServeError::JobPanicked`] if the execution panicked;
    /// [`ServeError::ShuttingDown`] if the service was killed with the
    /// job still pending.
    pub fn wait(&self, job: JobId) -> Result<Arc<JobOutcome>, ServeError> {
        let mut st = self.shared.state.lock().expect("serve state poisoned");
        loop {
            if let Some(result) = st.done.get(&job) {
                return result.clone();
            }
            if st.abandoned {
                return Err(ServeError::ShuttingDown);
            }
            st = self
                .shared
                .completion
                .wait(st)
                .expect("serve state poisoned");
        }
    }

    /// [`submit`](ServeHandle::submit) then [`wait`](ServeHandle::wait).
    ///
    /// # Errors
    /// As for the two halves.
    pub fn submit_wait(&self, request: &RunRequest) -> Result<Arc<JobOutcome>, ServeError> {
        let id = self.submit(request)?;
        self.wait(id)
    }

    /// Job ids replayed from the journal at startup (both re-acked-from-
    /// cache and re-enqueued); [`wait`](ServeHandle::wait) works on them.
    pub fn recovered_jobs(&self) -> Vec<JobId> {
        self.shared
            .state
            .lock()
            .expect("serve state poisoned")
            .recovered
            .clone()
    }

    /// A snapshot of the service counters (`serve.cache.*`,
    /// `serve.dedup.*`, `serve.batch.*`, `serve.jobs.*`,
    /// `serve.recovered.*`).
    pub fn metrics(&self) -> MetricsRegistry {
        self.shared
            .state
            .lock()
            .expect("serve state poisoned")
            .metrics
            .clone()
    }

    /// Graceful drain: stops accepting submissions, lets the workers
    /// finish every queued job, and joins them.
    pub fn shutdown(mut self) {
        self.stop(false);
    }

    /// Simulated crash for recovery testing: stops accepting, abandons
    /// the queue (journaled-but-unexecuted jobs stay pending on disk),
    /// and joins the workers after their current batch. Pending work is
    /// completed by the next [`ServeHandle::open`] on the same directory.
    pub fn kill(mut self) {
        self.stop(true);
    }

    fn stop(&mut self, abandon: bool) {
        {
            let mut st = self.shared.state.lock().expect("serve state poisoned");
            if abandon {
                st.abandoned = true;
            } else {
                st.draining = true;
            }
        }
        self.shared.work.notify_all();
        self.shared.completion.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop(false);
        }
    }
}

/// Executes one request, catching panics. Pure: no service state touched
/// (the optional prepared scenario is immutable shared setup — outputs are
/// byte-identical with or without it).
fn run_one(
    request: &RunRequest,
    prep: Option<Arc<PreparedScenario>>,
) -> Result<JobOutcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if request.resilience.is_some() {
            match execute_resilient_with_prep(request, prep) {
                Ok(out) => JobOutcome::Resilient(out),
                Err(limit) => JobOutcome::Rejected(limit),
            }
        } else {
            match execute_with_prep(request, prep) {
                Ok(out) => JobOutcome::Completed(out),
                Err(limit) => JobOutcome::Rejected(limit),
            }
        }
    }))
    .map_err(|panic| {
        panic
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "engine panicked".to_string())
    })
}

fn worker_loop(shared: &Shared, batch_max: usize) {
    loop {
        // Claim a batch: the queue head plus queued jobs of its shape.
        let batch = {
            let mut st = shared.state.lock().expect("serve state poisoned");
            loop {
                if st.abandoned || (st.draining && st.queue.is_empty()) {
                    return;
                }
                if let Some(head) = st.queue.pop_front() {
                    let shape = batch_shape(&head.request);
                    let mut batch = vec![head];
                    let mut rest = VecDeque::new();
                    while let Some(job) = st.queue.pop_front() {
                        if batch.len() < batch_max && batch_shape(&job.request) == shape {
                            batch.push(job);
                        } else {
                            rest.push_back(job);
                        }
                    }
                    st.queue = rest;
                    st.metrics.add("serve.batch.executions", 1.0);
                    st.metrics.add("serve.batch.jobs", batch.len() as f64);
                    break batch;
                }
                st = shared.work.wait(st).expect("serve state poisoned");
            }
        };

        // One prepared-scenario resolution per batch: every job in the
        // batch shares the same prep key by construction, so the whole
        // batch reuses one setup. `None` when sharing is disabled.
        let prep = batch.first().and_then(|job| scenario_for(&job.request));
        for QueuedJob { key, request } in batch {
            // Execute outside the lock: jobs are the slow part.
            let result = run_one(&request, prep.clone());

            let mut st = shared.state.lock().expect("serve state poisoned");
            let waiters = st.inflight.remove(&key).unwrap_or_default();
            match result {
                Ok(outcome) => {
                    // Transactional order — artifact first, acks second:
                    // a crash in between replays into a cache hit.
                    if let Err(e) = st.cache.store(&key, &outcome) {
                        let err = ServeError::Io(e.to_string());
                        for id in &waiters {
                            let _ = st.journal.append_fail(*id, &e.to_string());
                            st.done.insert(*id, Err(err.clone()));
                            st.metrics.add("serve.jobs.failed", 1.0);
                        }
                    } else {
                        let shared_outcome = Arc::new(outcome);
                        for id in &waiters {
                            let _ = st.journal.append_ack(*id);
                            st.done.insert(*id, Ok(Arc::clone(&shared_outcome)));
                            st.metrics.add("serve.jobs.completed", 1.0);
                        }
                    }
                }
                Err(panic_msg) => {
                    for id in &waiters {
                        let _ = st.journal.append_fail(*id, &panic_msg);
                        st.done
                            .insert(*id, Err(ServeError::JobPanicked(panic_msg.clone())));
                        st.metrics.add("serve.jobs.failed", 1.0);
                    }
                }
            }
            drop(st);
            shared.completion.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::batch_shape;
    use hetero_hpc::canon::prep_key;
    use hetero_hpc::{App, RunRequest};
    use hetero_linalg::SolverVariant;
    use hetero_platform::catalog;

    fn base() -> RunRequest {
        RunRequest::new(catalog::puma(), App::smoke_rd(2), 8, 3)
    }

    /// Host-side execution knobs never split a batch: two jobs that
    /// compute the same report must be claimable together.
    #[test]
    fn host_knobs_and_seed_do_not_split_batches() {
        let shape = batch_shape(&base());
        for req in [
            RunRequest {
                seed: 999,
                ..base()
            },
            RunRequest {
                threads_per_rank: 4,
                ..base()
            },
            RunRequest {
                sched_workers: 2,
                ..base()
            },
        ] {
            assert_eq!(batch_shape(&req), shape);
        }
    }

    /// The override the prep key deliberately excludes must still split
    /// batches: `solver_variant` changes what a worker executes, so jobs
    /// differing only there are not interchangeable claim-group members.
    #[test]
    fn solver_variant_splits_batches() {
        let plain = batch_shape(&base());
        let variant = batch_shape(&RunRequest {
            solver_variant: Some(SolverVariant::Pipelined),
            ..base()
        });
        assert_ne!(plain, variant, "solver_variant must be in the batch shape");
    }

    /// The first shape coordinate is exactly the `hetero-prep/key/v1`
    /// key, so every job of a batch shares one `PreparedScenario`.
    #[test]
    fn batch_shape_leads_with_prep_key() {
        let req = base();
        assert_eq!(batch_shape(&req).0, prep_key(&req));
        // Size coordinates change the prep key and the shape together.
        let wider = RunRequest {
            ranks: 16,
            ..base()
        };
        assert_ne!(batch_shape(&wider).0, batch_shape(&req).0);
    }
}
