//! The service: submission front door, dedup scheduler, worker pool, and
//! the transactional completion protocol.
//!
//! ## Life of a submission
//!
//! 1. the request is **normalized** (its `trace` spec is stripped —
//!    cached outcomes never carry traces, and tracing never perturbs the
//!    measured report) and its canonical key computed;
//! 2. the **cache** is probed. A verified hit completes the job
//!    immediately — about 16 µs of host time for a small modeled job
//!    (2-vCPU host, release build), half of it the two SHA-256 passes;
//!    no journal traffic, byte-identical to cold execution;
//! 3. on a miss the job is **journaled** (`submit` record, durable before
//!    the job is visible to workers), then either **coalesced** onto an
//!    already-in-flight execution of the same key or enqueued;
//! 4. a worker claims the queue head and executes it; the run takes its
//!    prepared scenario from `hetero_hpc::prep`'s process-wide cache, like
//!    any other caller's;
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
use hetero_hpc::canon::request_key;
use hetero_hpc::{execute, execute_resilient, ResilienceOutcome, RunOutcome, RunRequest};
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
}

impl ServeConfig {
    /// A config with 2 workers, each claiming one job at a time, and no
    /// fsync.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            dir: dir.into(),
            workers: 2,
            fsync: false,
        }
    }

    /// Replaces the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
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
                std::thread::spawn(move || worker_loop(&shared))
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
    /// and joins the workers after their current job. Pending work is
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

/// Executes one request, catching panics. Pure: no service state touched.
fn run_one(request: &RunRequest) -> Result<JobOutcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if request.resilience.is_some() {
            match execute_resilient(request) {
                Ok(out) => JobOutcome::Resilient(out),
                Err(limit) => JobOutcome::Rejected(limit),
            }
        } else {
            match execute(request) {
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

fn worker_loop(shared: &Shared) {
    loop {
        let QueuedJob { key, request } = {
            let mut st = shared.state.lock().expect("serve state poisoned");
            loop {
                if st.abandoned || (st.draining && st.queue.is_empty()) {
                    return;
                }
                if let Some(job) = st.queue.pop_front() {
                    // Both counters count executed jobs; their names
                    // predate single-job claims.
                    st.metrics.add("serve.batch.executions", 1.0);
                    st.metrics.add("serve.batch.jobs", 1.0);
                    break job;
                }
                st = shared.work.wait(st).expect("serve state poisoned");
            }
        };

        // Execute outside the lock: jobs are the slow part.
        let result = run_one(&request);

        let mut st = shared.state.lock().expect("serve state poisoned");
        let waiters = st.inflight.remove(&key).unwrap_or_default();
        match result {
            Ok(outcome) => {
                // Transactional order — artifact first, acks second: a
                // crash in between replays into a cache hit.
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
