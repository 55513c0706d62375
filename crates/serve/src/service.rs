//! The service: submission front door, dedup scheduler, worker pool, and
//! the transactional completion protocol.
//!
//! ## Life of a submission
//!
//! 1. the request is **normalized** (its `trace` spec is stripped —
//!    cached outcomes never carry traces, and tracing never perturbs the
//!    measured report) and its canonical key computed;
//! 2. the **cache** is probed. A verified hit completes the job
//!    immediately — 8–12 µs of host time for a small modeled job whose
//!    artifact bytes this service already verified and decoded, `submit`
//!    and `wait` together (2-vCPU host with SHA extensions, release build,
//!    best of 5 × 20 000 hits; 13–19 µs when every hit parses the
//!    artifact again); no journal traffic, byte-identical to cold
//!    execution;
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
//!    every engine is a pure function of the request;
//! 6. the first [`ServeHandle::wait`] on the id **collects** the result:
//!    it is removed from the service and handed over as an `Arc`, so the
//!    service holds a job only while it is in flight or uncollected. A
//!    second `wait` on the id is [`ServeError::UnknownJob`].
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
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Identifies one accepted submission. Unique within a service lifetime;
/// a later lifetime on the same state directory never reissues the id of
/// a journaled job (a cache miss), but may reissue one that a cache hit
/// consumed.
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
    /// [`ServeHandle::wait`] was given an id the service does not hold:
    /// its result was already collected, or no submission got that id.
    UnknownJob(JobId),
    /// The job's execution panicked; the payload is the panic message.
    JobPanicked(String),
    /// A journal or cache write failed; the payload is the I/O error text.
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::UnknownJob(id) => {
                write!(f, "job {id} is not held: already collected or never issued")
            }
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
    /// Every id in `inflight`'s lists: the jobs whose result is owed.
    pending: HashSet<JobId>,
    /// Finished jobs whose result no `wait` has collected yet.
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

impl State {
    /// The locked half of [`ServeHandle::submit`]: issues an id, then
    /// completes the job from the cache or journals it and makes it wait
    /// on an execution of `key`. Returns the id and whether a new
    /// execution was queued.
    fn admit(&mut self, key: String, request: RunRequest) -> Result<(JobId, bool), ServeError> {
        if self.draining || self.abandoned {
            return Err(ServeError::ShuttingDown);
        }
        let id = self.next_job;
        self.next_job += 1;
        self.metrics.add("serve.jobs.submitted", 1.0);

        match self.cache.get(&key) {
            CacheLookup::Hit(outcome) => {
                self.metrics.add("serve.cache.hits", 1.0);
                self.metrics.add("serve.jobs.completed", 1.0);
                self.done.insert(id, Ok(outcome));
                return Ok((id, false));
            }
            CacheLookup::Quarantined => {
                self.metrics.add("serve.cache.quarantined", 1.0);
                self.metrics.add("serve.cache.misses", 1.0);
            }
            CacheLookup::Miss => {
                self.metrics.add("serve.cache.misses", 1.0);
            }
        }

        if let Err(e) = self.journal.append_submit(id, &key, &request) {
            return Err(ServeError::Io(e.to_string()));
        }
        let queued = self.enqueue(id, key, request);
        if !queued {
            self.metrics.add("serve.dedup.coalesced", 1.0);
        }
        Ok((id, queued))
    }

    /// Makes `id` wait on an execution of `key`: it rides the in-flight
    /// one if there is one, else a new one is queued (returns `true`).
    fn enqueue(&mut self, id: JobId, key: String, request: RunRequest) -> bool {
        self.pending.insert(id);
        match self.inflight.entry(key) {
            Entry::Occupied(mut e) => {
                e.get_mut().push(id);
                false
            }
            Entry::Vacant(e) => {
                let key = e.key().clone();
                e.insert(vec![id]);
                self.queue.push_back(QueuedJob { key, request });
                true
            }
        }
    }
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
        let (journal, replayed, next_job) =
            Journal::open(&config.dir.join("journal.log"), config.fsync)?;
        let cache = ResultCache::open(&config.dir.join("cache"))?;

        let mut st = State {
            journal,
            cache,
            queue: VecDeque::new(),
            inflight: HashMap::new(),
            pending: HashSet::new(),
            done: HashMap::new(),
            metrics: MetricsRegistry::new(),
            next_job,
            draining: false,
            abandoned: false,
            recovered: Vec::with_capacity(replayed.len()),
        };
        for PendingJob { id, request, .. } in replayed {
            st.metrics.add("serve.recovered.replayed", 1.0);
            st.recovered.push(id);
            // Re-derive the key instead of trusting the journaled one: a
            // record written under a retired key schema must neither look
            // up nor store into that generation.
            let key = request_key(&request);
            // The crash may have hit between artifact and ack: complete
            // from cache without re-executing.
            match st.cache.get(&key) {
                CacheLookup::Hit(outcome) => {
                    st.journal.append_ack(id)?;
                    st.done.insert(id, Ok(outcome));
                    st.metrics.add("serve.recovered.from_cache", 1.0);
                    st.metrics.add("serve.jobs.completed", 1.0);
                }
                lookup @ (CacheLookup::Quarantined | CacheLookup::Miss) => {
                    if matches!(lookup, CacheLookup::Quarantined) {
                        st.metrics.add("serve.cache.quarantined", 1.0);
                    }
                    st.enqueue(id, key, request);
                }
            }
        }

        let shared = Arc::new(Shared {
            state: Mutex::new(st),
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

        let (id, queued) = self
            .shared
            .state
            .lock()
            .expect("serve state poisoned")
            .admit(key, request)?;
        if queued {
            self.shared.work.notify_one();
        }
        Ok(id)
    }

    /// Blocks until `job` completes and hands its outcome over. The hand
    /// over happens once: the service keeps no copy, and a later `wait`
    /// on the same id is [`ServeError::UnknownJob`]. Coalesced submissions
    /// each get a clone of one shared `Arc`; a caller that needs the
    /// outcome again keeps its `Arc`.
    ///
    /// # Errors
    /// [`ServeError::UnknownJob`] at once if `job` is neither held nor in
    /// flight (already collected, or never issued);
    /// [`ServeError::JobPanicked`] if the execution panicked;
    /// [`ServeError::Io`] if its result could not be cached;
    /// [`ServeError::ShuttingDown`] if the service was killed with the
    /// job still pending.
    pub fn wait(&self, job: JobId) -> Result<Arc<JobOutcome>, ServeError> {
        let mut st = self.shared.state.lock().expect("serve state poisoned");
        loop {
            if let Some(result) = st.done.remove(&job) {
                st.metrics.add("serve.jobs.collected", 1.0);
                return result;
            }
            if !st.pending.contains(&job) {
                return Err(ServeError::UnknownJob(job));
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
    /// cache and re-enqueued). Each can be collected by one
    /// [`wait`](ServeHandle::wait), like the id of a fresh submission.
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
    /// `serve.recovered.*`). `serve.jobs.collected` counts results handed
    /// over by [`wait`](ServeHandle::wait), so `serve.jobs.completed +
    /// serve.jobs.failed − serve.jobs.collected` results are held.
    /// `serve.cache.decoded` counts the cache hits, journal replay's
    /// included, whose artifact was verified and decoded in full rather
    /// than served from the cache's memo of unchanged bytes.
    pub fn metrics(&self) -> MetricsRegistry {
        let st = self.shared.state.lock().expect("serve state poisoned");
        let mut metrics = st.metrics.clone();
        metrics.add("serve.cache.decoded", st.cache.decoded() as f64);
        metrics
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

    /// Also runs from `Drop`, possibly while a panic unwinds, so it must
    /// not panic: raising a flag and waking every waiter is sound on a
    /// state a panicking holder left poisoned.
    fn stop(&mut self, abandon: bool) {
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
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
        // Transactional order — artifact first, acks second: a crash in
        // between replays into a cache hit. `failure` is the text of the
        // waiters' `fail` records.
        let (result, failure) = match result {
            Ok(outcome) => match st.cache.store(&key, &outcome) {
                Ok(()) => (Ok(Arc::new(outcome)), None),
                Err(e) => (Err(ServeError::Io(e.to_string())), Some(e.to_string())),
            },
            Err(panic_msg) => (
                Err(ServeError::JobPanicked(panic_msg.clone())),
                Some(panic_msg),
            ),
        };
        let counter = if result.is_ok() {
            "serve.jobs.completed"
        } else {
            "serve.jobs.failed"
        };
        for id in st.inflight.remove(&key).unwrap_or_default() {
            let _ = match &failure {
                None => st.journal.append_ack(id),
                Some(msg) => st.journal.append_fail(id, msg),
            };
            st.metrics.add(counter, 1.0);
            st.pending.remove(&id);
            st.done.insert(id, result.clone());
        }
        drop(st);
        shared.completion.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_hpc::{App, Fidelity};
    use hetero_platform::catalog;

    fn open(name: &str) -> (ServeHandle, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "hetero-serve-service-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let serve = ServeHandle::open(ServeConfig::new(&dir).with_workers(1)).unwrap();
        (serve, dir)
    }

    fn modeled(seed: u64) -> RunRequest {
        RunRequest {
            fidelity: Fidelity::Modeled,
            seed,
            ..RunRequest::new(catalog::puma(), App::smoke_rd(2), 8, 3)
        }
    }

    #[test]
    fn collected_jobs_leave_no_state_behind() {
        let (serve, dir) = open("bounded");
        for i in 0..2000 {
            let id = serve.submit(&modeled(i % 8)).unwrap();
            serve.wait(id).unwrap();
        }
        // A burst of duplicates of a fresh key, admitted under one hold of
        // the lock so that no execution can finish between them: all but
        // the first coalesce.
        let burst = modeled(8);
        let ids: Vec<JobId> = {
            let mut st = serve.shared.state.lock().unwrap();
            (0..16)
                .map(|_| st.admit(request_key(&burst), burst.clone()).unwrap().0)
                .collect()
        };
        serve.shared.work.notify_all();
        let outcomes: Vec<_> = ids.iter().map(|&id| serve.wait(id).unwrap()).collect();
        assert!(outcomes.iter().all(|o| Arc::ptr_eq(o, &outcomes[0])));

        let m = serve.metrics();
        assert_eq!(m.counter("serve.dedup.coalesced"), 15.0);
        assert_eq!(m.counter("serve.batch.jobs"), 9.0);
        assert_eq!(m.counter("serve.jobs.collected"), 2016.0);
        let held = {
            let st = serve.shared.state.lock().unwrap();
            [
                st.done.len(),
                st.pending.len(),
                st.inflight.len(),
                st.queue.len(),
            ]
        };
        assert_eq!(
            held, [0; 4],
            "done, pending, inflight, queue after collection"
        );
        assert_eq!(
            serve.wait(ids[0]).unwrap_err(),
            ServeError::UnknownJob(ids[0])
        );
        serve.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The host work of a hit, pinned: a lifetime verifies and decodes a
    /// key's artifact once however often it serves it, and the next
    /// lifetime decodes it once again.
    #[test]
    fn a_lifetime_decodes_each_hot_artifact_once() {
        const K: usize = 50;
        let (serve, dir) = open("decoded");
        let request = modeled(3);
        let cold = serve.submit_wait(&request).unwrap();
        let mut outcomes = Vec::new();
        for _ in 0..K {
            outcomes.push(serve.submit_wait(&request).unwrap());
        }
        let m = serve.metrics();
        assert_eq!(m.counter("serve.cache.hits"), K as f64);
        assert_eq!(m.counter("serve.cache.decoded"), 1.0);
        assert!(outcomes.iter().all(|o| Arc::ptr_eq(o, &outcomes[0])));
        let bytes = |o: &JobOutcome| serde_json::to_string(o).unwrap();
        assert_eq!(bytes(&outcomes[0]), bytes(&cold));
        serve.shutdown();

        let serve = ServeHandle::open(ServeConfig::new(&dir).with_workers(1)).unwrap();
        for _ in 0..K {
            serve.submit_wait(&request).unwrap();
        }
        let m = serve.metrics();
        assert_eq!(m.counter("serve.cache.hits"), K as f64);
        assert_eq!(m.counter("serve.cache.decoded"), 1.0);
        serve.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Poisons the state mutex: a thread panics while holding it.
    fn poison(serve: &ServeHandle) {
        let shared = Arc::clone(&serve.shared);
        let holder = std::thread::spawn(move || {
            let _st = shared.state.lock().unwrap();
            panic!("a panic under the state lock");
        });
        assert!(holder.join().is_err());
        assert!(serve.shared.state.is_poisoned());
    }

    #[test]
    fn dropping_a_handle_with_poisoned_state_stops_it() {
        let (serve, dir) = open("poisoned");
        poison(&serve);
        let shared = Arc::clone(&serve.shared);
        drop(serve);
        let st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(st.draining);
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_a_handle_with_poisoned_state_while_unwinding_does_not_abort() {
        let (serve, dir) = open("poisoned-unwind");
        poison(&serve);
        // The handle is dropped by the unwind; a second panic there would
        // abort the process.
        let unwound = catch_unwind(AssertUnwindSafe(move || {
            let _serve = serve;
            panic!("a caller's panic while it owns the handle");
        }));
        assert!(unwound.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_ends_a_wait_on_a_pending_job() {
        let (serve, dir) = open("kill");
        // Admit a job and take it off the queue under one hold of the lock,
        // so no worker claims it: it stays journaled and pending, like one
        // a worker had not reached when the service was killed.
        let id = {
            let mut st = serve.shared.state.lock().unwrap();
            let request = modeled(1);
            let (id, _) = st.admit(request_key(&request), request).unwrap();
            st.queue.clear();
            id
        };
        let waiter = ServeHandle {
            shared: Arc::clone(&serve.shared),
            workers: Vec::new(),
        };
        std::thread::scope(|s| {
            let waited = s.spawn(|| waiter.wait(id));
            serve.kill();
            assert_eq!(
                waited.join().unwrap().unwrap_err(),
                ServeError::ShuttingDown
            );
        });
        assert_eq!(waiter.wait(id).unwrap_err(), ServeError::ShuttingDown);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
