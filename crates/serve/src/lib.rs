//! # hetero-serve
//!
//! A long-running, multi-tenant campaign service over the `hetero-hpc`
//! engines. Where the rest of the workspace runs one experiment per
//! process invocation, this crate keeps a service alive across many
//! submissions — the shape the paper's resource-selection story implies
//! once a group shares one harness: many users, overlapping requests,
//! repeated sweeps over the same platform ladder.
//!
//! Three cooperating pieces (see `DESIGN.md` §11):
//!
//! * a **persistent job queue** ([`journal`]): every accepted submission
//!   is journaled to an append-only on-disk log before it is queued, and
//!   acknowledged in the same log when its result is durably cached. A
//!   restarted service replays the log and finishes exactly the work that
//!   was pending — no acked job is lost, no completed unique key is
//!   re-executed;
//! * a **worker pool** ([`service`]): N OS threads drain the queue
//!   concurrently through [`hetero_hpc::execute`] /
//!   [`hetero_hpc::recovery::execute_resilient`], with per-job panic
//!   isolation (a panicking job fails *that job*, not the service) and
//!   graceful drain on shutdown;
//! * a **content-addressed result cache** ([`cache`]): outcomes are stored
//!   under the canonical key of [`hetero_hpc::canon`] in the workspace's
//!   one artifact store, [`hetero_hpc::store`] — compact-JSON artifacts
//!   published by temp-file + atomic rename, each carrying the hash of its
//!   own content. Because every engine in the workspace is a pure
//!   function of the request, a cache hit returns a byte-identical
//!   outcome at microsecond latency; artifacts that fail verification are
//!   quarantined, never served and never fatal. Every hit re-reads and
//!   re-hashes its artifact, but bytes the cache has already verified and
//!   decoded are not parsed again.
//!
//! Duplicate submissions coalesce: concurrent requests for the same key
//! share one in-flight execution.
//!
//! A result is handed over once: the first [`ServeHandle::wait`] on a job
//! id takes the outcome out of the service, and a second one is
//! [`ServeError::UnknownJob`]. So the service holds only in-flight and
//! uncollected jobs, however long it runs; a caller that needs an outcome
//! again keeps its `Arc`.
//!
//! ```no_run
//! use hetero_hpc::{App, RunRequest};
//! use hetero_platform::catalog;
//! use hetero_serve::{ServeConfig, ServeHandle};
//!
//! let serve = ServeHandle::open(ServeConfig::new("/tmp/serve-state")).unwrap();
//! let req = RunRequest::new(catalog::puma(), App::paper_rd(3), 8, 3);
//! let cold = serve.submit_wait(&req).unwrap(); // executes
//! let hot = serve.submit_wait(&req).unwrap();  // cache hit, byte-identical
//! # let _ = (cold, hot);
//! serve.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod journal;
pub mod service;

pub use cache::{CacheLookup, ResultCache};
pub use journal::{Journal, PendingJob};
pub use service::{JobId, JobOutcome, ServeConfig, ServeError, ServeHandle};
