//! Service-level guarantees of `hetero-serve`: dedup under a concurrent
//! submit storm, bitwise cache-hit fidelity across all three outcome
//! kinds (plain RD, plain NS, fault-injected resilient), quarantine-not-
//! crash on artifact corruption, and per-job panic isolation.

use hetero_fault::{FaultModel, SpotMarket};
use hetero_hpc::recovery::execute_resilient;
use hetero_hpc::{execute, App, Fidelity, ResilienceSpec, RunRequest, TraceSpec};
use hetero_platform::limits::LimitViolation;
use hetero_platform::{catalog, PlatformSpec};
use hetero_serve::{JobOutcome, ResultCache, ServeConfig, ServeError, ServeHandle};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hetero-serve-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn rd_req(seed: u64) -> RunRequest {
    RunRequest {
        seed,
        ..RunRequest::new(catalog::puma(), App::smoke_rd(2), 8, 3)
    }
}

/// A small fault-injected numerical campaign (market compressed to the
/// run's virtual duration so revocations actually land — the pattern of
/// `tests/resilience.rs`).
fn resilient_req(seed: u64) -> RunRequest {
    let ec2 = catalog::ec2();
    let mut spec = ResilienceSpec::spot_with_restart(&ec2, 1.0, 1, 50);
    spec.faults = FaultModel {
        crashes: None,
        spot: Some(SpotMarket {
            epoch_seconds: 0.012,
            spike_probability: 0.35,
            ..SpotMarket::ec2_like(1.0)
        }),
        degradation: None,
    };
    RunRequest {
        fidelity: Fidelity::Numerical,
        seed,
        resilience: Some(spec),
        ..RunRequest::new(ec2, App::paper_rd(4), 8, 3)
    }
}

fn outcome_bytes(out: &JobOutcome) -> String {
    serde_json::to_string(out).unwrap()
}

#[test]
fn concurrent_submit_storm_executes_each_unique_key_once() {
    let dir = tdir("storm");
    let serve = Arc::new(ServeHandle::open(ServeConfig::new(&dir).with_workers(4)).unwrap());

    const THREADS: usize = 8;
    const UNIQUE: usize = 3;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let serve = Arc::clone(&serve);
            std::thread::spawn(move || {
                // Every thread submits every unique key, interleaved
                // differently per thread.
                let mut out = Vec::new();
                for i in 0..UNIQUE {
                    let k = (i + t) % UNIQUE;
                    let result = serve.submit_wait(&rd_req(100 + k as u64)).unwrap();
                    out.push((k, outcome_bytes(&result)));
                }
                out
            })
        })
        .collect();

    let mut by_key: Vec<Vec<String>> = vec![Vec::new(); UNIQUE];
    for h in handles {
        for (k, bytes) in h.join().unwrap() {
            by_key[k].push(bytes);
        }
    }

    // Every waiter of a key saw byte-identical outcomes...
    for (k, outcomes) in by_key.iter().enumerate() {
        assert_eq!(outcomes.len(), THREADS);
        assert!(
            outcomes.iter().all(|o| o == &outcomes[0]),
            "divergent outcomes for key {k}"
        );
    }
    // ...and those bytes match a fresh direct execution.
    for (k, outcomes) in by_key.iter().enumerate() {
        let direct = JobOutcome::Completed(execute(&rd_req(100 + k as u64)).unwrap());
        assert_eq!(outcomes[0], outcome_bytes(&direct));
    }

    // Exactly one execution per unique key: every other submission was a
    // cache hit or coalesced onto the in-flight execution.
    let m = serve.metrics();
    assert_eq!(m.counter("serve.batch.jobs"), UNIQUE as f64, "executions");
    assert_eq!(
        m.counter("serve.batch.executions"),
        UNIQUE as f64,
        "every claim is one job"
    );
    assert_eq!(m.counter("serve.jobs.submitted"), (THREADS * UNIQUE) as f64);
    assert_eq!(
        m.counter("serve.cache.hits") + m.counter("serve.dedup.coalesced"),
        (THREADS * UNIQUE - UNIQUE) as f64,
        "every duplicate submission either hit the cache or coalesced"
    );
    // Every result was handed over, so the service holds none.
    assert_eq!(m.counter("serve.jobs.failed"), 0.0);
    assert_eq!(
        m.counter("serve.jobs.completed") - m.counter("serve.jobs.collected"),
        0.0,
        "results held after every waiter collected"
    );

    Arc::try_unwrap(serve).ok().unwrap().shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cache_hits_are_bitwise_equal_to_fresh_execution() {
    let dir = tdir("bitwise");
    let serve = ServeHandle::open(ServeConfig::new(&dir)).unwrap();

    // RD, NS, and a fault-injected resilient campaign — all three outcome
    // kinds must serve identical bytes hot and cold.
    let rd = rd_req(7);
    let ns = RunRequest {
        seed: 9,
        ..RunRequest::new(catalog::puma(), App::paper_ns(2), 8, 3)
    };
    let res = resilient_req(2012);

    for (name, req) in [("rd", &rd), ("ns", &ns), ("resilient", &res)] {
        let cold = serve.submit_wait(req).unwrap();
        let hot = serve.submit_wait(req).unwrap();
        assert_eq!(
            outcome_bytes(&cold),
            outcome_bytes(&hot),
            "{name}: hot outcome must be byte-identical to cold"
        );
        let direct = if req.resilience.is_some() {
            JobOutcome::Resilient(execute_resilient(req).unwrap())
        } else {
            JobOutcome::Completed(execute(req).unwrap())
        };
        assert_eq!(
            outcome_bytes(&hot),
            outcome_bytes(&direct),
            "{name}: cached outcome must match direct execution"
        );
    }
    // The resilient campaign really injected faults (the cache served a
    // nontrivial recovery record, not a failure-free run).
    match serve.submit_wait(&res).unwrap().as_ref() {
        JobOutcome::Resilient(r) => {
            assert!(r.stats.completed);
            assert!(r.stats.faults_injected >= 1);
        }
        other => panic!("expected resilient outcome, got {other:?}"),
    }

    let m = serve.metrics();
    assert_eq!(m.counter("serve.cache.misses"), 3.0);
    assert!(m.counter("serve.cache.hits") >= 4.0);

    serve.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn traced_and_untraced_requests_are_the_same_job() {
    let dir = tdir("traced");
    let serve = ServeHandle::open(ServeConfig::new(&dir)).unwrap();
    let plain = rd_req(11);
    let traced = RunRequest {
        trace: Some(TraceSpec::messages()),
        ..plain.clone()
    };
    let a = serve.submit_wait(&plain).unwrap();
    let b = serve.submit_wait(&traced).unwrap();
    assert_eq!(outcome_bytes(&a), outcome_bytes(&b));
    let m = serve.metrics();
    assert_eq!(m.counter("serve.cache.hits"), 1.0);
    serve.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_artifact_is_quarantined_and_reexecuted() {
    let dir = tdir("corrupt");
    let req = rd_req(21);
    let cold_bytes;
    {
        let serve = ServeHandle::open(ServeConfig::new(&dir)).unwrap();
        cold_bytes = outcome_bytes(&serve.submit_wait(&req).unwrap());
        serve.shutdown();
    }
    // Corrupt the single cached artifact on disk.
    let cache_dir = dir.join("cache");
    let artifact = fs::read_dir(&cache_dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("one artifact cached");
    let mut bytes = fs::read(&artifact).unwrap();
    let pos = bytes.len() / 2;
    bytes[pos] = if bytes[pos] == b'3' { b'4' } else { b'3' };
    fs::write(&artifact, &bytes).unwrap();

    let serve = ServeHandle::open(ServeConfig::new(&dir)).unwrap();
    let redone = serve.submit_wait(&req).unwrap();
    assert_eq!(outcome_bytes(&redone), cold_bytes, "re-execution heals");
    let m = serve.metrics();
    assert_eq!(m.counter("serve.cache.quarantined"), 1.0);
    assert!(
        cache_dir.join("quarantine").exists(),
        "bad artifact preserved for diagnosis"
    );
    // And the heal is durable: the next probe hits.
    let hot = serve.submit_wait(&req).unwrap();
    assert_eq!(outcome_bytes(&hot), cold_bytes);
    assert_eq!(serve.metrics().counter("serve.cache.hits"), 1.0);
    serve.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// `wait` on `id` from another thread; panics if it has not returned
/// within a minute instead of hanging the suite.
fn wait_promptly(serve: &Arc<ServeHandle>, id: u64) -> Result<Arc<JobOutcome>, ServeError> {
    let (tx, rx) = std::sync::mpsc::channel();
    let serve = Arc::clone(serve);
    let waiter = std::thread::spawn(move || tx.send(serve.wait(id)).unwrap());
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("wait({id}) blocked"));
    waiter.join().unwrap();
    result
}

#[test]
fn a_result_is_handed_over_once_and_unknown_ids_fail_at_once() {
    let dir = tdir("once");
    let serve = Arc::new(ServeHandle::open(ServeConfig::new(&dir)).unwrap());
    for id in [0, 12_345, u64::MAX] {
        assert_eq!(
            wait_promptly(&serve, id).unwrap_err(),
            ServeError::UnknownJob(id),
            "never issued"
        );
    }
    let req = rd_req(41);
    for pass in ["cold", "hot"] {
        let id = serve.submit(&req).unwrap();
        assert!(wait_promptly(&serve, id).is_ok(), "{pass}");
        assert_eq!(
            wait_promptly(&serve, id).unwrap_err(),
            ServeError::UnknownJob(id),
            "{pass}: already collected"
        );
    }
    let m = serve.metrics();
    assert_eq!(m.counter("serve.cache.hits"), 1.0, "the second was a hit");
    assert_eq!(m.counter("serve.jobs.collected"), 2.0);
    Arc::try_unwrap(serve).ok().unwrap().shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn panicking_job_fails_alone_service_survives() {
    let dir = tdir("panic");
    let serve = ServeHandle::open(ServeConfig::new(&dir)).unwrap();
    // A platform without cores divides by zero placing the ranks — a
    // stand-in for any engine bug.
    let poison = RunRequest {
        platform: PlatformSpec {
            cores_per_node: 0,
            ..catalog::puma()
        },
        ..rd_req(31)
    };
    let err = serve.submit_wait(&poison).unwrap_err();
    assert!(
        matches!(err, ServeError::JobPanicked(_)),
        "expected panic report, got {err:?}"
    );
    // The pool survived: a healthy job still executes.
    let ok = serve.submit_wait(&rd_req(32)).unwrap();
    assert!(matches!(ok.as_ref(), JobOutcome::Completed(_)));
    let m = serve.metrics();
    assert_eq!(m.counter("serve.jobs.failed"), 1.0);
    assert_eq!(m.counter("serve.jobs.completed"), 1.0);
    assert_eq!(
        m.counter("serve.jobs.collected"),
        2.0,
        "a failure is handed over too"
    );
    serve.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn limit_violations_are_served_and_cached() {
    let dir = tdir("limits");
    let serve = ServeHandle::open(ServeConfig::new(&dir)).unwrap();
    // puma cannot run 216 ranks — the paper's capacity failure mode, as
    // deterministic (and as cacheable) as a successful run.
    let req = RunRequest::new(catalog::puma(), App::paper_rd(2), 216, 20);
    let cold = serve.submit_wait(&req).unwrap();
    assert!(matches!(cold.as_ref(), JobOutcome::Rejected(_)));
    let hot = serve.submit_wait(&req).unwrap();
    assert_eq!(outcome_bytes(&cold), outcome_bytes(&hot));
    assert_eq!(serve.metrics().counter("serve.cache.hits"), 1.0);
    serve.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn degenerate_requests_are_rejected_not_panicked() {
    let dir = tdir("degenerate");
    let serve = ServeHandle::open(ServeConfig::new(&dir)).unwrap();
    let plain = rd_req(41);
    let resilient = resilient_req(41);
    for base in [&plain, &resilient] {
        for (field, req) in [
            (
                "ranks",
                RunRequest {
                    ranks: 0,
                    ..base.clone()
                },
            ),
            (
                "per_rank_axis",
                RunRequest {
                    per_rank_axis: 0,
                    ..base.clone()
                },
            ),
            (
                "steps",
                RunRequest {
                    app: base.app.with_steps(0),
                    ..base.clone()
                },
            ),
        ] {
            let out = serve.submit_wait(&req).unwrap();
            match out.as_ref() {
                JobOutcome::Rejected(LimitViolation::DegenerateRequest { field: f }) => {
                    assert_eq!(f, field);
                }
                other => panic!("{field} = 0: expected a rejection, got {other:?}"),
            }
        }
    }
    let m = serve.metrics();
    assert_eq!(m.counter("serve.jobs.failed"), 0.0);
    serve.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The envelope generation did not move when the cache became a view of
/// `hetero_hpc::store`: an artifact the parent commit's `ResultCache::store`
/// wrote (copied from disk byte for byte — puma refusing 216 ranks) is
/// served without an execution, and storing the same outcome today
/// reproduces its bytes.
#[test]
fn an_artifact_written_by_the_parent_commit_is_a_hit() {
    const PARENT_ARTIFACT: &str = r#"{"schema":"hetero-serve/artifact/v1","key":"hetero-serve/key/v2/0c1bb145c039f4dfe09b4b83d295e8491bec29a785f90ff986dad3ad2394a064","content_hash":"611433774f4c19b50fbb9c4e6d5f9839968d6a1136269f2a92739afbf22eea4b","outcome":"{\"Rejected\":{\"InsufficientCapacity\":{\"requested\":216,\"available\":128}}}"}"#;
    let dir = tdir("parent-artifact");
    let req = RunRequest::new(catalog::puma(), App::paper_rd(2), 216, 20);
    let key = hetero_hpc::canon::request_key(&req);
    let artifact = dir
        .join("cache")
        .join(format!("{}.json", key.rsplit('/').next().unwrap()));
    fs::create_dir_all(dir.join("cache")).unwrap();
    fs::write(&artifact, PARENT_ARTIFACT).unwrap();

    let serve = ServeHandle::open(ServeConfig::new(&dir)).unwrap();
    let hot = serve.submit_wait(&req).unwrap();
    assert!(matches!(hot.as_ref(), JobOutcome::Rejected(_)));
    let m = serve.metrics();
    assert_eq!(m.counter("serve.cache.hits"), 1.0);
    assert_eq!(m.counter("serve.batch.jobs"), 0.0, "nothing executed");
    serve.shutdown();

    fs::remove_file(&artifact).unwrap();
    let mut cache = ResultCache::open(&dir.join("cache")).unwrap();
    cache.store(&key, &hot).unwrap();
    assert_eq!(fs::read_to_string(&artifact).unwrap(), PARENT_ARTIFACT);
    let _ = fs::remove_dir_all(&dir);
}

/// Jobs differing only in the solver-variant override share a prepared
/// scenario (the `hetero-prep/key/v1` key leaves the override out) but not
/// a result: every override still computes its own report, byte-identical
/// to a fresh direct execution.
#[test]
fn solver_variant_overrides_stay_distinct() {
    use hetero_linalg::SolverVariant;

    let dir = tdir("overrides");
    let serve = ServeHandle::open(ServeConfig::new(&dir).with_workers(1)).unwrap();

    let variants: Vec<RunRequest> = vec![
        rd_req(7),
        RunRequest {
            solver_variant: Some(SolverVariant::Pipelined),
            ..rd_req(7)
        },
        RunRequest {
            solver_variant: Some(SolverVariant::Overlapped),
            ..rd_req(7)
        },
    ];
    for req in &variants {
        let served = serve.submit_wait(req).unwrap();
        let direct = JobOutcome::Completed(execute(req).unwrap());
        assert_eq!(outcome_bytes(&served), outcome_bytes(&direct));
    }
    // Three distinct keys, three executions: none coalesced or cached
    // onto another override's result.
    let m = serve.metrics();
    assert_eq!(m.counter("serve.batch.jobs"), variants.len() as f64);
    assert_eq!(m.counter("serve.cache.hits"), 0.0);

    serve.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
