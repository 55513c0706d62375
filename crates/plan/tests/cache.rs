//! Artifact-cache behavior: a second run is served entirely from the cache
//! byte-identically, worker count never changes the outcome, and corrupt or
//! stale entries are quarantined and re-executed instead of being trusted.

use hetero_plan::exec::{execute_plan, instance_keys, ExecOptions, PlanOutcome};
use hetero_plan::load_str;
use hetero_plan::resolver::ResolvedPlan;
use std::path::{Path, PathBuf};

const PROBE: &str = r#"
[plan]
name = "cache-probe"
description = "Tiny weak-scaling sweep used by the cache tests"

[options]
per_rank_axis = 3
max_k = 2
steps = 3
discard = 1
fidelity = "modeled"
seed = 2012

[[stage]]
name = "partition"
kind = "partition"

[stage.sweep]
ranks = "ladder"

[[stage]]
name = "sweep"
kind = "run"
app = "rd"
needs = ["partition"]

[stage.sweep]
ranks = "ladder"
platform = ["puma", "ec2"]

[[stage]]
name = "figure"
kind = "report"
template = "weak-scaling"
needs = ["sweep"]
"#;

fn probe_plan() -> ResolvedPlan {
    load_str(PROBE).expect("probe plan is valid")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cached_opts(dir: &Path) -> ExecOptions {
    ExecOptions {
        workers: 2,
        cache_dir: Some(dir.to_path_buf()),
    }
}

fn artifacts_of(outcome: &PlanOutcome) -> Vec<String> {
    outcome
        .results
        .iter()
        .map(|r| serde_json::to_string(&r.artifact).expect("artifact serializes"))
        .collect()
}

#[test]
fn second_run_is_served_entirely_from_the_cache() {
    let rp = probe_plan();
    let dir = fresh_dir("second-run");
    let opts = cached_opts(&dir);

    let first = execute_plan(&rp, &opts).expect("first run");
    assert!(
        first.results.iter().all(|r| !r.cached),
        "cold cache must execute everything"
    );

    let second = execute_plan(&rp, &opts).expect("second run");
    assert!(
        second.results.iter().all(|r| r.cached),
        "warm cache must serve everything"
    );
    assert_eq!(first.reports, second.reports);
    assert_eq!(artifacts_of(&first), artifacts_of(&second));
}

#[test]
fn corrupt_and_stale_entries_are_quarantined_by_re_execution() {
    let rp = probe_plan();
    let dir = fresh_dir("quarantine");
    let opts = cached_opts(&dir);
    let first = execute_plan(&rp, &opts).expect("first run");

    let keys = instance_keys(&rp).expect("keys");
    let path_of = |i: usize| {
        let hash = keys[i].rsplit('/').next().expect("hash suffix");
        dir.join(format!("{hash}.json"))
    };
    let idx_of = |prefix: &str| {
        rp.instances
            .iter()
            .position(|inst| inst.id.starts_with(prefix))
            .unwrap_or_else(|| panic!("no instance with prefix {prefix}"))
    };

    // Torn write: not JSON at all.
    let corrupt = idx_of("sweep[");
    std::fs::write(path_of(corrupt), "not json {").expect("corrupt entry");
    // Stale generation: valid envelope under a retired key.
    let stale = idx_of("figure");
    std::fs::write(
        path_of(stale),
        r#"{"schema":"hetero-plan/stage/v0","key":"old","id":"figure","artifact":{}}"#,
    )
    .expect("stale entry");
    // Previous envelope generation: what the parent commit's executor wrote
    // — its own schema tag, no content hash — under the *current* key.
    let parent = idx_of("partition[");
    std::fs::write(
        path_of(parent),
        format!(
            r#"{{"schema":"hetero-plan/stage/v1","key":"{}","id":"{}","artifact":{}}}"#,
            keys[parent],
            rp.instances[parent].id,
            serde_json::to_string(&first.results[parent].artifact).expect("artifact serializes"),
        ),
    )
    .expect("parent-generation entry");

    let second = execute_plan(&rp, &opts).expect("second run");
    let rewritten = [corrupt, stale, parent];
    for (i, r) in second.results.iter().enumerate() {
        let expect_cached = !rewritten.contains(&i);
        assert_eq!(
            r.cached, expect_cached,
            "instance `{}` cached={} (want {})",
            r.id, r.cached, expect_cached
        );
    }
    // Quarantined entries are kept aside, recomputed to the same bytes and
    // rewritten.
    for i in rewritten {
        let name = path_of(i).file_name().expect("file name").to_owned();
        assert!(
            dir.join("quarantine").join(name).is_file(),
            "`{}` was not quarantined",
            rp.instances[i].id
        );
    }
    assert_eq!(first.reports, second.reports);
    assert_eq!(artifacts_of(&first), artifacts_of(&second));
    let third = execute_plan(&rp, &opts).expect("third run");
    assert!(third.results.iter().all(|r| r.cached));
}

#[test]
fn outcome_is_independent_of_worker_count() {
    let rp = probe_plan();
    let solo = execute_plan(
        &rp,
        &ExecOptions {
            workers: 1,
            cache_dir: None,
        },
    )
    .expect("1 worker");
    let pool = execute_plan(
        &rp,
        &ExecOptions {
            workers: 7,
            cache_dir: None,
        },
    )
    .expect("7 workers");
    assert_eq!(solo.reports, pool.reports);
    assert_eq!(artifacts_of(&solo), artifacts_of(&pool));
    let ids = |o: &PlanOutcome| o.results.iter().map(|r| r.id.clone()).collect::<Vec<_>>();
    assert_eq!(ids(&solo), ids(&pool));
}
