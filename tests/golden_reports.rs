//! Checked-in golden reports: the value-level pin *across* commits.
//!
//! Every other byte-identity suite compares two runs of one commit
//! (threads, engines, workers, cache states), so a change that moved every
//! number consistently would pass them all. These constants are
//! `canon::sha256_hex` of serialized outcomes: any drift in a factor, a
//! solution, a Krylov count, a virtual clock or a charged byte changes a
//! digest.
//!
//! * [`GOLDEN`]: the failure-free [`RunOutcome`] of four `(platform, app)`
//!   pairs, computed at commit `3799a23`, before the preconditioners got
//!   their symbolic/numeric split. At `dc1f663` each held under both the
//!   from-scratch and the in-place per-step operator path; only the latter
//!   exists since. Each is checked twice: executed directly, and priced
//!   from the work tape another platform's run of the same app recorded.
//! * [`GOLDEN_CAMPAIGN`]: one fault-injected RD campaign that restarts from
//!   a checkpoint, computed at commit `dc1f663` — where all four
//!   combinations of per-step operator path (from-scratch, in-place) and
//!   checkpoint store (monolithic, delta log) produced this one digest —
//!   before both forks were resolved to one path each.
//!
//! * [`GOLDEN_TRACES`]: SHA-256 of the message-level JSONL trace of two
//!   runs, computed at commit `95b3ab7`, when the symmetric collectives
//!   were still point-to-point trees: a 27-rank job (non-power-of-two
//!   trees), checked on both engines, and [`campaign_request`] traced at
//!   message detail. Every send, receive and collective span of every rank
//!   is in them, so they pin *where* virtual time went, not only the
//!   totals. On a mismatch the test prints the first divergence between
//!   the engines, if they disagree, and writes each export under
//!   `target/golden-traces/` for `examples/trace_diff.rs` to compare with
//!   an export from a commit that passes. Four more, computed at commit
//!   `19fc608` by the per-rank tracer the work tape later replaced, pin
//!   what the tape must imply: NS at message detail, RD at phase and at
//!   collective detail (the detail filters), and pipelined RD (fused
//!   reductions and `Overlap` batches).
//!
//! To re-pin after an *intended* model change, run
//! `cargo test --test golden_reports -- --nocapture`, copy the printed
//! digests — and say in CHANGES.md why the numbers moved.
//!
//! [`RunOutcome`]: hetero_hpc::run::RunOutcome

use hetero_fault::{FaultModel, SpotMarket};
use hetero_hpc::apps::App;
use hetero_hpc::recovery::{execute_resilient, ResilienceSpec};
use hetero_hpc::run::{execute, Fidelity, RunRequest};
use hetero_hpc::{canon, prep};
use hetero_linalg::SolverVariant;
use hetero_platform::catalog;
use hetero_simmpi::EngineKind;
use hetero_trace::{first_divergence, EventKind, TraceSpec};

/// `(platform, app, sha256 of the report JSON)`.
const GOLDEN: [(&str, &str, &str); 4] = [
    (
        "puma",
        "RD",
        "620ed03784ea91639f13ad5cc6cbbebcdfb00ccb636da1ab9b71df4cc0d45fca",
    ),
    (
        "puma",
        "NS",
        "42ff4180bcaedef63c312a2cc7671ba31982d6881359d343cbf018f67b3f982e",
    ),
    (
        "ec2",
        "RD",
        "5b97b96065e75c5b055f52eb3ae5233854a4f7444b72944b0f00399adeb76fb7",
    ),
    (
        "ec2",
        "NS",
        "ebf9a65c8c6b1ce5ef6478795c866209080f4dc117ddcf55552da0ff8a8638de",
    ),
];

/// SHA-256 of the serialized [`hetero_hpc::recovery::ResilienceOutcome`]
/// (the final `RunOutcome` JSON plus the campaign's `RecoveryStats`) of
/// [`campaign_request`].
const GOLDEN_CAMPAIGN: &str = "f2a5e53dafee2bf848d73df01e2dc07733a2fa0bee07b48ad2c1d286f77711ea";

fn golden_request(platform: &str, app: &str) -> RunRequest {
    let platform = catalog::by_key(platform).expect("catalog platform");
    let app = match app {
        "RD" => App::paper_rd(3),
        _ => App::paper_ns(3),
    };
    RunRequest {
        fidelity: Fidelity::Numerical,
        seed: 2012,
        ..RunRequest::new(platform, app, 8, 3)
    }
}

fn digest(req: &RunRequest) -> String {
    let outcome = execute(req).expect("golden run executes");
    let json = serde_json::to_string(&outcome).expect("outcome serializes");
    canon::sha256_hex(json.as_bytes())
}

#[test]
fn reports_match_the_checked_in_digests() {
    let mut drifted = Vec::new();
    for &(platform, app, want) in &GOLDEN {
        let req = golden_request(platform, app);
        let direct = {
            let _off = prep::disable_sharing_scoped();
            digest(&req)
        };
        // Record the app's tape on a platform that is not the pinned one,
        // then price the pinned request from it.
        let other = if platform == "puma" {
            "lagrange"
        } else {
            "puma"
        };
        prep::clear_cache();
        digest(&golden_request(other, app));
        let served_before = prep::tape_stats().served;
        let served = digest(&req);
        assert_eq!(prep::tape_stats().served, served_before + 1);
        println!("{platform} {app}: {direct} (direct), {served} (tape)");
        for (path, got) in [("direct", direct), ("tape", served)] {
            if got != want {
                drifted.push(format!("{platform}/{app} {path}: {got} != {want}"));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "reports drifted from the golden digests:\n{}",
        drifted.join("\n")
    );
}

/// The `faulty_rd_request` shape of `tests/determinism.rs`: an RD run on an
/// EC2 spot fleet under a market compressed enough to revoke nodes inside
/// the tiny virtual duration of an 8-rank run, checkpointing every step.
/// The trace is requested only to prove the rollbacks below; it never
/// reaches the serialized outcome.
fn campaign_request() -> RunRequest {
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
        seed: 2012,
        resilience: Some(spec),
        trace: Some(TraceSpec::phases()),
        ..RunRequest::new(ec2, App::paper_rd(6), 8, 3)
    }
}

#[test]
fn resumed_campaign_matches_the_checked_in_digest() {
    let out = execute_resilient(&campaign_request()).expect("campaign executes");
    // The pin is only worth having if the run really resumed from durable
    // state: at least one rollback must land on a checkpointed step.
    let resumed_from: Vec<u32> = out
        .trace
        .iter()
        .flat_map(|t| &t.events)
        .filter_map(|e| match e.kind {
            EventKind::Rollback { to_step, .. } => Some(to_step),
            _ => None,
        })
        .collect();
    assert!(
        resumed_from.iter().any(|&s| s > 0),
        "no restart from a checkpoint: rollbacks {resumed_from:?}, {:?}",
        out.stats
    );
    let json = serde_json::to_string(&out).expect("campaign outcome serializes");
    let got = canon::sha256_hex(json.as_bytes());
    println!("campaign: {got}");
    assert_eq!(got, GOLDEN_CAMPAIGN, "{:?}", out.stats);
}

/// `(run, sha256 of its JSONL export)`; every run is traced at
/// `TraceSpec::messages()` unless its name says otherwise.
const GOLDEN_TRACES: [(&str, &str); 6] = [
    (
        "rd27",
        "d3c005df8854034e4e72c2865730a5e30f6f16567d5e2fc2541acdfdcadcc68d",
    ),
    (
        "campaign",
        "f6927c94a53e0319366500226cc998a9098bf25166c5e7f8f92056a5a9020e59",
    ),
    (
        "ns8",
        "32c2940fe681e79be17553bc07cf229a7f48940e03163f09172d8315df46f81f",
    ),
    (
        "rd8_phases",
        "9e4b54a9d270b25654ac7d32967fe3e4517a69d191a736768f9ef1d88a9d454d",
    ),
    (
        "rd8_collectives",
        "a798554d723826d850473f5101f4759c48874fc20aaad759e49b6a02d24137ca",
    ),
    (
        "rd8_pipelined",
        "fc2f698a2fc24bf0519794b6bdcfacf7fe41bdd7de23bd404cdec094da524683",
    ),
];

/// Two steps of RD on 27 ranks of EC2 (3 x 3 x 3 blocks of 2^3 cells):
/// every tree in it has a non-power-of-two rank count.
fn rd27_request(engine: EngineKind) -> RunRequest {
    RunRequest {
        fidelity: Fidelity::Numerical,
        seed: 2012,
        engine,
        trace: Some(TraceSpec::messages()),
        ..RunRequest::new(catalog::ec2(), App::paper_rd(2), 27, 2)
    }
}

/// Checks `jsonl` against the golden digest of `run`; on a mismatch,
/// writes the export where `examples/trace_diff.rs` can compare it and
/// returns the failure.
fn check_trace(run: &str, jsonl: &str) -> Result<(), String> {
    let want = GOLDEN_TRACES
        .iter()
        .find(|(name, _)| *name == run)
        .expect("a pinned run")
        .1;
    let got = canon::sha256_hex(jsonl.as_bytes());
    println!("{run}: {got}");
    if got == want {
        return Ok(());
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/golden-traces");
    let path = dir.join(format!("{run}.jsonl"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, jsonl));
    Err(format!(
        "{run} trace drifted: {got} != {want}; export {} ({written:?})",
        path.display()
    ))
}

#[test]
fn message_traces_match_the_checked_in_digests() {
    let trace = |engine| {
        execute(&rd27_request(engine))
            .expect("traced run executes")
            .trace
            .expect("a traced run returns its trace")
            .jsonl()
    };
    let coop = trace(EngineKind::Cooperative);
    let threads = trace(EngineKind::Threads);
    if let Some(d) = first_divergence(&coop, &threads) {
        println!("cooperative (a) vs thread (b) engine: {d}");
    }
    let campaign = execute_resilient(&RunRequest {
        trace: Some(TraceSpec::messages()),
        ..campaign_request()
    })
    .expect("campaign executes")
    .trace
    .expect("a traced campaign returns its trace")
    .jsonl();
    let failures: Vec<String> = [
        check_trace("rd27", &coop),
        check_trace("rd27", &threads).map_err(|e| format!("thread engine: {e}")),
        check_trace("campaign", &campaign),
    ]
    .into_iter()
    .filter_map(Result::err)
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// An 8-rank EC2 run of `app` traced at `spec`, with the solver schedule
/// `variant` when given.
fn traced8(app: App, spec: TraceSpec, variant: Option<SolverVariant>) -> String {
    execute(&RunRequest {
        fidelity: Fidelity::Numerical,
        seed: 2012,
        solver_variant: variant,
        trace: Some(spec),
        ..RunRequest::new(catalog::ec2(), app, 8, 2)
    })
    .expect("traced run executes")
    .trace
    .expect("a traced run returns its trace")
    .jsonl()
}

/// Every event kind a numerical run emits, and both detail filters below
/// `Messages`: NS's momentum and pressure solves message by message, RD at
/// phase and at collective detail, and pipelined RD, whose fused
/// reductions and posted exchanges emit `allreduce_fused` spans and
/// `Overlap` instants.
#[test]
fn detail_and_variant_traces_match_the_checked_in_digests() {
    let failures: Vec<String> = [
        (
            "ns8",
            traced8(App::paper_ns(2), TraceSpec::messages(), None),
        ),
        (
            "rd8_phases",
            traced8(App::paper_rd(3), TraceSpec::phases(), None),
        ),
        (
            "rd8_collectives",
            traced8(App::paper_rd(3), TraceSpec::collectives(), None),
        ),
        (
            "rd8_pipelined",
            traced8(
                App::paper_rd(3),
                TraceSpec::messages(),
                Some(SolverVariant::Pipelined),
            ),
        ),
    ]
    .iter()
    .filter_map(|(run, jsonl)| check_trace(run, jsonl).err())
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
