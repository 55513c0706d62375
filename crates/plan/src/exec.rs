//! The plan executor: runs a resolved DAG with maximum parallelism and
//! per-stage artifact caching.
//!
//! Workers pull the *smallest ready instance index* from a shared queue, so
//! every artifact — and every rendered report — is a pure function of the
//! plan, independent of worker count or completion order. Run stages go
//! through the same [`hetero_hpc::execute`]/[`hetero_hpc::execute_resilient`]
//! paths as the legacy
//! `core::scenarios` sweeps; the pinning tests hold the two byte-identical.
//! Each run gets its prepared scenario from `hetero_hpc::prep`'s
//! process-wide cache; since instances expand with the first declared axis
//! outermost, a `ranks`-first sweep reaches each scenario in one contiguous
//! run of instances.
//!
//! Artifacts are cached under a content-addressed key derived from the
//! existing `core::canon` machinery: each run instance's key hashes the
//! [canonical request text](hetero_hpc::canon::canonical_request) under the
//! versioned `STAGE_SCHEMA` tag, and report/compare keys hash their
//! template plus their dependencies' keys — so a cached report is valid
//! exactly when every transitive input is unchanged. The cache directory is
//! a [`hetero_hpc::store::ArtifactStore`] — the store `hetero-serve` keeps
//! its results in — holding each artifact as compact JSON text: an entry
//! that fails the store's verification (or is not JSON) is moved to
//! `quarantine/`, re-executed and rewritten, never trusted and never fatal.

use crate::resolver::ResolvedPlan;
use crate::schema::{
    parse_variant, AppKind, Axis, CompareTemplate, Coord, PolicyKind, ReportTemplate, StageDef,
    StageKind,
};
use hetero_fault::ResiliencePolicy;
use hetero_hpc::canon::{canonical_request, sha256_hex};
use hetero_hpc::recovery::ResilienceSpec;
use hetero_hpc::report::{render_solver_variants, render_table3, render_weak_scaling};
use hetero_hpc::run::{execute, RunOutcome, RunRequest};
use hetero_hpc::scenarios::{
    campaign_cell, uncapped_cell, Cell, SolverVariantRow, Table3Cell, Table3Row, WeakScalingRow,
    WeakScalingTable,
};
use hetero_hpc::store::{ArtifactStore, Lookup};
use hetero_hpc::App;
use hetero_partition::block::near_cubic_factors;
use hetero_platform::catalog;
use hetero_platform::limits::LimitViolation;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

/// Version tag of the stage-artifact key schema. Bump it to retire a cache
/// generation explicitly (see `core::canon`'s argument: a stale key must
/// miss, never alias).
const STAGE_SCHEMA: &str = "hetero-plan/stage/v1";

/// An execution failure, attributed to a stage instance.
#[derive(Debug, Clone)]
pub struct ExecError {
    /// Display id of the failing instance.
    pub instance: String,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stage `{}`: {}", self.instance, self.msg)
    }
}

impl std::error::Error for ExecError {}

fn fail<T>(instance: &str, msg: impl Into<String>) -> Result<T, ExecError> {
    Err(ExecError {
        instance: instance.to_string(),
        msg: msg.into(),
    })
}

/// Executor knobs.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Worker threads (`0` = auto-size from host parallelism).
    pub workers: usize,
    /// Artifact cache directory; `None` executes everything in memory.
    pub cache_dir: Option<PathBuf>,
}

/// One executed (or cache-served) stage instance.
#[derive(Debug, Clone)]
pub struct StageResult {
    /// Display id of the instance.
    pub id: String,
    /// Content-addressed key, `hetero-plan/stage/v1/<sha256>`.
    pub key: String,
    /// Whether the artifact was served from the cache.
    pub cached: bool,
    /// The artifact.
    pub artifact: Value,
}

/// What a plan run produced.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// Per-instance results, indexed like `ResolvedPlan::instances`.
    pub results: Vec<StageResult>,
    /// Rendered report texts, `(stage name, text)`, in declaration order.
    pub reports: Vec<(String, String)>,
}

/// Executes a resolved plan.
///
/// # Errors
/// The first failing instance (a compare mismatch, an infeasible campaign,
/// a malformed stage wiring, or a cache-write I/O failure).
pub fn execute_plan(rp: &ResolvedPlan, opts: &ExecOptions) -> Result<PlanOutcome, ExecError> {
    let keys = instance_keys(rp)?;
    let cache = match &opts.cache_dir {
        Some(dir) => match ArtifactStore::open(dir) {
            Ok(store) => Some(store),
            Err(e) => {
                return fail(
                    "<cache>",
                    format!("cannot create cache dir {}: {e}", dir.display()),
                )
            }
        },
        None => None,
    };

    let n = rp.instances.len();
    let mut rdeps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, inst) in rp.instances.iter().enumerate() {
        for &d in &inst.deps {
            rdeps[d].push(i);
        }
    }

    struct State {
        ready: BinaryHeap<Reverse<usize>>,
        remaining: Vec<usize>,
        results: Vec<Option<Arc<StageResult>>>,
        pending: usize,
        error: Option<ExecError>,
    }
    let state = Mutex::new(State {
        ready: rp
            .instances
            .iter()
            .enumerate()
            .filter(|(_, inst)| inst.deps.is_empty())
            .map(|(i, _)| Reverse(i))
            .collect(),
        remaining: rp.instances.iter().map(|inst| inst.deps.len()).collect(),
        results: vec![None; n],
        pending: n,
        error: None,
    });
    let cv = Condvar::new();

    let workers = if opts.workers == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(8)
    } else {
        opts.workers
    }
    .max(1);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // Claim the smallest ready instance and snapshot its deps.
                let (idx, deps) = {
                    let mut st = state.lock().expect("executor state poisoned");
                    let idx = loop {
                        if st.error.is_some() || st.pending == 0 {
                            return;
                        }
                        match st.ready.pop() {
                            Some(Reverse(i)) => break i,
                            None => st = cv.wait(st).expect("executor state poisoned"),
                        }
                    };
                    let deps: Vec<(usize, Arc<StageResult>)> = rp.instances[idx]
                        .deps
                        .iter()
                        .map(|&d| (d, st.results[d].clone().expect("dep scheduled first")))
                        .collect();
                    (idx, deps)
                };

                let out = run_instance(rp, idx, &keys[idx], &deps, cache.as_ref());

                let mut st = state.lock().expect("executor state poisoned");
                match out {
                    Ok(rs) => {
                        st.results[idx] = Some(Arc::new(rs));
                        st.pending -= 1;
                        for &c in &rdeps[idx] {
                            st.remaining[c] -= 1;
                            if st.remaining[c] == 0 {
                                st.ready.push(Reverse(c));
                            }
                        }
                        cv.notify_all();
                    }
                    Err(e) => {
                        st.error.get_or_insert(e);
                        cv.notify_all();
                        return;
                    }
                }
            });
        }
    });

    let st = state.into_inner().expect("executor state poisoned");
    if let Some(e) = st.error {
        return Err(e);
    }
    let results: Vec<StageResult> = st
        .results
        .into_iter()
        .map(|r| (*r.expect("all pending drained")).clone())
        .collect();

    let mut reports = Vec::new();
    for (si, stage) in rp.plan.stages.iter().enumerate() {
        if stage.kind != StageKind::Report {
            continue;
        }
        for (i, inst) in rp.instances.iter().enumerate() {
            if inst.stage != si {
                continue;
            }
            match results[i].artifact.get("text").and_then(|t| t.as_str()) {
                Some(text) => reports.push((stage.name.clone(), text.to_string())),
                None => return fail(&inst.id, "report artifact carries no text"),
            }
        }
    }
    Ok(PlanOutcome { results, reports })
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// Content-addressed keys for every instance, computed *before* execution
/// from the plan alone (report/compare keys fold in their dependencies'
/// keys, in instance order).
fn instance_keys(rp: &ResolvedPlan) -> Result<Vec<String>, ExecError> {
    let mut keys: Vec<Option<String>> = vec![None; rp.instances.len()];
    for &i in &rp.topo {
        let inst = &rp.instances[i];
        let stage = &rp.plan.stages[inst.stage];
        let input = match stage.kind {
            StageKind::Partition => {
                let ranks = coord_int(rp, i, Axis::Ranks)?;
                format!("{STAGE_SCHEMA};kind=partition;ranks=i:{ranks};")
            }
            StageKind::Run => {
                let setup = run_setup(rp, i)?;
                let kind = match setup.mode {
                    RunMode::Plain => "run",
                    RunMode::Uncapped => "uncapped",
                    RunMode::Campaign { .. } => "campaign",
                };
                let extra = match setup.mode {
                    RunMode::Campaign { seeds, .. } => format!("seeds=i:{seeds};"),
                    _ => String::new(),
                };
                format!(
                    "{STAGE_SCHEMA};kind={kind};{extra}{}",
                    canonical_request(&setup.req)
                )
            }
            StageKind::Report | StageKind::Compare => {
                let kind = if stage.kind == StageKind::Report {
                    "report"
                } else {
                    "compare"
                };
                let template = match (stage.report, stage.compare) {
                    (Some(ReportTemplate::WeakScaling), _) => "weak-scaling",
                    (Some(ReportTemplate::Table3), _) => "table3",
                    (Some(ReportTemplate::SolverVariants), _) => "solver-variants",
                    (_, Some(CompareTemplate::MaxFeasibleRanks)) => "max-feasible-ranks",
                    (_, Some(CompareTemplate::SpotUndercutsOnDemand)) => "spot-undercuts-on-demand",
                    _ => return fail(&inst.id, "report/compare stage without a template"),
                };
                let mut input = format!("{STAGE_SCHEMA};kind={kind};template=e:{template};");
                for (name, v) in &stage.expect {
                    input.push_str(&format!("expect.{name}=i:{v};"));
                }
                if let Some(m) = stage.max_ranks {
                    input.push_str(&format!("max_ranks=i:{m};"));
                }
                input.push_str("deps=[");
                for &d in &inst.deps {
                    input.push_str(keys[d].as_deref().expect("topo order"));
                    input.push(',');
                }
                input.push_str("];");
                input
            }
        };
        keys[i] = Some(format!("{STAGE_SCHEMA}/{}", sha256_hex(input.as_bytes())));
    }
    Ok(keys.into_iter().map(|k| k.expect("all visited")).collect())
}

// ---------------------------------------------------------------------------
// Request construction
// ---------------------------------------------------------------------------

enum RunMode {
    /// Plain `execute` through the platform's real limits.
    Plain,
    /// What-if uniform-topology cell via the modeled engine.
    Uncapped,
    /// Seed-averaged fault campaign via `execute_resilient`.
    Campaign { spec: ResilienceSpec, seeds: usize },
}

struct RunSetup {
    req: RunRequest,
    mode: RunMode,
}

fn coord_int(rp: &ResolvedPlan, i: usize, axis: Axis) -> Result<u64, ExecError> {
    let inst = &rp.instances[i];
    match inst.coord(axis) {
        Some(Coord::Int(v)) => Ok(*v),
        _ => fail(&inst.id, format!("needs an integer `{}` axis", axis.key())),
    }
}

fn coord_str(rp: &ResolvedPlan, i: usize, axis: Axis) -> Result<&str, ExecError> {
    let inst = &rp.instances[i];
    match inst.coord(axis) {
        Some(Coord::Str(s)) => Ok(s),
        _ => fail(&inst.id, format!("needs a `{}` axis", axis.key())),
    }
}

/// Builds the run request (and mode) of a run instance — the single place
/// that maps plan coordinates onto a `core::run` request, through the same
/// [`ScenarioOptions::request`](hetero_hpc::scenarios::ScenarioOptions::request)
/// the legacy scenario sweeps build theirs with.
fn run_setup(rp: &ResolvedPlan, i: usize) -> Result<RunSetup, ExecError> {
    let inst = &rp.instances[i];
    let stage = &rp.plan.stages[inst.stage];
    let opts = &rp.plan.options;
    let ranks = coord_int(rp, i, Axis::Ranks)? as usize;
    let platform = catalog::by_key(coord_str(rp, i, Axis::Platform)?)
        .expect("platform keys are validated at extraction");
    let mut app = match stage.app {
        Some(AppKind::Rd) => App::paper_rd(opts.steps),
        Some(AppKind::Ns) => App::paper_ns(opts.steps),
        None => return fail(&inst.id, "run stage without an `app`"),
    };

    let variant = match inst.coord(Axis::Variant) {
        Some(Coord::Str(s)) => Some(parse_variant(s).expect("validated at extraction")),
        _ => None,
    };

    let mode = if stage.uncapped {
        // The what-if path folds the override into the app config itself
        // (it drives the modeled engine directly, not `execute`).
        if let Some(v) = variant {
            app = app.with_solver_variant(v);
        }
        RunMode::Uncapped
    } else if let Some(policy) = stage.policy {
        let res = rp
            .plan
            .resilience
            .as_ref()
            .expect("policy implies [resilience] at extraction");
        let spec = match policy {
            PolicyKind::OnDemand => ResilienceSpec {
                policy: ResiliencePolicy::restart(0, res.max_restarts),
                ..ResilienceSpec::on_demand(&platform)
            },
            PolicyKind::SpotWithRestart => {
                let cadence = coord_int(rp, i, Axis::Cadence)? as usize;
                ResilienceSpec::spot_with_restart(&platform, res.max_bid, cadence, res.max_restarts)
            }
        };
        RunMode::Campaign {
            spec,
            seeds: res.seeds,
        }
    } else {
        RunMode::Plain
    };

    let uncapped = matches!(mode, RunMode::Uncapped);
    let req = RunRequest {
        solver_variant: if uncapped { None } else { variant },
        resilience: match &mode {
            RunMode::Campaign { spec, .. } => Some(spec.clone()),
            _ => None,
        },
        ..opts.scenario().request(&platform, app, ranks)
    };
    Ok(RunSetup { req, mode })
}

// ---------------------------------------------------------------------------
// Instance execution + cache
// ---------------------------------------------------------------------------

fn run_instance(
    rp: &ResolvedPlan,
    i: usize,
    key: &str,
    deps: &[(usize, Arc<StageResult>)],
    cache: Option<&ArtifactStore>,
) -> Result<StageResult, ExecError> {
    let id = rp.instances[i].id.clone();
    let hit = cache.and_then(|store| match get_artifact(store, key) {
        Lookup::Hit(artifact) => Some(artifact),
        Lookup::Miss | Lookup::Quarantined => None,
    });
    let cached = hit.is_some();
    let artifact = match hit {
        Some(artifact) => artifact,
        None => {
            let artifact = compute_artifact(rp, i, deps)?;
            if let Some(store) = cache {
                if let Err(e) = put_artifact(store, key, &artifact) {
                    return fail(&id, format!("cache write failed: {e}"));
                }
            }
            artifact
        }
    };
    Ok(StageResult {
        id,
        key: key.to_string(),
        cached,
        artifact,
    })
}

/// The `Value`-typed view of the store: an artifact is its compact JSON
/// text.
fn get_artifact(store: &ArtifactStore, key: &str) -> Lookup<Value> {
    store.get(key, |text| serde_json::from_str(text).ok())
}

fn put_artifact(store: &ArtifactStore, key: &str, artifact: &Value) -> std::io::Result<()> {
    let text = serde_json::to_string(artifact).expect("a Value serializes infallibly");
    store.put(key, &text)
}

fn compute_artifact(
    rp: &ResolvedPlan,
    i: usize,
    deps: &[(usize, Arc<StageResult>)],
) -> Result<Value, ExecError> {
    let inst = &rp.instances[i];
    let stage = &rp.plan.stages[inst.stage];
    match stage.kind {
        StageKind::Partition => {
            let ranks = coord_int(rp, i, Axis::Ranks)? as usize;
            let f = near_cubic_factors(ranks);
            if f.0 * f.1 * f.2 != ranks {
                return fail(
                    &inst.id,
                    format!("{ranks} ranks do not factor near-cubically"),
                );
            }
            Ok(json!({ "ranks": ranks, "factors": [f.0, f.1, f.2] }))
        }
        StageKind::Run => {
            let setup = run_setup(rp, i)?;
            match setup.mode {
                RunMode::Plain => Ok(match execute(&setup.req) {
                    Ok(out) => json!({ "ok": value_of(&inst.id, &out)? }),
                    Err(e) => json!({ "infeasible": value_of(&inst.id, &e)? }),
                }),
                RunMode::Uncapped => {
                    let phases = uncapped_cell(
                        &setup.req.platform,
                        &setup.req.app,
                        setup.req.ranks,
                        &rp.plan.options.scenario(),
                    );
                    Ok(json!({ "phases": value_of(&inst.id, &phases)? }))
                }
                RunMode::Campaign { spec, seeds } => {
                    let cell = match campaign_cell(&setup.req, &spec, seeds) {
                        Ok(cell) => cell,
                        Err(e) => return fail(&inst.id, format!("campaign infeasible: {e}")),
                    };
                    Ok(json!({ "cell": value_of(&inst.id, &cell)? }))
                }
            }
        }
        StageKind::Report => match stage.report.expect("validated at extraction") {
            ReportTemplate::WeakScaling => {
                let table = weak_scaling_table(rp, i, deps)?;
                Ok(json!({ "text": render_weak_scaling(&table) }))
            }
            ReportTemplate::Table3 => {
                let rows = table3_rows(rp, i, deps)?;
                Ok(json!({ "text": render_table3(&rows) }))
            }
            ReportTemplate::SolverVariants => {
                let rows = solver_variant_rows(rp, i, deps)?;
                Ok(json!({ "text": render_solver_variants(&rows) }))
            }
        },
        StageKind::Compare => match stage.compare.expect("validated at extraction") {
            CompareTemplate::MaxFeasibleRanks => {
                let table = weak_scaling_table(rp, i, deps)?;
                let mut checked = Vec::new();
                for (platform, expected) in &stage.expect {
                    let got = table.max_feasible_ranks(platform) as u64;
                    if got != *expected {
                        return fail(
                            &inst.id,
                            format!(
                                "max feasible ranks on {platform}: expected {expected}, got {got}"
                            ),
                        );
                    }
                    checked.push(json!({ "platform": platform, "max_ranks": got }));
                }
                Ok(json!({ "passed": true, "max_feasible": checked }))
            }
            CompareTemplate::SpotUndercutsOnDemand => {
                let rows = table3_rows(rp, i, deps)?;
                let cap = stage.max_ranks.unwrap_or(u64::MAX);
                let mut checked = Vec::new();
                for row in rows.iter().filter(|r| (r.ranks as u64) <= cap) {
                    let best = row.best_cadence();
                    let spot = &row
                        .spot
                        .iter()
                        .find(|&&(c, _)| c == best)
                        .expect("best cadence came from the sweep")
                        .1;
                    if spot.expected_dollars >= row.on_demand.expected_dollars {
                        return fail(
                            &inst.id,
                            format!(
                                "at {} ranks, best-cadence spot (${:.2}) does not undercut \
                                 on-demand (${:.2})",
                                row.ranks, spot.expected_dollars, row.on_demand.expected_dollars
                            ),
                        );
                    }
                    checked.push(row.ranks);
                }
                Ok(json!({ "passed": true, "ranks_checked": checked }))
            }
        },
    }
}

fn value_of<T: Serialize>(id: &str, v: &T) -> Result<Value, ExecError> {
    match serde_json::to_value(v) {
        Ok(v) => Ok(v),
        Err(e) => fail(id, format!("artifact serialization failed: {e}")),
    }
}

// ---------------------------------------------------------------------------
// Report/compare assembly
// ---------------------------------------------------------------------------

/// The needed stage satisfying `pred`, as (stage index, definition).
fn needed_stage<'a>(
    rp: &'a ResolvedPlan,
    i: usize,
    what: &str,
    pred: impl Fn(&StageDef) -> bool,
) -> Result<(usize, &'a StageDef), ExecError> {
    let inst = &rp.instances[i];
    let stage = &rp.plan.stages[inst.stage];
    let mut found = None;
    for (need, _) in &stage.needs {
        let si = rp
            .plan
            .stages
            .iter()
            .position(|s| s.name == *need)
            .expect("needs are validated at resolution");
        if pred(&rp.plan.stages[si]) {
            if found.is_some() {
                return fail(
                    &inst.id,
                    format!("needs exactly one {what} stage, found two"),
                );
            }
            found = Some((si, &rp.plan.stages[si]));
        }
    }
    match found {
        Some(f) => Ok(f),
        None => fail(&inst.id, format!("needs a {what} stage")),
    }
}

/// The dep artifact of the `stage_idx` instance matching `coords`.
fn dep_artifact<'a>(
    rp: &ResolvedPlan,
    id: &str,
    deps: &'a [(usize, Arc<StageResult>)],
    stage_idx: usize,
    coords: &[(Axis, Coord)],
) -> Result<&'a Value, ExecError> {
    for (j, rs) in deps {
        let inst = &rp.instances[*j];
        if inst.stage == stage_idx && coords.iter().all(|(a, c)| inst.coord(*a) == Some(c)) {
            return Ok(&rs.artifact);
        }
    }
    fail(
        id,
        format!(
            "no dependency instance of `{}` matches {:?}",
            rp.plan.stages[stage_idx].name, coords
        ),
    )
}

fn decode<T: Deserialize>(id: &str, v: &Value, what: &str) -> Result<T, ExecError> {
    match T::deserialize_value(v) {
        Ok(t) => Ok(t),
        Err(e) => fail(id, format!("malformed {what} artifact: {e}")),
    }
}

fn decode_cell(id: &str, v: &Value) -> Result<Cell, ExecError> {
    if let Some(ok) = v.get("ok") {
        return Ok(Ok(decode::<RunOutcome>(id, ok, "run")?));
    }
    if let Some(e) = v.get("infeasible") {
        return Ok(Err(decode::<LimitViolation>(id, e, "limit")?));
    }
    fail(id, "run artifact carries neither `ok` nor `infeasible`")
}

/// Rebuilds a [`WeakScalingTable`] from a plain run stage swept over
/// `ranks` × `platform` — the same struct the legacy `fig4`/`fig5` path
/// builds, so `render_weak_scaling` output is byte-identical.
fn weak_scaling_table(
    rp: &ResolvedPlan,
    i: usize,
    deps: &[(usize, Arc<StageResult>)],
) -> Result<WeakScalingTable, ExecError> {
    let id = &rp.instances[i].id;
    let (si, run) = needed_stage(rp, i, "plain run", |s| {
        s.kind == StageKind::Run && s.policy.is_none() && !s.uncapped
    })?;
    let (ranks_vals, platform_vals) = match (
        run.axis_values(Axis::Ranks),
        run.axis_values(Axis::Platform),
    ) {
        (Some(r), Some(p)) => (r, p),
        _ => {
            return fail(
                id,
                format!("run stage `{}` must sweep `ranks` and `platform`", run.name),
            )
        }
    };
    let app = match run.app {
        Some(AppKind::Rd) => "RD",
        Some(AppKind::Ns) => "NS",
        None => return fail(id, format!("run stage `{}` has no app", run.name)),
    };
    let mut rows = Vec::new();
    for r in ranks_vals {
        let mut cells = Vec::new();
        for p in platform_vals {
            let coords = [(Axis::Ranks, r.clone()), (Axis::Platform, p.clone())];
            let v = dep_artifact(rp, id, deps, si, &coords)?;
            cells.push((p.to_string(), decode_cell(id, v)?));
        }
        match r {
            Coord::Int(ranks) => rows.push(WeakScalingRow {
                ranks: *ranks as usize,
                cells,
            }),
            Coord::Str(_) => return fail(id, "`ranks` axis must be integers"),
        }
    }
    Ok(WeakScalingTable { app, rows })
}

/// Rebuilds [`Table3Row`]s from an on-demand and a spot campaign stage —
/// the same struct the legacy `table3` path builds.
fn table3_rows(
    rp: &ResolvedPlan,
    i: usize,
    deps: &[(usize, Arc<StageResult>)],
) -> Result<Vec<Table3Row>, ExecError> {
    let id = &rp.instances[i].id;
    let (od_idx, od) = needed_stage(rp, i, "on-demand campaign", |s| {
        s.policy == Some(PolicyKind::OnDemand)
    })?;
    let (spot_idx, spot) = needed_stage(rp, i, "spot-with-restart campaign", |s| {
        s.policy == Some(PolicyKind::SpotWithRestart)
    })?;
    let ranks_vals = od.axis_values(Axis::Ranks).ok_or(()).or_else(|_| {
        fail(
            id,
            format!("campaign stage `{}` must sweep `ranks`", od.name),
        )
    })?;
    let cadence_vals = spot.axis_values(Axis::Cadence).ok_or(()).or_else(|_| {
        fail(
            id,
            format!("campaign stage `{}` must sweep `cadence`", spot.name),
        )
    })?;
    let platform = match od.axis_values(Axis::Platform) {
        Some([Coord::Str(p)]) => catalog::by_key(p).expect("validated at extraction"),
        _ => {
            return fail(
                id,
                format!("campaign stage `{}` must fix one `platform`", od.name),
            )
        }
    };
    let mut rows = Vec::new();
    for r in ranks_vals {
        let ranks = match r {
            Coord::Int(v) => *v as usize,
            Coord::Str(_) => return fail(id, "`ranks` axis must be integers"),
        };
        let od_coords = [(Axis::Ranks, r.clone())];
        let v = dep_artifact(rp, id, deps, od_idx, &od_coords)?;
        let on_demand: Table3Cell = decode(id, v.field("cell"), "campaign cell")?;
        let mut spot_cells = Vec::new();
        for c in cadence_vals {
            let cadence = match c {
                Coord::Int(v) => *v as usize,
                Coord::Str(_) => return fail(id, "`cadence` axis must be integers"),
            };
            let coords = [(Axis::Ranks, r.clone()), (Axis::Cadence, c.clone())];
            let v = dep_artifact(rp, id, deps, spot_idx, &coords)?;
            spot_cells.push((cadence, decode(id, v.field("cell"), "campaign cell")?));
        }
        rows.push(Table3Row {
            ranks,
            nodes: platform.nodes_for(ranks),
            on_demand,
            spot: spot_cells,
        });
    }
    Ok(rows)
}

/// Rebuilds [`SolverVariantRow`]s from an uncapped run stage swept over
/// `platform` × `ranks` × `variant`.
fn solver_variant_rows(
    rp: &ResolvedPlan,
    i: usize,
    deps: &[(usize, Arc<StageResult>)],
) -> Result<Vec<SolverVariantRow>, ExecError> {
    let id = &rp.instances[i].id;
    let (si, run) = needed_stage(rp, i, "uncapped run", |s| s.uncapped)?;
    let (Some(platform_vals), Some(ranks_vals)) = (
        run.axis_values(Axis::Platform),
        run.axis_values(Axis::Ranks),
    ) else {
        return fail(
            id,
            format!("run stage `{}` must sweep `platform` and `ranks`", run.name),
        );
    };
    let variants = ["blocking", "overlapped", "pipelined"];
    match run.axis_values(Axis::Variant) {
        Some(vals) if vals == variants.map(|v| Coord::Str(v.to_string())) => {}
        _ => {
            return fail(
                id,
                format!(
                    "run stage `{}` must sweep `variant` over exactly [blocking, overlapped, pipelined]",
                    run.name
                ),
            )
        }
    }
    let mut rows = Vec::new();
    for p in platform_vals {
        for r in ranks_vals {
            let ranks = match r {
                Coord::Int(v) => *v as usize,
                Coord::Str(_) => return fail(id, "`ranks` axis must be integers"),
            };
            let mut times = [0.0f64; 3];
            for (t, name) in times.iter_mut().zip(variants) {
                let coords = [
                    (Axis::Platform, p.clone()),
                    (Axis::Ranks, r.clone()),
                    (Axis::Variant, Coord::Str(name.to_string())),
                ];
                let v = dep_artifact(rp, id, deps, si, &coords)?;
                *t = match v.field("phases").field("solve").as_f64() {
                    Some(t) => t,
                    None => return fail(id, "uncapped artifact carries no solve time"),
                };
            }
            rows.push(SolverVariantRow {
                platform: p.to_string(),
                ranks,
                times,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stage-artifact view adds nothing to the store's rules: a key
    /// that is not `<tag>/<64 hex>` never reaches the filesystem, and a
    /// body whose hash verifies but which is not JSON is quarantined once.
    #[test]
    fn the_artifact_view_rejects_bad_keys_and_quarantines_undecodable_bodies() {
        let dir =
            std::env::temp_dir().join(format!("hetero-plan-exec-view-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).expect("scratch dir");
        let artifact = json!({ "text": "a report" });

        let hex63 = format!("{STAGE_SCHEMA}/{}", "a".repeat(63));
        let dotted = format!("{STAGE_SCHEMA}/{}.{}", "a".repeat(32), "a".repeat(31));
        for key in ["../x", "", hex63.as_str(), dotted.as_str()] {
            assert!(matches!(get_artifact(&store, key), Lookup::Miss), "{key:?}");
            let err = put_artifact(&store, key, &artifact).expect_err(key);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{key:?}");
        }

        let key = format!("{STAGE_SCHEMA}/{}", "a".repeat(64));
        put_artifact(&store, &key, &artifact).expect("publish");
        assert!(matches!(get_artifact(&store, &key), Lookup::Hit(a) if a == artifact));
        store.put(&key, "not json {").expect("publish");
        assert!(matches!(get_artifact(&store, &key), Lookup::Quarantined));
        assert!(matches!(get_artifact(&store, &key), Lookup::Miss));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `discard` is plan input: past the last step it must reach core's
    /// clamping reducer on every run mode, never a panic.
    #[test]
    fn a_plan_that_discards_more_than_it_steps_executes() {
        let rp = crate::load_str(
            r#"
[plan]
name = "over-discard"
description = "Discards more warm-up iterations than the run has steps"

[options]
per_rank_axis = 3
max_k = 2
steps = 2
discard = 5
fidelity = "auto"

[[stage]]
name = "plain"
kind = "run"
app = "rd"

[stage.sweep]
ranks = "ladder"
platform = ["puma"]

[[stage]]
name = "what-if"
kind = "run"
app = "rd"
uncapped = true

[stage.sweep]
ranks = [27]
platform = ["puma"]
"#,
        )
        .expect("the plan is valid");
        let out = execute_plan(&rp, &ExecOptions::default()).expect("the plan executes");
        assert_eq!(out.results.len(), 3);
    }
}
