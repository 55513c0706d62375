//! The typed campaign-plan schema, extracted from parsed TOML.
//!
//! A plan is `[plan]` metadata, `[options]` mirroring
//! [`hetero_hpc::scenarios::ScenarioOptions`], an optional
//! `[resilience]` block for fault campaigns, and a sequence of `[[stage]]`
//! entries (partition → run → compare → report) whose `[stage.sweep]`
//! tables span the campaign's axes. Extraction is strict: every key is
//! checked against the schema and unknown keys are rejected with the
//! offending span and the accepted key list — a typo fails the lint, it
//! does not silently drop an axis.

use crate::toml::{Span, Spanned, Table, TomlError, Value};
use hetero_hpc::run::Fidelity;
use hetero_hpc::scenarios::ScenarioOptions;
use hetero_linalg::SolverVariant;
use hetero_platform::catalog;

fn err<T>(span: Span, msg: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError {
        span,
        msg: msg.into(),
    })
}

/// A fully-extracted campaign plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Plan name (`[a-z0-9-]+`), the artifact namespace.
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Scenario knobs shared by every stage.
    pub options: PlanOptions,
    /// Fault-campaign knobs; required by stages with a `policy`.
    pub resilience: Option<ResilienceBlock>,
    /// The stages, in declaration order.
    pub stages: Vec<StageDef>,
}

/// `[options]`: the plan-wide scenario knobs. Defaults are the paper's
/// configuration ([`ScenarioOptions::paper`]).
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Cells per axis per rank.
    pub per_rank_axis: usize,
    /// Largest `k` of the `k^3` rank ladder (`ranks = "ladder"`).
    pub max_k: usize,
    /// Time steps per run.
    pub steps: usize,
    /// Warm-up iterations discarded.
    pub discard: usize,
    /// Engine selection.
    pub fidelity: Fidelity,
    /// Experiment seed.
    pub seed: u64,
}

impl PlanOptions {
    /// The equivalent [`ScenarioOptions`] (no tracing).
    pub fn scenario(&self) -> ScenarioOptions {
        ScenarioOptions {
            per_rank_axis: self.per_rank_axis,
            max_k: self.max_k,
            steps: self.steps,
            discard: self.discard,
            fidelity: self.fidelity,
            seed: self.seed,
            trace: None,
        }
    }

    /// The `k^3` rank ladder.
    pub fn ladder(&self) -> Vec<u64> {
        (1..=self.max_k as u64).map(|k| k * k * k).collect()
    }
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            per_rank_axis: 20,
            max_k: 10,
            steps: 8,
            discard: 5,
            fidelity: Fidelity::Modeled,
            seed: 2012,
        }
    }
}

/// `[resilience]`: knobs for fault campaigns, mirroring
/// [`ResilienceOptions`](hetero_hpc::scenarios::ResilienceOptions).
#[derive(Debug, Clone)]
pub struct ResilienceBlock {
    /// Checkpoint cadences swept by `cadence = "cadences"` (`0` = never).
    pub cadences: Vec<u64>,
    /// Independent seeds averaged into each campaign cell.
    pub seeds: usize,
    /// Restart budget per campaign.
    pub max_restarts: usize,
    /// Spot bid as a multiple of the base price.
    pub max_bid: f64,
}

/// What a stage does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Computes the near-cubic rank factorization (a cheap validation
    /// stage the run stages depend on).
    Partition,
    /// Executes one run (or one seed-averaged fault campaign) per cell.
    Run,
    /// Asserts a property of upstream artifacts.
    Compare,
    /// Renders upstream artifacts into a table.
    Report,
}

/// Which application a run stage executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Reaction–diffusion (paper Section IV-A).
    Rd,
    /// Navier–Stokes (Section IV-B).
    Ns,
}

/// Fault-campaign policy of a run stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// On-demand capacity, crashes only, restart from scratch.
    OnDemand,
    /// Spot-mix fleet under the live market, checkpoint/restart.
    SpotWithRestart,
}

/// Report templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportTemplate {
    /// Figure 4/5 layout via
    /// [`render_weak_scaling`](hetero_hpc::report::render_weak_scaling).
    WeakScaling,
    /// Table III layout via
    /// [`render_table3`](hetero_hpc::report::render_table3).
    Table3,
    /// The solver-schedule comparison via
    /// [`render_solver_variants`](hetero_hpc::report::render_solver_variants).
    SolverVariants,
}

/// Compare templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareTemplate {
    /// Per-platform truncation points match `[stage.expect]`.
    MaxFeasibleRanks,
    /// Best-cadence spot campaigns are cheaper than on-demand through
    /// `max_ranks`.
    SpotUndercutsOnDemand,
}

/// A sweep axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Axis {
    /// MPI rank counts.
    Ranks,
    /// Platform keys from the catalog.
    Platform,
    /// Solver communication schedule.
    Variant,
    /// Checkpoint cadence (fault campaigns).
    Cadence,
}

impl Axis {
    /// The axis's TOML key.
    pub fn key(self) -> &'static str {
        match self {
            Axis::Ranks => "ranks",
            Axis::Platform => "platform",
            Axis::Variant => "variant",
            Axis::Cadence => "cadence",
        }
    }

    fn from_key(key: &str) -> Option<Axis> {
        match key {
            "ranks" => Some(Axis::Ranks),
            "platform" => Some(Axis::Platform),
            "variant" => Some(Axis::Variant),
            "cadence" => Some(Axis::Cadence),
            _ => None,
        }
    }
}

/// One concrete value on an axis.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Coord {
    /// An integer axis value (`ranks`, `cadence`).
    Int(u64),
    /// A string axis value (`platform`, `variant`).
    Str(String),
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Coord::Int(v) => write!(f, "{v}"),
            Coord::Str(s) => write!(f, "{s}"),
        }
    }
}

/// The values an axis sweeps, in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisValues {
    /// The axis.
    pub axis: Axis,
    /// Concrete values (ladder/cadence shorthands already expanded).
    pub values: Vec<Coord>,
}

/// One `[[stage]]` entry.
#[derive(Debug, Clone)]
pub struct StageDef {
    /// Stage name, unique within the plan.
    pub name: String,
    /// Span of the stage's `name` key (anchor for resolver errors).
    pub span: Span,
    /// What the stage does.
    pub kind: StageKind,
    /// Application (run stages).
    pub app: Option<AppKind>,
    /// Fault-campaign policy (run stages; `None` = plain execution).
    pub policy: Option<PolicyKind>,
    /// What-if mode: an uncapped uniform topology driven through the
    /// modeled engine directly, skipping the platform's capacity limits.
    pub uncapped: bool,
    /// Report template (report stages).
    pub report: Option<ReportTemplate>,
    /// Compare template (compare stages).
    pub compare: Option<CompareTemplate>,
    /// Names of the stages this one needs, with spans.
    pub needs: Vec<(String, Span)>,
    /// `max_ranks` knob of the spot-undercuts-on-demand compare.
    pub max_ranks: Option<u64>,
    /// `[stage.expect]` entries of the max-feasible-ranks compare.
    pub expect: Vec<(String, u64)>,
    /// Sweep axes in declaration order (first axis outermost); fixed
    /// stage-level axis values are appended as single-value axes.
    pub sweep: Vec<AxisValues>,
}

impl StageDef {
    /// The values of `axis`, if the stage sweeps (or fixes) it.
    pub fn axis_values(&self, axis: Axis) -> Option<&[Coord]> {
        self.sweep
            .iter()
            .find(|a| a.axis == axis)
            .map(|a| a.values.as_slice())
    }
}

/// Extracts a [`Plan`] from a parsed TOML document.
pub fn extract(root: &Table) -> Result<Plan, TomlError> {
    deny_unknown(
        root,
        "the plan root",
        &["plan", "options", "resilience", "stage"],
    )?;

    let plan_table = require_table(root, "plan")?;
    deny_unknown(plan_table, "[plan]", &["name", "description"])?;
    let name = require_str(plan_table, "[plan]", "name")?;
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    {
        let (span, _) = plan_table.get_with_span("name").expect("required above");
        return err(
            span,
            format!("plan name `{name}` must be non-empty lowercase [a-z0-9-]"),
        );
    }
    let description = require_str(plan_table, "[plan]", "description")?;

    let options = match root.get("options") {
        None => PlanOptions::default(),
        Some(v) => extract_options(as_table(v, "options")?)?,
    };
    let resilience = match root.get("resilience") {
        None => None,
        Some(v) => Some(extract_resilience(as_table(v, "resilience")?)?),
    };

    let stage_tables: Vec<&Table> = match root.get("stage") {
        None => Vec::new(),
        Some(Spanned {
            value: Value::TableArray(ts),
            ..
        }) => ts.iter().collect(),
        Some(other) => {
            return err(
                other.span,
                format!(
                    "`stage` must be an array of tables, found {}",
                    other.value.type_name()
                ),
            )
        }
    };
    if stage_tables.is_empty() {
        return err(root.span, "a plan needs at least one [[stage]]");
    }
    let mut stages = Vec::new();
    for t in stage_tables {
        stages.push(extract_stage(t, &options, resilience.as_ref())?);
    }

    Ok(Plan {
        name,
        description,
        options,
        resilience,
        stages,
    })
}

fn deny_unknown(table: &Table, context: &str, allowed: &[&str]) -> Result<(), TomlError> {
    for (key, span, _) in &table.entries {
        if !allowed.contains(&key.as_str()) {
            return err(
                *span,
                format!(
                    "unknown key `{key}` in {context} (expected one of: {})",
                    allowed.join(", ")
                ),
            );
        }
    }
    Ok(())
}

fn as_table<'a>(v: &'a Spanned, name: &str) -> Result<&'a Table, TomlError> {
    match &v.value {
        Value::Table(t) => Ok(t),
        other => err(
            v.span,
            format!("`{name}` must be a table, found {}", other.type_name()),
        ),
    }
}

fn require_table<'a>(root: &'a Table, name: &str) -> Result<&'a Table, TomlError> {
    match root.get(name) {
        Some(v) => as_table(v, name),
        None => err(root.span, format!("missing required [{name}] table")),
    }
}

fn require_str(table: &Table, context: &str, key: &str) -> Result<String, TomlError> {
    match table.get(key) {
        Some(v) => get_str(v, key),
        None => err(
            table.span,
            format!("missing required key `{key}` in {context}"),
        ),
    }
}

fn get_str(v: &Spanned, key: &str) -> Result<String, TomlError> {
    match &v.value {
        Value::Str(s) => Ok(s.clone()),
        other => err(
            v.span,
            format!("`{key}` must be a string, found {}", other.type_name()),
        ),
    }
}

fn get_u64(v: &Spanned, key: &str) -> Result<u64, TomlError> {
    match &v.value {
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        Value::Int(i) => err(v.span, format!("`{key}` must be non-negative, found {i}")),
        other => err(
            v.span,
            format!("`{key}` must be an integer, found {}", other.type_name()),
        ),
    }
}

fn get_f64(v: &Spanned, key: &str) -> Result<f64, TomlError> {
    match &v.value {
        Value::Float(x) => Ok(*x),
        Value::Int(i) => Ok(*i as f64),
        other => err(
            v.span,
            format!("`{key}` must be a number, found {}", other.type_name()),
        ),
    }
}

fn get_bool(v: &Spanned, key: &str) -> Result<bool, TomlError> {
    match &v.value {
        Value::Bool(b) => Ok(*b),
        other => err(
            v.span,
            format!("`{key}` must be a boolean, found {}", other.type_name()),
        ),
    }
}

fn get_u64_array(v: &Spanned, key: &str) -> Result<Vec<u64>, TomlError> {
    match &v.value {
        Value::Array(items) => items.iter().map(|it| get_u64(it, key)).collect(),
        other => err(
            v.span,
            format!(
                "`{key}` must be an array of integers, found {}",
                other.type_name()
            ),
        ),
    }
}

fn extract_options(t: &Table) -> Result<PlanOptions, TomlError> {
    deny_unknown(
        t,
        "[options]",
        &[
            "per_rank_axis",
            "max_k",
            "steps",
            "discard",
            "fidelity",
            "seed",
        ],
    )?;
    let mut o = PlanOptions::default();
    if let Some(v) = t.get("per_rank_axis") {
        o.per_rank_axis = get_u64(v, "per_rank_axis")?.max(1) as usize;
    }
    if let Some(v) = t.get("max_k") {
        o.max_k = get_u64(v, "max_k")?.max(1) as usize;
    }
    if let Some(v) = t.get("steps") {
        o.steps = get_u64(v, "steps")? as usize;
    }
    if let Some(v) = t.get("discard") {
        o.discard = get_u64(v, "discard")? as usize;
    }
    if let Some(v) = t.get("fidelity") {
        o.fidelity = match get_str(v, "fidelity")?.as_str() {
            "numerical" => Fidelity::Numerical,
            "modeled" => Fidelity::Modeled,
            "auto" => Fidelity::Auto,
            other => {
                return err(
                    v.span,
                    format!(
                        "unknown fidelity `{other}` (expected one of: auto, modeled, numerical)"
                    ),
                )
            }
        };
    }
    if let Some(v) = t.get("seed") {
        o.seed = get_u64(v, "seed")?;
    }
    Ok(o)
}

fn extract_resilience(t: &Table) -> Result<ResilienceBlock, TomlError> {
    deny_unknown(
        t,
        "[resilience]",
        &["cadences", "seeds", "max_restarts", "max_bid"],
    )?;
    let mut r = ResilienceBlock {
        cadences: vec![1, 4, 16, 64, 0],
        seeds: 8,
        max_restarts: 60,
        max_bid: 1.0,
    };
    if let Some(v) = t.get("cadences") {
        r.cadences = get_u64_array(v, "cadences")?;
        if r.cadences.is_empty() {
            return err(v.span, "`cadences` must not be empty");
        }
    }
    if let Some(v) = t.get("seeds") {
        r.seeds = get_u64(v, "seeds")?.max(1) as usize;
    }
    if let Some(v) = t.get("max_restarts") {
        r.max_restarts = get_u64(v, "max_restarts")? as usize;
    }
    if let Some(v) = t.get("max_bid") {
        r.max_bid = get_f64(v, "max_bid")?;
    }
    Ok(r)
}

const STAGE_KEYS: &[&str] = &[
    "name",
    "kind",
    "app",
    "policy",
    "uncapped",
    "template",
    "needs",
    "max_ranks",
    "platform",
    "ranks",
    "variant",
    "cadence",
    "sweep",
    "expect",
];

fn extract_stage(
    t: &Table,
    options: &PlanOptions,
    resilience: Option<&ResilienceBlock>,
) -> Result<StageDef, TomlError> {
    deny_unknown(t, "[[stage]]", STAGE_KEYS)?;
    let name = require_str(t, "[[stage]]", "name")?;
    let (name_span, _) = t.get_with_span("name").expect("required above");
    let context = format!("[[stage]] `{name}`");

    let kind_value = match t.get("kind") {
        Some(v) => v,
        None => return err(t.span, format!("missing required key `kind` in {context}")),
    };
    let kind = match get_str(kind_value, "kind")?.as_str() {
        "partition" => StageKind::Partition,
        "run" => StageKind::Run,
        "compare" => StageKind::Compare,
        "report" => StageKind::Report,
        other => {
            return err(
                kind_value.span,
                format!(
                "unknown stage kind `{other}` (expected one of: compare, partition, report, run)"
            ),
            )
        }
    };

    let app = match t.get("app") {
        None => None,
        Some(v) => Some(match get_str(v, "app")?.as_str() {
            "rd" => AppKind::Rd,
            "ns" => AppKind::Ns,
            other => {
                return err(v.span, format!("unknown app `{other}` (expected rd or ns)"));
            }
        }),
    };
    let policy = match t.get("policy") {
        None => None,
        Some(v) => Some(match get_str(v, "policy")?.as_str() {
            "on-demand" => PolicyKind::OnDemand,
            "spot-with-restart" => PolicyKind::SpotWithRestart,
            other => {
                return err(
                    v.span,
                    format!("unknown policy `{other}` (expected on-demand or spot-with-restart)"),
                )
            }
        }),
    };
    if policy.is_some() && resilience.is_none() {
        return err(
            t.span,
            format!("{context} has a `policy` but the plan has no [resilience] block"),
        );
    }
    let uncapped = match t.get("uncapped") {
        None => false,
        Some(v) => get_bool(v, "uncapped")?,
    };
    let needs = match t.get("needs") {
        None => Vec::new(),
        Some(v) => match &v.value {
            Value::Array(items) => {
                let mut out = Vec::new();
                for it in items {
                    out.push((get_str(it, "needs")?, it.span));
                }
                out
            }
            other => {
                return err(
                    v.span,
                    format!(
                        "`needs` must be an array of stage names, found {}",
                        other.type_name()
                    ),
                )
            }
        },
    };
    let max_ranks = match t.get("max_ranks") {
        None => None,
        Some(v) => Some(get_u64(v, "max_ranks")?),
    };
    let expect = match t.get("expect") {
        None => Vec::new(),
        Some(v) => {
            let et = as_table(v, "expect")?;
            let mut out = Vec::new();
            for (key, _, val) in &et.entries {
                out.push((key.clone(), get_u64(val, key)?));
            }
            out
        }
    };

    // Templates: report and compare stages name one; the valid set depends
    // on the kind.
    let mut report = None;
    let mut compare = None;
    match (kind, t.get("template")) {
        (StageKind::Report, Some(v)) => {
            report = Some(match get_str(v, "template")?.as_str() {
                "weak-scaling" => ReportTemplate::WeakScaling,
                "table3" => ReportTemplate::Table3,
                "solver-variants" => ReportTemplate::SolverVariants,
                other => {
                    return err(
                        v.span,
                        format!(
                            "unknown report template `{other}` (expected one of: solver-variants, table3, weak-scaling)"
                        ),
                    )
                }
            });
        }
        (StageKind::Compare, Some(v)) => {
            compare = Some(match get_str(v, "template")?.as_str() {
                "max-feasible-ranks" => CompareTemplate::MaxFeasibleRanks,
                "spot-undercuts-on-demand" => CompareTemplate::SpotUndercutsOnDemand,
                other => {
                    return err(
                        v.span,
                        format!(
                            "unknown compare template `{other}` (expected one of: max-feasible-ranks, spot-undercuts-on-demand)"
                        ),
                    )
                }
            });
        }
        (StageKind::Report | StageKind::Compare, None) => {
            return err(
                t.span,
                format!("missing required key `template` in {context}"),
            );
        }
        (_, Some(v)) => {
            return err(
                v.span,
                format!("`template` is only valid on report and compare stages, not {context}"),
            );
        }
        (_, None) => {}
    }
    if kind == StageKind::Run && app.is_none() {
        return err(t.span, format!("missing required key `app` in {context}"));
    }

    // Sweep axes (declaration order, first axis outermost), then fixed
    // stage-level axis values appended as single-value axes.
    let mut sweep: Vec<AxisValues> = Vec::new();
    if let Some(v) = t.get("sweep") {
        let st = as_table(v, "sweep")?;
        for (key, span, val) in &st.entries {
            let axis = match Axis::from_key(key) {
                Some(a) => a,
                None => {
                    return err(
                        *span,
                        format!(
                            "unknown sweep axis `{key}` in {context} (expected one of: cadence, platform, ranks, variant)"
                        ),
                    )
                }
            };
            let values = extract_axis_values(axis, val, options, resilience)?;
            sweep.push(AxisValues { axis, values });
        }
    }
    for axis in [Axis::Ranks, Axis::Platform, Axis::Variant, Axis::Cadence] {
        if let Some((span, v)) = t.get_with_span(axis.key()) {
            if sweep.iter().any(|a| a.axis == axis) {
                return err(
                    span,
                    format!(
                        "axis `{}` is both fixed on {context} and swept in [stage.sweep]",
                        axis.key()
                    ),
                );
            }
            let value = match axis {
                Axis::Ranks | Axis::Cadence => Coord::Int(get_u64(v, axis.key())?),
                _ => Coord::Str(get_str(v, axis.key())?),
            };
            let values = validate_axis(axis, vec![(value, v.span)])?;
            sweep.push(AxisValues { axis, values });
        }
    }
    for a in &sweep {
        if a.values.is_empty() {
            return err(
                t.span,
                format!("axis `{}` in {context} has no values", a.axis.key()),
            );
        }
    }

    Ok(StageDef {
        name,
        span: name_span,
        kind,
        app,
        policy,
        uncapped,
        report,
        compare,
        needs,
        max_ranks,
        expect,
        sweep,
    })
}

fn extract_axis_values(
    axis: Axis,
    v: &Spanned,
    options: &PlanOptions,
    resilience: Option<&ResilienceBlock>,
) -> Result<Vec<Coord>, TomlError> {
    let raw: Vec<(Coord, Span)> = match (&v.value, axis) {
        // Shorthands: the rank ladder and the resilience cadence sweep.
        (Value::Str(s), Axis::Ranks) if s == "ladder" => options
            .ladder()
            .into_iter()
            .map(|r| (Coord::Int(r), v.span))
            .collect(),
        (Value::Str(s), Axis::Cadence) if s == "cadences" => match resilience {
            Some(r) => r
                .cadences
                .iter()
                .map(|&c| (Coord::Int(c), v.span))
                .collect(),
            None => {
                return err(
                    v.span,
                    "`cadence = \"cadences\"` needs a [resilience] block",
                )
            }
        },
        (Value::Str(s), _) => {
            return err(
                v.span,
                format!("unknown shorthand `{s}` for axis `{}`", axis.key()),
            )
        }
        (Value::Array(items), Axis::Ranks | Axis::Cadence) => {
            let mut out = Vec::new();
            for it in items {
                out.push((Coord::Int(get_u64(it, axis.key())?), it.span));
            }
            out
        }
        (Value::Array(items), _) => {
            let mut out = Vec::new();
            for it in items {
                out.push((Coord::Str(get_str(it, axis.key())?), it.span));
            }
            out
        }
        (other, _) => {
            return err(
                v.span,
                format!(
                    "axis `{}` must be an array (or a shorthand string), found {}",
                    axis.key(),
                    other.type_name()
                ),
            )
        }
    };
    validate_axis(axis, raw)
}

fn validate_axis(axis: Axis, values: Vec<(Coord, Span)>) -> Result<Vec<Coord>, TomlError> {
    let mut out = Vec::new();
    for (value, span) in values {
        match (axis, &value) {
            (Axis::Ranks, Coord::Int(r)) if *r == 0 => {
                return err(span, "`ranks` values must be positive");
            }
            (Axis::Platform, Coord::Str(key)) if catalog::by_key(key).is_none() => {
                let known: Vec<String> = catalog::all_platforms()
                    .into_iter()
                    .map(|p| p.key)
                    .collect();
                return err(
                    span,
                    format!("unknown platform `{key}` (catalog: {})", known.join(", ")),
                );
            }
            (Axis::Variant, Coord::Str(s)) => {
                parse_variant(s).ok_or(TomlError {
                    span,
                    msg: format!(
                        "unknown solver variant `{s}` (expected one of: blocking, overlapped, pipelined)"
                    ),
                })?;
            }
            _ => {}
        }
        if out.contains(&value) {
            return err(
                span,
                format!("duplicate value `{value}` on axis `{}`", axis.key()),
            );
        }
        out.push(value);
    }
    Ok(out)
}

/// Parses a solver-variant axis value.
pub fn parse_variant(s: &str) -> Option<SolverVariant> {
    match s {
        "blocking" => Some(SolverVariant::Blocking),
        "overlapped" => Some(SolverVariant::Overlapped),
        "pipelined" => Some(SolverVariant::Pipelined),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toml::parse;

    fn plan(doc: &str) -> Result<Plan, TomlError> {
        extract(&parse(doc)?)
    }

    const MINIMAL: &str = r#"
[plan]
name = "t"
description = "test"

[[stage]]
name = "run"
kind = "run"
app = "rd"
platform = "ec2"

[stage.sweep]
ranks = [1, 8]
"#;

    #[test]
    fn minimal_plan_extracts() {
        let p = plan(MINIMAL).expect("valid");
        assert_eq!(p.name, "t");
        assert_eq!(p.stages.len(), 1);
        let s = &p.stages[0];
        assert_eq!(s.kind, StageKind::Run);
        assert_eq!(s.app, Some(AppKind::Rd));
        // Swept axes first, fixed axes appended after.
        assert_eq!(s.sweep[0].axis, Axis::Ranks);
        assert_eq!(s.sweep[1].axis, Axis::Platform);
        assert_eq!(s.sweep[1].values, vec![Coord::Str("ec2".into())]);
    }

    /// The span of `e` points at `key` inside `doc`.
    fn assert_span_points_at(doc: &str, e: &TomlError, key: &str) {
        let line = doc
            .lines()
            .nth(e.span.line - 1)
            .expect("span line in bounds");
        assert!(line[e.span.col - 1..].starts_with(key), "{e}: `{line}`");
    }

    #[test]
    fn unknown_key_is_rejected_with_span_and_candidates() {
        // A typo, and the retired `backend` axis fixed on a stage.
        for (replacement, key) in [
            ("ap = \"rd\"", "ap"),
            ("app = \"rd\"\nbackend = \"matrix-free\"", "backend"),
        ] {
            let doc = MINIMAL.replace("app = \"rd\"", replacement);
            let e = plan(&doc).unwrap_err();
            assert!(
                e.msg.contains(&format!("unknown key `{key}` in [[stage]]")),
                "{e}"
            );
            let (_, candidates) = e.msg.split_once("expected one of:").expect("candidates");
            assert!(
                candidates.contains("platform, ranks, variant, cadence"),
                "{e}"
            );
            assert!(!candidates.contains("backend"), "{e}");
            assert_span_points_at(&doc, &e, key);
        }
    }

    #[test]
    fn unknown_sweep_axis_is_rejected() {
        // A typo, and the retired `backend` axis swept.
        for (replacement, key) in [
            ("rankz = [1, 8]", "rankz"),
            (
                "ranks = [1, 8]\nbackend = [\"assembled\", \"matrix-free\"]",
                "backend",
            ),
        ] {
            let doc = MINIMAL.replace("ranks = [1, 8]", replacement);
            let e = plan(&doc).unwrap_err();
            assert!(
                e.msg.contains(&format!("unknown sweep axis `{key}`")),
                "{e}"
            );
            assert!(
                e.msg
                    .ends_with("(expected one of: cadence, platform, ranks, variant)"),
                "{e}"
            );
            assert_span_points_at(&doc, &e, key);
        }
    }

    #[test]
    fn unknown_platform_lists_the_catalog() {
        let doc = MINIMAL.replace("\"ec2\"", "\"ec3\"");
        let e = plan(&doc).unwrap_err();
        assert!(e.msg.contains("unknown platform `ec3`"), "{e}");
        assert!(e.msg.contains("puma, ellipse, lagrange, ec2"), "{e}");
    }

    #[test]
    fn ladder_shorthand_expands_from_options() {
        let doc =
            MINIMAL.replace("ranks = [1, 8]", "ranks = \"ladder\"") + "\n[options]\nmax_k = 3\n";
        let p = plan(&doc).expect("valid");
        assert_eq!(
            p.stages[0].axis_values(Axis::Ranks).unwrap(),
            &[Coord::Int(1), Coord::Int(8), Coord::Int(27)]
        );
    }

    #[test]
    fn policy_requires_resilience_block() {
        let doc = MINIMAL.replace("app = \"rd\"", "app = \"rd\"\npolicy = \"on-demand\"");
        let e = plan(&doc).unwrap_err();
        assert!(e.msg.contains("no [resilience] block"), "{e}");
    }

    #[test]
    fn fixed_and_swept_axis_conflict() {
        let doc = MINIMAL.replace("ranks = [1, 8]", "ranks = [1, 8]\nplatform = [\"puma\"]");
        let e = plan(&doc).unwrap_err();
        assert!(e.msg.contains("both fixed"), "{e}");
    }

    #[test]
    fn duplicate_axis_values_are_rejected() {
        let doc = MINIMAL.replace("ranks = [1, 8]", "ranks = [8, 8]");
        let e = plan(&doc).unwrap_err();
        assert!(e.msg.contains("duplicate value `8` on axis `ranks`"), "{e}");
    }
}
