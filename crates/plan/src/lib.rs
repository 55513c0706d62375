//! # hetero-plan
//!
//! Declarative TOML campaign plans for the heterogeneity harness: the
//! scenario matrix as *data* instead of code.
//!
//! The paper's core claim is that one simulation harness can target
//! heterogeneous platforms by swapping configuration. This crate extends
//! that stance to the experiment campaigns themselves: a plan file
//! declares platforms × apps × solver variants × resilience policies ×
//! sweep axes plus stage dependencies
//! (partition → run → compare → report), and the harness resolves and
//! executes it — a new sweep is a ~20-line TOML diff, not new Rust.
//!
//! The pipeline has four layers:
//!
//! | layer        | entry point            | job |
//! |--------------|------------------------|-----|
//! | parse        | [`toml::parse`]        | span-tracking TOML subset parser |
//! | schema       | [`schema::extract`]    | typed plan, unknown keys rejected with spans |
//! | resolve      | [`resolver::resolve`]  | sweep expansion + deterministic DAG |
//! | execute      | [`exec::execute_plan`] | parallel execution + stage cache in a [`hetero_hpc::store`] |
//!
//! Checked-in plans live under `plans/` at the repo root; the `plan_run`
//! example executes one and the `plan_lint` example validates all of them.
//! Pinning tests hold the plan-driven Fig. 4, Table III, and
//! solver-variants tables byte-identical to the legacy `core::scenarios`
//! path.
//!
//! ```
//! let doc = r#"
//! [plan]
//! name = "demo"
//! description = "weak scaling, two rungs"
//!
//! [options]
//! per_rank_axis = 3
//! max_k = 2
//! steps = 2
//! discard = 0
//! fidelity = "modeled"
//!
//! [[stage]]
//! name = "sweep"
//! kind = "run"
//! app = "rd"
//!
//! [stage.sweep]
//! ranks = "ladder"
//! platform = ["puma", "ellipse", "lagrange", "ec2"]
//!
//! [[stage]]
//! name = "figure"
//! kind = "report"
//! template = "weak-scaling"
//! needs = ["sweep"]
//! "#;
//! let plan = hetero_plan::load_str(doc).expect("valid plan");
//! assert_eq!(plan.instances.len(), 2 * 4 + 1);
//! let out = hetero_plan::exec::execute_plan(&plan, &Default::default()).unwrap();
//! assert!(out.reports[0].1.contains("Weak scaling"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod resolver;
pub mod schema;
pub mod toml;

pub use exec::{execute_plan, ExecOptions, PlanOutcome, StageResult};
pub use resolver::{resolve, ResolvedPlan};
pub use schema::{extract, Plan};
pub use toml::{parse, TomlError};

/// Parses, extracts, and resolves a plan document in one step.
///
/// # Errors
/// The first parse, schema, or resolution error, with its source span.
pub fn load_str(doc: &str) -> Result<ResolvedPlan, TomlError> {
    resolve(extract(&parse(doc)?)?)
}
