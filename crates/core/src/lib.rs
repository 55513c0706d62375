//! # hetero-hpc
//!
//! The experiment harness of the reproduction of *Experiences with
//! Target-Platform Heterogeneity in Clouds, Grids, and On-Premises
//! Resources* (Slawinski, Passerini, Villa, Veneziani, Sunderam — Emory
//! TR-2012-004 / IPPS 2012).
//!
//! The harness runs the paper's two FEM CFD applications (reaction–
//! diffusion and Navier–Stokes, from [`hetero_fem`]) on the four simulated
//! platforms (from [`hetero_platform`]) and reproduces every table and
//! figure of the paper's evaluation:
//!
//! | artifact  | entry point                      |
//! |-----------|----------------------------------|
//! | Table I   | [`scenarios::table1`]            |
//! | Figure 4  | [`scenarios::fig4`]              |
//! | Figure 5  | [`scenarios::fig5`]              |
//! | Table II  | [`scenarios::table2`]            |
//! | Figure 6  | [`scenarios::fig6`]              |
//! | Figure 7  | [`scenarios::fig7`]              |
//! | §VI effort| [`scenarios::table1`] (part 2)   |
//!
//! Two execution engines share one cost model:
//!
//! * [`run::execute`] with [`run::Fidelity::Numerical`] — every rank is an
//!   OS thread doing the real distributed numerics (verified against exact
//!   solutions), clocks advanced by the platform's network/compute models;
//! * [`run::Fidelity::Modeled`] — an analytic replay ([`modeled`]) of the
//!   same per-iteration communication/computation sequence, for the paper's
//!   1000-rank configurations that cannot be executed numerically on one
//!   host. `tests/model_validation.rs` pins the two engines together at
//!   small scale.
//!
//! Reuse across runs is content-addressed: [`canon`] derives the keys,
//! [`store`] is the one on-disk artifact store (`hetero-serve`'s result
//! cache and `hetero-plan`'s stage cache are typed views of it), and
//! [`prep`] shares set-up work in memory.
//!
//! # Quick example
//!
//! ```
//! use hetero_hpc::{execute, App, Fidelity, RunRequest};
//! use hetero_platform::catalog;
//!
//! // Run the paper's RD benchmark numerically on the simulated home
//! // cluster: 8 ranks, 3^3 elements each.
//! let req = RunRequest {
//!     fidelity: Fidelity::Numerical,
//!     ..RunRequest::new(catalog::puma(), App::paper_rd(2), 8, 3)
//! };
//! let out = execute(&req).expect("within puma's limits");
//! // The distributed pipeline reproduces the exact solution...
//! assert!(out.verification.unwrap().linf < 1e-5);
//! // ...and the run has a simulated duration and a dollar cost.
//! assert!(out.phases.total > 0.0);
//! assert!(out.cost_per_iteration > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
mod attempt;
pub mod canon;
pub mod expense;
pub mod modeled;
pub mod prep;
pub mod recovery;
pub mod report;
pub mod run;
pub mod scenarios;
pub mod snapshot;
pub mod store;

pub use apps::App;
pub use prep::PreparedScenario;
pub use recovery::{execute_resilient, ResilienceOutcome, ResilienceSpec};
pub use run::{execute, Fidelity, RunOutcome, RunRequest};
// The tracing vocabulary, re-exported so harness users can request and
// consume traces without naming `hetero-trace` directly.
pub use hetero_trace::{Trace, TraceDetail, TraceEvent, TraceSpec};
