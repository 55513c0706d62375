//! Golden fixtures for the prepared-scenario key schema
//! (`hetero-prep/key/v1`) — the sibling of `tests/serve_keys.rs`.
//!
//! Two batteries, two failure modes they guard against:
//!
//! 1. **Byte pins.** The exact canonical text of hand-constructed RD and
//!    NS requests, every number a literal. If the encoding ever changes,
//!    these fail and force a deliberate `PREP_KEY_SCHEMA` bump instead
//!    of silently aliasing unrelated preparations.
//! 2. **Exclusion pins.** The prep key must cover *only* what the
//!    prepared artifacts are functions of (mesh spec, discretization
//!    orders, ranks, partition). A key that absorbed the platform or the
//!    seed would defeat cross-instance sharing; a key that dropped the
//!    rank count would alias different partitions. Both directions are
//!    pinned: excluded coordinates provably do not move the key, setup
//!    coordinates provably do.

use hetero_fem::bdf::BdfOrder;
use hetero_fem::element::ElementOrder;
use hetero_fem::ns::{MomentumSolver, NsConfig};
use hetero_fem::rd::{PrecondKind, RdConfig};
use hetero_hpc::canon::{prep_key, sha256_hex};
use hetero_hpc::{App, Fidelity, ResilienceSpec, RunRequest, TraceSpec};
use hetero_linalg::{SolveOptions, SolverVariant};
use hetero_platform::catalog;
use hetero_simmpi::EngineKind;

/// A plain RD request with every setup coordinate a literal. The platform
/// comes from the catalog precisely because the key must not read it.
fn fixture_rd() -> RunRequest {
    RunRequest {
        platform: catalog::puma(),
        app: App::Rd(RdConfig {
            order: ElementOrder::Q2,
            bdf: BdfOrder::Two,
            t0: 1.0,
            dt: 0.01,
            steps: 5,
            precond: PrecondKind::Ilu0,
            solve: SolveOptions {
                rel_tol: 1e-8,
                abs_tol: 1e-12,
                max_iters: 500,
                variant: SolverVariant::Blocking,
            },
        }),
        ranks: 8,
        per_rank_axis: 3,
        seed: 2012,
        discard: 0,
        threads_per_rank: 1,
        engine: EngineKind::default(),
        sched_workers: 0,
        fidelity: Fidelity::Numerical,
        solver_variant: None,
        topology_override: None,
        cost_override: None,
        resilience: None,
        trace: None,
    }
}

fn fixture_ns() -> RunRequest {
    RunRequest {
        app: App::Ns(NsConfig {
            vel_order: ElementOrder::Q2,
            p_order: ElementOrder::Q1,
            bdf: BdfOrder::One,
            t0: 1.0,
            dt: 0.02,
            steps: 3,
            rho: 1.0,
            mu: 0.1,
            momentum_solver: MomentumSolver::Gmres { restart: 30 },
            precond_vel: PrecondKind::Jacobi,
            precond_p: PrecondKind::Ssor,
            solve_vel: SolveOptions {
                rel_tol: 1e-9,
                abs_tol: 1e-13,
                max_iters: 400,
                variant: SolverVariant::Overlapped,
            },
            solve_p: SolveOptions {
                rel_tol: 1e-10,
                abs_tol: 1e-14,
                max_iters: 600,
                variant: SolverVariant::Blocking,
            },
        }),
        ..fixture_rd()
    }
}

/// The exact canonical bytes of the RD fixture: 8 ranks block-partition
/// as 2x2x2, weak-scaled to a 6^3-cell unit cube, Q2 elements.
const RD_CANONICAL: &str = "schema=s:18:hetero-prep/key/v1;\
mesh={generator=e:unit-cube-hex;cells_x=i:6;cells_y=i:6;cells_z=i:6;};\
discretization={app=e:rd;order=e:q2;};\
ranks=i:8;per_rank_axis=i:3;\
partition={partitioner=e:block;parts_x=i:2;parts_y=i:2;parts_z=i:2;};";

/// The NS fixture differs only in the discretization group: the app tag
/// and the velocity/pressure element orders.
const NS_CANONICAL: &str = "schema=s:18:hetero-prep/key/v1;\
mesh={generator=e:unit-cube-hex;cells_x=i:6;cells_y=i:6;cells_z=i:6;};\
discretization={app=e:ns;vel_order=e:q2;p_order=e:q1;};\
ranks=i:8;per_rank_axis=i:3;\
partition={partitioner=e:block;parts_x=i:2;parts_y=i:2;parts_z=i:2;};";

#[test]
fn golden_rd_canonical_text_and_key() {
    assert_eq!(
        prep_key(&fixture_rd()),
        format!("hetero-prep/key/v1/{}", sha256_hex(RD_CANONICAL.as_bytes()))
    );
}

#[test]
fn golden_ns_canonical_text_and_key() {
    assert_eq!(
        prep_key(&fixture_ns()),
        format!("hetero-prep/key/v1/{}", sha256_hex(NS_CANONICAL.as_bytes()))
    );
}

#[test]
fn schema_tag_is_pinned_and_prefixes_every_key() {
    assert!(prep_key(&fixture_rd()).starts_with("hetero-prep/key/v1/"));
}

/// Every coordinate a campaign sweeps — platform, seed, solver variant,
/// kernel backend, resilience cadence, host knobs, time-stepping — maps
/// to the *same* prep key, because none of them feed the prepared
/// artifacts. This is the property that lets one preparation serve a
/// whole sweep row.
#[test]
fn swept_coordinates_share_one_preparation() {
    let base_key = prep_key(&fixture_rd());
    let rd_cfg = |f: &dyn Fn(&mut RdConfig)| {
        let mut req = fixture_rd();
        if let App::Rd(cfg) = &mut req.app {
            f(cfg);
        }
        req
    };
    let variants: Vec<RunRequest> = vec![
        // Platform sweep: the paper's whole point is re-running one setup
        // across clouds, grids, and on-premises machines.
        RunRequest {
            platform: catalog::ec2(),
            ..fixture_rd()
        },
        RunRequest {
            platform: catalog::ellipse(),
            ..fixture_rd()
        },
        // Statistical replication and warm-up policy.
        RunRequest {
            seed: 99,
            ..fixture_rd()
        },
        RunRequest {
            discard: 5,
            ..fixture_rd()
        },
        // Host-only execution knobs.
        RunRequest {
            threads_per_rank: 4,
            ..fixture_rd()
        },
        RunRequest {
            threads_per_rank: 2,
            sched_workers: 1,
            ..fixture_rd()
        },
        RunRequest {
            sched_workers: 3,
            ..fixture_rd()
        },
        // Engine selection and the solver-variant override.
        RunRequest {
            fidelity: Fidelity::Modeled,
            ..fixture_rd()
        },
        RunRequest {
            solver_variant: Some(SolverVariant::Pipelined),
            ..fixture_rd()
        },
        // Resilience policy, including the checkpoint cadence.
        RunRequest {
            resilience: Some(ResilienceSpec::spot_with_restart(
                &catalog::ec2(),
                1.0,
                1,
                50,
            )),
            ..fixture_rd()
        },
        RunRequest {
            resilience: Some(ResilienceSpec::spot_with_restart(
                &catalog::ec2(),
                1.0,
                7,
                50,
            )),
            ..fixture_rd()
        },
        // Tracing never perturbs a report, so it never splits a key.
        RunRequest {
            trace: Some(TraceSpec::default()),
            ..fixture_rd()
        },
        // Time-stepping parameters: the mesh/partition/DoF preparation
        // is step-count- and step-size-independent.
        rd_cfg(&|c| c.dt = 0.5),
        rd_cfg(&|c| c.steps = 50),
        rd_cfg(&|c| c.t0 = 7.0),
        rd_cfg(&|c| c.bdf = BdfOrder::One),
        rd_cfg(&|c| c.precond = PrecondKind::Jacobi),
        rd_cfg(&|c| c.solve.max_iters = 9),
    ];
    for (i, req) in variants.iter().enumerate() {
        assert_eq!(prep_key(req), base_key, "variant {i} must share the key");
    }
}

/// Coordinates the prepared artifacts *are* functions of must split the
/// key — aliasing here would hand a run the wrong mesh or partition.
#[test]
fn setup_coordinates_split_the_key() {
    let base_key = prep_key(&fixture_rd());
    let mut q1 = fixture_rd();
    if let App::Rd(cfg) = &mut q1.app {
        cfg.order = ElementOrder::Q1;
    }
    let splits: Vec<RunRequest> = vec![
        RunRequest {
            ranks: 16,
            ..fixture_rd()
        },
        RunRequest {
            per_rank_axis: 4,
            ..fixture_rd()
        },
        q1,
        fixture_ns(),
    ];
    let mut keys: Vec<String> = splits.iter().map(prep_key).collect();
    keys.push(base_key);
    keys.sort();
    let total = keys.len();
    keys.dedup();
    assert_eq!(keys.len(), total, "every setup coordinate must split");
}

/// The canonical text itself never names an excluded coordinate: a
/// grep-level proof, robust against encoder refactors, that platform,
/// seed, operator-path overrides, and host knobs cannot have leaked in.
#[test]
fn canonical_text_names_no_excluded_coordinate() {
    for (req, text) in [(fixture_rd(), RD_CANONICAL), (fixture_ns(), NS_CANONICAL)] {
        // The text is the one the fixture's key hashes.
        assert_eq!(
            prep_key(&req),
            format!("hetero-prep/key/v1/{}", sha256_hex(text.as_bytes()))
        );
        for forbidden in [
            "platform",
            "seed",
            "variant",
            "backend",
            "solver",
            "kernel",
            "thread",
            "engine",
            "fidelity",
            "resilience",
            "checkpoint",
            "cadence",
            "trace",
            "discard",
            "dt",
            "steps",
            "cost",
            "topology",
            "puma",
        ] {
            assert!(
                !text.contains(forbidden),
                "canonical text must not mention `{forbidden}`: {text}"
            );
        }
    }
}
