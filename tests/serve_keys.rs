//! Golden fixtures for the canonical key schema (`hetero-serve/key/v2`).
//!
//! The fixtures below pin the exact canonical text and key of two
//! hand-constructed requests, every number a literal. Because the
//! canonical encoder names every field with a string literal in a fixed
//! order, renaming or reordering Rust fields cannot change these strings
//! — and if the encoding itself is ever changed, these tests fail,
//! forcing a deliberate `KEY_SCHEMA` bump instead of a silent cache
//! corruption.

use hetero_fault::{
    Backoff, CrashProcess, DegradationModel, FaultModel, RecoveryMode, ResiliencePolicy, SpotMarket,
};
use hetero_fem::bdf::BdfOrder;
use hetero_fem::element::ElementOrder;
use hetero_fem::ns::{MomentumSolver, NsConfig};
use hetero_fem::rd::{PrecondKind, RdConfig};
use hetero_hpc::canon::{canonical_request, request_key};
use hetero_hpc::{App, Fidelity, ResilienceSpec, RunRequest};
use hetero_linalg::{SolveOptions, SolverVariant};
use hetero_platform::cost::{Billing, CostModel};
use hetero_platform::limits::ExecutionLimits;
use hetero_platform::scheduler::{QueueModel, SchedulerKind};
use hetero_platform::spec::AccessKind;
use hetero_platform::spot::FleetStrategy;
use hetero_platform::PlatformSpec;
use hetero_simmpi::{ClusterTopology, ComputeModel, EngineKind, NetworkModel};

/// A platform with every number a literal — deliberately NOT from
/// `catalog`, so the fixture pins the schema, not the catalog's values.
fn fixture_platform() -> PlatformSpec {
    PlatformSpec {
        key: "fixture".to_string(),
        description: "golden fixture platform".to_string(),
        cpu_model: "Fixture CPU".to_string(),
        cores_per_node: 4,
        max_nodes: 8,
        ram_per_core_gib: 2.0,
        compute: ComputeModel {
            flops_per_sec: 1e9,
            mem_bw: 4e9,
        },
        network: NetworkModel {
            name: "FixNet".to_string(),
            latency: 50e-6,
            latency_intra: 1e-6,
            node_bw: 117e6,
            intra_bw: 3e9,
            switch_radix: 48,
            oversubscription: 0.0,
            cross_group_lat_mult: 1.0,
            cross_group_bw_mult: 1.0,
            jitter_sigma: 0.0,
        },
        access: AccessKind::UserSpace,
        scheduler: SchedulerKind::PbsTorque,
        queue: QueueModel {
            base: 60.0,
            per_node: 10.0,
            spread: 0.0,
            size_exponent: 1.0,
        },
        cost: CostModel {
            billing: Billing::PerCoreHour(0.05),
            note: "fixture".to_string(),
        },
        limits: ExecutionLimits {
            max_cores: 32,
            max_launchable_ranks: None,
            adapter_volume_cap: None,
        },
        node_mtbf_hours: 1000.0,
    }
}

/// Fixture 1: a plain RD request, no options.
fn fixture_rd() -> RunRequest {
    RunRequest {
        platform: fixture_platform(),
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

/// Fixture 2: an NS request exercising every optional branch of the
/// encoder — GMRES momentum solver, solver-variant override, grouped
/// topology override, per-node-hour cost override, and a resilience spec
/// with all three fault processes active.
fn fixture_ns_resilient() -> RunRequest {
    RunRequest {
        platform: fixture_platform(),
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
        ranks: 8,
        per_rank_axis: 3,
        seed: 7,
        discard: 1,
        threads_per_rank: 1,
        engine: EngineKind::default(),
        sched_workers: 0,
        fidelity: Fidelity::Modeled,
        solver_variant: Some(SolverVariant::Pipelined),
        topology_override: Some(ClusterTopology::with_groups(4, vec![0, 0, 1, 1])),
        cost_override: Some(CostModel {
            billing: Billing::PerNodeHour {
                rate: 1.60,
                cores_per_node: 8,
            },
            note: "override".to_string(),
        }),
        resilience: Some(ResilienceSpec {
            policy: ResiliencePolicy {
                checkpoint_every: 2,
                io_bandwidth: 200e6,
                mode: RecoveryMode::Restart { max_restarts: 5 },
                backoff: Backoff {
                    base_seconds: 1.0,
                    factor: 2.0,
                    cap_seconds: 60.0,
                },
            },
            faults: FaultModel {
                crashes: Some(CrashProcess {
                    node_mtbf_hours: 500.0,
                }),
                spot: Some(SpotMarket {
                    epoch_seconds: 300.0,
                    base_price: 0.24,
                    max_bid: 0.60,
                    spike_probability: 0.05,
                    capacity_range: (2, 6),
                }),
                degradation: Some(DegradationModel {
                    mean_interval_seconds: 900.0,
                    duration_seconds: 120.0,
                    slowdown: 0.5,
                }),
            },
            strategy: FleetStrategy::SpotMix {
                groups: 3,
                max_bid: 0.60,
            },
        }),
        trace: None,
    }
}

#[rustfmt::skip]
const GOLDEN_RD_TEXT: &str = "schema=s:19:hetero-serve/key/v2;app={rd={order=e:q2;bdf=e:bdf2;t0=f:3ff0000000000000;dt=f:3f847ae147ae147b;steps=i:5;precond=e:ilu0;solve={rel_tol=f:3e45798ee2308c3a;abs_tol=f:3d719799812dea11;max_iters=i:500;variant=e:blocking;};};};platform={key=s:7:fixture;cores_per_node=i:4;max_nodes=i:8;ram_per_core_gib=f:4000000000000000;compute={flops_per_sec=f:41cdcd6500000000;mem_bw=f:41edcd6500000000;};network={latency=f:3f0a36e2eb1c432d;latency_intra=f:3eb0c6f7a0b5ed8d;node_bw=f:419be51d00000000;intra_bw=f:41e65a0bc0000000;switch_radix=i:48;oversubscription=f:0000000000000000;cross_group_lat_mult=f:3ff0000000000000;cross_group_bw_mult=f:3ff0000000000000;jitter_sigma=f:0000000000000000;};access=e:user-space;scheduler=e:pbs-torque;queue={base=f:404e000000000000;per_node=f:4024000000000000;spread=f:0000000000000000;size_exponent=f:3ff0000000000000;};cost={per_core_hour={rate=f:3fa999999999999a;};};limits={max_cores=i:32;max_launchable_ranks=-;adapter_volume_cap=-;};node_mtbf_hours=f:408f400000000000;};ranks=i:8;per_rank_axis=i:3;seed=i:2012;discard=i:0;fidelity=e:numerical;solver_variant=-;topology_override=-;cost_override=-;resilience=-;";
const GOLDEN_RD_KEY: &str =
    "hetero-serve/key/v2/e60d0b233c5c0af2a1129108e027afa2397d504cf49eb42dbc3a17bd833284f6";
#[rustfmt::skip]
const GOLDEN_NS_TEXT: &str = "schema=s:19:hetero-serve/key/v2;app={ns={vel_order=e:q2;p_order=e:q1;bdf=e:bdf1;t0=f:3ff0000000000000;dt=f:3f947ae147ae147b;steps=i:3;rho=f:3ff0000000000000;mu=f:3fb999999999999a;momentum_solver={kind=e:gmres;restart=i:30;};precond_vel=e:jacobi;precond_p=e:ssor;solve_vel={rel_tol=f:3e112e0be826d695;abs_tol=f:3d3c25c268497682;max_iters=i:400;variant=e:overlapped;};solve_p={rel_tol=f:3ddb7cdfd9d7bdbb;abs_tol=f:3d06849b86a12b9b;max_iters=i:600;variant=e:blocking;};};};platform={key=s:7:fixture;cores_per_node=i:4;max_nodes=i:8;ram_per_core_gib=f:4000000000000000;compute={flops_per_sec=f:41cdcd6500000000;mem_bw=f:41edcd6500000000;};network={latency=f:3f0a36e2eb1c432d;latency_intra=f:3eb0c6f7a0b5ed8d;node_bw=f:419be51d00000000;intra_bw=f:41e65a0bc0000000;switch_radix=i:48;oversubscription=f:0000000000000000;cross_group_lat_mult=f:3ff0000000000000;cross_group_bw_mult=f:3ff0000000000000;jitter_sigma=f:0000000000000000;};access=e:user-space;scheduler=e:pbs-torque;queue={base=f:404e000000000000;per_node=f:4024000000000000;spread=f:0000000000000000;size_exponent=f:3ff0000000000000;};cost={per_core_hour={rate=f:3fa999999999999a;};};limits={max_cores=i:32;max_launchable_ranks=-;adapter_volume_cap=-;};node_mtbf_hours=f:408f400000000000;};ranks=i:8;per_rank_axis=i:3;seed=i:7;discard=i:1;fidelity=e:modeled;solver_variant=e:pipelined;topology_override={cores_per_node=i:4;groups=[i:0,i:0,i:1,i:1,];};cost_override={per_node_hour={rate=f:3ff999999999999a;cores_per_node=i:8;};};resilience={policy={checkpoint_every=i:2;io_bandwidth=f:41a7d78400000000;mode={kind=e:restart;max_restarts=i:5;};backoff={base_seconds=f:3ff0000000000000;factor=f:4000000000000000;cap_seconds=f:404e000000000000;};};faults={crashes={node_mtbf_hours=f:407f400000000000;};spot={epoch_seconds=f:4072c00000000000;base_price=f:3fceb851eb851eb8;max_bid=f:3fe3333333333333;spike_probability=f:3fa999999999999a;capacity_lo=i:2;capacity_hi=i:6;};degradation={mean_interval_seconds=f:408c200000000000;duration_seconds=f:405e000000000000;slowdown=f:3fe0000000000000;};};strategy={kind=e:spot-mix;groups=i:3;max_bid=f:3fe3333333333333;};};";
const GOLDEN_NS_KEY: &str =
    "hetero-serve/key/v2/1d309c4c9ca116792cd427c2b617b7e7373717c2257564a28ef147515b6b06e0";

#[test]
fn golden_rd_canonical_text_and_key() {
    let req = fixture_rd();
    assert_eq!(canonical_request(&req), GOLDEN_RD_TEXT);
    assert_eq!(request_key(&req), GOLDEN_RD_KEY);
}

#[test]
fn golden_ns_resilient_canonical_text_and_key() {
    let req = fixture_ns_resilient();
    assert_eq!(canonical_request(&req), GOLDEN_NS_TEXT);
    assert_eq!(request_key(&req), GOLDEN_NS_KEY);
}

#[test]
fn key_is_schema_prefixed_hash_of_canonical_text() {
    let req = fixture_rd();
    assert_eq!(
        request_key(&req),
        format!(
            "hetero-serve/key/v2/{}",
            hetero_hpc::canon::sha256_hex(canonical_request(&req).as_bytes())
        )
    );
}

#[test]
fn every_fixture_field_is_reachable_from_the_text() {
    // Spot checks that the canonical text is the human-diffable record it
    // claims to be: semantic values appear in recognizable form.
    let text = canonical_request(&fixture_ns_resilient());
    assert!(text.contains("schema=s:19:hetero-serve/key/v2;"));
    assert!(text.contains("momentum_solver={kind=e:gmres;restart=i:30;};"));
    assert!(text.contains("solver_variant=e:pipelined;"));
    assert!(text.contains("groups=[i:0,i:0,i:1,i:1,];"));
    // Display-only strings never leak into the canonical text.
    assert!(!text.contains("golden fixture platform"));
    assert!(!text.contains("Fixture CPU"));
    assert!(!text.contains("FixNet"));
}
