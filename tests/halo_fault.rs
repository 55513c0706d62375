//! A halo-heavy RD job whose node dies mid-run, pinned across commits.
//!
//! Eight ranks of a Q1 RD problem on four two-core nodes of a jittered
//! fabric, with CG on the overlapped schedule: every Krylov iteration is a
//! posted halo exchange, and the DoF-map build and every time step add
//! blocking ones. Node 1 (ranks 2 and 3) dies at [`DOWN_AT`], mid-run.
//! The pins are the job's [`RankFailed`], every rank's last virtual
//! instant (where the dead ranks stopped and each survivor was poisoned:
//! the receive, wait or collective hop it could not complete) and the
//! message-level trace, on one, three and host-many scheduler workers.
//!
//! The digests were computed before the halo exchange moved from
//! mailboxes to per-pair slots, so they pin that the move changed no
//! failure: the same ranks unwind at the same receives, having sent,
//! received and traced the same messages.

use hetero_fem::element::ElementOrder;
use hetero_fem::rd::{solve_rd, RdConfig};
use hetero_hpc::canon::sha256_hex;
use hetero_linalg::solver::{SolveOptions, SolverVariant};
use hetero_mesh::{DistributedMesh, Point3, StructuredHexMesh};
use hetero_partition::block::near_cubic_factors;
use hetero_partition::BlockLayout;
use hetero_simmpi::{
    run_spmd_opts, ClusterTopology, ComputeModel, EngineOpts, FaultPlan, NetworkModel, RankFailed,
    SpmdConfig, Trace, TraceSpec,
};
use std::sync::Arc;

const RANKS: usize = 8;

/// Virtual time at which node 1 dies; the failure-free job ends at
/// ≈ 0.079 s.
const DOWN_AT: f64 = 0.045;

/// SHA-256 of every rank's last virtual instant, as `rank clock-bits`
/// lines.
const GOLDEN_LAST_INSTANTS: &str =
    "8cd289b7ecfb990184e2a69c6334736f86cb7a73229e7b68364d24be4f4770a2";

/// SHA-256 of the message-level JSONL trace of the felled job.
const GOLDEN_JSONL: &str = "68c4bd22b2a3670ff0a5f88f37693fde2ce38ba474b878174158acc9fc0fd587";

fn config() -> SpmdConfig {
    SpmdConfig {
        size: RANKS,
        topo: ClusterTopology::uniform(4, 2),
        net: NetworkModel::ten_gig_ethernet_ec2(),
        compute: ComputeModel::new(2.0e9, 6.0e9),
        seed: 2012,
    }
}

fn rd() -> RdConfig {
    RdConfig {
        order: ElementOrder::Q1,
        steps: 5,
        solve: SolveOptions {
            variant: SolverVariant::Overlapped,
            ..SolveOptions::default()
        },
        ..RdConfig::default()
    }
}

/// Runs the job under `opts`.
fn run(opts: EngineOpts) -> (Result<Vec<f64>, RankFailed>, Trace) {
    let mesh = StructuredHexMesh::new(6, 6, 6, Point3::ZERO, Point3::splat(1.0));
    let assignment =
        Arc::new(BlockLayout::new(mesh.cell_dims(), near_cubic_factors(RANKS)).assignment());
    let faults = FaultPlan {
        node_down_at: vec![f64::INFINITY, DOWN_AT, f64::INFINITY, f64::INFINITY],
        slow_windows: vec![],
    };
    let cfg = rd();
    let (res, trace) = run_spmd_opts(
        config(),
        opts,
        faults,
        Some(TraceSpec::messages()),
        |comm| {
            let dmesh =
                DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), comm.rank(), RANKS);
            solve_rd(&dmesh, &cfg, comm).linf_error
        },
    );
    let res = res.map(|ranks| ranks.iter().map(|r| r.clock).collect());
    (res, trace.expect("a traced job returns its trace"))
}

/// `rank clock-bits` of every rank's last traced instant, one per line.
fn last_instants(trace: &Trace) -> String {
    let mut last = [0.0f64; RANKS];
    for e in &trace.events {
        let end = e.at + e.dur;
        let r = e.rank as usize;
        if end > last[r] {
            last[r] = end;
        }
    }
    last.iter()
        .enumerate()
        .map(|(r, t)| format!("{r} {:016x}\n", t.to_bits()))
        .collect()
}

#[test]
fn a_node_lost_mid_halo_fails_the_job_at_the_pinned_points() {
    for workers in [1, 3, 0] {
        let opts = EngineOpts::cooperative(workers);
        let (res, trace) = run(opts);
        let failed = res.expect_err("node 1 dies before the job ends");
        assert_eq!((failed.node, failed.at), (1, DOWN_AT), "{opts:?}");
        let instants = last_instants(&trace);
        let jsonl = trace.jsonl();
        assert_eq!(
            sha256_hex(instants.as_bytes()),
            GOLDEN_LAST_INSTANTS,
            "{opts:?}"
        );
        assert_eq!(sha256_hex(jsonl.as_bytes()), GOLDEN_JSONL, "{opts:?}");
    }
}
