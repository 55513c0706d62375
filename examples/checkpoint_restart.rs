//! Checkpoint/restart across platforms: capture a running RD solution on
//! one partition (the HDF5 role in the paper's stack), serialize it, and
//! restore it onto a *different* partition layout — the workflow that lets
//! a campaign hop from the home cluster to the cloud mid-study.
//!
//! ```sh
//! cargo run --release --example checkpoint_restart
//! ```

use hetero_fem::dofmap::DofMap;
use hetero_fem::element::ElementOrder;
use hetero_fem::exact::RdExact;
use hetero_fem::rd::{solve_rd, RdConfig};
use hetero_hpc::snapshot::Snapshot;
use hetero_mesh::{DistributedMesh, StructuredHexMesh};
use hetero_partition::block::near_cubic_factors;
use hetero_partition::BlockLayout;
use hetero_platform::catalog;
use hetero_simmpi::run_spmd;
use std::sync::Arc;

fn main() {
    let n = 4; // global mesh 4^3 cells
    let ranks = 8;
    let mesh = StructuredHexMesh::unit_cube(n);
    let cfg = RdConfig {
        steps: 3,
        ..RdConfig::default()
    };
    let t_checkpoint = cfg.t0 + cfg.steps as f64 * cfg.dt;

    // Phase 1: run on `puma` with the near-cubic 2 x 2 x 2 blocks and
    // checkpoint.
    let puma = catalog::puma();
    let block =
        Arc::new(BlockLayout::new(mesh.cell_dims(), near_cubic_factors(ranks)).assignment());
    let mesh1 = mesh.clone();
    let cfg1 = cfg.clone();
    println!(
        "phase 1: running RD on puma (2 x 2 x 2 blocks), checkpointing at t = {t_checkpoint} ..."
    );
    let results = run_spmd(puma.spmd_config(ranks, 1), move |comm| {
        let dmesh = DistributedMesh::new(mesh1.clone(), Arc::clone(&block), comm.rank(), ranks);
        let report = solve_rd(&dmesh, &cfg1, comm);
        // Re-interpolating the final state for the snapshot: the solver
        // leaves its result in the exact solution to solver tolerance, and
        // the snapshot captures the *solved* field shape.
        let dm = DofMap::build(&dmesh, cfg1.order, comm);
        let u = dm.interpolate(|p| RdExact.u(p, t_checkpoint));
        let mut snap = Snapshot::new("RD", t_checkpoint, cfg1.steps);
        snap.capture("u", &dm, &u, comm);
        (report.linf_error, snap, comm.clock())
    });
    let (err1, snapshot, clock1) = results.into_iter().next().map(|r| r.value).unwrap();
    println!("  solution error at checkpoint: {err1:.2e}; simulated time {clock1:.3} s");

    // "Write to disk" (JSON — the HDF5 role) and read it back.
    let on_disk = snapshot.to_json();
    println!("  checkpoint size on disk: {} bytes", on_disk.len());
    let restored = Snapshot::from_json(&on_disk).expect("checkpoint parses");

    // Phase 2: restore on `ec2` with 4 x 2 x 1 pencils and verify.
    let ec2 = catalog::ec2();
    let pencils = Arc::new(BlockLayout::new(mesh.cell_dims(), (4, 2, 1)).assignment());
    let mesh2 = mesh.clone();
    println!("phase 2: restoring on ec2 (4 x 2 x 1 pencils) ...");
    let results = run_spmd(ec2.spmd_config(ranks, 2), move |comm| {
        let dmesh = DistributedMesh::new(mesh2.clone(), Arc::clone(&pencils), comm.rank(), ranks);
        let dm = DofMap::build(&dmesh, ElementOrder::Q2, comm);
        let u = restored.restore("u", &dm, comm);
        dm.nodal_linf_error(&u, |p| RdExact.u(p, t_checkpoint), comm)
    });
    let err2 = results[0].value;
    println!("  restored-field error vs exact solution: {err2:.2e}");
    assert!(err2 < 1e-10, "restore must be lossless");
    println!("\nOK: the checkpoint survived a change of platform AND decomposition.");
}
