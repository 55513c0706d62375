//! Per-layer metrics: the table of names and units, and the layer probes of
//! the traced run. Layers are the workspace crates. Only this file calls
//! below the top-level entry points, through one adapter function per
//! layer, so a refactor inside a layer touches one function here.
//!
//! A metric is one of three kinds:
//! * `bench.*`, `*_per_op` counts, `serve.*`: read from the workload's own
//!   ops; 0 when the workload never enters that layer;
//! * `core.execute_*`, `core.sim.*`, `plan.*`: one traced op of
//!   `fem_sweep_8r` / `campaign_table3`, run in every traced run;
//! * everything else: a probe on fixed inputs (one rank's 4^3-cell Q2
//!   sub-mesh for compute, the workload's rank count for communication).

use crate::host::{self, median};
use crate::spans::{Spans, PROBE_OP};
use crate::workloads::{self, FemSweep};
use hetero_fem::assembly::{apply_dirichlet, assemble_vector, scalar_kernels, MatrixAssembly};
use hetero_fem::dofmap::DofMap;
use hetero_fem::element::ElementOrder;
use hetero_hpc::canon::request_key;
use hetero_hpc::{
    execute, execute_resilient, prep, App, Fidelity, ResilienceSpec, RunOutcome, RunRequest, Trace,
    TraceSpec,
};
use hetero_linalg::precond::{IluZero, Jacobi};
use hetero_linalg::solver::{bicgstab, cg, gmres, SolveOptions};
use hetero_mesh::{DistributedMesh, Point3, StructuredHexMesh};
use hetero_partition::block::near_cubic_factors;
use hetero_partition::BlockLayout;
use hetero_platform::catalog;
use hetero_platform::spot::{acquire_fleet, FleetStrategy};
use hetero_serve::{CacheLookup, JobOutcome, Journal, ResultCache};
use hetero_simmpi::collectives::ReduceOp;
use hetero_simmpi::{
    run_spmd_opts, ClusterTopology, ComputeModel, EngineOpts, FaultPlan, NetworkModel, Payload,
    SimComm, SpmdConfig,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every per-layer metric with its unit, in the order `BENCHMARK.json`
/// lists them. The traced run prints all of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.ops", "count"),
    ("bench.ops_failed", "count"),
    ("bench.op_min_s", "s"),
    ("bench.op_p25_s", "s"),
    ("bench.op_p50_s", "s"),
    ("bench.op_p75_s", "s"),
    ("bench.cpu_s_per_op", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("mesh.build_s", "s"),
    ("partition.assign_s", "s"),
    ("fem.dofmap_build_s", "s"),
    ("fem.assemble_cold_s", "s"),
    ("fem.assemble_warm_s", "s"),
    ("fem.assemble_in_place_s", "s"),
    ("fem.rhs_bc_s", "s"),
    ("fem.dofs_per_rank", "count"),
    ("fem.nnz_per_rank", "count"),
    ("linalg.ilu0_build_s", "s"),
    ("linalg.cg_solve_s", "s"),
    ("linalg.cg_iters", "count"),
    ("linalg.bicgstab_solve_s", "s"),
    ("linalg.gmres_solve_s", "s"),
    ("linalg.spmv_ns_per_nnz", "ns"),
    ("linalg.dot_ns_per_elem", "ns"),
    ("simmpi.spawn_s", "s"),
    ("simmpi.hop_ns", "ns"),
    ("simmpi.allreduce_us", "us"),
    ("simmpi.halo_round_us", "us"),
    ("simmpi.p2p_msgs_per_op", "count"),
    ("simmpi.p2p_bytes_per_op", "bytes"),
    ("simmpi.reduce_calls_per_op", "count"),
    ("simmpi.bcast_calls_per_op", "count"),
    ("simmpi.host_ns_per_msg", "ns"),
    ("simmpi.rss_kb_per_rank", "kB"),
    ("trace.events_per_op", "count"),
    ("trace.messages_overhead_ratio", "ratio"),
    ("trace.jsonl_export_s", "s"),
    ("platform.acquire_fleet_us", "us"),
    ("fault.modeled_campaign_ms", "ms"),
    ("fault.modeled_campaign_memo_ms", "ms"),
    ("core.execute_rd_cold_s", "s"),
    ("core.execute_rd_warm_s", "s"),
    ("core.execute_ns_cold_s", "s"),
    ("core.execute_ns_warm_s", "s"),
    ("core.execute_modeled_us", "us"),
    ("core.prep.build_s", "s"),
    ("core.prep.hit_us", "us"),
    ("core.prep.builds_per_op", "count"),
    ("core.prep.hits_per_op", "count"),
    ("core.prep.profile_hits_per_op", "count"),
    ("core.canon.request_key_us", "us"),
    ("core.json.request_us", "us"),
    ("core.json.outcome_roundtrip_us", "us"),
    ("core.sim.rd_krylov_iters", "count"),
    ("core.sim.ns_krylov_iters", "count"),
    ("core.sim.rd_linf", "abs"),
    ("core.sim.ns_linf", "abs"),
    ("core.sim.total_s_per_iter", "s"),
    ("core.sim.bytes_per_iter", "bytes"),
    ("plan.load_resolve_us", "us"),
    ("plan.execute_cold_s", "s"),
    ("plan.execute_warm_s", "s"),
    ("plan.instances", "count"),
    ("plan.warm_hits", "count"),
    ("plan.cache_files", "count"),
    ("plan.cache_bytes", "bytes"),
    ("serve.hot_submit_us_p50", "us"),
    ("serve.hot_submit_us_p99", "us"),
    ("serve.cold_burst_us_per_job_p50", "us"),
    ("serve.cold_burst_us_per_job_p99", "us"),
    ("serve.requests_per_s", "1/s"),
    ("serve.open_preload_s", "s"),
    ("serve.reopen_replay_s", "s"),
    ("serve.journal_append_us", "us"),
    ("serve.cache_store_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.journal_bytes_per_cold_job", "bytes"),
    ("serve.cache_bytes_per_artifact", "bytes"),
    ("serve.rss_kb_per_1k_jobs", "kB"),
    ("serve.op_s_first_decile", "s"),
    ("serve.op_s_last_decile", "s"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.dedup_coalesced", "count"),
    ("serve.batch_executions", "count"),
    ("serve.batch_jobs", "count"),
];

/// Per-layer readings by name; names outside [`PER_LAYER`] are a bug.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "`{name}` is not in the per-layer table"
        );
        self.0.insert(name, value);
    }

    /// The reading of `name`; 0 when this run never entered that layer.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Median seconds of `samples` timed calls of `f`, after one warm-up call.
fn median_s(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let xs: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&xs)
}

/// Exact communication counts of one op from its message-level traces, and
/// the figures derived from them. Shared by the two SPMD workloads.
pub fn comm_counts(
    traces: &[Trace],
    traced_s: f64,
    op_times: &[f64],
    ranks: usize,
    out: &mut Metrics,
) {
    let mut counts = [0.0f64; 4];
    let mut events = 0usize;
    for t in traces {
        let m = t.metrics();
        for (c, name) in counts.iter_mut().zip([
            "comm.p2p.msgs",
            "comm.p2p.bytes",
            "comm.reduce.calls",
            "comm.bcast.calls",
        ]) {
            *c += m.counter(name);
        }
        events += t.len();
    }
    out.set("simmpi.p2p_msgs_per_op", counts[0]);
    out.set("simmpi.p2p_bytes_per_op", counts[1]);
    out.set("simmpi.reduce_calls_per_op", counts[2]);
    out.set("simmpi.bcast_calls_per_op", counts[3]);
    out.set("trace.events_per_op", events as f64);
    let op_s = host::min(op_times);
    if op_s > 0.0 && counts[0] > 0.0 {
        out.set("trace.messages_overhead_ratio", traced_s / op_s);
        out.set("simmpi.host_ns_per_msg", op_s * 1e9 / counts[0]);
    }
    out.set("simmpi.rss_kb_per_rank", host::peak_rss_kb() / ranks as f64);
}

fn spmd_config(size: usize) -> SpmdConfig {
    SpmdConfig {
        size,
        topo: ClusterTopology::uniform(size.div_ceil(4), 4),
        net: NetworkModel::gigabit_ethernet(),
        compute: ComputeModel::new(1e9, 4e9),
        seed: 3,
    }
}

/// Runs `body` as an SPMD job on one scheduler worker, like the workloads.
fn spmd<T: Send>(size: usize, body: impl Fn(&mut SimComm) -> T + Send + Sync) -> Vec<T> {
    let (res, _) = run_spmd_opts(
        spmd_config(size),
        EngineOpts::cooperative(1),
        FaultPlan::none(),
        None,
        body,
    );
    res.expect("a trivial fault plan cannot fail a rank")
        .into_iter()
        .map(|r| r.value)
        .collect()
}

/// `mesh` + `partition`: the global mesh of `ranks` x 2^3 cells, its block
/// assignment, and every rank's distributed view — what a numerical
/// `execute` builds before the first rank runs.
fn probe_mesh_partition(ranks: usize, spans: &mut Spans, out: &mut Metrics) {
    let factors = near_cubic_factors(ranks);
    let cells = (factors.0 * 2, factors.1 * 2, factors.2 * 2);
    let (assignment, assign_s) = spans.timed("partition.assign", |_| {
        Arc::new(BlockLayout::new(cells, factors).assignment())
    });
    let ((), build_s) = spans.timed("mesh.build", |_| {
        let mesh =
            StructuredHexMesh::new(cells.0, cells.1, cells.2, Point3::ZERO, Point3::splat(1.0));
        for rank in 0..ranks {
            black_box(DistributedMesh::new(
                mesh.clone(),
                Arc::clone(&assignment),
                rank,
                ranks,
            ));
        }
    });
    out.set("partition.assign_s", assign_s);
    out.set("mesh.build_s", build_s);
}

/// `fem` + `linalg`: one RD time step's kernels on one rank's 4^3-cell Q2
/// sub-mesh, as a 1-rank SPMD job (no yields, so spans nest exactly). The
/// BiCGStab and GMRES probes solve the same RD operator under Jacobi.
fn probe_fem_linalg(spans: &mut Spans, out: &mut Metrics) {
    const N: usize = 4;
    const REPS: usize = 7;
    let spans = Mutex::new(spans);
    let out_cell = Mutex::new(out);
    spmd(1, |comm| {
        let mut spans = spans.lock().expect("single rank");
        let mut out = out_cell.lock().expect("single rank");
        let mesh = StructuredHexMesh::unit_cube(N);
        let assignment = Arc::new(vec![0usize; N * N * N]);
        let dmesh = DistributedMesh::new(mesh.clone(), assignment, 0, 1);
        let kern = scalar_kernels(ElementOrder::Q2, mesh.cell_size());
        let npe = ElementOrder::Q2.nodes_per_element();
        let cell = |_i: usize, blk: &mut [f64]| {
            for (o, (m, k)) in blk.iter_mut().zip(kern.mass.iter().zip(&kern.stiffness)) {
                *o = 21.0 * m + k;
            }
        };
        let exact = |p: Point3| p.x * p.x + p.y * p.y + p.z * p.z;

        let mut t = |name: &'static str, c: &mut SimComm, f: &mut dyn FnMut(&mut SimComm)| {
            let xs: Vec<f64> = (0..REPS).map(|_| spans.timed(name, |_| f(c)).1).collect();
            median(&xs)
        };

        out.set(
            "fem.dofmap_build_s",
            t("fem.dofmap_build", comm, &mut |c| {
                black_box(DofMap::build(&dmesh, ElementOrder::Q2, c));
            }),
        );
        let dm = DofMap::build(&dmesh, ElementOrder::Q2, comm);
        out.set(
            "fem.assemble_cold_s",
            t("fem.assemble_cold", comm, &mut |c| {
                black_box(MatrixAssembly::new(2).assemble(&dm, &dm, c, cell));
            }),
        );
        let mut asm = MatrixAssembly::new(2);
        let mut a = asm.assemble(&dm, &dm, comm, cell);
        out.set(
            "fem.assemble_warm_s",
            t("fem.assemble_warm", comm, &mut |c| {
                black_box(asm.assemble(&dm, &dm, c, cell));
            }),
        );
        out.set(
            "fem.assemble_in_place_s",
            t("fem.assemble_in_place", comm, &mut |c| {
                black_box(asm.assemble_in_place(&dm, &dm, c, cell).nnz());
            }),
        );
        let mut b = dm.new_vector();
        out.set(
            "fem.rhs_bc_s",
            t("fem.rhs_bc", comm, &mut |c| {
                b = assemble_vector(&dm, c, |_i, v| {
                    for (o, l) in v.iter_mut().zip(&kern.load[..npe]) {
                        *o = -6.0 * l;
                    }
                });
                apply_dirichlet(&mut a, &mut b, &dm, exact, c);
            }),
        );
        out.set("fem.dofs_per_rank", dm.n_owned() as f64);
        out.set("fem.nnz_per_rank", a.nnz() as f64);

        out.set(
            "linalg.ilu0_build_s",
            t("linalg.ilu0_build", comm, &mut |c| {
                black_box(IluZero::new(&a, c));
            }),
        );
        let ilu = IluZero::new(&a, comm);
        let jacobi = Jacobi::new(&a, comm);
        let opts = SolveOptions::default();
        let mut iters = 0usize;
        out.set(
            "linalg.cg_solve_s",
            t("linalg.cg_solve", comm, &mut |c| {
                let mut x = a.new_vector();
                let stats = cg(&a, &b, &mut x, &ilu, opts, c);
                assert!(stats.converged, "probe CG did not converge");
                iters = stats.iterations;
            }),
        );
        out.set("linalg.cg_iters", iters as f64);
        out.set(
            "linalg.bicgstab_solve_s",
            t("linalg.bicgstab_solve", comm, &mut |c| {
                let mut x = a.new_vector();
                assert!(bicgstab(&a, &b, &mut x, &jacobi, opts, c).converged);
            }),
        );
        out.set(
            "linalg.gmres_solve_s",
            t("linalg.gmres_solve", comm, &mut |c| {
                let mut x = a.new_vector();
                assert!(gmres(&a, &b, &mut x, &jacobi, 30, opts, c).converged);
            }),
        );

        const KERNEL_REPS: usize = 200;
        let mut x = a.new_vector();
        x.fill(1.0);
        let mut y = a.new_vector();
        let spmv_s = t("linalg.spmv", comm, &mut |c| {
            for _ in 0..KERNEL_REPS {
                a.spmv(&mut x, &mut y, c);
            }
            black_box(y.owned()[0]);
        });
        out.set(
            "linalg.spmv_ns_per_nnz",
            spmv_s * 1e9 / (KERNEL_REPS * a.nnz()) as f64,
        );
        let dot_s = t("linalg.dot", comm, &mut |c| {
            for _ in 0..KERNEL_REPS {
                black_box(x.dot(&y, c));
            }
        });
        out.set(
            "linalg.dot_ns_per_elem",
            dot_s * 1e9 / (KERNEL_REPS * x.n_owned()) as f64,
        );
    });
}

/// `simmpi`: spawn, point-to-point hop, allreduce and a ring halo round at
/// the workload's rank count.
fn probe_simmpi(ranks: usize, spans: &mut Spans, out: &mut Metrics) {
    const ROUNDS: usize = 50;
    const HOPS: usize = 2000;
    let spawn_s = median_s(3, || {
        spans.scope("simmpi.spawn", |_| spmd(ranks, |_| ()));
    });
    out.set("simmpi.spawn_s", spawn_s);

    let pair_spawn_s = median_s(3, || {
        spmd(2, |_| ());
    });
    let hop_s = median_s(3, || {
        spans.scope("simmpi.pingpong", |_| {
            spmd(2, |comm| {
                for _ in 0..HOPS {
                    if comm.rank() == 0 {
                        comm.send(1, 1, Payload::F64(vec![1.0; 64]));
                        black_box(comm.recv_f64(1, 2));
                    } else {
                        let v = comm.recv_f64(0, 1);
                        comm.send(0, 2, Payload::F64(v));
                    }
                }
            })
        });
    });
    out.set(
        "simmpi.hop_ns",
        (hop_s - pair_spawn_s).max(0.0) * 1e9 / (2 * HOPS) as f64,
    );

    let allreduce_s = median_s(3, || {
        spans.scope("simmpi.allreduce", |_| {
            spmd(ranks, |comm| {
                let mut acc = 0.0;
                for _ in 0..ROUNDS {
                    acc += comm.allreduce_scalar(ReduceOp::Sum, 1.0);
                }
                acc
            })
        });
    });
    out.set(
        "simmpi.allreduce_us",
        (allreduce_s - spawn_s).max(0.0) * 1e6 / ROUNDS as f64,
    );

    let halo_s = median_s(3, || {
        spans.scope("simmpi.halo", |_| {
            spmd(ranks, |comm| {
                let (rank, size) = (comm.rank(), comm.size());
                let peers = [(rank + 1) % size, (rank + size - 1) % size];
                for round in 0..ROUNDS as u64 {
                    let recvs: Vec<_> = peers.iter().map(|&p| comm.irecv(p, round)).collect();
                    for &p in &peers {
                        comm.send(p, round, Payload::F64(vec![rank as f64; 128]));
                    }
                    black_box(comm.wait_all(recvs));
                }
            })
        });
    });
    out.set(
        "simmpi.halo_round_us",
        (halo_s - spawn_s).max(0.0) * 1e6 / ROUNDS as f64,
    );
}

/// `trace`: JSONL export of the message-level trace of a small RD job.
fn probe_trace(spans: &mut Spans, out: &mut Metrics) -> Result<(), String> {
    let req = RunRequest {
        fidelity: Fidelity::Numerical,
        sched_workers: 1,
        trace: Some(TraceSpec::messages()),
        ..RunRequest::new(catalog::puma(), App::smoke_rd(2), 8, 2)
    };
    let trace = execute(&req)
        .map_err(|e| format!("{e:?}"))?
        .trace
        .ok_or("traced job returned no trace")?;
    let export_s = median_s(5, || {
        spans.scope("trace.jsonl_export", |_| black_box(trace.jsonl().len()));
    });
    out.set("trace.jsonl_export_s", export_s);
    Ok(())
}

/// The Table III cell the `platform`/`fault`/`core.prep` probes share:
/// modeled RD, 1000 ranks, 600 steps, spot-with-restart at `cadence`.
fn campaign_cell(seed: u64, cadence: usize) -> RunRequest {
    let ec2 = catalog::ec2();
    RunRequest {
        seed,
        discard: 5,
        fidelity: Fidelity::Modeled,
        resilience: Some(ResilienceSpec::spot_with_restart(&ec2, 1.0, cadence, 60)),
        ..RunRequest::new(ec2, App::paper_rd(600), 1000, 20)
    }
}

/// `platform` + `fault`: fleet acquisition, and one modeled resilient
/// campaign with a cold failure-free profile, then the next cadence of the
/// same cell, which finds the profile memoized.
fn probe_platform_fault(seed: u64, spans: &mut Spans, out: &mut Metrics) -> Result<(), String> {
    const REPS: usize = 1000;
    let ec2 = catalog::ec2();
    let nodes = ec2.topology(1000).nodes_for_ranks(1000);
    let strategy = FleetStrategy::SpotMix {
        groups: 4,
        max_bid: 1.0,
    };
    let fleet_s = median_s(5, || {
        spans.scope("platform.acquire_fleet", |_| {
            for i in 0..REPS as u64 {
                black_box(acquire_fleet(nodes, strategy, 2.4, seed.wrapping_add(i)));
            }
        });
    });
    out.set("platform.acquire_fleet_us", fleet_s * 1e6 / REPS as f64);

    prep::clear_cache();
    let (cold, cold_s) = spans.timed("fault.modeled_campaign", |_| {
        execute_resilient(&campaign_cell(seed, 16))
    });
    let (memo, memo_s) = spans.timed("fault.modeled_campaign_memo", |_| {
        execute_resilient(&campaign_cell(seed, 64))
    });
    cold.map_err(|e| format!("{e:?}"))?;
    memo.map_err(|e| format!("{e:?}"))?;
    out.set("fault.modeled_campaign_ms", cold_s * 1e3);
    out.set("fault.modeled_campaign_memo_ms", memo_s * 1e3);
    Ok(())
}

/// `core`: one traced `fem_sweep_8r` op (cold and warm numerical executes
/// and the simulated outputs that must never move), a modeled execute, the
/// prepared-scenario cache, canonical keys and JSON.
fn probe_core(seed: u64, spans: &mut Spans, out: &mut Metrics) -> Result<(), String> {
    let outs = FemSweep::new(seed).sweep(spans)?;
    for (metric, span) in [
        ("core.execute_rd_cold_s", "core.execute_rd_cold"),
        ("core.execute_rd_warm_s", "core.execute_rd_warm"),
        ("core.execute_ns_cold_s", "core.execute_ns_cold"),
        ("core.execute_ns_warm_s", "core.execute_ns_warm"),
    ] {
        out.set(metric, median(&spans.durations(span, PROBE_OP)));
    }
    let (rd, ns): (&RunOutcome, &RunOutcome) = (&outs[0], &outs[4]);
    out.set("core.sim.rd_krylov_iters", rd.krylov_iters);
    out.set("core.sim.ns_krylov_iters", ns.krylov_iters);
    out.set("core.sim.rd_linf", rd.verification.map_or(0.0, |v| v.linf));
    out.set("core.sim.ns_linf", ns.verification.map_or(0.0, |v| v.linf));
    out.set("core.sim.total_s_per_iter", rd.phases.total);
    out.set("core.sim.bytes_per_iter", rd.bytes_per_iteration);

    const REPS: usize = 200;
    let modeled = RunRequest {
        seed,
        discard: 1,
        fidelity: Fidelity::Modeled,
        ..RunRequest::new(catalog::ec2(), App::paper_rd(4), 64, 20)
    };
    let modeled_s = median_s(5, || {
        spans.scope("core.execute_modeled", |_| {
            for _ in 0..REPS {
                black_box(execute(&modeled).is_ok());
            }
        });
    });
    out.set("core.execute_modeled_us", modeled_s * 1e6 / REPS as f64);

    let cell = campaign_cell(seed, 16);
    let build_s = median_s(5, || {
        prep::clear_cache();
        spans.scope("core.prep.build", |_| {
            black_box(prep::scenario_for(&cell).is_some())
        });
    });
    out.set("core.prep.build_s", build_s);
    let hit_s = median_s(5, || {
        spans.scope("core.prep.hit", |_| {
            for _ in 0..REPS {
                black_box(prep::scenario_for(&cell).is_some());
            }
        });
    });
    out.set("core.prep.hit_us", hit_s * 1e6 / REPS as f64);

    let key_s = median_s(5, || {
        spans.scope("core.canon.request_key", |_| {
            for _ in 0..REPS {
                black_box(request_key(&cell));
            }
        });
    });
    out.set("core.canon.request_key_us", key_s * 1e6 / REPS as f64);
    let request_s = median_s(5, || {
        spans.scope("core.json.request", |_| {
            for _ in 0..REPS {
                black_box(serde_json::to_string(&cell).map(|s| s.len()).ok());
            }
        });
    });
    out.set("core.json.request_us", request_s * 1e6 / REPS as f64);
    let roundtrip_s = median_s(5, || {
        spans.scope("core.json.outcome_roundtrip", |_| {
            for _ in 0..REPS {
                let text = serde_json::to_string(rd).expect("RunOutcome serializes infallibly");
                black_box(serde_json::from_str::<RunOutcome>(&text).is_ok());
            }
        });
    });
    out.set(
        "core.json.outcome_roundtrip_us",
        roundtrip_s * 1e6 / REPS as f64,
    );
    Ok(())
}

/// `plan`: one traced `campaign_table3` op on a scratch cache directory.
fn probe_plan(
    seed: u64,
    scratch: &Path,
    spans: &mut Spans,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut campaign = workloads::build("campaign_table3", seed, &scratch.join("plan-probe"))?;
    campaign.op(spans)?;
    for (metric, span, scale) in [
        ("plan.load_resolve_us", "plan.load_resolve", 1e6),
        ("plan.execute_cold_s", "plan.execute_cold", 1.0),
        ("plan.execute_warm_s", "plan.execute_warm", 1.0),
    ] {
        out.set(metric, median(&spans.durations(span, PROBE_OP)) * scale);
    }
    campaign.layer_metrics(spans, &[], out)
}

/// `serve`: the journal and the result cache called directly, on a scratch
/// directory, with the outcome of a small modeled job.
fn probe_serve_stores(
    seed: u64,
    scratch: &Path,
    spans: &mut Spans,
    out: &mut Metrics,
) -> Result<(), String> {
    const REPS: usize = 200;
    let io = |e: std::io::Error| e.to_string();
    let dir = scratch.join("serve-probe");
    std::fs::create_dir_all(&dir).map_err(io)?;
    let requests: Vec<RunRequest> = (0..REPS as u64)
        .map(|i| RunRequest {
            seed: seed.wrapping_add(i),
            discard: 1,
            fidelity: Fidelity::Modeled,
            ..RunRequest::new(catalog::ec2(), App::paper_rd(4), 8, 20)
        })
        .collect();
    let keys: Vec<String> = requests.iter().map(request_key).collect();
    let outcome = JobOutcome::Completed(execute(&requests[0]).map_err(|e| format!("{e:?}"))?);

    let (mut journal, _, _) = Journal::open(&dir.join("journal.log"), false).map_err(io)?;
    let (res, append_s) = spans.timed("serve.journal_append", |_| {
        requests
            .iter()
            .zip(&keys)
            .enumerate()
            .try_for_each(|(i, (req, key))| journal.append_submit(i as u64, key, req))
    });
    res.map_err(io)?;
    out.set("serve.journal_append_us", append_s * 1e6 / REPS as f64);

    let mut cache = ResultCache::open(&dir.join("cache")).map_err(io)?;
    let (res, store_s) = spans.timed("serve.cache_store", |_| {
        keys.iter().try_for_each(|key| cache.store(key, &outcome))
    });
    res.map_err(io)?;
    out.set("serve.cache_store_us", store_s * 1e6 / REPS as f64);
    let (hits, get_s) = spans.timed("serve.cache_get", |_| {
        keys.iter()
            .filter(|key| matches!(cache.get(key), CacheLookup::Hit(_)))
            .count()
    });
    if hits != REPS {
        return Err(format!(
            "cache probe: {hits} of {REPS} stored artifacts verified"
        ));
    }
    out.set("serve.cache_get_us", get_s * 1e6 / REPS as f64);
    Ok(())
}

/// Runs every layer probe. `ranks` is the workload's rank count; `scratch`
/// a directory the probes may fill.
pub fn run_probes(
    seed: u64,
    ranks: usize,
    scratch: &Path,
    spans: &mut Spans,
    out: &mut Metrics,
) -> Result<(), String> {
    probe_mesh_partition(ranks, spans, out);
    probe_fem_linalg(spans, out);
    probe_simmpi(ranks, spans, out);
    probe_trace(spans, out)?;
    probe_platform_fault(seed, spans, out)?;
    probe_core(seed, spans, out)?;
    probe_plan(seed, scratch, spans, out)?;
    probe_serve_stores(seed, scratch, spans, out)
}

/// `prep::cache_stats()` as `[builds, hits, profile hits]`.
pub fn prep_counts() -> [u64; 3] {
    let (builds, hits, profile_hits) = prep::cache_stats();
    [builds, hits, profile_hits]
}
