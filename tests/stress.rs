//! Stress and soak coverage for the M:N scheduler — `#[ignore]`d by
//! default (a dedicated CI job runs them with `-- --ignored`) so the
//! ordinary test wall stays fast.
//!
//! The interesting claims at this scale are *resource* claims: 32768
//! coroutine ranks must actually complete inside a wall-clock budget,
//! without resident memory exploding — a job's stack slab is mapped fresh and unmapped with the
//! job, so a mostly-idle rank's stack costs the few pages it touches
//! while the job runs and nothing afterwards.

use hetero_simmpi::{
    run_spmd_opts, ClusterTopology, ComputeModel, EngineOpts, FaultPlan, NetworkModel, Payload,
    SpmdConfig,
};
use std::time::{Duration, Instant};

/// An InfiniBand-flavoured config (the ellipse grid's fabric) at `size`
/// ranks packed 16 per node.
fn big_cfg(size: usize) -> SpmdConfig {
    SpmdConfig {
        size,
        topo: ClusterTopology::uniform(size.div_ceil(16), 16),
        net: NetworkModel::infiniband_ddr(),
        compute: ComputeModel::new(1e9, 2e9),
        seed: 11,
    }
}

/// A `kB` field of this process's `/proc/self/status`, in bytes: `VmHWM:`
/// is the peak resident set, `VmRSS:` the current one.
#[cfg(target_os = "linux")]
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: u64 = status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or_else(|| panic!("no `{field}` line in kB"));
    kib * 1024
}

/// A nearest-neighbour exchange: enough real traffic that every rank
/// blocks and resumes several times, with a final value that proves the
/// messages actually flowed in order.
fn neighbour_body(comm: &mut hetero_simmpi::SimComm) -> usize {
    let next = (comm.rank() + 1) % comm.size();
    let prev = (comm.rank() + comm.size() - 1) % comm.size();
    let mut token = comm.rank();
    for step in 0..3u64 {
        comm.send(next, step, Payload::Usize(vec![token]));
        token = comm.recv_usize(prev, step)[0];
    }
    token
}

#[test]
#[ignore = "soak: 32768 ranks; run with -- --ignored"]
fn soak_32768_rank_cooperative_smoke_within_budget() {
    let size = 32768;
    let start = Instant::now();
    let (res, _) = run_spmd_opts(
        big_cfg(size),
        EngineOpts::default(),
        FaultPlan::none(),
        None,
        neighbour_body,
    );
    let res = res.expect("no faults planned");
    let elapsed = start.elapsed();
    assert_eq!(res.len(), size);
    // Three shifts around the ring: rank r ends holding rank (r - 3)'s
    // token.
    for (r, out) in res.iter().enumerate() {
        assert_eq!(out.value, (r + size - 3) % size);
        assert!(out.clock > 0.0);
    }
    // Generous budget: the run takes seconds in release, and the CI job
    // runs release. The assert exists to catch quadratic blowups, not to
    // benchmark.
    assert!(
        elapsed < Duration::from_secs(600),
        "32768-rank smoke took {elapsed:?}"
    );
}

#[test]
#[ignore = "soak: peak-RSS comparison; run with -- --ignored"]
#[cfg(target_os = "linux")]
fn rss_at_32768_cooperative_ranks_stays_sane() {
    // A 1000-rank job first, at the paper's largest rank count: its peak
    // shows the measurement works, and the allocator has then freed a
    // set of coroutine stacks (glibc raises its mmap threshold when it
    // does), so the big job meets it in the state every job after a
    // process's first does. VmHWM is a process-lifetime high-water mark,
    // so the final reading bounds the 32768-rank run: it must fit in a
    // budget a thread-per-rank design could not meet (32768 OS threads at
    // the default 8 MiB stack reservation would ask for 256 GiB of address
    // space and tens of GiB resident just for stacks and kernel
    // bookkeeping).
    let (res, _) = run_spmd_opts(
        big_cfg(1000),
        EngineOpts::default(),
        FaultPlan::none(),
        None,
        neighbour_body,
    );
    assert_eq!(res.expect("no faults planned").len(), 1000);
    let after_small = status_bytes("VmHWM:");
    let rss_before = status_bytes("VmRSS:");

    let (res, _) = run_spmd_opts(
        big_cfg(32768),
        EngineOpts::default(),
        FaultPlan::none(),
        None,
        neighbour_body,
    );
    assert_eq!(res.expect("no faults planned").len(), 32768);
    let after_big = status_bytes("VmHWM:");
    let rss_after = status_bytes("VmRSS:");
    eprintln!(
        "VmHWM after 1000 ranks {after_small}, after 32768 ranks {after_big}; VmRSS \
         {rss_before} before the 32768-rank job, {rss_after} after"
    );

    // 32768 x 1 MiB stacks are 32 GiB of *virtual* space; a rank is
    // resident for the pages it touches (its canary page and a few frames
    // at the top of its stack) plus its communicator and mailbox. The
    // budget is twice the 295 MiB this run peaks at (release build, 2-core
    // Linux host, three runs within 0.1 MiB of each other).
    let budget = 590u64 << 20;
    assert!(
        after_big < budget,
        "peak RSS {after_big} exceeds {budget} after the 32768-rank run \
         (1000 ranks peaked at {after_small})"
    );
    // The stacks belong to the job: its slab is unmapped when it returns,
    // not parked in the allocator for the next job to fragment.
    let slack = 64u64 << 20;
    assert!(
        rss_after < rss_before + slack,
        "resident set went from {rss_before} to {rss_after} across the 32768-rank job"
    );
}
