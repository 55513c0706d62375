//! What a simulated rank leaves behind, and what happens when one outgrows
//! its stack.
//!
//! Resident-set readings are of this process, so the binary holds the one
//! test that takes them; the only other test here spends its time waiting
//! for a child process.

#![cfg(target_os = "linux")]

use hetero_hpc::apps::App;
use hetero_hpc::prep;
use hetero_hpc::run::{execute, Fidelity, RunRequest};
use hetero_platform::catalog;
use hetero_simmpi::{run_spmd, ClusterTopology, ComputeModel, NetworkModel, SimComm, SpmdConfig};
use std::time::{Duration, Instant};

/// The coroutine stack of every rank, spelled here rather than imported so
/// that a change to the engine's stack size shows in this file.
const TASK_STACK_BYTES: usize = 1 << 20;

/// Current resident set of this process in bytes (`VmRSS`).
fn resident_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: u64 = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        .expect("a VmRSS line in kB");
    kib * 1024
}

#[test]
fn back_to_back_jobs_do_not_grow_the_resident_set() {
    // `sched_512r`'s job at a quarter of its ranks and half its steps:
    // every run builds its prepared scenario afresh and allocates 128
    // coroutine stacks.
    let request = RunRequest {
        fidelity: Fidelity::Numerical,
        sched_workers: 1,
        ..RunRequest::new(catalog::ec2(), App::smoke_rd(3), 128, 2)
    };
    let start = Instant::now();
    let mut after = Vec::new();
    for _ in 0..4 {
        prep::clear_cache();
        execute(&request).expect("a 128-rank smoke run");
        after.push(resident_bytes());
    }
    let elapsed = start.elapsed();

    // With the stacks parked in the allocator's heap between jobs, each run
    // after the first added 7-15 MB here: 37, 52, 61, 67 MB against a flat
    // 13.7 MB (the freed 1 MiB holes are refilled by small allocations, so
    // the next job's stacks land on fresh pages).
    let slack = 8 << 20;
    assert!(
        after[3] < after[1] + slack,
        "resident set after each of four runs: {after:?}"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "four 128-rank runs took {elapsed:?}"
    );
}

/// Fills `frames` stack frames of at least 4 KiB each, then blocks in a
/// receive so the rank hands back to its worker at depth.
#[inline(never)]
fn descend(frames: usize, comm: &mut SimComm) -> u8 {
    let mut page = [frames as u8; 4096];
    let page = std::hint::black_box(&mut page);
    let below = if frames == 0 {
        let _ = comm.recv(0, 1);
        0
    } else {
        descend(frames - 1, comm)
    };
    // Read after the call: the frame stays live across it.
    page[0].wrapping_add(below)
}

#[test]
#[ignore = "aborts its process: run only as the child of a_rank_that_overflows_its_stack_aborts_the_process"]
fn child_overflows_a_coroutine_stack() {
    let size = 8;
    let config = SpmdConfig {
        size,
        topo: ClusterTopology::uniform(size, 1),
        net: NetworkModel::ideal(),
        compute: ComputeModel::new(1e9, 1e9),
        seed: 0,
    };
    // The last rank's stack has the other seven below it in the job's
    // slab, so running a quarter of a stack past its own low end lands in
    // mapped memory: what stops the job is the canary check, not a fault.
    // Nobody ever sends, so every rank stays alive and the deep receive
    // parks instead of unwinding.
    run_spmd(config, move |comm| {
        if comm.rank() == size - 1 {
            descend(TASK_STACK_BYTES * 5 / 4 / 4096, comm);
        } else {
            let _ = comm.recv(size - 1, 2);
        }
    });
}

#[test]
fn a_rank_that_overflows_its_stack_aborts_the_process() {
    let child = std::process::Command::new(std::env::current_exe().expect("own path"))
        .args([
            "--exact",
            "child_overflows_a_coroutine_stack",
            "--ignored",
            "--nocapture",
        ])
        .output()
        .expect("the test binary re-executes");
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(
        !child.status.success(),
        "the overflowing child exited cleanly; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("overflowed its coroutine stack"),
        "child died ({}) without the overflow report; stderr:\n{stderr}",
        child.status
    );
}
