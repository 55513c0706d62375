//! The peak live heap of one cold 8-rank NS job, counted, not timed.
//!
//! A counting global allocator keeps the bytes live at each instant and
//! their high-water mark. The job is the NS half of the benchmark's
//! `fem_sweep_8r` sweep, run cold (empty prepared-scenario cache) on one
//! scheduler worker, so the allocation sequence is a function of the code
//! alone: the peak is the same in every run, and a change that stores
//! more per sparse-matrix entry, or copies a structure it could share,
//! fails here without a stopwatch.
//!
//! Peak measured when the budget was set: 48 330 493 bytes in release and
//! 48 331 393 in debug (CSR columns as `u32`, one structure per sparsity
//! pattern, serial cell walks writing straight into the triplet buffer and
//! into exactly sized send buffers, no dependency levels, and NS's
//! gradient and divergence assemblies dropped once their operators exist).
//! The same job read 51 792 509 bytes, in release and debug builds alike,
//! while those two assemblies lived to the end of the job, 52 775 341
//! bytes with per-chunk assembly staging and level-ordered sweeps, and
//! 81 459 653 bytes with `usize` columns and a structure copy per matrix.
//! This binary holds one test, so no other test's allocations overlap it.

use hetero_hpc::{execute, prep, App, Fidelity, RunRequest};
use hetero_platform::catalog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// About 10 % above the measured peak.
const HEAP_BUDGET_BYTES: usize = 53_000_000;

/// [`System`], counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method hands its arguments unchanged to `System` and
// returns what `System` returns, so `System`'s contract is this
// allocator's; the counters are plain atomics that no pointer depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as `GlobalAlloc::dealloc` requires of the caller.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_cold_8_rank_ns_job_stays_inside_its_heap_budget() {
    let request = RunRequest {
        seed: 2012,
        discard: 1,
        fidelity: Fidelity::Numerical,
        sched_workers: 1,
        ..RunRequest::new(catalog::ec2(), App::paper_ns(5), 8, 5)
    };
    prep::clear_cache();
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let outcome = execute(&request).expect("the NS job executes");
    let peak = PEAK.load(Relaxed) - base;
    assert!(outcome.verification.is_some(), "a numerical run verifies");
    println!("peak live heap of a cold 8-rank NS job: {peak} bytes");
    assert!(
        peak <= HEAP_BUDGET_BYTES,
        "peak live heap {peak} bytes exceeds the budget of {HEAP_BUDGET_BYTES}"
    );
}
