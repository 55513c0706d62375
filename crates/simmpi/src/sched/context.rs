//! Stackful-coroutine primitives: the task stacks of a job and the
//! register-level context switch the M:N scheduler is built on.
//!
//! Together with the scheduler above it, this is the only code in the
//! crate that needs `unsafe`. The surface is three small things:
//!
//! * [`Context`] — the callee-saved register file of a suspended execution
//!   (stack pointer included). A context is only ever *entered* by the
//!   matching [`ctx_swap`], which first saves the current execution into
//!   another `Context`, so control flow forms a strict hand-off chain.
//! * [`job_stacks`] / [`TaskStack`] — the stack slab of one job (below).
//! * [`init_context`] — builds the initial `Context` of a not-yet-started
//!   task: the first swap into it "returns" into a tiny assembly trampoline
//!   that calls [`hetero_simmpi_task_entry`](super::hetero_simmpi_task_entry)
//!   with the task's control block.
//!
//! # The stack slab
//!
//! A job's stacks are allocated together, when the job starts, in chunks
//! of up to [`STACKS_PER_CHUNK`] stacks laid back to back. Each
//! [`TaskStack`] holds a reference count on its chunk, so a chunk is owned
//! jointly by the tasks running on it and is freed when the last of them is
//! dropped — when the job returns, since the engine keeps every task until
//! then. Nothing outlives the job: there is no pool and nothing to retain
//! or trim.
//!
//! The chunking is about what "freed" means. A stack allocated on its own
//! is mapped and unmapped by glibc only until the first one is freed: that
//! raises the allocator's mmap threshold past the stack size, every later
//! job's stacks are cut from the `brk` heap, and the holes they leave are
//! refilled by small allocations, so the next job's stacks land on fresh
//! pages and the resident set climbs with every job a process runs
//! (measured at 512 ranks: +18 MB per job, 82 → 436 MB over thirty jobs
//! and still rising, against a flat 82 MB with chunks). A full chunk is
//! larger than the threshold can grow, so it is a mapping of its own: a
//! rank's stack costs the pages it touches (its canary page and the few
//! frames at the top) and only while the job runs. A last chunk of fewer
//! than 32 stacks — the only chunk of a small job — may still come from
//! the heap; it is then one hole of the same size every time, not a
//! scatter of them.
//!
//! There is no guard page. Overflow is caught by a canary at the low end
//! of each stack, checked by the worker after every hand-off
//! ([`TaskStack::canary_ok`]); an overflowing rank writes into the top of
//! its lower neighbour's stack (or off the chunk) first, and the process
//! aborts at its next yield. A `PROT_NONE` page per stack would make that a
//! fault at the first bad write, but it splits every stack into a mapping
//! of its own — two VMAs per rank — and `vm.max_map_count` defaults to
//! 65 530: the 32 768-rank soak would need 65 536, and
//! [`MAX_REAL_RANKS`](crate::engine::MAX_REAL_RANKS) four times that.
//!
//! Only the System-V-flavoured targets the workspace actually runs on are
//! supported (`x86_64` and `aarch64` on non-Windows); the engine is the
//! only way to run ranks, so `crate::engine` makes any other target a
//! build error.
//!
//! # Safety argument
//!
//! A context switch moves execution between stacks on the *same* OS thread;
//! the scheduler guarantees each task is resumed by exactly one worker at a
//! time (hand-offs synchronize through the scheduler mutex, which provides
//! the necessary happens-before edges when a task migrates between
//! workers). Panics never cross a switch: every coroutine body runs under
//! `catch_unwind` at the bottom of its own stack, and the trampoline frame
//! below it is never unwound through.

#![allow(unsafe_code)]

use std::alloc::{alloc, dealloc, Layout};
use std::sync::Arc;

/// Number of saved registers in a [`Context`].
#[cfg(target_arch = "x86_64")]
const REG_COUNT: usize = 7; // rsp, rbx, rbp, r12..r15
/// Number of saved registers in a [`Context`].
#[cfg(target_arch = "aarch64")]
const REG_COUNT: usize = 21; // sp, x19..x30, d8..d15

/// Register index holding the stack pointer.
const REG_SP: usize = 0;
/// Register index that carries the task-control-block pointer into the
/// entry trampoline (a callee-saved register the trampoline moves into the
/// first-argument register).
#[cfg(target_arch = "x86_64")]
const REG_ARG: usize = 3; // r12
#[cfg(target_arch = "aarch64")]
const REG_ARG: usize = 1; // x19
/// Register index the first swap "returns" through (the slot the trampoline
/// address is planted in). On x86_64 the return address lives on the stack
/// instead, so this is unused there.
#[cfg(target_arch = "aarch64")]
const REG_LR: usize = 12; // x30

/// The callee-saved register file of a suspended execution.
///
/// `repr(C)` because the assembly addresses fields by byte offset.
#[repr(C)]
#[derive(Debug)]
pub(crate) struct Context {
    regs: [usize; REG_COUNT],
}

impl Context {
    /// An empty context; a valid *save* target (its content is entirely
    /// overwritten by the first [`ctx_swap`] that saves into it) but not a
    /// valid *restore* source until it has been saved into or built by
    /// [`init_context`].
    pub(crate) fn new() -> Self {
        Context {
            regs: [0; REG_COUNT],
        }
    }
}

unsafe extern "C" {
    /// Saves the current callee-saved register file into `save` and resumes
    /// the execution captured in `restore`. Returns when something later
    /// swaps back into `save`.
    ///
    /// # Safety
    /// `restore` must have been produced by a prior save or by
    /// [`init_context`]; both pointers must be valid and distinct; the
    /// stack captured in `restore` must be live and not in use by any other
    /// thread.
    unsafe fn hetero_simmpi_ctx_swap(save: *mut Context, restore: *const Context);

    /// The assembly entry trampoline (never called from Rust; its address
    /// is planted in fresh task contexts).
    fn hetero_simmpi_ctx_entry();
}

/// Saves the current execution into `save` and resumes `restore`.
///
/// # Safety
/// See the extern declaration of `hetero_simmpi_ctx_swap`: `restore` must
/// hold a suspended execution (prior save or [`init_context`]), both
/// pointers must be valid and distinct, and the target stack must be live
/// and unused by any other thread.
#[inline]
pub(crate) unsafe fn ctx_swap(save: *mut Context, restore: *const Context) {
    unsafe { hetero_simmpi_ctx_swap(save, restore) }
}

#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    // Context layout: [rsp, rbx, rbp, r12, r13, r14, r15] at 8-byte stride.
    ".text",
    ".globl hetero_simmpi_ctx_swap",
    ".p2align 4",
    "hetero_simmpi_ctx_swap:",
    "mov [rdi + 0x00], rsp",
    "mov [rdi + 0x08], rbx",
    "mov [rdi + 0x10], rbp",
    "mov [rdi + 0x18], r12",
    "mov [rdi + 0x20], r13",
    "mov [rdi + 0x28], r14",
    "mov [rdi + 0x30], r15",
    "mov rsp, [rsi + 0x00]",
    "mov rbx, [rsi + 0x08]",
    "mov rbp, [rsi + 0x10]",
    "mov r12, [rsi + 0x18]",
    "mov r13, [rsi + 0x20]",
    "mov r14, [rsi + 0x28]",
    "mov r15, [rsi + 0x30]",
    "ret",
    // First entry into a fresh task: the initial context's r12 carries the
    // task control block; move it into the argument register, terminate the
    // frame-pointer chain, and call the Rust entry (which never returns).
    ".globl hetero_simmpi_ctx_entry",
    ".p2align 4",
    "hetero_simmpi_ctx_entry:",
    "mov rdi, r12",
    "xor ebp, ebp",
    "call hetero_simmpi_task_entry",
    "ud2",
);

#[cfg(target_arch = "aarch64")]
std::arch::global_asm!(
    // Context layout: [sp, x19..x30, d8..d15] at 8-byte stride.
    ".text",
    ".globl hetero_simmpi_ctx_swap",
    ".p2align 2",
    "hetero_simmpi_ctx_swap:",
    "mov x9, sp",
    "str x9,       [x0, #0x00]",
    "stp x19, x20, [x0, #0x08]",
    "stp x21, x22, [x0, #0x18]",
    "stp x23, x24, [x0, #0x28]",
    "stp x25, x26, [x0, #0x38]",
    "stp x27, x28, [x0, #0x48]",
    "stp x29, x30, [x0, #0x58]",
    "stp d8,  d9,  [x0, #0x68]",
    "stp d10, d11, [x0, #0x78]",
    "stp d12, d13, [x0, #0x88]",
    "stp d14, d15, [x0, #0x98]",
    "ldr x9,       [x1, #0x00]",
    "mov sp, x9",
    "ldp x19, x20, [x1, #0x08]",
    "ldp x21, x22, [x1, #0x18]",
    "ldp x23, x24, [x1, #0x28]",
    "ldp x25, x26, [x1, #0x38]",
    "ldp x27, x28, [x1, #0x48]",
    "ldp x29, x30, [x1, #0x58]",
    "ldp d8,  d9,  [x1, #0x68]",
    "ldp d10, d11, [x1, #0x78]",
    "ldp d12, d13, [x1, #0x88]",
    "ldp d14, d15, [x1, #0x98]",
    "ret",
    ".globl hetero_simmpi_ctx_entry",
    ".p2align 2",
    "hetero_simmpi_ctx_entry:",
    "mov x0, x19",
    "mov x29, xzr",
    "mov x30, xzr",
    "bl hetero_simmpi_task_entry",
    "brk #0",
);

/// Bytes of canary pattern written at the low (overflow) end of each stack.
const CANARY_BYTES: usize = 64;
/// The canary fill byte.
const CANARY_FILL: u8 = 0x5A;

/// Most stacks carved from one allocation. A full chunk of
/// `engine::DEFAULT_TASK_STACK_BYTES` stacks is 64 MiB — above the 32 MiB ceiling of glibc's adaptive mmap
/// threshold, so it is a mapping of its own however many jobs the process
/// has run — while one allocation for a whole 32 768-rank job (32 GiB)
/// would be refused by heuristic overcommit.
const STACKS_PER_CHUNK: usize = 64;

/// One allocation holding up to [`STACKS_PER_CHUNK`] equal stacks back to
/// back; freed when the last [`TaskStack`] carved from it is dropped.
struct StackChunk {
    base: *mut u8,
    layout: Layout,
}

// A chunk is only an address range to allocate and free: all access to the
// bytes goes through the `TaskStack`s carved from it, each a disjoint
// sub-range written by one coroutine at a time (see `TaskStack`).
unsafe impl Send for StackChunk {}
unsafe impl Sync for StackChunk {}

impl Drop for StackChunk {
    fn drop(&mut self) {
        // SAFETY: base/layout came from `alloc` in `job_stacks`, and no
        // `TaskStack` into the chunk is left (each holds an `Arc` of it).
        unsafe { dealloc(self.base, self.layout) };
    }
}

/// A coroutine stack: one 16-byte-aligned slot (both supported ABIs require
/// that alignment) of a job's stack slab.
///
/// The stacks of a job are carved from shared chunks by [`job_stacks`] and
/// keep their chunk alive; see the module docs for what that buys.
pub(crate) struct TaskStack {
    chunk: Arc<StackChunk>,
    /// Byte offset of this stack's low end inside the chunk.
    offset: usize,
    bytes: usize,
}

impl TaskStack {
    fn base(&self) -> *mut u8 {
        // SAFETY: `offset + bytes` is within the chunk's allocation by
        // construction in `job_stacks`.
        unsafe { self.chunk.base.add(self.offset) }
    }

    /// One past the highest usable address; 16-byte aligned.
    pub(crate) fn top(&self) -> usize {
        self.base() as usize + self.bytes
    }

    /// Whether the low-end canary is intact. A dead canary means the task
    /// overflowed its stack into the canary region (and possibly beyond,
    /// into the top of the neighbouring slot or off the chunk).
    pub(crate) fn canary_ok(&self) -> bool {
        // SAFETY: the canary region is inside this stack's slot of the live
        // chunk.
        unsafe { std::slice::from_raw_parts(self.base(), CANARY_BYTES) }
            .iter()
            .all(|&b| b == CANARY_FILL)
    }
}

/// Allocates the stack slab of one job: `count` stacks of at least `bytes`
/// bytes each, in chunks of at most [`STACKS_PER_CHUNK`], with the canary
/// planted in every stack.
pub(crate) fn job_stacks(count: usize, bytes: usize) -> Vec<TaskStack> {
    let bytes = bytes.max(4096).next_multiple_of(16);
    let mut stacks = Vec::with_capacity(count);
    while stacks.len() < count {
        let in_chunk = (count - stacks.len()).min(STACKS_PER_CHUNK);
        let layout = Layout::from_size_align(in_chunk * bytes, 16).expect("valid stack layout");
        // SAFETY: layout has non-zero size.
        let base = unsafe { alloc(layout) };
        assert!(!base.is_null(), "task stack allocation failed");
        let chunk = Arc::new(StackChunk { base, layout });
        for slot in 0..in_chunk {
            let stack = TaskStack {
                chunk: chunk.clone(),
                offset: slot * bytes,
                bytes,
            };
            // SAFETY: the first CANARY_BYTES of the slot are inside the
            // fresh allocation and nothing else refers to them yet.
            unsafe { std::ptr::write_bytes(stack.base(), CANARY_FILL, CANARY_BYTES) };
            stacks.push(stack);
        }
    }
    stacks
}

/// Builds the initial context of a fresh task on `stack`: the first swap
/// into it enters the assembly trampoline, which calls
/// `hetero_simmpi_task_entry(ctl)`.
pub(crate) fn init_context(stack: &TaskStack, ctl: *mut ()) -> Context {
    let mut ctx = Context::new();
    let top = stack.top();
    debug_assert_eq!(top % 16, 0);
    #[cfg(target_arch = "x86_64")]
    {
        // Plant the trampoline address as the "return address" the first
        // swap's `ret` pops. rsp % 16 == 8 at that point, which is exactly
        // the ABI state on function entry, so the trampoline's `call` lands
        // in `hetero_simmpi_task_entry` with a conformant stack.
        let slot = (top - 8) as *mut usize;
        // SAFETY: top-8 is inside the stack allocation and 8-aligned.
        unsafe { *slot = hetero_simmpi_ctx_entry as *const () as usize };
        ctx.regs[REG_SP] = top - 8;
        ctx.regs[REG_ARG] = ctl as usize;
    }
    #[cfg(target_arch = "aarch64")]
    {
        // The swap's `ret` branches to the restored link register; sp must
        // stay 16-aligned at all times on aarch64.
        ctx.regs[REG_SP] = top;
        ctx.regs[REG_ARG] = ctl as usize;
        ctx.regs[REG_LR] = hetero_simmpi_ctx_entry as *const () as usize;
    }
    ctx
}
