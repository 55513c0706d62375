//! The prepared-scenario cache: what prices a run of a campaign sweep
//! without executing it, shared across the sweep's instances (DESIGN.md
//! §13).
//!
//! A sweep re-runs the same FEM problem across platforms, solver variants,
//! checkpoint cadences, and seeds. None of those knobs changes the
//! scenario — `(mesh spec, discretization, ranks, partition params)`, the
//! inputs hashed by [`crate::canon::prep_key`] (`hetero-prep/key/v1`) — so
//! every instance that shares the sub-key shares one [`PreparedScenario`].
//! A run that executes builds its own set-up (mesh, partition, DoF maps,
//! assembly structures) each time; the scenario only holds what lets a run
//! skip executing.
//!
//! Three levels of reuse hang off the bundle:
//!
//! * **Modeled views**: the modeled engine's closed-form space views,
//!   built eagerly with the scenario (closed form, tiny).
//! * **Recorded runs** (numerics once, platforms many): the first plain
//!   numerical run of an app also records every rank's work tape
//!   ([`hetero_simmpi::tape`]) and the numerical outputs no platform
//!   changes. A later plain run of the same app on any platform, topology,
//!   cost model or seed is priced from the tape instead of executed —
//!   traced or not, since a trace is what evaluating the tape implies. The
//!   key is the app's canonical text (`tape_key`); a job's tape is bounded
//!   by `TAPE_BYTES_CAP` (a traced run records its whole tape, and the
//!   scenario keeps it only if it fits), and a scenario keeps at most
//!   `FF_MEMO_CAP` of them. Fault-injected, resuming and checkpointing
//!   runs always execute.
//! * **A fast-forward profile memo** for [`crate::recovery`]: the
//!   failure-free reference replay `(fleet0, ff)` is a pure
//!   function of the request minus its cadence/policy/host knobs, so
//!   cadence sweeps (Table III) reuse one replay per
//!   `(platform, ranks, seed, strategy, app)` combination. The memo key
//!   is the canonical text of the request with those knobs normalized
//!   out; see `ff_memo_key`.
//!
//! The process-wide LRU is the only way a run gets a shared scenario. A
//! sweep that varies platform, seed or cadence inside each rank count (as
//! every checked-in plan does) meets each scenario in one contiguous run of
//! instances, so the LRU's bound never evicts one the sweep still needs.
//!
//! **Determinism.** Every shared artifact is immutable, and every reuse
//! path either prices the recorded charges through the engine's own clock
//! arithmetic or memoizes the result of a pure function — so reports are
//! byte-identical to execution at every worker-pool size and thread count.
//! Disabling sharing ([`disable_sharing_scoped`]) can therefore only lose
//! speed, never change a result: every run still gets a scenario, just a
//! private one that is built for it, counted nowhere, records nothing,
//! and is dropped with it.

use crate::attempt::RankNumerics;
use crate::canon::{canonical_app, canonical_request, prep_key};
use crate::modeled::{weak_scaling_grid, ModeledPrep, ModeledRun};
use crate::recovery::ResilienceSpec;
use crate::run::{Fidelity, RunRequest};
use hetero_fault::{FaultModel, ResiliencePolicy};
use hetero_platform::spot::{FleetAllocation, FleetStrategy};
use hetero_simmpi::{EngineKind, WorkTape};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Bound on the process-wide scenario LRU. A scenario at numerical size
/// holds recorded runs of up to `TAPE_BYTES_CAP` each, so the cache is
/// kept small; a sweep touches few distinct `(mesh, ranks)` rungs at a
/// time and re-preparing on eviction is always correct.
const SCENARIO_CACHE_CAP: usize = 8;

/// Bound on the per-scenario fast-forward profile memo (distinct
/// `(platform, seed, strategy, app)` combinations per scenario), and on
/// the recorded runs a scenario keeps (distinct apps).
const FF_MEMO_CAP: usize = 64;

/// Bound on the work tape one numerical job records, split evenly across
/// its ranks. An 8-rank job records ≈ 0.6 MB (RD, Q2, 4³ cells per rank, 4
/// steps) or ≈ 3.0 MB (NS, 5³ cells, 5 steps: 377 kB of a rank's 512 kB
/// share); at 512 ranks a share is 8 kB, which the set-up alone outgrows,
/// so such a job gives up its tape early and keeps none. A traced run's
/// whole tape is kept only within this bound.
const TAPE_BYTES_CAP: usize = 4 << 20;

/// The memoized failure-free reference profile of a resilient run: the
/// first-attempt fleet and the full fast-forward replay, whose first step
/// also serves as the traffic estimate. Both are pure functions of the
/// inputs hashed by [`ff_memo_key`].
pub(crate) struct FfProfile {
    pub(crate) fleet0: FleetAllocation,
    pub(crate) ff: ModeledRun,
}

/// A scenario's bounded memo, in insertion order: the first value stored
/// under a key stays, and beyond `FF_MEMO_CAP` keys the oldest goes.
struct Memo<V>(VecDeque<(String, Arc<V>)>);

impl<V> Memo<V> {
    fn new() -> Mutex<Self> {
        Mutex::new(Memo(VecDeque::new()))
    }

    fn get(&self, key: &str) -> Option<Arc<V>> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| Arc::clone(v))
    }

    /// Stores `value` under `key` unless a value is there already, and
    /// returns the one kept.
    fn insert(&mut self, key: &str, value: V) -> Arc<V> {
        if let Some(kept) = self.get(key) {
            return kept;
        }
        if self.0.len() >= FF_MEMO_CAP {
            self.0.pop_front();
        }
        let value = Arc::new(value);
        self.0.push_back((key.to_string(), Arc::clone(&value)));
        value
    }
}

/// One completed plain run of a scenario's app, kept to price the same
/// app on other platforms: every rank's work tape, and the numerical
/// outputs no platform changes.
pub(crate) struct RecordedRun {
    pub(crate) tape: WorkTape,
    pub(crate) numerics: Vec<RankNumerics>,
}

impl RecordedRun {
    pub(crate) fn new(tape: WorkTape, numerics: Vec<RankNumerics>) -> Self {
        let run = RecordedRun { tape, numerics };
        TAPE_BYTES_HELD.fetch_add(run.bytes(), Ordering::Relaxed);
        run
    }

    fn bytes(&self) -> u64 {
        (self.tape.bytes() + self.numerics.len() * std::mem::size_of::<RankNumerics>()) as u64
    }
}

impl Drop for RecordedRun {
    fn drop(&mut self) {
        TAPE_BYTES_HELD.fetch_sub(self.bytes(), Ordering::Relaxed);
    }
}

/// An `Arc`-shared bundle of what prices a run of one scenario without
/// executing it — the modeled views, the recorded runs and the ff-profile
/// memo — keyed by [`crate::canon::prep_key`].
pub struct PreparedScenario {
    key: String,
    /// Whether the scenario is shared through the cache. A private one
    /// (the off lane) records no runs: nothing could ever reuse them.
    shared: bool,
    modeled: ModeledPrep,
    /// Recorded runs by [`tape_key`].
    recorded: Mutex<Memo<RecordedRun>>,
    /// Fast-forward profiles by [`ff_memo_key`].
    ff: Mutex<Memo<FfProfile>>,
}

/// Locks `m`, recovering the guard if a panic poisoned it. Whatever can
/// panic (a scenario build) runs before its holder changes anything, and
/// each change is a plain insert or removal, so a panicking holder leaves
/// the value consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl PreparedScenario {
    /// Builds the scenario for `req` (whose sub-key is `key`): the modeled
    /// views now, recorded runs and ff profiles as runs leave them.
    fn build(req: &RunRequest, key: String, shared: bool) -> Self {
        PreparedScenario {
            key,
            shared,
            modeled: ModeledPrep::new(
                req.ranks,
                weak_scaling_grid(req.ranks, req.per_rank_axis).1,
                req.app.primary_order().q(),
            ),
            recorded: Memo::new(),
            ff: Memo::new(),
        }
    }

    /// The modeled engine's prepared setup.
    pub(crate) fn modeled(&self) -> &ModeledPrep {
        &self.modeled
    }

    /// The byte budget a plain run of this scenario records its work tape
    /// within, or `None` when the scenario is private.
    pub(crate) fn tape_budget(&self) -> Option<usize> {
        self.shared.then_some(TAPE_BYTES_CAP)
    }

    /// The recorded run under `key`, if any; a hit counts as served.
    pub(crate) fn recorded_run(&self, key: &str) -> Option<Arc<RecordedRun>> {
        let run = lock(&self.recorded).get(key);
        if run.is_some() {
            TAPES_SERVED.fetch_add(1, Ordering::Relaxed);
        }
        run
    }

    /// Keeps what a recording run left under `key`: its run, or, when the
    /// job kept no tape that fits, nothing but the count.
    pub(crate) fn store_recorded_run(&self, key: &str, run: Option<RecordedRun>) {
        let Some(run) = run else {
            TAPES_ABANDONED.fetch_add(1, Ordering::Relaxed);
            return;
        };
        TAPES_RECORDED.fetch_add(1, Ordering::Relaxed);
        lock(&self.recorded).insert(key, run);
    }

    /// Returns the memoized fast-forward profile for `memo_key`, computing
    /// it with `compute` on a miss. Nothing waits on a profile in flight:
    /// two concurrent misses both compute it, and the memo keeps the first
    /// of two byte-identical results.
    pub(crate) fn ff_profile_or_compute(
        &self,
        memo_key: &str,
        compute: impl FnOnce() -> FfProfile,
    ) -> Arc<FfProfile> {
        if let Some(profile) = lock(&self.ff).get(memo_key) {
            CACHE_FF_HITS.fetch_add(1, Ordering::Relaxed);
            return profile;
        }
        let profile = compute();
        lock(&self.ff).insert(memo_key, profile)
    }
}

/// The memo key of the fast-forward profile: the canonical request text
/// with everything the profile does not depend on normalized to fixed
/// values — warm-up discard, host-only engine knobs, fidelity (the
/// profile is modeled regardless), tracing, and the entire resilience
/// policy and fault model. The fleet `strategy` stays (it picks
/// `fleet0`), as do platform, seed, app (solver options included — they
/// steer the replay), ranks, axis, and the overrides.
pub(crate) fn ff_memo_key(req: &RunRequest, strategy: FleetStrategy) -> String {
    let normalized = RunRequest {
        discard: 0,
        threads_per_rank: 1,
        engine: EngineKind::default(),
        sched_workers: 0,
        fidelity: Fidelity::Modeled,
        trace: None,
        resilience: Some(ResilienceSpec {
            policy: ResiliencePolicy::fail_fast(),
            faults: FaultModel::none(),
            strategy,
        }),
        ..req.clone()
    };
    canonical_request(&normalized)
}

/// The key of a scenario's recorded runs, by the same discipline as
/// [`ff_memo_key`]: everything the work tape depends on beyond the
/// scenario's own `hetero-prep/key/v1` key (mesh, discretization, ranks,
/// partition) — the app's canonical text with its solver options (the
/// request's solver-variant override already folded in) and step count.
/// Left out, because the tape is priced against them rather than recorded
/// under them: platform, topology and cost overrides, seed, discard, and
/// the host-only knobs.
pub(crate) fn tape_key(req: &RunRequest) -> String {
    canonical_app(&req.app)
}

// ---------------------------------------------------------------------------
// The process-wide scenario cache and its scoped off lane.

static DISABLE_DEPTH: AtomicUsize = AtomicUsize::new(0);
static CACHE: OnceLock<Mutex<Vec<Arc<PreparedScenario>>>> = OnceLock::new();
static CACHE_BUILDS: AtomicU64 = AtomicU64::new(0);
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_FF_HITS: AtomicU64 = AtomicU64::new(0);
static TAPES_RECORDED: AtomicU64 = AtomicU64::new(0);
static TAPES_SERVED: AtomicU64 = AtomicU64::new(0);
static TAPES_ABANDONED: AtomicU64 = AtomicU64::new(0);
static TAPE_BYTES_HELD: AtomicU64 = AtomicU64::new(0);

fn cache() -> &'static Mutex<Vec<Arc<PreparedScenario>>> {
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Whether prepared-scenario sharing is active: on by default, off while
/// any [`disable_sharing_scoped`] guard lives.
pub fn sharing_enabled() -> bool {
    DISABLE_DEPTH.load(Ordering::Relaxed) == 0
}

/// An RAII guard that disables sharing process-wide while it lives (the
/// off-lane of the byte-identity batteries and benches). Nesting is fine;
/// concurrent scopes from parallel tests only ever *disable* sharing,
/// which can lose speed but never changes any result.
pub struct UnsharedScope(());

impl Drop for UnsharedScope {
    fn drop(&mut self) {
        DISABLE_DEPTH.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Disables prepared-scenario sharing until the returned guard drops.
pub fn disable_sharing_scoped() -> UnsharedScope {
    DISABLE_DEPTH.fetch_add(1, Ordering::Relaxed);
    UnsharedScope(())
}

/// Cache counters: `(scenarios built, scenario hits, ff profile hits)`.
pub fn cache_stats() -> (u64, u64, u64) {
    (
        CACHE_BUILDS.load(Ordering::Relaxed),
        CACHE_HITS.load(Ordering::Relaxed),
        CACHE_FF_HITS.load(Ordering::Relaxed),
    )
}

/// Work-tape counters of this process (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeStats {
    /// Numerical jobs that recorded a whole tape.
    pub recorded: u64,
    /// Plain runs priced from a recorded tape instead of executed.
    pub served: u64,
    /// Recording jobs whose tape was not kept: a rank outgrew its share,
    /// or a traced run's whole tape exceeds `TAPE_BYTES_CAP`.
    pub abandoned: u64,
    /// Bytes of recorded runs alive now.
    pub bytes_held: u64,
}

/// The process's [`TapeStats`].
pub fn tape_stats() -> TapeStats {
    TapeStats {
        recorded: TAPES_RECORDED.load(Ordering::Relaxed),
        served: TAPES_SERVED.load(Ordering::Relaxed),
        abandoned: TAPES_ABANDONED.load(Ordering::Relaxed),
        bytes_held: TAPE_BYTES_HELD.load(Ordering::Relaxed),
    }
}

/// Empties the scenario cache (tests and cold-path benches).
pub fn clear_cache() {
    lock(cache()).clear();
}

/// The shared scenario for `req`, from the process-wide LRU — building
/// and inserting it on a miss. Returns `None` when sharing is disabled.
pub fn scenario_for(req: &RunRequest) -> Option<Arc<PreparedScenario>> {
    sharing_enabled().then(|| lookup(req, prep_key(req)))
}

/// The LRU's scenario under `key` (that of `req`): a counted hit, or a
/// counted build inserted at the front.
///
/// A build that panics (a malformed request) leaves the lock poisoned but
/// the list untouched — it is only changed after a build returns — so the
/// next caller recovers the guard and carries on.
fn lookup(req: &RunRequest, key: String) -> Arc<PreparedScenario> {
    let mut lru = lock(cache());
    if let Some(pos) = lru.iter().position(|s| s.key == key) {
        let hit = lru.remove(pos);
        lru.insert(0, Arc::clone(&hit));
        CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return hit;
    }
    let built = Arc::new(PreparedScenario::build(req, key, true));
    lru.insert(0, Arc::clone(&built));
    lru.truncate(SCENARIO_CACHE_CAP);
    CACHE_BUILDS.fetch_add(1, Ordering::Relaxed);
    built
}

/// Resolves the scenario an execute path runs on — every run gets one.
/// With sharing on: the LRU's. With sharing off: a private scenario built
/// for this call, which touches neither the LRU nor the counters.
pub(crate) fn resolve(req: &RunRequest) -> Arc<PreparedScenario> {
    scenario_for(req)
        .unwrap_or_else(|| Arc::new(PreparedScenario::build(req, prep_key(req), false)))
}
