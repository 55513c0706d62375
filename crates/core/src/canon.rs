//! Canonical serialization and stable content hashing for [`RunRequest`].
//!
//! The serve layer caches run outcomes under a content-addressed key. That
//! key must be *stable*: refactoring a struct (renaming a field, reordering
//! declarations) must not silently change the key and orphan every cached
//! artifact. Deriving the key from `serde` output would do exactly that —
//! derived serialization mirrors the Rust declaration. So the canonical
//! encoding is written by hand against an explicit, versioned schema:
//! every field is emitted under a string-literal name in a fixed order,
//! floats are emitted as their exact IEEE-754 bit patterns, and the golden
//! fixtures in `tests/serve_keys.rs` pin the resulting bytes. Changing the
//! encoding intentionally means bumping `KEY_SCHEMA` — which retires the
//! old cache generation explicitly rather than corrupting it silently.
//!
//! What the key covers — and what it deliberately omits — follows the
//! repo's determinism batteries: computed reports are byte-identical
//! across `sched_workers` (a host-only knob), `threads_per_rank` and
//! `engine` are inert, and a request's `trace` spec never perturbs the
//! measured report, so none of them participate. Display-only strings
//! (`PlatformSpec::description`, `cpu_model`, `CostModel::note`,
//! `NetworkModel::name`) are likewise omitted; every number that feeds the
//! virtual clocks — and the platform `key`, which the outcome echoes — is
//! included. Over-inclusion merely costs a spurious cache miss;
//! under-inclusion would alias distinct outcomes under one key, so when in
//! doubt a field goes in.
//!
//! Generation `v2` of the schema exists because `v1` broke the host-only
//! rule above: it hashed a per-step operator backend and a checkpoint
//! serialization mode, two switches that produced byte-identical reports
//! by construction. Both options are gone from the code (the steppers
//! always refresh a retained operator in place; the simulated checkpoint
//! store keeps one in-memory snapshot), and their three members left the
//! canonical text together with the tag bump. `v1` artifacts on disk are
//! never looked up again: they are neither read nor quarantined.
//!
//! Keys sit on the hot path of every cache hit, so both steps avoid
//! copies. The canonical text is written field by field into one buffer
//! sized for a whole request (`fmt::Write`, no string per field), and
//! the digest streams: whole 64-byte blocks are compressed straight from
//! the input, only the tail is padded, in a buffer on the stack, and the
//! digest is hex-encoded into one preallocated string.
//!
//! Every SHA-256 of the workspace — [`request_key`], [`prep_key`],
//! [`sha256_hex`] (the artifact store's body hash, `hetero-plan`'s
//! stage keys) — runs through one private function, `canon::sha256`,
//! which has two kernels with identical digests. On x86_64 each call asks
//! the CPU whether it has the SHA extensions (SHA-NI, with SSSE3 and
//! SSE4.1) and, if so, compresses on them, five to six times faster than
//! the portable kernel every other CPU and target runs; no option or
//! variable chooses. That kernel is this crate's only `unsafe` code: a
//! function compiled for instructions beyond the build's baseline may be
//! called only once the CPU has reported them, and its block and state
//! accesses are raw unaligned 16-byte loads and stores. The crate
//! therefore denies `unsafe` rather than forbidding it, and allows it in
//! that one module.

use crate::apps::App;
use crate::recovery::ResilienceSpec;
use crate::run::{Fidelity, RunRequest};
use hetero_fault::{
    Backoff, CrashProcess, DegradationModel, FaultModel, RecoveryMode, ResiliencePolicy, SpotMarket,
};
use hetero_fem::bdf::BdfOrder;
use hetero_fem::element::ElementOrder;
use hetero_fem::ns::{MomentumSolver, NsConfig};
use hetero_fem::rd::{PrecondKind, RdConfig};
use hetero_linalg::{SolveOptions, SolverVariant};
use hetero_platform::cost::{Billing, CostModel};
use hetero_platform::limits::ExecutionLimits;
use hetero_platform::scheduler::{QueueModel, SchedulerKind};
use hetero_platform::spec::AccessKind;
use hetero_platform::spot::FleetStrategy;
use hetero_platform::PlatformSpec;
use hetero_simmpi::{ClusterTopology, ComputeModel, NetworkModel};
use std::fmt::Write as _;

mod sha256;

pub(crate) use sha256::sha256;

/// Version tag of the canonical key schema. Doubles as the prefix of every
/// key string, so a key names the schema that produced it.
const KEY_SCHEMA: &str = "hetero-serve/key/v2";

/// The content-addressed cache key of a request: the schema tag followed
/// by the SHA-256 of [`canonical_request`]'s bytes.
pub fn request_key(req: &RunRequest) -> String {
    tagged_key(KEY_SCHEMA, &canonical_request(req))
}

/// The canonical text of a request under `KEY_SCHEMA` — the exact bytes
/// [`request_key`] hashes. Human-readable on purpose: a key mismatch
/// debugs by diffing two of these.
pub fn canonical_request(req: &RunRequest) -> String {
    let mut c = Canon::new();
    c.s("schema", KEY_SCHEMA);
    c.group("app", |c| canon_app(c, &req.app));
    c.group("platform", |c| canon_platform(c, &req.platform));
    c.u("ranks", req.ranks as u64);
    c.u("per_rank_axis", req.per_rank_axis as u64);
    c.u("seed", req.seed);
    c.u("discard", req.discard as u64);
    c.lit(
        "fidelity",
        match req.fidelity {
            Fidelity::Numerical => "numerical",
            Fidelity::Modeled => "modeled",
            Fidelity::Auto => "auto",
        },
    );
    match req.solver_variant {
        None => c.none("solver_variant"),
        Some(v) => c.lit("solver_variant", solver_variant_name(v)),
    }
    c.opt(
        "topology_override",
        req.topology_override.as_ref(),
        |c, t| {
            canon_topology(c, t);
        },
    );
    c.opt("cost_override", req.cost_override.as_ref(), |c, m| {
        canon_cost(c, m);
    });
    c.opt("resilience", req.resilience.as_ref(), |c, r| {
        canon_resilience(c, r);
    });
    c.finish()
}

/// Version tag of the prepared-scenario sub-key schema (see
/// `crate::prep`). Like `KEY_SCHEMA`, it prefixes every key it produces.
const PREP_KEY_SCHEMA: &str = "hetero-prep/key/v1";

/// The content-addressed key of a request's prepared scenario: the
/// schema tag followed by the SHA-256 of `prep_canonical`'s bytes.
pub fn prep_key(req: &RunRequest) -> String {
    tagged_key(PREP_KEY_SCHEMA, &prep_canonical(req))
}

/// `<schema>/<sha256 of text>`, built in one allocation.
fn tagged_key(schema: &str, text: &str) -> String {
    let mut key = String::with_capacity(schema.len() + 1 + 64);
    key.push_str(schema);
    key.push('/');
    push_hex(&mut key, &sha256(text.as_bytes()));
    key
}

/// The canonical text of a request's *setup inputs* under
/// `PREP_KEY_SCHEMA` — the exact bytes [`prep_key`] hashes.
///
/// The key guards what a [`crate::prep::PreparedScenario`] holds: the
/// modeled space views, pure functions of the mesh spec, the
/// discretization's element orders, the rank count, and the
/// block-partition factors — nothing else; and the recorded runs and
/// fast-forward profiles, which depend on those inputs plus what their own
/// in-scenario keys add (`prep::tape_key`, `prep::ff_memo_key`). The
/// encoding therefore *deliberately excludes* the platform, the seed, the
/// solver variant, the checkpoint cadence and every other resilience knob,
/// the time-stepping parameters, and all host-only knobs
/// (`threads_per_rank`, `engine`, `sched_workers`, `trace`): instances
/// that differ only in those share one preparation. The golden fixtures
/// in `tests/prep_keys.rs` pin both the bytes and the exclusions.
fn prep_canonical(req: &RunRequest) -> String {
    let (f, cells) = crate::modeled::weak_scaling_grid(req.ranks, req.per_rank_axis);
    let mut c = Canon::new();
    c.s("schema", PREP_KEY_SCHEMA);
    c.group("mesh", |c| {
        // The generator: a unit cube of uniform hex cells, weak-scaled as
        // `near_cubic_factors(ranks) * per_rank_axis` per axis.
        c.lit("generator", "unit-cube-hex");
        c.u("cells_x", cells.0 as u64);
        c.u("cells_y", cells.1 as u64);
        c.u("cells_z", cells.2 as u64);
    });
    c.group("discretization", |c| match &req.app {
        App::Rd(cfg) => {
            c.lit("app", "rd");
            c.lit("order", element_order_name(cfg.order));
        }
        App::Ns(cfg) => {
            c.lit("app", "ns");
            c.lit("vel_order", element_order_name(cfg.vel_order));
            c.lit("p_order", element_order_name(cfg.p_order));
        }
    });
    c.u("ranks", req.ranks as u64);
    c.u("per_rank_axis", req.per_rank_axis as u64);
    c.group("partition", |c| {
        c.lit("partitioner", "block");
        c.u("parts_x", f.0 as u64);
        c.u("parts_y", f.1 as u64);
        c.u("parts_z", f.2 as u64);
    });
    c.finish()
}

/// The canonical text of an application alone — discretization, time
/// stepping, step count and every solver option — in the encoding of
/// [`canonical_request`]'s `app` group. It keys in-memory reuse only
/// (`crate::prep`'s recorded runs) and is never hashed into a persisted
/// key.
pub(crate) fn canonical_app(app: &App) -> String {
    let mut c = Canon::new();
    c.group("app", |c| canon_app(c, app));
    c.finish()
}

/// Lowercase-hex SHA-256 (FIPS 180-4) of `data`, computed like every key
/// of this module (see the module docs for the kernel it runs on).
pub fn sha256_hex(data: &[u8]) -> String {
    let mut out = String::with_capacity(64);
    push_hex(&mut out, &sha256(data));
    out
}

/// Appends the digest `h` as 64 lowercase hex digits.
fn push_hex(out: &mut String, h: &[u32; 8]) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for byte in h.iter().flat_map(|v| v.to_be_bytes()) {
        out.push(HEX[usize::from(byte >> 4)] as char);
        out.push(HEX[usize::from(byte & 0xf)] as char);
    }
}

/// The canonical-text writer. Scalar kinds carry a one-letter type tag so
/// no two value spaces can collide (`i:` integer, `f:` IEEE-754 bits,
/// `s:` length-prefixed string, `e:` enum variant, `-` absent); nested
/// records sit in `name={...};` groups.
struct Canon {
    buf: String,
}

impl Canon {
    fn new() -> Self {
        // Room for a whole request's text (about 1.2 kB), so the buffer
        // is allocated once.
        Canon {
            buf: String::with_capacity(2048),
        }
    }

    fn finish(self) -> String {
        self.buf
    }

    /// Writes `name=<tag>` — the start of every field.
    fn field(&mut self, name: &str, tag: &str) {
        self.buf.push_str(name);
        self.buf.push('=');
        self.buf.push_str(tag);
    }

    fn u(&mut self, name: &str, v: u64) {
        self.field(name, "i:");
        let _ = write!(self.buf, "{v};");
    }

    fn f(&mut self, name: &str, v: f64) {
        // Exact bit pattern: distinguishes -0.0 from 0.0 and never loses
        // precision to decimal formatting.
        self.field(name, "f:");
        let _ = write!(self.buf, "{:016x};", v.to_bits());
    }

    fn s(&mut self, name: &str, v: &str) {
        // Length prefix keeps adjacent strings unambiguous regardless of
        // their content (`;` or `=` inside a platform key cannot confuse
        // the framing).
        self.field(name, "s:");
        let _ = write!(self.buf, "{}:", v.len());
        self.buf.push_str(v);
        self.buf.push(';');
    }

    fn lit(&mut self, name: &str, variant: &str) {
        self.field(name, "e:");
        self.buf.push_str(variant);
        self.buf.push(';');
    }

    fn none(&mut self, name: &str) {
        self.field(name, "-;");
    }

    fn group(&mut self, name: &str, f: impl FnOnce(&mut Self)) {
        self.field(name, "{");
        f(self);
        self.buf.push_str("};");
    }

    fn opt<T>(&mut self, name: &str, v: Option<&T>, enc: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.none(name),
            Some(x) => self.group(name, |c| enc(c, x)),
        }
    }

    fn opt_u(&mut self, name: &str, v: Option<u64>) {
        match v {
            None => self.none(name),
            Some(x) => self.u(name, x),
        }
    }

    fn opt_f(&mut self, name: &str, v: Option<f64>) {
        match v {
            None => self.none(name),
            Some(x) => self.f(name, x),
        }
    }

    fn seq_u(&mut self, name: &str, items: impl Iterator<Item = u64>) {
        self.field(name, "[");
        for v in items {
            let _ = write!(self.buf, "i:{v},");
        }
        self.buf.push_str("];");
    }
}

fn element_order_name(o: ElementOrder) -> &'static str {
    match o {
        ElementOrder::Q1 => "q1",
        ElementOrder::Q2 => "q2",
    }
}

fn bdf_name(o: BdfOrder) -> &'static str {
    match o {
        BdfOrder::One => "bdf1",
        BdfOrder::Two => "bdf2",
    }
}

fn precond_name(p: PrecondKind) -> &'static str {
    match p {
        PrecondKind::None => "none",
        PrecondKind::Jacobi => "jacobi",
        PrecondKind::Ssor => "ssor",
        PrecondKind::Ilu0 => "ilu0",
    }
}

fn solver_variant_name(v: SolverVariant) -> &'static str {
    match v {
        SolverVariant::Blocking => "blocking",
        SolverVariant::Overlapped => "overlapped",
        SolverVariant::Pipelined => "pipelined",
    }
}

fn canon_solve(c: &mut Canon, s: &SolveOptions) {
    c.f("rel_tol", s.rel_tol);
    c.f("abs_tol", s.abs_tol);
    c.u("max_iters", s.max_iters as u64);
    c.lit("variant", solver_variant_name(s.variant));
}

fn canon_rd(c: &mut Canon, cfg: &RdConfig) {
    c.lit("order", element_order_name(cfg.order));
    c.lit("bdf", bdf_name(cfg.bdf));
    c.f("t0", cfg.t0);
    c.f("dt", cfg.dt);
    c.u("steps", cfg.steps as u64);
    c.lit("precond", precond_name(cfg.precond));
    c.group("solve", |c| canon_solve(c, &cfg.solve));
}

fn canon_ns(c: &mut Canon, cfg: &NsConfig) {
    c.lit("vel_order", element_order_name(cfg.vel_order));
    c.lit("p_order", element_order_name(cfg.p_order));
    c.lit("bdf", bdf_name(cfg.bdf));
    c.f("t0", cfg.t0);
    c.f("dt", cfg.dt);
    c.u("steps", cfg.steps as u64);
    c.f("rho", cfg.rho);
    c.f("mu", cfg.mu);
    match cfg.momentum_solver {
        MomentumSolver::BiCgStab => c.lit("momentum_solver", "bicgstab"),
        MomentumSolver::Gmres { restart } => c.group("momentum_solver", |c| {
            c.lit("kind", "gmres");
            c.u("restart", restart as u64);
        }),
    }
    c.lit("precond_vel", precond_name(cfg.precond_vel));
    c.lit("precond_p", precond_name(cfg.precond_p));
    c.group("solve_vel", |c| canon_solve(c, &cfg.solve_vel));
    c.group("solve_p", |c| canon_solve(c, &cfg.solve_p));
}

fn canon_app(c: &mut Canon, app: &App) {
    match app {
        App::Rd(cfg) => c.group("rd", |c| canon_rd(c, cfg)),
        App::Ns(cfg) => c.group("ns", |c| canon_ns(c, cfg)),
    }
}

fn canon_compute(c: &mut Canon, m: ComputeModel) {
    c.f("flops_per_sec", m.flops_per_sec);
    c.f("mem_bw", m.mem_bw);
}

fn canon_network(c: &mut Canon, n: &NetworkModel) {
    // `n.name` is a display label; the numbers below are the fabric.
    c.f("latency", n.latency);
    c.f("latency_intra", n.latency_intra);
    c.f("node_bw", n.node_bw);
    c.f("intra_bw", n.intra_bw);
    c.u("switch_radix", n.switch_radix as u64);
    c.f("oversubscription", n.oversubscription);
    c.f("cross_group_lat_mult", n.cross_group_lat_mult);
    c.f("cross_group_bw_mult", n.cross_group_bw_mult);
    c.f("jitter_sigma", n.jitter_sigma);
}

fn canon_cost(c: &mut Canon, m: &CostModel) {
    // `m.note` is provenance prose; only the billing scheme prices runs.
    match m.billing {
        Billing::PerCoreHour(rate) => c.group("per_core_hour", |c| c.f("rate", rate)),
        Billing::PerNodeHour {
            rate,
            cores_per_node,
        } => c.group("per_node_hour", |c| {
            c.f("rate", rate);
            c.u("cores_per_node", cores_per_node as u64);
        }),
        Billing::EstimatedPerCoreHour(rate) => {
            c.group("estimated_per_core_hour", |c| c.f("rate", rate));
        }
    }
}

fn canon_limits(c: &mut Canon, l: &ExecutionLimits) {
    c.u("max_cores", l.max_cores as u64);
    c.opt_u(
        "max_launchable_ranks",
        l.max_launchable_ranks.map(|v| v as u64),
    );
    c.opt_f("adapter_volume_cap", l.adapter_volume_cap);
}

fn canon_queue(c: &mut Canon, q: &QueueModel) {
    c.f("base", q.base);
    c.f("per_node", q.per_node);
    c.f("spread", q.spread);
    c.f("size_exponent", q.size_exponent);
}

fn canon_platform(c: &mut Canon, p: &PlatformSpec) {
    // The outcome echoes `p.key`, so it is observable output, not a label.
    c.s("key", &p.key);
    c.u("cores_per_node", p.cores_per_node as u64);
    c.u("max_nodes", p.max_nodes as u64);
    c.f("ram_per_core_gib", p.ram_per_core_gib);
    c.group("compute", |c| canon_compute(c, p.compute));
    c.group("network", |c| canon_network(c, &p.network));
    c.lit(
        "access",
        match p.access {
            AccessKind::UserSpace => "user-space",
            AccessKind::Root => "root",
        },
    );
    c.lit(
        "scheduler",
        match p.scheduler {
            SchedulerKind::PbsTorque => "pbs-torque",
            SchedulerKind::SgeSerialOnly => "sge-serial-only",
            SchedulerKind::PbsPro => "pbs-pro",
            SchedulerKind::DirectShell => "direct-shell",
        },
    );
    c.group("queue", |c| canon_queue(c, &p.queue));
    c.group("cost", |c| canon_cost(c, &p.cost));
    c.group("limits", |c| canon_limits(c, &p.limits));
    c.f("node_mtbf_hours", p.node_mtbf_hours);
}

fn canon_topology(c: &mut Canon, t: &ClusterTopology) {
    c.u("cores_per_node", t.cores_per_node() as u64);
    c.seq_u(
        "groups",
        (0..t.num_nodes()).map(|n| t.group_of_node(n) as u64),
    );
}

fn canon_backoff(c: &mut Canon, b: &Backoff) {
    c.f("base_seconds", b.base_seconds);
    c.f("factor", b.factor);
    c.f("cap_seconds", b.cap_seconds);
}

fn canon_policy(c: &mut Canon, p: &ResiliencePolicy) {
    c.u("checkpoint_every", p.checkpoint_every as u64);
    c.f("io_bandwidth", p.io_bandwidth);
    match p.mode {
        RecoveryMode::FailFast => c.lit("mode", "fail-fast"),
        RecoveryMode::Restart { max_restarts } => c.group("mode", |c| {
            c.lit("kind", "restart");
            c.u("max_restarts", max_restarts as u64);
        }),
    }
    c.group("backoff", |c| canon_backoff(c, &p.backoff));
}

fn canon_crashes(c: &mut Canon, p: &CrashProcess) {
    c.f("node_mtbf_hours", p.node_mtbf_hours);
}

fn canon_spot(c: &mut Canon, m: &SpotMarket) {
    c.f("epoch_seconds", m.epoch_seconds);
    c.f("base_price", m.base_price);
    c.f("max_bid", m.max_bid);
    c.f("spike_probability", m.spike_probability);
    c.u("capacity_lo", m.capacity_range.0 as u64);
    c.u("capacity_hi", m.capacity_range.1 as u64);
}

fn canon_degradation(c: &mut Canon, d: &DegradationModel) {
    c.f("mean_interval_seconds", d.mean_interval_seconds);
    c.f("duration_seconds", d.duration_seconds);
    c.f("slowdown", d.slowdown);
}

fn canon_faults(c: &mut Canon, f: &FaultModel) {
    c.opt("crashes", f.crashes.as_ref(), canon_crashes);
    c.opt("spot", f.spot.as_ref(), canon_spot);
    c.opt("degradation", f.degradation.as_ref(), canon_degradation);
}

fn canon_strategy(c: &mut Canon, s: FleetStrategy) {
    match s {
        FleetStrategy::OnDemandSingleGroup => c.lit("strategy", "on-demand-single-group"),
        FleetStrategy::SpotMix { groups, max_bid } => c.group("strategy", |c| {
            c.lit("kind", "spot-mix");
            c.u("groups", groups as u64);
            c.f("max_bid", max_bid);
        }),
    }
}

fn canon_resilience(c: &mut Canon, r: &ResilienceSpec) {
    c.group("policy", |c| canon_policy(c, &r.policy));
    c.group("faults", |c| canon_faults(c, &r.faults));
    canon_strategy(c, r.strategy);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_platform::catalog;

    #[test]
    fn key_is_deterministic_and_schema_prefixed() {
        let req = RunRequest::new(catalog::puma(), App::paper_rd(3), 8, 3);
        let a = request_key(&req);
        let b = request_key(&req.clone());
        assert_eq!(a, b);
        assert!(a.starts_with("hetero-serve/key/v2/"));
        assert_eq!(a.len(), KEY_SCHEMA.len() + 1 + 64);
    }

    #[test]
    fn semantic_fields_change_the_key() {
        let base = RunRequest::new(catalog::puma(), App::paper_rd(3), 8, 3);
        let other_seed = RunRequest {
            seed: base.seed + 1,
            ..base.clone()
        };
        let other_size = RunRequest {
            ranks: 27,
            ..base.clone()
        };
        let other_app = RunRequest {
            app: App::paper_ns(3),
            ..base.clone()
        };
        let k = request_key(&base);
        assert_ne!(k, request_key(&other_seed));
        assert_ne!(k, request_key(&other_size));
        assert_ne!(k, request_key(&other_app));
    }

    #[test]
    fn host_only_knobs_do_not_change_the_key() {
        // The determinism batteries pin reports bitwise across worker
        // pools and traces, and `threads_per_rank` is inert, so the cache
        // may legally serve across them.
        let base = RunRequest::new(catalog::puma(), App::paper_rd(3), 8, 3);
        let threaded = RunRequest {
            threads_per_rank: 4,
            sched_workers: 7,
            trace: Some(hetero_trace::TraceSpec::messages()),
            ..base.clone()
        };
        assert_eq!(request_key(&base), request_key(&threaded));
    }

    #[test]
    fn display_strings_do_not_change_the_key() {
        let base = RunRequest::new(catalog::puma(), App::paper_rd(3), 8, 3);
        let mut relabeled = base.clone();
        relabeled.platform.description = "same machine, new sign on the door".to_string();
        relabeled.platform.cpu_model = "Opteron (renamed)".to_string();
        relabeled.platform.cost.note = "different accountant".to_string();
        relabeled.platform.network.name = "1GbE (rebranded)".to_string();
        assert_eq!(request_key(&base), request_key(&relabeled));
    }

    #[test]
    fn float_encoding_distinguishes_bit_patterns() {
        let base = RunRequest::new(catalog::puma(), App::paper_rd(3), 8, 3);
        let mut nudged = base.clone();
        nudged.platform.network.latency =
            f64::from_bits(base.platform.network.latency.to_bits() + 1);
        assert_ne!(request_key(&base), request_key(&nudged));
    }

    #[test]
    fn resilience_participates_in_the_key() {
        let base = RunRequest::new(catalog::ec2(), App::paper_rd(3), 64, 20);
        let resilient = RunRequest {
            resilience: Some(ResilienceSpec::spot_with_restart(
                &catalog::ec2(),
                0.60,
                2,
                3,
            )),
            ..base.clone()
        };
        assert_ne!(request_key(&base), request_key(&resilient));
    }
}
