//! The repo's benchmark. One process runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fem_sweep_8r --seed 2012 --seconds 27 --trace 0
//! ```
//!
//! A run builds its inputs from `--seed`, runs **op 0** cold and untimed
//! (that is `setup_s`), then runs ops one by one for `--seconds` and reports
//! the fastest of those past the workload's warm-up. The last line of stdout
//! is one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`).
//! See `README.md` beside `Cargo.toml` for the why of every choice here.

mod host;
mod layers;
mod rng;
mod spans;
mod workloads;

use layers::{Metrics, PER_LAYER};
use spans::{Spans, PROBE_OP};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::Workload;

/// `(name, unit, bound)`: the bound is the share of the parent's median by
/// which the metric may get worse — the same numbers as `BENCHMARK.json`.
const END_TO_END: [(&str, &str, f64); 3] = [
    ("setup_s", "s", 0.25),
    ("op_s", "s", 0.24),
    ("peak_rss_mb", "MB", 0.12),
];

const DEFAULT_SEED: u64 = 2012;
const DEFAULT_SECONDS: f64 = 27.0;
/// Fresh processes that measure set-up besides this one; `setup_s` is the
/// fastest of all of them. One, because every second spent here is taken
/// from the timed ops by the driver's limit on all runs together.
const SETUP_CHILDREN: usize = 1;
/// A run times at least this many ops past the warm-up, however slow the host.
const MIN_OPS: usize = 3;
/// Share of `--seconds` the traced run spends on ops; the probes take the rest.
const TRACED_OPS_SHARE: f64 = 0.6;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        setup_only: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--setup-only" => args.setup_only = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Directory of this executable: inside the cargo target directory, hence
/// inside the checkout. State and span files go beside the binary.
fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or("executable has no parent directory".to_string())
}

/// A per-process state directory, removed when the run ends.
struct StateDir(PathBuf);

impl StateDir {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = exe_dir()?
            .join("bench-state")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(StateDir(dir))
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Ops attempted and failed, and the text every later op must reproduce.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    op0_text: Option<String>,
}

impl Tally {
    /// Runs one op and accounts for it; returns its wall seconds.
    fn run(&mut self, workload: &mut dyn Workload, spans: &mut Spans) -> f64 {
        let t = Instant::now();
        let result = workload.op(spans);
        let seconds = t.elapsed().as_secs_f64();
        self.attempted += 1;
        let failure = match result {
            Err(e) => Some(e),
            Ok(Some(text)) => match &self.op0_text {
                None => {
                    self.op0_text = Some(text);
                    None
                }
                Some(first) if *first != text => {
                    Some("serialized results differ from op 0's".to_string())
                }
                Some(_) => None,
            },
            Ok(None) => None,
        };
        if let Some(e) = failure {
            self.failed += 1;
            eprintln!("benchmark: op {} failed: {e}", self.attempted - 1);
        }
        seconds
    }
}

/// Builds the inputs and runs op 0; returns the workload and the seconds
/// since `start` — one `setup_s` sample.
fn set_up(
    name: &str,
    seed: u64,
    state: &StateDir,
    tally: &mut Tally,
    start: Instant,
) -> Result<(Box<dyn Workload>, f64), String> {
    let mut workload = workloads::build(name, seed, &state.0)?;
    tally.run(workload.as_mut(), &mut Spans::new(false));
    Ok((workload, start.elapsed().as_secs_f64()))
}

/// Measures set-up in a fresh process, so that lazy statics, first-touch
/// memory and cold caches are paid every time. Returns the seconds and
/// whether the child's op 0 passed its checks.
fn setup_in_child(name: &str, seed: u64) -> Result<(f64, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
            "--setup-only",
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    eprint!("{stderr}");
    let seconds = String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up process printed no time: {e}"))?;
    Ok((seconds, out.status.success()))
}

/// Runs ops one by one until `seconds` have passed. The workload's warm-up
/// ops come first, inside the same window, and are not timed. With
/// `alternate`, every other timed op records spans; returns
/// `(untraced, traced)` op times.
fn timed_ops(
    workload: &mut dyn Workload,
    tally: &mut Tally,
    spans: &mut Spans,
    seconds: f64,
    alternate: bool,
    mut after_op: impl FnMut(),
) -> (Vec<f64>, Vec<f64>) {
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    let warmup = workload.warmup_ops();
    let start = Instant::now();
    let mut i = 0;
    while i < warmup + MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let traced = alternate && i >= warmup && (i - warmup) % 2 == 1;
        spans.set_enabled(traced);
        spans.set_op(tally.attempted);
        let s = tally.run(workload, spans);
        // A warm-up op is run, checked and counted, but not timed.
        if i >= warmup {
            let times = if traced { &mut with_spans } else { &mut plain };
            times.push(s);
        }
        after_op();
        i += 1;
    }
    (plain, with_spans)
}

fn print_result(tally: &Tally, metrics: &[(&str, &str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// The untraced run: the three end-to-end metrics.
fn run_end_to_end(name: &str, args: &Args) -> Result<Tally, String> {
    let mut setups = Vec::with_capacity(SETUP_CHILDREN + 1);
    let mut tally = Tally::default();
    for _ in 0..SETUP_CHILDREN {
        let (seconds, ok) = setup_in_child(name, args.seed)?;
        setups.push(seconds);
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
    }
    let state = StateDir::create(name)?;
    let (mut workload, own_setup) = set_up(name, args.seed, &state, &mut tally, Instant::now())?;
    setups.push(own_setup);

    let (cpu0, ops0) = (host::cpu_seconds(), tally.attempted);
    let (ops, _) = timed_ops(
        workload.as_mut(),
        &mut tally,
        &mut Spans::new(false),
        args.seconds,
        false,
        || {},
    );
    let cpu_per_op = (host::cpu_seconds() - cpu0) / (tally.attempted - ops0) as f64;
    drop(workload);

    eprintln!(
        "benchmark: {name} seed {} — {} timed ops, op_s min/p10/p25/p50/p75 {:.4}/{:.4}/{:.4}/{:.4}/{:.4}, \
         cpu {:.4} s/op, setup samples {:?}; {}",
        args.seed,
        ops.len(),
        host::min(&ops),
        host::quantile(&ops, 0.1),
        host::quantile(&ops, 0.25),
        host::median(&ops),
        host::quantile(&ops, 0.75),
        cpu_per_op,
        setups,
        host::host_shape(&state.0),
    );
    let values = [
        host::min(&setups),
        host::min(&ops),
        host::peak_rss_kb() / 1024.0,
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|((n, u, _), v)| (*n, *u, v))
        .collect();
    print_result(&tally, &metrics);
    Ok(tally)
}

/// The traced run: the same ops with spans on every other one, then the
/// workload's own layer readings and the layer probes.
fn run_traced(name: &str, args: &Args) -> Result<Tally, String> {
    let state = StateDir::create(name)?;
    let mut tally = Tally::default();
    let (mut workload, _) = set_up(name, args.seed, &state, &mut tally, Instant::now())?;
    let mut spans = Spans::new(false);
    let mut out = Metrics::default();

    let (cpu0, ops0) = (host::cpu_seconds(), tally.attempted);
    let mut prep_before = layers::prep_counts();
    let mut prep_delta = [0u64; 3];
    let (plain, with_spans) = timed_ops(
        workload.as_mut(),
        &mut tally,
        &mut spans,
        args.seconds * TRACED_OPS_SHARE,
        true,
        || {
            let now = layers::prep_counts();
            for (d, (n, b)) in prep_delta.iter_mut().zip(now.iter().zip(prep_before)) {
                *d = n - b;
            }
            prep_before = now;
        },
    );
    let ops = (tally.attempted - ops0) as f64;
    out.set("bench.cpu_s_per_op", (host::cpu_seconds() - cpu0) / ops);
    out.set("bench.op_min_s", host::min(&plain));
    out.set("bench.op_p25_s", host::quantile(&plain, 0.25));
    out.set("bench.op_p50_s", host::median(&plain));
    out.set("bench.op_p75_s", host::quantile(&plain, 0.75));
    out.set(
        "bench.trace_overhead_ratio",
        host::min(&with_spans) / host::min(&plain),
    );
    out.set("core.prep.builds_per_op", prep_delta[0] as f64);
    out.set("core.prep.hits_per_op", prep_delta[1] as f64);
    out.set("core.prep.profile_hits_per_op", prep_delta[2] as f64);

    spans.set_enabled(true);
    spans.set_op(PROBE_OP);
    let ranks = workload.ranks();
    let layer_result = workload
        .layer_metrics(&mut spans, &plain, &mut out)
        .and_then(|()| layers::run_probes(args.seed, ranks, &state.0, &mut spans, &mut out));
    drop(workload);
    if let Err(e) = layer_result {
        tally.failed += 1;
        eprintln!("benchmark: layer probes failed: {e}");
    }
    out.set("bench.ops", tally.attempted as f64);
    out.set("bench.ops_failed", tally.failed as f64);

    let span_file = exe_dir()?
        .join("bench-out")
        .join(format!("{name}.spans.jsonl"));
    spans.write_jsonl(&span_file).map_err(|e| e.to_string())?;
    eprintln!(
        "benchmark: {name} seed {} — {} ops, {} spans in {}; {}",
        args.seed,
        ops,
        spans.len(),
        span_file.display(),
        host::host_shape(&state.0),
    );
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|(n, u)| (*n, *u, out.get(n)))
        .collect();
    print_result(&tally, &metrics);
    Ok(tally)
}

/// One end-to-end run of `name` in a fresh process; its three metrics.
fn selfcheck_run(name: &str, args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", name, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{name}: run failed or reported failed ops"));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    let v: serde_json::Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    END_TO_END
        .iter()
        .map(|(metric, _, _)| {
            v.field("metrics")
                .field(metric)
                .field("value")
                .as_f64()
                .ok_or(format!("{name}: no `{metric}` in the result"))
        })
        .collect()
}

/// A/A check: runs the chosen workload(s) twice, the second pass in reverse
/// order, and fails if any end-to-end metric differs by more than its bound.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut first = Vec::new();
    for name in &names {
        first.push(selfcheck_run(name, args)?);
    }
    let mut second = Vec::new();
    for name in names.iter().rev() {
        second.push(selfcheck_run(name, args)?);
    }
    second.reverse();

    let mut ok = true;
    for ((name, a), b) in names.iter().zip(&first).zip(&second) {
        for (((metric, unit, bound), a), b) in END_TO_END.iter().zip(a).zip(b) {
            let diff = (b - a).abs() / a.min(*b);
            let verdict = if diff <= *bound { "ok" } else { "EXCEEDS" };
            ok &= diff <= *bound;
            println!(
                "{name:16} {metric:12} {a:10.4} {b:10.4} {unit:3} diff {:5.2}% bound {:4.1}% {verdict}",
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    if args.selfcheck {
        return selfcheck(args);
    }
    let name = args.workload.as_deref().ok_or(format!(
        "--workload is required (one of {})",
        workloads::NAMES.join(", ")
    ))?;
    if args.setup_only {
        let start = Instant::now();
        let state = StateDir::create(name)?;
        let mut tally = Tally::default();
        let (workload, seconds) = set_up(name, args.seed, &state, &mut tally, start)?;
        drop(workload);
        println!("{seconds}");
        return Ok(tally.failed == 0);
    }
    let tally = if args.trace {
        run_traced(name, args)?
    } else {
        run_end_to_end(name, args)?
    };
    Ok(tally.failed == 0)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
