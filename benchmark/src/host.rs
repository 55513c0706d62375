//! Host readings (`/proc/self/*`, no `unsafe`) and order statistics.

use std::fs;
use std::path::Path;

/// Linux reports `utime`/`stime` in clock ticks of 1/100 s on every
/// supported architecture (`USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

fn status_kb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) in KiB.
pub fn peak_rss_kb() -> f64 {
    status_kb("VmHWM:")
}

/// Current resident set (`VmRSS`) in KiB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}

/// User + system CPU seconds of the whole process (all threads).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SECOND
}

/// `nproc`, CPU model, and where the state directory lives — recorded with
/// every human-readable report so a number is never read without its host.
pub fn host_shape(state_root: &Path) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown cpu".to_string());
    format!("{cpus} cpus, {model}, state under {}", state_root.display())
}

/// Number and total size of the regular files directly inside `dir`.
pub fn dir_files_bytes(dir: &Path) -> std::io::Result<(u64, u64)> {
    let (mut files, mut bytes) = (0, 0);
    for entry in fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            files += 1;
            bytes += meta.len();
        }
    }
    Ok((files, bytes))
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Smallest of `xs`; 0 when empty.
pub fn min(xs: &[f64]) -> f64 {
    quantile(xs, 0.0)
}
