//! Host-time spans recorded by the harness around every call it makes into
//! a layer. Kept in memory and written out once, when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
    /// The op that caused it; probes run after the ops and carry `u64::MAX`.
    pub op: u64,
}

/// The recorder. A disabled recorder (the untraced run) only forwards calls.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// `op` id of spans recorded by the layer probes.
pub const PROBE_OP: u64 = u64::MAX;

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Switches recording on or off between ops (never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    /// Names the op that the following spans belong to.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` through the
    /// recorder it is handed become children.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Like [`Spans::scope`] but always measured, returning the duration in
    /// seconds too — the probes' timer.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let t = Instant::now();
        let out = self.scope(name, f);
        (out, t.elapsed().as_secs_f64())
    }

    /// Whether spans are being recorded.
    pub fn recording(&self) -> bool {
        self.enabled
    }

    /// Durations in seconds of every span called `name` caused by `op`, in
    /// recording order.
    pub fn durations(&self, name: &str, op: u64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op == op)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line: name, start, end, self time (duration minus
    /// the part its children cover), parent index, op id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == PROBE_OP {
                "\"probe\"".to_string()
            } else {
                s.op.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[i]),
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
