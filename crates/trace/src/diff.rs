//! Where two traces first differ.
//!
//! The byte-identity suites and the golden digests say *that* two runs
//! differ; [`first_divergence`] says *where*: the first line at which two
//! JSONL exports ([`crate::Trace::jsonl`]) disagree, the rank and virtual
//! time of the event there, and the lines around it. Exports are in
//! canonical `(at, rank, seq)` order, so the first differing line is the
//! earliest event, in virtual time, that the two runs do not share.

use std::fmt;

/// Lines of context shown before and after the first difference.
pub const CONTEXT_LINES: usize = 3;

/// The first line at which two JSONL exports differ.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// 1-based number of the first differing line.
    pub line: usize,
    /// The event's rank on that line (`"campaign"` for campaign-level
    /// events), read from the first export, or from the second past the
    /// first's end.
    pub rank: Option<String>,
    /// The event's virtual time on that line, read like `rank`.
    pub at: Option<f64>,
    /// Up to [`CONTEXT_LINES`] lines before it, which both exports share.
    pub before: Vec<String>,
    /// The differing line and up to [`CONTEXT_LINES`] after it, in the
    /// first export (empty past its end).
    pub a: Vec<String>,
    /// The same for the second export.
    pub b: Vec<String>,
}

/// The raw text of JSON member `key` in a one-line JSONL event.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The first line at which `a` and `b` differ, or `None` if they are
/// identical.
pub fn first_divergence(a: &str, b: &str) -> Option<Divergence> {
    let (la, lb): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let at = la.iter().zip(&lb).position(|(x, y)| x != y);
    let at = match at {
        Some(i) => i,
        None if la.len() == lb.len() => return None,
        None => la.len().min(lb.len()),
    };
    let line = la.get(at).or_else(|| lb.get(at)).copied().unwrap_or("");
    let window = |lines: &[&str]| -> Vec<String> {
        lines
            .iter()
            .skip(at)
            .take(CONTEXT_LINES + 1)
            .map(|s| s.to_string())
            .collect()
    };
    Some(Divergence {
        line: at + 1,
        rank: field(line, "rank").map(|r| r.trim_matches('"').to_string()),
        at: field(line, "at").and_then(|t| t.parse().ok()),
        before: la[at.saturating_sub(CONTEXT_LINES)..at]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        a: window(&la),
        b: window(&lb),
    })
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "first divergence at line {}", self.line)?;
        if let Some(rank) = &self.rank {
            write!(f, ", rank {rank}")?;
        }
        if let Some(at) = self.at {
            write!(f, ", at {at} s")?;
        }
        writeln!(f)?;
        for l in &self.before {
            writeln!(f, "  {l}")?;
        }
        for (mark, lines) in [("a", &self.a), ("b", &self.b)] {
            if lines.is_empty() {
                writeln!(f, "{mark} <end of trace>")?;
            }
            for l in lines.iter() {
                writeln!(f, "{mark} {l}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "{\"at\":0,\"dur\":0,\"rank\":0,\"ev\":\"send\",\"peer\":1,\"bytes\":72}\n\
                     {\"at\":0.5,\"dur\":0.1,\"rank\":1,\"ev\":\"recv\",\"peer\":0,\"bytes\":72}\n\
                     {\"at\":1,\"dur\":0,\"rank\":\"campaign\",\"ev\":\"attempt\",\"attempt\":1}\n";

    #[test]
    fn identical_exports_do_not_diverge() {
        assert_eq!(first_divergence(A, A), None);
        assert_eq!(first_divergence("", ""), None);
    }

    #[test]
    fn names_the_first_differing_line_with_its_rank_time_and_context() {
        let b = A.replace("\"at\":0.5,\"dur\":0.1", "\"at\":0.5,\"dur\":0.2");
        let d = first_divergence(A, &b).expect("they differ");
        assert_eq!(d.line, 2);
        assert_eq!(d.rank.as_deref(), Some("1"));
        assert_eq!(d.at, Some(0.5));
        assert_eq!(d.before.len(), 1);
        assert_eq!((d.a.len(), d.b.len()), (2, 2));
        assert!(d.b[0].contains("\"dur\":0.2"));
        let shown = d.to_string();
        assert!(shown.starts_with("first divergence at line 2, rank 1, at 0.5 s"));
    }

    #[test]
    fn a_truncated_export_diverges_where_it_ends() {
        let short: String = A.lines().take(2).map(|l| format!("{l}\n")).collect();
        let d = first_divergence(&short, A).expect("one is longer");
        assert_eq!(d.line, 3);
        assert_eq!(d.rank.as_deref(), Some("campaign"));
        assert!(d.a.is_empty());
        assert!(d.to_string().contains("a <end of trace>"));
    }
}
