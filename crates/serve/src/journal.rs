//! The append-only job journal: crash-safe intent and acknowledgement.
//!
//! Every accepted submission appends a `submit` record *before* the job is
//! queued; every durably cached result appends an `ack`; a job that dies
//! (panic in the engine) appends a `fail`. On startup the journal is
//! replayed: submits without a matching ack/fail are the service's pending
//! work, everything else is history. Replay then *compacts* the log —
//! rewrites it with only the pending submits, via temp-file + atomic
//! rename — so the journal stays proportional to the backlog, not to the
//! service's lifetime.
//!
//! ## Framing
//!
//! One record per line: `<16-hex FNV-1a-64 of body> <body>\n`, where the
//! body is a compact JSON object. The checksum is computed over the raw
//! body bytes as written, so replay never depends on JSON re-encoding
//! being byte-stable. A torn tail (partial last line after a crash) or any
//! corrupted line stops replay at that point: everything before the first
//! bad line is trusted, everything after is discarded. Records are
//! self-describing (`"type"` field), and the full request rides in the
//! submit record, so replay needs no state beyond the log itself.

use hetero_hpc::RunRequest;
use serde::{Deserialize as _, Value};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit over `data` — the journal's line checksum. Not
/// cryptographic (the cache's artifacts carry SHA-256); it only needs to
/// catch torn writes and bit rot on a line the service itself wrote.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A journaled submission that was never acknowledged: the unit of
/// crash recovery.
#[derive(Debug, Clone)]
pub struct PendingJob {
    /// Journal-assigned job id (monotonic across restarts).
    pub id: u64,
    /// Canonical cache key of the request.
    pub key: String,
    /// The full request, reconstructed from the submit record.
    pub request: RunRequest,
}

/// The append-only journal file plus its write handle.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    fsync: bool,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replays it, compacts it,
    /// and returns the write handle, the pending jobs, and the next free
    /// job id.
    ///
    /// # Errors
    /// Propagates filesystem errors; corrupted journal *content* is never
    /// an error (replay stops at the first bad line).
    pub fn open(path: &Path, fsync: bool) -> io::Result<(Journal, Vec<PendingJob>, u64)> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let (pending, next_id) = replay(&text);

        // Compaction: rewrite with only the pending submits, atomically.
        let mut compact = String::new();
        for job in &pending {
            compact.push_str(&frame(&submit_body(job.id, &job.key, &job.request)));
        }
        let tmp = tmp_sibling(path);
        fs::write(&tmp, compact.as_bytes())?;
        fs::rename(&tmp, path)?;

        let file = OpenOptions::new().append(true).open(path)?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file,
                fsync,
            },
            pending,
            next_id,
        ))
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a `submit` record: the service now owes this job a result.
    ///
    /// # Errors
    /// Propagates filesystem errors; the caller must not queue the job if
    /// the append failed.
    pub fn append_submit(&mut self, id: u64, key: &str, request: &RunRequest) -> io::Result<()> {
        self.append(&submit_body(id, key, request))
    }

    /// Appends an `ack` record: the job's result is durably cached.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn append_ack(&mut self, id: u64) -> io::Result<()> {
        self.append(&format!("{{\"type\":\"ack\",\"job\":{id}}}"))
    }

    /// Appends a `fail` record: the job died (engine panic) and will not
    /// be retried.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn append_fail(&mut self, id: u64, error: &str) -> io::Result<()> {
        let body = serde_json::to_string(&Value::Object(vec![
            ("type".to_string(), Value::String("fail".to_string())),
            ("job".to_string(), Value::Int(i128::from(id))),
            ("error".to_string(), Value::String(error.to_string())),
        ]))
        .expect("a Value serializes infallibly");
        self.append(&body)
    }

    fn append(&mut self, body: &str) -> io::Result<()> {
        self.file.write_all(frame(body).as_bytes())?;
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

fn frame(body: &str) -> String {
    format!("{:016x} {body}\n", fnv1a64(body.as_bytes()))
}

fn submit_body(id: u64, key: &str, request: &RunRequest) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("type".to_string(), Value::String("submit".to_string())),
        ("job".to_string(), Value::Int(i128::from(id))),
        ("key".to_string(), Value::String(key.to_string())),
        (
            "request".to_string(),
            serde_json::to_value(request).expect("RunRequest serializes infallibly"),
        ),
    ]))
    .expect("a Value serializes infallibly")
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Replays journal text: pending submits (in submission order) and the
/// next free job id. Stops at the first line whose checksum or JSON does
/// not verify — the torn tail of a crashed append.
fn replay(text: &str) -> (Vec<PendingJob>, u64) {
    let mut pending: Vec<PendingJob> = Vec::new();
    let mut next_id: u64 = 0;
    for line in text.split_inclusive('\n') {
        // A line without its trailing newline is a torn append.
        let Some(line) = line.strip_suffix('\n') else {
            break;
        };
        let Some((crc_hex, body)) = line.split_once(' ') else {
            break;
        };
        let Ok(crc) = u64::from_str_radix(crc_hex, 16) else {
            break;
        };
        if crc != fnv1a64(body.as_bytes()) {
            break;
        }
        let Ok(v) = serde_json::from_str::<Value>(body) else {
            break;
        };
        let Some(id) = v.field("job").as_u64() else {
            break;
        };
        next_id = next_id.max(id + 1);
        match v.field("type").as_str() {
            Some("submit") => {
                let Some(key) = v.field("key").as_str() else {
                    break;
                };
                let Ok(request) = RunRequest::deserialize_value(v.field("request")) else {
                    break;
                };
                pending.push(PendingJob {
                    id,
                    key: key.to_string(),
                    request,
                });
            }
            Some("ack") | Some("fail") => {
                pending.retain(|p| p.id != id);
            }
            _ => break,
        }
    }
    (pending, next_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_hpc::App;
    use hetero_platform::catalog;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hetero-serve-journal-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn req() -> RunRequest {
        RunRequest::new(catalog::puma(), App::smoke_rd(2), 8, 3)
    }

    #[test]
    fn submit_ack_cycle_leaves_nothing_pending() {
        let dir = tdir("ack");
        let path = dir.join("journal.log");
        let (mut j, pending, next) = Journal::open(&path, false).unwrap();
        assert!(pending.is_empty());
        assert_eq!(next, 0);
        j.append_submit(0, "k0", &req()).unwrap();
        j.append_submit(1, "k1", &req()).unwrap();
        j.append_ack(0).unwrap();
        drop(j);
        let (_j, pending, next) = Journal::open(&path, false).unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id, 1);
        assert_eq!(pending[0].key, "k1");
        assert_eq!(next, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let dir = tdir("torn");
        let path = dir.join("journal.log");
        let (mut j, _, _) = Journal::open(&path, false).unwrap();
        j.append_submit(0, "k0", &req()).unwrap();
        j.append_submit(1, "k1", &req()).unwrap();
        drop(j);
        // Simulate a crash mid-append: chop the last line in half.
        let text = fs::read_to_string(&path).unwrap();
        let keep = text.len() - 40;
        fs::write(&path, &text.as_bytes()[..keep]).unwrap();
        let (_j, pending, next) = Journal::open(&path, false).unwrap();
        assert_eq!(pending.len(), 1, "first record survives, torn one dropped");
        assert_eq!(pending[0].id, 0);
        assert_eq!(next, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_line_stops_replay() {
        let dir = tdir("corrupt");
        let path = dir.join("journal.log");
        let (mut j, _, _) = Journal::open(&path, false).unwrap();
        j.append_submit(0, "k0", &req()).unwrap();
        j.append_submit(1, "k1", &req()).unwrap();
        j.append_submit(2, "k2", &req()).unwrap();
        drop(j);
        // Flip a byte inside the second record's body.
        let mut bytes = fs::read(&path).unwrap();
        let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[first_nl + 30] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let (_j, pending, _) = Journal::open(&path, false).unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_deeply_nested_record_stops_replay_like_a_torn_one() {
        let dir = tdir("nested");
        let path = dir.join("journal.log");
        let (mut j, _, _) = Journal::open(&path, false).unwrap();
        j.append_submit(0, "k0", &req()).unwrap();
        drop(j);
        // A line whose checksum verifies but whose body is a megabyte of
        // `[`: the parser refuses it at its depth limit.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str(&frame(&"[".repeat(1 << 20)));
        fs::write(&path, text).unwrap();
        let (_j, pending, next) = Journal::open(&path, false).unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id, 0);
        assert_eq!(next, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_shrinks_the_log_and_preserves_requests() {
        let dir = tdir("compact");
        let path = dir.join("journal.log");
        let (mut j, _, _) = Journal::open(&path, false).unwrap();
        for i in 0..20 {
            j.append_submit(i, &format!("k{i}"), &req()).unwrap();
            if i != 7 {
                j.append_ack(i).unwrap();
            }
        }
        drop(j);
        let before = fs::metadata(&path).unwrap().len();
        let (_j, pending, next) = Journal::open(&path, false).unwrap();
        let after = fs::metadata(&path).unwrap().len();
        assert!(after < before / 10, "compacted {before} -> {after}");
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id, 7);
        assert_eq!(next, 20);
        // The replayed request round-tripped intact.
        assert_eq!(pending[0].request.ranks, 8);
        assert_eq!(pending[0].request.per_rank_axis, 3);
        let _ = fs::remove_dir_all(&dir);
    }
}
