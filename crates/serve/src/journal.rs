//! The append-only job journal: crash-safe intent and acknowledgement.
//!
//! Every accepted submission appends a `submit` record *before* the job is
//! queued; every durably cached result appends an `ack`; a job that dies
//! (panic in the engine) appends a `fail`. On startup the journal is
//! replayed: submits without a matching ack/fail are the service's pending
//! work, everything else is history. Replay then *compacts* the log —
//! rewrites it with only the pending submits, via temp-file + atomic
//! rename — so the journal stays proportional to the backlog, not to the
//! service's lifetime. When the last issued id is not among them, the
//! compacted log ends with that id's `ack`, so that a reopen hands out the
//! same next id as the replay before it and no journaled id is reissued.
//!
//! ## Framing
//!
//! One record per line: `<16-hex FNV-1a-64 of body> <body>\n`, where the
//! body is a compact JSON object. The checksum is computed over the raw
//! body bytes as written, so replay never depends on JSON re-encoding
//! being byte-stable, and a line counts only if its checksum is spelled as
//! the writer spells it (16 lowercase hex digits). A torn tail (partial
//! last line after a crash) or any corrupted line — bad checksum, bad JSON,
//! bytes that are not UTF-8 — stops replay at that point: everything before
//! the first bad line is trusted, everything after is discarded. Records are
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
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (pending, next_id) = replay(&bytes);

        // Compaction: rewrite with only the pending submits, atomically,
        // plus the ack that keeps `next_id` if no pending id implies it.
        let mut compact = String::new();
        for job in &pending {
            compact.push_str(&frame(&submit_body(job.id, &job.key, &job.request)));
        }
        let implied = pending.iter().map(|p| p.id + 1).max().unwrap_or(0);
        if next_id > implied {
            compact.push_str(&frame(&ack_body(next_id - 1)));
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
        self.append(&ack_body(id))
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

fn ack_body(id: u64) -> String {
    format!("{{\"type\":\"ack\",\"job\":{id}}}")
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

/// Replays journal bytes: pending submits (in submission order) and the
/// next free job id. Stops at the first line that is not UTF-8 or whose
/// checksum or JSON does not verify — the torn tail of a crashed append.
fn replay(bytes: &[u8]) -> (Vec<PendingJob>, u64) {
    let mut pending: Vec<PendingJob> = Vec::new();
    let mut next_id: u64 = 0;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        // A line without its trailing newline is a torn append.
        let Some(line) = line.strip_suffix(b"\n") else {
            break;
        };
        let Ok(line) = std::str::from_utf8(line) else {
            break;
        };
        let Some((crc_hex, body)) = line.split_once(' ') else {
            break;
        };
        if crc_hex != format!("{:016x}", fnv1a64(body.as_bytes())) {
            break;
        }
        let Ok(v) = serde_json::from_str::<Value>(body) else {
            break;
        };
        let Some(next) = v.field("job").as_u64().and_then(|id| id.checked_add(1)) else {
            break;
        };
        let id = next - 1;
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
        // Only a whole record moves the next id.
        next_id = next_id.max(next);
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

    /// SplitMix64: the fuzz test's seeded source of positions and bits.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// `(id, key)` of each pending job.
    fn ids_keys(pending: &[PendingJob]) -> Vec<(u64, String)> {
        pending.iter().map(|p| (p.id, p.key.clone())).collect()
    }

    /// Replay of a mangled journal, against a model: the records that
    /// survive are exactly those that end before the first changed byte,
    /// and the compacted file replays to the same state.
    #[test]
    fn replay_of_mangled_journals_is_the_longest_valid_prefix() {
        let dir = tdir("fuzz");
        let path = dir.join("journal.log");
        let (mut j, _, _) = Journal::open(&path, false).unwrap();
        j.append_submit(0, "k0", &req()).unwrap();
        j.append_submit(1, "k1", &req()).unwrap();
        j.append_ack(0).unwrap();
        j.append_fail(1, "engine panicked").unwrap();
        drop(j);
        let original = fs::read(&path).unwrap();
        let ends: Vec<usize> = (0..original.len())
            .filter(|&i| original[i] == b'\n')
            .map(|i| i + 1)
            .collect();
        assert_eq!(ends.len(), 4);
        // The pending set and next id after the first k records.
        let k0 = || (0, "k0".to_string());
        let k1 = || (1, "k1".to_string());
        let model = [
            (vec![], 0),
            (vec![k0()], 1),
            (vec![k0(), k1()], 2),
            (vec![k1()], 2),
            (vec![], 2),
        ];

        let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
        for len in 0..=original.len() {
            cases.push((format!("truncated to {len}"), original[..len].to_vec()));
        }
        let mut rng = Rng(2012);
        for round in 0..400 {
            let mut bytes = original.clone();
            for _ in 0..=round % 3 {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            cases.push((format!("bit flips, round {round}"), bytes));
        }
        for start in std::iter::once(0).chain(ends[..3].iter().copied()) {
            let mut bytes = original.clone();
            bytes[start..start + 16].make_ascii_uppercase();
            cases.push((format!("checksum at {start} in upper case"), bytes));
        }
        let framed = |body: &[u8]| {
            let mut line = format!("{:016x} ", fnv1a64(body)).into_bytes();
            line.extend_from_slice(body);
            line.push(b'\n');
            line
        };
        let garbage: Vec<Vec<u8>> = vec![
            b"garbage\n".to_vec(),
            b"\n".to_vec(),
            b"0000000000000000 \n".to_vec(),
            vec![0xff, 0xfe, 0x00, b'\n'],
            framed(b"{\"type\":\"ack\",\"job\":\xff}"),
            framed(br#"{"type":"submit","job":9}"#),
            framed(br#"{"type":"snapshot","job":9}"#),
            framed(br#"{"type":"ack","job":18446744073709551615}"#),
            framed(br#"{"type":"ack"}"#),
        ];
        for (g, junk) in garbage.iter().enumerate() {
            let boundaries = std::iter::once(0).chain(ends.iter().copied());
            let seeded: Vec<usize> = (0..8).map(|_| rng.below(original.len())).collect();
            for at in boundaries.chain(seeded) {
                let mut bytes = original[..at].to_vec();
                bytes.extend_from_slice(junk);
                bytes.extend_from_slice(&original[at..]);
                cases.push((format!("garbage {g} spliced at {at}"), bytes));
            }
        }

        for (name, bytes) in cases {
            let changed = original
                .iter()
                .zip(&bytes)
                .position(|(a, b)| a != b)
                .unwrap_or(original.len().min(bytes.len()));
            let valid = ends.iter().filter(|&&end| end <= changed).count();
            let (want_pending, want_next) = &model[valid];

            fs::write(&path, &bytes).unwrap();
            for pass in ["mangled", "compacted"] {
                let opened = std::panic::catch_unwind(|| Journal::open(&path, false));
                let (_j, pending, next) = opened
                    .unwrap_or_else(|_| panic!("{name}: open of the {pass} file panicked"))
                    .unwrap_or_else(|e| panic!("{name}: open of the {pass} file failed: {e}"));
                assert_eq!(&ids_keys(&pending), want_pending, "{name}, {pass} file");
                assert_eq!(next, *want_next, "{name}, {pass} file");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
