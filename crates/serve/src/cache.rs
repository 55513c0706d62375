//! The content-addressed result cache: durable, verifiable, atomic.
//!
//! Artifacts live one-per-key in the cache directory, named by the hash
//! part of the canonical key (`<64-hex>.json`). Each artifact is a small
//! JSON envelope holding the full key, the compact-JSON text of the
//! outcome, and the SHA-256 of that text:
//!
//! ```json
//! {"schema":"hetero-serve/artifact/v1",
//!  "key":"hetero-serve/key/v2/<hex>",
//!  "content_hash":"<sha256 of the outcome text>",
//!  "outcome":"<compact JSON, embedded as a string>"}
//! ```
//!
//! Storing the outcome as *text* (not a nested JSON value) makes integrity
//! checking exact: the hash covers the precise bytes that will be parsed
//! back, so verification never depends on JSON re-encoding being stable.
//!
//! Two failure-containment rules (the fix-forward satellite of this PR):
//!
//! * **atomic writes** — artifacts are written to a `.tmp` sibling and
//!   `rename`d into place, so a crash mid-write leaves either the old
//!   artifact or none, never a half-written one;
//! * **quarantine, don't crash** — an artifact whose schema, key, or
//!   content hash does not verify is moved into `quarantine/` and treated
//!   as a miss. Corruption costs one re-execution, never an outage, and
//!   the quarantined bytes survive for diagnosis.

use crate::service::JobOutcome;
use hetero_hpc::canon::sha256_hex;
use serde::{Deserialize as _, Value};
use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Envelope schema tag; bump when the envelope layout changes.
pub const ARTIFACT_SCHEMA: &str = "hetero-serve/artifact/v1";

/// What a cache probe found.
#[derive(Debug)]
pub enum CacheLookup {
    /// A verified artifact; the outcome is byte-identical to the execution
    /// that produced it. Boxed: an outcome is two orders of magnitude
    /// larger than the other variants.
    Hit(Box<JobOutcome>),
    /// No artifact for this key.
    Miss,
    /// An artifact existed but failed verification and was quarantined.
    Quarantined,
}

/// The on-disk artifact store plus its in-memory key index.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    /// Hash parts (file stems) present on disk.
    index: HashSet<String>,
}

impl ResultCache {
    /// Opens the cache at `dir`, creating it if needed, and indexes the
    /// artifacts already present.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn open(dir: &Path) -> io::Result<ResultCache> {
        fs::create_dir_all(dir)?;
        let mut index = HashSet::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "json") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    index.insert(stem.to_string());
                }
            }
        }
        Ok(ResultCache {
            dir: dir.to_path_buf(),
            index,
        })
    }

    /// Number of indexed artifacts.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Probes the cache for `key`, verifying any artifact found.
    pub fn get(&mut self, key: &str) -> CacheLookup {
        let stem = match key_stem(key) {
            Some(s) => s,
            None => return CacheLookup::Miss,
        };
        if !self.index.contains(stem) {
            return CacheLookup::Miss;
        }
        let path = self.artifact_path(stem);
        match load_verified(&path, key) {
            Some(outcome) => CacheLookup::Hit(Box::new(outcome)),
            None => {
                self.quarantine(stem);
                CacheLookup::Quarantined
            }
        }
    }

    /// Stores `outcome` under `key` via temp-file + atomic rename. The
    /// artifact is durable when this returns.
    ///
    /// # Errors
    /// Propagates filesystem errors; the cache index is unchanged on error.
    pub fn store(&mut self, key: &str, outcome: &JobOutcome) -> io::Result<()> {
        let stem = key_stem(key)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "malformed cache key"))?
            .to_string();
        let text = serde_json::to_string(outcome).expect("JobOutcome serializes infallibly");
        let envelope = Value::Object(vec![
            (
                "schema".to_string(),
                Value::String(ARTIFACT_SCHEMA.to_string()),
            ),
            ("key".to_string(), Value::String(key.to_string())),
            (
                "content_hash".to_string(),
                Value::String(sha256_hex(text.as_bytes())),
            ),
            ("outcome".to_string(), Value::String(text)),
        ]);
        let body = serde_json::to_string(&envelope).expect("a Value serializes infallibly");
        let path = self.artifact_path(&stem);
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, body.as_bytes())?;
        fs::rename(&tmp, &path)?;
        self.index.insert(stem);
        Ok(())
    }

    fn artifact_path(&self, stem: &str) -> PathBuf {
        self.dir.join(format!("{stem}.json"))
    }

    /// Moves a failed artifact into `quarantine/`, preserving its bytes
    /// for diagnosis. Best-effort: if even the move fails, the artifact is
    /// deleted so it cannot be probed again.
    fn quarantine(&mut self, stem: &str) {
        let path = self.artifact_path(stem);
        let qdir = self.dir.join("quarantine");
        let moved = fs::create_dir_all(&qdir)
            .and_then(|()| fs::rename(&path, qdir.join(format!("{stem}.json"))));
        if moved.is_err() {
            let _ = fs::remove_file(&path);
        }
        self.index.remove(stem);
    }
}

/// The hash part of a canonical key (`.../<64-hex>` → `<64-hex>`), used as
/// the artifact file stem. Rejects anything that does not look like one,
/// so a hostile key cannot traverse paths.
fn key_stem(key: &str) -> Option<&str> {
    let stem = key.rsplit('/').next()?;
    (stem.len() == 64 && stem.bytes().all(|b| b.is_ascii_hexdigit())).then_some(stem)
}

/// Loads and fully verifies one artifact; `None` on any mismatch.
fn load_verified(path: &Path, key: &str) -> Option<JobOutcome> {
    let body = fs::read_to_string(path).ok()?;
    let v: Value = serde_json::from_str(&body).ok()?;
    if v.field("schema").as_str() != Some(ARTIFACT_SCHEMA) {
        return None;
    }
    if v.field("key").as_str() != Some(key) {
        return None;
    }
    let text = v.field("outcome").as_str()?;
    if v.field("content_hash").as_str() != Some(sha256_hex(text.as_bytes()).as_str()) {
        return None;
    }
    let outcome: Value = serde_json::from_str(text).ok()?;
    JobOutcome::deserialize_value(&outcome).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_hpc::{execute, App, RunRequest};
    use hetero_platform::catalog;

    fn tdir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("hetero-serve-cache-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn outcome() -> JobOutcome {
        let req = RunRequest::new(catalog::puma(), App::smoke_rd(2), 8, 3);
        JobOutcome::Completed(execute(&req).unwrap())
    }

    const KEY: &str =
        "hetero-serve/key/v1/0000000000000000000000000000000000000000000000000000000000000abc";

    #[test]
    fn store_then_get_roundtrips_bytes() {
        let dir = tdir("roundtrip");
        let mut cache = ResultCache::open(&dir).unwrap();
        let out = outcome();
        cache.store(KEY, &out).unwrap();
        // A fresh cache (fresh index) sees the artifact too.
        let mut cache2 = ResultCache::open(&dir).unwrap();
        match cache2.get(KEY) {
            CacheLookup::Hit(hit) => {
                assert_eq!(
                    serde_json::to_string(hit.as_ref()).unwrap(),
                    serde_json::to_string(&out).unwrap(),
                );
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_artifact_is_quarantined_not_served() {
        let dir = tdir("quarantine");
        let mut cache = ResultCache::open(&dir).unwrap();
        cache.store(KEY, &outcome()).unwrap();
        // Flip a byte inside the stored outcome text.
        let stem = key_stem(KEY).unwrap();
        let path = dir.join(format!("{stem}.json"));
        let mut bytes = fs::read(&path).unwrap();
        let pos = bytes.len() / 2;
        bytes[pos] = if bytes[pos] == b'7' { b'8' } else { b'7' };
        fs::write(&path, &bytes).unwrap();

        let mut cache = ResultCache::open(&dir).unwrap();
        assert!(matches!(cache.get(KEY), CacheLookup::Quarantined));
        // The bad artifact moved aside; subsequent probes are plain misses.
        assert!(matches!(cache.get(KEY), CacheLookup::Miss));
        assert!(dir.join("quarantine").join(format!("{stem}.json")).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_in_envelope_is_rejected() {
        let dir = tdir("wrongkey");
        let mut cache = ResultCache::open(&dir).unwrap();
        cache.store(KEY, &outcome()).unwrap();
        // Same artifact probed under a different (but same-stem-length) key
        // cannot happen by construction; instead rewrite the stored key.
        let stem = key_stem(KEY).unwrap();
        let path = dir.join(format!("{stem}.json"));
        let body = fs::read_to_string(&path).unwrap();
        fs::write(&path, body.replace("key/v1/0000", "key/v9/0000")).unwrap();
        let mut cache = ResultCache::open(&dir).unwrap();
        assert!(matches!(cache.get(KEY), CacheLookup::Quarantined));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_tmp_files_left_behind() {
        let dir = tdir("tmp");
        let mut cache = ResultCache::open(&dir).unwrap();
        cache.store(KEY, &outcome()).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
