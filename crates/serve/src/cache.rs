//! The result cache: the [`JobOutcome`]-typed view of the workspace's one
//! artifact store.
//!
//! Layout, envelope, atomic publish, verify-on-read and quarantine are
//! [`hetero_hpc::store`]'s and are documented there; this module only says
//! what the body is — the compact-JSON text of a [`JobOutcome`] under the
//! canonical request key of [`hetero_hpc::canon`]. An artifact whose body
//! verifies but no longer decodes as a `JobOutcome` is quarantined like any
//! other corruption: it costs one re-execution, never an outage.
//!
//! A service mostly serves keys it has already served, so the cache keeps a
//! parse-once memo: per key, the [`ArtifactDigest`] of the bytes it last
//! verified and decoded, and their outcome. Every `get` still reads and
//! hashes the artifact; only when the store answers that those bytes are
//! unchanged is the memoized `Arc` handed out instead of parsing them again.
//! Entries come only from artifacts read back from disk (`store` adds none),
//! so each key's first hit in a cache's lifetime is decoded in full.

use crate::service::JobOutcome;
use hetero_hpc::store::{ArtifactDigest, ArtifactStore, Lookup, Probe, Stem};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// What a cache probe found. A hit's outcome is byte-identical to the
/// execution that produced it, and repeated hits on unchanged bytes share
/// one `Arc`.
pub type CacheLookup = Lookup<Arc<JobOutcome>>;

/// The most keys the memo holds. A new key arriving at a full memo clears
/// it. An entry is 72 bytes plus its outcome, so a full memo of small
/// modeled jobs' outcomes (≈ 640-byte artifacts) is about 0.75 MB.
const MEMO_KEYS: usize = 1024;

/// The service's artifacts, one per canonical request key. `get` and
/// `store` take `&mut self`: the service holds the cache behind its state
/// lock, and the signatures are what `benchmark/` compiles against.
#[derive(Debug)]
pub struct ResultCache {
    store: ArtifactStore,
    /// Stem → the digest of the bytes last verified and decoded for it,
    /// and their outcome.
    memo: HashMap<Stem, (ArtifactDigest, Arc<JobOutcome>)>,
    /// Full verify-and-decode passes that ended in a hit.
    decoded: u64,
}

impl ResultCache {
    /// Opens the cache at `dir`, creating it if needed.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn open(dir: &Path) -> io::Result<ResultCache> {
        Ok(ResultCache {
            store: ArtifactStore::open(dir)?,
            memo: HashMap::new(),
            decoded: 0,
        })
    }

    /// Probes the cache for `key`, reading and verifying any artifact found.
    pub fn get(&mut self, key: &str) -> CacheLookup {
        let Some(stem) = Stem::of(key) else {
            return Lookup::Miss;
        };
        let seen = self.memo.get(&stem);
        let probe = self
            .store
            .get_if_changed(key, seen.map(|(digest, _)| digest), |text| {
                serde_json::from_str(text).ok()
            });
        match probe {
            Probe::Unchanged => Lookup::Hit(Arc::clone(&seen.expect("a digest was given").1)),
            Probe::Hit(outcome, digest) => {
                self.decoded += 1;
                let outcome = Arc::new(outcome);
                if self.memo.len() >= MEMO_KEYS && !self.memo.contains_key(&stem) {
                    self.memo.clear();
                }
                self.memo.insert(stem, (digest, Arc::clone(&outcome)));
                Lookup::Hit(outcome)
            }
            Probe::Miss => {
                self.memo.remove(&stem);
                Lookup::Miss
            }
            Probe::Quarantined => {
                self.memo.remove(&stem);
                Lookup::Quarantined
            }
        }
    }

    /// Stores `outcome` under `key`; see [`ArtifactStore::put`]. The memo
    /// is not touched: the next `get` reads what was published.
    ///
    /// # Errors
    /// `InvalidInput` for a malformed key; otherwise filesystem errors.
    pub fn store(&mut self, key: &str, outcome: &JobOutcome) -> io::Result<()> {
        let text = serde_json::to_string(outcome).expect("JobOutcome serializes infallibly");
        self.store.put(key, &text)
    }

    /// How many hits this cache verified and decoded in full, the rest
    /// having been served from the memo.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tdir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("hetero-serve-cache-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    const KEY: &str =
        "hetero-serve/key/v2/0000000000000000000000000000000000000000000000000000000000000abc";

    fn artifact_path(dir: &Path) -> PathBuf {
        dir.join(format!("{}.json", KEY.rsplit('/').next().unwrap()))
    }

    fn rejected() -> JobOutcome {
        rejected_of(216)
    }

    fn rejected_of(requested: usize) -> JobOutcome {
        serde_json::from_str(&format!(
            r#"{{"Rejected":{{"InsufficientCapacity":{{"requested":{requested},"available":128}}}}}}"#
        ))
        .unwrap()
    }

    fn text(outcome: &JobOutcome) -> String {
        serde_json::to_string(outcome).unwrap()
    }

    /// The outcome of a hit, or a panic naming what `get` found instead.
    fn hit(cache: &mut ResultCache) -> Arc<JobOutcome> {
        match cache.get(KEY) {
            CacheLookup::Hit(outcome) => outcome,
            other => panic!("expected a hit, got {other:?}"),
        }
    }

    /// After a memoized hit, each way the artifact can change on disk is
    /// seen by the next `get`, and only byte-identical bytes skip the
    /// decode.
    #[test]
    fn the_memo_serves_only_bytes_that_are_unchanged_on_disk() {
        let dir = tdir("memo");
        let path = artifact_path(&dir);
        let mut cache = ResultCache::open(&dir).unwrap();
        cache.store(KEY, &rejected()).unwrap();
        let first = hit(&mut cache);
        assert!(Arc::ptr_eq(&hit(&mut cache), &first), "memoized");
        assert_eq!(cache.decoded(), 1);

        // Another valid artifact published for the key: the new outcome.
        let other = rejected_of(343);
        ArtifactStore::open(&dir)
            .unwrap()
            .put(KEY, &text(&other))
            .unwrap();
        assert_eq!(text(&hit(&mut cache)), text(&other));
        assert_eq!(cache.decoded(), 2);

        // Bytes flipped in place: quarantined, then a plain miss.
        hit(&mut cache);
        let stored = fs::read_to_string(&path).unwrap();
        assert!(stored.contains("343"));
        fs::write(&path, stored.replace("343", "344")).unwrap();
        assert!(matches!(cache.get(KEY), CacheLookup::Quarantined));
        assert!(matches!(cache.get(KEY), CacheLookup::Miss));

        // The file removed: a miss.
        cache.store(KEY, &rejected()).unwrap();
        hit(&mut cache);
        fs::remove_file(&path).unwrap();
        assert!(matches!(cache.get(KEY), CacheLookup::Miss));

        // A byte-identical copy renamed over the artifact (a second publish
        // of the same outcome goes through a temp file and a rename): a
        // hit, no decode.
        cache.store(KEY, &rejected()).unwrap();
        let memoized = hit(&mut cache);
        let decoded = cache.decoded();
        let before = fs::read(&path).unwrap();
        cache.store(KEY, &rejected()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), before);
        assert!(Arc::ptr_eq(&hit(&mut cache), &memoized));
        assert_eq!(cache.decoded(), decoded);
        assert_eq!(text(&memoized), text(&rejected()));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The memo is per stem, but its digest covers the key: bytes verified
    /// under one key are refused under another key with the same stem.
    #[test]
    fn a_memoized_artifact_is_not_served_under_another_key() {
        let dir = tdir("memo-key");
        let mut cache = ResultCache::open(&dir).unwrap();
        cache.store(KEY, &rejected()).unwrap();
        hit(&mut cache);
        let retagged = KEY.replace("key/v2", "key/v9");
        assert!(matches!(cache.get(&retagged), CacheLookup::Quarantined));
        assert!(matches!(cache.get(KEY), CacheLookup::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_memo_is_cleared_for_a_new_key() {
        let dir = tdir("memo-bound");
        let mut cache = ResultCache::open(&dir).unwrap();
        let keys: Vec<String> = (0..=MEMO_KEYS)
            .map(|i| format!("hetero-serve/key/v2/{i:064x}"))
            .collect();
        for key in &keys {
            cache.store(key, &rejected()).unwrap();
            assert!(matches!(cache.get(key), CacheLookup::Hit(_)));
        }
        assert_eq!(cache.memo.len(), 1, "cleared for the last key");
        assert_eq!(cache.decoded(), keys.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_artifact_that_vanished_from_disk_is_a_plain_miss() {
        let dir = tdir("vanished");
        let mut cache = ResultCache::open(&dir).unwrap();
        cache.store(KEY, &rejected()).unwrap();
        fs::remove_file(artifact_path(&dir)).unwrap();
        assert!(matches!(cache.get(KEY), CacheLookup::Miss));
        assert!(!dir.join("quarantine").exists());
        cache.store(KEY, &rejected()).unwrap();
        assert!(matches!(cache.get(KEY), CacheLookup::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_verified_body_that_is_not_a_job_outcome_is_quarantined_once() {
        let dir = tdir("undecodable");
        let mut cache = ResultCache::open(&dir).unwrap();
        // A well-formed artifact of the other view: valid JSON, valid
        // hash, not a `JobOutcome`.
        ArtifactStore::open(&dir)
            .unwrap()
            .put(KEY, r#"{"text":"a plan report"}"#)
            .unwrap();
        assert!(matches!(cache.get(KEY), CacheLookup::Quarantined));
        assert!(matches!(cache.get(KEY), CacheLookup::Miss));
        assert!(dir.join("quarantine").is_dir());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_key_without_a_hex_stem_is_a_miss_and_cannot_be_stored() {
        let dir = tdir("keys");
        let mut cache = ResultCache::open(&dir).unwrap();
        let hex63 = format!("hetero-serve/key/v2/{}", "a".repeat(63));
        let dotted = format!("hetero-serve/key/v2/{}.{}", "a".repeat(32), "a".repeat(31));
        for key in ["../x", "", hex63.as_str(), dotted.as_str()] {
            assert!(matches!(cache.get(key), CacheLookup::Miss), "{key:?}");
            let err = cache.store(key, &rejected()).expect_err(key);
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{key:?}");
        }
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
