//! The result cache: the [`JobOutcome`]-typed view of the workspace's one
//! artifact store.
//!
//! Layout, envelope, atomic publish, verify-on-read and quarantine are
//! [`hetero_hpc::store`]'s and are documented there; this module only says
//! what the body is — the compact-JSON text of a [`JobOutcome`] under the
//! canonical request key of [`hetero_hpc::canon`]. An artifact whose body
//! verifies but no longer decodes as a `JobOutcome` is quarantined like any
//! other corruption: it costs one re-execution, never an outage.

use crate::service::JobOutcome;
use hetero_hpc::store::{ArtifactStore, Lookup};
use std::io;
use std::path::Path;

/// What a cache probe found. A hit's outcome is byte-identical to the
/// execution that produced it; it is boxed because an outcome is two
/// orders of magnitude larger than the other variants.
pub type CacheLookup = Lookup<Box<JobOutcome>>;

/// The service's artifacts, one per canonical request key. `get` and
/// `store` take `&mut self` although the store needs only `&self`: the
/// service holds the cache behind its state lock, and the signatures are
/// what `benchmark/` compiles against.
#[derive(Debug)]
pub struct ResultCache {
    store: ArtifactStore,
}

impl ResultCache {
    /// Opens the cache at `dir`, creating it if needed.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn open(dir: &Path) -> io::Result<ResultCache> {
        Ok(ResultCache {
            store: ArtifactStore::open(dir)?,
        })
    }

    /// Probes the cache for `key`, verifying any artifact found.
    pub fn get(&mut self, key: &str) -> CacheLookup {
        self.store
            .get(key, |text| serde_json::from_str(text).ok().map(Box::new))
    }

    /// Stores `outcome` under `key`; see [`ArtifactStore::put`].
    ///
    /// # Errors
    /// `InvalidInput` for a malformed key; otherwise filesystem errors.
    pub fn store(&mut self, key: &str, outcome: &JobOutcome) -> io::Result<()> {
        let text = serde_json::to_string(outcome).expect("JobOutcome serializes infallibly");
        self.store.put(key, &text)
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
        serde_json::from_str(
            r#"{"Rejected":{"InsufficientCapacity":{"requested":216,"available":128}}}"#,
        )
        .unwrap()
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
