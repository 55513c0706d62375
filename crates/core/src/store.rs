//! The content-addressed artifact store: one directory, one envelope, one
//! publish, one verify, one quarantine.
//!
//! Every on-disk artifact of the workspace — a `hetero-serve` job outcome,
//! a `hetero-plan` stage artifact — lives in an [`ArtifactStore`], one file
//! per key, named by the hash part of the key (`<64-hex>.json`). The body
//! is opaque *text* to the store; callers are typed views that serialize
//! on [`put`](ArtifactStore::put) and hand a `decode` to
//! [`get`](ArtifactStore::get). Each file is a small JSON envelope:
//!
//! ```json
//! {"schema":"hetero-serve/artifact/v1",
//!  "key":"<tag>/<64-hex>",
//!  "content_hash":"<sha256 of the body text>",
//!  "outcome":"<the body text, embedded as a string>"}
//! ```
//!
//! The tag and the `outcome` member name are the service's, which wrote
//! this envelope first; they are kept byte for byte so every artifact an
//! earlier build stored is still a hit. Embedding the body as text (not a
//! nested JSON value) makes integrity checking exact: the hash covers the
//! precise bytes that will be decoded, so verification never depends on
//! JSON re-encoding being stable.
//!
//! The rules, each stated once here and implemented once below:
//!
//! * **keys are validated** — the file stem is the last `/`-segment of the
//!   key and must be 64 hex digits, so a hostile key cannot traverse paths;
//!   anything else is a [`Lookup::Miss`] on `get` and `InvalidInput` on
//!   `put`;
//! * **publish is atomic** — the envelope is written to a temp sibling
//!   whose name is unique per call (process id + a process-wide counter)
//!   and `rename`d into place, so readers and concurrent writers of one key
//!   see a whole old artifact or a whole new one, never a torn one. Nothing
//!   is `fsync`ed: after a host crash an artifact may be missing or
//!   truncated, which costs one re-execution (next rule), never a wrong
//!   answer;
//! * **verify on read, quarantine on failure** — schema, key, content hash,
//!   then the caller's `decode`; a file failing any of them is moved to
//!   `quarantine/` (bytes kept for diagnosis) and the key is a plain miss
//!   from then on. An envelope nested deeper than the JSON parser's
//!   limit (`serde_json::MAX_DEPTH`) fails to parse like any other
//!   corruption;
//! * **every probe reads the file** — a caller that kept the
//!   [`ArtifactDigest`] of bytes it saw verified and decoded may ask
//!   [`get_if_changed`](ArtifactStore::get_if_changed), which still reads
//!   and hashes the whole file but skips the parse when the digest of the
//!   key and the bytes just read equals that one. Those bytes passed the
//!   full check before, and the check is a pure function of the key and
//!   the bytes, so nothing is served that the check would refuse;
//! * **absence is a miss** — the directory is the only index; a file that
//!   is not there is [`Lookup::Miss`], nothing else.
//!
//! [`crate::prep`]'s prepared-scenario cache is *not* a store: it holds
//! live `Arc`s in memory, persists nothing and verifies nothing.

use crate::canon::{sha256, sha256_hex};
use serde_json::{json, Value};
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Envelope schema tag; bump when the envelope layout changes.
const ARTIFACT_SCHEMA: &str = "hetero-serve/artifact/v1";

/// What a probe found.
#[derive(Debug)]
pub enum Lookup<T> {
    /// A verified, decoded artifact.
    Hit(T),
    /// No artifact for this key.
    Miss,
    /// An artifact existed but failed verification and was quarantined.
    Quarantined,
}

/// What [`ArtifactStore::get_if_changed`] found.
#[derive(Debug)]
pub enum Probe<T> {
    /// The file holds the very bytes behind the caller's digest; they were
    /// not parsed again.
    Unchanged,
    /// A verified, decoded artifact and the digest of the bytes it came
    /// from.
    Hit(T, ArtifactDigest),
    /// No artifact for this key.
    Miss,
    /// An artifact existed but failed verification and was quarantined.
    Quarantined,
}

/// The SHA-256 of a key and of the exact artifact bytes one probe read
/// under it. Only a probe makes one, so holding one means those bytes
/// passed the full check for that key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactDigest([u32; 8]);

/// The file stem of a key in binary, the 32 bytes its 64 hex digits spell:
/// a compact handle for callers that index what they learned per artifact.
/// Keys whose stems differ only in the case of their hex digits share one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stem([u8; 32]);

impl Stem {
    /// The stem of `key`; `None` for a key the store refuses.
    pub fn of(key: &str) -> Option<Stem> {
        let hex = file_stem(key)?.as_bytes();
        let nibble = |b: u8| (b as char).to_digit(16).expect("a checked hex digit") as u8;
        let mut stem = [0u8; 32];
        for (byte, pair) in stem.iter_mut().zip(hex.chunks_exact(2)) {
            *byte = nibble(pair[0]) << 4 | nibble(pair[1]);
        }
        Some(Stem(stem))
    }
}

/// A directory of verified, atomically published artifacts.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Opens the store at `dir`, creating the directory if needed.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn open(dir: &Path) -> io::Result<ArtifactStore> {
        fs::create_dir_all(dir)?;
        Ok(ArtifactStore {
            dir: dir.to_path_buf(),
        })
    }

    /// Probes for `key`; an artifact found is verified and then decoded by
    /// `decode`, and one that fails either is quarantined.
    pub fn get<T>(&self, key: &str, decode: impl FnOnce(&str) -> Option<T>) -> Lookup<T> {
        match self.get_if_changed(key, None, decode) {
            Probe::Hit(hit, _) => Lookup::Hit(hit),
            Probe::Miss => Lookup::Miss,
            Probe::Quarantined => Lookup::Quarantined,
            Probe::Unchanged => unreachable!("`Unchanged` answers a digest, and none was given"),
        }
    }

    /// [`get`](ArtifactStore::get), except that the artifact is not parsed
    /// when the digest of `key` and the bytes read equals `seen`:
    /// [`Probe::Unchanged`]. The whole file is read and hashed either way.
    pub fn get_if_changed<T>(
        &self,
        key: &str,
        seen: Option<&ArtifactDigest>,
        decode: impl FnOnce(&str) -> Option<T>,
    ) -> Probe<T> {
        let Some(stem) = file_stem(key) else {
            return Probe::Miss;
        };
        let path = self.artifact_path(stem);
        // The digest covers the key's length, the key and then the file,
        // so bytes that verified under one key never pass for another.
        let mut bytes = Vec::with_capacity(8 + key.len());
        bytes.extend_from_slice(&(key.len() as u64).to_le_bytes());
        bytes.extend_from_slice(key.as_bytes());
        let head = bytes.len();
        let hit = match File::open(&path).and_then(|mut file| file.read_to_end(&mut bytes)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Probe::Miss,
            Err(_) => None,
            Ok(_) => {
                let digest = ArtifactDigest(sha256(&bytes));
                if seen == Some(&digest) {
                    return Probe::Unchanged;
                }
                std::str::from_utf8(&bytes[head..]).ok().and_then(|text| {
                    let envelope = serde_json::from_str(text).ok()?;
                    Some((decode(verified_body(&envelope, key)?)?, digest))
                })
            }
        };
        match hit {
            Some((hit, digest)) => Probe::Hit(hit, digest),
            None => {
                self.quarantine(&path, stem);
                Probe::Quarantined
            }
        }
    }

    /// Publishes `body` under `key`, replacing any artifact already there.
    ///
    /// # Errors
    /// `InvalidInput` for a malformed key; otherwise filesystem errors, on
    /// which the previous artifact (if any) is left in place.
    pub fn put(&self, key: &str, body: &str) -> io::Result<()> {
        static PUBLISHES: AtomicU64 = AtomicU64::new(0);
        let stem = file_stem(key)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "malformed artifact key"))?;
        let envelope = json!({
            "schema": ARTIFACT_SCHEMA,
            "key": key,
            "content_hash": sha256_hex(body.as_bytes()),
            "outcome": body,
        });
        let text = serde_json::to_string(&envelope).expect("a Value serializes infallibly");
        let tmp = self.dir.join(format!(
            "{stem}.{}-{}.tmp",
            std::process::id(),
            PUBLISHES.fetch_add(1, Ordering::Relaxed)
        ));
        let published = fs::write(&tmp, text.as_bytes())
            .and_then(|()| fs::rename(&tmp, self.artifact_path(stem)));
        if published.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        published
    }

    fn artifact_path(&self, stem: &str) -> PathBuf {
        self.dir.join(format!("{stem}.json"))
    }

    /// Moves a failed artifact into `quarantine/`. Best-effort: if even the
    /// move fails, the artifact is deleted so it cannot be probed again.
    fn quarantine(&self, path: &Path, stem: &str) {
        let qdir = self.dir.join("quarantine");
        let moved = fs::create_dir_all(&qdir)
            .and_then(|()| fs::rename(path, qdir.join(format!("{stem}.json"))));
        if moved.is_err() {
            let _ = fs::remove_file(path);
        }
    }
}

/// The hash part of a key (`<tag>/<64-hex>` → `<64-hex>`), used as the
/// artifact file stem; `None` for anything that does not end in one.
fn file_stem(key: &str) -> Option<&str> {
    let stem = key.rsplit('/').next()?;
    (stem.len() == 64 && stem.bytes().all(|b| b.is_ascii_hexdigit())).then_some(stem)
}

/// The body text of an envelope whose schema, key and content hash all
/// verify; `None` on any mismatch.
fn verified_body<'a>(envelope: &'a Value, key: &str) -> Option<&'a str> {
    if envelope.field("schema").as_str() != Some(ARTIFACT_SCHEMA)
        || envelope.field("key").as_str() != Some(key)
    {
        return None;
    }
    let body = envelope.field("outcome").as_str()?;
    (envelope.field("content_hash").as_str() == Some(sha256_hex(body.as_bytes()).as_str()))
        .then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &str =
        "hetero-serve/key/v2/0000000000000000000000000000000000000000000000000000000000000abc";
    const BODY: &str = r#"{"Completed":{"ranks":8,"total":17.25}}"#;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hetero-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn text(body: &str) -> Option<String> {
        Some(body.to_string())
    }

    fn artifact(dir: &Path) -> PathBuf {
        dir.join(format!("{}.json", file_stem(KEY).unwrap()))
    }

    fn tmp_files(dir: &Path) -> Vec<PathBuf> {
        fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
            .collect()
    }

    #[test]
    fn store_then_get_roundtrips_bytes() {
        let dir = tdir("roundtrip");
        ArtifactStore::open(&dir).unwrap().put(KEY, BODY).unwrap();
        // A second handle on the directory sees the artifact too.
        match ArtifactStore::open(&dir).unwrap().get(KEY, text) {
            Lookup::Hit(body) => assert_eq!(body, BODY),
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_artifact_is_quarantined_not_served() {
        let dir = tdir("quarantine");
        let store = ArtifactStore::open(&dir).unwrap();
        store.put(KEY, BODY).unwrap();
        // Flip a byte inside the stored body text.
        let path = artifact(&dir);
        let stored = fs::read_to_string(&path).unwrap();
        assert!(stored.contains("17.25"));
        fs::write(&path, stored.replace("17.25", "18.25")).unwrap();

        assert!(matches!(store.get(KEY, text), Lookup::Quarantined));
        // The bad artifact moved aside; subsequent probes are plain misses.
        assert!(matches!(store.get(KEY, text), Lookup::Miss));
        assert!(dir
            .join("quarantine")
            .join(path.file_name().unwrap())
            .exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_deeply_nested_artifact_is_quarantined_not_a_stack_overflow() {
        let dir = tdir("nested");
        let store = ArtifactStore::open(&dir).unwrap();
        fs::write(artifact(&dir), "[".repeat(1 << 20)).unwrap();
        assert!(matches!(store.get(KEY, text), Lookup::Quarantined));
        assert!(matches!(store.get(KEY, text), Lookup::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_in_envelope_is_rejected() {
        let dir = tdir("wrongkey");
        let store = ArtifactStore::open(&dir).unwrap();
        store.put(KEY, BODY).unwrap();
        // Same artifact probed under a different (but same-stem-length) key
        // cannot happen by construction; instead rewrite the stored key.
        let path = artifact(&dir);
        let body = fs::read_to_string(&path).unwrap();
        fs::write(&path, body.replace("key/v2/0000", "key/v9/0000")).unwrap();
        assert!(matches!(store.get(KEY, text), Lookup::Quarantined));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_tmp_files_left_behind() {
        let dir = tdir("tmp");
        ArtifactStore::open(&dir).unwrap().put(KEY, BODY).unwrap();
        assert!(tmp_files(&dir).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_of_one_key_never_publish_a_torn_artifact() {
        let dir = tdir("writers");
        let store = ArtifactStore::open(&dir).unwrap();
        // Bodies of very different lengths: an interleaved write/rename
        // through one shared temp name would publish a mix of the two.
        let bodies = ["a".repeat(64), "b".repeat(8 * 1024)];
        std::thread::scope(|s| {
            for t in 0..8 {
                let (store, bodies) = (&store, &bodies);
                s.spawn(move || {
                    for i in 0..50 {
                        store.put(KEY, &bodies[(t + i) % 2]).unwrap();
                        match store.get(KEY, text) {
                            Lookup::Hit(body) => assert!(bodies.contains(&body)),
                            other => panic!("expected hit, got {other:?}"),
                        }
                    }
                });
            }
        });
        assert!(matches!(store.get(KEY, text), Lookup::Hit(b) if bodies.contains(&b)));
        assert!(tmp_files(&dir).is_empty());
        assert!(!dir.join("quarantine").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_key_without_a_hex_stem_is_a_miss_and_cannot_be_stored() {
        let dir = tdir("keys");
        let store = ArtifactStore::open(&dir).unwrap();
        let hex63 = format!("tag/{}", "a".repeat(63));
        let dotted = format!("tag/{}.{}", "a".repeat(32), "a".repeat(31));
        for key in ["../x", "", hex63.as_str(), dotted.as_str()] {
            assert!(matches!(store.get(key, text), Lookup::Miss), "{key:?}");
            let err = store.put(key, BODY).expect_err(key);
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{key:?}");
        }
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Seeded envelope fuzz: every truncation, 400 rounds of 1–3 bit
    /// flips, and garbage (including bytes that are not UTF-8) spliced in
    /// at every field boundary. No mutation may panic `get` or be served
    /// as anything but the original body; every other outcome quarantines
    /// exactly the mutated bytes and leaves a plain miss behind.
    #[test]
    fn a_mutated_envelope_is_served_intact_or_quarantined() {
        let dir = tdir("fuzz");
        let store = ArtifactStore::open(&dir).unwrap();
        store.put(KEY, BODY).unwrap();
        let path = artifact(&dir);
        let quarantined = dir.join("quarantine").join(path.file_name().unwrap());
        let stored = fs::read(&path).unwrap();

        let mut mutants: Vec<(String, Vec<u8>)> = (0..stored.len())
            .map(|n| (format!("truncated to {n} bytes"), stored[..n].to_vec()))
            .collect();
        let mut rng = 2012u64;
        let mut next = move || {
            // SplitMix64.
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for round in 0..400 {
            let mut bytes = stored.clone();
            let flips = 1 + next() % 3;
            for _ in 0..flips {
                let bit = next() as usize % (8 * bytes.len());
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            mutants.push((format!("bit-flip round {round}"), bytes));
        }
        const GARBAGE: [&[u8]; 7] = [
            b" ",
            b"\0",
            b"\xff\xfe",
            b"\xc3\x28",
            b"\\u0000",
            b"\"x\":1,",
            b"}{",
        ];
        let boundaries = stored
            .iter()
            .enumerate()
            .filter(|&(_, b)| b"{}[]:,\"".contains(b))
            .flat_map(|(at, _)| [at, at + 1]);
        for at in boundaries {
            for garbage in GARBAGE {
                let mut bytes = stored[..at].to_vec();
                bytes.extend_from_slice(garbage);
                bytes.extend_from_slice(&stored[at..]);
                mutants.push((format!("{garbage:?} spliced in at byte {at}"), bytes));
            }
        }

        let (mut hits, mut quarantines) = (0, 0);
        for (what, bytes) in &mutants {
            fs::write(&path, bytes).unwrap();
            match store.get(KEY, text) {
                Lookup::Hit(body) => {
                    assert_eq!(body, BODY, "{what}: served a different body");
                    hits += 1;
                }
                Lookup::Quarantined => {
                    assert!(
                        matches!(store.get(KEY, text), Lookup::Miss),
                        "{what}: no miss after quarantine"
                    );
                    assert_eq!(&fs::read(&quarantined).unwrap(), bytes, "{what}");
                    quarantines += 1;
                }
                Lookup::Miss => panic!("{what}: a present artifact read as a miss"),
            }
        }
        // Whitespace between members still verifies; nearly all else fails.
        assert!(
            hits > 0 && quarantines > hits,
            "{hits} hits, {quarantines} quarantines"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_digest_skips_the_parse_only_for_the_bytes_and_key_it_came_from() {
        let dir = tdir("digest");
        let store = ArtifactStore::open(&dir).unwrap();
        store.put(KEY, BODY).unwrap();
        let Probe::Hit(body, digest) = store.get_if_changed(KEY, None, text) else {
            panic!("expected a hit");
        };
        assert_eq!(body, BODY);
        let unparsed = |_: &str| -> Option<String> { panic!("parsed unchanged bytes") };
        assert!(matches!(
            store.get_if_changed(KEY, Some(&digest), unparsed),
            Probe::Unchanged
        ));
        // The same file under a key of another tag is verified, and refused.
        let retagged = KEY.replace("key/v2", "key/v9");
        assert_eq!(Stem::of(&retagged), Stem::of(KEY));
        assert!(matches!(
            store.get_if_changed(&retagged, Some(&digest), text),
            Probe::Quarantined
        ));
        // New bytes for the key: decoded, under a new digest.
        store.put(KEY, "{}").unwrap();
        match store.get_if_changed(KEY, Some(&digest), text) {
            Probe::Hit(body, new) => assert!(body == "{}" && new != digest),
            other => panic!("expected a hit, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stem_is_the_binary_of_its_hex_digits() {
        let Some(Stem(stem)) = Stem::of(KEY) else {
            panic!("a valid key has a stem");
        };
        assert_eq!(stem[30..], [0x0a, 0xbc]);
        assert!(stem[..30].iter().all(|&b| b == 0));
        assert_eq!(Stem::of(&KEY.to_uppercase()), Stem::of(KEY));
        assert_eq!(Stem::of("../x"), None);
    }

    #[test]
    fn a_body_that_verifies_but_does_not_decode_is_quarantined_once() {
        let dir = tdir("decode");
        let store = ArtifactStore::open(&dir).unwrap();
        store.put(KEY, BODY).unwrap();
        let undecodable = |_: &str| None::<String>;
        assert!(matches!(store.get(KEY, undecodable), Lookup::Quarantined));
        assert!(matches!(store.get(KEY, undecodable), Lookup::Miss));
        assert!(matches!(store.get(KEY, text), Lookup::Miss));
        let _ = fs::remove_dir_all(&dir);
    }
}
