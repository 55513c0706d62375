//! Every `--bench <name>`, `--example <name>`, and `--test <name>` the
//! docs and CI spell out names a target whose source file exists, so a
//! deleted or renamed target cannot leave a stale command line behind.
//! The same files, plus the library sources, are scanned for environment
//! switches: behaviour is chosen by a request, a plan, or a scoped guard,
//! never by a variable no type or test matrix shows. The library sources
//! are also held to one artifact store: publishing by rename and content
//! hashing happen in `core::store` and nowhere else.

use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// A cargo target flag and the directory its targets live in — under the
/// workspace root (`examples/`, `tests/`) or under any `crates/*/`.
const FLAGS: [(&str, &str); 3] = [
    ("--bench", "benches"),
    ("--example", "examples"),
    ("--test", "tests"),
];

/// The target names following `flag` in `text`. A flag counts only when
/// whitespace follows it (so `--test-threads` and `--examples` do not),
/// and a placeholder such as `<name>` yields no name.
fn referenced<'a>(text: &'a str, flag: &'a str) -> impl Iterator<Item = &'a str> {
    text.match_indices(flag).filter_map(move |(at, _)| {
        let rest = &text[at + flag.len()..];
        if !rest.starts_with(char::is_whitespace) {
            return None;
        }
        let rest = rest.trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        (end > 0).then(|| &rest[..end])
    })
}

fn target_exists(root: &Path, dir: &str, name: &str) -> bool {
    let file = format!("{name}.rs");
    root.join(dir).join(&file).is_file()
        || std::fs::read_dir(root.join("crates"))
            .expect("crates/ is readable")
            .filter_map(Result::ok)
            .any(|krate| krate.path().join(dir).join(&file).is_file())
}

#[test]
fn documented_targets_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut seen = [0usize; FLAGS.len()];
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("{doc} is readable: {e}"));
        for (&(flag, dir), seen) in FLAGS.iter().zip(&mut seen) {
            for name in referenced(&text, flag) {
                *seen += 1;
                if !target_exists(&root, dir, name) {
                    missing.push(format!("{doc}: `{flag} {name}` has no {dir}/{name}.rs"));
                }
            }
        }
    }
    // A scanner that matches nothing would pass vacuously.
    for (&(flag, _), seen) in FLAGS.iter().zip(seen) {
        assert!(seen > 0, "the scan found no `{flag} <name>` at all");
    }
    assert!(missing.is_empty(), "stale targets:\n{}", missing.join("\n"));
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{} is readable: {e}", dir.display()))
        .filter_map(Result::ok)
    {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The `HETERO_<NAME>` tokens in `text`.
fn switch_tokens(text: &str) -> impl Iterator<Item = &str> {
    const PREFIX: &str = "HETERO_";
    text.match_indices(PREFIX).filter_map(move |(at, _)| {
        let rest = &text[at..];
        let end = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
            .unwrap_or(rest.len());
        (end > PREFIX.len()).then(|| &rest[..end])
    })
}

/// Every `.rs` file under `crates/*/src`.
fn library_sources(root: &Path) -> Vec<PathBuf> {
    let mut sources = Vec::new();
    for krate in std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .filter_map(Result::ok)
    {
        rust_sources(&krate.path().join("src"), &mut sources);
    }
    sources
}

#[test]
fn no_environment_switches() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut sources = library_sources(&root);
    // The vendored thread pool is the one dependency whose behaviour a
    // run's thread count goes through.
    rust_sources(&root.join("vendor/rayon/src"), &mut sources);
    assert!(!sources.is_empty(), "the scan found no library source");

    let mut found = Vec::new();
    for path in sources {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} is readable: {e}", path.display()));
        for (n, line) in text.lines().enumerate() {
            if line.contains("env::var") {
                found.push(format!(
                    "{}:{}: reads the environment",
                    path.display(),
                    n + 1
                ));
            }
        }
    }
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("{doc} is readable: {e}"));
        for token in switch_tokens(&text) {
            found.push(format!("{doc}: documents the switch `{token}`"));
        }
    }
    assert!(found.is_empty(), "hidden switches:\n{}", found.join("\n"));
}

/// A second publish or verify routine cannot reappear unnoticed: under
/// `crates/*/src`, files are renamed into place only by the artifact store
/// and by the journal's compaction, and only the store knows the envelope's
/// hash member.
#[test]
fn one_artifact_store() {
    const ALLOWED: [(&str, &[&str]); 2] = [
        (
            "fs::rename",
            &["crates/core/src/store.rs", "crates/serve/src/journal.rs"],
        ),
        ("content_hash", &["crates/core/src/store.rs"]),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut seen = [0usize; ALLOWED.len()];
    let mut found = Vec::new();
    for path in library_sources(&root) {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} is readable: {e}", path.display()));
        for (&(needle, allowed), seen) in ALLOWED.iter().zip(&mut seen) {
            if !text.contains(needle) {
                continue;
            }
            *seen += 1;
            if !allowed.iter().any(|file| path.ends_with(file)) {
                found.push(format!("{}: mentions `{needle}`", path.display()));
            }
        }
    }
    // A scanner that matches nothing would pass vacuously.
    for (&(needle, allowed), seen) in ALLOWED.iter().zip(seen) {
        assert_eq!(seen, allowed.len(), "files mentioning `{needle}`");
    }
    assert!(found.is_empty(), "a second store:\n{}", found.join("\n"));
}
