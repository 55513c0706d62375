//! Every `--bench <name>`, `--example <name>`, and `--test <name>` the
//! docs and CI spell out names a target whose source file exists, so a
//! deleted or renamed target cannot leave a stale command line behind.
//! The same files, plus the library sources, are scanned for environment
//! switches: behaviour is chosen by a request, a plan, or a scoped guard,
//! never by a variable no type or test matrix shows. The library sources
//! are also held to one artifact store: publishing by rename and content
//! hashing happen in `core::store` and nowhere else; to one SHA-256
//! implementation; to one SPMD engine; and to the four files where
//! `unsafe` is allowed.

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
    let sources = library_sources(&root);
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

/// `unsafe` stays in its islands: the coroutine switch and scheduler of
/// `simmpi::sched`, the halo slots of `simmpi::exchange`, and the SHA-NI
/// kernel of `core::canon::sha256`. The two crates holding them deny
/// `unsafe` elsewhere, and every other library forbids it outright.
#[test]
fn unsafe_islands() {
    const ISLANDS: [&str; 4] = [
        "crates/simmpi/src/sched/context.rs",
        "crates/simmpi/src/sched/mod.rs",
        "crates/simmpi/src/exchange.rs",
        "crates/core/src/canon/sha256.rs",
    ];
    const DENY: [&str; 2] = ["crates/simmpi/src/lib.rs", "crates/core/src/lib.rs"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut islands = Vec::new();
    let mut found = Vec::new();
    let mut libs = 0;
    for path in library_sources(&root) {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} is readable: {e}", path.display()));
        if text.contains("allow(unsafe_code)") {
            match ISLANDS.iter().find(|file| path.ends_with(file)) {
                Some(file) => islands.push(*file),
                None => found.push(format!("{}: allows `unsafe`", path.display())),
            }
        }
        if path.ends_with("src/lib.rs") {
            libs += 1;
            let lint = if DENY.iter().any(|file| path.ends_with(file)) {
                "#![deny(unsafe_code)]"
            } else {
                "#![forbid(unsafe_code)]"
            };
            if !text.contains(lint) {
                found.push(format!("{}: lacks `{lint}`", path.display()));
            }
        }
    }
    islands.sort_unstable();
    let mut expected = ISLANDS.to_vec();
    expected.sort_unstable();
    assert_eq!(islands, expected, "the files allowing `unsafe`");
    // A scanner that matches nothing would pass vacuously.
    assert!(libs > DENY.len(), "the scan found {libs} crate roots");
    assert!(
        found.is_empty(),
        "unsafe outside its islands:\n{}",
        found.join("\n")
    );
}

/// One SHA-256: the first round constant appears in one library file,
/// so no second implementation (and no copy of a kernel) can creep in.
#[test]
fn one_sha256() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut sources = library_sources(&root);
    for krate in std::fs::read_dir(root.join("vendor"))
        .expect("vendor/ is readable")
        .filter_map(Result::ok)
    {
        rust_sources(&krate.path().join("src"), &mut sources);
    }
    let holders: Vec<PathBuf> = sources
        .into_iter()
        .filter(|path| {
            std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("{} is readable: {e}", path.display()))
                .contains("0x428a2f98")
        })
        .collect();
    assert_eq!(holders.len(), 1, "files holding SHA-256's K: {holders:?}");
    assert!(holders[0].ends_with("crates/core/src/canon/sha256.rs"));
}

/// The M:N scheduler is the one SPMD engine: no rank blocks on a condition
/// variable outside `simmpi::sched` (whose workers idle on one), and the
/// thread-per-rank engine's entry points are gone from the workspace. The
/// names are spelled in pieces so that this file does not match itself.
#[test]
fn one_engine() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("{} is readable: {e}", path.display()))
    };
    let simmpi = root.join("crates/simmpi/src");
    let mut sources = Vec::new();
    rust_sources(&simmpi, &mut sources);
    assert!(!sources.is_empty(), "the scan found no simmpi source");
    let condvar = ["Cond", "var"].concat();
    let mut found: Vec<String> = sources
        .iter()
        .filter(|path| !path.starts_with(simmpi.join("sched")) && read(path).contains(&condvar))
        .map(|path| format!("{condvar} in {}", path.display()))
        .collect();

    let mut sources = Vec::new();
    rust_sources(&root.join("tests"), &mut sources);
    for krate in std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .filter_map(Result::ok)
    {
        for part in ["src", "tests", "benches", "examples"] {
            let dir = krate.path().join(part);
            if dir.is_dir() {
                rust_sources(&dir, &mut sources);
            }
        }
    }
    let retired = [
        ["MAX_THREAD", "_RANKS"].concat(),
        ["EngineOpts::", "threads"].concat(),
        ["run_", "threads"].concat(),
        ["EngineKind::", "Threads"].concat(),
        ["COOPERATIVE", "_SUPPORTED"].concat(),
    ];
    for path in &sources {
        let text = read(path);
        for name in &retired {
            if text.contains(name.as_str()) {
                found.push(format!("{name} in {}", path.display()));
            }
        }
    }
    assert!(
        found.is_empty(),
        "a second engine's code is back: {found:?}"
    );
}

/// A rank is one coroutine that runs its kernels serially, as an MPI
/// process on one core does: the library code of the numerical crates
/// spawns no threads of its own and the vendored thread pool is gone. The names are spelled
/// in pieces so that this file does not match itself.
#[test]
fn single_threaded_ranks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut found = Vec::new();
    let pool = ["vendor/", "ray", "on"].concat();
    if root.join(&pool).exists() {
        found.push(format!("{pool} exists"));
    }
    let threading = [
        ["ray", "on"].concat(),
        ["ThreadPool", "Builder"].concat(),
        ["current_num", "_threads"].concat(),
        ["thread::", "scope"].concat(),
    ];
    for krate in ["linalg", "fem", "core"] {
        let mut sources = Vec::new();
        rust_sources(&root.join("crates").join(krate).join("src"), &mut sources);
        assert!(!sources.is_empty(), "the scan found no {krate} source");
        for path in sources {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{} is readable: {e}", path.display()));
            // Unit tests may drive a component from several threads (the
            // artifact store's concurrent writers); the library may not.
            let library = text.split("#[cfg(test)]\nmod tests").next().unwrap_or("");
            for name in &threading {
                if library.contains(name.as_str()) {
                    found.push(format!("{name} in {}", path.display()));
                }
            }
        }
    }
    assert!(found.is_empty(), "intra-rank threading is back: {found:?}");
}

/// `text` with every `//` comment (doc comments included) cut from its line.
fn without_comments(text: &str) -> String {
    text.lines()
        .map(|line| line.find("//").map_or(line, |at| &line[..at]))
        .collect::<Vec<_>>()
        .join("\n")
}

/// `text` without its `#[cfg(test)]` items and its `use` declarations: what
/// calls something, as opposed to what tests or re-exports it.
fn calling_code(text: &str) -> String {
    const TEST_ITEM: &str = "#[cfg(test)]";
    let text = without_comments(text);
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(at) = rest.find(TEST_ITEM) {
        out.push_str(&rest[..at]);
        // The item ends at a `;` outside braces or at the brace that closes
        // its body.
        let mut depth = 0usize;
        let mut end = rest.len();
        for (i, c) in rest[at + TEST_ITEM.len()..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' if depth == 1 => {
                    end = at + TEST_ITEM.len() + i + 1;
                    break;
                }
                '}' => depth = depth.saturating_sub(1),
                ';' if depth == 0 => {
                    end = at + TEST_ITEM.len() + i + 1;
                    break;
                }
                _ => {}
            }
        }
        rest = &rest[end..];
    }
    out.push_str(rest);
    let mut code = String::with_capacity(out.len());
    let mut in_use = false;
    for line in out.lines() {
        let trimmed = line.trim_start();
        let starts_use = ["use ", "pub use ", "pub(crate) use "]
            .iter()
            .any(|p| trimmed.starts_with(p));
        if starts_use || in_use {
            in_use = !line.contains(';');
            continue;
        }
        code.push_str(line);
        code.push('\n');
    }
    code
}

/// Whether `name` occurs in `text` as a whole identifier, other than as the
/// name an item of its own is declared with.
fn names(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(name).any(|(at, _)| {
        let before = &text[..at];
        !before.ends_with(ident)
            && !text[at + name.len()..].starts_with(ident)
            && !["fn ", "const ", "static "]
                .iter()
                .any(|q| before.ends_with(q))
    })
}

/// The crates stand in for what the paper's applications reach through
/// LifeV and Trilinos, so their public surface is what the program calls.
/// A `pub fn`, `pub const` or `pub static` in the library code of any crate
/// under `crates/` must be named by non-test code in another file: a
/// workspace crate's `src`, `benches` or `examples`, the root `examples/`,
/// or `benchmark/src`. Comments, `use` declarations, `#[cfg(test)]` items
/// and the names items are declared with name nothing. Types are not
/// checked, because public signatures need them.
/// The match is textual, so a name that means something else elsewhere
/// passes; what it catches is an API that only its own tests call.
#[test]
fn no_test_only_api() {
    /// `(file, item)` pairs that only tests name, each with its reason.
    const ALLOWED: [(&str, &str); 7] = [
        // The zero-cost fabric, which test crates put in place of a real
        // network so that what they assert on is compute and logic alone.
        ("crates/simmpi/src/network.rs", "ideal"),
        // `ScenarioOptions::smoke` and `ResilienceOptions::smoke`: the cheap
        // scenario fixtures that the plan pins and the unit tests share.
        ("crates/core/src/scenarios.rs", "smoke"),
        // The reference path the determinism suites compare the shared
        // prepared scenarios against, and its switch.
        ("crates/core/src/prep.rs", "disable_sharing_scoped"),
        ("crates/core/src/prep.rs", "sharing_enabled"),
        // The work-tape counters: how the tape suites prove which path ran.
        ("crates/core/src/prep.rs", "tape_stats"),
        // A user-set option: fsync every journal append.
        ("crates/serve/src/service.rs", "with_fsync"),
        // The crash hook the kill/restart suite puts in place of a crash.
        ("crates/serve/src/service.rs", "kill"),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut callers = Vec::new();
    for krate in std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .filter_map(Result::ok)
    {
        for part in ["src", "benches", "examples"] {
            let dir = krate.path().join(part);
            if dir.is_dir() {
                rust_sources(&dir, &mut callers);
            }
        }
    }
    rust_sources(&root.join("examples"), &mut callers);
    rust_sources(&root.join("benchmark/src"), &mut callers);
    let code: Vec<(PathBuf, String)> = callers
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{} is readable: {e}", path.display()));
            (path, calling_code(&text))
        })
        .collect();

    // (keyword, the prefixes that make it public)
    const ITEMS: [(&str, &[&str]); 3] = [
        ("fn", &["pub ", "pub const ", "pub unsafe "]),
        ("const", &["pub "]),
        ("static", &["pub "]),
    ];
    let mut scanned = std::collections::BTreeMap::<String, usize>::new();
    let mut unused = Vec::new();
    for (path, text) in &code {
        let Ok(file) = path.strip_prefix(root.join("crates")) else {
            continue;
        };
        let mut parts = file.components();
        let (Some(krate), Some(src)) = (parts.next(), parts.next()) else {
            continue;
        };
        if src.as_os_str() != "src" {
            continue;
        }
        let krate = krate.as_os_str().to_string_lossy();
        for (keyword, prefixes) in ITEMS {
            let item = format!("{keyword} ");
            for (at, _) in text.match_indices(&item) {
                if !prefixes.iter().any(|q| text[..at].ends_with(q)) {
                    continue;
                }
                let name: String = text[at + item.len()..]
                    .chars()
                    .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
                    .collect();
                // `pub const fn` and `pub const unsafe fn` are functions.
                if name.is_empty() || name == "fn" || name == "unsafe" {
                    continue;
                }
                *scanned.entry(krate.to_string()).or_default() += 1;
                if !code
                    .iter()
                    .any(|(other, text)| other != path && names(text, &name))
                {
                    let file = path.strip_prefix(&root).unwrap_or(path).display();
                    unused.push((format!("{file}"), name, krate.to_string(), keyword));
                }
            }
        }
    }
    // A scanner that matches nothing, or skips a crate, would pass
    // vacuously. The bound is 80 % of the 446 items scanned when it was set.
    let krates = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .filter_map(Result::ok)
        .map(|krate| krate.file_name().to_string_lossy().into_owned());
    for krate in krates {
        assert!(scanned.contains_key(&krate), "the scan skipped {krate}");
    }
    let scanned: usize = scanned.values().sum();
    assert!(scanned > 356, "the scan found {scanned} public items");

    let mut found = Vec::new();
    for (file, name, krate, keyword) in &unused {
        if !ALLOWED.iter().any(|&(f, n)| file.ends_with(f) && n == name) {
            found.push(format!("{krate}: {file}: `pub {keyword} {name}`"));
        }
    }
    for (file, name) in ALLOWED {
        if !unused
            .iter()
            .any(|(f, n, _, _)| f.ends_with(file) && n == name)
        {
            found.push(format!("{file}: `{name}` is allowed but has a caller now"));
        }
    }
    assert!(
        found.is_empty(),
        "public items that only tests name (give each a caller, make it \
         private, or delete it); {scanned} scanned:\n{}",
        found.join("\n")
    );
}
