//! A seeded fuzz of the plan loader over every checked-in plan: truncated,
//! bit-flipped and garbage-spliced documents must come back as a
//! [`hetero_plan::toml::TomlError`] (or a plan), never as a panic, and
//! every error must point inside the document it describes.

use hetero_plan::load_str;
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every `plans/*.toml`, as `(file name, text)`, sorted by name.
fn plans() -> Vec<(String, String)> {
    let dir = format!("{}/../../plans", env!("CARGO_MANIFEST_DIR"));
    let mut plans: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("plans/ exists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("toml"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).expect("readable plan"))
        })
        .collect();
    plans.sort();
    assert!(
        plans.len() >= 5,
        "expected the checked-in plans, found {}",
        plans.len()
    );
    plans
}

/// Loads `doc`, failing the test on a panic or on an error span outside
/// the document: its line must exist and its column may point at most one
/// past the line's last character. Returns whether the load failed.
fn check(case: &str, doc: &str) -> bool {
    let loaded = catch_unwind(AssertUnwindSafe(|| load_str(doc)))
        .unwrap_or_else(|_| panic!("{case}: load_str panicked on\n{doc}"));
    let Err(e) = loaded else {
        return false;
    };
    let line_chars: Vec<usize> = doc.split('\n').map(|l| l.chars().count()).collect();
    let (line, col) = (e.span.line, e.span.col);
    assert!(
        (1..=line_chars.len()).contains(&line) && (1..=line_chars[line - 1] + 1).contains(&col),
        "{case}: error `{e}` lies outside the document ({} lines)\n{doc}",
        line_chars.len()
    );
    true
}

/// The byte offsets of `doc`'s char boundaries, both ends included.
fn boundaries(doc: &str) -> Vec<usize> {
    doc.char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(doc.len()))
        .collect()
}

#[test]
fn every_truncation_loads_or_fails_in_bounds() {
    let mut cases = 0;
    for (name, doc) in plans() {
        for cut in boundaries(&doc) {
            check(&format!("{name} cut at byte {cut}"), &doc[..cut]);
            cases += 1;
        }
    }
    assert!(cases > 5_000, "{cases} cases");
}

#[test]
fn bit_flips_load_or_fail_in_bounds() {
    let mut rng = TestRng::new(2012);
    let (mut cases, mut failed) = (0, 0);
    for (name, doc) in plans() {
        let mut round = 0;
        while round < 400 {
            let mut bytes = doc.clone().into_bytes();
            let flips = 1 + rng.usize_below(3);
            for _ in 0..flips {
                let at = rng.usize_below(bytes.len());
                bytes[at] ^= 1 << rng.usize_below(8);
            }
            // Plans are text: only a flip that leaves valid UTF-8 is a
            // document the loader can be handed.
            let Ok(flipped) = String::from_utf8(bytes) else {
                continue;
            };
            failed += usize::from(check(&format!("{name} flip round {round}"), &flipped));
            cases += 1;
            round += 1;
        }
    }
    assert_eq!(cases, 400 * plans().len());
    assert!(
        failed > cases / 4,
        "only {failed} of {cases} flipped plans failed to load"
    );
}

#[test]
fn garbage_tokens_load_or_fail_in_bounds() {
    const GARBAGE: &[&str] = &[
        "[",
        "[[",
        "]",
        "]]",
        "\"",
        "'",
        "=",
        "==",
        ",",
        "{",
        "}",
        "#",
        "\n",
        "\r\n",
        "\t",
        "1e999",
        "-1e999",
        "nan",
        "inf",
        "-0",
        "99999999999999999999",
        "-99999999999999999999",
        "0x",
        "\\u{0}",
        "\\",
        "é",
        "日本",
        "🦀",
        "\u{feff}",
        "true",
        "[plan]",
        "[[stage]]",
        "\nname = \"dup\"\nname = \"dup\"\n",
        "\n[plan]\n",
        "x = ",
        "= 1",
        "\"\"\"",
    ];
    let mut cases = 0;
    for (name, doc) in plans() {
        for &cut in boundaries(&doc).iter().step_by(7) {
            for (g, token) in GARBAGE.iter().enumerate() {
                let spliced = format!("{}{token}{}", &doc[..cut], &doc[cut..]);
                check(&format!("{name} token {g} at byte {cut}"), &spliced);
                cases += 1;
            }
        }
    }
    assert!(cases > 20_000, "{cases} cases");
}
