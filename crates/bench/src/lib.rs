//! # hetero-bench
//!
//! The paper-artifact regenerators of the `hetero-hpc` reproduction. Each
//! paper artifact has a dedicated bench target that regenerates it:
//!
//! | target                  | artifact                                   |
//! |-------------------------|--------------------------------------------|
//! | `fig4_rd_weak_scaling`  | Figure 4 (RD weak scaling, 4 platforms)    |
//! | `fig5_ns_weak_scaling`  | Figure 5 (NS weak scaling)                 |
//! | `table2_placement`      | Table II (EC2 full vs spot mix)            |
//! | `fig6_rd_cost`          | Figure 6 (RD per-iteration cost)           |
//! | `fig7_ns_cost`          | Figure 7 (NS per-iteration cost)           |
//! | `table1_capabilities`   | Table I + Section VI provisioning effort   |
//! | `table3_resilience`     | Table III (spot-with-restart vs on-demand) |
//! | `ablations`             | design-choice ablations (DESIGN.md Section 6) |
//!
//! Run everything with `cargo bench --workspace`. The figure/table targets
//! print the paper-style rows to stdout and write machine-readable copies
//! under `target/paper-artifacts/`. Host-time measurement lives in the
//! standalone `benchmark/` package (`BENCHMARK.json`), not here.

/// Writes an artifact file under `target/paper-artifacts/`, creating the
/// directory as needed. Returns the path written.
pub fn write_artifact(name: &str, contents: &str) -> std::path::PathBuf {
    // Anchor at the workspace target dir regardless of the bench CWD.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join("paper-artifacts");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write artifact");
    path
}

#[cfg(test)]
mod tests {
    #[test]
    fn artifact_roundtrip() {
        let p = super::write_artifact("selftest.txt", "hello");
        assert_eq!(std::fs::read_to_string(p).unwrap(), "hello");
    }
}
