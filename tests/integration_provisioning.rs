//! Table I / Section VI end-to-end checks through the harness and renderer.

use hetero_hpc::report::render_table1;
use hetero_hpc::scenarios::table1;
use hetero_platform::provision::{environment_of, plan, Action};

#[test]
fn effort_totals_match_section_vi() {
    let t = table1();
    let hours: Vec<(String, f64)> = t
        .plans
        .iter()
        .map(|p| (p.platform.clone(), p.total_hours()))
        .collect();
    let h = |key: &str| hours.iter().find(|(k, _)| k == key).unwrap().1;
    // puma is the home environment: nothing to do.
    assert_eq!(h("puma"), 0.0);
    // "All software preconditioning actions took about 8 man-hours" on both
    // ellipse and lagrange.
    assert!((7.0..=9.5).contains(&h("ellipse")), "{}", h("ellipse"));
    assert!((6.0..=9.5).contains(&h("lagrange")), "{}", h("lagrange"));
    // "Provisioning of a machine took about a day" in the worst case (EC2).
    assert!((8.5..=12.0).contains(&h("ec2")), "{}", h("ec2"));
}

#[test]
fn remediations_match_table_is_colored_cells() {
    // ellipse: MPI missing -> source install; BLAS via ACML; SGE can't run
    // parallel jobs -> Open MPI liaison.
    let ellipse = plan(&environment_of("ellipse").unwrap()).unwrap();
    assert!(ellipse
        .steps
        .iter()
        .any(|s| s.item.contains("Open MPI") && s.action == Action::SourceBuild));
    assert!(ellipse.steps.iter().any(|s| s.action == Action::SgeLiaison));

    // lagrange: MPI and compilers provided; vendor MKL; Trilinos et al from
    // source.
    let lagrange = plan(&environment_of("lagrange").unwrap()).unwrap();
    assert!(!lagrange.steps.iter().any(|s| s.item.contains("Open MPI")));
    assert!(lagrange
        .steps
        .iter()
        .any(|s| matches!(&s.action, Action::VendorLibrary(v) if v == "MKL")));

    // ec2: yum for the toolchain, source for CMake (not in the repos) and
    // the scientific stack, plus the cloud-specific system configuration.
    let ec2 = plan(&environment_of("ec2").unwrap()).unwrap();
    assert!(ec2
        .steps
        .iter()
        .any(|s| s.item.contains("GCC") && s.action == Action::PackageManager));
    assert!(ec2
        .steps
        .iter()
        .any(|s| s.item.contains("CMake") && s.action == Action::SourceBuild));
    let sysconfigs = ec2
        .steps
        .iter()
        .filter(|s| matches!(s.action, Action::SystemConfig(_)))
        .count();
    assert!(
        sysconfigs >= 4,
        "ssh keys, ports, partition, image: {sysconfigs}"
    );
}

#[test]
fn rendered_table_one_is_complete() {
    let text = render_table1(&table1());
    // All Table I rows that we model.
    for row in [
        "cpu arch.",
        "cores/node",
        "RAM/core",
        "network",
        "access",
        "support",
        "execution",
        "cost",
    ] {
        assert!(text.contains(row), "missing row {row}");
    }
    // The paper's remediation annotations appear.
    assert!(text.contains("source install"));
    assert!(text.contains("yum install"));
    assert!(text.contains("vendor lib"));
    // And the effort summary.
    assert!(text.contains("Effort totals"));
}

#[test]
fn package_effort_sums_are_attributed_to_real_steps() {
    let ec2 = plan(&environment_of("ec2").unwrap()).unwrap();
    let step_sum: f64 = ec2.steps.iter().map(|s| s.hours).sum();
    assert!((step_sum - ec2.total_hours()).abs() < 1e-12);
    // Trilinos is the single biggest source build, as any practitioner of
    // that era would confirm.
    let max_step = ec2
        .steps
        .iter()
        .max_by(|a, b| a.hours.partial_cmp(&b.hours).unwrap())
        .unwrap();
    assert!(max_step.item.contains("Trilinos"), "{max_step:?}");
}
