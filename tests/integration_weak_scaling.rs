//! Paper-scale weak-scaling shape checks (Figures 4 and 5): who wins, where
//! the curves truncate, and how the platforms order — the reproduction
//! targets of DESIGN.md's experiment index.

use hetero_hpc::run::Fidelity;
use hetero_hpc::scenarios::{fig4, fig5, ScenarioOptions, WeakScalingTable};

fn paper_opts() -> ScenarioOptions {
    ScenarioOptions {
        steps: 7,
        discard: 5,
        ..ScenarioOptions::paper()
    }
}

fn degradation(table: &WeakScalingTable, platform: &str, ranks: usize) -> f64 {
    table.outcome(ranks, platform).unwrap().phases.total
        / table.outcome(1, platform).unwrap().phases.total
}

#[test]
fn fig4_truncation_points_match_the_paper() {
    let t = fig4(&paper_opts());
    // puma: 128 cores -> 125 is the last rung; ellipse: mpiexec fails above
    // 512; lagrange: IB volume cap above 343; ec2: the only platform that
    // reaches 1000 ("only Cloud providers could provide a large enough
    // offering to sustain the biggest, 1000-core task").
    assert_eq!(t.max_feasible_ranks("puma"), 125);
    assert_eq!(t.max_feasible_ranks("ellipse"), 512);
    assert_eq!(t.max_feasible_ranks("lagrange"), 343);
    assert_eq!(t.max_feasible_ranks("ec2"), 1000);
}

#[test]
fn fig4_rd_scales_well_up_to_125_everywhere() {
    // "The problem scales well for all targets in the range 1-125 MPI
    // processes": no platform degrades by more than ~60% there.
    let t = fig4(&paper_opts());
    for platform in ["puma", "ellipse", "lagrange", "ec2"] {
        for ranks in [8usize, 27, 64, 125] {
            let d = degradation(&t, platform, ranks);
            assert!(d < 1.6, "{platform} at {ranks}: degradation {d}");
        }
    }
}

#[test]
fn fig4_only_lagrange_maintains_weak_scaling_at_large_sizes() {
    // "After a certain problem size, only the HPC machine lagrange
    // maintains a good weak scaling characteristic."
    let t = fig4(&paper_opts());
    let lagrange = degradation(&t, "lagrange", 343);
    let ellipse = degradation(&t, "ellipse", 343);
    let ec2 = degradation(&t, "ec2", 343);
    assert!(lagrange < 1.5, "lagrange {lagrange}");
    assert!(
        ellipse > lagrange,
        "ellipse {ellipse} vs lagrange {lagrange}"
    );
    assert!(ec2 > lagrange, "ec2 {ec2} vs lagrange {lagrange}");
}

#[test]
fn fig4_ec2_has_the_worst_relative_degradation() {
    // "...the ec2 configuration characterizes by the worse performance
    // degradation in comparison to puma and ellipse."
    let t = fig4(&paper_opts());
    let ec2 = degradation(&t, "ec2", 125);
    let at_max = degradation(&t, "ec2", 1000);
    let puma = degradation(&t, "puma", 125);
    let ellipse = degradation(&t, "ellipse", 512);
    assert!(
        at_max > ellipse,
        "ec2@1000 {at_max} vs ellipse@512 {ellipse}"
    );
    assert!(at_max > 5.0, "ec2 must collapse at scale: {at_max}");
    assert!(ec2 > 0.8 * puma, "ec2@125 {ec2} vs puma@125 {puma}");
}

#[test]
fn fig4_newest_cpus_win_at_small_scale() {
    // At 1-8 ranks the network is irrelevant and the 2011/12 Xeons (ec2,
    // lagrange) beat the 2006 Opterons (puma, ellipse) outright.
    let t = fig4(&paper_opts());
    for ranks in [1usize, 8] {
        let time = |p: &str| t.outcome(ranks, p).unwrap().phases.total;
        assert!(time("ec2") < time("puma"));
        assert!(time("ec2") < time("ellipse"));
        assert!(time("lagrange") < time("ellipse"));
    }
}

#[test]
fn fig4_phase_ordering_is_paper_like() {
    // Assembly is the dominant phase at small scale; the solve phase is the
    // one that blows up with the network at large scale.
    let t = fig4(&paper_opts());
    let small = t.outcome(8, "ec2").unwrap().phases;
    assert!(small.assembly > small.solve);
    let large = t.outcome(1000, "ec2").unwrap().phases;
    assert!(large.solve > large.assembly);
}

#[test]
fn fig5_ns_scales_worse_than_rd() {
    // "This test does not scale well in any range."
    let opts = ScenarioOptions {
        steps: 3,
        discard: 1,
        ..paper_opts()
    };
    let rd = fig4(&opts);
    let ns = fig5(&opts);
    for platform in ["puma", "ellipse", "ec2"] {
        // NS moves more data, so the *absolute* scaling overhead (seconds
        // added going from 1 to 125 ranks) is larger than RD's on every
        // Ethernet platform.
        let overhead = |t: &WeakScalingTable| {
            t.outcome(125, platform).unwrap().phases.total
                - t.outcome(1, platform).unwrap().phases.total
        };
        let o_rd = overhead(&rd);
        let o_ns = overhead(&ns);
        assert!(o_ns > o_rd, "{platform}: NS overhead {o_ns} vs RD {o_rd}");
    }
    // NS at 125 degrades noticeably even on the best Ethernet platform, and
    // collapses at full scale.
    assert!(degradation(&ns, "ec2", 125) > 1.3);
    assert!(degradation(&ns, "ec2", 1000) > degradation(&rd, "ec2", 1000));
}

#[test]
fn fig5_ec2_competitive_with_hpc_at_small_scale() {
    // "For computationally intensive tasks for a small number of processes,
    // Amazon EC2 performance is comparable to the HPC class machine and can
    // considerably improve time to completion in comparison to the
    // department class computing clusters."
    let opts = ScenarioOptions {
        steps: 3,
        discard: 1,
        ..paper_opts()
    };
    let ns = fig5(&opts);
    let time = |p: &str, r: usize| ns.outcome(r, p).unwrap().phases.total;
    for ranks in [8usize, 27, 64] {
        let ratio = time("ec2", ranks) / time("lagrange", ranks);
        assert!(
            (0.6..=1.4).contains(&ratio),
            "ranks {ranks}: ec2/lagrange = {ratio}"
        );
        assert!(
            time("ec2", ranks) < 0.65 * time("puma", ranks),
            "ranks {ranks}"
        );
    }
}

#[test]
fn modeled_ladder_is_deterministic() {
    let a = fig4(&ScenarioOptions {
        max_k: 4,
        steps: 2,
        discard: 0,
        ..paper_opts()
    });
    let b = fig4(&ScenarioOptions {
        max_k: 4,
        steps: 2,
        discard: 0,
        ..paper_opts()
    });
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        for ((_, ca), (_, cb)) in ra.cells.iter().zip(&rb.cells) {
            match (ca, cb) {
                (Ok(x), Ok(y)) => assert_eq!(x.phases.total, y.phases.total),
                (Err(_), Err(_)) => {}
                _ => panic!("feasibility differs between identical runs"),
            }
        }
    }
}

#[test]
fn numerical_smoke_ladder_runs_end_to_end() {
    // The whole fig4 pipeline also works with the numerical engine
    // at smoke scale.
    let opts = ScenarioOptions {
        per_rank_axis: 3,
        max_k: 2,
        steps: 2,
        discard: 0,
        fidelity: Fidelity::Numerical,
        seed: 7,
        trace: None,
    };
    let t = fig4(&opts);
    assert_eq!(t.rows.len(), 2);
    for row in &t.rows {
        for (key, cell) in &row.cells {
            let out = cell.as_ref().unwrap_or_else(|e| panic!("{key}: {e}"));
            assert!(out.verification.is_some());
        }
    }
}
