//! Cost-analysis shape checks: Table II and Figures 6/7.

use hetero_hpc::scenarios::{cost_curves, fig4, fig5, table2, ScenarioOptions};
use hetero_platform::catalog;

fn opts() -> ScenarioOptions {
    ScenarioOptions {
        steps: 3,
        discard: 1,
        ..ScenarioOptions::paper()
    }
}

#[test]
fn table2_reproduces_the_papers_structure() {
    let rows = table2(&opts());
    // The node ladder is exactly the paper's "#" column.
    let nodes: Vec<usize> = rows.iter().map(|r| r.nodes).collect();
    assert_eq!(nodes, vec![1, 1, 2, 4, 8, 14, 22, 32, 46, 63]);
    for r in &rows {
        // "Regular allocation in a single placement group does not
        // introduce any performance benefits": times equal within noise.
        let rel = (r.mix_time - r.full_time).abs() / r.full_time;
        assert!(
            rel < 0.2,
            "ranks {}: full {} vs mix {}",
            r.ranks,
            r.full_time,
            r.mix_time
        );
        // "...despite costing four times as much": per-hour rates differ by
        // 2.40/0.54 ~ 4.44.
        let hourly_ratio = (r.full_cost / r.full_time) / (r.mix_est_cost / r.mix_time);
        assert!(
            (3.8..=5.0).contains(&hourly_ratio),
            "ranks {}: {hourly_ratio}",
            r.ranks
        );
        // Costs grow superlinearly in ranks (time grows too).
        assert!(r.full_cost > 0.0 && r.mix_est_cost > 0.0);
    }
    // Monotone cost growth down the ladder.
    for pair in rows.windows(2) {
        assert!(pair[1].full_cost > pair[0].full_cost);
    }
    // "We never succeeded in establishing a full 63-host configuration of
    // spot request instances."
    assert!(rows.last().unwrap().mix_spot_nodes < 63);
}

#[test]
fn table2_cost_arithmetic_matches_the_paper() {
    // The paper's real cost column is time x instances x $2.40/3600, and
    // the estimate column is time x instances x $0.54/3600. Verify our
    // pipeline implements exactly that arithmetic.
    let rows = table2(&opts());
    for r in &rows {
        let expect_full = r.full_time * r.nodes as f64 * 2.40 / 3600.0;
        assert!(
            (r.full_cost - expect_full).abs() / expect_full < 1e-9,
            "ranks {}",
            r.ranks
        );
        let expect_mix = r.mix_time * r.nodes as f64 * 0.54 / 3600.0;
        assert!((r.mix_est_cost - expect_mix).abs() / expect_mix < 1e-9);
    }
}

#[test]
fn fig6_whole_node_billing_penalizes_small_jobs() {
    // "As Amazon charges the users for the entire machine, this price
    // increases if not all cores are utilized, as shown on both charts for
    // two first cases."
    let table = fig4(&opts());
    let curves = cost_curves(&table, &opts());
    let ec2 = curves.iter().find(|c| c.label == "ec2").unwrap();
    let effective_rate = |ranks: usize| {
        let (_, cost) = ec2.points.iter().find(|&&(r, _)| r == ranks).unwrap();
        let t = table.outcome(ranks, "ec2").unwrap().phases.total;
        cost / (ranks as f64 * t / 3600.0) // $/core-hour
    };
    // 1 rank pays a whole 16-core instance; 125 ranks amortize 8 instances.
    assert!(effective_rate(1) > 10.0 * effective_rate(125));
}

#[test]
fn fig6_cheapest_platform_at_small_scale_is_the_home_cluster() {
    let table = fig4(&opts());
    let curves = cost_curves(&table, &opts());
    let cost_at = |label: &str, ranks: usize| -> f64 {
        curves
            .iter()
            .find(|c| c.label == label)
            .unwrap()
            .points
            .iter()
            .find(|&&(r, _)| r == ranks)
            .map(|&(_, c)| c)
            .unwrap()
    };
    for ranks in [8usize, 27, 64, 125] {
        assert!(
            cost_at("puma", ranks) < cost_at("lagrange", ranks),
            "ranks {ranks}"
        );
        assert!(
            cost_at("puma", ranks) < cost_at("ec2", ranks),
            "ranks {ranks}"
        );
    }
}

#[test]
fn fig7_ec2_mix_beats_the_home_cluster_for_ns() {
    // The paper's headline cost finding: "This is readily apparent in the
    // case of the Navier-Stokes application — EC2 costs less than our
    // on-premise cluster and is faster as well" (with the cost-aware spot
    // strategy).
    let o = opts();
    let table = fig5(&o);
    let curves = cost_curves(&table, &o);
    let mix = curves.iter().find(|c| c.label == "ec2 mix").unwrap();
    for ranks in [27usize, 64, 125] {
        let (_, mix_cost) = mix.points.iter().find(|&&(r, _)| r == ranks).unwrap();
        let puma_cost = curves[0]
            .points
            .iter()
            .find(|&&(r, _)| r == ranks)
            .map(|&(_, c)| c);
        let Some(puma_cost) = puma_cost else { continue };
        let t_mix = table.outcome(ranks, "ec2").unwrap().phases.total;
        let t_puma = table.outcome(ranks, "puma").unwrap().phases.total;
        assert!(
            t_mix < t_puma,
            "ranks {ranks}: ec2 {t_mix} vs puma {t_puma}"
        );
        assert!(
            *mix_cost < 1.1 * puma_cost,
            "ranks {ranks}: mix {mix_cost} vs puma {puma_cost}"
        );
    }
}

#[test]
fn fig6_mix_converges_toward_full_at_large_sizes() {
    // "Obtaining a large number of hosts via spot requests is difficult if
    // not impossible ... this is apparent in the convergence of the mix and
    // regular curves."
    let o = opts();
    let table = fig4(&o);
    let curves = cost_curves(&table, &o);
    let full = curves.iter().find(|c| c.label == "ec2").unwrap();
    let mix = curves.iter().find(|c| c.label == "ec2 mix").unwrap();
    let ratio_at = |ranks: usize| -> f64 {
        let f = full.points.iter().find(|&&(r, _)| r == ranks).unwrap().1;
        let m = mix.points.iter().find(|&&(r, _)| r == ranks).unwrap().1;
        f / m
    };
    // Small fleets fill entirely from spot (ratio ~ 4.4); the 63-node fleet
    // needs on-demand top-up, pulling the ratio down.
    assert!(ratio_at(64) > 4.0, "{}", ratio_at(64));
    assert!(
        ratio_at(1000) < ratio_at(64),
        "{} vs {}",
        ratio_at(1000),
        ratio_at(64)
    );
}

#[test]
fn numerical_engine_supports_placement_group_fleets() {
    // The numerical engine must also run on a spot-mix topology (Table II's
    // configuration), producing the same verified numerics at a slightly
    // different simulated time.
    use hetero_hpc::apps::App;
    use hetero_hpc::run::{execute, Fidelity, RunRequest};
    use hetero_platform::spot::{acquire_fleet, FleetStrategy};

    let ec2 = catalog::ec2();
    let base = RunRequest {
        fidelity: Fidelity::Numerical,
        ..RunRequest::new(ec2.clone(), App::paper_rd(2), 24, 3)
    };
    let single = execute(&base).unwrap();

    let fleet = acquire_fleet(
        2,
        FleetStrategy::SpotMix {
            groups: 2,
            max_bid: 1.0,
        },
        2.40,
        7,
    );
    let mix = execute(&RunRequest {
        topology_override: Some(fleet.topology(16)),
        cost_override: Some(catalog::ec2_spot_cost()),
        ..base
    })
    .unwrap();

    // Same math either way.
    assert_eq!(
        single.verification.unwrap().l2,
        mix.verification.unwrap().l2,
        "numerics must not depend on placement"
    );
    // Same order of magnitude in time; strictly cheaper at spot rates.
    let rel = (mix.phases.total - single.phases.total).abs() / single.phases.total;
    assert!(rel < 0.5, "rel = {rel}");
    assert!(mix.cost_per_iteration < single.cost_per_iteration);
}

#[test]
fn csv_reports_mark_infeasible_rows() {
    use hetero_hpc::report::weak_scaling_csv;
    let o = ScenarioOptions {
        steps: 2,
        discard: 0,
        ..ScenarioOptions::paper()
    };
    let table = fig4(&o);
    let csv = weak_scaling_csv(&table);
    // puma above 125 ranks must appear as infeasible rows, not silently
    // vanish.
    assert!(csv.contains("RD,216,puma,,,,,,infeasible"));
    assert!(csv.contains("RD,1000,ec2,"));
    assert!(!csv.contains("RD,1000,ec2,,"));
}

#[test]
fn core_hour_rates_are_the_papers() {
    // 2.3 c (puma, estimated), 5 c (ellipse), 19.19 c (lagrange),
    // 15 c/core on a full cc2.8xlarge, 3.375 c at the spot rate.
    let hour = 3600.0;
    assert!((catalog::puma().cost_of(1, hour) - 0.023).abs() < 1e-12);
    assert!((catalog::ellipse().cost_of(1, hour) - 0.05).abs() < 1e-12);
    assert!((catalog::lagrange().cost_of(1, hour) - 0.1919).abs() < 1e-12);
    assert!((catalog::ec2().cost_of(16, hour) / 16.0 - 0.15).abs() < 1e-12);
    assert!((catalog::ec2_spot_cost().cost(16, hour) / 16.0 - 0.03375).abs() < 1e-12);
}
