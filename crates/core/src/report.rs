//! Text/CSV/JSON renderers for the reproduced tables and figures.

use crate::run::RunOutcome;
use crate::scenarios::{
    CostCurve, SolverVariantRow, Table1, Table2Row, Table3Row, WeakScalingTable,
};
use hetero_platform::catalog;
use hetero_platform::cost::Billing;

fn fmt_time(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:8.1}")
    } else if t >= 1.0 {
        format!("{t:8.2}")
    } else {
        format!("{:8.4}", t)
    }
}

/// Renders a weak-scaling figure as a per-phase text table (the data behind
/// Figure 4 / Figure 5).
pub fn render_weak_scaling(table: &WeakScalingTable) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Weak scaling, {} application (per-iteration seconds; assembly/precond/solve/total)\n",
        table.app
    ));
    out.push_str(&format!("{:>6} |", "ranks"));
    for (key, _) in &table.rows[0].cells {
        out.push_str(&format!(" {key:^37} |"));
    }
    out.push('\n');
    for row in &table.rows {
        out.push_str(&format!("{:>6} |", row.ranks));
        for (_, cell) in &row.cells {
            match cell {
                Ok(o) => out.push_str(&format!(
                    "{}{}{}{} |",
                    fmt_time(o.phases.assembly),
                    fmt_time(o.phases.precond),
                    fmt_time(o.phases.solve),
                    fmt_time(o.phases.total),
                )),
                Err(e) => {
                    let reason = match e {
                        hetero_platform::limits::LimitViolation::InsufficientCapacity {
                            ..
                        } => "— (capacity)",
                        hetero_platform::limits::LimitViolation::LauncherFailure { .. } => {
                            "— (mpiexec launch failed)"
                        }
                        hetero_platform::limits::LimitViolation::AdapterVolumeExceeded {
                            ..
                        } => "— (IB volume limit)",
                        hetero_platform::limits::LimitViolation::DegenerateRequest { .. } => {
                            "— (empty request)"
                        }
                        hetero_platform::limits::LimitViolation::SimulatorRankCeiling {
                            ..
                        } => "— (simulator rank ceiling)",
                    };
                    out.push_str(&format!(" {reason:^37} |"));
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Renders the per-phase rollup table recomputed from a traced run's
/// structured trace: the span-level view behind the Fig. 4
/// assembly/precond/solve split, plus the unattributed remainder of each
/// iteration. Returns `None` when the run was not traced (the request's
/// `trace` was `None`) or its trace holds no phase span that survives the
/// discard.
///
/// The rollup is recomputed purely from span records, yet matches the
/// outcome's reported [`PhaseTimes`](hetero_fem::phase::PhaseTimes)
/// bitwise — the reduction mirrors the report pipeline operation for
/// operation.
pub fn outcome_phase_rollup(outcome: &RunOutcome, discard: usize) -> Option<String> {
    outcome
        .trace
        .as_ref()
        .and_then(|t| t.phase_rollup(discard))
        .map(|r| r.render())
}

/// Renders a weak-scaling figure as CSV
/// (`app,ranks,platform,assembly,precond,solve,total,cost,status`).
pub fn weak_scaling_csv(table: &WeakScalingTable) -> String {
    let mut out =
        String::from("app,ranks,platform,assembly_s,precond_s,solve_s,total_s,cost_usd,status\n");
    for row in &table.rows {
        for (key, cell) in &row.cells {
            match cell {
                Ok(o) => out.push_str(&format!(
                    "{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},ok\n",
                    table.app,
                    row.ranks,
                    key,
                    o.phases.assembly,
                    o.phases.precond,
                    o.phases.solve,
                    o.phases.total,
                    o.cost_per_iteration
                )),
                Err(_) => out.push_str(&format!(
                    "{},{},{},,,,,,infeasible\n",
                    table.app, row.ranks, key
                )),
            }
        }
    }
    out
}

/// Renders Table II in the paper's layout.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Table II: EC2 cc2.8xlarge assemblies, full (single placement group, on-demand)\n",
    );
    out.push_str("vs mix (spot requests over 4 placement groups + on-demand top-up)\n\n");
    out.push_str(
        "  #mpi    #  |  full: time[s]  real cost[$] |  mix: time[s]  est. cost[$]  (spot nodes)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6} {:>4}  | {:>14.2} {:>13.4} | {:>13.2} {:>13.4}  ({})\n",
            r.ranks,
            r.nodes,
            r.full_time,
            r.full_cost,
            r.mix_time,
            r.mix_est_cost,
            r.mix_spot_nodes
        ));
    }
    out
}

/// Renders the resilience sweep (Table III): expected campaign cost of
/// on-demand vs spot-with-restart per checkpoint cadence, with the
/// per-row cadence sweet spot starred.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    out.push_str("Table III: RD on EC2 under faults — expected campaign cost [$]\n");
    out.push_str("on-demand (crashes only, restart from scratch) vs spot-with-restart\n");
    out.push_str("(live revocation market, checkpoint cadence swept; * = cheapest cadence)\n\n");
    let cadences: Vec<usize> = rows
        .first()
        .map(|r| r.spot.iter().map(|&(c, _)| c).collect())
        .unwrap_or_default();
    out.push_str(&format!(
        "{:>6} {:>5} | {:>12} |",
        "ranks", "nodes", "on-demand"
    ));
    for c in &cadences {
        let label = if *c == 0 {
            "no ckpt".to_string()
        } else {
            format!("every {c}")
        };
        out.push_str(&format!(" {label:>12} |"));
    }
    out.push_str(" done%\n");
    for row in rows {
        let best = row.best_cadence();
        out.push_str(&format!(
            "{:>6} {:>5} | {:>12.2} |",
            row.ranks, row.nodes, row.on_demand.expected_dollars
        ));
        let mut min_rate: f64 = 1.0;
        for (c, cell) in &row.spot {
            let star = if *c == best { "*" } else { " " };
            out.push_str(&format!(" {:>11.2}{star} |", cell.expected_dollars));
            min_rate = min_rate.min(cell.completion_rate);
        }
        out.push_str(&format!(" {:>4.0}\n", min_rate * 100.0));
    }
    out
}

/// Serializes the resilience sweep to JSON (for EXPERIMENTS.md artifacts).
pub fn table3_json(rows: &[Table3Row]) -> serde_json::Value {
    serde_json::json!({
        "rows": rows.iter().map(|row| {
            let cell = |c: &crate::scenarios::Table3Cell| serde_json::json!({
                "expected_seconds": c.expected_seconds,
                "expected_dollars": c.expected_dollars,
                "completion_rate": c.completion_rate,
                "mean_attempts": c.mean_attempts,
                "mean_lost_work": c.mean_lost_work,
                "mean_checkpoint_seconds": c.mean_checkpoint_seconds,
            });
            serde_json::json!({
                "ranks": row.ranks,
                "nodes": row.nodes,
                "on_demand": cell(&row.on_demand),
                "best_cadence": row.best_cadence(),
                "spot": row.spot.iter().map(|(cadence, c)| serde_json::json!({
                    "cadence": cadence,
                    "cell": cell(c),
                })).collect::<Vec<_>>(),
            })
        }).collect::<Vec<_>>(),
    })
}

/// Renders the solver-schedule comparison (the "Communication overlap"
/// table) in the exact layout the `solver_variants` example prints.
pub fn render_solver_variants(rows: &[SolverVariantRow]) -> String {
    let mut out = String::new();
    out.push_str("RD solve phase, s/iteration (paper sizing: 20^3 elements/rank, seed 2012)\n");
    out.push('\n');
    out.push_str("| platform | ranks | blocking | overlapped | pipelined | best saving |\n");
    out.push_str("|----------|------:|---------:|-----------:|----------:|------------:|\n");
    for r in rows {
        let best = r.times[1].min(r.times[2]);
        out.push_str(&format!(
            "| {} | {} | {:.3} | {:.3} | {:.3} | {:.1}% |\n",
            r.platform,
            r.ranks,
            r.times[0],
            r.times[1],
            r.times[2],
            (1.0 - best / r.times[0]) * 100.0
        ));
    }
    out
}

/// Renders a cost figure (Figure 6 / 7) as a text table.
pub fn render_cost_curves(app: &str, curves: &[CostCurve]) -> String {
    let mut out = format!("Per-iteration cost, {app} application [$ per iteration]\n");
    out.push_str(&format!("{:>6} |", "ranks"));
    for c in curves {
        out.push_str(&format!(" {:^12} |", c.label));
    }
    out.push('\n');
    // Collect the union of rank counts.
    let mut all_ranks: Vec<usize> = curves
        .iter()
        .flat_map(|c| c.points.iter().map(|&(r, _)| r))
        .collect();
    all_ranks.sort_unstable();
    all_ranks.dedup();
    for ranks in all_ranks {
        out.push_str(&format!("{ranks:>6} |"));
        for c in curves {
            match c.points.iter().find(|&&(r, _)| r == ranks) {
                Some(&(_, cost)) => out.push_str(&format!(" {cost:>12.4} |")),
                None => out.push_str(&format!(" {:^12} |", "—")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders Table I: the platform capability matrix with the remediation
/// annotations, followed by the Section VI effort summary.
pub fn render_table1(t: &Table1) -> String {
    let mut out = String::new();
    let keys: Vec<&str> = t.platforms.iter().map(|p| p.key.as_str()).collect();
    out.push_str("Table I: specification of the test architectures\n\n");
    let row = |label: &str, values: Vec<String>| -> String {
        let mut line = format!("{label:<16}");
        for v in values {
            line.push_str(&format!(" | {v:<24}"));
        }
        line.push('\n');
        line
    };
    out.push_str(&row("", keys.iter().map(|k| k.to_string()).collect()));
    out.push_str(&row(
        "cpu arch.",
        t.platforms.iter().map(|p| p.cpu_model.clone()).collect(),
    ));
    out.push_str(&row(
        "cores/node",
        t.platforms
            .iter()
            .map(|p| p.cores_per_node.to_string())
            .collect(),
    ));
    out.push_str(&row(
        "RAM/core",
        t.platforms
            .iter()
            .map(|p| format!("{} GiB", p.ram_per_core_gib))
            .collect(),
    ));
    out.push_str(&row(
        "network",
        t.platforms.iter().map(|p| p.network.name.clone()).collect(),
    ));
    out.push_str(&row(
        "access",
        t.platforms
            .iter()
            .map(|p| match p.access {
                hetero_platform::AccessKind::UserSpace => "user space".to_string(),
                hetero_platform::AccessKind::Root => "root".to_string(),
            })
            .collect(),
    ));
    out.push_str(&row(
        "support",
        t.platforms
            .iter()
            .map(|p| {
                hetero_platform::provision::environment_of(&p.key)
                    .map(|e| e.support)
                    .unwrap_or_default()
            })
            .collect(),
    ));
    out.push_str(&row(
        "execution",
        t.platforms
            .iter()
            .map(|p| p.scheduler.name().to_string())
            .collect(),
    ));
    out.push_str(&row(
        "cost",
        t.platforms
            .iter()
            .map(|p| match p.cost.billing {
                Billing::PerCoreHour(r) | Billing::EstimatedPerCoreHour(r) => {
                    format!("{:.2} c/core-h", r * 100.0)
                }
                Billing::PerNodeHour { rate, .. } => format!("${rate:.2}/node-h"),
            })
            .collect(),
    ));
    out.push('\n');
    out.push_str("Section VI: provisioning plans and effort\n\n");
    for plan in &t.plans {
        out.push_str(&plan.render());
        out.push('\n');
    }
    out.push_str("Effort totals (man-hours): ");
    for plan in &t.plans {
        out.push_str(&format!("{} = {:.1}  ", plan.platform, plan.total_hours()));
    }
    out.push('\n');
    out
}

/// Serializes a weak-scaling table to JSON (for EXPERIMENTS.md artifacts).
pub fn weak_scaling_json(table: &WeakScalingTable) -> serde_json::Value {
    let platforms: Vec<String> = catalog::all_platforms()
        .into_iter()
        .map(|p| p.key)
        .collect();
    serde_json::json!({
        "app": table.app,
        "platforms": platforms,
        "rows": table.rows.iter().map(|row| {
            serde_json::json!({
                "ranks": row.ranks,
                "cells": row.cells.iter().map(|(key, cell)| match cell {
                    Ok(o) => serde_json::json!({
                        "platform": key,
                        "assembly": o.phases.assembly,
                        "precond": o.phases.precond,
                        "solve": o.phases.solve,
                        "total": o.phases.total,
                        "cost": o.cost_per_iteration,
                    }),
                    Err(e) => serde_json::json!({
                        "platform": key,
                        "infeasible": e.to_string(),
                    }),
                }).collect::<Vec<_>>(),
            })
        }).collect::<Vec<_>>(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{fig4, table1, table2, ScenarioOptions};

    fn tiny_opts() -> ScenarioOptions {
        ScenarioOptions {
            max_k: 2,
            steps: 2,
            discard: 0,
            fidelity: crate::run::Fidelity::Modeled,
            ..ScenarioOptions::paper()
        }
    }

    #[test]
    fn weak_scaling_render_contains_platforms_and_ranks() {
        let t = fig4(&tiny_opts());
        let text = render_weak_scaling(&t);
        for key in ["puma", "ellipse", "lagrange", "ec2"] {
            assert!(text.contains(key), "missing {key}");
        }
        assert!(text.contains("     8 |"));
    }

    #[test]
    fn csv_has_a_row_per_cell() {
        let t = fig4(&tiny_opts());
        let csv = weak_scaling_csv(&t);
        // Header + 2 rank rows x 4 platforms.
        assert_eq!(csv.lines().count(), 1 + 8);
        assert!(csv.starts_with("app,ranks,platform"));
    }

    #[test]
    fn table2_render_matches_shape() {
        let rows = table2(&tiny_opts());
        let text = render_table2(&rows);
        assert!(text.contains("est. cost"));
        assert!(text.lines().count() >= rows.len() + 3);
    }

    #[test]
    fn table1_render_includes_effort_totals() {
        let text = render_table1(&table1());
        assert!(text.contains("cpu arch."));
        assert!(text.contains("Effort totals"));
        assert!(text.contains("puma = 0.0"));
    }

    #[test]
    fn table3_render_stars_the_sweet_spot() {
        use crate::scenarios::{table3, ResilienceOptions};
        let opts = ResilienceOptions::smoke();
        let rows = table3(&opts);
        let text = render_table3(&rows);
        assert!(text.contains("on-demand"));
        assert!(text.contains("no ckpt"));
        assert!(text.contains('*'), "no cadence starred:\n{text}");
        let v = table3_json(&rows);
        assert_eq!(v["rows"].as_array().unwrap().len(), rows.len());
        assert!(v["rows"][0]["best_cadence"].as_u64().is_some());
    }

    #[test]
    fn phase_rollup_renders_for_traced_runs_only() {
        use crate::run::{execute, RunRequest};
        use hetero_trace::TraceSpec;
        let plain = RunRequest {
            discard: 1,
            ..RunRequest::new(catalog::ec2(), crate::apps::App::paper_rd(3), 64, 8)
        };
        let traced = RunRequest {
            trace: Some(TraceSpec::phases()),
            ..plain.clone()
        };
        let out = execute(&plain).unwrap();
        assert!(outcome_phase_rollup(&out, plain.discard).is_none());
        let out = execute(&traced).unwrap();
        let table = outcome_phase_rollup(&out, traced.discard).expect("traced run has spans");
        for needle in ["assembly", "precond", "solve", "other", "total", "100.0%"] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
        assert!(table.contains("2 iterations, first 1 discarded"));
    }

    #[test]
    fn json_roundtrip_has_rows() {
        let t = fig4(&tiny_opts());
        let v = weak_scaling_json(&t);
        assert_eq!(v["rows"].as_array().unwrap().len(), 2);
        assert_eq!(v["app"], "RD");
    }
}
