//! Sweep expansion and DAG resolution.
//!
//! The resolver turns a [`Plan`] into a [`ResolvedPlan`]: every stage's
//! sweep axes are expanded into their cartesian product (one *instance*
//! per point, first declared axis outermost), `needs` edges are validated
//! and instantiated by matching on shared axes, and the instance graph is
//! ordered by a deterministic Kahn topological sort (ready set popped in
//! ascending instance index, so the order is a pure function of the plan —
//! independent of executor worker count).
//!
//! Cycles are reported with a stable, rank-ordered error: the cycle is
//! rotated so it starts at the stage declared earliest, e.g.
//! `dependency cycle: a -> b -> a`. A self-dependency reads
//! `stage `a` depends on itself`.

use crate::schema::{Axis, Coord, Plan, StageDef};
use crate::toml::{Span, TomlError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn err<T>(span: Span, msg: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError {
        span,
        msg: msg.into(),
    })
}

/// One executable instance of a stage: a point in its sweep.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Index of the defining stage in `plan.stages`.
    pub stage: usize,
    /// Axis coordinates, in the stage's axis declaration order.
    pub coords: Vec<(Axis, Coord)>,
    /// Instance indices this one depends on, ascending.
    pub deps: Vec<usize>,
    /// Stable display id, e.g. `run[ranks=8,platform=ec2]`.
    pub id: String,
}

impl Instance {
    /// The coordinate on `axis`, if the instance has one.
    pub fn coord(&self, axis: Axis) -> Option<&Coord> {
        self.coords.iter().find(|(a, _)| *a == axis).map(|(_, c)| c)
    }
}

/// A plan resolved into an executable DAG.
#[derive(Debug, Clone)]
pub struct ResolvedPlan {
    /// The source plan.
    pub plan: Plan,
    /// All stage instances; indices are stable (stages in declaration
    /// order, sweep points row-major with the first axis outermost).
    pub instances: Vec<Instance>,
    /// Deterministic topological order over `instances`.
    pub topo: Vec<usize>,
}

/// Resolves a plan: validates references, expands sweeps, builds the DAG.
pub fn resolve(plan: Plan) -> Result<ResolvedPlan, TomlError> {
    // Stage names must be unique; needs must reference known stages and
    // must not repeat.
    for (i, s) in plan.stages.iter().enumerate() {
        if plan.stages[..i].iter().any(|p| p.name == s.name) {
            return err(s.span, format!("stage `{}` defined twice", s.name));
        }
    }
    for s in &plan.stages {
        for (j, (need, span)) in s.needs.iter().enumerate() {
            if !plan.stages.iter().any(|p| p.name == *need) {
                return err(
                    *span,
                    format!("unknown stage `{need}` in needs of stage `{}`", s.name),
                );
            }
            if s.needs[..j].iter().any(|(p, _)| p == need) {
                return err(
                    *span,
                    format!("duplicate entry `{need}` in needs of stage `{}`", s.name),
                );
            }
        }
    }

    check_cycles(&plan.stages)?;

    // Expand sweeps. Instance indices: stages in declaration order, sweep
    // points row-major (first declared axis outermost).
    let mut instances: Vec<Instance> = Vec::new();
    let mut stage_range: Vec<(usize, usize)> = Vec::new();
    for (si, s) in plan.stages.iter().enumerate() {
        let start = instances.len();
        for coords in cartesian(s) {
            let id = instance_id(&s.name, &coords);
            instances.push(Instance {
                stage: si,
                coords,
                deps: Vec::new(),
                id,
            });
        }
        stage_range.push((start, instances.len()));
    }

    // Instantiate edges: an instance depends on every instance of each
    // needed stage that agrees with it on all axes the two stages share.
    for i in 0..instances.len() {
        let s = &plan.stages[instances[i].stage];
        let mut deps = Vec::new();
        for (need, span) in &s.needs {
            let ti = plan
                .stages
                .iter()
                .position(|p| p.name == *need)
                .expect("validated above");
            let (lo, hi) = stage_range[ti];
            let before = deps.len();
            for j in lo..hi {
                let agree =
                    instances[i]
                        .coords
                        .iter()
                        .all(|(axis, c)| match instances[j].coord(*axis) {
                            Some(dc) => dc == c,
                            None => true,
                        });
                if agree {
                    deps.push(j);
                }
            }
            if deps.len() == before {
                return err(
                    *span,
                    format!(
                        "instance `{}` has no matching instances of needed stage `{need}`",
                        instances[i].id
                    ),
                );
            }
        }
        deps.sort_unstable();
        instances[i].deps = deps;
    }

    // Deterministic Kahn: pop the smallest ready instance index. The
    // stage-level cycle check above already guarantees acyclicity, so
    // this always drains.
    let mut indegree: Vec<usize> = instances.iter().map(|n| n.deps.len()).collect();
    let mut rdeps: Vec<Vec<usize>> = vec![Vec::new(); instances.len()];
    for (i, n) in instances.iter().enumerate() {
        for &d in &n.deps {
            rdeps[d].push(i);
        }
    }
    let mut ready: BinaryHeap<Reverse<usize>> = indegree
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| Reverse(i))
        .collect();
    let mut topo = Vec::with_capacity(instances.len());
    while let Some(Reverse(i)) = ready.pop() {
        topo.push(i);
        for &r in &rdeps[i] {
            indegree[r] -= 1;
            if indegree[r] == 0 {
                ready.push(Reverse(r));
            }
        }
    }
    debug_assert_eq!(topo.len(), instances.len());

    Ok(ResolvedPlan {
        plan,
        instances,
        topo,
    })
}

/// DFS cycle check over the stage-level graph, visiting stages in
/// declaration order so the reported cycle is stable.
fn check_cycles(stages: &[StageDef]) -> Result<(), TomlError> {
    for s in stages {
        if s.needs.iter().any(|(n, _)| *n == s.name) {
            return err(s.span, format!("stage `{}` depends on itself", s.name));
        }
    }
    let index_of = |name: &str| {
        stages
            .iter()
            .position(|s| s.name == name)
            .expect("validated")
    };
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut state = vec![0u8; stages.len()];
    let mut stack: Vec<usize> = Vec::new();
    for start in 0..stages.len() {
        if state[start] != 0 {
            continue;
        }
        // Iterative DFS with an explicit edge cursor.
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        state[start] = 1;
        stack.push(start);
        while let Some(&(node, cursor)) = frames.last() {
            if cursor < stages[node].needs.len() {
                frames.last_mut().expect("non-empty").1 += 1;
                let next = index_of(&stages[node].needs[cursor].0);
                match state[next] {
                    0 => {
                        state[next] = 1;
                        stack.push(next);
                        frames.push((next, 0));
                    }
                    1 => {
                        let pos = stack.iter().position(|&n| n == next).expect("on stack");
                        let mut cycle: Vec<usize> = stack[pos..].to_vec();
                        // Rotate so the earliest-declared stage leads.
                        let lead = cycle
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &n)| n)
                            .map(|(i, _)| i)
                            .expect("non-empty");
                        cycle.rotate_left(lead);
                        let mut names: Vec<&str> =
                            cycle.iter().map(|&n| stages[n].name.as_str()).collect();
                        names.push(stages[cycle[0]].name.as_str());
                        return err(
                            stages[cycle[0]].span,
                            format!("dependency cycle: {}", names.join(" -> ")),
                        );
                    }
                    _ => {}
                }
            } else {
                state[node] = 2;
                stack.pop();
                frames.pop();
            }
        }
    }
    Ok(())
}

/// Cartesian product of a stage's axes, first declared axis outermost.
/// A stage with no axes yields one empty-coordinate instance.
fn cartesian(s: &StageDef) -> Vec<Vec<(Axis, Coord)>> {
    let mut points: Vec<Vec<(Axis, Coord)>> = vec![Vec::new()];
    for axis in &s.sweep {
        let mut next = Vec::with_capacity(points.len() * axis.values.len());
        for p in &points {
            for v in &axis.values {
                let mut q = p.clone();
                q.push((axis.axis, v.clone()));
                next.push(q);
            }
        }
        points = next;
    }
    points
}

fn instance_id(name: &str, coords: &[(Axis, Coord)]) -> String {
    if coords.is_empty() {
        return name.to_string();
    }
    let parts: Vec<String> = coords
        .iter()
        .map(|(a, c)| format!("{}={c}", a.key()))
        .collect();
    format!("{name}[{}]", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::extract;
    use crate::toml::parse;

    fn resolved(doc: &str) -> Result<ResolvedPlan, TomlError> {
        resolve(extract(&parse(doc)?)?)
    }

    /// The instances of the stage named `name`, in sweep order.
    fn instances_of(r: &ResolvedPlan, name: &str) -> Vec<usize> {
        let stage = r.plan.stages.iter().position(|s| s.name == name).unwrap();
        (0..r.instances.len())
            .filter(|&i| r.instances[i].stage == stage)
            .collect()
    }

    const BASE: &str = r#"
[plan]
name = "t"
description = "test"

[[stage]]
name = "part"
kind = "partition"

[stage.sweep]
ranks = [1, 8]

[[stage]]
name = "go"
kind = "run"
app = "rd"
needs = ["part"]

[stage.sweep]
ranks = [1, 8]
platform = ["puma", "ec2"]

[[stage]]
name = "render"
kind = "report"
template = "weak-scaling"
needs = ["go"]
"#;

    #[test]
    fn expansion_count_is_axis_product() {
        let r = resolved(BASE).expect("valid");
        assert_eq!(r.instances.len(), 2 + 2 * 2 + 1);
        assert_eq!(r.topo.len(), r.instances.len());
    }

    #[test]
    fn shared_axis_matching_narrows_deps() {
        let r = resolved(BASE).expect("valid");
        // go[ranks=8,platform=*] depends only on part[ranks=8].
        for &i in &instances_of(&r, "go") {
            let inst = &r.instances[i];
            assert_eq!(inst.deps.len(), 1);
            let dep = &r.instances[inst.deps[0]];
            assert_eq!(dep.coord(Axis::Ranks), inst.coord(Axis::Ranks));
        }
        // The report fans in over every run instance.
        let rep = instances_of(&r, "render")[0];
        assert_eq!(r.instances[rep].deps.len(), 4);
    }

    #[test]
    fn topo_is_deterministic_and_valid() {
        let a = resolved(BASE).expect("valid");
        let b = resolved(BASE).expect("valid");
        assert_eq!(a.topo, b.topo);
        let mut seen = vec![false; a.instances.len()];
        for &i in &a.topo {
            for &d in &a.instances[i].deps {
                assert!(seen[d], "dep {d} of {i} not scheduled first");
            }
            seen[i] = true;
        }
    }

    #[test]
    fn self_dependency_error_is_exact() {
        let doc = BASE.replace("needs = [\"part\"]", "needs = [\"go\"]");
        let e = resolved(&doc).unwrap_err();
        assert_eq!(e.msg, "stage `go` depends on itself");
    }

    #[test]
    fn cycle_error_is_rank_ordered() {
        // part -> render -> go -> part; earliest-declared stage leads.
        let doc = BASE.replace(
            "name = \"part\"\nkind = \"partition\"",
            "name = \"part\"\nkind = \"partition\"\nneeds = [\"render\"]",
        );
        let e = resolved(&doc).unwrap_err();
        assert_eq!(e.msg, "dependency cycle: part -> render -> go -> part");
    }

    #[test]
    fn unknown_need_is_rejected() {
        let doc = BASE.replace("needs = [\"part\"]", "needs = [\"parts\"]");
        let e = resolved(&doc).unwrap_err();
        assert_eq!(e.msg, "unknown stage `parts` in needs of stage `go`");
    }

    #[test]
    fn instance_ids_are_stable() {
        let r = resolved(BASE).expect("valid");
        let ids: Vec<&str> = r.instances.iter().map(|i| i.id.as_str()).collect();
        assert_eq!(ids[0], "part[ranks=1]");
        assert_eq!(ids[2], "go[ranks=1,platform=puma]");
        assert_eq!(ids[6], "render");
    }
}
