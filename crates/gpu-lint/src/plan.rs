//! Plan-graph pass: structural invariants of a scheduler dependency
//! graph before it runs.
//!
//! The input is the crate's own [`PlanTask`] shape (task id, optional
//! lane tag, explicit predecessor ids) so the analyzer does not depend
//! on any particular scheduler; `bench`'s `sched::PlanSpec` converts
//! losslessly. Checks: dependency cycles (GL301) — a cyclic plan
//! deadlocks a topological executor; the lane-ordering invariant
//! (GL302) — two tasks tagged with the same lane must be chained by
//! dependency edges, in id order, or a parallel run mutates shared lane
//! state concurrently; and edges naming task ids the plan does not
//! contain (GL303) — a task waiting on a ghost never becomes ready.
//!
//! Diagnostic spans hold *task ids*, not trace-event indices.

use crate::diag::{Diagnostic, Rule};
use std::collections::{HashMap, HashSet};

/// One schedulable task, as the plan checker sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanTask {
    /// The task's id (unique within the plan).
    pub id: usize,
    /// Serial-lane tag: tasks sharing a tag mutate shared state and
    /// must be dependency-ordered.
    pub lane: Option<String>,
    /// Ids of tasks that must complete first.
    pub after: Vec<usize>,
}

/// Run every plan-graph check over `tasks`.
pub(crate) fn lint_plan(tasks: &[PlanTask]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let by_id: HashMap<usize, &PlanTask> = tasks.iter().map(|t| (t.id, t)).collect();

    // GL303 first: later passes walk only edges that resolve.
    for t in tasks {
        for &dep in &t.after {
            if !by_id.contains_key(&dep) {
                diags.push(Diagnostic::new(
                    Rule::OrphanDependency,
                    vec![t.id, dep],
                    format!(
                        "task {} depends on task {dep}, which the plan does not contain",
                        t.id
                    ),
                ));
            }
        }
    }

    // GL301: iterative DFS with colors; report one representative cycle.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: HashMap<usize, Color> = tasks.iter().map(|t| (t.id, Color::White)).collect();
    let mut cycle: Option<Vec<usize>> = None;
    for start in tasks {
        if color[&start.id] != Color::White || cycle.is_some() {
            continue;
        }
        // Stack of (task, next-edge cursor); `path` mirrors the grey chain.
        let mut stack: Vec<(usize, usize)> = vec![(start.id, 0)];
        let mut path: Vec<usize> = vec![start.id];
        color.insert(start.id, Color::Grey);
        while let Some(&mut (id, ref mut cursor)) = stack.last_mut() {
            let deps = &by_id[&id].after;
            let next = (*cursor..deps.len()).find(|&j| by_id.contains_key(&deps[j]));
            match next {
                Some(j) => {
                    let dep = deps[j];
                    *cursor = j + 1;
                    match color[&dep] {
                        Color::Grey => {
                            let from = path.iter().position(|&p| p == dep).unwrap_or(0);
                            cycle = Some(path[from..].to_vec());
                            break;
                        }
                        Color::White => {
                            color.insert(dep, Color::Grey);
                            stack.push((dep, 0));
                            path.push(dep);
                        }
                        Color::Black => {}
                    }
                }
                None => {
                    color.insert(id, Color::Black);
                    stack.pop();
                    path.pop();
                }
            }
        }
    }
    if let Some(mut nodes) = cycle {
        nodes.sort_unstable();
        diags.push(Diagnostic::new(
            Rule::PlanCycle,
            nodes.clone(),
            format!(
                "dependency cycle through task(s) {}",
                nodes
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ));
        // Lane analysis below assumes an acyclic reachability relation.
        return diags;
    }

    // GL302: within each lane, every task must (transitively) depend on
    // the lane's previous task in id order.
    let mut lanes: HashMap<&str, Vec<usize>> = HashMap::new();
    for t in tasks {
        if let Some(lane) = &t.lane {
            lanes.entry(lane.as_str()).or_default().push(t.id);
        }
    }
    let reaches = |from: usize, target: usize| -> bool {
        let mut seen: HashSet<usize> = HashSet::new();
        let mut work = vec![from];
        while let Some(id) = work.pop() {
            if id == target {
                return true;
            }
            if let Some(t) = by_id.get(&id) {
                for &dep in &t.after {
                    if seen.insert(dep) {
                        work.push(dep);
                    }
                }
            }
        }
        false
    };
    let mut lane_names: Vec<&str> = lanes.keys().copied().collect();
    lane_names.sort_unstable();
    for name in lane_names {
        let mut ids = lanes[name].clone();
        ids.sort_unstable();
        for pair in ids.windows(2) {
            if !reaches(pair[1], pair[0]) {
                diags.push(Diagnostic::new(
                    Rule::LaneOrderViolation,
                    vec![pair[0], pair[1]],
                    format!(
                        "tasks {} and {} share lane {name:?} but no dependency chain orders them",
                        pair[0], pair[1]
                    ),
                ));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: usize, lane: Option<&str>, after: &[usize]) -> PlanTask {
        PlanTask {
            id,
            lane: lane.map(str::to_string),
            after: after.to_vec(),
        }
    }

    fn rules(tasks: &[PlanTask]) -> Vec<&'static str> {
        lint_plan(tasks).iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn chained_lanes_and_free_tasks_are_clean() {
        let plan = vec![
            task(0, Some("E3"), &[]),
            task(1, Some("E3"), &[0]),
            task(2, Some("E3"), &[1]),
            task(3, None, &[]),
            task(4, Some("E4"), &[2]),
        ];
        assert!(rules(&plan).is_empty());
    }

    #[test]
    fn cycle_is_detected_with_member_ids() {
        let plan = vec![
            task(0, None, &[2]),
            task(1, None, &[0]),
            task(2, None, &[1]),
        ];
        let d = lint_plan(&plan);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule.id(), "GL301");
        assert_eq!(d[0].events, vec![0, 1, 2]);
    }

    #[test]
    fn self_dependency_is_a_cycle() {
        let plan = vec![task(0, None, &[0])];
        assert_eq!(rules(&plan), vec!["GL301"]);
    }

    #[test]
    fn unchained_lane_tasks_violate_ordering() {
        let plan = vec![task(0, Some("E3"), &[]), task(1, Some("E3"), &[])];
        let d = lint_plan(&plan);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule.id(), "GL302");
        assert_eq!(d[0].events, vec![0, 1]);
    }

    #[test]
    fn transitive_chains_satisfy_lane_order() {
        // 0 → 5 → 9 with the middle hop in another lane.
        let plan = vec![
            task(0, Some("L"), &[]),
            task(5, None, &[0]),
            task(9, Some("L"), &[5]),
        ];
        assert!(rules(&plan).is_empty());
    }

    #[test]
    fn orphan_dependency_is_reported_and_ignored_for_reachability() {
        let plan = vec![task(0, None, &[7])];
        let d = lint_plan(&plan);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule.id(), "GL303");
        assert_eq!(d[0].events, vec![0, 7]);
    }

    #[test]
    fn real_grid_plan_spec_converts_cleanly() {
        // Smoke the shape a sched::PlanSpec maps into.
        let plan = vec![
            task(0, Some("a"), &[]),
            task(1, Some("a"), &[0]),
            task(2, Some("b"), &[]),
            task(3, Some("b"), &[2]),
            task(4, None, &[1, 3]),
        ];
        assert!(rules(&plan).is_empty());
    }
}
