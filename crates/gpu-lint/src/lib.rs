//! # gpu-lint — static hazard analysis for the simulated GPU stack
//!
//! A multi-pass analyzer over the artifact families the workspace
//! produces:
//!
//! * **Device traces** ([`gpu_sim::TraceEvent`] lists) — the
//!   buffer-lifetime pass (`buffer::lint_buffers`, rules `GL0xx`).
//! * **Compiled Programs** ([`arrayfire_sim::ProgramSpec`]) — the
//!   stack-machine verifier (`program::lint_program`, `GL2xx`).
//! * **Scheduler plans** ([`PlanTask`] graphs) — the plan checker
//!   (`plan::lint_plan`, `GL3xx`).
//! * **Compiled physical query plans** ([`PlanStep`] lists) —
//!   the slot-lifetime/operand-shape checker
//!   (`physplan::lint_physical_plan`, `GL4xx`).
//! * **Recovery timelines** ([`RecoveryTimeline`] from the
//!   resilient plan executor) — the recovery-lifecycle checker
//!   (`resilience::lint_recovery`, `GL5xx`).
//! * **Costed-plan estimates** ([`CostedPlan`] summaries of
//!   the planner's cost reports) — the resource-budget checker
//!   (`costing::lint_costed_plan`, `GL6xx`).
//! * **Planner rewrite traces** ([`proto_core::optimizer::PassTrace`]
//!   with rewrite certificates, plus the compiled plan) — the
//!   translation validator (`translate::validate_translation`,
//!   `GL7xx`), proving each logical→physical rewrite semantically
//!   equivalent.
//!
//! Every pass is a pure function from artifact to [`Diagnostic`]s; the
//! analyzer never mutates what it observes, so linting a trace can
//! never change an experiment's measurements. [`lint_trace`] bundles the
//! trace pass into a [`Report`]; [`annotated_timeline`] renders a trace
//! with rule-id annotations on the implicated events.
//!
//! Severities are fixed per rule: errors are
//! hazards that mean corruption or deadlock on real hardware;
//! warnings are defined-but-wasteful (dead transfers, leaks at
//! teardown, dead subexpressions). The CI gate fails on errors only.

#![warn(missing_docs)]

mod buffer;
mod costing;
mod diag;
mod physplan;
mod plan;
mod program;
mod resilience;
mod translate;

pub use costing::CostedPlan;
pub use diag::{Diagnostic, Report, Rule, Severity, Waiver};
pub use physplan::{PlanColumn, PlanDtype, PlanStep, PlanUse};
pub use plan::PlanTask;
pub use resilience::{RecoveryEvent, RecoveryEventKind, RecoveryTimeline};
pub use translate::{phys_view, PhysView};

use std::collections::BTreeMap;

/// Run the trace pass (buffer lifetimes) over one trace window and
/// bundle the findings for `target`.
pub fn lint_trace(target: impl Into<String>, events: &[gpu_sim::TraceEvent]) -> Report {
    Report::new(target, buffer::lint_buffers(events))
}

/// Verify a compiled program spec and bundle the findings.
pub fn lint_program(target: impl Into<String>, spec: &arrayfire_sim::ProgramSpec) -> Report {
    Report::new(target, program::lint_program(spec))
}

/// Check a plan graph and bundle the findings.
pub fn lint_plan(target: impl Into<String>, tasks: &[PlanTask]) -> Report {
    Report::new(target, plan::lint_plan(tasks))
}

/// Check a compiled physical query plan and bundle the findings.
pub fn lint_physical_plan(
    target: impl Into<String>,
    inputs: &[PlanColumn],
    steps: &[PlanStep],
) -> Report {
    Report::new(target, physplan::lint_physical_plan(inputs, steps))
}

/// Check a recovery timeline and bundle the findings.
pub fn lint_recovery(target: impl Into<String>, timeline: &RecoveryTimeline) -> Report {
    Report::new(target, resilience::lint_recovery(timeline))
}

/// Check a costed plan's resource estimates and bundle the findings.
pub fn lint_costed_plan(target: impl Into<String>, plan: &CostedPlan) -> Report {
    Report::new(target, costing::lint_costed_plan(plan))
}

/// Validate a planner rewrite trace against the compiled plan and
/// bundle the findings (the GL7xx translation-validation family).
pub fn lint_translation(
    target: impl Into<String>,
    traces: &[proto_core::optimizer::PassTrace],
    view: &PhysView,
) -> Report {
    Report::new(target, translate::validate_translation(traces, view))
}

/// Render `events` as a timeline with each diagnostic's rule id
/// annotated on the trace events it implicates.
pub fn annotated_timeline(events: &[gpu_sim::TraceEvent], diagnostics: &[Diagnostic]) -> String {
    let mut notes: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for d in diagnostics {
        for &i in &d.events {
            if i < events.len() {
                let tags = notes.entry(i).or_default();
                let id = d.rule.id().to_string();
                if !tags.contains(&id) {
                    tags.push(id);
                }
            }
        }
    }
    gpu_sim::render_timeline_annotated(events, &notes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{BufferId, TraceEvent, TraceKind};

    #[test]
    fn annotated_timeline_tags_implicated_events() {
        let t = vec![
            TraceEvent::new(
                0,
                10,
                TraceKind::Alloc {
                    bytes: 64,
                    buf: BufferId(1),
                    init: true,
                },
            ),
            TraceEvent::new(10, 10, TraceKind::Free { buf: BufferId(1) }),
            TraceEvent::new(10, 10, TraceKind::Free { buf: BufferId(1) }),
        ];
        let r = lint_trace("t", &t);
        assert_eq!(r.errors(), 1, "{:?}", r.diagnostics);
        let text = annotated_timeline(&t, &r.diagnostics);
        assert!(text.contains("GL002"), "{text}");
    }
}
