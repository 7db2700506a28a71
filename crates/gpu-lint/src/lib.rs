//! # gpu-lint — static hazard analysis for the simulated GPU stack
//!
//! A multi-pass analyzer over the artifact families the workspace
//! produces, each read in its producer's own type:
//!
//! * **Device traces** ([`gpu_sim::TraceEvent`] lists) — the
//!   buffer-lifetime pass (`buffer::lint_buffers`, rules `GL0xx`).
//! * **Compiled Programs** ([`arrayfire_sim::ProgramSpec`]) — the
//!   stack-machine verifier (`program::lint_program`, `GL2xx`).
//! * **Compiled physical query plans** (a [`PhysView`] of a
//!   [`proto_core::physical::PhysicalPlan`]) — the slot-lifetime /
//!   operand-shape checker (`physplan::lint_physical_plan`, `GL4xx`).
//! * **Cost reports** ([`proto_core::costing::CostReport`] against a
//!   declared budget and a [`gpu_sim::DeviceSpec`]) — the
//!   resource-budget checker (`costing::lint_costed_plan`, `GL6xx`).
//! * **Planner rewrite traces** ([`proto_core::optimizer::PassTrace`]
//!   with rewrite certificates, plus the compiled plan's [`PhysView`]) —
//!   the translation validator (`translate::validate_translation`,
//!   `GL7xx`), proving each logical→physical rewrite semantically
//!   equivalent.
//!
//! Every lifetime rule — trace buffers and plan slots, output downloads
//! included — feeds one def / use / free walk (`liveness::Liveness`).
//! The three plan families read the same compiled plan, so a caller
//! lints each plan once against all of them. Every pass is a pure function from artifact
//! to [`Diagnostic`]s that never mutates what it observes.
//! [`lint_trace`] bundles the trace pass into a [`Report`];
//! [`annotated_timeline`] renders a trace with rule-id annotations on the
//! implicated events.
//!
//! Severities are fixed per rule: errors are
//! hazards that mean corruption or deadlock on real hardware;
//! warnings are defined-but-wasteful (dead transfers, leaks at
//! teardown, dead subexpressions). The CI gate fails on errors only.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo
    )
)]

mod buffer;
mod costing;
mod diag;
mod liveness;
mod physplan;
mod program;
mod translate;

pub use diag::{Diagnostic, Report, Rule, Severity, Waiver};
pub use physplan::{phys_view, PhysView};

use proto_core::costing::CostReport;
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

/// Check a compiled physical query plan and bundle the findings.
pub fn lint_physical_plan(target: impl Into<String>, view: &PhysView) -> Report {
    Report::new(target, physplan::lint_physical_plan(view))
}

/// Check a cost report's peak-memory estimate against the declared
/// memory budget in bytes (if any) and the device, and bundle the
/// findings.
pub fn lint_costed_plan(
    target: impl Into<String>,
    report: &CostReport,
    budget: Option<u64>,
    spec: &gpu_sim::DeviceSpec,
) -> Report {
    Report::new(target, costing::lint_costed_plan(report, budget, spec))
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
