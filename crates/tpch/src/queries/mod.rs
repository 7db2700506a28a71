//! The studied TPC-H queries, expressed as logical plans.
//!
//! A query is declared exactly once, as the
//! [`proto_core::logical::LogicalPlan`] its `logical_plan()` builds —
//! the IR every query in this repository is planned from (the
//! single-table [`proto_core::plan::AggQuery`] front-end compiles to the
//! same IR). Each query module provides:
//!
//! 1. a **reference** host implementation (ground truth for tests),
//! 2. the **`logical_plan`** builder — what the query *is*, with no
//!    backend calls in sight,
//! 3. a **`QnData`** working set derived from that tree: it uploads,
//!    binds and frees exactly the base columns the plan's scans
//!    declare, looked up by qualified name through [`crate::Database::column`] (columns a
//!    warmed system would already hold — the paper measures
//!    operator/query execution, not cold PCIe transfers),
//! 4. an **execute** step that compiles the logical plan through
//!    [`proto_core::optimizer::plan`] and interprets the resulting
//!    [`proto_core::physical::PhysicalPlan`] over
//!    [`proto_core::backend::GpuBackend`] calls only, so the same plan
//!    runs on every library and the handwritten baseline.
//!
//! The pre-planner hand-rolled lowerings survive as
//! `#[cfg(test)] mod oracle` in each module; every query carries a
//! trace-equality test proving the planned execution issues the exact
//! same backend call sequence.

pub mod q1;
pub mod q14;
pub mod q3;
pub mod q4;
pub mod q5;
pub mod q6;
mod working_set;

pub use working_set::WorkingSet;

use proto_core::backend::GpuBackend;
use proto_core::logical::LogicalPlan;
use proto_core::ops::JoinAlgo;

/// A query module's `logical_plan` builder.
pub type LogicalPlanFn = fn() -> LogicalPlan;

/// The six studied queries: the name [`proto_core::optimizer::plan`]
/// compiles each under, and its `logical_plan` builder.
pub const LOGICAL_PLANS: [(&str, LogicalPlanFn); 6] = [
    ("Q1", q1::logical_plan),
    ("Q3", q3::logical_plan),
    ("Q4", q4::logical_plan),
    ("Q5", q5::logical_plan),
    ("Q6", q6::logical_plan),
    ("Q14", q14::logical_plan),
];

/// Pick the best join algorithm the backend supports: hash beats merge
/// beats nested loops (what a query planner would do). `None` when the
/// backend cannot join at all (ArrayFire, per Table II).
///
/// Delegates to [`proto_core::optimizer::best_join`], the same choice
/// the planner makes when compiling a join.
pub fn best_join(backend: &dyn GpuBackend) -> Option<JoinAlgo> {
    proto_core::optimizer::best_join(backend)
}

/// Whether the backend can run join-bearing queries (Q3/Q4).
pub fn can_join(backend: &dyn GpuBackend) -> bool {
    best_join(backend).is_some()
}

/// Relative-error float comparison for query results (library pipelines
/// sum in different orders).
pub fn close(a: f64, b: f64) -> bool {
    let denom = a.abs().max(b.abs()).max(1e-9);
    ((a - b) / denom).abs() < 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use proto_core::prelude::*;

    #[test]
    fn best_join_prefers_hash_then_degrades() {
        let hw = HandwrittenBackend::new(&Device::with_defaults());
        assert_eq!(best_join(&hw), Some(JoinAlgo::Hash));
        let th = ThrustBackend::new(&Device::with_defaults());
        assert_eq!(best_join(&th), Some(JoinAlgo::NestedLoops));
        let af = ArrayFireBackend::new(&Device::with_defaults());
        assert_eq!(best_join(&af), None);
        assert!(!can_join(&af));
        assert!(can_join(&th));
    }

    #[test]
    fn close_tolerates_reordering_error() {
        assert!(close(1.0, 1.0 + 1e-12));
        assert!(!close(1.0, 1.1));
        assert!(close(0.0, 0.0));
    }
}
