//! The studied TPC-H queries, expressed as logical plans.
//!
//! A query is declared exactly once, as the
//! [`proto_core::logical::LogicalPlan`] its `logical_plan()` builds —
//! the IR every query in this repository is planned from (the
//! single-table [`proto_core::plan::AggQuery`] front-end compiles to the
//! same IR). Each query module adds a host `reference` implementation
//! (the ground truth) and a [`Query`] impl: the name the planner
//! compiles it under, its answer type and how a [`PlanOutput`] decodes
//! into that answer.
//!
//! Everything else is shared, in [`QueryData`]: it uploads, binds and
//! frees exactly the base columns the plan's scans declare (columns a
//! warmed system would already hold — the paper measures query
//! execution, not cold PCIe transfers) and runs the plan
//! [`proto_core::optimizer::plan`] compiles over
//! [`proto_core::backend::GpuBackend`] calls only — plainly, through a
//! fallback chain or over partitions of `lineitem` — so the same plan
//! runs on every library and the handwritten baseline.
//! `tests/query_digests.rs` pins each query's execution on each backend
//! (answer bits, launches, simulated time, live buffers, trace digest)
//! in a committed golden.

pub mod q1;
pub mod q14;
pub mod q3;
pub mod q4;
pub mod q5;
pub mod q6;
mod working_set;

pub use working_set::QueryData;

use crate::schema::Database;
use gpu_sim::Result;
use proto_core::backend::{ColType, GpuBackend};
use proto_core::logical::LogicalPlan;
use proto_core::optimizer;
use proto_core::physical::{PhysicalPlan, PlanOutput};

/// A query module's `logical_plan` builder.
pub type LogicalPlanFn = fn() -> LogicalPlan;

/// The six studied queries: the name [`proto_core::optimizer::plan`]
/// compiles each under, and its `logical_plan` builder.
pub const LOGICAL_PLANS: [(&str, LogicalPlanFn); 6] = [
    (q1::Q1::NAME, q1::Q1::LOGICAL_PLAN),
    (q3::Q3::NAME, q3::Q3::LOGICAL_PLAN),
    (q4::Q4::NAME, q4::Q4::LOGICAL_PLAN),
    (q5::Q5::NAME, q5::Q5::LOGICAL_PLAN),
    (q6::Q6::NAME, q6::Q6::LOGICAL_PLAN),
    (q14::Q14::NAME, q14::Q14::LOGICAL_PLAN),
];

/// What one studied query adds to the shared [`QueryData`] driver.
pub trait Query {
    /// The name [`proto_core::optimizer::plan`] compiles the query under.
    const NAME: &'static str;
    /// The query module's `logical_plan` builder.
    const LOGICAL_PLAN: LogicalPlanFn;
    /// The query module's host `reference` implementation.
    const REFERENCE: fn(&Database) -> Self::Answer;
    /// The decoded result.
    type Answer;
    /// Host data decoding reads besides the plan's output, captured at
    /// upload: Q3's order attributes, `()` elsewhere.
    type Host: Default;

    /// Decode an executed plan's output.
    fn decode(out: &PlanOutput, host: &Self::Host) -> Result<Self::Answer>;

    /// Whether `got` is `want` up to summation order: keys and counts
    /// exactly, sums to [`close`].
    fn matches(got: &Self::Answer, want: &Self::Answer) -> bool;

    /// Capture [`Query::Host`] from `db`.
    fn host(_db: &Database) -> Self::Host {
        Self::Host::default()
    }

    /// The base columns [`QueryData::upload`] sends, in order: the plan's
    /// scan columns. Allocation order is observable (buffer ids in
    /// traces, pool state), so a load order older than the plan stays.
    fn upload_columns() -> Vec<(String, ColType)> {
        (Self::LOGICAL_PLAN)().scan_columns()
    }

    /// Compile the query for `backend`.
    fn physical_plan(backend: &dyn GpuBackend) -> Result<PhysicalPlan> {
        optimizer::plan(Self::NAME, &(Self::LOGICAL_PLAN)(), backend)
    }
}

/// Whether the backend can run join-bearing queries: the planner finds a
/// join algorithm it supports ([`proto_core::optimizer::best_join`];
/// ArrayFire has none, per Table II).
pub fn can_join(backend: &dyn GpuBackend) -> bool {
    optimizer::best_join(backend).is_some()
}

/// Relative-error float comparison for query results (library pipelines
/// sum in different orders).
pub fn close(a: f64, b: f64) -> bool {
    let denom = a.abs().max(b.abs()).max(1e-9);
    ((a - b) / denom).abs() < 1e-9
}

/// Whether two result lists have the same length and agree row by row.
fn rows_match<T>(got: &[T], want: &[T], row: impl Fn(&T, &T) -> bool) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| row(g, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use proto_core::ops::JoinAlgo;
    use proto_core::prelude::*;

    #[test]
    fn best_join_prefers_hash_then_degrades() {
        let hw = HandwrittenBackend::new(&Device::with_defaults());
        assert_eq!(optimizer::best_join(&hw), Some(JoinAlgo::Hash));
        let th = ThrustBackend::new(&Device::with_defaults());
        assert_eq!(optimizer::best_join(&th), Some(JoinAlgo::NestedLoops));
        let af = ArrayFireBackend::new(&Device::with_defaults());
        assert_eq!(optimizer::best_join(&af), None);
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
