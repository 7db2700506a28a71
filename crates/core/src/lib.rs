//! # proto-core — the paper's framework
//!
//! This crate is the primary contribution of *"Analysis of GPU-Libraries
//! for Rapid Prototyping Database Operations"* (ICDE 2021): a framework
//! that maps column-oriented **database operators** onto GPU libraries and
//! custom kernels, so their usefulness (operator support, Table II) and
//! usability (operator & query performance, §IV) can be compared on equal
//! footing.
//!
//! * [`ops`] — the operator vocabulary (Table II rows) and predicate types;
//! * [`backend`] — the [`GpuBackend`](backend::GpuBackend) plug-in trait
//!   and opaque device-column handles;
//! * [`backends`] — adapters for Thrust, Boost.Compute, ArrayFire and the
//!   handwritten baseline;
//! * [`fused`] — the cross-operator fusion IR ([`FusedExpr`](fused::FusedExpr))
//!   and its composed reference realisation;
//! * [`costing`] — symbolic plan pricing against the simulator's own
//!   cost model, powering the cost-based planner;
//! * [`framework`] — the registry + generated support matrix (Table II);
//! * [`survey`] — the 43-library catalogue (Table I);
//! * [`runner`] — deterministic simulated-time measurement;
//! * [`workload`] — seeded data generators for all experiments;
//! * [`logical`] — the backend-free logical query IR;
//! * [`optimizer`] — rewrite passes + the planner lowering logical
//!   plans onto backends;
//! * [`physical`] — compiled [`PhysicalPlan`](physical::PhysicalPlan)s:
//!   inspectable step lists with an interpreter;
//! * [`resilient`] / [`resilient_plan`] — fault recovery at operator and
//!   plan granularity (retry, checkpointing, partitioned re-execution,
//!   fallback chains).
//!
//! ```
//! use proto_core::prelude::*;
//!
//! let fw = Framework::with_all_backends(&gpu_sim::DeviceSpec::gtx1080());
//! // Table II falls out of backend introspection:
//! let table = fw.support_matrix();
//! assert!(table.contains("Hash Join"));
//!
//! // Run a selection on every backend and compare results.
//! for b in fw.backends() {
//!     let col = b.upload_u32(&[5, 2, 9]).unwrap();
//!     let ids = b.selection(&col, CmpOp::Gt, 4.0).unwrap();
//!     assert_eq!(b.download_u32(&ids).unwrap(), vec![0, 2]);
//! }
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod backends;
pub mod costing;
pub mod framework;
pub mod fused;
pub mod logical;
pub mod ops;
pub mod optimizer;
pub mod physical;
pub mod plan;
pub mod resilient;
pub mod resilient_plan;
pub mod runner;
pub mod survey;
pub mod workload;

/// Convenient glob import for examples, tests and benches.
pub mod prelude {
    pub use crate::backend::{Col, ColType, GpuBackend, Pred};
    pub use crate::backends::{ArrayFireBackend, BoostBackend, HandwrittenBackend, ThrustBackend};
    pub use crate::costing::{CostModel, CostReport, StepCost, TableStats};
    pub use crate::framework::Framework;
    pub use crate::fused::{FusedExpr, FusedPred};
    pub use crate::logical::{AggExpr, ColumnDecl, JoinCol, JoinSide, LogicalPlan, ResultOrder};
    pub use crate::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
    pub use crate::optimizer::{CostingOptions, FusionPolicy, PassTrace, PlannerOptions};
    pub use crate::physical::{PhysicalPlan, PlanBindings, PlanOutput, Step};
    pub use crate::plan::{Agg, AggQuery, Bindings, Expr, Predicate, QueryResult};
    pub use crate::resilient::{ResilientBackend, RetryPolicy};
    pub use crate::resilient_plan::{
        PartitionSource, PlanLane, PlanRecovery, ResilientPlanExecutor,
    };
    pub use crate::runner::{measure, Experiment, Sample};
}
