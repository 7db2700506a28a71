//! TPC-H Q6 — the forecasting revenue change query.
//!
//! ```sql
//! SELECT sum(l_extendedprice * l_discount) AS revenue
//! FROM lineitem
//! WHERE l_shipdate >= date '1994-01-01'
//!   AND l_shipdate <  date '1995-01-01'
//!   AND l_discount BETWEEN 0.05 AND 0.07
//!   AND l_quantity < 24;
//! ```
//!
//! Q6 is the canonical selection+product+reduction pipeline: four
//! predicates, one arithmetic projection, one aggregate. The query is
//! declared as a [`LogicalPlan`] and compiled per backend; the planner's
//! fusion pass recognises the filter+product+sum shape and lowers the
//! whole query to one [`GpuBackend::filter_sum_product`] call — the
//! handwritten kernel fuses it into one pass, ArrayFire fuses predicates
//! and product into one JIT kernel plus a reduction, and Thrust /
//! Boost.Compute chain selection → gather → inner_product.

use crate::dates::date;
use crate::queries::working_set::{lineitem_partition_source, WorkingSet};
use crate::schema::Database;
use gpu_sim::Result;
use proto_core::backend::GpuBackend;
use proto_core::logical::{AggExpr, ColumnDecl, LogicalPlan};
use proto_core::ops::CmpOp;
use proto_core::optimizer;
use proto_core::physical::PhysicalPlan;
use proto_core::plan::{Expr, Predicate};
use proto_core::resilient_plan::{PartitionSource, ResilientPlanExecutor};

/// The Q6 query tree: one conjunctive filter over lineitem, one
/// `SUM(extendedprice · discount)` aggregate.
///
/// Discounts are hundredths; the BETWEEN bounds are widened by half a
/// cent to dodge float-representation edges, exactly like the C
/// implementations do.
pub fn logical_plan() -> LogicalPlan {
    LogicalPlan::scan(
        "lineitem",
        vec![
            ColumnDecl::u32("shipdate"),
            ColumnDecl::f64("discount"),
            ColumnDecl::f64("quantity"),
            ColumnDecl::f64("extendedprice"),
        ],
    )
    .filter(Predicate::And(vec![
        Predicate::cmp("lineitem.shipdate", CmpOp::Ge, date(1994, 1, 1) as f64),
        Predicate::cmp("lineitem.shipdate", CmpOp::Lt, date(1995, 1, 1) as f64),
        Predicate::cmp("lineitem.discount", CmpOp::Ge, 0.045),
        Predicate::cmp("lineitem.discount", CmpOp::Le, 0.075),
        Predicate::cmp("lineitem.quantity", CmpOp::Lt, 24.0),
    ]))
    .aggregate(
        None,
        vec![(
            "revenue",
            AggExpr::Sum(Expr::col("lineitem.extendedprice") * Expr::col("lineitem.discount")),
        )],
    )
}

/// Compile Q6 for `backend`.
pub fn physical_plan(backend: &dyn GpuBackend) -> Result<PhysicalPlan> {
    optimizer::plan("Q6", &logical_plan(), backend)
}

/// Device-resident Q6 working set: the four `lineitem` columns
/// [`logical_plan`] scans.
#[derive(Debug)]
pub struct Q6Data {
    pub(crate) cols: WorkingSet,
}

impl Q6Data {
    /// Upload the four touched columns.
    pub fn upload(backend: &dyn GpuBackend, db: &Database) -> Result<Self> {
        let cols = WorkingSet::upload(backend, db, &logical_plan().scan_columns())?;
        Ok(Q6Data { cols })
    }

    /// Execute Q6 through the planner, returning the revenue aggregate.
    pub fn execute(&self, backend: &dyn GpuBackend) -> Result<f64> {
        self.execute_with(backend, &ResilientPlanExecutor::default())
    }

    /// Execute Q6 through `exec`, recovering from transient faults at
    /// plan granularity (see [`proto_core::resilient_plan`]).
    pub fn execute_with(
        &self,
        backend: &dyn GpuBackend,
        exec: &ResilientPlanExecutor,
    ) -> Result<f64> {
        let plan = physical_plan(backend)?;
        exec.execute(backend, &plan, &self.cols.bindings())?
            .scalar("revenue")
    }

    /// Execute Q6 through a backend fallback chain: if `backend`
    /// cannot complete the plan, `spare` (a second backend with its own
    /// uploaded working set) replays it, carrying forward every
    /// host-resident checkpoint when the lowered step lists agree.
    pub fn execute_with_fallback(
        &self,
        backend: &dyn GpuBackend,
        spare: (&Q6Data, &dyn GpuBackend),
        exec: &ResilientPlanExecutor,
    ) -> Result<f64> {
        let lanes = [(&self.cols, backend), (&spare.0.cols, spare.1)];
        WorkingSet::execute_with_fallback(lanes, physical_plan, exec)?.scalar("revenue")
    }

    /// Execute Q6 over horizontal partitions of `lineitem`: `exec`
    /// partitions up front when a memory budget is configured, or as
    /// the OOM escalation path otherwise.
    pub fn execute_partitioned(
        &self,
        backend: &dyn GpuBackend,
        exec: &ResilientPlanExecutor,
        db: &Database,
    ) -> Result<f64> {
        let plan = physical_plan(backend)?;
        let src = Self::partition_source(db);
        exec.execute_partitionable(backend, &plan, &self.cols.bindings(), &src)?
            .scalar("revenue")
    }

    /// The host-side `lineitem` columns Q6 can be horizontally
    /// partitioned over.
    pub fn partition_source(db: &Database) -> PartitionSource<'_> {
        lineitem_partition_source(db, &logical_plan())
    }

    /// Free the working set.
    pub fn free(self, backend: &dyn GpuBackend) -> Result<()> {
        self.cols.free(backend)
    }
}

/// Host reference implementation (ground truth).
pub fn reference(db: &Database) -> f64 {
    let li = &db.lineitem;
    let (lo, hi) = (date(1994, 1, 1), date(1995, 1, 1));
    let mut revenue = 0.0;
    for i in 0..li.len() {
        if li.shipdate[i] >= lo
            && li.shipdate[i] < hi
            && li.discount[i] >= 0.045
            && li.discount[i] <= 0.075
            && li.quantity[i] < 24.0
        {
            revenue += li.extendedprice[i] * li.discount[i];
        }
    }
    revenue
}

#[cfg(test)]
mod oracle {
    //! The pre-planner hand-rolled lowering, kept verbatim as the
    //! equivalence oracle for the planned execution.

    use super::*;
    use proto_core::backend::Pred;

    pub fn execute(data: &Q6Data, backend: &dyn GpuBackend) -> Result<f64> {
        let col = |name: &str| data.cols.col(name);
        let preds = [
            Pred {
                col: col("lineitem.shipdate"),
                cmp: CmpOp::Ge,
                lit: date(1994, 1, 1) as f64,
            },
            Pred {
                col: col("lineitem.shipdate"),
                cmp: CmpOp::Lt,
                lit: date(1995, 1, 1) as f64,
            },
            Pred {
                col: col("lineitem.discount"),
                cmp: CmpOp::Ge,
                lit: 0.045,
            },
            Pred {
                col: col("lineitem.discount"),
                cmp: CmpOp::Le,
                lit: 0.075,
            },
            Pred {
                col: col("lineitem.quantity"),
                cmp: CmpOp::Lt,
                lit: 24.0,
            },
        ];
        backend.filter_sum_product(
            col("lineitem.extendedprice"),
            col("lineitem.discount"),
            &preds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::queries::close;
    use gpu_sim::{Device, DeviceSpec};
    use proto_core::prelude::*;

    #[test]
    fn all_backends_agree_with_the_reference() {
        let db = generate(0.001);
        let expect = reference(&db);
        assert!(expect > 0.0, "query must select something");
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        for b in fw.backends() {
            let data = Q6Data::upload(b.as_ref(), &db).unwrap();
            let got = data.execute(b.as_ref()).unwrap();
            assert!(
                close(got, expect),
                "{}: {got} vs reference {expect}",
                b.name()
            );
            data.free(b.as_ref()).unwrap();
        }
    }

    #[test]
    fn planned_execution_matches_the_handwritten_lowering_exactly() {
        for sf in [0.001, 0.01] {
            let db = generate(sf);
            for name in ["Thrust", "Boost.Compute", "ArrayFire", "Handwritten"] {
                let spec = DeviceSpec::gtx1080();
                let b_old = Framework::single_backend(&spec, name);
                let b_new = Framework::single_backend(&spec, name);
                let d_old = Q6Data::upload(b_old.as_ref(), &db).unwrap();
                let d_new = Q6Data::upload(b_new.as_ref(), &db).unwrap();
                b_old.device().set_tracing(true);
                b_new.device().set_tracing(true);
                let expect = oracle::execute(&d_old, b_old.as_ref()).unwrap();
                let got = d_new.execute(b_new.as_ref()).unwrap();
                assert_eq!(got.to_bits(), expect.to_bits(), "{name} @ sf {sf}");
                assert_eq!(
                    b_new.device().take_trace(),
                    b_old.device().take_trace(),
                    "{name} @ sf {sf}: planned trace deviates from the hand-rolled one"
                );
            }
        }
    }

    #[test]
    fn the_planner_fuses_q6_on_every_backend() {
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        for b in fw.backends() {
            let plan = physical_plan(b.as_ref()).unwrap();
            assert_eq!(plan.steps().len(), 1, "{}:\n{}", b.name(), plan.explain());
            assert!(plan.explain().contains("fast paths: on"));
        }
    }

    #[test]
    fn handwritten_runs_q6_in_one_kernel() {
        let db = generate(0.001);
        let dev = Device::with_defaults();
        let b = HandwrittenBackend::new(&dev);
        let data = Q6Data::upload(&b, &db).unwrap();
        dev.reset_stats();
        data.execute(&b).unwrap();
        assert_eq!(dev.stats().total_launches(), 1);
    }

    #[test]
    fn handwritten_is_fastest_library_chain_slowest() {
        let db = generate(0.001);
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        let mut times = std::collections::HashMap::new();
        for b in fw.backends() {
            let data = Q6Data::upload(b.as_ref(), &db).unwrap();
            // Warm-up (JIT, pools), then measure.
            data.execute(b.as_ref()).unwrap();
            let dev = b.device();
            let (_, t) = dev.time(|| data.execute(b.as_ref()).unwrap());
            times.insert(b.name().to_string(), t.as_nanos());
        }
        assert!(
            times["Handwritten"] < times["Thrust"],
            "fused kernel beats the Thrust chain: {times:?}"
        );
        assert!(times["Handwritten"] < times["Boost.Compute"], "{times:?}");
        assert!(
            times["ArrayFire"] < times["Boost.Compute"],
            "fusion beats the OpenCL chain at small sizes: {times:?}"
        );
    }
}
