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
use crate::queries::{close, LogicalPlanFn, Query, QueryData};
use crate::schema::Database;
use gpu_sim::Result;
use proto_core::backend::GpuBackend;
use proto_core::logical::{AggExpr, ColumnDecl, Expr, LogicalPlan, Predicate};
use proto_core::ops::CmpOp;
use proto_core::physical::{PhysicalPlan, PlanOutput};

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
    Q6::physical_plan(backend)
}

/// Q6 for [`QueryData`]: the revenue aggregate.
#[derive(Debug)]
pub struct Q6;

/// Device-resident Q6 working set.
pub type Q6Data = QueryData<Q6>;

impl Query for Q6 {
    const NAME: &'static str = "Q6";
    const LOGICAL_PLAN: LogicalPlanFn = logical_plan;
    const REFERENCE: fn(&Database) -> f64 = reference;
    type Answer = f64;
    type Host = ();

    fn decode(out: &PlanOutput, _: &()) -> Result<f64> {
        out.scalar("revenue")
    }

    fn matches(got: &f64, want: &f64) -> bool {
        close(*got, *want)
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
mod tests {
    use super::*;
    use crate::gen::generate;
    use gpu_sim::DeviceSpec;
    use proto_core::prelude::*;

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
