//! TPC-H Q4 — the order priority checking query.
//!
//! ```sql
//! SELECT o_orderpriority, count(*) AS order_count
//! FROM orders
//! WHERE o_orderdate >= date '1993-07-01'
//!   AND o_orderdate <  date '1993-10-01'
//!   AND EXISTS (SELECT * FROM lineitem
//!               WHERE l_orderkey = o_orderkey
//!                 AND l_commitdate < l_receiptdate)
//! GROUP BY o_orderpriority ORDER BY o_orderpriority;
//! ```
//!
//! Q4 adds two twists to the join story: a column-vs-column selection
//! (`l_commitdate < l_receiptdate`) and EXISTS semantics (each qualifying
//! order counts once however many late lines it has), declared as a
//! semi-distinct join in the logical plan and lowered by the planner to
//! join → distinct-by-grouping → regroup by priority.

use crate::dates::date;
use crate::queries::{LogicalPlanFn, Query, QueryData};
use crate::schema::Database;
use gpu_sim::Result;
use proto_core::logical::{AggExpr, ColumnDecl, JoinCol, LogicalPlan, Predicate};
use proto_core::ops::CmpOp;
use proto_core::physical::PlanOutput;

/// One Q4 result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q4Row {
    /// `o_orderpriority` dictionary code.
    pub priority: u32,
    /// Number of qualifying orders.
    pub order_count: u64,
}

/// The Q4 query tree: a semi-distinct join of late lineitems against
/// the 1993-Q3 order window, counted per priority.
pub fn logical_plan() -> LogicalPlan {
    let orders = LogicalPlan::scan(
        "orders",
        vec![
            ColumnDecl::u32("orderdate"),
            ColumnDecl::u32("orderkey"),
            ColumnDecl::u32("orderpriority"),
        ],
    )
    .filter(Predicate::And(vec![
        Predicate::cmp("orders.orderdate", CmpOp::Ge, date(1993, 7, 1) as f64),
        Predicate::cmp("orders.orderdate", CmpOp::Lt, date(1993, 10, 1) as f64),
    ]))
    .project(&["orders.orderkey", "orders.orderpriority"]);
    let lineitem = LogicalPlan::scan(
        "lineitem",
        vec![
            ColumnDecl::u32("orderkey"),
            ColumnDecl::u32("commitdate"),
            ColumnDecl::u32("receiptdate"),
        ],
    )
    .filter(Predicate::col_cmp(
        "lineitem.commitdate",
        CmpOp::Lt,
        "lineitem.receiptdate",
    ))
    .project(&["lineitem.orderkey"]);
    LogicalPlan::semi_join(
        orders,
        lineitem,
        "orders.orderkey",
        "lineitem.orderkey",
        vec![JoinCol::build("prio", "orders.orderpriority")],
    )
    .aggregate(Some("prio"), vec![("order_count", AggExpr::Count)])
}

/// Q4 for [`QueryData`]: order counts by ascending priority code.
#[derive(Debug)]
pub struct Q4;

/// Device-resident Q4 working set.
pub type Q4Data = QueryData<Q4>;

impl Query for Q4 {
    const NAME: &'static str = "Q4";
    const LOGICAL_PLAN: LogicalPlanFn = logical_plan;
    const REFERENCE: fn(&Database) -> Vec<Q4Row> = reference;
    type Answer = Vec<Q4Row>;
    type Host = ();

    fn decode(out: &PlanOutput, _: &()) -> Result<Vec<Q4Row>> {
        let codes = out.u32s("keys")?;
        let counts = out.f64s("order_count")?;
        Ok(codes
            .iter()
            .zip(counts)
            .map(|(&priority, &n)| Q4Row {
                priority,
                order_count: n as u64,
            })
            .collect())
    }

    fn matches(got: &Vec<Q4Row>, want: &Vec<Q4Row>) -> bool {
        got == want
    }
}

/// Host reference implementation.
pub fn reference(db: &Database) -> Vec<Q4Row> {
    let (lo, hi) = (date(1993, 7, 1), date(1993, 10, 1));
    let li = &db.lineitem;
    let late_orders: std::collections::HashSet<u32> = (0..li.len())
        .filter(|&i| li.commitdate[i] < li.receiptdate[i])
        .map(|i| li.orderkey[i])
        .collect();
    let mut counts = std::collections::BTreeMap::new();
    for i in 0..db.orders.len() {
        let d = db.orders.orderdate[i];
        if d >= lo && d < hi && late_orders.contains(&db.orders.orderkey[i]) {
            *counts.entry(db.orders.orderpriority[i]).or_insert(0u64) += 1;
        }
    }
    counts
        .into_iter()
        .map(|(priority, order_count)| Q4Row {
            priority,
            order_count,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::schema::PRIORITIES;

    #[test]
    fn priorities_cover_the_dictionary() {
        let db = generate(0.005);
        let rows = reference(&db);
        assert_eq!(rows.len(), PRIORITIES.len(), "all five priorities occur");
        for r in &rows {
            assert!(!PRIORITIES[r.priority as usize].is_empty());
            assert!(r.order_count > 0);
        }
    }
}
