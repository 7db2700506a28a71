//! TPC-H Q3 — the shipping priority query.
//!
//! ```sql
//! SELECT l_orderkey,
//!        sum(l_extendedprice * (1 - l_discount)) AS revenue,
//!        o_orderdate, o_shippriority
//! FROM customer, orders, lineitem
//! WHERE c_mktsegment = 'BUILDING'
//!   AND c_custkey = o_custkey
//!   AND l_orderkey = o_orderkey
//!   AND o_orderdate < date '1995-03-15'
//!   AND l_shipdate  > date '1995-03-15'
//! GROUP BY l_orderkey, o_orderdate, o_shippriority
//! ORDER BY revenue DESC LIMIT 10;
//! ```
//!
//! Q3 is the join stress test. The logical plan selects on all three
//! tables, joins orders⋈customer then lineitem⋈orders, and
//! group-aggregates the revenue. The planner picks the best join
//! algorithm each backend supports — handwritten uses its hash join,
//! Thrust/Boost fall back to the `for_each_n` nested-loops join (the
//! paper's "tuning potential unused"), and ArrayFire cannot run the
//! query at all.

use crate::dates::date;
use crate::queries::{close, rows_match, LogicalPlanFn, Query, QueryData};
use crate::schema::{segment_code, Column, Database};
use gpu_sim::Result;
use proto_core::logical::{AggExpr, ColumnDecl, Expr, JoinCol, LogicalPlan, Predicate};
use proto_core::ops::CmpOp;
use proto_core::physical::PlanOutput;

/// One Q3 result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Q3Row {
    /// Order key of the group.
    pub orderkey: u32,
    /// Aggregated revenue.
    pub revenue: f64,
    /// `o_orderdate` (day number).
    pub orderdate: u32,
    /// `o_shippriority`.
    pub shippriority: u32,
}

/// The `c_mktsegment` code of the segment Q3 restricts to.
// INVARIANT: "BUILDING" is one of `schema::SEGMENTS`.
#[allow(clippy::expect_used)]
fn building() -> u32 {
    segment_code("BUILDING").expect("BUILDING is a market segment")
}

/// The Q3 query tree: customers filtered to BUILDING feed the orders
/// join, whose output keys feed the lineitem join, grouped by orderkey.
///
/// The final host-side decoration (orderdate/shippriority lookup), sort
/// and LIMIT stay outside the plan — they read the `orders` table on
/// the host, which device plans cannot express.
pub fn logical_plan() -> LogicalPlan {
    let cut = date(1995, 3, 15) as f64;
    let building = building() as f64;
    let customer = LogicalPlan::scan(
        "customer",
        vec![ColumnDecl::u32("mktsegment"), ColumnDecl::u32("custkey")],
    )
    .filter(Predicate::cmp("customer.mktsegment", CmpOp::Eq, building))
    .project(&["customer.custkey"]);
    let orders = LogicalPlan::scan(
        "orders",
        vec![
            ColumnDecl::u32("orderdate"),
            ColumnDecl::u32("custkey"),
            ColumnDecl::u32("orderkey"),
        ],
    )
    .filter(Predicate::cmp("orders.orderdate", CmpOp::Lt, cut))
    .project(&["orders.custkey", "orders.orderkey"]);
    let building_orders = LogicalPlan::join(
        customer,
        orders,
        "customer.custkey",
        "orders.custkey",
        vec![JoinCol::probe("okey", "orders.orderkey")],
    );
    let lineitem = LogicalPlan::scan(
        "lineitem",
        vec![
            ColumnDecl::u32("shipdate"),
            ColumnDecl::u32("orderkey"),
            ColumnDecl::f64("extendedprice"),
            ColumnDecl::f64("discount"),
        ],
    )
    .filter(Predicate::cmp("lineitem.shipdate", CmpOp::Gt, cut))
    .project(&[
        "lineitem.orderkey",
        "lineitem.extendedprice",
        "lineitem.discount",
    ]);
    LogicalPlan::join(
        building_orders,
        lineitem,
        "okey",
        "lineitem.orderkey",
        vec![
            JoinCol::probe("rev_ext", "lineitem.extendedprice"),
            JoinCol::probe("rev_disc", "lineitem.discount"),
            JoinCol::probe("okey2", "lineitem.orderkey"),
        ],
    )
    .aggregate(
        Some("okey2"),
        vec![(
            "revenue",
            AggExpr::Sum(Expr::col("rev_ext") * (Expr::lit(1.0) - Expr::col("rev_disc"))),
        )],
    )
}

/// Q3 for [`QueryData`]: the top 10 rows by revenue.
#[derive(Debug)]
pub struct Q3;

/// Device-resident Q3 working set.
pub type Q3Data = QueryData<Q3>;

impl Query for Q3 {
    const NAME: &'static str = "Q3";
    const LOGICAL_PLAN: LogicalPlanFn = logical_plan;
    const REFERENCE: fn(&Database) -> Vec<Q3Row> = reference;
    type Answer = Vec<Q3Row>;
    /// `o_orderdate` and `o_shippriority`, indexed by `orderkey − 1`:
    /// the database's own columns, shared.
    type Host = (Column<u32>, Column<u32>);

    fn host(db: &Database) -> Self::Host {
        (db.orders.orderdate.clone(), db.orders.shippriority.clone())
    }

    fn decode(out: &PlanOutput, (orderdate, shippriority): &Self::Host) -> Result<Vec<Q3Row>> {
        let groups = out.u32s("keys")?.iter().zip(out.f64s("revenue")?);
        Ok(top10(
            groups.map(|(&k, &r)| (k, r)),
            orderdate,
            shippriority,
        ))
    }

    fn matches(got: &Vec<Q3Row>, want: &Vec<Q3Row>) -> bool {
        rows_match(got, want, |g, w| {
            (g.orderkey, g.orderdate, g.shippriority) == (w.orderkey, w.orderdate, w.shippriority)
                && close(g.revenue, w.revenue)
        })
    }
}

/// Attach `o_orderdate` / `o_shippriority` to the `(orderkey, revenue)`
/// groups (a host-side lookup by dense key) and take `ORDER BY revenue
/// DESC, o_orderdate LIMIT 10` (ties by orderkey). `total_cmp`: a `.tbl`
/// import can carry a NaN price.
fn top10(
    groups: impl Iterator<Item = (u32, f64)>,
    orderdate: &[u32],
    shippriority: &[u32],
) -> Vec<Q3Row> {
    let mut rows: Vec<Q3Row> = groups
        .map(|(orderkey, revenue)| {
            let row = (orderkey - 1) as usize;
            Q3Row {
                orderkey,
                revenue,
                orderdate: orderdate[row],
                shippriority: shippriority[row],
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.revenue
            .total_cmp(&a.revenue)
            .then(a.orderdate.cmp(&b.orderdate))
            .then(a.orderkey.cmp(&b.orderkey))
    });
    rows.truncate(10);
    rows
}

/// Host reference implementation.
pub fn reference(db: &Database) -> Vec<Q3Row> {
    let cut = date(1995, 3, 15);
    let building = building();
    let building_cust: std::collections::HashSet<u32> = db
        .customer
        .custkey
        .iter()
        .zip(&db.customer.mktsegment)
        .filter(|(_, &seg)| seg == building)
        .map(|(&k, _)| k)
        .collect();
    let mut order_ok: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for i in 0..db.orders.len() {
        if db.orders.orderdate[i] < cut && building_cust.contains(&db.orders.custkey[i]) {
            order_ok.insert(db.orders.orderkey[i]);
        }
    }
    let mut rev: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    let li = &db.lineitem;
    for i in 0..li.len() {
        if li.shipdate[i] > cut && order_ok.contains(&li.orderkey[i]) {
            *rev.entry(li.orderkey[i]).or_default() += li.extendedprice[i] * (1.0 - li.discount[i]);
        }
    }
    let o = &db.orders;
    top10(rev.into_iter(), &o.orderdate, &o.shippriority)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use gpu_sim::DeviceSpec;
    use proto_core::prelude::*;

    #[test]
    fn a_nan_price_orders_first_instead_of_panicking() {
        let mut db = generate(0.002);
        // Poison one line of the reference's top order (what
        // `tbl::import` produces for an `extendedprice` of "NaN").
        let top = reference(&db)[0].orderkey;
        let cut = date(1995, 3, 15);
        let li = &mut db.lineitem;
        let line = (0..li.len())
            .find(|&i| li.orderkey[i] == top && li.shipdate[i] > cut)
            .expect("the top order has a qualifying line");
        li.extendedprice[line] = "NaN".parse().unwrap();
        let expect = reference(&db);
        assert_eq!(expect[0].orderkey, top);
        assert!(expect[0].revenue.is_nan());
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        let b = fw.backend("Handwritten").unwrap();
        let data = Q3Data::upload(b, &db).unwrap();
        let rows = data.execute(b).unwrap();
        data.free(b).unwrap();
        assert!(rows[0].revenue.is_nan());
        let keys = |rows: &[Q3Row]| rows.iter().map(|r| r.orderkey).collect::<Vec<_>>();
        assert_eq!(keys(&rows), keys(&expect));
    }

    #[test]
    fn hash_join_backend_is_much_faster_than_nlj_backends() {
        let db = generate(0.005);
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        let mut times = std::collections::HashMap::new();
        for name in ["Thrust", "Handwritten"] {
            let b = fw.backend(name).unwrap();
            let data = Q3Data::upload(b, &db).unwrap();
            data.execute(b).unwrap(); // warm-up
            let dev = b.device();
            let (_, t) = dev.time(|| data.execute(b).unwrap());
            times.insert(name, t.as_nanos());
        }
        // At this tiny scale the quadratic term is only part of the
        // pipeline; strict dominance is the portable assertion (the E8/E12
        // benches show the multi-× factors at realistic cardinalities).
        assert!(
            times["Handwritten"] < times["Thrust"],
            "hash join must beat NLJ: {times:?}"
        );
    }
}
