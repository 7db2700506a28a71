//! TPC-H Q5 — the local supplier volume query.
//!
//! ```sql
//! SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
//! FROM customer, orders, lineitem, supplier, nation, region
//! WHERE c_custkey  = o_custkey
//!   AND l_orderkey = o_orderkey
//!   AND l_suppkey  = s_suppkey
//!   AND c_nationkey = s_nationkey
//!   AND s_nationkey = n_nationkey
//!   AND n_regionkey = r_regionkey
//!   AND r_name = 'ASIA'
//!   AND o_orderdate >= date '1994-01-01'
//!   AND o_orderdate <  date '1995-01-01'
//! GROUP BY n_name ORDER BY revenue DESC;
//! ```
//!
//! The heaviest query in the study: six tables, four equi joins, a
//! column-vs-column filter (`c_nationkey = s_nationkey` after both sides
//! are joined in) and a grouped aggregation. It is exactly the workload
//! class where the libraries' missing hash join hurts most — every join
//! degrades to `for_each_n` nested loops on Thrust/Boost.Compute. The
//! region-filtered nation subplan feeds both the supplier and the
//! customer join; the planner's structural dedup lowers it once.

use crate::dates::date;
use crate::queries::{close, rows_match, LogicalPlanFn, Query, QueryData};
use crate::schema::{Database, NATIONS, REGIONS};
use gpu_sim::Result;
use proto_core::logical::{
    AggExpr, ColumnDecl, Expr, JoinCol, LogicalPlan, Predicate, ResultOrder,
};
use proto_core::ops::CmpOp;
use proto_core::physical::PlanOutput;

/// One Q5 result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Q5Row {
    /// `n_nationkey` of the group.
    pub nationkey: u32,
    /// Aggregated revenue.
    pub revenue: f64,
}

impl Q5Row {
    /// Dictionary-decoded nation name.
    pub fn nation(&self) -> &'static str {
        NATIONS[self.nationkey as usize]
    }
}

/// The region the benchmark query restricts to.
pub const TARGET_REGION: &str = "ASIA";

// INVARIANT: `TARGET_REGION` is one of `schema::REGIONS`.
#[allow(clippy::expect_used)]
fn region_code() -> u32 {
    REGIONS
        .iter()
        .position(|&r| r == TARGET_REGION)
        .expect("region dictionary") as u32
}

/// The Q5 query tree: the region-filtered nation list (shared by the
/// supplier and customer joins), the 1994 order window, the
/// lineitem⋈orders⋈supplier join chain, the "local" customer=supplier
/// nation filter, and a revenue sum per nation, descending.
pub fn logical_plan() -> LogicalPlan {
    let nations = LogicalPlan::scan(
        "nation",
        vec![ColumnDecl::u32("nationkey"), ColumnDecl::u32("regionkey")],
    )
    .filter(Predicate::cmp(
        "nation.regionkey",
        CmpOp::Eq,
        region_code() as f64,
    ))
    .project(&["nation.nationkey"]);
    // Region-filtered suppliers and customers: dimension ⋈ fact keeps
    // the fact table's key/nation pairs for the region.
    let suppliers = LogicalPlan::join(
        nations.clone(),
        LogicalPlan::scan(
            "supplier",
            vec![ColumnDecl::u32("suppkey"), ColumnDecl::u32("nationkey")],
        ),
        "nation.nationkey",
        "supplier.nationkey",
        vec![
            JoinCol::probe("supp_suppkey", "supplier.suppkey"),
            JoinCol::probe("supp_nation", "supplier.nationkey"),
        ],
    );
    let customers = LogicalPlan::join(
        nations,
        LogicalPlan::scan(
            "customer",
            vec![ColumnDecl::u32("custkey"), ColumnDecl::u32("nationkey")],
        ),
        "nation.nationkey",
        "customer.nationkey",
        vec![
            JoinCol::probe("cust_custkey", "customer.custkey"),
            JoinCol::probe("cust_nation", "customer.nationkey"),
        ],
    );
    let orders = LogicalPlan::scan(
        "orders",
        vec![
            ColumnDecl::u32("orderdate"),
            ColumnDecl::u32("custkey"),
            ColumnDecl::u32("orderkey"),
        ],
    )
    .filter(Predicate::And(vec![
        Predicate::cmp("orders.orderdate", CmpOp::Ge, date(1994, 1, 1) as f64),
        Predicate::cmp("orders.orderdate", CmpOp::Lt, date(1995, 1, 1) as f64),
    ]))
    .project(&["orders.custkey", "orders.orderkey"]);
    let region_orders = LogicalPlan::join(
        customers,
        orders,
        "cust_custkey",
        "orders.custkey",
        vec![
            JoinCol::probe("okey", "orders.orderkey"),
            JoinCol::build("ocust_nation", "cust_nation"),
        ],
    );
    let lines = LogicalPlan::join(
        region_orders,
        LogicalPlan::scan(
            "lineitem",
            vec![
                ColumnDecl::u32("orderkey"),
                ColumnDecl::u32("suppkey"),
                ColumnDecl::f64("extendedprice"),
                ColumnDecl::f64("discount"),
            ],
        ),
        "okey",
        "lineitem.orderkey",
        vec![
            JoinCol::probe("line_supp", "lineitem.suppkey"),
            JoinCol::build("line_cust_nation", "ocust_nation"),
            JoinCol::probe("line_ext", "lineitem.extendedprice"),
            JoinCol::probe("line_disc", "lineitem.discount"),
        ],
    );
    LogicalPlan::join(
        suppliers,
        lines,
        "supp_suppkey",
        "line_supp",
        vec![
            JoinCol::build("m_supp_nation", "supp_nation"),
            JoinCol::probe("m_cust_nation", "line_cust_nation"),
            JoinCol::probe("m_ext", "line_ext"),
            JoinCol::probe("m_disc", "line_disc"),
        ],
    )
    .filter(Predicate::col_cmp(
        "m_cust_nation",
        CmpOp::Eq,
        "m_supp_nation",
    ))
    .aggregate(
        Some("m_supp_nation"),
        vec![(
            "revenue",
            AggExpr::Sum(Expr::col("m_ext") * (Expr::lit(1.0) - Expr::col("m_disc"))),
        )],
    )
    .sort_limit(ResultOrder::ValueDescKeyAsc, None)
}

/// Q5 for [`QueryData`]: revenue per nation, descending.
#[derive(Debug)]
pub struct Q5;

/// Device-resident Q5 working set.
pub type Q5Data = QueryData<Q5>;

impl Query for Q5 {
    const NAME: &'static str = "Q5";
    const LOGICAL_PLAN: LogicalPlanFn = logical_plan;
    const REFERENCE: fn(&Database) -> Vec<Q5Row> = reference;
    type Answer = Vec<Q5Row>;
    type Host = ();

    fn decode(out: &PlanOutput, _: &()) -> Result<Vec<Q5Row>> {
        let keys = out.u32s("keys")?;
        let revs = out.f64s("revenue")?;
        Ok(keys
            .iter()
            .zip(revs)
            .map(|(&nationkey, &revenue)| Q5Row { nationkey, revenue })
            .collect())
    }

    fn matches(got: &Vec<Q5Row>, want: &Vec<Q5Row>) -> bool {
        rows_match(got, want, |g, w| {
            g.nationkey == w.nationkey && close(g.revenue, w.revenue)
        })
    }
}

/// Host reference implementation.
pub fn reference(db: &Database) -> Vec<Q5Row> {
    let (lo, hi) = (date(1994, 1, 1), date(1995, 1, 1));
    let region = region_code();
    let nation_in_region: Vec<bool> = db.nation.regionkey.iter().map(|&r| r == region).collect();
    // custkey → nation (only region customers).
    let mut cust_nation = std::collections::HashMap::new();
    for i in 0..db.customer.len() {
        let n = db.customer.nationkey[i];
        if nation_in_region[n as usize] {
            cust_nation.insert(db.customer.custkey[i], n);
        }
    }
    // orderkey → customer nation for window orders of region customers.
    let mut order_nation = std::collections::HashMap::new();
    for i in 0..db.orders.len() {
        let d = db.orders.orderdate[i];
        if d >= lo && d < hi {
            if let Some(&n) = cust_nation.get(&db.orders.custkey[i]) {
                order_nation.insert(db.orders.orderkey[i], n);
            }
        }
    }
    let supp_nation: std::collections::HashMap<u32, u32> = db
        .supplier
        .suppkey
        .iter()
        .zip(&db.supplier.nationkey)
        .map(|(&k, &n)| (k, n))
        .collect();
    let mut revenue_by_nation = std::collections::BTreeMap::new();
    let li = &db.lineitem;
    for i in 0..li.len() {
        let Some(&cn) = order_nation.get(&li.orderkey[i]) else {
            continue;
        };
        let sn = supp_nation[&li.suppkey[i]];
        if sn == cn && nation_in_region[sn as usize] {
            *revenue_by_nation.entry(sn).or_insert(0.0) +=
                li.extendedprice[i] * (1.0 - li.discount[i]);
        }
    }
    let mut rows: Vec<Q5Row> = revenue_by_nation
        .into_iter()
        .map(|(nationkey, revenue)| Q5Row { nationkey, revenue })
        .collect();
    // `total_cmp`: a `.tbl` import can carry a NaN price.
    rows.sort_by(|a, b| {
        b.revenue
            .total_cmp(&a.revenue)
            .then(a.nationkey.cmp(&b.nationkey))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use gpu_sim::{DeviceSpec, SimError};
    use proto_core::prelude::*;

    #[test]
    fn result_is_revenue_descending_over_the_region_nations() {
        let db = generate(0.003);
        let rows = reference(&db);
        assert!(!rows.is_empty(), "ASIA revenue must exist");
        assert!(rows.windows(2).all(|w| w[0].revenue >= w[1].revenue));
        for r in &rows {
            assert!(!r.nation().is_empty());
            assert_eq!(db.nation.regionkey[r.nationkey as usize], region_code());
        }
    }

    #[test]
    fn a_nan_price_orders_first_instead_of_panicking() {
        let mut db = generate(0.002);
        // Poison one line of the reference's last nation (what a `.tbl`
        // `extendedprice` of "NaN" parses to).
        let last = reference(&db).last().unwrap().nationkey;
        let (lo, hi) = (date(1994, 1, 1), date(1995, 1, 1));
        let li = &db.lineitem;
        let line = (0..li.len())
            .find(|&i| {
                let order = (li.orderkey[i] - 1) as usize;
                let customer = (db.orders.custkey[order] - 1) as usize;
                let supplier = (li.suppkey[i] - 1) as usize;
                (lo..hi).contains(&db.orders.orderdate[order])
                    && db.customer.nationkey[customer] == last
                    && db.supplier.nationkey[supplier] == last
            })
            .expect("the last nation has a qualifying line");
        db.lineitem.extendedprice[line] = "NaN".parse().unwrap();
        let rows = reference(&db);
        assert_eq!(rows[0].nationkey, last);
        assert!(rows[0].revenue.is_nan());
        // The plan's host sort refuses a NaN with a typed error.
        let b = Framework::single_backend(&DeviceSpec::gtx1080(), "Handwritten");
        let data = Q5Data::upload(b.as_ref(), &db).unwrap();
        let err = data.execute(b.as_ref()).unwrap_err();
        assert!(
            matches!(&err, SimError::Unsupported(m) if m.contains("NaN")),
            "{err}"
        );
        data.free(b.as_ref()).unwrap();
    }
}
