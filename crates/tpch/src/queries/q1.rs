//! TPC-H Q1 — the pricing summary report.
//!
//! ```sql
//! SELECT l_returnflag, l_linestatus,
//!        sum(l_quantity), sum(l_extendedprice),
//!        sum(l_extendedprice*(1-l_discount)),
//!        sum(l_extendedprice*(1-l_discount)*(1+l_tax)),
//!        avg(l_quantity), avg(l_extendedprice), avg(l_discount),
//!        count(*)
//! FROM lineitem
//! WHERE l_shipdate <= date '1998-12-01' - interval '90' day
//! GROUP BY l_returnflag, l_linestatus
//! ORDER BY l_returnflag, l_linestatus;
//! ```
//!
//! Q1 stresses grouped aggregation: a near-unselective filter (~98% of
//! rows survive), arithmetic projections, and six aggregates over six
//! groups. Library backends pay one `sort_by_key + reduce_by_key` *per
//! aggregate* — the predefined interfaces offer no multi-aggregate
//! grouping, the "cannot freely combine" limitation of §II. The
//! handwritten backend hash-aggregates without any sort. The planner
//! lowers the shared `extendedprice·(1−discount)` subexpression once and
//! feeds it to both the `sum_disc_price` and `sum_charge` reductions.

use crate::dates::date;
use crate::queries::{close, rows_match, LogicalPlanFn, Query, QueryData};
use crate::schema::{group_key, Database};
use gpu_sim::Result;
use proto_core::backend::GpuBackend;
use proto_core::logical::{AggExpr, ColumnDecl, Expr, LogicalPlan, Predicate, ResultOrder};
use proto_core::ops::CmpOp;
use proto_core::physical::{PhysicalPlan, PlanOutput};

/// One Q1 result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Q1Row {
    /// `l_returnflag` dictionary code.
    pub returnflag: u32,
    /// `l_linestatus` dictionary code.
    pub linestatus: u32,
    /// `sum(l_quantity)`.
    pub sum_qty: f64,
    /// `sum(l_extendedprice)`.
    pub sum_base_price: f64,
    /// `sum(l_extendedprice * (1 - l_discount))`.
    pub sum_disc_price: f64,
    /// `sum(l_extendedprice * (1 - l_discount) * (1 + l_tax))`.
    pub sum_charge: f64,
    /// `avg(l_quantity)`.
    pub avg_qty: f64,
    /// `avg(l_extendedprice)`.
    pub avg_price: f64,
    /// `avg(l_discount)`.
    pub avg_disc: f64,
    /// `count(*)`.
    pub count: u64,
}

/// The plan's aggregate columns, in [`Q1Row::from_sums`] order.
const SUMS: [&str; 6] = [
    "sum_qty",
    "sum_base_price",
    "sum_disc_price",
    "sum_charge",
    "sum_disc",
    "count",
];

impl Q1Row {
    /// The row of group `key` from its sums of quantity, extended price,
    /// discounted price, charge and discount, and its row count.
    fn from_sums(key: u32, [qty, base, disc_price, charge, disc, n]: [f64; 6]) -> Q1Row {
        Q1Row {
            returnflag: key / 2,
            linestatus: key % 2,
            sum_qty: qty,
            sum_base_price: base,
            sum_disc_price: disc_price,
            sum_charge: charge,
            avg_qty: qty / n,
            avg_price: base / n,
            avg_disc: disc / n,
            count: n as u64,
        }
    }
}

/// The Q1 query tree: filter, six aggregates over the encoded group
/// key, results ordered by key.
///
/// `sum_charge` reuses the exact `extendedprice·(1−discount)` subtree of
/// `sum_disc_price`, so the planner's subexpression cache materialises
/// the discounted price only once.
pub fn logical_plan() -> LogicalPlan {
    let cutoff = (date(1998, 12, 1) - 90) as f64;
    let disc_price =
        Expr::col("lineitem.extendedprice") * (Expr::lit(1.0) - Expr::col("lineitem.discount"));
    let charge = disc_price.clone() * (Expr::col("lineitem.tax") + Expr::lit(1.0));
    LogicalPlan::scan(
        "lineitem",
        vec![
            ColumnDecl::u32("shipdate"),
            ColumnDecl::u32("groupkey"),
            ColumnDecl::f64("quantity"),
            ColumnDecl::f64("extendedprice"),
            ColumnDecl::f64("discount"),
            ColumnDecl::f64("tax"),
        ],
    )
    .filter(Predicate::cmp("lineitem.shipdate", CmpOp::Le, cutoff))
    .aggregate(
        Some("lineitem.groupkey"),
        vec![
            ("sum_qty", AggExpr::Sum(Expr::col("lineitem.quantity"))),
            (
                "sum_base_price",
                AggExpr::Sum(Expr::col("lineitem.extendedprice")),
            ),
            ("sum_disc_price", AggExpr::Sum(disc_price)),
            ("sum_charge", AggExpr::Sum(charge)),
            ("sum_disc", AggExpr::Sum(Expr::col("lineitem.discount"))),
            ("count", AggExpr::Count),
        ],
    )
    .sort_limit(ResultOrder::KeyAsc, None)
}

/// Compile Q1 for `backend`.
pub fn physical_plan(backend: &dyn GpuBackend) -> Result<PhysicalPlan> {
    Q1::physical_plan(backend)
}

/// Q1 for [`QueryData`]: rows ordered by (returnflag, linestatus).
#[derive(Debug)]
pub struct Q1;

/// Device-resident Q1 working set.
pub type Q1Data = QueryData<Q1>;

impl Query for Q1 {
    const NAME: &'static str = "Q1";
    const LOGICAL_PLAN: LogicalPlanFn = logical_plan;
    const REFERENCE: fn(&Database) -> Vec<Q1Row> = reference;
    type Answer = Vec<Q1Row>;
    type Host = ();

    fn decode(out: &PlanOutput, _: &()) -> Result<Vec<Q1Row>> {
        let keys = out.u32s("keys")?;
        let sums: Vec<&[f64]> = SUMS.iter().map(|c| out.f64s(c)).collect::<Result<_>>()?;
        let row = |i: usize| std::array::from_fn(|s| sums[s][i]);
        Ok(keys
            .iter()
            .enumerate()
            .map(|(i, &key)| Q1Row::from_sums(key, row(i)))
            .collect())
    }

    fn matches(got: &Vec<Q1Row>, want: &Vec<Q1Row>) -> bool {
        rows_match(got, want, |g, w| {
            (g.returnflag, g.linestatus, g.count) == (w.returnflag, w.linestatus, w.count)
                && [
                    (g.sum_qty, w.sum_qty),
                    (g.sum_base_price, w.sum_base_price),
                    (g.sum_disc_price, w.sum_disc_price),
                    (g.sum_charge, w.sum_charge),
                    (g.avg_qty, w.avg_qty),
                    (g.avg_price, w.avg_price),
                    (g.avg_disc, w.avg_disc),
                ]
                .into_iter()
                .all(|(g, w)| close(g, w))
        })
    }
}

/// Host reference implementation.
pub fn reference(db: &Database) -> Vec<Q1Row> {
    let li = &db.lineitem;
    let cutoff = date(1998, 12, 1) - 90;
    let mut acc = std::collections::BTreeMap::<u32, [f64; 6]>::new();
    for i in 0..li.len() {
        if li.shipdate[i] <= cutoff {
            let key = group_key(li.returnflag[i], li.linestatus[i]);
            let disc_price = li.extendedprice[i] * (1.0 - li.discount[i]);
            let charge = disc_price * (1.0 + li.tax[i]);
            let line = [
                li.quantity[i],
                li.extendedprice[i],
                disc_price,
                charge,
                li.discount[i],
                1.0,
            ];
            for (sum, v) in acc.entry(key).or_default().iter_mut().zip(line) {
                *sum += v;
            }
        }
    }
    acc.into_iter()
        .map(|(key, sums)| Q1Row::from_sums(key, sums))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::schema::{LINESTATUSES, RETURNFLAGS};
    use gpu_sim::DeviceSpec;
    use proto_core::prelude::*;

    #[test]
    fn reference_covers_all_six_groups() {
        let db = generate(0.003);
        let rows = reference(&db);
        // A/F, R/F, N/F, N/O are the spec groups; N/F is rare but present
        // at this size, A/O and R/O cannot exist.
        assert!(rows.len() >= 4, "{rows:?}");
        for r in &rows {
            let (rf, ls) = (
                RETURNFLAGS[r.returnflag as usize],
                LINESTATUSES[r.linestatus as usize],
            );
            assert!(!(rf != "N" && ls == "O"), "impossible group {rf}/{ls}");
        }
    }

    #[test]
    fn q1_result_is_deterministic_per_backend() {
        let db = generate(0.001);
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        let b = fw.backend("Thrust").unwrap();
        let data = Q1Data::upload(b, &db).unwrap();
        let r1 = data.execute(b).unwrap();
        let r2 = data.execute(b).unwrap();
        assert_eq!(r1, r2);
    }
}
