//! TPC-H Q14 — the promotion effect query (adapted).
//!
//! ```sql
//! SELECT 100.0 * sum(CASE WHEN p_promo
//!                         THEN l_extendedprice * (1 - l_discount)
//!                         ELSE 0 END)
//!              / sum(l_extendedprice * (1 - l_discount))
//! FROM lineitem, part
//! WHERE l_partkey = p_partkey
//!   AND l_shipdate >= date '1995-09-01'
//!   AND l_shipdate <  date '1995-10-01';
//! ```
//!
//! The official predicate is `p_type LIKE 'PROMO%'`; our schema omits the
//! text column, so the promotion flag is derived as `p_size <= 10` (~20%
//! of parts — the same selectivity class). Q14 adds two things to the
//! study beyond Q3/Q4: a join against a *dimension* table and a
//! conditional (CASE) aggregate, expressed as an [`Expr::Mask`] factor in
//! the logical plan. The planner lowers the mask against the dimension's
//! base column and gathers it through the join's match list, shares the
//! `extendedprice·(1−discount)` subtree between both sums, and frees each
//! aggregate's private intermediates as soon as its reduction lands.

use crate::dates::date;
use crate::queries::{close, LogicalPlanFn, Query, QueryData};
use crate::schema::Database;
use gpu_sim::Result;
use proto_core::backend::ColType;
use proto_core::logical::{AggExpr, ColumnDecl, Expr, JoinCol, LogicalPlan, Predicate};
use proto_core::ops::CmpOp;
use proto_core::physical::PlanOutput;

/// Size threshold standing in for `p_type LIKE 'PROMO%'`.
pub const PROMO_SIZE_MAX: u32 = 10;

/// The Q14 query tree: September-1995 lineitems joined against the part
/// dimension, with a masked and an unmasked revenue sum.
pub fn logical_plan() -> LogicalPlan {
    let lineitem = LogicalPlan::scan(
        "lineitem",
        vec![
            ColumnDecl::u32("shipdate"),
            ColumnDecl::u32("partkey"),
            ColumnDecl::f64("extendedprice"),
            ColumnDecl::f64("discount"),
        ],
    )
    .filter(Predicate::And(vec![
        Predicate::cmp("lineitem.shipdate", CmpOp::Ge, date(1995, 9, 1) as f64),
        Predicate::cmp("lineitem.shipdate", CmpOp::Lt, date(1995, 10, 1) as f64),
    ]))
    .project(&[
        "lineitem.partkey",
        "lineitem.extendedprice",
        "lineitem.discount",
    ]);
    let part = LogicalPlan::scan(
        "part",
        vec![ColumnDecl::u32("partkey"), ColumnDecl::u32("size")],
    );
    let revenue = Expr::col("m_ext") * (Expr::lit(1.0) - Expr::col("m_disc"));
    let promo = Expr::Mask("part.size".to_string(), CmpOp::Le, PROMO_SIZE_MAX as f64);
    LogicalPlan::join(
        part,
        lineitem,
        "part.partkey",
        "lineitem.partkey",
        vec![
            JoinCol::probe("m_ext", "lineitem.extendedprice"),
            JoinCol::probe("m_disc", "lineitem.discount"),
        ],
    )
    .aggregate(
        None,
        vec![
            ("promo_rev", AggExpr::Sum(revenue.clone() * promo)),
            ("total_rev", AggExpr::Sum(revenue)),
        ],
    )
}

/// Q14 for [`QueryData`]: the promo-revenue percentage. Partitioned
/// execution splits only the `lineitem` probe side of the join.
#[derive(Debug)]
pub struct Q14;

/// Device-resident Q14 working set.
pub type Q14Data = QueryData<Q14>;

impl Query for Q14 {
    const NAME: &'static str = "Q14";
    const LOGICAL_PLAN: LogicalPlanFn = logical_plan;
    const REFERENCE: fn(&Database) -> f64 = reference;
    type Answer = f64;
    type Host = ();

    /// The `lineitem` fact columns first, then the `part` dimension (the
    /// plan lowers the build side first; the load order predates it and
    /// allocation order is observable).
    fn upload_columns() -> Vec<(String, ColType)> {
        let mut columns = logical_plan().scan_columns();
        columns.sort_by_key(|(name, _)| !name.starts_with("lineitem."));
        columns
    }

    fn decode(out: &PlanOutput, _: &()) -> Result<f64> {
        Ok(promo_share(
            out.scalar("promo_rev")?,
            out.scalar("total_rev")?,
        ))
    }

    fn matches(got: &f64, want: &f64) -> bool {
        close(*got, *want)
    }
}

/// Host reference implementation.
pub fn reference(db: &Database) -> f64 {
    let (lo, hi) = (date(1995, 9, 1), date(1995, 10, 1));
    let li = &db.lineitem;
    let mut promo = 0.0;
    let mut total = 0.0;
    for i in 0..li.len() {
        if li.shipdate[i] >= lo && li.shipdate[i] < hi {
            let rev = li.extendedprice[i] * (1.0 - li.discount[i]);
            total += rev;
            let part_row = (li.partkey[i] - 1) as usize;
            if db.part.size[part_row] <= PROMO_SIZE_MAX {
                promo += rev;
            }
        }
    }
    promo_share(promo, total)
}

/// `100 · promo / total`, or 0 when no line shipped in the window.
fn promo_share(promo: f64, total: f64) -> f64 {
    if total == 0.0 {
        0.0
    } else {
        100.0 * promo / total
    }
}
