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
use crate::queries::working_set::WorkingSet;
use crate::schema::{Database, NATIONS, REGIONS};
use gpu_sim::Result;
use proto_core::backend::GpuBackend;
use proto_core::logical::{AggExpr, ColumnDecl, JoinCol, LogicalPlan, ResultOrder};
use proto_core::ops::CmpOp;
use proto_core::optimizer;
use proto_core::physical::PhysicalPlan;
use proto_core::plan::{Expr, Predicate};
use proto_core::resilient_plan::ResilientPlanExecutor;

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

/// Compile Q5 for `backend`.
pub fn physical_plan(backend: &dyn GpuBackend) -> Result<PhysicalPlan> {
    optimizer::plan("Q5", &logical_plan(), backend)
}

/// Device-resident Q5 working set: the columns of all five tables
/// [`logical_plan`] scans (`region` is folded into the nation filter).
#[derive(Debug)]
pub struct Q5Data {
    pub(crate) cols: WorkingSet,
}

impl Q5Data {
    /// Upload the touched columns of all five tables.
    pub fn upload(backend: &dyn GpuBackend, db: &Database) -> Result<Self> {
        let cols = WorkingSet::upload(backend, db, &logical_plan().scan_columns())?;
        Ok(Q5Data { cols })
    }

    /// Execute Q5 through the planner, returning rows ordered by
    /// revenue descending.
    pub fn execute(&self, backend: &dyn GpuBackend) -> Result<Vec<Q5Row>> {
        self.execute_with(backend, &ResilientPlanExecutor::default())
    }

    /// Execute Q5 through `exec`, recovering from transient faults at
    /// plan granularity (see [`proto_core::resilient_plan`]).
    pub fn execute_with(
        &self,
        backend: &dyn GpuBackend,
        exec: &ResilientPlanExecutor,
    ) -> Result<Vec<Q5Row>> {
        let plan = physical_plan(backend)?;
        let out = exec.execute(backend, &plan, &self.cols.bindings())?;
        let keys = out.u32s("keys")?;
        let revs = out.f64s("revenue")?;
        Ok(keys
            .iter()
            .zip(revs)
            .map(|(&nationkey, &revenue)| Q5Row { nationkey, revenue })
            .collect())
    }

    /// Free the working set.
    pub fn free(self, backend: &dyn GpuBackend) -> Result<()> {
        self.cols.free(backend)
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
    rows.sort_by(|a, b| {
        b.revenue
            .partial_cmp(&a.revenue)
            .expect("finite revenue")
            .then(a.nationkey.cmp(&b.nationkey))
    });
    rows
}

#[cfg(test)]
mod oracle {
    //! The pre-planner hand-rolled lowering, kept verbatim as the
    //! equivalence oracle for the planned execution.

    use super::*;
    use gpu_sim::SimError;
    use proto_core::backend::Pred;
    use proto_core::ops::Connective;

    pub fn execute(data: &Q5Data, backend: &dyn GpuBackend) -> Result<Vec<Q5Row>> {
        let col = |name: &str| data.cols.col(name);
        let Some(join_algo) = crate::queries::best_join(backend) else {
            return Err(SimError::Unsupported(format!(
                "{} supports no join algorithm (Table II)",
                backend.name()
            )));
        };
        // σ(nation): nations of the target region.
        let n_ids = backend.selection(col("nation.regionkey"), CmpOp::Eq, region_code() as f64)?;
        let asia_nations = backend.gather(col("nation.nationkey"), &n_ids)?;

        // σ(supplier) by region: supplier ⋈ asia_nations on nationkey.
        let (s_rows, _n1) = backend.join(col("supplier.nationkey"), &asia_nations, join_algo)?;
        let asia_suppkeys = backend.gather(col("supplier.suppkey"), &s_rows)?;
        let asia_supp_nation = backend.gather(col("supplier.nationkey"), &s_rows)?;

        // σ(customer) by region: customer ⋈ asia_nations on nationkey.
        let (c_rows, _n2) = backend.join(col("customer.nationkey"), &asia_nations, join_algo)?;
        let asia_custkeys = backend.gather(col("customer.custkey"), &c_rows)?;
        let asia_cust_nation = backend.gather(col("customer.nationkey"), &c_rows)?;

        // σ(orders): the 1994 window.
        let date_preds = [
            Pred {
                col: col("orders.orderdate"),
                cmp: CmpOp::Ge,
                lit: date(1994, 1, 1) as f64,
            },
            Pred {
                col: col("orders.orderdate"),
                cmp: CmpOp::Lt,
                lit: date(1995, 1, 1) as f64,
            },
        ];
        let o_ids = backend.selection_multi(&date_preds, Connective::And)?;
        let o_cust = backend.gather(col("orders.custkey"), &o_ids)?;
        let o_key = backend.gather(col("orders.orderkey"), &o_ids)?;

        // orders ⋈ customer (region-filtered) on custkey.
        let (oc_l, oc_r) = backend.join(&o_cust, &asia_custkeys, join_algo)?;
        let sel_order_keys = backend.gather(&o_key, &oc_l)?;
        let order_cust_nation = backend.gather(&asia_cust_nation, &oc_r)?;

        // lineitem ⋈ orders on orderkey.
        let (ll, lr) = backend.join(col("lineitem.orderkey"), &sel_order_keys, join_algo)?;
        let line_supp = backend.gather(col("lineitem.suppkey"), &ll)?;
        let line_cust_nation = backend.gather(&order_cust_nation, &lr)?;
        let line_ext = backend.gather(col("lineitem.extendedprice"), &ll)?;
        let line_disc = backend.gather(col("lineitem.discount"), &ll)?;

        // lineitem ⋈ supplier (region-filtered) on suppkey.
        let (sl, sr) = backend.join(&line_supp, &asia_suppkeys, join_algo)?;
        let m_supp_nation = backend.gather(&asia_supp_nation, &sr)?;
        let m_cust_nation = backend.gather(&line_cust_nation, &sl)?;
        let m_ext = backend.gather(&line_ext, &sl)?;
        let m_disc = backend.gather(&line_disc, &sl)?;

        // "local" condition: customer and supplier share the nation.
        let local_ids = backend.selection_cmp_cols(&m_cust_nation, &m_supp_nation, CmpOp::Eq)?;
        let f_nation = backend.gather(&m_supp_nation, &local_ids)?;
        let f_ext = backend.gather(&m_ext, &local_ids)?;
        let f_disc = backend.gather(&m_disc, &local_ids)?;

        // revenue = ext · (1 − disc), grouped by nation.
        let one_minus = backend.affine(&f_disc, -1.0, 1.0)?;
        let revenue = backend.product(&f_ext, &one_minus)?;
        let (g_keys, g_rev) = backend.grouped_sum(&f_nation, &revenue)?;
        let keys = backend.download_u32(&g_keys)?;
        let revs = backend.download_f64(&g_rev)?;

        for c in [
            n_ids,
            asia_nations,
            s_rows,
            _n1,
            asia_suppkeys,
            asia_supp_nation,
            c_rows,
            _n2,
            asia_custkeys,
            asia_cust_nation,
            o_ids,
            o_cust,
            o_key,
            oc_l,
            oc_r,
            sel_order_keys,
            order_cust_nation,
            ll,
            lr,
            line_supp,
            line_cust_nation,
            line_ext,
            line_disc,
            sl,
            sr,
            m_supp_nation,
            m_cust_nation,
            m_ext,
            m_disc,
            local_ids,
            f_nation,
            f_ext,
            f_disc,
            one_minus,
            revenue,
            g_keys,
            g_rev,
        ] {
            backend.free(c)?;
        }

        let mut rows: Vec<Q5Row> = keys
            .into_iter()
            .zip(revs)
            .map(|(nationkey, revenue)| Q5Row { nationkey, revenue })
            .collect();
        rows.sort_by(|a, b| {
            b.revenue
                .partial_cmp(&a.revenue)
                .expect("finite revenue")
                .then(a.nationkey.cmp(&b.nationkey))
        });
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::queries::close;
    use gpu_sim::DeviceSpec;
    use proto_core::prelude::*;

    #[test]
    fn joinable_backends_match_the_reference() {
        let db = generate(0.002);
        let expect = reference(&db);
        assert!(!expect.is_empty(), "ASIA revenue must exist");
        // Exactly the region's nations can appear.
        for r in &expect {
            assert_eq!(
                db.nation.regionkey[r.nationkey as usize],
                2,
                "{}",
                r.nation()
            );
        }
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        for b in fw.backends() {
            let data = Q5Data::upload(b.as_ref(), &db).unwrap();
            match data.execute(b.as_ref()) {
                Ok(rows) => {
                    assert_eq!(rows.len(), expect.len(), "{}", b.name());
                    for (got, want) in rows.iter().zip(&expect) {
                        assert_eq!(got.nationkey, want.nationkey, "{}", b.name());
                        assert!(
                            close(got.revenue, want.revenue),
                            "{}: {} vs {}",
                            b.name(),
                            got.revenue,
                            want.revenue
                        );
                    }
                }
                Err(_) => assert_eq!(b.name(), "ArrayFire"),
            }
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
                let d_old = Q5Data::upload(b_old.as_ref(), &db).unwrap();
                let d_new = Q5Data::upload(b_new.as_ref(), &db).unwrap();
                b_old.device().set_tracing(true);
                b_new.device().set_tracing(true);
                match (
                    oracle::execute(&d_old, b_old.as_ref()),
                    d_new.execute(b_new.as_ref()),
                ) {
                    (Ok(expect), Ok(got)) => assert_eq!(got, expect, "{name} @ sf {sf}"),
                    (Err(e_old), Err(e_new)) => {
                        assert_eq!(e_new.to_string(), e_old.to_string(), "{name} @ sf {sf}")
                    }
                    (old, new) => panic!("{name} @ sf {sf}: diverged: {old:?} vs {new:?}"),
                }
                assert_eq!(
                    b_new.device().take_trace(),
                    b_old.device().take_trace(),
                    "{name} @ sf {sf}: planned trace deviates from the hand-rolled one"
                );
            }
        }
    }

    #[test]
    fn the_shared_nation_subplan_lowers_once() {
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        let b = fw.backend("Handwritten").unwrap();
        let plan = physical_plan(b).unwrap();
        let selections = plan
            .steps()
            .iter()
            .filter(|s| matches!(s, Step::Selection { .. }))
            .count();
        // Only the region filter; the nations list feeds both joins.
        assert_eq!(selections, 1, "{}", plan.explain());
    }

    #[test]
    fn result_is_revenue_descending() {
        let db = generate(0.003);
        let rows = reference(&db);
        assert!(rows.windows(2).all(|w| w[0].revenue >= w[1].revenue));
        for r in &rows {
            assert!(!r.nation().is_empty());
        }
    }
}
