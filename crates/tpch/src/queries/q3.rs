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
use crate::queries::working_set::WorkingSet;
use crate::schema::{segment_code, Database};
use gpu_sim::Result;
use proto_core::backend::GpuBackend;
use proto_core::logical::{AggExpr, ColumnDecl, JoinCol, LogicalPlan};
use proto_core::ops::CmpOp;
use proto_core::optimizer;
use proto_core::physical::PhysicalPlan;
use proto_core::plan::{Expr, Predicate};
use proto_core::resilient_plan::ResilientPlanExecutor;

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

/// The Q3 query tree: customers filtered to BUILDING feed the orders
/// join, whose output keys feed the lineitem join, grouped by orderkey.
///
/// The final host-side decoration (orderdate/shippriority lookup), sort
/// and LIMIT stay outside the plan — they read the `orders` table on
/// the host, which device plans cannot express.
pub fn logical_plan() -> LogicalPlan {
    let cut = date(1995, 3, 15) as f64;
    let building = segment_code("BUILDING").expect("dictionary") as f64;
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

/// Compile Q3 for `backend`.
pub fn physical_plan(backend: &dyn GpuBackend) -> Result<PhysicalPlan> {
    optimizer::plan("Q3", &logical_plan(), backend)
}

/// Device-resident Q3 working set: the `customer`, `orders` and
/// `lineitem` columns [`logical_plan`] scans.
#[derive(Debug)]
pub struct Q3Data {
    pub(crate) cols: WorkingSet,
}

impl Q3Data {
    /// Upload the touched columns of all three tables.
    pub fn upload(backend: &dyn GpuBackend, db: &Database) -> Result<Self> {
        let cols = WorkingSet::upload(backend, db, &logical_plan().scan_columns())?;
        Ok(Q3Data { cols })
    }

    /// Execute Q3 through the planner. Returns the top-10 rows by
    /// revenue; errors with [`gpu_sim::SimError::Unsupported`] on
    /// backends that cannot join.
    pub fn execute(&self, backend: &dyn GpuBackend, db: &Database) -> Result<Vec<Q3Row>> {
        self.execute_with(backend, db, &ResilientPlanExecutor::default())
    }

    /// Execute Q3 through `exec`, recovering from transient faults at
    /// plan granularity (see [`proto_core::resilient_plan`]).
    pub fn execute_with(
        &self,
        backend: &dyn GpuBackend,
        db: &Database,
        exec: &ResilientPlanExecutor,
    ) -> Result<Vec<Q3Row>> {
        let plan = physical_plan(backend)?;
        let out = exec.execute(backend, &plan, &self.cols.bindings())?;
        let keys = out.u32s("keys")?;
        let revs = out.f64s("revenue")?;

        // Attach orderdate/shippriority (host-side key lookup on the tiny
        // result set) and take the top 10.
        let mut rows: Vec<Q3Row> = keys
            .iter()
            .zip(revs)
            .map(|(&orderkey, &revenue)| {
                let row = (orderkey - 1) as usize; // dense keys
                Q3Row {
                    orderkey,
                    revenue,
                    orderdate: db.orders.orderdate[row],
                    shippriority: db.orders.shippriority[row],
                }
            })
            .collect();
        // `total_cmp`: a `.tbl` import can carry a NaN price.
        rows.sort_by(|a, b| {
            b.revenue
                .total_cmp(&a.revenue)
                .then(a.orderdate.cmp(&b.orderdate))
                .then(a.orderkey.cmp(&b.orderkey))
        });
        rows.truncate(10);
        Ok(rows)
    }

    /// Free the working set.
    pub fn free(self, backend: &dyn GpuBackend) -> Result<()> {
        self.cols.free(backend)
    }
}

/// Host reference implementation.
pub fn reference(db: &Database) -> Vec<Q3Row> {
    let cut = date(1995, 3, 15);
    let building = segment_code("BUILDING").expect("dictionary");
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
    let mut rows: Vec<Q3Row> = rev
        .into_iter()
        .map(|(orderkey, revenue)| {
            let row = (orderkey - 1) as usize;
            Q3Row {
                orderkey,
                revenue,
                orderdate: db.orders.orderdate[row],
                shippriority: db.orders.shippriority[row],
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

#[cfg(test)]
mod oracle {
    //! The pre-planner hand-rolled lowering, kept verbatim as the
    //! equivalence oracle for the planned execution.

    use super::*;
    use gpu_sim::SimError;

    pub fn execute(data: &Q3Data, backend: &dyn GpuBackend, db: &Database) -> Result<Vec<Q3Row>> {
        let col = |name: &str| data.cols.col(name);
        let Some(join_algo) = crate::queries::best_join(backend) else {
            return Err(SimError::Unsupported(format!(
                "{} supports no join algorithm (Table II)",
                backend.name()
            )));
        };
        let cut = date(1995, 3, 15) as f64;
        let building = segment_code("BUILDING").expect("dictionary") as f64;

        // σ(customer): BUILDING customers' keys.
        let c_ids = backend.selection(col("customer.mktsegment"), CmpOp::Eq, building)?;
        let cust_keys = backend.gather(col("customer.custkey"), &c_ids)?;

        // σ(orders): orders before the cut, project (custkey, orderkey).
        let o_ids = backend.selection(col("orders.orderdate"), CmpOp::Lt, cut)?;
        let o_cust = backend.gather(col("orders.custkey"), &o_ids)?;
        let o_key = backend.gather(col("orders.orderkey"), &o_ids)?;

        // orders ⋈ customer on custkey (FK → at most one match).
        let (oc_l, oc_r) = backend.join(&o_cust, &cust_keys, join_algo)?;
        let sel_order_keys = backend.gather(&o_key, &oc_l)?;

        // σ(lineitem): shipped after the cut.
        let l_ids = backend.selection(col("lineitem.shipdate"), CmpOp::Gt, cut)?;
        let l_ok = backend.gather(col("lineitem.orderkey"), &l_ids)?;
        let l_ext = backend.gather(col("lineitem.extendedprice"), &l_ids)?;
        let l_disc = backend.gather(col("lineitem.discount"), &l_ids)?;

        // lineitem ⋈ orders on orderkey.
        let (ll, _lr) = backend.join(&l_ok, &sel_order_keys, join_algo)?;

        // revenue per surviving line, grouped by orderkey.
        let m_ext = backend.gather(&l_ext, &ll)?;
        let m_disc = backend.gather(&l_disc, &ll)?;
        let m_key = backend.gather(&l_ok, &ll)?;
        let one_minus = backend.affine(&m_disc, -1.0, 1.0)?;
        let revenue = backend.product(&m_ext, &one_minus)?;
        let (g_keys, g_rev) = backend.grouped_sum(&m_key, &revenue)?;

        let keys = backend.download_u32(&g_keys)?;
        let revs = backend.download_f64(&g_rev)?;
        for c in [
            c_ids,
            cust_keys,
            o_ids,
            o_cust,
            o_key,
            oc_l,
            oc_r,
            sel_order_keys,
            l_ids,
            l_ok,
            l_ext,
            l_disc,
            ll,
            _lr,
            m_ext,
            m_disc,
            m_key,
            one_minus,
            revenue,
            g_keys,
            g_rev,
        ] {
            backend.free(c)?;
        }

        // Attach orderdate/shippriority (host-side key lookup on the tiny
        // result set) and take the top 10.
        let mut rows: Vec<Q3Row> = keys
            .iter()
            .zip(&revs)
            .map(|(&orderkey, &revenue)| {
                let row = (orderkey - 1) as usize; // dense keys
                Q3Row {
                    orderkey,
                    revenue,
                    orderdate: db.orders.orderdate[row],
                    shippriority: db.orders.shippriority[row],
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.revenue
                .partial_cmp(&a.revenue)
                .expect("finite revenue")
                .then(a.orderdate.cmp(&b.orderdate))
                .then(a.orderkey.cmp(&b.orderkey))
        });
        rows.truncate(10);
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
        assert!(!expect.is_empty());
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        for b in fw.backends() {
            let data = Q3Data::upload(b.as_ref(), &db).unwrap();
            match data.execute(b.as_ref(), &db) {
                Ok(rows) => {
                    assert_eq!(rows.len(), expect.len(), "{}", b.name());
                    for (got, want) in rows.iter().zip(&expect) {
                        assert_eq!(got.orderkey, want.orderkey, "{}", b.name());
                        assert!(close(got.revenue, want.revenue), "{}", b.name());
                        assert_eq!(got.orderdate, want.orderdate);
                    }
                }
                Err(e) => {
                    assert_eq!(b.name(), "ArrayFire", "only AF may fail: {e}");
                }
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
                let d_old = Q3Data::upload(b_old.as_ref(), &db).unwrap();
                let d_new = Q3Data::upload(b_new.as_ref(), &db).unwrap();
                b_old.device().set_tracing(true);
                b_new.device().set_tracing(true);
                match (
                    oracle::execute(&d_old, b_old.as_ref(), &db),
                    d_new.execute(b_new.as_ref(), &db),
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
        let rows = data.execute(b, &db).unwrap();
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
            data.execute(b, &db).unwrap(); // warm-up
            let dev = b.device();
            let (_, t) = dev.time(|| data.execute(b, &db).unwrap());
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
