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
use crate::queries::working_set::WorkingSet;
use crate::schema::{Database, PRIORITIES};
use gpu_sim::Result;
use proto_core::backend::GpuBackend;
use proto_core::logical::{AggExpr, ColumnDecl, JoinCol, LogicalPlan};
use proto_core::ops::CmpOp;
use proto_core::optimizer;
use proto_core::physical::PhysicalPlan;
use proto_core::plan::Predicate;
use proto_core::resilient_plan::ResilientPlanExecutor;

/// One Q4 result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q4Row {
    /// `o_orderpriority` dictionary code.
    pub priority: u32,
    /// Number of qualifying orders.
    pub order_count: u64,
}

impl Q4Row {
    /// Dictionary-decoded priority label.
    pub fn label(&self) -> &'static str {
        PRIORITIES[self.priority as usize]
    }
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

/// Compile Q4 for `backend`.
pub fn physical_plan(backend: &dyn GpuBackend) -> Result<PhysicalPlan> {
    optimizer::plan("Q4", &logical_plan(), backend)
}

/// Device-resident Q4 working set: the `orders` and `lineitem` columns
/// [`logical_plan`] scans.
#[derive(Debug)]
pub struct Q4Data {
    pub(crate) cols: WorkingSet,
}

impl Q4Data {
    /// Upload the touched columns.
    pub fn upload(backend: &dyn GpuBackend, db: &Database) -> Result<Self> {
        let cols = WorkingSet::upload(backend, db, &logical_plan().scan_columns())?;
        Ok(Q4Data { cols })
    }

    /// Execute Q4 through the planner, returning counts per priority
    /// (ascending code).
    pub fn execute(&self, backend: &dyn GpuBackend) -> Result<Vec<Q4Row>> {
        self.execute_with(backend, &ResilientPlanExecutor::default())
    }

    /// Execute Q4 through `exec`, recovering from transient faults at
    /// plan granularity (see [`proto_core::resilient_plan`]).
    pub fn execute_with(
        &self,
        backend: &dyn GpuBackend,
        exec: &ResilientPlanExecutor,
    ) -> Result<Vec<Q4Row>> {
        let plan = physical_plan(backend)?;
        let out = exec.execute(backend, &plan, &self.cols.bindings())?;
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

    /// Free the working set.
    pub fn free(self, backend: &dyn GpuBackend) -> Result<()> {
        self.cols.free(backend)
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
mod oracle {
    //! The pre-planner hand-rolled lowering, kept verbatim as the
    //! equivalence oracle for the planned execution.

    use super::*;
    use gpu_sim::SimError;
    use proto_core::backend::Pred;
    use proto_core::ops::Connective;

    pub fn execute(data: &Q4Data, backend: &dyn GpuBackend) -> Result<Vec<Q4Row>> {
        let col = |name: &str| data.cols.col(name);
        let Some(join_algo) = crate::queries::best_join(backend) else {
            return Err(SimError::Unsupported(format!(
                "{} supports no join algorithm (Table II)",
                backend.name()
            )));
        };
        // σ(orders): the Q3/1993 window.
        let preds = [
            Pred {
                col: col("orders.orderdate"),
                cmp: CmpOp::Ge,
                lit: date(1993, 7, 1) as f64,
            },
            Pred {
                col: col("orders.orderdate"),
                cmp: CmpOp::Lt,
                lit: date(1993, 10, 1) as f64,
            },
        ];
        let o_ids = backend.selection_multi(&preds, Connective::And)?;
        let o_keys = backend.gather(col("orders.orderkey"), &o_ids)?;
        let o_prio = backend.gather(col("orders.orderpriority"), &o_ids)?;

        // σ(lineitem): late lines (column-vs-column predicate).
        let l_ids = backend.selection_cmp_cols(
            col("lineitem.commitdate"),
            col("lineitem.receiptdate"),
            CmpOp::Lt,
        )?;
        let l_keys = backend.gather(col("lineitem.orderkey"), &l_ids)?;

        // Semi join: lines ⋈ orders, then collapse to distinct orders.
        let (_jl, jr) = backend.join(&l_keys, &o_keys, join_algo)?;
        let ones_src = backend.constant_f64(jr.len(), 1.0)?;
        let (distinct_orders, _cnt) = backend.grouped_sum(&jr, &ones_src)?;

        // Regroup the distinct orders by priority.
        let prio_of_match = backend.gather(&o_prio, &distinct_orders)?;
        let ones2 = backend.constant_f64(prio_of_match.len(), 1.0)?;
        let (prio_keys, prio_counts) = backend.grouped_sum(&prio_of_match, &ones2)?;

        let codes = backend.download_u32(&prio_keys)?;
        let counts = backend.download_f64(&prio_counts)?;
        for c in [
            o_ids,
            o_keys,
            o_prio,
            l_ids,
            l_keys,
            _jl,
            jr,
            ones_src,
            distinct_orders,
            _cnt,
            prio_of_match,
            ones2,
            prio_keys,
            prio_counts,
        ] {
            backend.free(c)?;
        }
        Ok(codes
            .into_iter()
            .zip(counts)
            .map(|(priority, n)| Q4Row {
                priority,
                order_count: n as u64,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use gpu_sim::DeviceSpec;
    use proto_core::prelude::*;

    #[test]
    fn joinable_backends_match_the_reference() {
        let db = generate(0.002);
        let expect = reference(&db);
        assert!(!expect.is_empty());
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        for b in fw.backends() {
            let data = Q4Data::upload(b.as_ref(), &db).unwrap();
            match data.execute(b.as_ref()) {
                Ok(rows) => assert_eq!(rows, expect, "{}", b.name()),
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
                let d_old = Q4Data::upload(b_old.as_ref(), &db).unwrap();
                let d_new = Q4Data::upload(b_new.as_ref(), &db).unwrap();
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
    fn priorities_cover_the_dictionary() {
        let db = generate(0.005);
        let rows = reference(&db);
        assert_eq!(rows.len(), PRIORITIES.len(), "all five priorities occur");
        for r in &rows {
            assert!(!r.label().is_empty());
            assert!(r.order_count > 0);
        }
    }
}
