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
use crate::queries::working_set::{lineitem_partition_source, WorkingSet};
use crate::schema::{Database, LINESTATUSES, RETURNFLAGS};
use gpu_sim::Result;
use proto_core::backend::GpuBackend;
use proto_core::logical::{AggExpr, ColumnDecl, LogicalPlan, ResultOrder};
use proto_core::ops::CmpOp;
use proto_core::optimizer;
use proto_core::physical::{PhysicalPlan, PlanBindings, PlanOutput};
use proto_core::plan::{Expr, Predicate};
use proto_core::resilient_plan::{PartitionSource, ResilientPlanExecutor};

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

impl Q1Row {
    /// Render the dictionary-decoded flag/status pair.
    pub fn flags(&self) -> (&'static str, &'static str) {
        (
            RETURNFLAGS[self.returnflag as usize],
            LINESTATUSES[self.linestatus as usize],
        )
    }
}

/// Group key encoding: `returnflag · 2 + linestatus` (6 live groups).
pub(crate) fn group_key(rf: u32, ls: u32) -> u32 {
    rf * 2 + ls
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
    optimizer::plan("Q1", &logical_plan(), backend)
}

/// Device-resident Q1 working set: the `lineitem` columns
/// [`logical_plan`] scans.
#[derive(Debug)]
pub struct Q1Data {
    pub(crate) cols: WorkingSet,
}

impl Q1Data {
    /// Upload the touched columns. The composite group key is encoded at
    /// load time (a dictionary/encoding decision, made once per table —
    /// see [`Database::column`]).
    pub fn upload(backend: &dyn GpuBackend, db: &Database) -> Result<Self> {
        let cols = WorkingSet::upload(backend, db, &logical_plan().scan_columns())?;
        Ok(Q1Data { cols })
    }

    /// Execute Q1 through the planner, returning rows ordered by
    /// (returnflag, linestatus).
    pub fn execute(&self, backend: &dyn GpuBackend) -> Result<Vec<Q1Row>> {
        self.execute_with(backend, &ResilientPlanExecutor::default())
    }

    /// Execute Q1 through `exec`, recovering from transient faults at
    /// plan granularity (see [`proto_core::resilient_plan`]).
    pub fn execute_with(
        &self,
        backend: &dyn GpuBackend,
        exec: &ResilientPlanExecutor,
    ) -> Result<Vec<Q1Row>> {
        let plan = physical_plan(backend)?;
        let out = exec.execute(backend, &plan, &self.cols.bindings())?;
        Self::rows(&out)
    }

    /// Execute Q1 through a backend fallback chain: if `backend`
    /// cannot complete the plan, `spare` (a second backend with its own
    /// uploaded working set) replays it, carrying forward every
    /// host-resident checkpoint when the lowered step lists agree.
    pub fn execute_with_fallback(
        &self,
        backend: &dyn GpuBackend,
        spare: (&Q1Data, &dyn GpuBackend),
        exec: &ResilientPlanExecutor,
    ) -> Result<Vec<Q1Row>> {
        let lanes = [(&self.cols, backend), (&spare.0.cols, spare.1)];
        let out = WorkingSet::execute_with_fallback(lanes, physical_plan, exec)?;
        Self::rows(&out)
    }

    /// Execute Q1 over horizontal partitions of `lineitem`: `exec`
    /// partitions up front when a memory budget is configured, or as
    /// the OOM escalation path otherwise.
    pub fn execute_partitioned(
        &self,
        backend: &dyn GpuBackend,
        exec: &ResilientPlanExecutor,
        db: &Database,
    ) -> Result<Vec<Q1Row>> {
        let plan = physical_plan(backend)?;
        let src = Self::partition_source(db);
        let out = exec.execute_partitionable(backend, &plan, &self.cols.bindings(), &src)?;
        Self::rows(&out)
    }

    /// Execute Q1 entirely from the host partition source: no
    /// full-table upload; every chunk stages its own window. Requires
    /// `exec` to carry a memory budget — without one the executor's
    /// first attempt runs unpartitioned from the (empty) device
    /// bindings and fails.
    pub fn execute_budgeted(
        backend: &dyn GpuBackend,
        exec: &ResilientPlanExecutor,
        db: &Database,
    ) -> Result<Vec<Q1Row>> {
        debug_assert!(
            exec.recovery().mem_budget_bytes.is_some(),
            "execute_budgeted needs a memory budget"
        );
        let plan = physical_plan(backend)?;
        let src = Self::partition_source(db);
        let out = exec.execute_partitionable(backend, &plan, &PlanBindings::new(), &src)?;
        Self::rows(&out)
    }

    /// The host-side `lineitem` columns Q1 can be horizontally
    /// partitioned over. The composite group key is re-encoded here,
    /// matching [`Q1Data::upload`].
    pub fn partition_source(db: &Database) -> PartitionSource<'_> {
        lineitem_partition_source(db, &logical_plan())
    }

    fn rows(out: &PlanOutput) -> Result<Vec<Q1Row>> {
        let codes = out.u32s("keys")?;
        let v_qty = out.f64s("sum_qty")?;
        let v_base = out.f64s("sum_base_price")?;
        let v_disc_price = out.f64s("sum_disc_price")?;
        let v_charge = out.f64s("sum_charge")?;
        let v_disc = out.f64s("sum_disc")?;
        let v_count = out.f64s("count")?;
        Ok(codes
            .iter()
            .enumerate()
            .map(|(i, &code)| {
                let n = v_count[i];
                Q1Row {
                    returnflag: code / 2,
                    linestatus: code % 2,
                    sum_qty: v_qty[i],
                    sum_base_price: v_base[i],
                    sum_disc_price: v_disc_price[i],
                    sum_charge: v_charge[i],
                    avg_qty: v_qty[i] / n,
                    avg_price: v_base[i] / n,
                    avg_disc: v_disc[i] / n,
                    count: n as u64,
                }
            })
            .collect())
    }

    /// Free the working set.
    pub fn free(self, backend: &dyn GpuBackend) -> Result<()> {
        self.cols.free(backend)
    }
}

/// Host reference implementation.
pub fn reference(db: &Database) -> Vec<Q1Row> {
    let li = &db.lineitem;
    let cutoff = date(1998, 12, 1) - 90;
    let mut acc: std::collections::BTreeMap<u32, (f64, f64, f64, f64, f64, u64)> =
        std::collections::BTreeMap::new();
    for i in 0..li.len() {
        if li.shipdate[i] <= cutoff {
            let key = group_key(li.returnflag[i], li.linestatus[i]);
            let e = acc.entry(key).or_default();
            let disc_price = li.extendedprice[i] * (1.0 - li.discount[i]);
            e.0 += li.quantity[i];
            e.1 += li.extendedprice[i];
            e.2 += disc_price;
            e.3 += disc_price * (1.0 + li.tax[i]);
            e.4 += li.discount[i];
            e.5 += 1;
        }
    }
    acc.into_iter()
        .map(|(key, (q, b, d, c, disc, n))| Q1Row {
            returnflag: key / 2,
            linestatus: key % 2,
            sum_qty: q,
            sum_base_price: b,
            sum_disc_price: d,
            sum_charge: c,
            avg_qty: q / n as f64,
            avg_price: b / n as f64,
            avg_disc: disc / n as f64,
            count: n,
        })
        .collect()
}

#[cfg(test)]
mod oracle {
    //! The pre-planner hand-rolled lowering, kept verbatim as the
    //! equivalence oracle for the planned execution.

    use super::*;

    pub fn execute(data: &Q1Data, backend: &dyn GpuBackend) -> Result<Vec<Q1Row>> {
        let col = |name: &str| data.cols.col(name);
        let cutoff = (date(1998, 12, 1) - 90) as f64;
        // Selection + materialisation of the surviving rows.
        let ids = backend.selection(col("lineitem.shipdate"), CmpOp::Le, cutoff)?;
        let keys = backend.gather(col("lineitem.groupkey"), &ids)?;
        let qty = backend.gather(col("lineitem.quantity"), &ids)?;
        let ext = backend.gather(col("lineitem.extendedprice"), &ids)?;
        let disc = backend.gather(col("lineitem.discount"), &ids)?;
        let tax = backend.gather(col("lineitem.tax"), &ids)?;
        // Projections.
        let one_minus_disc = backend.affine(&disc, -1.0, 1.0)?;
        let disc_price = backend.product(&ext, &one_minus_disc)?;
        let one_plus_tax = backend.affine(&tax, 1.0, 1.0)?;
        let charge = backend.product(&disc_price, &one_plus_tax)?;
        let ones = backend.affine(&qty, 0.0, 1.0)?;
        // Aggregates — one grouped reduction per measure.
        let (gk, sum_qty) = backend.grouped_sum(&keys, &qty)?;
        let (k2, sum_base) = backend.grouped_sum(&keys, &ext)?;
        let (k3, sum_disc_price) = backend.grouped_sum(&keys, &disc_price)?;
        let (k4, sum_charge) = backend.grouped_sum(&keys, &charge)?;
        let (k5, sum_disc) = backend.grouped_sum(&keys, &disc)?;
        let (k6, counts) = backend.grouped_sum(&keys, &ones)?;
        // Materialise the (small) result.
        let group_codes = backend.download_u32(&gk)?;
        let v_qty = backend.download_f64(&sum_qty)?;
        let v_base = backend.download_f64(&sum_base)?;
        let v_disc_price = backend.download_f64(&sum_disc_price)?;
        let v_charge = backend.download_f64(&sum_charge)?;
        let v_disc = backend.download_f64(&sum_disc)?;
        let v_count = backend.download_f64(&counts)?;
        for c in [
            ids,
            keys,
            qty,
            ext,
            disc,
            tax,
            one_minus_disc,
            disc_price,
            one_plus_tax,
            charge,
            ones,
            gk,
            sum_qty,
            k2,
            sum_base,
            k3,
            sum_disc_price,
            k4,
            sum_charge,
            k5,
            sum_disc,
            k6,
            counts,
        ] {
            backend.free(c)?;
        }
        let mut rows: Vec<Q1Row> = group_codes
            .iter()
            .enumerate()
            .map(|(i, &code)| {
                let n = v_count[i];
                Q1Row {
                    returnflag: code / 2,
                    linestatus: code % 2,
                    sum_qty: v_qty[i],
                    sum_base_price: v_base[i],
                    sum_disc_price: v_disc_price[i],
                    sum_charge: v_charge[i],
                    avg_qty: v_qty[i] / n,
                    avg_price: v_base[i] / n,
                    avg_disc: v_disc[i] / n,
                    count: n as u64,
                }
            })
            .collect();
        rows.sort_by_key(|r| (r.returnflag, r.linestatus));
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
    fn all_backends_match_the_reference() {
        let db = generate(0.001);
        let expect = reference(&db);
        assert!(!expect.is_empty());
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        for b in fw.backends() {
            let data = Q1Data::upload(b.as_ref(), &db).unwrap();
            let rows = data.execute(b.as_ref()).unwrap();
            assert_eq!(rows.len(), expect.len(), "{}", b.name());
            for (got, want) in rows.iter().zip(&expect) {
                assert_eq!(
                    (got.returnflag, got.linestatus),
                    (want.returnflag, want.linestatus)
                );
                assert_eq!(got.count, want.count, "{}", b.name());
                for (g, w) in [
                    (got.sum_qty, want.sum_qty),
                    (got.sum_base_price, want.sum_base_price),
                    (got.sum_disc_price, want.sum_disc_price),
                    (got.sum_charge, want.sum_charge),
                    (got.avg_qty, want.avg_qty),
                    (got.avg_price, want.avg_price),
                    (got.avg_disc, want.avg_disc),
                ] {
                    assert!(close(g, w), "{}: {g} vs {w}", b.name());
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
                let d_old = Q1Data::upload(b_old.as_ref(), &db).unwrap();
                let d_new = Q1Data::upload(b_new.as_ref(), &db).unwrap();
                b_old.device().set_tracing(true);
                b_new.device().set_tracing(true);
                let expect = oracle::execute(&d_old, b_old.as_ref()).unwrap();
                let got = d_new.execute(b_new.as_ref()).unwrap();
                assert_eq!(got, expect, "{name} @ sf {sf}");
                assert_eq!(
                    b_new.device().take_trace(),
                    b_old.device().take_trace(),
                    "{name} @ sf {sf}: planned trace deviates from the hand-rolled one"
                );
            }
        }
    }

    #[test]
    fn the_planner_materialises_disc_price_once() {
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        let b = fw.backend("Thrust").unwrap();
        let plan = physical_plan(b).unwrap();
        let products = plan
            .steps()
            .iter()
            .filter(|s| matches!(s, Step::Product { .. }))
            .count();
        // disc_price and charge only — the shared subtree is cached.
        assert_eq!(products, 2, "{}", plan.explain());
    }

    #[test]
    fn reference_covers_all_six_groups() {
        let db = generate(0.003);
        let rows = reference(&db);
        // A/F, R/F, N/F, N/O are the spec groups; N/F is rare but present
        // at this size, A/O and R/O cannot exist.
        assert!(rows.len() >= 4, "{rows:?}");
        for r in &rows {
            let (rf, ls) = r.flags();
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
