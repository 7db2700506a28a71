//! From a query's [`LogicalPlan`] to its device-resident working set.
//!
//! A plan's scans already declare every base column the query touches
//! ([`LogicalPlan::scan_columns`]); [`Database::column`] maps each
//! qualified name to its host data. [`WorkingSet`] joins the two: it
//! uploads, binds and frees exactly the declared columns, so a query
//! module spells its column list once — in `logical_plan()`.

use crate::queries::q1;
use crate::schema::Database;
use gpu_sim::{Result, SimError};
use proto_core::backend::{Col, ColType, GpuBackend};
use proto_core::logical::LogicalPlan;
use proto_core::physical::{PhysicalPlan, PlanBindings, PlanOutput};
use proto_core::resilient_plan::{HostCol, PartitionSource, PlanLane, ResilientPlanExecutor};
use std::borrow::Cow;

impl Database {
    /// The host column behind a plan's qualified base-column name
    /// (`table.column`), for every column the studied queries scan;
    /// `None` for any other name.
    ///
    /// Besides stored columns this answers `lineitem.groupkey`, Q1's
    /// composite `(returnflag, linestatus)` group key — an encoding
    /// decision made once per table, so it is derived here for uploads
    /// and partition sources alike.
    pub fn column(&self, name: &str) -> Option<HostCol<'_>> {
        fn u(v: &[u32]) -> HostCol<'_> {
            HostCol::U32(Cow::Borrowed(v))
        }
        fn f(v: &[f64]) -> HostCol<'_> {
            HostCol::F64(Cow::Borrowed(v))
        }
        let (li, o, c) = (&self.lineitem, &self.orders, &self.customer);
        Some(match name {
            "lineitem.orderkey" => u(&li.orderkey),
            "lineitem.partkey" => u(&li.partkey),
            "lineitem.suppkey" => u(&li.suppkey),
            "lineitem.quantity" => f(&li.quantity),
            "lineitem.extendedprice" => f(&li.extendedprice),
            "lineitem.discount" => f(&li.discount),
            "lineitem.tax" => f(&li.tax),
            "lineitem.shipdate" => u(&li.shipdate),
            "lineitem.commitdate" => u(&li.commitdate),
            "lineitem.receiptdate" => u(&li.receiptdate),
            "lineitem.groupkey" => HostCol::U32(Cow::Owned(
                li.returnflag
                    .iter()
                    .zip(&li.linestatus)
                    .map(|(&rf, &ls)| q1::group_key(rf, ls))
                    .collect(),
            )),
            "orders.orderkey" => u(&o.orderkey),
            "orders.custkey" => u(&o.custkey),
            "orders.orderdate" => u(&o.orderdate),
            "orders.orderpriority" => u(&o.orderpriority),
            "customer.custkey" => u(&c.custkey),
            "customer.nationkey" => u(&c.nationkey),
            "customer.mktsegment" => u(&c.mktsegment),
            "part.partkey" => u(&self.part.partkey),
            "part.size" => u(&self.part.size),
            "supplier.suppkey" => u(&self.supplier.suppkey),
            "supplier.nationkey" => u(&self.supplier.nationkey),
            "nation.nationkey" => u(&self.nation.nationkey),
            "nation.regionkey" => u(&self.nation.regionkey),
            _ => return None,
        })
    }
}

/// The device-resident base columns of one query on one backend: what
/// every `QnData` holds, and what a caller that treats the six queries
/// alike ([`crate::queries::LOGICAL_PLANS`]) uploads directly.
#[derive(Debug)]
pub struct WorkingSet {
    /// `(qualified name, column)` in upload order.
    cols: Vec<(String, Col)>,
}

impl WorkingSet {
    /// Upload `columns` (a plan's [`LogicalPlan::scan_columns`]) in
    /// order. Like the hand-written uploads it replaces, a failing
    /// upload propagates without releasing the columns before it.
    pub fn upload(
        backend: &dyn GpuBackend,
        db: &Database,
        columns: &[(String, ColType)],
    ) -> Result<Self> {
        let mut cols = Vec::with_capacity(columns.len());
        for (name, _) in columns {
            let col = match db.column(name) {
                Some(HostCol::U32(v)) => backend.upload_u32(&v)?,
                Some(HostCol::F64(v)) => backend.upload_f64(&v)?,
                None => {
                    return Err(SimError::Unsupported(format!(
                        "no host column for plan column `{name}`"
                    )))
                }
            };
            cols.push((name.clone(), col));
        }
        Ok(WorkingSet { cols })
    }

    /// Every uploaded column bound under its qualified name.
    pub fn bindings(&self) -> PlanBindings<'_> {
        let mut binds = PlanBindings::new();
        for (name, col) in &self.cols {
            binds.bind(name, col);
        }
        binds
    }

    /// Run the query `plan` compiles through a two-backend fallback
    /// chain: each lane is a backend with its own uploaded working set,
    /// and the second replays what the first cannot complete.
    pub(crate) fn execute_with_fallback(
        lanes: [(&WorkingSet, &dyn GpuBackend); 2],
        plan: fn(&dyn GpuBackend) -> Result<PhysicalPlan>,
        exec: &ResilientPlanExecutor,
    ) -> Result<PlanOutput> {
        let plans = [plan(lanes[0].1)?, plan(lanes[1].1)?];
        let binds = [lanes[0].0.bindings(), lanes[1].0.bindings()];
        let lanes = [0, 1].map(|i| PlanLane {
            backend: lanes[i].1,
            plan: &plans[i],
            binds: &binds[i],
        });
        exec.execute_lanes(&lanes, None)
    }

    /// The uploaded column `name` (the oracles' by-name access).
    #[cfg(test)]
    pub(crate) fn col(&self, name: &str) -> &Col {
        let hit = self.cols.iter().find(|(n, _)| n == name);
        &hit.unwrap_or_else(|| panic!("`{name}` is not in the working set"))
            .1
    }

    /// Free the columns, in upload order.
    pub fn free(self, backend: &dyn GpuBackend) -> Result<()> {
        for (_, col) in self.cols {
            backend.free(col)?;
        }
        Ok(())
    }
}

/// The host-side `lineitem` columns `plan` scans — the source Q1, Q6 and
/// Q14 are horizontally partitioned over (the fact table; every other
/// table stays whole).
pub(crate) fn lineitem_partition_source<'a>(
    db: &'a Database,
    plan: &LogicalPlan,
) -> PartitionSource<'a> {
    let mut src = PartitionSource::new();
    for (name, _) in plan.scan_columns() {
        if name.starts_with("lineitem.") {
            // The plans scan schema columns only (`tests/working_set.rs`
            // holds them to it), so a miss is a bug in the plan.
            match db.column(&name).expect("plan scans a schema column") {
                HostCol::U32(v) => src.bind_u32(&name, v),
                HostCol::F64(v) => src.bind_f64(&name, v),
            };
        }
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::queries::{q1, q14, q3, q4, q5, q6};
    use proto_core::backends::HandwrittenBackend;

    fn uploaded(ws: WorkingSet, backend: &dyn GpuBackend) -> Vec<String> {
        let dtyped = |(name, col): &(String, Col)| format!("{name}:{:?}", col.dtype());
        let names = ws.cols.iter().map(dtyped).collect();
        ws.free(backend).unwrap();
        names
    }

    /// Allocation order is observable (buffer ids in traces, pool state),
    /// so what each `QnData::upload` sends, and in which order, is part of
    /// the simulated artifacts.
    #[test]
    fn each_query_uploads_its_scanned_columns_in_the_pinned_order() {
        let db = generate(0.001);
        let b = HandwrittenBackend::new(&gpu_sim::Device::with_defaults());
        assert_eq!(
            uploaded(q1::Q1Data::upload(&b, &db).unwrap().cols, &b),
            [
                "lineitem.shipdate:U32",
                "lineitem.groupkey:U32",
                "lineitem.quantity:F64",
                "lineitem.extendedprice:F64",
                "lineitem.discount:F64",
                "lineitem.tax:F64",
            ]
        );
        assert_eq!(
            uploaded(q3::Q3Data::upload(&b, &db).unwrap().cols, &b),
            [
                "customer.mktsegment:U32",
                "customer.custkey:U32",
                "orders.orderdate:U32",
                "orders.custkey:U32",
                "orders.orderkey:U32",
                "lineitem.shipdate:U32",
                "lineitem.orderkey:U32",
                "lineitem.extendedprice:F64",
                "lineitem.discount:F64",
            ]
        );
        assert_eq!(
            uploaded(q4::Q4Data::upload(&b, &db).unwrap().cols, &b),
            [
                "orders.orderdate:U32",
                "orders.orderkey:U32",
                "orders.orderpriority:U32",
                "lineitem.orderkey:U32",
                "lineitem.commitdate:U32",
                "lineitem.receiptdate:U32",
            ]
        );
        assert_eq!(
            uploaded(q5::Q5Data::upload(&b, &db).unwrap().cols, &b),
            [
                "nation.nationkey:U32",
                "nation.regionkey:U32",
                "supplier.suppkey:U32",
                "supplier.nationkey:U32",
                "customer.custkey:U32",
                "customer.nationkey:U32",
                "orders.orderdate:U32",
                "orders.custkey:U32",
                "orders.orderkey:U32",
                "lineitem.orderkey:U32",
                "lineitem.suppkey:U32",
                "lineitem.extendedprice:F64",
                "lineitem.discount:F64",
            ]
        );
        assert_eq!(
            uploaded(q6::Q6Data::upload(&b, &db).unwrap().cols, &b),
            [
                "lineitem.shipdate:U32",
                "lineitem.discount:F64",
                "lineitem.quantity:F64",
                "lineitem.extendedprice:F64",
            ]
        );
        assert_eq!(
            uploaded(q14::Q14Data::upload(&b, &db).unwrap().cols, &b),
            [
                "lineitem.shipdate:U32",
                "lineitem.partkey:U32",
                "lineitem.extendedprice:F64",
                "lineitem.discount:F64",
                "part.partkey:U32",
                "part.size:U32",
            ]
        );
        assert_eq!(b.device().live_buffers(), 0);
    }
}
