//! The six TPC-H queries as (logical plan, base columns, answer check).
//!
//! `tpch::queries::qN::QnData` compiles with `PlannerOptions::default()`
//! only and keeps its bindings private, so the planner workloads upload
//! the base columns themselves and call `optimizer::plan_with` +
//! `PhysicalPlan::execute` directly — the two calls `QnData::execute`
//! makes — which lets them choose the planner mode and time each layer.

use gpu_sim::Result;
use proto_core::backend::{Col, ColType, GpuBackend};
use proto_core::logical::LogicalPlan;
use proto_core::physical::{PhysicalPlan, PlanBindings, PlanOutput};
use std::borrow::Cow;
use std::collections::BTreeMap;
use tpch::queries::{close, q1, q14, q3, q4, q5, q6};
use tpch::Database;

pub const QUERIES: [&str; 6] = ["Q1", "Q3", "Q4", "Q5", "Q6", "Q14"];

pub fn logical(query: &str) -> LogicalPlan {
    match query {
        "Q1" => q1::logical_plan(),
        "Q3" => q3::logical_plan(),
        "Q4" => q4::logical_plan(),
        "Q5" => q5::logical_plan(),
        "Q6" => q6::logical_plan(),
        "Q14" => q14::logical_plan(),
        other => panic!("unknown query {other}"),
    }
}

enum HostColumn<'a> {
    U32(Cow<'a, [u32]>),
    F64(&'a [f64]),
}

/// The host column behind a plan's qualified base-column name.
fn host_column<'a>(db: &'a Database, name: &str) -> HostColumn<'a> {
    use HostColumn::{F64, U32};
    let u = |v: &'a Vec<u32>| U32(Cow::Borrowed(v.as_slice()));
    let (li, o, c) = (&db.lineitem, &db.orders, &db.customer);
    match name {
        "lineitem.shipdate" => u(&li.shipdate),
        "lineitem.commitdate" => u(&li.commitdate),
        "lineitem.receiptdate" => u(&li.receiptdate),
        "lineitem.orderkey" => u(&li.orderkey),
        "lineitem.partkey" => u(&li.partkey),
        "lineitem.suppkey" => u(&li.suppkey),
        // Q1's composite group key, encoded as `Q1Data::upload` does.
        "lineitem.groupkey" => U32(Cow::Owned(
            li.returnflag
                .iter()
                .zip(&li.linestatus)
                .map(|(&rf, &ls)| rf * 2 + ls)
                .collect(),
        )),
        "lineitem.quantity" => F64(&li.quantity),
        "lineitem.extendedprice" => F64(&li.extendedprice),
        "lineitem.discount" => F64(&li.discount),
        "lineitem.tax" => F64(&li.tax),
        "orders.orderdate" => u(&o.orderdate),
        "orders.custkey" => u(&o.custkey),
        "orders.orderkey" => u(&o.orderkey),
        "orders.orderpriority" => u(&o.orderpriority),
        "customer.mktsegment" => u(&c.mktsegment),
        "customer.custkey" => u(&c.custkey),
        "customer.nationkey" => u(&c.nationkey),
        "nation.nationkey" => u(&db.nation.nationkey),
        "nation.regionkey" => u(&db.nation.regionkey),
        "supplier.suppkey" => u(&db.supplier.suppkey),
        "supplier.nationkey" => u(&db.supplier.nationkey),
        "part.partkey" => u(&db.part.partkey),
        "part.size" => u(&db.part.size),
        other => panic!("no host column for plan base column `{other}`"),
    }
}

/// Rows of base table `table`.
pub fn table_rows(db: &Database, table: &str) -> u64 {
    let n = match table {
        "lineitem" => db.lineitem.len(),
        "orders" => db.orders.len(),
        "customer" => db.customer.len(),
        "nation" => db.nation.nationkey.len(),
        "supplier" => db.supplier.suppkey.len(),
        "part" => db.part.partkey.len(),
        other => panic!("unknown table {other}"),
    };
    n as u64
}

/// Base-table rows one execution of `plan` scans (each table once).
pub fn input_rows(plan: &PhysicalPlan, db: &Database) -> u64 {
    let mut tables: Vec<&str> = plan
        .base_columns()
        .keys()
        .map(|c| c.split('.').next().unwrap_or_default())
        .collect();
    tables.sort_unstable();
    tables.dedup();
    tables.iter().map(|t| table_rows(db, t)).sum()
}

/// Device-resident base columns of one backend, by qualified name.
#[derive(Debug, Default)]
pub struct Uploaded {
    cols: BTreeMap<String, Col>,
}

impl Uploaded {
    /// Upload every base column `plans` read that is not resident yet.
    pub fn extend(
        &mut self,
        backend: &dyn GpuBackend,
        db: &Database,
        base: &BTreeMap<String, ColType>,
    ) -> Result<()> {
        for name in base.keys() {
            if self.cols.contains_key(name) {
                continue;
            }
            let col = match host_column(db, name) {
                HostColumn::U32(v) => backend.upload_u32(&v)?,
                HostColumn::F64(v) => backend.upload_f64(v)?,
            };
            self.cols.insert(name.clone(), col);
        }
        Ok(())
    }

    /// Bindings for `plan` (what `QnData::bindings` builds per execute).
    pub fn bindings(&self, plan: &PhysicalPlan) -> PlanBindings<'_> {
        let mut binds = PlanBindings::new();
        for name in plan.base_columns().keys() {
            binds.bind(name, &self.cols[name]);
        }
        binds
    }
}

/// `qN::reference(db)` for all six queries, computed once per set-up.
#[derive(Debug)]
pub struct References {
    q1: Vec<q1::Q1Row>,
    q3: Vec<q3::Q3Row>,
    q4: Vec<q4::Q4Row>,
    q5: Vec<q5::Q5Row>,
    q6: f64,
    q14: f64,
}

impl References {
    pub fn compute(db: &Database) -> Self {
        References {
            q1: q1::reference(db),
            q3: q3::reference(db),
            q4: q4::reference(db),
            q5: q5::reference(db),
            q6: q6::reference(db),
            q14: q14::reference(db),
        }
    }

    /// Whether `out` is `query`'s reference answer (floats to `close`'s
    /// 1e-9 relative error: libraries sum in different orders).
    pub fn matches(&self, query: &str, out: &PlanOutput) -> bool {
        self.try_matches(query, out).unwrap_or(false)
    }

    fn try_matches(&self, query: &str, out: &PlanOutput) -> Result<bool> {
        Ok(match query {
            "Q1" => {
                let keys = out.u32s("keys")?;
                let cols = [
                    out.f64s("sum_qty")?,
                    out.f64s("sum_base_price")?,
                    out.f64s("sum_disc_price")?,
                    out.f64s("sum_charge")?,
                    out.f64s("count")?,
                ];
                keys.len() == self.q1.len()
                    && self.q1.iter().enumerate().all(|(i, r)| {
                        keys[i] == r.returnflag * 2 + r.linestatus
                            && close(cols[0][i], r.sum_qty)
                            && close(cols[1][i], r.sum_base_price)
                            && close(cols[2][i], r.sum_disc_price)
                            && close(cols[3][i], r.sum_charge)
                            && cols[4][i] as u64 == r.count
                    })
            }
            "Q3" => {
                // The plan returns every group; the query's ORDER BY
                // revenue DESC LIMIT 10 runs on the host.
                let mut rows: Vec<(u32, f64)> = out
                    .u32s("keys")?
                    .iter()
                    .copied()
                    .zip(out.f64s("revenue")?.iter().copied())
                    .collect();
                rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                rows.truncate(self.q3.len());
                let mut want: Vec<(u32, f64)> =
                    self.q3.iter().map(|r| (r.orderkey, r.revenue)).collect();
                want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                rows.len() == want.len()
                    && rows
                        .iter()
                        .zip(&want)
                        .all(|(g, w)| g.0 == w.0 && close(g.1, w.1))
            }
            "Q4" => {
                let keys = out.u32s("keys")?;
                let counts = out.f64s("order_count")?;
                keys.len() == self.q4.len()
                    && self
                        .q4
                        .iter()
                        .enumerate()
                        .all(|(i, r)| keys[i] == r.priority && counts[i] as u64 == r.order_count)
            }
            "Q5" => {
                let got: BTreeMap<u32, f64> = out
                    .u32s("keys")?
                    .iter()
                    .copied()
                    .zip(out.f64s("revenue")?.iter().copied())
                    .collect();
                got.len() == self.q5.len()
                    && self
                        .q5
                        .iter()
                        .all(|r| got.get(&r.nationkey).is_some_and(|&g| close(g, r.revenue)))
            }
            "Q6" => close(out.scalar("revenue")?, self.q6),
            "Q14" => {
                let (promo, total) = (out.scalar("promo_rev")?, out.scalar("total_rev")?);
                let pct = if total == 0.0 {
                    0.0
                } else {
                    100.0 * promo / total
                };
                close(pct, self.q14)
            }
            other => panic!("unknown query {other}"),
        })
    }
}
