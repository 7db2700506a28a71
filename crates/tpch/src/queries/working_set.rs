//! From a query's logical plan to its device-resident working set, and
//! the one driver that executes every query over it.
//!
//! A plan's scans already declare every base column the query touches
//! ([`proto_core::logical::LogicalPlan::scan_columns`]); the schema's
//! [`Database::column`] maps each qualified name to its host data.
//! [`QueryData`] joins the two — it uploads, binds and frees exactly the
//! declared columns, so a query module spells its column list once, in
//! `logical_plan()` — and adds the planning, execution modes and
//! decoding every query shares.

use crate::queries::Query;
use crate::schema::Database;
use gpu_sim::{Result, SimError};
use proto_core::backend::{Col, GpuBackend};
use proto_core::physical::PlanBindings;
use proto_core::resilient_plan::{HostCol, PartitionSource, PlanLane, ResilientPlanExecutor};

/// A backend and the uploaded `(name, column)` pairs a plan runs on.
type Lane<'a> = (&'a dyn GpuBackend, &'a [(String, Col)]);

/// One query's working set on one backend — the base columns its plan
/// scans, uploaded, plus the host data its decoding reads — and every
/// way to execute the query over it. `qN::QnData` is `QueryData<qN::Qn>`.
#[derive(Debug)]
pub struct QueryData<Q: Query> {
    /// `(qualified name, column)` in upload order.
    cols: Vec<(String, Col)>,
    host: Q::Host,
}

impl<Q: Query> QueryData<Q> {
    /// Upload [`Query::upload_columns`] in order and capture
    /// [`Query::host`]. A failing upload drops the columns before it.
    pub fn upload(backend: &dyn GpuBackend, db: &Database) -> Result<Self> {
        let mut cols = Vec::new();
        for (name, _) in Q::upload_columns() {
            let col = match db.column(&name) {
                Some(HostCol::U32(v)) => backend.upload_u32(v)?,
                Some(HostCol::F64(v)) => backend.upload_f64(v)?,
                None => {
                    return Err(SimError::Unsupported(format!(
                        "no host column for plan column `{name}`"
                    )))
                }
            };
            cols.push((name, col));
        }
        Ok(QueryData {
            cols,
            host: Q::host(db),
        })
    }

    /// Execute the query through the planner.
    pub fn execute(&self, backend: &dyn GpuBackend) -> Result<Q::Answer> {
        self.execute_with(backend, &ResilientPlanExecutor::default())
    }

    /// Execute through `exec`, recovering from transient faults at plan
    /// granularity (see [`proto_core::resilient_plan`]).
    pub fn execute_with(
        &self,
        backend: &dyn GpuBackend,
        exec: &ResilientPlanExecutor,
    ) -> Result<Q::Answer> {
        Self::run(&[(backend, &self.cols[..])], exec, None, &self.host)
    }

    /// Execute through a backend fallback chain: if `backend` cannot
    /// complete the plan, `spare` (a second backend with its own uploaded
    /// working set) replays it, carrying forward every host-resident
    /// checkpoint when the lowered step lists agree.
    pub fn execute_with_fallback(
        &self,
        backend: &dyn GpuBackend,
        spare: (&Self, &dyn GpuBackend),
        exec: &ResilientPlanExecutor,
    ) -> Result<Q::Answer> {
        let lanes = [(backend, &self.cols[..]), (spare.1, &spare.0.cols[..])];
        Self::run(&lanes, exec, None, &self.host)
    }

    /// Execute over horizontal partitions of `lineitem`: `exec`
    /// partitions up front when a memory budget is configured, or as the
    /// OOM escalation path otherwise. A plan the executor cannot prove
    /// partition-safe (the join queries Q3, Q4 and Q5) then fails with
    /// [`SimError::Unsupported`].
    pub fn execute_partitioned(
        &self,
        backend: &dyn GpuBackend,
        exec: &ResilientPlanExecutor,
        db: &Database,
    ) -> Result<Q::Answer> {
        let src = Self::partition_source(db);
        Self::run(&[(backend, &self.cols[..])], exec, Some(&src), &self.host)
    }

    /// Execute entirely from the host partition source: no full-table
    /// upload; every chunk stages its own window. `exec` must carry a
    /// memory budget: without one there is nothing to size the chunks
    /// by, and the call fails with [`SimError::Unsupported`] before any
    /// device work.
    pub fn execute_budgeted(
        backend: &dyn GpuBackend,
        exec: &ResilientPlanExecutor,
        db: &Database,
    ) -> Result<Q::Answer> {
        if exec.recovery().mem_budget_bytes.is_none() {
            return Err(SimError::Unsupported(format!(
                "{}: budgeted execution needs `mem_budget_bytes`",
                Q::NAME
            )));
        }
        let src = Self::partition_source(db);
        Self::run(&[(backend, &[])], exec, Some(&src), &Q::host(db))
    }

    /// The host-side `lineitem` columns the plan scans — the source a
    /// query is horizontally partitioned over (the fact table, and the
    /// probe side of Q14's join; every other table stays whole). A column
    /// the schema lacks stays unbound, for the executor to report.
    pub fn partition_source(db: &Database) -> PartitionSource<'_> {
        let mut src = PartitionSource::new();
        let columns = (Q::LOGICAL_PLAN)().scan_columns();
        let lineitem = columns.iter().filter(|(n, _)| n.starts_with("lineitem."));
        for (name, col) in lineitem.filter_map(|(n, _)| Some((n, db.column(n)?))) {
            match col {
                HostCol::U32(v) => src.bind_u32(name, v),
                HostCol::F64(v) => src.bind_f64(name, v),
            };
        }
        src
    }

    /// Plan the query on each lane's backend and run the lanes through
    /// `exec` — a fallback chain when there are two — with `source` to
    /// partition over.
    fn run(
        lanes: &[Lane<'_>],
        exec: &ResilientPlanExecutor,
        source: Option<&PartitionSource<'_>>,
        host: &Q::Host,
    ) -> Result<Q::Answer> {
        let mut planned = Vec::with_capacity(lanes.len());
        for &(backend, cols) in lanes {
            let mut binds = PlanBindings::new();
            for (name, col) in cols {
                binds.bind(name, col);
            }
            planned.push((Q::physical_plan(backend)?, binds));
        }
        let lanes: Vec<_> = lanes
            .iter()
            .zip(&planned)
            .map(|(&(backend, _), (plan, binds))| PlanLane {
                backend,
                plan,
                binds,
            })
            .collect();
        Q::decode(&exec.execute_lanes(&lanes, source)?, host)
    }

    /// Free the working set, in upload order.
    pub fn free(self, backend: &dyn GpuBackend) -> Result<()> {
        for (_, col) in self.cols {
            backend.free(col)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, generate, generate_seeded};
    use crate::queries::{can_join, q1, q14, q3, q4, q5, q6};
    use gpu_sim::DeviceSpec;
    use proto_core::backends::HandwrittenBackend;
    use proto_core::framework::Framework;
    use proto_core::resilient_plan::PlanRecovery;
    use std::fmt::Debug;

    /// `check::<Q>` for each of the six queries.
    fn every_query(check: [fn(&Database); 6]) {
        let db = generate(0.002);
        for check in check {
            check(&db);
        }
    }

    const BACKENDS: [&str; 4] = ["Thrust", "Boost.Compute", "ArrayFire", "Handwritten"];

    fn uploaded<Q: Query>(data: QueryData<Q>, backend: &dyn GpuBackend) -> Vec<String> {
        let dtyped = |(name, col): &(String, Col)| format!("{name}:{:?}", col.dtype());
        let names = data.cols.iter().map(dtyped).collect();
        data.free(backend).unwrap();
        names
    }

    /// Allocation order is observable (buffer ids in traces, pool state),
    /// so what each `QueryData::upload` sends, and in which order, is part
    /// of the simulated artifacts.
    #[test]
    fn each_query_uploads_its_scanned_columns_in_the_pinned_order() {
        let db = generate(0.001);
        let b = HandwrittenBackend::new(&gpu_sim::Device::with_defaults());
        assert_eq!(
            uploaded(q1::Q1Data::upload(&b, &db).unwrap(), &b),
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
            uploaded(q3::Q3Data::upload(&b, &db).unwrap(), &b),
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
            uploaded(q4::Q4Data::upload(&b, &db).unwrap(), &b),
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
            uploaded(q5::Q5Data::upload(&b, &db).unwrap(), &b),
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
            uploaded(q6::Q6Data::upload(&b, &db).unwrap(), &b),
            [
                "lineitem.shipdate:U32",
                "lineitem.discount:F64",
                "lineitem.quantity:F64",
                "lineitem.extendedprice:F64",
            ]
        );
        assert_eq!(
            uploaded(q14::Q14Data::upload(&b, &db).unwrap(), &b),
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

    /// An upload that runs out of device memory partway leaves no column
    /// behind: the columns before it drop with the failed working set.
    #[test]
    fn a_failing_upload_leaves_no_column_behind() {
        let db = generate(0.002);
        let mut spec = DeviceSpec::gtx1080();
        // Room for Q1's two `u32` columns, not for its four `f64` ones.
        spec.global_mem_bytes = db.lineitem.len() as u64 * 16;
        let b = Framework::single_backend(&spec, "Handwritten");
        let failed = q1::Q1Data::upload(b.as_ref(), &db);
        assert!(
            matches!(failed, Err(SimError::OutOfMemory { .. })),
            "{failed:?}"
        );
        assert!(b.device().stats().mem_peak > 0, "no column went up first");
        assert_eq!(b.device().live_buffers(), 0);
    }

    /// Every backend either answers `Q` on `db` as its host reference does
    /// or — lacking any join algorithm, per Table II — refuses it with a
    /// typed `Unsupported`; either way its working set frees cleanly.
    fn answers_or_refuses<Q: Query>(db: &Database)
    where
        Q::Answer: Debug,
    {
        let want = (Q::REFERENCE)(db);
        for name in BACKENDS {
            let b = Framework::single_backend(&DeviceSpec::gtx1080(), name);
            let b = b.as_ref();
            let data = QueryData::<Q>::upload(b, db).unwrap();
            match data.execute(b) {
                Ok(got) => assert!(
                    Q::matches(&got, &want),
                    "{} on {name}: {got:?} vs reference {want:?}",
                    Q::NAME
                ),
                Err(e) => assert!(
                    !can_join(b)
                        && matches!(&e, SimError::Unsupported(m) if m.contains("(Table II)")),
                    "{} on {name}: {e}",
                    Q::NAME
                ),
            }
            data.free(b).unwrap();
            assert_eq!(b.device().live_buffers(), 0, "{} on {name}", Q::NAME);
        }
    }

    /// [`answers_or_refuses`] for each of the six queries.
    const ANSWERS_OR_REFUSES: [fn(&Database); 6] = [
        answers_or_refuses::<q1::Q1>,
        answers_or_refuses::<q3::Q3>,
        answers_or_refuses::<q4::Q4>,
        answers_or_refuses::<q5::Q5>,
        answers_or_refuses::<q6::Q6>,
        answers_or_refuses::<q14::Q14>,
    ];

    #[test]
    fn every_backend_answers_each_query_as_the_reference_or_refuses_it() {
        every_query(ANSWERS_OR_REFUSES);
    }

    /// The same on 32 more databases of the size `every_query` uses. Twenty
    /// suppliers leave some of them (seeds `SEED + 12` and `SEED + 21`)
    /// without one in ASIA, so Q5 joins against an empty side.
    #[test]
    fn every_backend_answers_or_refuses_each_query_on_other_seeds() {
        for s in 1..=32 {
            let db = generate_seeded(0.002, gen::SEED + s);
            for check in ANSWERS_OR_REFUSES {
                check(&db);
            }
        }
    }

    /// The shared fallback and partition paths: a fault-free two-lane
    /// chain returns plain execution's answer bit for bit; a budgeted
    /// partitioned run matches it (the sums reassociate) where the plan
    /// is partition-safe, and is refused with the executor's typed
    /// `Unsupported` where it is not (the join queries Q3, Q4 and Q5).
    /// No run leaves a buffer behind.
    #[test]
    fn fallback_chains_and_partitions_run_every_query() {
        fn check<Q: Query>(db: &Database)
        where
            Q::Answer: Debug,
        {
            let spec = DeviceSpec::gtx1080();
            let parts = ResilientPlanExecutor::new(PlanRecovery {
                mem_budget_bytes: Some(db.lineitem.len() as u64 * 80),
                ..PlanRecovery::default()
            });
            for name in BACKENDS {
                let b = Framework::single_backend(&spec, name);
                let spare = Framework::single_backend(&spec, "Handwritten");
                let (b, spare) = (b.as_ref(), spare.as_ref());
                let data = QueryData::<Q>::upload(b, db).unwrap();
                let spare_data = QueryData::<Q>::upload(spare, db).unwrap();
                let plain = data.execute(b);
                let exec = ResilientPlanExecutor::default();
                let chained = data.execute_with_fallback(b, (&spare_data, spare), &exec);
                assert_eq!(
                    format!("{chained:?}"),
                    format!("{plain:?}"),
                    "{} on {name}",
                    Q::NAME
                );
                match (plain, data.execute_partitioned(b, &parts, db)) {
                    (Ok(plain), Ok(split)) => {
                        assert!(Q::matches(&split, &plain), "{} on {name}", Q::NAME);
                        assert!(b.device().stats().plan_partitions > 0);
                    }
                    (Ok(_), Err(e)) => assert!(
                        ["Q3", "Q4", "Q5"].contains(&Q::NAME)
                            && matches!(&e, SimError::Unsupported(m) if m.contains("not partition-safe")),
                        "{} on {name}: {e}",
                        Q::NAME
                    ),
                    (Err(_), split) => assert!(
                        matches!(split, Err(SimError::Unsupported(_))),
                        "{} on {name}",
                        Q::NAME
                    ),
                }
                spare_data.free(spare).unwrap();
                data.free(b).unwrap();
                let live = (b.device().live_buffers(), spare.device().live_buffers());
                assert_eq!(live, (0, 0), "{} on {name}", Q::NAME);
            }
        }
        every_query([
            check::<q1::Q1>,
            check::<q3::Q3>,
            check::<q4::Q4>,
            check::<q5::Q5>,
            check::<q6::Q6>,
            check::<q14::Q14>,
        ]);
    }
}
