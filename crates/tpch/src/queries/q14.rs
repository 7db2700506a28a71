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
use crate::queries::working_set::{lineitem_partition_source, WorkingSet};
use crate::schema::Database;
use gpu_sim::Result;
use proto_core::backend::GpuBackend;
use proto_core::logical::{AggExpr, ColumnDecl, JoinCol, LogicalPlan};
use proto_core::ops::CmpOp;
use proto_core::optimizer;
use proto_core::physical::{PhysicalPlan, PlanOutput};
use proto_core::plan::{Expr, Predicate};
use proto_core::resilient_plan::{PartitionSource, ResilientPlanExecutor};

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

/// Compile Q14 for `backend`.
pub fn physical_plan(backend: &dyn GpuBackend) -> Result<PhysicalPlan> {
    optimizer::plan("Q14", &logical_plan(), backend)
}

/// Device-resident Q14 working set: the `lineitem` and `part` columns
/// [`logical_plan`] scans.
#[derive(Debug)]
pub struct Q14Data {
    pub(crate) cols: WorkingSet,
}

impl Q14Data {
    /// Upload the touched columns: the `lineitem` fact columns first,
    /// then the `part` dimension (the plan lowers the build side first;
    /// the load order predates it and allocation order is observable).
    pub fn upload(backend: &dyn GpuBackend, db: &Database) -> Result<Self> {
        let mut columns = logical_plan().scan_columns();
        columns.sort_by_key(|(name, _)| !name.starts_with("lineitem."));
        let cols = WorkingSet::upload(backend, db, &columns)?;
        Ok(Q14Data { cols })
    }

    /// Execute Q14 through the planner, returning the promo-revenue
    /// percentage.
    pub fn execute(&self, backend: &dyn GpuBackend) -> Result<f64> {
        self.execute_with(backend, &ResilientPlanExecutor::default())
    }

    /// Execute Q14 through `exec`, recovering from transient faults at
    /// plan granularity (see [`proto_core::resilient_plan`]).
    pub fn execute_with(
        &self,
        backend: &dyn GpuBackend,
        exec: &ResilientPlanExecutor,
    ) -> Result<f64> {
        let plan = physical_plan(backend)?;
        let out = exec.execute(backend, &plan, &self.cols.bindings())?;
        Self::ratio(&out)
    }

    /// Execute Q14 over horizontal partitions of `lineitem` (the probe
    /// side of the join; the `part` build side stays whole — the
    /// executor's partition-safety analysis enforces this).
    pub fn execute_partitioned(
        &self,
        backend: &dyn GpuBackend,
        exec: &ResilientPlanExecutor,
        db: &Database,
    ) -> Result<f64> {
        let plan = physical_plan(backend)?;
        let src = Self::partition_source(db);
        let out = exec.execute_partitionable(backend, &plan, &self.cols.bindings(), &src)?;
        Self::ratio(&out)
    }

    /// The host-side `lineitem` columns Q14 can be horizontally
    /// partitioned over. Only the probe side: partitioning `part` would
    /// change per-partition join results.
    pub fn partition_source(db: &Database) -> PartitionSource<'_> {
        lineitem_partition_source(db, &logical_plan())
    }

    fn ratio(out: &PlanOutput) -> Result<f64> {
        let promo_rev = out.scalar("promo_rev")?;
        let total_rev = out.scalar("total_rev")?;
        if total_rev == 0.0 {
            return Ok(0.0);
        }
        Ok(100.0 * promo_rev / total_rev)
    }

    /// Free the working set.
    pub fn free(self, backend: &dyn GpuBackend) -> Result<()> {
        self.cols.free(backend)
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
    if total == 0.0 {
        0.0
    } else {
        100.0 * promo / total
    }
}

#[cfg(test)]
mod oracle {
    //! The pre-planner hand-rolled lowering, kept verbatim as the
    //! equivalence oracle for the planned execution.

    use super::*;
    use gpu_sim::SimError;
    use proto_core::backend::Pred;
    use proto_core::ops::Connective;

    pub fn execute(data: &Q14Data, backend: &dyn GpuBackend) -> Result<f64> {
        let col = |name: &str| data.cols.col(name);
        let Some(join_algo) = crate::queries::best_join(backend) else {
            return Err(SimError::Unsupported(format!(
                "{} supports no join algorithm (Table II)",
                backend.name()
            )));
        };
        // σ(lineitem): the September 1995 window.
        let preds = [
            Pred {
                col: col("lineitem.shipdate"),
                cmp: CmpOp::Ge,
                lit: date(1995, 9, 1) as f64,
            },
            Pred {
                col: col("lineitem.shipdate"),
                cmp: CmpOp::Lt,
                lit: date(1995, 10, 1) as f64,
            },
        ];
        let l_ids = backend.selection_multi(&preds, Connective::And)?;
        let l_pk = backend.gather(col("lineitem.partkey"), &l_ids)?;
        let l_ext = backend.gather(col("lineitem.extendedprice"), &l_ids)?;
        let l_disc = backend.gather(col("lineitem.discount"), &l_ids)?;

        // lineitem ⋈ part on partkey (PK side: every probe matches once).
        let (jl, jr) = backend.join(&l_pk, col("part.partkey"), join_algo)?;

        // Revenue per matched line.
        let m_ext = backend.gather(&l_ext, &jl)?;
        let m_disc = backend.gather(&l_disc, &jl)?;
        let one_minus = backend.affine(&m_disc, -1.0, 1.0)?;
        let revenue = backend.product(&m_ext, &one_minus)?;
        // CASE WHEN p_promo: a 0/1 mask from the part's size, applied as
        // a product — the library rendering of a conditional aggregate.
        // `dense_mask` is one transform/fused kernel on every backend.
        let indicator = backend.dense_mask(col("part.size"), CmpOp::Le, PROMO_SIZE_MAX as f64)?;
        let m_promo = backend.gather(&indicator, &jr)?;
        let masked = backend.product(&revenue, &m_promo)?;
        let promo_rev = backend.reduction(&masked)?;
        for c in [indicator, m_promo, masked] {
            backend.free(c)?;
        }
        let total_rev = backend.reduction(&revenue)?;
        for c in [
            l_ids, l_pk, l_ext, l_disc, jl, jr, m_ext, m_disc, one_minus, revenue,
        ] {
            backend.free(c)?;
        }
        if total_rev == 0.0 {
            return Ok(0.0);
        }
        Ok(100.0 * promo_rev / total_rev)
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
        assert!(
            expect > 0.0 && expect < 100.0,
            "plausible percentage: {expect}"
        );
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        for b in fw.backends() {
            let data = Q14Data::upload(b.as_ref(), &db).unwrap();
            match data.execute(b.as_ref()) {
                Ok(got) => assert!(
                    (got - expect).abs() < 1e-9,
                    "{}: {got} vs {expect}",
                    b.name()
                ),
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
                let d_old = Q14Data::upload(b_old.as_ref(), &db).unwrap();
                let d_new = Q14Data::upload(b_new.as_ref(), &db).unwrap();
                b_old.device().set_tracing(true);
                b_new.device().set_tracing(true);
                match (
                    oracle::execute(&d_old, b_old.as_ref()),
                    d_new.execute(b_new.as_ref()),
                ) {
                    (Ok(expect), Ok(got)) => {
                        assert_eq!(got.to_bits(), expect.to_bits(), "{name} @ sf {sf}")
                    }
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
    fn the_shared_revenue_subtree_is_reduced_twice_but_computed_once() {
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        let b = fw.backend("Handwritten").unwrap();
        let plan = physical_plan(b).unwrap();
        let products = plan
            .steps()
            .iter()
            .filter(|s| matches!(s, Step::Product { .. }))
            .count();
        let reduces = plan
            .steps()
            .iter()
            .filter(|s| matches!(s, Step::Reduce { .. }))
            .count();
        // revenue and revenue·mask — not a third for the second sum.
        assert_eq!((products, reduces), (2, 2), "{}", plan.explain());
    }
}
