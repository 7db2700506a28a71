//! A run of grouped sums over one key column shares one host fold
//! (`GpuBackend::shared_group_sums`); a backend that keeps the trait's
//! default folds per step. Both must be the same execution: TPC-H Q1 — six
//! `grouped_sum` steps over its group key — in every planner mode on every
//! paper backend, run through the adapter and through a wrapper that
//! forwards every operator but keeps the default, gives identical answer
//! bits, device traces, stats, live buffers and clocks, with no faults,
//! under plan-step retry at 5 % faults, partitioned, and through a
//! fallback chain.

use gpu_sim::{Device, DeviceSpec, DeviceStats, FaultPlan, Result, SimTime, TraceEvent};
use proto_core::backend::{Col, GpuBackend, Pred, Source};
use proto_core::backends::PAPER_BACKENDS;
use proto_core::framework::Framework;
use proto_core::fused::{FusedExpr, FusedPred};
use proto_core::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use proto_core::optimizer::{self, CostingOptions, PlannerOptions};
use proto_core::physical::{PhysicalPlan, PlanBindings, PlanOutput};
use proto_core::prelude::*;
use proto_core::resilient_plan::{HostCol, PlanLane, PlanRecovery, ResilientPlanExecutor};
use std::sync::Arc;
use tpch::queries::q1::{Q1Data, Q1};
use tpch::queries::Query;
use tpch::schema::Database;

/// Every operator Q1's plans call forwarded to the backend it wraps; the
/// shared grouped-sum fold left at the trait's default, as a wrapper
/// written before it was.
struct Forward(Box<dyn GpuBackend>);

impl GpuBackend for Forward {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn device(&self) -> Arc<Device> {
        self.0.device()
    }
    fn support(&self, op: DbOperator) -> Support {
        self.0.support(op)
    }
    fn realization(&self, op: DbOperator) -> &'static str {
        self.0.realization(op)
    }
    fn upload_u32(&self, data: &[u32]) -> Result<Col> {
        self.0.upload_u32(data)
    }
    fn upload_f64(&self, data: &[f64]) -> Result<Col> {
        self.0.upload_f64(data)
    }
    fn upload(&self, len: usize, source: Source<'_>) -> Result<Col> {
        self.0.upload(len, source)
    }
    fn download_u32(&self, col: &Col) -> Result<Vec<u32>> {
        self.0.download_u32(col)
    }
    fn download_f64(&self, col: &Col) -> Result<Vec<f64>> {
        self.0.download_f64(col)
    }
    fn free(&self, col: Col) -> Result<()> {
        self.0.free(col)
    }
    fn selection(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        self.0.selection(col, cmp, lit)
    }
    fn selection_multi(&self, preds: &[Pred<'_>], conn: Connective) -> Result<Col> {
        self.0.selection_multi(preds, conn)
    }
    fn selection_cmp_cols(&self, a: &Col, b: &Col, cmp: CmpOp) -> Result<Col> {
        self.0.selection_cmp_cols(a, b, cmp)
    }
    fn dense_mask(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        self.0.dense_mask(col, cmp, lit)
    }
    fn product(&self, a: &Col, b: &Col) -> Result<Col> {
        self.0.product(a, b)
    }
    fn affine(&self, col: &Col, mul: f64, add: f64) -> Result<Col> {
        self.0.affine(col, mul, add)
    }
    fn constant_f64(&self, len: usize, value: f64) -> Result<Col> {
        self.0.constant_f64(len, value)
    }
    fn reduction(&self, col: &Col) -> Result<f64> {
        self.0.reduction(col)
    }
    fn prefix_sum(&self, col: &Col) -> Result<Col> {
        self.0.prefix_sum(col)
    }
    fn sort(&self, col: &Col) -> Result<Col> {
        self.0.sort(col)
    }
    fn sort_by_key(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        self.0.sort_by_key(keys, vals)
    }
    fn grouped_sum(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        self.0.grouped_sum(keys, vals)
    }
    fn gather(&self, data: &Col, idx: &Col) -> Result<Col> {
        self.0.gather(data, idx)
    }
    fn scatter(&self, data: &Col, idx: &Col, dst_len: usize) -> Result<Col> {
        self.0.scatter(data, idx, dst_len)
    }
    fn join(&self, outer: &Col, inner: &Col, algo: JoinAlgo) -> Result<(Col, Col)> {
        self.0.join(outer, inner, algo)
    }
    fn grouped_sum_count(&self, keys: &Col, vals: &Col) -> Result<(Col, Col, Col)> {
        self.0.grouped_sum_count(keys, vals)
    }
    fn fused_map(&self, inputs: &[&Col], expr: &FusedExpr) -> Result<Col> {
        self.0.fused_map(inputs, expr)
    }
    fn fused_filter_agg(
        &self,
        inputs: &[&Col],
        preds: &[FusedPred],
        expr: &FusedExpr,
    ) -> Result<f64> {
        self.0.fused_filter_agg(inputs, preds, expr)
    }
}

/// The three planner modes of the plan matrix.
fn modes() -> [(&'static str, PlannerOptions); 3] {
    [
        ("default", PlannerOptions::default()),
        (
            "fusion",
            PlannerOptions {
                fusion: FusionPolicy::on(),
                ..PlannerOptions::default()
            },
        ),
        (
            "costing",
            PlannerOptions {
                costing: Some(CostingOptions::new(
                    &DeviceSpec::gtx1080(),
                    TableStats::new(),
                )),
                ..PlannerOptions::default()
            },
        ),
    ]
}

/// How a case runs Q1.
#[derive(Clone, Copy, Debug)]
enum Case {
    /// Plainly, no faults.
    Clean,
    /// Under 5 % faults at every site, each step retried in place.
    Retried,
    /// Over partitions of `lineitem` sized to a memory budget.
    Partitioned,
    /// The library lane without retries, a handwritten spare behind it.
    Fallback,
}

/// Everything one execution leaves behind on one device.
#[derive(Debug, PartialEq)]
struct Device1 {
    trace: Vec<TraceEvent>,
    stats: DeviceStats,
    live: u64,
    now: SimTime,
}

fn observe(b: &dyn GpuBackend) -> Device1 {
    let dev = b.device();
    Device1 {
        trace: dev.take_trace(),
        stats: dev.stats(),
        live: dev.live_buffers(),
        now: dev.now(),
    }
}

/// The answer's bits: every output, keys and values alike.
fn answer_bits(plan: &PhysicalPlan, out: &Result<PlanOutput>) -> Vec<(String, Vec<u64>)> {
    let Ok(out) = out else {
        return vec![(format!("{out:?}"), Vec::new())];
    };
    plan.outputs()
        .iter()
        .map(|(name, _)| {
            let bits = match (out.u32s(name), out.f64s(name)) {
                (Ok(keys), _) => keys.iter().map(|&k| u64::from(k)).collect(),
                (_, Ok(vals)) => vals.iter().map(|v| v.to_bits()).collect(),
                _ => vec![out.scalar(name).map_or(u64::MAX, f64::to_bits)],
            };
            (name.clone(), bits)
        })
        .collect()
}

/// `name` on a fresh device, tracing, wrapped in [`Forward`] when `wrap`.
fn fresh(name: &str, wrap: bool) -> Box<dyn GpuBackend> {
    let b = Framework::single_backend(&DeviceSpec::gtx1080(), name);
    b.device().set_tracing(true);
    if wrap {
        Box::new(Forward(b))
    } else {
        b
    }
}

/// Run Q1 planned under `opts` on `name` as `case` says, through the
/// adapter or through [`Forward`]: the answer bits and what each device
/// saw.
fn run(
    db: &Database,
    name: &str,
    opts: &PlannerOptions,
    case: Case,
    wrap: bool,
) -> (Vec<(String, Vec<u64>)>, Vec<Device1>) {
    let mut backends = vec![fresh(name, wrap)];
    if let Case::Fallback = case {
        backends.push(fresh("Handwritten", wrap));
    }
    // Q1's base columns on each backend, uploaded in the plan's order.
    let uploads: Vec<Vec<(String, Col)>> = backends
        .iter()
        .map(|b| {
            let upload = |name: String| {
                let col = match db.column(&name) {
                    Some(HostCol::U32(v)) => b.upload_u32(v),
                    Some(HostCol::F64(v)) => b.upload_f64(v),
                    None => panic!("no column {name}"),
                };
                (name, col.unwrap())
            };
            Q1::upload_columns()
                .into_iter()
                .map(|(n, _)| upload(n))
                .collect()
        })
        .collect();
    let plans: Vec<PhysicalPlan> = backends
        .iter()
        .map(|b| optimizer::plan_with(Q1::NAME, &(Q1::LOGICAL_PLAN)(), b.as_ref(), opts).unwrap())
        .collect();
    let binds: Vec<PlanBindings<'_>> = uploads
        .iter()
        .map(|cols| {
            let mut binds = PlanBindings::new();
            for (name, col) in cols {
                binds.bind(name, col);
            }
            binds
        })
        .collect();
    let lanes: Vec<PlanLane<'_>> = backends
        .iter()
        .zip(&plans)
        .zip(&binds)
        .map(|((b, plan), binds)| PlanLane {
            backend: b.as_ref(),
            plan,
            binds,
        })
        .collect();
    let rows = db.lineitem.len() as u64;
    let (recovery, faults) = match case {
        Case::Clean => (PlanRecovery::default(), None),
        Case::Retried => (
            PlanRecovery {
                retry: RetryPolicy { max_retries: 60 },
                ..PlanRecovery::default()
            },
            Some(FaultPlan::uniform(0x5EED, 0.05)),
        ),
        Case::Partitioned => (
            PlanRecovery {
                mem_budget_bytes: Some(rows * 80),
                ..PlanRecovery::default()
            },
            None,
        ),
        Case::Fallback => (
            PlanRecovery {
                retry: RetryPolicy::no_retry(),
                ..PlanRecovery::default()
            },
            Some(FaultPlan::uniform(3, 0.2)),
        ),
    };
    if let Some(faults) = faults {
        backends[0].device().install_fault_plan(faults);
    }
    let source = Q1Data::partition_source(db);
    let source = matches!(case, Case::Partitioned).then_some(&source);
    let out = ResilientPlanExecutor::new(recovery).execute_lanes(&lanes, source);
    let bits = answer_bits(&plans[0], &out);
    drop(lanes);
    drop(binds);
    for (b, cols) in backends.iter().zip(uploads) {
        for (_, col) in cols {
            b.free(col).unwrap();
        }
    }
    (bits, backends.iter().map(|b| observe(b.as_ref())).collect())
}

#[test]
fn a_shared_fold_is_the_per_step_execution_of_every_q1_plan() {
    let db = tpch::generate(0.005);
    for case in [
        Case::Clean,
        Case::Retried,
        Case::Partitioned,
        Case::Fallback,
    ] {
        for (mode, opts) in modes() {
            for name in PAPER_BACKENDS {
                if matches!(case, Case::Fallback) && name == "Handwritten" {
                    continue;
                }
                let what = format!("Q1 / {mode} / {name} / {case:?}");
                let (shared, shared_devices) = run(&db, name, &opts, case, false);
                let (per_step, per_step_devices) = run(&db, name, &opts, case, true);
                assert!(
                    shared.iter().all(|(_, bits)| !bits.is_empty()),
                    "{what}: {shared:?}"
                );
                assert!(shared == per_step, "{what}: answers differ");
                for (i, (s, p)) in shared_devices.iter().zip(&per_step_devices).enumerate() {
                    assert!(s.trace == p.trace, "{what}: device {i} traces differ");
                    assert_eq!(s.stats, p.stats, "{what}: device {i}");
                    assert_eq!(s.live, p.live, "{what}: device {i} live buffers");
                    assert_eq!(s.now, p.now, "{what}: device {i} clock");
                }
            }
        }
    }
}
