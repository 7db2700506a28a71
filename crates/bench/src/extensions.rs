//! Extension experiments beyond the paper's §IV — exercising the design
//! dimensions the paper's discussion raises but does not plot.
//!
//! * **E13** — transfer-inclusive vs. device-resident query cost: §II notes
//!   library chaining causes data movement; this experiment shows the
//!   *other* movement, PCIe, dwarfs everything when data is not resident —
//!   the reason all GPU DBMSs cache columns on the device.
//! * **E14** — multi-aggregate grouping: the library interface forces one
//!   grouped pass per aggregate; a fused kernel produces SUM+COUNT in one.
//! * **A4** — early vs. late materialisation of a selection+product+sum
//!   pipeline across selectivities, on the same (Thrust) backend.
//! * **E17** — resilience under injected transient faults: Q6 per backend
//!   across fault rates, with retries/backoff charged to simulated time.
//! * **E19** — plan-level recovery modes: Q1 per backend across fault
//!   rates, once per recovery mode of the resilient plan executor
//!   (step retry, budgeted partitioned re-execution, replica fallback).
//! * **E20** — general operator fusion: the same filter → project →
//!   aggregate chain compiled twice per backend (composed Table-II
//!   operator chain vs. one `FusedFilterAgg` single-pass kernel),
//!   swept across row counts to locate the fusion break-even the
//!   planner's size-adaptive threshold defaults to.
//!
//! * **E21** — cost-model calibration: the E20 chain's fused and
//!   composed dispatches and an FK join under every Table-II algorithm,
//!   each measured on a fresh device next to the cost model's prediction.
//!
//! Like `crate::operators`, each experiment is a per-backend part
//! function — or, where every measurement needs devices of its own (E17,
//! E19, E21), a `*_cell_on` function handed a fresh backend plus an
//! assemble function that enforces the experiment's invariants;
//! [`crate::experiments::TABLE`] says which cells each experiment has,
//! what each runs on and how their outputs merge.

use gpu_sim::FaultPlan;
use proto_core::backend::{GpuBackend, Pred, Source};
use proto_core::ops::{CmpOp, Connective, JoinAlgo};
use proto_core::resilient::RetryPolicy;
use proto_core::resilient_plan::{PlanRecovery, ResilientPlanExecutor};
use proto_core::runner::{Experiment, Sample};
use proto_core::workload;
use tpch::queries::q1::Q1Row;

use crate::experiments::Part;

/// E13 part — one backend's resident (x=0) and transfer-inclusive (x=1)
/// Q6 samples.
pub(crate) fn e13_part(b: &dyn GpuBackend, sf: f64) -> Vec<Sample> {
    use tpch::queries::q6::Q6Data;
    let db = tpch::cached(sf);
    let mut out = Vec::new();
    // Warm caches with a throwaway round.
    let warm = Q6Data::upload(b, &db).expect("upload");
    warm.execute(b).expect("warm");
    warm.free(b).expect("free");
    let dev = b.device();
    // Resident: data already on device, measure execution only.
    let data = Q6Data::upload(b, &db).expect("upload");
    dev.reset_stats();
    let t0 = dev.now();
    data.execute(b).expect("execute");
    let resident = dev.now() - t0;
    let stats = dev.stats();
    out.push(Sample {
        backend: b.name().to_string(),
        x: 0,
        nanos: resident.as_nanos(),
        cold_nanos: resident.as_nanos(),
        launches: stats.total_launches(),
        kernel_bytes: stats.total_kernel_bytes(),
    });
    data.free(b).expect("free");
    // Transfer-inclusive: upload + execute.
    dev.reset_stats();
    let t1 = dev.now();
    let data = Q6Data::upload(b, &db).expect("upload");
    data.execute(b).expect("execute");
    let inclusive = dev.now() - t1;
    let stats = dev.stats();
    out.push(Sample {
        backend: b.name().to_string(),
        x: 1,
        nanos: inclusive.as_nanos(),
        cold_nanos: inclusive.as_nanos(),
        launches: stats.total_launches(),
        kernel_bytes: stats.total_kernel_bytes(),
    });
    data.free(b).expect("free");
    out
}

/// E14 part — one backend's grouped SUM+COUNT samples across `sizes`.
pub(crate) fn e14_part(b: &dyn GpuBackend, sizes: &[usize]) -> Part {
    let mut part = Part::new();
    for &n in sizes {
        let keys = workload::cache::zipf_keys(n, 64, 0.5, workload::SEED);
        let vals = || workload::cache::uniform_f64(n, workload::SEED ^ 30);
        let k = b.upload_u32(&keys).expect("upload");
        let v = b.upload(n, Source::F64(&vals)).expect("upload");
        let s = proto_core::runner::measure(b, n as u64, || {
            let (gk, sums, counts) = b.grouped_sum_count(&k, &v)?;
            for c in [gk, sums, counts] {
                b.free(c)?;
            }
            Ok(())
        })
        .expect("measure");
        part.push(vec![s]);
        b.free(k).expect("free");
        b.free(v).expect("free");
    }
    part
}

/// A4 part — early vs. late materialisation of `SUM(a·b) WHERE key < θ`
/// on the (Thrust) backend `b` across `selectivities`, two samples per
/// selectivity: (early) select → gather both columns → product → reduce,
/// then (late) product over the full columns → gather the products →
/// reduce. x = selectivity in permille.
pub(crate) fn a4_part(b: &dyn GpuBackend, n: usize, selectivities: &[f64]) -> Vec<Sample> {
    let mut out = Vec::new();
    let a_vals = workload::cache::uniform_f64(n, workload::SEED ^ 40);
    let b_vals = workload::cache::uniform_f64(n, workload::SEED ^ 41);
    for &sel in selectivities {
        let (keys, thr) = workload::cache::selectivity_column(n, sel, workload::SEED);
        let ck = b.upload_u32(&keys).expect("upload");
        let ca = b.upload_f64(&a_vals).expect("upload");
        let cb = b.upload_f64(&b_vals).expect("upload");
        let x = (sel * 1000.0).round() as u64;
        let preds = [Pred {
            col: &ck,
            cmp: CmpOp::Lt,
            lit: thr as f64,
        }];
        // Early materialisation.
        let mut early = proto_core::runner::measure(b, x, || {
            let ids = b.selection_multi(&preds, Connective::And)?;
            let ga = b.gather(&ca, &ids)?;
            let gb = b.gather(&cb, &ids)?;
            let prod = b.product(&ga, &gb)?;
            let _total = b.reduction(&prod)?;
            for c in [ids, ga, gb, prod] {
                b.free(c)?;
            }
            Ok(())
        })
        .expect("measure");
        early.backend = "Thrust/early".into();
        out.push(early);
        // Late materialisation.
        let mut late = proto_core::runner::measure(b, x, || {
            let prod = b.product(&ca, &cb)?;
            let ids = b.selection_multi(&preds, Connective::And)?;
            let g = b.gather(&prod, &ids)?;
            let _total = b.reduction(&g)?;
            for c in [prod, ids, g] {
                b.free(c)?;
            }
            Ok(())
        })
        .expect("measure");
        late.backend = "Thrust/late".into();
        out.push(late);
        for c in [ck, ca, cb] {
            b.free(c).expect("free");
        }
    }
    out
}

/// One E17 measurement cell: Q6 at fault rate `permille` (x =
/// probability in permille, uniform across every allocation / transfer /
/// launch site) on `b`, a fresh backend behind a [`ResilientBackend`]
/// retry wrapper; this installs the fault plan. Returns the sample, the
/// revenue (asserted rate-invariant at assembly) and the number of faults
/// observed in the two countable windows. The measured degradation is
/// the *recovered* cost: injected fault latency plus exponential
/// backoff, all charged to the simulated clock.
///
/// [`ResilientBackend`]: proto_core::resilient::ResilientBackend
pub(crate) fn e17_cell_on(b: &dyn GpuBackend, sf: f64, permille: u64) -> (Sample, f64, u64) {
    use tpch::queries::q6::Q6Data;
    let db = tpch::cached(sf);
    let dev = b.device();
    if permille > 0 {
        dev.install_fault_plan(FaultPlan::uniform(
            workload::SEED ^ permille,
            permille as f64 / 1000.0,
        ));
    }
    let data = Q6Data::upload(b, &db).expect("upload");
    // `measure` resets statistics between its cold and warm runs, so
    // count injected faults in the two observable windows (upload, warm
    // region); the cold window is lost to the reset.
    let mut faults = dev.stats().faults_injected;
    let mut revenue = 0.0;
    let s = proto_core::runner::measure(b, permille, || {
        revenue = data.execute(b)?;
        Ok(())
    })
    .expect("Q6 must complete under faults");
    faults += dev.stats().faults_injected;
    data.free(b).expect("free");
    (s, revenue, faults)
}

/// Assemble E17 from its cells, in `(rate, backend)` serial order, and
/// enforce the experiment's invariants: answers are identical across
/// fault rates per backend (retried operators re-execute identically —
/// backends differ from each other only by float summation order), and a
/// sweep over nonzero rates must actually observe faults.
pub(crate) fn e17_assemble(rates_permille: &[u64], cells: Vec<(Sample, f64, u64)>) -> Experiment {
    let mut exp = Experiment::new(
        "E17",
        "Q6 under injected transient faults (resilient execution)",
        "fault_permille",
    );
    let mut baseline: std::collections::HashMap<String, f64> = Default::default();
    let mut observed_faults = 0;
    let swept_nonzero_rate = rates_permille.iter().any(|&p| p > 0);
    for (s, revenue, faults) in cells {
        observed_faults += faults;
        let expect = *baseline.entry(s.backend.clone()).or_insert(revenue);
        assert_eq!(revenue, expect, "{}: faults changed the answer", s.backend);
        exp.push(s);
    }
    assert!(
        !swept_nonzero_rate || observed_faults > 0,
        "nonzero fault rates swept but no fault ever observed"
    );
    exp
}

/// Default row-count sweep for E20 — spans the fused-kernel break-even
/// (the planner's `DEFAULT_FUSION_THRESHOLD` of 25K rows sits between
/// 2^14 and 2^15).
pub(crate) fn e20_default_sizes() -> Vec<usize> {
    vec![1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20]
}

/// The E20 query: a two-predicate conjunctive filter over a synthetic
/// three-column table and one compound arithmetic aggregate —
/// `SUM(a · (1 − 0.5·b)) WHERE key < θ AND a < 0.9`. Unfused this
/// lowers to selection → 2× gather → 2× affine map → product → reduce;
/// the general fusion pass collapses the whole chain into a single
/// [`proto_core::physical::Step::FusedFilterAgg`] kernel. The `key`
/// column is `u32` and read mask-only, so the fused kernels consume it
/// natively (no f64 round-trip).
pub(crate) fn e20_logical_plan(threshold: f64) -> proto_core::logical::LogicalPlan {
    use proto_core::logical::{AggExpr, ColumnDecl, LogicalPlan};
    use proto_core::plan::{Expr, Predicate};
    LogicalPlan::scan(
        "t",
        vec![
            ColumnDecl::u32("key"),
            ColumnDecl::f64("a"),
            ColumnDecl::f64("b"),
        ],
    )
    .filter(Predicate::And(vec![
        Predicate::cmp("t.key", proto_core::ops::CmpOp::Lt, threshold),
        Predicate::cmp("t.a", proto_core::ops::CmpOp::Lt, 0.9),
    ]))
    .aggregate(
        None,
        vec![(
            "acc",
            AggExpr::Sum(Expr::col("t.a") * (Expr::lit(1.0) - Expr::lit(0.5) * Expr::col("t.b"))),
        )],
    )
}

/// E20 part — one backend's fused-vs-unfused samples across `sizes`
/// (two samples per size, unfused first, labelled `"{name}/unfused"` /
/// `"{name}/fused"`).
///
/// Per size the [`e20_logical_plan`] chain is compiled twice: once with
/// fusion off (the composed operator chain the library interface
/// forces) and once with the general fusion pass on at
/// threshold 0, so the single-pass kernel dispatches at every size.
/// Both compilations execute against the same device columns and their
/// answers are asserted bit-identical — fusion is a pure cost knob.
pub(crate) fn e20_part(b: &dyn GpuBackend, sizes: &[usize]) -> Part {
    use proto_core::optimizer::{plan_with, FusionPolicy, PlannerOptions};
    use proto_core::physical::{PlanBindings, Step};
    let mut part = Part::new();
    for &n in sizes {
        let (keys, thr) = workload::cache::selectivity_column(n, 0.5, workload::SEED ^ 50);
        let a_vals = workload::cache::uniform_f64(n, workload::SEED ^ 51);
        let b_vals = workload::cache::uniform_f64(n, workload::SEED ^ 52);
        let logical = e20_logical_plan(f64::from(thr));
        let ck = b.upload_u32(&keys).expect("upload");
        let ca = b.upload_f64(&a_vals).expect("upload");
        let cb = b.upload_f64(&b_vals).expect("upload");
        let mut binds = PlanBindings::new();
        binds.bind("t.key", &ck).bind("t.a", &ca).bind("t.b", &cb);
        let mut answers: Vec<f64> = Vec::new();
        let mut row = Vec::new();
        for fused in [false, true] {
            let opts = PlannerOptions {
                fusion: FusionPolicy {
                    threshold: fused.then_some(0),
                },
                costing: None,
            };
            let tag = if fused { "fused" } else { "unfused" };
            let plan = plan_with(&format!("E20/{tag}"), &logical, b, &opts).expect("plan");
            let has_fused_step = plan
                .steps()
                .iter()
                .any(|s| matches!(s, Step::FusedFilterAgg { .. }));
            assert_eq!(has_fused_step, fused, "E20/{tag}:\n{}", plan.explain());
            let mut s = proto_core::runner::measure(b, n as u64, || {
                answers.push(plan.execute(b, &binds)?.scalar("acc")?);
                Ok(())
            })
            .expect("measure");
            s.backend = format!("{}/{tag}", s.backend);
            row.push(s);
        }
        assert!(
            answers.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()),
            "{} @ {n}: fusion changed the answer: {answers:?}",
            b.name()
        );
        part.push(row);
        for c in [ck, ca, cb] {
            b.free(c).expect("free");
        }
    }
    part
}

/// Default row-count sweep for E21's fused-vs-composed accuracy cells.
pub(crate) fn e21_default_sizes() -> Vec<usize> {
    vec![1 << 12, 1 << 14, 1 << 16, 1 << 18]
}

/// Default probe-side row counts for E21's join-algorithm cells.
pub(crate) fn e21_default_join_sizes() -> Vec<usize> {
    vec![1 << 10, 1 << 12, 1 << 14]
}

/// Stated relative error band of the cost model: every E21 cell's
/// predicted cold and warm totals must land within this fraction of the
/// simulated measurement (asserted by `e21_assemble`, tabulated in
/// EXPERIMENTS.md). The symbolic walk reproduces the simulator's charge
/// sequences exactly, so the only residual is cardinality estimation —
/// observed worst-case ≈0.5% across the default grid; 5% leaves margin
/// for other seeds and sizes.
pub const E21_ERROR_BAND: f64 = 0.05;

/// Decision regret bound: the candidate the cost model picks may be at
/// most this factor slower than the empirically fastest alternative.
pub const E21_REGRET: f64 = 1.05;

/// Join algorithms the E21 join sweep prices — the full Table-II set,
/// measured on the handwritten baseline (the one backend implementing
/// all three).
pub const E21_JOIN_ALGOS: [JoinAlgo; 3] = [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::NestedLoops];

/// A measured sample's predicted counterpart: `nanos` carries the
/// fully-warm prediction, `cold_nanos` the fresh-device prediction,
/// `launches` the modelled kernel count and `kernel_bytes` the modelled
/// global-memory traffic.
fn e21_predicted(label: String, x: u64, report: &proto_core::costing::CostReport) -> Sample {
    Sample {
        backend: label,
        x,
        nanos: report.warm_ns(),
        cold_nanos: report.cold_ns(),
        launches: report.steps.iter().map(|s| u64::from(s.kernels)).sum(),
        kernel_bytes: report
            .steps
            .iter()
            .map(|s| s.bytes_read + s.bytes_written)
            .sum(),
    }
}

/// One E21 fusion cell on the fresh backend `b`: the E20 chain at `n`
/// rows under one dispatch (`fused` pins the threshold to always-fused;
/// otherwise the composed chain), returning the measured sample
/// (`"{name}/{tag}"`) and its prediction (`"{name}/{tag}/pred"`).
pub(crate) fn e21_fusion_cell_on(b: &dyn GpuBackend, n: usize, fused: bool) -> (Sample, Sample) {
    use proto_core::costing::{CostModel, TableStats};
    use proto_core::optimizer::{plan_with, FusionPolicy, PlannerOptions};
    use proto_core::physical::PlanBindings;
    let (keys, thr) = workload::cache::selectivity_column(n, 0.5, workload::SEED ^ 50);
    let a_vals = workload::cache::uniform_f64(n, workload::SEED ^ 51);
    let b_vals = workload::cache::uniform_f64(n, workload::SEED ^ 52);
    let logical = e20_logical_plan(f64::from(thr));
    let tag = if fused { "fused" } else { "composed" };
    let opts = PlannerOptions {
        fusion: FusionPolicy {
            threshold: fused.then_some(0),
        },
        costing: None,
    };
    let plan = plan_with(&format!("E21/{tag}"), &logical, b, &opts).expect("plan");
    // The workload's true selectivities (the key column is drawn at
    // 0.5, `a < 0.9` keeps 0.9 of a uniform column): E21 calibrates the
    // *cost* model, so cardinality estimation is held at ground truth.
    let stats = TableStats::new()
        .with_rows("t", n)
        .with_selectivity("t.key", 0.5)
        .with_selectivity("t.a", 0.9);
    let report = CostModel::new(&crate::paper_device(), &stats).cost_plan(&plan);
    let ck = b.upload_u32(&keys).expect("upload");
    let ca = b.upload_f64(&a_vals).expect("upload");
    let cb = b.upload_f64(&b_vals).expect("upload");
    let mut binds = PlanBindings::new();
    binds.bind("t.key", &ck).bind("t.a", &ca).bind("t.b", &cb);
    let mut s = proto_core::runner::measure(b, n as u64, || {
        plan.execute(b, &binds)?.scalar("acc").map(drop)
    })
    .expect("measure");
    s.backend = format!("{}/{tag}", b.name());
    let pred = e21_predicted(format!("{}/{tag}/pred", b.name()), n as u64, &report);
    for c in [ck, ca, cb] {
        b.free(c).expect("free");
    }
    (s, pred)
}

/// The E21 join query: a foreign-key fact→dim join carrying one
/// probe-side payload into a scalar sum — the smallest plan whose cost
/// varies across all three Table-II join algorithms.
pub(crate) fn e21_join_plan() -> proto_core::logical::LogicalPlan {
    use proto_core::logical::{AggExpr, ColumnDecl, JoinCol, LogicalPlan};
    use proto_core::plan::Expr;
    LogicalPlan::join(
        LogicalPlan::scan("dim", vec![ColumnDecl::u32("key")]),
        LogicalPlan::scan("fact", vec![ColumnDecl::u32("key"), ColumnDecl::f64("val")]),
        "dim.key",
        "fact.key",
        vec![JoinCol::probe("m_val", "fact.val")],
    )
    .aggregate(None, vec![("total", AggExpr::Sum(Expr::col("m_val")))])
}

/// One E21 join cell on the fresh backend `b` (the grid uses
/// Handwritten, the one backend implementing every algorithm): the FK
/// join at `outer` probe rows (dim = outer/4) forced through `algo`.
pub(crate) fn e21_join_cell_on(
    b: &dyn GpuBackend,
    outer: usize,
    algo: JoinAlgo,
) -> (Sample, Sample) {
    use proto_core::costing::{CostModel, TableStats};
    use proto_core::optimizer::{plan_with_algo, PlannerOptions};
    use proto_core::physical::PlanBindings;
    let dim = (outer / 4).max(1);
    let dim_keys: Vec<u32> = (0..dim as u32).collect();
    let fact_keys: Vec<u32> = (0..outer)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761) % dim as u32)
        .collect();
    let vals = workload::cache::uniform_f64(outer, workload::SEED ^ 70);
    let plan = plan_with_algo(
        "E21/join",
        &e21_join_plan(),
        b,
        &PlannerOptions::default(),
        algo,
    )
    .expect("plan");
    let stats = TableStats::new()
        .with_rows("dim", dim)
        .with_rows("fact", outer);
    let report = CostModel::new(&crate::paper_device(), &stats).cost_plan(&plan);
    let dk = b.upload_u32(&dim_keys).expect("upload");
    let fk = b.upload_u32(&fact_keys).expect("upload");
    let fv = b.upload_f64(&vals).expect("upload");
    let mut binds = PlanBindings::new();
    binds
        .bind("dim.key", &dk)
        .bind("fact.key", &fk)
        .bind("fact.val", &fv);
    let mut s = proto_core::runner::measure(b, outer as u64, || {
        plan.execute(b, &binds)?.scalar("total").map(drop)
    })
    .expect("measure");
    s.backend = format!("{}/join-{algo:?}", b.name());
    let pred = e21_predicted(
        format!("{}/join-{algo:?}/pred", b.name()),
        outer as u64,
        &report,
    );
    for c in [dk, fk, fv] {
        b.free(c).expect("free");
    }
    (s, pred)
}

/// Assemble E21 and enforce its two claims:
///
/// 1. **Accuracy** — every cell's predicted cold and warm totals land
///    within [`E21_ERROR_BAND`] of the simulated measurement.
/// 2. **Decisions** — replaying the costed planner's metric (the
///    predicted cold total) over each candidate group picks an
///    alternative whose *measured* cold time is within [`E21_REGRET`]
///    of the empirically fastest.
///
/// `fusion` arrives as `[composed, fused]` pairs per (size, backend);
/// `join` in [`E21_JOIN_ALGOS`] order per probe size — the orders the
/// costed planner enumerates candidates in, so ties break identically.
pub(crate) fn e21_assemble(
    fusion: Vec<(Sample, Sample)>,
    join: Vec<(Sample, Sample)>,
) -> Experiment {
    let mut exp = Experiment::new(
        "E21",
        "Cost-model calibration: predicted vs. simulated, and the costed planner's picks",
        "rows",
    );
    for (m, p) in fusion.iter().chain(join.iter()) {
        for (what, measured, predicted) in [
            ("cold", m.cold_nanos, p.cold_nanos),
            ("warm", m.nanos, p.nanos),
        ] {
            let err = (predicted as f64 - measured as f64).abs() / measured as f64;
            assert!(
                err <= E21_ERROR_BAND,
                "{} @ {} rows: {what} predicted {predicted} ns vs measured {measured} ns \
                 ({:.0}% off, band {:.0}%)",
                m.backend,
                m.x,
                err * 100.0,
                E21_ERROR_BAND * 100.0
            );
        }
    }
    let check_group = |group: &[(Sample, Sample)]| {
        let chosen = group
            .iter()
            .min_by_key(|(_, p)| p.cold_nanos)
            .expect("non-empty candidate group");
        let fastest = group
            .iter()
            .map(|(m, _)| m.cold_nanos)
            .min()
            .expect("non-empty candidate group");
        assert!(
            (chosen.0.cold_nanos as f64) <= fastest as f64 * E21_REGRET,
            "{} @ {} rows: cost model picked a candidate measuring {} ns, \
             fastest alternative measures {} ns (regret bound {E21_REGRET})",
            chosen.0.backend,
            chosen.0.x,
            chosen.0.cold_nanos,
            fastest
        );
    };
    for pair in fusion.chunks(2) {
        check_group(pair);
    }
    for group in join.chunks(E21_JOIN_ALGOS.len()) {
        check_group(group);
    }
    for (m, p) in fusion.into_iter().chain(join) {
        exp.push(m);
        exp.push(p);
    }
    exp
}

/// The recovery modes E19 sweeps — one resilient-plan-executor
/// configuration each.
pub const E19_MODES: [&str; 3] = ["retry", "partition", "fallback"];

/// One E19 measurement cell: Q1 on the fresh backend `b` through the
/// resilient plan executor in recovery mode `mode` at fault rate
/// `permille` (uniform across every fault site including plan steps);
/// this installs the fault plan on the primary only — `spare`, which the
/// fallback mode needs, models a healthy standby. Returns the sample
/// (labelled `"{name}/{mode}"`), the result rows (asserted
/// rate-invariant at assembly) and the number of recovery actions
/// observed (injected faults + retries + fallbacks + plan partitions).
///
/// Unlike E17 (operator-level retry), E19 recovers at *plan*
/// granularity: completed steps are checkpointed and never recomputed,
/// OOM escalates to partitioned re-execution, and a dead lane hands its
/// checkpoints to a replica.
pub(crate) fn e19_cell_on(
    b: &dyn GpuBackend,
    spare: Option<&dyn GpuBackend>,
    sf: f64,
    mode: &str,
    permille: u64,
) -> (Sample, Vec<Q1Row>, u64) {
    use tpch::queries::q1::Q1Data;
    let db = tpch::cached(sf);
    let dev = b.device();
    // Same depth rationale as E17: backoff is simulated time.
    let deep = RetryPolicy { max_retries: 60 };
    let exec = match mode {
        "retry" => ResilientPlanExecutor::new(PlanRecovery {
            retry: deep,
            ..PlanRecovery::default()
        }),
        // ~4 partitions: Q1's partition source is 40 B/row and the
        // executor sizes chunks with an 8x working-set slack (320
        // B/row), so a budget of 80 B x rows yields rows/4 chunks.
        "partition" => ResilientPlanExecutor::new(PlanRecovery {
            retry: deep,
            mem_budget_bytes: Some(db.lineitem.len() as u64 * 80),
        }),
        // No in-place retries: the first transient kills the lane and
        // the replica takes over from the last checkpoint.
        "fallback" => ResilientPlanExecutor::new(PlanRecovery {
            retry: RetryPolicy::no_retry(),
            ..PlanRecovery::default()
        }),
        other => panic!("unknown E19 mode {other}"),
    };
    // Partition mode replays entirely from the host partition source
    // (each chunk stages its own window under the budget), so the
    // full-table working set is never uploaded in that mode.
    let data = (mode != "partition").then(|| Q1Data::upload(b, &db).expect("upload"));
    let spare_data = spare.map(|sb| (Q1Data::upload(sb, &db).expect("upload"), sb));
    if permille > 0 {
        dev.install_fault_plan(FaultPlan::uniform(
            workload::SEED ^ (31 * permille),
            permille as f64 / 1000.0,
        ));
    }
    // As in E17, `measure` resets statistics between its cold and warm
    // runs: count recovery actions in the two observable windows.
    let mut recoveries = recovery_count(b, spare);
    let mut rows = Vec::new();
    let mut s = proto_core::runner::measure(b, permille, || {
        rows = match mode {
            "partition" => Q1Data::execute_budgeted(b, &exec, &db)?,
            "fallback" => {
                let (sd, sb) = spare_data.as_ref().expect("fallback needs a spare");
                let data = data.as_ref().expect("fallback uploads the working set");
                data.execute_with_fallback(b, (sd, *sb), &exec)?
            }
            _ => {
                let data = data.as_ref().expect("retry uploads the working set");
                data.execute_with(b, &exec)?
            }
        };
        Ok(())
    })
    .expect("Q1 must complete under faults");
    recoveries += recovery_count(b, spare);
    if let Some((sd, sb)) = spare_data {
        sd.free(sb).expect("free");
    }
    if let Some(data) = data {
        data.free(b).expect("free");
    }
    s.backend = format!("{}/{mode}", s.backend);
    (s, rows, recoveries)
}

fn recovery_count(b: &dyn GpuBackend, spare: Option<&dyn GpuBackend>) -> u64 {
    let count = |st: gpu_sim::DeviceStats| {
        st.faults_injected + st.retries + st.fallbacks + st.plan_partitions
    };
    count(b.device().stats()) + spare.map_or(0, |sb| count(sb.device().stats()))
}

/// Assemble E19 from its cells, in `(rate, mode, backend)` serial order,
/// and enforce the experiment's invariants: per `(backend, mode)` the
/// result rows are identical across fault rates (retry and fallback
/// replay the exact operator sequence; partitioning is budget-driven, so
/// its chunking — and thus its float summation order — does not depend
/// on the fault rate), and a sweep over nonzero rates must observe at
/// least one recovery action.
pub(crate) fn e19_assemble(
    rates_permille: &[u64],
    cells: Vec<(Sample, Vec<Q1Row>, u64)>,
) -> Experiment {
    let mut exp = Experiment::new(
        "E19",
        "Q1 plan-level recovery (retry / partition / fallback) under injected faults",
        "fault_permille",
    );
    let mut baseline: std::collections::HashMap<String, Vec<Q1Row>> = Default::default();
    let mut observed = 0;
    let swept_nonzero_rate = rates_permille.iter().any(|&p| p > 0);
    for (s, rows, recoveries) in cells {
        observed += recoveries;
        let expect = baseline
            .entry(s.backend.clone())
            .or_insert_with(|| rows.clone());
        assert_eq!(
            &rows, expect,
            "{}: plan-level recovery changed the answer",
            s.backend
        );
        exp.push(s);
    }
    assert!(
        !swept_nonzero_rate || observed > 0,
        "nonzero fault rates swept but no recovery action ever observed"
    );
    exp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::serial;
    use crate::grid::GridConfig;
    use crate::paper_framework;
    use crate::traced::lint_config;
    use proto_core::framework::Framework;

    #[test]
    fn e13_transfers_dominate_resident_execution() {
        let exp = serial(
            "E13",
            GridConfig {
                e13_sf: 0.02,
                ..lint_config()
            },
        );
        for b in ["Thrust", "Handwritten", "ArrayFire"] {
            let resident = exp.get(b, 0).unwrap().nanos;
            let inclusive = exp.get(b, 1).unwrap().nanos;
            assert!(
                inclusive > 3 * resident,
                "{b}: inclusive {inclusive} vs resident {resident}"
            );
        }
    }

    #[test]
    fn e14_fused_multi_aggregate_wins_and_answers_match() {
        let fw = paper_framework();
        let exp = serial(
            "E14",
            GridConfig {
                sizes: vec![1 << 18],
                ..lint_config()
            },
        );
        let hw = exp.get("Handwritten", 1 << 18).unwrap();
        let th = exp.get("Thrust", 1 << 18).unwrap();
        assert!(hw.nanos * 4 < th.nanos, "{} vs {}", hw.nanos, th.nanos);
        assert!(hw.launches < th.launches);

        // Semantics: default composition equals the fused override.
        let keys = workload::zipf_keys(5_000, 16, 0.5, 1);
        let vals = workload::uniform_f64(5_000, 2);
        let mut answers = Vec::new();
        for b in fw.backends() {
            let k = b.upload_u32(&keys).unwrap();
            let v = b.upload_f64(&vals).unwrap();
            let (gk, sums, counts) = b.grouped_sum_count(&k, &v).unwrap();
            let a = (
                b.download_u32(&gk).unwrap(),
                b.download_f64(&sums)
                    .unwrap()
                    .iter()
                    .map(|x| (x * 1e6).round() as i64)
                    .collect::<Vec<_>>(),
                b.download_f64(&counts)
                    .unwrap()
                    .iter()
                    .map(|x| *x as u64)
                    .collect::<Vec<_>>(),
            );
            answers.push((b.name(), a));
            for c in [gk, sums, counts, k, v] {
                b.free(c).unwrap();
            }
        }
        for w in answers.windows(2) {
            assert_eq!(w[0].1, w[1].1, "{} vs {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn e20_fused_chain_wins_at_scale_on_every_backend() {
        let exp = serial(
            "E20",
            GridConfig {
                e20_sizes: vec![1 << 12, 1 << 18],
                ..lint_config()
            },
        );
        // 2 sizes × 4 backends × {unfused, fused}; answer bit-equality
        // is asserted inside the parts.
        assert_eq!(exp.samples.len(), 16);
        for name in proto_core::backends::PAPER_BACKENDS {
            let unfused = exp.get(&format!("{name}/unfused"), 1 << 18).unwrap();
            let fused = exp.get(&format!("{name}/fused"), 1 << 18).unwrap();
            assert!(
                fused.nanos < unfused.nanos,
                "{name}: fused {} vs unfused {} at 2^18 rows",
                fused.nanos,
                unfused.nanos
            );
            assert!(
                fused.launches < unfused.launches,
                "{name}: the fused plan must launch fewer kernels \
                 ({} vs {})",
                fused.launches,
                unfused.launches
            );
        }
    }

    #[test]
    fn e17_faults_cost_time_but_add_none_when_absent() {
        let exp = serial(
            "E17",
            GridConfig {
                e17_sf: 0.002,
                e17_rates: vec![0, 100],
                ..lint_config()
            },
        );
        // Faults only ever slow execution down (answer equality is
        // asserted inside the experiment itself).
        let mut slowed = 0;
        for b in ["ArrayFire", "Boost.Compute", "Thrust", "Handwritten"] {
            let clean = exp.get(b, 0).unwrap().nanos;
            let faulty = exp.get(b, 100).unwrap().nanos;
            assert!(faulty >= clean, "{b}: {faulty} vs {clean}");
            if faulty > clean {
                slowed += 1;
            }
        }
        assert!(slowed >= 2, "10% faults must slow most backends");

        // At rate 0 the resilient wrapper costs nothing: the measured Q6
        // time equals the plain (unwrapped) framework bit-for-bit.
        let fw = paper_framework();
        let db = tpch::generate(0.002);
        for b in fw.backends() {
            use tpch::queries::q6::Q6Data;
            let data = Q6Data::upload(b.as_ref(), &db).unwrap();
            let s = proto_core::runner::measure(b.as_ref(), 0, || {
                data.execute(b.as_ref())?;
                Ok(())
            })
            .unwrap();
            data.free(b.as_ref()).unwrap();
            assert_eq!(
                s.nanos,
                exp.get(b.name(), 0).unwrap().nanos,
                "{}: resilient wrapper must be free without faults",
                b.name()
            );
        }
    }

    #[test]
    fn e19_recovery_modes_preserve_answers_and_recover() {
        let exp = serial(
            "E19",
            GridConfig {
                e19_sf: 0.002,
                e19_rates: vec![0, 50],
                ..lint_config()
            },
        );
        // 2 rates x 3 modes x 4 backends.
        assert_eq!(exp.samples.len(), 24);
        // Answer equality across rates is asserted inside assembly;
        // here, check the modes actually engage their machinery. Faults
        // only cost time on the retry and partition paths; the fallback
        // sample charges the *primary* device, whose lane dying early
        // legitimately shortens its clock (the replica's replay runs on
        // the standby's clock).
        for mode in ["retry", "partition"] {
            for name in proto_core::backends::PAPER_BACKENDS {
                let label = format!("{name}/{mode}");
                let clean = exp.get(&label, 0).unwrap().nanos;
                let faulty = exp.get(&label, 50).unwrap().nanos;
                assert!(faulty >= clean, "{label}: {faulty} vs {clean}");
            }
        }
        // Partition mode actually partitions (and costs chunk uploads).
        let fresh = |name| Framework::single_backend(&crate::paper_device(), name);
        let (_, _, rec) = e19_cell_on(fresh("Handwritten").as_ref(), None, 0.002, "partition", 0);
        assert!(rec > 0, "partition mode must record plan partitions");
        // Fallback mode survives a lane death somewhere in the sweep:
        // at 5% per-step fault rate with no retries, at least one
        // backend's primary lane dies and the replica completes.
        let fell_back: u64 = proto_core::backends::PAPER_BACKENDS
            .iter()
            .map(|name| {
                let (b, spare) = (fresh(name), fresh(name));
                e19_cell_on(b.as_ref(), Some(spare.as_ref()), 0.002, "fallback", 50).2
            })
            .sum();
        assert!(fell_back > 0, "no fallback engaged at 5% faults");
    }

    #[test]
    fn a4_late_wins_at_high_selectivity_early_at_low() {
        let exp = serial(
            "A4",
            GridConfig {
                a4_n: 1 << 20,
                a4_sels: vec![0.01, 0.99],
                ..lint_config()
            },
        );
        let early_lo = exp.get("Thrust/early", 10).unwrap().nanos;
        let late_lo = exp.get("Thrust/late", 10).unwrap().nanos;
        assert!(
            early_lo < late_lo,
            "1% selectivity: early {early_lo} beats late {late_lo}"
        );
        let early_hi = exp.get("Thrust/early", 990).unwrap().nanos;
        let late_hi = exp.get("Thrust/late", 990).unwrap().nanos;
        assert!(
            late_hi < early_hi,
            "99% selectivity: late {late_hi} beats early {early_hi}"
        );
    }
}
