//! Plan-level fault tolerance: checkpointed, budget-aware, resumable
//! execution of [`PhysicalPlan`]s.
//!
//! [`crate::resilient`] recovers individual *operator calls*; this module
//! recovers whole *plans*. [`ResilientPlanExecutor`] drives
//! `PhysicalPlan`'s per-step interpreter and layers four mechanisms on
//! top, escalating in order:
//!
//! 1. **Step-granular retry** — a transient fault
//!    ([`SimError::is_transient`]) replays only the failed [`Step`],
//!    with [`RetryPolicy`] backoff charged to the simulated clock
//!    ([`gpu_sim::Device::note`]). Completed slots are the
//!    checkpoint: they are never recomputed.
//! 2. **Slot checkpointing** — every completed step's output slots
//!    survive a retry or fallback. A plan's explicit frees are
//!    respected: a freed slot is never checkpointed, because the
//!    lowering writes every slot once, before any free of it.
//! 3. **Partitioned re-execution** — on out-of-memory, plans whose shape
//!    is *partition-safe* (see [the contract](#partition-safety)) re-run
//!    over horizontal row partitions of the columns named by a
//!    [`PartitionSource`], merging per-partition outputs. With
//!    [`PlanRecovery::mem_budget_bytes`] set, partitioning is applied up
//!    front, sized to the budget, without waiting for an OOM.
//! 4. **Backend fallback** — a lane chain ([`PlanLane`], by convention
//!    library first, handwritten last) replays a failed plan on the next
//!    backend, carrying every host-resident checkpoint forward when the
//!    lowered step lists agree (device columns cannot cross backends).
//!    Counted via [`gpu_sim::Device::note`].
//!
//! Fault injection at plan granularity goes through
//! [`gpu_sim::Device::inject_plan_step_fault`]
//! ([`gpu_sim::FaultSite::PlanStep`]), drawn once per step *attempt*
//! before the step runs — so a replay is always of a not-yet-applied
//! step, and with no fault plan installed the executor is free: the
//! backend-call sequence (and therefore the trace, the stats, and the
//! simulated clock) is byte-identical to [`PhysicalPlan::execute`].
//!
//! # Partition safety
//!
//! A plan is partition-safe for a given [`PartitionSource`] when its
//! outputs can be reassembled from per-partition runs:
//!
//! * scalar reductions over partition-dependent data merge by **sum**;
//! * grouped aggregates merge **by key** (one `u32` key output, `f64`
//!   value outputs co-keyed with it);
//! * anything partition-independent is identical in every chunk and is
//!   taken from the first;
//! * joins are allowed only when the **build (inner) side** is
//!   partition-independent — partitioning the build side would change
//!   per-partition join results;
//! * grouped outputs must flow straight to downloads/outputs (re-using a
//!   grouped result inside the plan — the Q4 `EXISTS` distinct pattern —
//!   does not distribute over row partitions);
//! * value-ordered or row-limited host sorts over partition-dependent
//!   data (top-k) are not mergeable;
//! * row-id outputs and partition-dependent vector outputs are refused.
//!
//! The analysis is a conservative static walk over the step list; plans
//! it cannot prove safe get a clean [`SimError::Unsupported`] and the
//! executor falls back to the next lane instead (Q1/Q6/Q14 partition,
//! Q3/Q4/Q5 refuse).
//!
//! Partition-mode results are *numerically* equal to unpartitioned runs
//! but not bit-identical (floating-point reassociation across chunk
//! boundaries); the bit-identity guarantee applies to the retry,
//! checkpoint-resume and fallback paths, which replay the exact same
//! operator sequence.

use crate::backend::{Col, GpuBackend};
use crate::physical::{
    ColRef, PhysicalPlan, PlanBindings, PlanOutput, PlanValue, RowShape, SlotKind, SlotVal, Step,
    StepRead,
};
use crate::resilient::{retry_with_policy, RetryPolicy};
use gpu_sim::{Recovery, Result, SimDuration, SimError};
use std::collections::{BTreeMap, BTreeSet};

/// Smallest partition, in rows, that partitioned execution will try.
const MIN_CHUNK: usize = 1024;

/// Recovery configuration for one plan execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanRecovery {
    /// Per-step retry policy (transient faults and OOM).
    pub retry: RetryPolicy,
    /// Device-memory budget for partitioned execution. When set (and a
    /// [`PartitionSource`] is supplied), the executor partitions up
    /// front, sizing chunks to the budget, instead of waiting for OOM.
    pub mem_budget_bytes: Option<u64>,
}

/// One host-resident column a plan may be partitioned over.
#[derive(Debug, Clone, Copy)]
pub enum HostCol<'a> {
    /// A `u32` column.
    U32(&'a [u32]),
    /// An `f64` column.
    F64(&'a [f64]),
}

impl HostCol<'_> {
    fn len(&self) -> usize {
        match self {
            HostCol::U32(v) => v.len(),
            HostCol::F64(v) => v.len(),
        }
    }

    fn bytes_per_row(&self) -> u64 {
        match self {
            HostCol::U32(_) => 4,
            HostCol::F64(_) => 8,
        }
    }
}

/// The host-side columns of the table a plan can be re-executed over in
/// horizontal partitions. All columns must have equal length; every
/// other base column binding is treated as partition-independent (a
/// whole table) and reused from the lane's bindings.
#[derive(Debug, Clone, Default)]
pub struct PartitionSource<'a> {
    cols: BTreeMap<String, HostCol<'a>>,
}

impl<'a> PartitionSource<'a> {
    /// An empty source.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a partitioned `u32` column under its qualified name.
    pub fn bind_u32(&mut self, name: &str, data: &'a [u32]) -> &mut Self {
        self.cols.insert(name.to_string(), HostCol::U32(data));
        self
    }

    /// Register a partitioned `f64` column under its qualified name.
    pub fn bind_f64(&mut self, name: &str, data: &'a [f64]) -> &mut Self {
        self.cols.insert(name.to_string(), HostCol::F64(data));
        self
    }

    /// Whether `name` is one of the partitioned columns.
    pub fn contains(&self, name: &str) -> bool {
        self.cols.contains_key(name)
    }

    /// The common row count of the partitioned columns.
    pub fn rows(&self) -> Result<usize> {
        let mut rows = None;
        for (name, col) in &self.cols {
            match rows {
                None => rows = Some(col.len()),
                Some(n) if n == col.len() => {}
                Some(n) => {
                    return Err(SimError::Unsupported(format!(
                        "partitioned column `{name}` has {} rows, expected {n}",
                        col.len()
                    )))
                }
            }
        }
        Ok(rows.unwrap_or(0))
    }

    fn bytes_per_row(&self) -> u64 {
        self.cols.values().map(HostCol::bytes_per_row).sum()
    }
}

/// One (backend, plan, bindings) triple of a fallback chain. Plans are
/// compiled per backend and device columns never cross backends, so each
/// lane carries its own lowering and bindings.
pub struct PlanLane<'a> {
    /// The backend this lane executes on.
    pub backend: &'a dyn GpuBackend,
    /// The plan lowered for this backend.
    pub plan: &'a PhysicalPlan,
    /// Base-column bindings resident on this backend.
    pub binds: &'a PlanBindings<'a>,
}

impl std::fmt::Debug for PlanLane<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanLane")
            .field("backend", &self.backend.name())
            .field("plan", &self.plan.query())
            .finish()
    }
}

/// Outcome of one lane attempt that did not complete.
struct LaneFail {
    err: SimError,
    failed_step: usize,
    /// Host-resident checkpoints surviving the attempt (device columns
    /// already released).
    host: Vec<Option<SlotVal>>,
}

/// Checkpoints carried from a failed lane into the next one.
struct Carry {
    steps: Vec<Step>,
    failed_step: usize,
    host: Vec<Option<SlotVal>>,
}

/// How one named output is reassembled from per-partition runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MergeRule {
    /// Partition-dependent scalar: sum across chunks.
    Sum,
    /// The grouped key vector: union of chunk key sets, ascending.
    Key,
    /// Grouped values co-keyed with the key vector: sum per key.
    GroupVals,
    /// Partition-independent: identical in every chunk, take the first.
    First,
}

/// The merge recipe a partition-safety proof produces.
struct MergePlan {
    rules: BTreeMap<String, MergeRule>,
    key: Option<String>,
}

/// Accumulates per-chunk outputs under a [`MergePlan`].
struct Merger<'p> {
    plan: &'p MergePlan,
    scalars: BTreeMap<String, f64>,
    keys: BTreeSet<u32>,
    grouped: BTreeMap<u32, BTreeMap<String, f64>>,
    firsts: BTreeMap<String, PlanValue>,
}

impl<'p> Merger<'p> {
    fn new(plan: &'p MergePlan) -> Self {
        Merger {
            plan,
            scalars: BTreeMap::new(),
            keys: BTreeSet::new(),
            grouped: BTreeMap::new(),
            firsts: BTreeMap::new(),
        }
    }

    fn add(&mut self, out: PlanOutput) -> Result<()> {
        let mut vals = out.into_values();
        let chunk_keys: Vec<u32> = match &self.plan.key {
            Some(name) => match vals.get(name) {
                Some(PlanValue::U32(v)) => v.clone(),
                _ => {
                    return Err(SimError::Unsupported(format!(
                        "partition merge: key output `{name}` missing from chunk"
                    )))
                }
            },
            None => Vec::new(),
        };
        self.keys.extend(chunk_keys.iter().copied());
        for (name, rule) in &self.plan.rules {
            let Some(v) = vals.remove(name) else {
                return Err(SimError::Unsupported(format!(
                    "partition merge: output `{name}` missing from chunk"
                )));
            };
            match rule {
                MergeRule::Sum => match v {
                    PlanValue::Scalar(x) => *self.scalars.entry(name.clone()).or_insert(0.0) += x,
                    _ => {
                        return Err(SimError::Unsupported(format!(
                            "partition merge: output `{name}` is not a scalar"
                        )))
                    }
                },
                MergeRule::Key => {}
                MergeRule::GroupVals => match v {
                    PlanValue::F64(xs) => {
                        if xs.len() != chunk_keys.len() {
                            return Err(SimError::SizeMismatch {
                                left: xs.len(),
                                right: chunk_keys.len(),
                            });
                        }
                        for (&k, x) in chunk_keys.iter().zip(xs) {
                            *self
                                .grouped
                                .entry(k)
                                .or_default()
                                .entry(name.clone())
                                .or_insert(0.0) += x;
                        }
                    }
                    _ => {
                        return Err(SimError::Unsupported(format!(
                            "partition merge: output `{name}` is not an f64 vector"
                        )))
                    }
                },
                MergeRule::First => {
                    self.firsts.entry(name.clone()).or_insert(v);
                }
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Result<PlanOutput> {
        let mut values = BTreeMap::new();
        for (name, rule) in &self.plan.rules {
            let v = match rule {
                MergeRule::Sum => PlanValue::Scalar(self.scalars.get(name).copied().unwrap_or(0.0)),
                MergeRule::Key => PlanValue::U32(self.keys.iter().copied().collect()),
                MergeRule::GroupVals => PlanValue::F64(
                    self.keys
                        .iter()
                        .map(|k| {
                            self.grouped
                                .get(k)
                                .and_then(|m| m.get(name))
                                .copied()
                                .unwrap_or(0.0)
                        })
                        .collect(),
                ),
                MergeRule::First => self.firsts.remove(name).ok_or_else(|| {
                    SimError::Unsupported(format!(
                        "partition merge: no chunk produced output `{name}`"
                    ))
                })?,
            };
            values.insert(name.clone(), v);
        }
        Ok(PlanOutput::from_values(values))
    }
}

/// Which row universe a column's values/length are aligned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Universe {
    /// Rows of the partitioned table (chunk-local under partitioning).
    Part,
    /// Rows of a partition-independent whole table.
    Whole,
    /// The row list produced by step `ix` (selection survivors or a
    /// join's match list).
    Derived(usize),
}

/// Partition-safety class of one slot (or base column).
#[derive(Debug, Clone, Copy)]
enum Class {
    /// Data values aligned to `align` rows.
    Data { align: Universe, tainted: bool },
    /// Row indices, aligned to `align`, each value indexing `target`.
    Ids {
        align: Universe,
        target: Universe,
        tainted: bool,
    },
    /// Grouped-aggregate output (keys or values) — terminal: only
    /// download/sort/output use is partition-safe.
    Grouped { tainted: bool },
    /// Scalar reduction output.
    Scalar { tainted: bool },
}

impl Class {
    fn tainted(&self) -> bool {
        match *self {
            Class::Data { tainted, .. }
            | Class::Ids { tainted, .. }
            | Class::Grouped { tainted }
            | Class::Scalar { tainted } => tainted,
        }
    }
}

/// The operands of a fixed-arity step, in [`Step::reads`] order.
fn operands<'r, const N: usize>(reads: &'r [StepRead<'_>]) -> Option<[&'r ColRef; N]> {
    let reads: &[StepRead<'_>; N] = reads.try_into().ok()?;
    Some(reads.each_ref().map(|r| r.col))
}

/// Prove `plan` partition-safe for `source` and derive the merge
/// recipe, or explain why it is not with [`SimError::Unsupported`].
fn partition_merge_plan(plan: &PhysicalPlan, source: &PartitionSource<'_>) -> Result<MergePlan> {
    let reject = |why: &str| -> SimError {
        SimError::Unsupported(format!("{}: not partition-safe: {why}", plan.query()))
    };
    let mut classes: Vec<Option<Class>> = vec![None; plan.slots().len()];
    let class_of = |classes: &[Option<Class>], r: &ColRef| -> Result<Class> {
        match r {
            ColRef::Base(name) => {
                let part = source.contains(name);
                Ok(Class::Data {
                    align: if part {
                        Universe::Part
                    } else {
                        Universe::Whole
                    },
                    tainted: part,
                })
            }
            ColRef::Slot(i) => classes
                .get(*i)
                .copied()
                .flatten()
                .ok_or_else(|| reject(&format!("slot %{i} read before written"))),
        }
    };
    // A compute operand must be plain data (grouped results are
    // terminal; row-id columns only feed gathers and grouped keys).
    let data_of = |classes: &[Option<Class>], r: &ColRef| -> Result<Class> {
        let c = class_of(classes, r)?;
        match c {
            Class::Data { .. } => Ok(c),
            Class::Ids { .. } => Err(reject("row-id column used as data")),
            Class::Grouped { .. } => Err(reject("grouped output reused inside the plan")),
            Class::Scalar { .. } => Err(reject("scalar used as a column")),
        }
    };
    let data_align = |c: &Class| -> Universe {
        match *c {
            Class::Data { align, .. } | Class::Ids { align, .. } => align,
            _ => Universe::Whole,
        }
    };
    let same_align = |cs: &[Class]| -> Result<Universe> {
        let align = cs.first().map_or(Universe::Whole, data_align);
        if cs.iter().any(|c| data_align(c) != align) {
            return Err(reject("operator mixes columns of different row universes"));
        }
        Ok(align)
    };
    let arity = || reject("step arity mismatch");

    for (ix, step) in plan.steps().iter().enumerate() {
        let reads = step.reads();
        let derived = Universe::Derived(ix);
        // The class of each slot the step writes, in `Step::writes` order.
        let outs: [Option<Class>; 2] = match step.shape() {
            shape @ (RowShape::Select | RowShape::Map | RowShape::Reduce) => {
                // Element-wise operands are plain data of one row
                // universe; a length-only one (the ones column's size)
                // may be row ids.
                let cs = reads
                    .iter()
                    .map(|r| match (r.len_only, class_of(&classes, r.col)?) {
                        (false, _) => data_of(&classes, r.col),
                        (
                            true,
                            Class::Data { align, tainted } | Class::Ids { align, tainted, .. },
                        ) => Ok(Class::Data { align, tainted }),
                        (true, _) => Err(reject("ones sized by a non-column slot")),
                    })
                    .collect::<Result<Vec<_>>>()?;
                let (align, tainted) = (same_align(&cs)?, cs.iter().any(Class::tainted));
                let out = match shape {
                    RowShape::Select => Class::Ids {
                        align: derived,
                        target: align,
                        tainted,
                    },
                    RowShape::Map => Class::Data { align, tainted },
                    _ => Class::Scalar { tainted },
                };
                [Some(out), None]
            }
            RowShape::Gather => {
                let [data, ids] = operands(&reads).ok_or_else(arity)?;
                let cd = data_of(&classes, data)?;
                let Class::Ids {
                    align,
                    target,
                    tainted,
                } = class_of(&classes, ids)?
                else {
                    return Err(reject("gather over a non-row-id column"));
                };
                if data_align(&cd) != target {
                    return Err(reject("gather crosses row universes"));
                }
                let tainted = cd.tainted() || tainted;
                [Some(Class::Data { align, tainted }), None]
            }
            RowShape::Join => {
                let [outer, inner] = operands(&reads).ok_or_else(arity)?;
                let co = data_of(&classes, outer)?;
                let ci = data_of(&classes, inner)?;
                if ci.tainted() {
                    return Err(reject("join build side depends on the partitioned table"));
                }
                let ids = |side: &Class| Class::Ids {
                    align: derived,
                    target: data_align(side),
                    tainted: co.tainted(),
                };
                [Some(ids(&co)), Some(ids(&ci))]
            }
            RowShape::Group => {
                let [keys, vals] = operands(&reads).ok_or_else(arity)?;
                let ck = class_of(&classes, keys)?;
                if matches!(ck, Class::Grouped { .. } | Class::Scalar { .. }) {
                    return Err(reject("grouped output reused inside the plan"));
                }
                let cv = data_of(&classes, vals)?;
                if data_align(&ck) != data_align(&cv) {
                    return Err(reject("grouped sum mixes row universes"));
                }
                let tainted = ck.tainted() || cv.tainted();
                [Some(Class::Grouped { tainted }); 2]
            }
            RowShape::Download => {
                // Downloads mirror the device slot host-side, class and
                // all (downloading a grouped result is its normal exit).
                let [input] = operands(&reads).ok_or_else(arity)?;
                [Some(class_of(&classes, input)?), None]
            }
            RowShape::HostSort { top_k } => {
                // It sorts the slots it writes, in place.
                let tainted = step
                    .writes()
                    .any(|s| classes[s].is_some_and(|c| c.tainted()));
                if tainted && top_k {
                    return Err(reject(
                        "value-ordered or row-limited sort over partition-dependent data",
                    ));
                }
                [None, None]
            }
            RowShape::Free => [None, None],
        };
        for (slot, class) in step.writes().zip(outs) {
            if class.is_some() {
                classes[slot] = class;
            }
        }
    }

    let mut rules = BTreeMap::new();
    let mut key: Option<String> = None;
    let mut has_group_vals = false;
    for (name, slot) in plan.outputs() {
        let class = classes[*slot].ok_or_else(|| reject("output slot never produced"))?;
        let rule = match class {
            Class::Scalar { tainted: true } => MergeRule::Sum,
            Class::Grouped { tainted: true } => match plan.slots()[*slot].kind {
                SlotKind::HostU32 => {
                    if key.is_some() {
                        return Err(reject("more than one grouped key output"));
                    }
                    key = Some(name.clone());
                    MergeRule::Key
                }
                SlotKind::HostF64 => {
                    has_group_vals = true;
                    MergeRule::GroupVals
                }
                _ => return Err(reject("grouped output was not downloaded")),
            },
            Class::Scalar { tainted: false } | Class::Grouped { tainted: false } => {
                MergeRule::First
            }
            Class::Data { tainted: false, .. } | Class::Ids { tainted: false, .. } => {
                MergeRule::First
            }
            Class::Data { tainted: true, .. } => {
                return Err(reject("partition-dependent row values as a plan output"))
            }
            Class::Ids { tainted: true, .. } => {
                return Err(reject("partition-local row ids as a plan output"))
            }
        };
        rules.insert(name.clone(), rule);
    }
    if has_group_vals && key.is_none() {
        return Err(reject("grouped values without a grouped key output"));
    }
    Ok(MergePlan { rules, key })
}

/// Executes [`PhysicalPlan`]s with step-granular retry, slot
/// checkpointing, OOM-driven (or budget-driven) partitioned
/// re-execution and backend fallback. See the module docs
/// for the escalation order and the partition-safety contract.
#[derive(Debug, Default)]
pub struct ResilientPlanExecutor {
    recovery: PlanRecovery,
}

impl ResilientPlanExecutor {
    /// An executor with the given recovery configuration.
    pub fn new(recovery: PlanRecovery) -> Self {
        ResilientPlanExecutor { recovery }
    }

    /// The active recovery configuration.
    pub fn recovery(&self) -> &PlanRecovery {
        &self.recovery
    }

    /// Execute `plan` on a single backend with retry and checkpointing
    /// (no partition source, no fallback chain). The default routing
    /// path for planner-executed queries.
    pub fn execute(
        &self,
        backend: &dyn GpuBackend,
        plan: &PhysicalPlan,
        binds: &PlanBindings<'_>,
    ) -> Result<PlanOutput> {
        self.execute_lanes(
            &[PlanLane {
                backend,
                plan,
                binds,
            }],
            None,
        )
    }

    /// Execute along a fallback chain of lanes (by convention library
    /// first, handwritten last), optionally with a partition source.
    /// Host-resident checkpoints carry across lanes when the lowered
    /// step lists agree; the first lane to complete wins.
    pub fn execute_lanes(
        &self,
        lanes: &[PlanLane<'_>],
        source: Option<&PartitionSource<'_>>,
    ) -> Result<PlanOutput> {
        let Some(first) = lanes.first() else {
            return Err(SimError::Unsupported(
                "resilient plan executor needs at least one lane".into(),
            ));
        };
        let query = first.plan.query();
        let mut carry: Option<Carry> = None;
        let mut last_err = SimError::Unsupported(format!("{query}: no lane completed"));
        for (li, lane) in lanes.iter().enumerate() {
            if li > 0 {
                let prev = &lanes[li - 1];
                let fallback = Recovery::Fallback {
                    from: prev.backend.name().to_string(),
                    to: lane.backend.name().to_string(),
                };
                lane.backend.device().note(fallback, SimDuration::ZERO);
            }
            let budgeted = source.filter(|_| self.recovery.mem_budget_bytes.is_some());
            let attempt: Result<PlanOutput> = if let Some(src) = budgeted {
                // Budget-aware: partition up front, sized to the
                // memory budget, without waiting for an OOM.
                self.run_partitioned(lane, src)
            } else {
                match self.run_lane(lane, carry.take()) {
                    Ok(out) => Ok(out),
                    Err(fail) => {
                        let escalate = matches!(fail.err, SimError::OutOfMemory { .. })
                            .then_some(source)
                            .flatten()
                            .map(|src| self.run_partitioned(lane, src));
                        let failed_step = fail.failed_step;
                        let host = fail.host;
                        let err = match escalate {
                            Some(Ok(out)) => return Ok(out),
                            Some(Err(e)) => e,
                            None => fail.err,
                        };
                        carry = Some(Carry {
                            steps: lane.plan.steps().to_vec(),
                            failed_step,
                            host,
                        });
                        Err(err)
                    }
                }
            };
            match attempt {
                Ok(out) => return Ok(out),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Run one lane from its (possibly carried) checkpoints. On failure
    /// every live device column is released and the host checkpoints
    /// are returned for the next lane.
    fn run_lane(
        &self,
        lane: &PlanLane<'_>,
        carry: Option<Carry>,
    ) -> std::result::Result<PlanOutput, LaneFail> {
        let plan = lane.plan;
        let device = lane.backend.device();
        let mut store = plan.new_store();
        let mut skip = vec![false; plan.steps().len()];
        if let Some(mut c) = carry {
            // Checkpoints only transfer when the two lowerings agree
            // step for step; otherwise the new lane replays from
            // scratch. Only host-resident values cross backends.
            if c.steps == plan.steps() && c.host.len() == store.len() {
                for (ix, step) in plan.steps().iter().enumerate().take(c.failed_step) {
                    // Frees write nothing and replay against the new
                    // lane's columns.
                    let all_host = step.writes().next().is_some()
                        && step.writes().all(|s| {
                            matches!(
                                c.host.get(s),
                                Some(Some(
                                    SlotVal::Scalar(_) | SlotVal::U32s(_) | SlotVal::F64s(_)
                                ))
                            )
                        });
                    if all_host {
                        skip[ix] = true;
                        for s in step.writes() {
                            if store[s].is_none() {
                                store[s] = c.host[s].take();
                            }
                        }
                    }
                }
            }
        }
        for (ix, &skipped) in skip.iter().enumerate() {
            if skipped {
                continue;
            }
            let label = format!("{} step {ix}", plan.query());
            let r = retry_with_policy(&device, &self.recovery.retry, &label, || {
                device.inject_plan_step_fault(&label)?;
                plan.exec_step(lane.backend, lane.binds, &mut store, ix)
            });
            if let Err(e) = r {
                return Err(Self::abandon(store, ix, e));
            }
        }
        plan.collect_outputs(&mut store)
            .map_err(|e| Self::abandon(store, plan.steps().len(), e))
    }

    /// Abandon an attempt: drop every live device column, in slot order
    /// (so later attempts and partition chunks see the memory back), and
    /// keep the host-resident checkpoints.
    fn abandon(store: Vec<Option<SlotVal>>, failed_step: usize, err: SimError) -> LaneFail {
        let host = store
            .into_iter()
            .map(|slot| slot.filter(|v| !matches!(v, SlotVal::Col(_))))
            .collect();
        LaneFail {
            err,
            failed_step,
            host,
        }
    }

    /// Partitioned re-execution: prove the plan partition-safe, then
    /// run it chunk by chunk (halving the chunk on OOM, down to
    /// [`MIN_CHUNK`] rows) and merge the per-chunk outputs.
    fn run_partitioned(
        &self,
        lane: &PlanLane<'_>,
        source: &PartitionSource<'_>,
    ) -> Result<PlanOutput> {
        let plan = lane.plan;
        let device = lane.backend.device();
        let merge = partition_merge_plan(plan, source)?;
        let rows = source.rows()?;
        let mut chunk = match self.recovery.mem_budget_bytes {
            Some(budget) => {
                // Budget-sized chunks, with slack for the intermediates
                // a chunk materialises (~8x the base row footprint).
                let per_row = source.bytes_per_row().saturating_mul(8).max(1);
                ((budget / per_row) as usize).clamp(MIN_CHUNK, rows.max(MIN_CHUNK))
            }
            None => (rows.div_ceil(2)).max(MIN_CHUNK),
        };
        'sized: loop {
            let parts = rows.div_ceil(chunk).max(1);
            let partition = Recovery::Partition {
                what: plan.query().to_string(),
                parts,
            };
            device.note(partition, SimDuration::ZERO);
            let mut merger = Merger::new(&merge);
            let mut start = 0usize;
            while start < rows {
                let end = (start + chunk).min(rows);
                match self.run_chunk(lane, source, start, end) {
                    Ok(out) => {
                        merger.add(out)?;
                        start = end;
                    }
                    Err(SimError::OutOfMemory { .. }) if chunk > MIN_CHUNK => {
                        // Halve and restart the whole partitioned run —
                        // deterministic, and partial merges are cheap
                        // host state.
                        chunk = (chunk / 2).max(MIN_CHUNK);
                        let split = Recovery::Split {
                            what: plan.query().to_string(),
                            parts: 2,
                        };
                        device.note(split, SimDuration::ZERO);
                        continue 'sized;
                    }
                    Err(e) => return Err(e),
                }
            }
            return merger.finish();
        }
    }

    /// Execute the plan over rows `start..end` of the partitioned
    /// columns: upload the window, rebind, run with the usual per-step
    /// recovery, drop the window.
    fn run_chunk(
        &self,
        lane: &PlanLane<'_>,
        source: &PartitionSource<'_>,
        start: usize,
        end: usize,
    ) -> Result<PlanOutput> {
        let backend = lane.backend;
        let device = backend.device();
        let upload = |col: &HostCol<'_>| {
            retry_with_policy(
                &device,
                &self.recovery.retry,
                "partition upload",
                || match col {
                    HostCol::U32(v) => backend.upload_u32(&v[start..end]),
                    HostCol::F64(v) => backend.upload_f64(&v[start..end]),
                },
            )
        };
        let uploads = source
            .cols
            .iter()
            .map(|(name, col)| Ok((name.clone(), upload(col)?)))
            .collect::<Result<Vec<(String, Col)>>>()?;
        let mut binds = PlanBindings::new();
        for (name, col) in lane.binds.iter() {
            if !source.contains(name) {
                binds.bind(name, col);
            }
        }
        for (name, col) in &uploads {
            binds.bind(name, col);
        }
        let chunk_lane = PlanLane {
            backend,
            plan: lane.plan,
            binds: &binds,
        };
        self.run_lane(&chunk_lane, None).map_err(|fail| fail.err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::HandwrittenBackend;
    use crate::logical::{AggExpr, ColumnDecl, Expr, LogicalPlan, Predicate, ResultOrder};
    use crate::ops::CmpOp;
    use crate::optimizer;
    use gpu_sim::{Device, DeviceSpec, FaultPlan, FaultSite, TraceKind};

    /// filter + two grouped aggregates + key-ordered output: enough
    /// steps to checkpoint, partition and fall back mid-plan.
    fn agg_logical(order: ResultOrder, limit: Option<usize>) -> LogicalPlan {
        LogicalPlan::scan("t", vec![ColumnDecl::u32("key"), ColumnDecl::f64("val")])
            .filter(Predicate::cmp("t.val", CmpOp::Lt, 0.75))
            .aggregate(
                Some("t.key"),
                vec![
                    ("total", AggExpr::Sum(Expr::col("t.val"))),
                    ("count", AggExpr::Count),
                ],
            )
            .sort_limit(order, limit)
    }

    fn data(n: usize) -> (Vec<u32>, Vec<f64>) {
        let keys: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
        let vals: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).fract()).collect();
        (keys, vals)
    }

    fn reference(keys: &[u32], vals: &[f64]) -> (Vec<u32>, Vec<f64>, Vec<f64>) {
        let mut acc: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
        for (&k, &v) in keys.iter().zip(vals) {
            if v < 0.75 {
                let e = acc.entry(k).or_default();
                e.0 += v;
                e.1 += 1.0;
            }
        }
        let ks: Vec<u32> = acc.keys().copied().collect();
        let totals: Vec<f64> = acc.values().map(|e| e.0).collect();
        let counts: Vec<f64> = acc.values().map(|e| e.1).collect();
        (ks, totals, counts)
    }

    /// Execute `plan` on one lane with `src` to partition over.
    fn partitionable(
        exec: &ResilientPlanExecutor,
        backend: &dyn GpuBackend,
        plan: &PhysicalPlan,
        binds: &PlanBindings<'_>,
        src: &PartitionSource<'_>,
    ) -> Result<PlanOutput> {
        let lane = PlanLane {
            backend,
            plan,
            binds,
        };
        exec.execute_lanes(&[lane], Some(src))
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    struct Rig {
        dev: std::sync::Arc<Device>,
        backend: HandwrittenBackend,
        keys: Col,
        vals: Col,
        plan: PhysicalPlan,
    }

    impl Rig {
        fn new(dev: std::sync::Arc<Device>, keys: &[u32], vals: &[f64]) -> Rig {
            let backend = HandwrittenBackend::new(&dev);
            let keys = backend.upload_u32(keys).unwrap();
            let vals = backend.upload_f64(vals).unwrap();
            let plan =
                optimizer::plan("T1", &agg_logical(ResultOrder::KeyAsc, None), &backend).unwrap();
            Rig {
                dev,
                backend,
                keys,
                vals,
                plan,
            }
        }

        fn binds(&self) -> PlanBindings<'_> {
            let mut binds = PlanBindings::new();
            binds.bind("t.key", &self.keys).bind("t.val", &self.vals);
            binds
        }
    }

    #[test]
    fn clean_runs_are_byte_identical_to_plain_execution() {
        let (keys, vals) = data(512);
        let plain = Rig::new(Device::with_defaults(), &keys, &vals);
        let wrapped = Rig::new(Device::with_defaults(), &keys, &vals);
        plain.dev.set_tracing(true);
        wrapped.dev.set_tracing(true);
        let expect = plain.plan.execute(&plain.backend, &plain.binds()).unwrap();
        let exec = ResilientPlanExecutor::default();
        let got = exec
            .execute(&wrapped.backend, &wrapped.plan, &wrapped.binds())
            .unwrap();
        assert_eq!(got, expect);
        assert_eq!(wrapped.dev.take_trace(), plain.dev.take_trace());
        assert_eq!(wrapped.dev.now().as_nanos(), plain.dev.now().as_nanos());
    }

    #[test]
    fn transient_step_faults_retry_to_the_bit_identical_answer() {
        let (keys, vals) = data(512);
        let clean = Rig::new(Device::with_defaults(), &keys, &vals);
        let expect = clean.plan.execute(&clean.backend, &clean.binds()).unwrap();
        let run = |seed: u64| {
            let rig = Rig::new(Device::with_defaults(), &keys, &vals);
            rig.dev.set_tracing(true);
            rig.dev.install_fault_plan(FaultPlan::uniform(seed, 0.2));
            let exec = ResilientPlanExecutor::new(PlanRecovery {
                retry: RetryPolicy { max_retries: 60 },
                ..PlanRecovery::default()
            });
            let out = exec.execute(&rig.backend, &rig.plan, &rig.binds()).unwrap();
            (out, rig.dev.stats(), rig.dev.take_trace())
        };
        let (out, stats, trace) = run(0xBEEF);
        assert_eq!(out, expect, "recovery must not change the answer");
        assert!(stats.faults_injected > 0, "no faults fired at 20%");
        assert!(stats.retries > 0, "faults must surface as step retries");
        // The trace journals every retry, and each names its step.
        let retried: Vec<&str> = trace
            .iter()
            .filter_map(|e| match &e.kind {
                TraceKind::Recovery(Recovery::Retry { what }) => Some(what.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(retried.len() as u64, stats.retries);
        assert!(
            retried.iter().all(|w| w.starts_with("T1 step ")),
            "{retried:?}"
        );
        // Same seed, fresh device: the whole recovery replays bit for bit.
        let (out2, stats2, trace2) = run(0xBEEF);
        assert_eq!(out2, out);
        assert_eq!(stats2, stats);
        assert_eq!(trace2, trace);
    }

    #[test]
    fn oom_escalates_to_partitioned_re_execution() {
        let (keys, vals) = data(4096);
        let mut spec = DeviceSpec::gtx1080();
        spec.global_mem_bytes = 96 * 1024;
        let rig = Rig::new(Device::new(spec), &keys, &vals);
        let mut src = PartitionSource::new();
        src.bind_u32("t.key", keys.as_slice())
            .bind_f64("t.val", vals.as_slice());
        let exec = ResilientPlanExecutor::default();
        let out = partitionable(&exec, &rig.backend, &rig.plan, &rig.binds(), &src).unwrap();
        let stats = rig.dev.stats();
        assert!(stats.plan_partitions >= 1, "OOM must trigger partitioning");
        let (ks, totals, counts) = reference(&keys, &vals);
        assert_eq!(out.u32s("keys").unwrap(), ks.as_slice());
        for (got, want) in out.f64s("total").unwrap().iter().zip(&totals) {
            assert!(close(*got, *want), "{got} vs {want}");
        }
        for (got, want) in out.f64s("count").unwrap().iter().zip(&counts) {
            assert!(close(*got, *want), "{got} vs {want}");
        }
    }

    #[test]
    fn memory_budget_partitions_up_front_without_an_oom() {
        let (keys, vals) = data(8192);
        let rig = Rig::new(Device::with_defaults(), &keys, &vals);
        rig.dev.set_tracing(true);
        let mut src = PartitionSource::new();
        src.bind_u32("t.key", keys.as_slice())
            .bind_f64("t.val", vals.as_slice());
        // 12 B/row base, 8x slack -> 96 B/row; 1024-row chunks.
        let exec = ResilientPlanExecutor::new(PlanRecovery {
            mem_budget_bytes: Some(96 * 1024),
            ..PlanRecovery::default()
        });
        let out = partitionable(&exec, &rig.backend, &rig.plan, &rig.binds(), &src).unwrap();
        let stats = rig.dev.stats();
        assert_eq!(stats.plan_partitions, 1, "exactly one partitioned run");
        assert_eq!(stats.batch_splits, 0, "the budget avoids OOM halving");
        assert!(rig.dev.take_trace().iter().any(|e| matches!(
            &e.kind,
            TraceKind::Recovery(Recovery::Partition { parts: 8, .. })
        )));
        let (ks, totals, _) = reference(&keys, &vals);
        assert_eq!(out.u32s("keys").unwrap(), ks.as_slice());
        for (got, want) in out.f64s("total").unwrap().iter().zip(&totals) {
            assert!(close(*got, *want), "{got} vs {want}");
        }
    }

    #[test]
    fn partitioning_the_join_build_side_is_refused() {
        let dim = LogicalPlan::scan("d", vec![ColumnDecl::u32("pk"), ColumnDecl::u32("size")]);
        let fact = LogicalPlan::scan("f", vec![ColumnDecl::u32("fk"), ColumnDecl::f64("x")]);
        let lp = LogicalPlan::join(
            dim,
            fact,
            "d.pk",
            "f.fk",
            vec![crate::logical::JoinCol::probe("m_x", "f.x")],
        )
        .aggregate(None, vec![("s", AggExpr::Sum(Expr::col("m_x")))]);
        let dev = Device::with_defaults();
        let b = HandwrittenBackend::new(&dev);
        let plan = optimizer::plan("TJ", &lp, &b).unwrap();
        let m = 16u32;
        let pk: Vec<u32> = (0..m).collect();
        let size: Vec<u32> = (0..m).map(|i| i * 3).collect();
        let fk: Vec<u32> = (0..2048u32).map(|i| i % m).collect();
        let x: Vec<f64> = (0..2048).map(|i| i as f64 * 0.25).collect();
        let c_pk = b.upload_u32(&pk).unwrap();
        let c_size = b.upload_u32(&size).unwrap();
        let c_fk = b.upload_u32(&fk).unwrap();
        let c_x = b.upload_f64(&x).unwrap();
        let mut binds = PlanBindings::new();
        binds
            .bind("d.pk", &c_pk)
            .bind("d.size", &c_size)
            .bind("f.fk", &c_fk)
            .bind("f.x", &c_x);
        let exec = ResilientPlanExecutor::new(PlanRecovery {
            mem_budget_bytes: Some(64 * 1024),
            ..PlanRecovery::default()
        });
        // Partitioning the probe (fact) side distributes over chunks.
        let mut probe_src = PartitionSource::new();
        probe_src
            .bind_u32("f.fk", fk.as_slice())
            .bind_f64("f.x", x.as_slice());
        let out = partitionable(&exec, &b, &plan, &binds, &probe_src).unwrap();
        let expect: f64 = x.iter().sum();
        assert!(close(out.scalar("s").unwrap(), expect));
        // Partitioning the build (dimension) side cannot.
        let mut build_src = PartitionSource::new();
        build_src
            .bind_u32("d.pk", pk.as_slice())
            .bind_u32("d.size", size.as_slice());
        let err = partitionable(&exec, &b, &plan, &binds, &build_src).unwrap_err();
        assert!(
            matches!(&err, SimError::Unsupported(m) if m.contains("not partition-safe")),
            "{err}"
        );
    }

    #[test]
    fn top_k_sorts_over_partitioned_data_are_refused() {
        let (keys, vals) = data(256);
        let dev = Device::with_defaults();
        let b = HandwrittenBackend::new(&dev);
        let plan = optimizer::plan(
            "TK",
            &agg_logical(ResultOrder::ValueDescKeyAsc, Some(3)),
            &b,
        )
        .unwrap();
        let ck = b.upload_u32(&keys).unwrap();
        let cv = b.upload_f64(&vals).unwrap();
        let mut binds = PlanBindings::new();
        binds.bind("t.key", &ck).bind("t.val", &cv);
        let mut src = PartitionSource::new();
        src.bind_u32("t.key", keys.as_slice())
            .bind_f64("t.val", vals.as_slice());
        let exec = ResilientPlanExecutor::new(PlanRecovery {
            mem_budget_bytes: Some(64 * 1024),
            ..PlanRecovery::default()
        });
        let err = partitionable(&exec, &b, &plan, &binds, &src).unwrap_err();
        assert!(
            matches!(&err, SimError::Unsupported(m) if m.contains("not partition-safe")),
            "{err}"
        );
    }

    #[test]
    fn fallback_replays_from_the_last_host_checkpoint() {
        let (keys, vals) = data(512);
        let clean = Rig::new(Device::with_defaults(), &keys, &vals);
        let expect = clean.plan.execute(&clean.backend, &clean.binds()).unwrap();
        let full_downloads = clean.dev.stats().dtoh_count;
        assert!(full_downloads > 0);
        let mut proven = false;
        for seed in 0..300u64 {
            let a = Rig::new(Device::with_defaults(), &keys, &vals);
            let bb = Rig::new(Device::with_defaults(), &keys, &vals);
            let mut fp = FaultPlan::uniform(seed, 0.0);
            fp.rates[FaultSite::PlanStep.index()] = 0.15;
            a.dev.install_fault_plan(fp);
            let exec = ResilientPlanExecutor::new(PlanRecovery {
                retry: RetryPolicy::no_retry(),
                ..PlanRecovery::default()
            });
            let binds_a = a.binds();
            let binds_b = bb.binds();
            let lanes = [
                PlanLane {
                    backend: &a.backend,
                    plan: &a.plan,
                    binds: &binds_a,
                },
                PlanLane {
                    backend: &bb.backend,
                    plan: &bb.plan,
                    binds: &binds_b,
                },
            ];
            let out = exec.execute_lanes(&lanes, None);
            let (sa, sb) = (a.dev.stats(), bb.dev.stats());
            if sb.fallbacks != 1 {
                continue; // lane A survived outright this seed
            }
            let out = out.expect("the clean fallback lane must complete");
            assert_eq!(out, expect, "seed {seed}");
            if sa.dtoh_count > 0 {
                // Lane A checkpointed at least one download before it
                // died; the carried host values mean lane B never
                // repeats those transfers.
                assert_eq!(
                    sa.dtoh_count + sb.dtoh_count,
                    full_downloads,
                    "seed {seed}: downloads must split across lanes, not repeat"
                );
                proven = true;
                break;
            }
        }
        assert!(
            proven,
            "no seed produced a mid-plan failure after a completed download"
        );
    }

    #[test]
    fn an_empty_lane_chain_is_an_error() {
        let exec = ResilientPlanExecutor::default();
        let err = exec.execute_lanes(&[], None).unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)));
    }
}
