//! The physical query IR: a backend-specific step list plus its
//! interpreter.
//!
//! A [`PhysicalPlan`] is what [`crate::optimizer::plan`] produces from a
//! [`crate::logical::LogicalPlan`]: a straight-line register program
//! whose every [`Step`] is exactly one [`crate::backend::GpuBackend`]
//! call (or a host-side sort). Steps read base columns (bound by name at
//! execution time through [`PlanBindings`]) and numbered *slots* —
//! device columns, scalars, or downloaded host vectors produced by
//! earlier steps. What each step reads and writes, what it is called and
//! how its rows relate is declared once, next to [`Step`]
//! ([`Step::reads`], [`Step::writes`], [`Step::label`]).
//!
//! The executor contract:
//!
//! * the plan owns every device column it creates — each is released by
//!   an explicit [`Step::Free`] (eagerly where the hand-tuned queries
//!   freed eagerly, otherwise at plan end in creation order), so traced
//!   runs stay alloc/free balanced;
//! * bound base columns are borrowed, never freed;
//! * on error the step's failure propagates unchanged, and the slot
//!   store's drop frees every column the plan created so far;
//! * all device work goes through the bound backend, so the
//!   `gpu_sim::trace` windows lint passes consume are emitted exactly as
//!   before.
//!
//! [`PhysicalPlan::explain`] renders the per-backend Table-II lowering
//! (each step with the realising library call), which the optimizer
//! golden tests snapshot.

use crate::backend::{Col, ColType, GpuBackend, Pred};
use crate::fused::{FusedExpr, FusedPred};
use crate::ops::{CmpOp, Connective, JoinAlgo};
use gpu_sim::{Result, SimError};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A step operand: either a named bound base column or the output slot
/// of an earlier step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColRef {
    /// A base column, resolved through [`PlanBindings`] at execution.
    Base(String),
    /// A slot produced by an earlier step.
    Slot(usize),
}

/// What a slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// A device column.
    Device {
        /// Element dtype.
        dtype: ColType,
    },
    /// A host scalar (reduction output).
    Scalar,
    /// A downloaded host `u32` vector.
    HostU32,
    /// A downloaded host `f64` vector.
    HostF64,
}

/// Metadata of one plan slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotMeta {
    /// Debug name (shown by `explain()`).
    pub name: String,
    /// What the slot holds.
    pub kind: SlotKind,
}

/// A literal comparison against a plan operand, the element of
/// [`Step::SelectionMulti`] / [`Step::FilterSumProduct`] predicate
/// lists.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPred {
    /// Column operand.
    pub col: ColRef,
    /// Comparison operator.
    pub cmp: CmpOp,
    /// Literal right-hand side.
    pub lit: f64,
}

/// One backend call (or host sort) of a [`PhysicalPlan`].
///
/// Each variant maps 1:1 onto a required [`crate::backend::GpuBackend`]
/// method (`selection` is sugar for a one-predicate `selection_multi`);
/// `out*` fields name the slot(s) the result is stored in.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `selection_multi(preds, conn)` → sorted row-id column (a single
    /// literal comparison is a one-predicate `And`).
    SelectionMulti {
        /// Literal comparisons, in declaration order.
        preds: Vec<PlanPred>,
        /// Connective joining them.
        conn: Connective,
        /// Output slot (`u32` row ids).
        out: usize,
    },
    /// `selection_cmp_cols(a, b, cmp)` → sorted row-id column.
    SelectionCmpCols {
        /// Left column.
        a: ColRef,
        /// Right column.
        b: ColRef,
        /// Comparison operator.
        cmp: CmpOp,
        /// Output slot (`u32` row ids).
        out: usize,
    },
    /// `gather(data, ids)` → `data[ids[i]]`.
    Gather {
        /// Source column.
        data: ColRef,
        /// `u32` index column.
        ids: ColRef,
        /// Output slot (same dtype as `data`).
        out: usize,
    },
    /// `affine(input, mul, add)` → `input·mul + add` elementwise.
    Affine {
        /// Input `f64` column.
        input: ColRef,
        /// Multiplier.
        mul: f64,
        /// Addend.
        add: f64,
        /// Output slot (`f64`).
        out: usize,
    },
    /// `product(a, b)` → elementwise product.
    Product {
        /// Left `f64` column.
        a: ColRef,
        /// Right `f64` column.
        b: ColRef,
        /// Output slot (`f64`).
        out: usize,
    },
    /// `dense_mask(input, cmp, lit)` → 0.0/1.0 indicator column.
    DenseMask {
        /// Masked column (`u32` or `f64`).
        input: ColRef,
        /// Comparison operator.
        cmp: CmpOp,
        /// Literal right-hand side.
        lit: f64,
        /// Output slot (`f64`).
        out: usize,
    },
    /// `constant_f64(len(like), 1.0)` — the COUNT(*) ones column.
    ConstantOnes {
        /// Column whose length sizes the output.
        like: ColRef,
        /// Output slot (`f64`).
        out: usize,
    },
    /// `join(outer, inner, algo)` → matching (outer, inner) row-index
    /// pairs.
    Join {
        /// Probe-side `u32` key column.
        outer: ColRef,
        /// Build-side `u32` key column.
        inner: ColRef,
        /// Join algorithm chosen for the backend.
        algo: JoinAlgo,
        /// Output slot for outer-row indices (`u32`, non-decreasing).
        out_left: usize,
        /// Output slot for inner-row indices (`u32`).
        out_right: usize,
    },
    /// `grouped_sum(keys, vals)` → ascending distinct keys and per-key
    /// sums.
    GroupedSum {
        /// `u32` group-key column.
        keys: ColRef,
        /// `f64` value column.
        vals: ColRef,
        /// Output slot for distinct keys (`u32`, ascending).
        out_keys: usize,
        /// Output slot for per-key sums (`f64`).
        out_vals: usize,
    },
    /// `reduction(input)` → scalar sum.
    Reduce {
        /// Input `f64` column.
        input: ColRef,
        /// Output slot (scalar).
        out: usize,
    },
    /// `filter_sum_product(a, b, preds)` — the fused Q6 fast path.
    FilterSumProduct {
        /// Left factor column.
        a: ColRef,
        /// Right factor column.
        b: ColRef,
        /// Conjunctive literal predicates.
        preds: Vec<PlanPred>,
        /// Output slot (scalar).
        out: usize,
    },
    /// `fused_map(inputs, expr)` — a fused element-wise chain produced
    /// by the general fusion pass: one single-pass kernel per backend
    /// above `threshold` rows, the composed operator chain below it
    /// (the size-adaptive dispatch; both are bit-equal).
    FusedMap {
        /// Input columns the expression reads (`FusedExpr::Col`
        /// indexes this list).
        inputs: Vec<ColRef>,
        /// Per-row value expression.
        expr: FusedExpr,
        /// Row count above which the single-pass kernel wins
        /// (from [`crate::optimizer::FusionPolicy::threshold`]).
        threshold: usize,
        /// Output slot (`f64`).
        out: usize,
    },
    /// `fused_filter_agg(inputs, preds, expr)` — `SUM(expr) WHERE preds`
    /// in one pass, the general form of [`Step::FilterSumProduct`].
    /// Dispatches like [`Step::FusedMap`]: fused above `threshold`,
    /// composed below.
    FusedFilterAgg {
        /// Input columns predicates and expression index into.
        inputs: Vec<ColRef>,
        /// Conjunctive literal predicates.
        preds: Vec<FusedPred>,
        /// Per-row value expression.
        expr: FusedExpr,
        /// Row count above which the single-pass kernel wins.
        threshold: usize,
        /// Output slot (scalar).
        out: usize,
    },
    /// `download_u32(input)` → host vector.
    DownloadU32 {
        /// Downloaded `u32` column.
        input: ColRef,
        /// Output slot (host `u32`s).
        out: usize,
    },
    /// `download_f64(input)` → host vector.
    DownloadF64 {
        /// Downloaded `f64` column.
        input: ColRef,
        /// Output slot (host `f64`s).
        out: usize,
    },
    /// Jointly reorder downloaded result vectors host-side.
    HostSort {
        /// Slot of the downloaded key vector.
        keys: usize,
        /// Slots of the downloaded value vectors, co-sorted with the
        /// keys; `vals[0]` is the primary for value-ordered sorts.
        vals: Vec<usize>,
        /// Row ordering.
        order: crate::logical::ResultOrder,
        /// Keep at most this many rows.
        limit: Option<usize>,
    },
    /// Release the device column in `slot`.
    Free {
        /// Slot to free.
        slot: usize,
    },
}

/// How a [`Step`]'s output relates to its inputs: the class the
/// partition-safety analysis reasons in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowShape {
    /// A column of rows: the row ids a predicate keeps, one value per
    /// input row, or one row of data per row id.
    Rows,
    /// One scalar over all input rows.
    Reduce,
    /// Matching (outer, inner) row-id pairs; the second operand is the
    /// build side.
    Join,
    /// Distinct keys and per-key sums.
    Group,
    /// A device column copied to the host, row for row.
    Download,
    /// A host-side reorder; `top_k` when value-ordered or row-limited (not
    /// the key-wise union of the sorts of any split of the rows).
    HostSort { top_k: bool },
    /// A release; no rows.
    Free,
}

impl Step {
    /// The column operands the step reads, in its call's argument order.
    /// (A [`Step::HostSort`] reads no column: it reorders the host
    /// vectors it [`Step::writes`] in place.)
    pub fn reads(&self) -> Vec<&ColRef> {
        match self {
            Step::DenseMask { input, .. }
            | Step::Affine { input, .. }
            | Step::Reduce { input, .. }
            | Step::DownloadU32 { input, .. }
            | Step::DownloadF64 { input, .. }
            | Step::ConstantOnes { like: input, .. } => vec![input],
            Step::SelectionMulti { preds, .. } => preds.iter().map(|p| &p.col).collect(),
            Step::SelectionCmpCols { a, b, .. } | Step::Product { a, b, .. } => vec![a, b],
            Step::Gather { data, ids, .. } => vec![data, ids],
            Step::Join { outer, inner, .. } => vec![outer, inner],
            Step::GroupedSum { keys, vals, .. } => vec![keys, vals],
            Step::FilterSumProduct { a, b, preds, .. } => [a, b]
                .into_iter()
                .chain(preds.iter().map(|p| &p.col))
                .collect(),
            Step::FusedMap { inputs, .. } | Step::FusedFilterAgg { inputs, .. } => {
                inputs.iter().collect()
            }
            Step::HostSort { .. } | Step::Free { .. } => Vec::new(),
        }
    }

    /// The slots the step writes, in output order: none for a
    /// [`Step::Free`]; a [`Step::HostSort`] rewrites its key and value
    /// slots in place.
    pub fn writes(&self) -> impl Iterator<Item = usize> + '_ {
        let cosorted: &[usize] = match self {
            Step::HostSort { vals, .. } => vals,
            _ => &[],
        };
        let (_, _, outs) = self.decl();
        outs.into_iter().flatten().chain(cosorted.iter().copied())
    }

    /// Short operator tag (`"selection_multi"`, `"join[Hash]"`, …): what cost
    /// reports and lint diagnostics call the step.
    pub fn label(&self) -> &'static str {
        self.decl().0
    }

    /// How the step's output relates to its inputs.
    pub(crate) fn shape(&self) -> RowShape {
        self.decl().1
    }

    /// The step's row of the declaration table: its label, its row shape
    /// and its (up to two) output slots.
    fn decl(&self) -> (&'static str, RowShape, [Option<usize>; 2]) {
        use RowShape::*;
        let one = |out: &usize| [Some(*out), None];
        match self {
            Step::SelectionMulti { out, .. } => ("selection_multi", Rows, one(out)),
            Step::SelectionCmpCols { out, .. } => ("selection_cmp_cols", Rows, one(out)),
            Step::Gather { out, .. } => ("gather", Rows, one(out)),
            Step::Affine { out, .. } => ("affine", Rows, one(out)),
            Step::Product { out, .. } => ("product", Rows, one(out)),
            Step::DenseMask { out, .. } => ("dense_mask", Rows, one(out)),
            Step::ConstantOnes { out, .. } => ("constant_ones", Rows, one(out)),
            Step::Join {
                algo,
                out_left,
                out_right,
                ..
            } => {
                let label = match algo {
                    JoinAlgo::Hash => "join[Hash]",
                    JoinAlgo::Merge => "join[Merge]",
                    JoinAlgo::NestedLoops => "join[NestedLoops]",
                };
                (label, Join, [Some(*out_left), Some(*out_right)])
            }
            Step::GroupedSum {
                out_keys, out_vals, ..
            } => ("grouped_sum", Group, [Some(*out_keys), Some(*out_vals)]),
            Step::Reduce { out, .. } => ("reduce", Reduce, one(out)),
            Step::FilterSumProduct { out, .. } => ("filter_sum_product", Reduce, one(out)),
            Step::FusedMap { out, .. } => ("fused_map", Rows, one(out)),
            Step::FusedFilterAgg { out, .. } => ("fused_filter_agg", Reduce, one(out)),
            Step::DownloadU32 { out, .. } => ("download_u32", Download, one(out)),
            Step::DownloadF64 { out, .. } => ("download_f64", Download, one(out)),
            Step::HostSort {
                keys, order, limit, ..
            } => {
                let by_value = *order == crate::logical::ResultOrder::ValueDescKeyAsc;
                let top_k = by_value || limit.is_some();
                ("host_sort", HostSort { top_k }, one(keys))
            }
            Step::Free { .. } => ("free", Free, [None, None]),
        }
    }
}

/// Named base columns a [`PhysicalPlan`] executes against (borrowed,
/// never freed by the plan).
#[derive(Debug, Default)]
pub struct PlanBindings<'a> {
    cols: BTreeMap<String, &'a Col>,
}

impl<'a> PlanBindings<'a> {
    /// Empty bindings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `col` under the qualified name `table.column`.
    pub fn bind(&mut self, name: &str, col: &'a Col) -> &mut Self {
        self.cols.insert(name.to_string(), col);
        self
    }

    fn get(&self, name: &str) -> Result<&'a Col> {
        self.cols
            .get(name)
            .copied()
            .ok_or_else(|| SimError::Unsupported(format!("unbound plan column `{name}`")))
    }

    /// Iterate the bound `(name, column)` pairs — the resilient plan
    /// executor rebinds the non-partitioned columns per chunk from these.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &'a Col)> + '_ {
        self.cols.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

/// One named result of an executed plan.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PlanValue {
    /// Scalar aggregate.
    Scalar(f64),
    /// Downloaded `u32` vector (group keys).
    U32(Vec<u32>),
    /// Downloaded `f64` vector (aggregate values).
    F64(Vec<f64>),
}

/// The named outputs of [`PhysicalPlan::execute`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanOutput {
    values: BTreeMap<String, PlanValue>,
}

impl PlanOutput {
    /// Rebuild an output set from named values (partition merge).
    pub(crate) fn from_values(values: BTreeMap<String, PlanValue>) -> Self {
        PlanOutput { values }
    }

    /// Consume into the named value map (partition merge).
    pub(crate) fn into_values(self) -> BTreeMap<String, PlanValue> {
        self.values
    }

    /// The scalar output `name`.
    pub fn scalar(&self, name: &str) -> Result<f64> {
        match self.values.get(name) {
            Some(PlanValue::Scalar(v)) => Ok(*v),
            _ => Err(SimError::Unsupported(format!(
                "plan output `{name}` is not a scalar"
            ))),
        }
    }

    /// The `u32` vector output `name`.
    pub fn u32s(&self, name: &str) -> Result<&[u32]> {
        match self.values.get(name) {
            Some(PlanValue::U32(v)) => Ok(v),
            _ => Err(SimError::Unsupported(format!(
                "plan output `{name}` is not a u32 vector"
            ))),
        }
    }

    /// The `f64` vector output `name`.
    pub fn f64s(&self, name: &str) -> Result<&[f64]> {
        match self.values.get(name) {
            Some(PlanValue::F64(v)) => Ok(v),
            _ => Err(SimError::Unsupported(format!(
                "plan output `{name}` is not an f64 vector"
            ))),
        }
    }
}

/// A materialised slot value during execution — the unit of plan-level
/// checkpointing: completed slots survive a step retry or backend
/// fallback (host-resident values verbatim; device columns only within
/// the backend that created them).
#[derive(Debug)]
pub(crate) enum SlotVal {
    /// A live device column.
    Col(Col),
    /// A host scalar.
    Scalar(f64),
    /// A downloaded host `u32` vector.
    U32s(Vec<u32>),
    /// A downloaded host `f64` vector.
    F64s(Vec<f64>),
}

/// The slot store one plan execution writes — `None` until a step
/// produces the slot (and again after [`Step::Free`] releases it).
pub(crate) type SlotStore = Vec<Option<SlotVal>>;

/// A compiled, backend-specific query: straight-line [`Step`]s over
/// numbered slots, with named outputs.
///
/// Produced by [`crate::optimizer::plan`]; run with
/// [`PhysicalPlan::execute`]. Inspect with [`PhysicalPlan::explain`]
/// (the Table-II lowering) or walk [`PhysicalPlan::steps`] directly.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    pub(crate) query: String,
    pub(crate) backend: String,
    pub(crate) join_algo: Option<JoinAlgo>,
    pub(crate) fused: bool,
    pub(crate) steps: Vec<Step>,
    /// Per-step realising library call, parallel to `steps`.
    pub(crate) realize: Vec<String>,
    pub(crate) slots: Vec<SlotMeta>,
    pub(crate) outputs: Vec<(String, usize)>,
    pub(crate) base: BTreeMap<String, ColType>,
    /// The cost report attached by the cost-based planner
    /// ([`crate::optimizer::CostingOptions`]); `None` for heuristic
    /// plans, keeping their `explain()` byte-identical.
    pub(crate) cost: Option<crate::costing::CostReport>,
}

impl PhysicalPlan {
    /// The query name this plan was compiled from.
    pub fn query(&self) -> &str {
        &self.query
    }

    /// Name of the backend the plan was lowered for.
    pub(crate) fn backend_name(&self) -> &str {
        &self.backend
    }

    /// The step list, in execution order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Metadata of every slot the steps write.
    pub fn slots(&self) -> &[SlotMeta] {
        &self.slots
    }

    /// Named outputs: `(name, slot)` pairs.
    pub fn outputs(&self) -> &[(String, usize)] {
        &self.outputs
    }

    /// Qualified base columns the plan reads, with their dtypes.
    pub fn base_columns(&self) -> &BTreeMap<String, ColType> {
        &self.base
    }

    /// The planner's cost report, when this plan was produced by the
    /// cost-based path ([`crate::optimizer::CostingOptions`]).
    pub fn cost_report(&self) -> Option<&crate::costing::CostReport> {
        self.cost.as_ref()
    }

    fn fmt_ref(&self, r: &ColRef) -> String {
        match r {
            ColRef::Base(name) => name.clone(),
            ColRef::Slot(i) => format!("%{i}"),
        }
    }

    fn fmt_preds(&self, preds: &[PlanPred]) -> String {
        preds
            .iter()
            .map(|p| format!("{} {:?} {}", self.fmt_ref(&p.col), p.cmp, p.lit))
            .collect::<Vec<_>>()
            .join(" AND ")
    }

    fn fmt_fused_preds(&self, inputs: &[ColRef], preds: &[FusedPred]) -> String {
        preds
            .iter()
            .map(|p| format!("{} {:?} {}", self.fmt_ref(&inputs[p.input]), p.cmp, p.lit))
            .collect::<Vec<_>>()
            .join(" AND ")
    }

    /// Render the plan: one line per step with its realising library
    /// call, plus the named outputs — the per-backend Table-II lowering
    /// the optimizer golden tests snapshot.
    pub fn explain(&self) -> String {
        let join = match self.join_algo {
            Some(JoinAlgo::Hash) => "hash",
            Some(JoinAlgo::Merge) => "merge",
            Some(JoinAlgo::NestedLoops) => "nested-loops",
            None => "none",
        };
        let mut out = format!(
            "PhysicalPlan {} on {} (join: {join}, fast paths: {})\n",
            self.query,
            self.backend,
            if self.fused { "on" } else { "off" }
        );
        for (ix, (step, how)) in self.steps.iter().zip(&self.realize).enumerate() {
            let text = match step {
                Step::SelectionMulti { preds, conn, out } => format!(
                    "%{out} = selection_multi({}; {conn:?})",
                    self.fmt_preds(preds)
                ),
                Step::SelectionCmpCols { a, b, cmp, out } => format!(
                    "%{out} = selection({} {cmp:?} {})",
                    self.fmt_ref(a),
                    self.fmt_ref(b)
                ),
                Step::Gather { data, ids, out } => format!(
                    "%{out} = gather({}, {})",
                    self.fmt_ref(data),
                    self.fmt_ref(ids)
                ),
                Step::Affine {
                    input,
                    mul,
                    add,
                    out,
                } => format!("%{out} = {} * {mul} + {add}", self.fmt_ref(input)),
                Step::Product { a, b, out } => {
                    format!("%{out} = {} * {}", self.fmt_ref(a), self.fmt_ref(b))
                }
                Step::DenseMask {
                    input,
                    cmp,
                    lit,
                    out,
                } => format!("%{out} = mask({} {cmp:?} {lit})", self.fmt_ref(input)),
                Step::ConstantOnes { like, out } => {
                    format!("%{out} = ones(len {})", self.fmt_ref(like))
                }
                Step::Join {
                    outer,
                    inner,
                    algo,
                    out_left,
                    out_right,
                } => format!(
                    "%{out_left}, %{out_right} = join[{algo:?}]({}, {})",
                    self.fmt_ref(outer),
                    self.fmt_ref(inner)
                ),
                Step::GroupedSum {
                    keys,
                    vals,
                    out_keys,
                    out_vals,
                } => format!(
                    "%{out_keys}, %{out_vals} = grouped_sum({}, {})",
                    self.fmt_ref(keys),
                    self.fmt_ref(vals)
                ),
                Step::Reduce { input, out } => {
                    format!("%{out} = sum({})", self.fmt_ref(input))
                }
                Step::FilterSumProduct { a, b, preds, out } => format!(
                    "%{out} = filter_sum_product({}, {}; {})",
                    self.fmt_ref(a),
                    self.fmt_ref(b),
                    self.fmt_preds(preds)
                ),
                Step::FusedMap {
                    inputs,
                    expr,
                    threshold,
                    out,
                } => format!(
                    "%{out} = fused_map({}) [n>{threshold}]",
                    expr.render(&|i| self.fmt_ref(&inputs[i]))
                ),
                Step::FusedFilterAgg {
                    inputs,
                    preds,
                    expr,
                    threshold,
                    out,
                } => format!(
                    "%{out} = fused_filter_agg({}; {}) [n>{threshold}]",
                    self.fmt_fused_preds(inputs, preds),
                    expr.render(&|i| self.fmt_ref(&inputs[i]))
                ),
                Step::DownloadU32 { input, out } | Step::DownloadF64 { input, out } => {
                    format!("%{out} = download({})", self.fmt_ref(input))
                }
                Step::HostSort {
                    keys,
                    vals,
                    order,
                    limit,
                } => {
                    let ord = match order {
                        crate::logical::ResultOrder::KeyAsc => "key asc",
                        crate::logical::ResultOrder::ValueDescKeyAsc => "value desc, key asc",
                    };
                    let cosort: Vec<String> = vals.iter().map(|v| format!("%{v}")).collect();
                    let lim = limit.map_or(String::new(), |n| format!(" limit {n}"));
                    format!("sort %{keys} with [{}] {ord}{lim}", cosort.join(", "))
                }
                Step::Free { slot } => format!("free %{slot} ({})", self.slots[*slot].name),
            };
            let line = if how.is_empty() {
                format!("  {text}")
            } else {
                format!("  {text:<55} [{how}]")
            };
            // Costed plans carry per-step byte/time estimates so costed
            // and uncosted listings diff cleanly in goldens; heuristic
            // plans print exactly the historical listing.
            match self.cost.as_ref().and_then(|c| c.steps.get(ix)) {
                Some(sc) => {
                    let _ = writeln!(
                        out,
                        "{line:<75} ~{{rows={}, r={} B, w={} B, cold={} ns, warm={} ns}}",
                        sc.rows_out, sc.bytes_read, sc.bytes_written, sc.cold_ns, sc.warm_ns
                    );
                }
                None => {
                    let _ = writeln!(out, "{line}");
                }
            }
        }
        for (name, slot) in &self.outputs {
            let _ = writeln!(out, "  output {name} = %{slot}");
        }
        if let Some(cost) = &self.cost {
            out.push_str(&cost.render());
        }
        out
    }

    /// Execute on `backend` against `binds`.
    pub fn execute(
        &self,
        backend: &dyn GpuBackend,
        binds: &PlanBindings<'_>,
    ) -> Result<PlanOutput> {
        let mut store = self.new_store();
        for ix in 0..self.steps.len() {
            self.exec_step(backend, binds, &mut store, ix)?;
        }
        self.collect_outputs(&mut store)
    }

    /// An empty slot store sized for this plan.
    pub(crate) fn new_store(&self) -> SlotStore {
        let mut store: SlotStore = Vec::with_capacity(self.slots.len());
        store.resize_with(self.slots.len(), || None);
        store
    }

    /// The device column `r` names: a bound base column, or the slot an
    /// earlier step wrote.
    fn resolve<'s>(
        &self,
        binds: &'s PlanBindings<'_>,
        slots: &'s [Option<SlotVal>],
        r: &ColRef,
    ) -> Result<&'s Col> {
        match r {
            ColRef::Base(name) => binds.get(name),
            ColRef::Slot(i) => match slots.get(*i).and_then(Option::as_ref) {
                Some(SlotVal::Col(c)) => Ok(c),
                _ => Err(SimError::Unsupported(format!(
                    "plan slot %{i} ({}) does not hold a device column",
                    self.slots[*i].name
                ))),
            },
        }
    }

    /// Execute step `ix` against `store`, issuing exactly the backend
    /// calls the straight-line interpreter always issued (the
    /// zero-overhead contract: recovery layers drive this per step, and
    /// at fault rate 0 the emitted trace is byte-identical to plain
    /// execution).
    ///
    /// A failing step leaves `store` untouched for every transiently
    /// fallible path, so recovery layers can replay the step against the
    /// surviving slot checkpoints.
    pub(crate) fn exec_step(
        &self,
        backend: &dyn GpuBackend,
        binds: &PlanBindings<'_>,
        store: &mut SlotStore,
        ix: usize,
    ) -> Result<()> {
        // Operands borrow from `binds` and the slot store; each arm is done
        // with them before it writes its result.
        let slots: &[Option<SlotVal>] = store;
        let col = |r: &ColRef| self.resolve(binds, slots, r);
        {
            let step = &self.steps[ix];
            match step {
                Step::SelectionMulti { preds, conn, out } => {
                    let cols: Vec<&Col> =
                        preds.iter().map(|p| col(&p.col)).collect::<Result<_>>()?;
                    let ps: Vec<Pred<'_>> = preds
                        .iter()
                        .zip(cols)
                        .map(|(p, col)| Pred {
                            col,
                            cmp: p.cmp,
                            lit: p.lit,
                        })
                        .collect();
                    let r = backend.selection_multi(&ps, *conn)?;
                    store[*out] = Some(SlotVal::Col(r));
                }
                Step::SelectionCmpCols { a, b, cmp, out } => {
                    let (ca, cb) = (col(a)?, col(b)?);
                    let r = backend.selection_cmp_cols(ca, cb, *cmp)?;
                    store[*out] = Some(SlotVal::Col(r));
                }
                Step::Gather { data, ids, out } => {
                    let (cd, ci) = (col(data)?, col(ids)?);
                    let r = backend.gather(cd, ci)?;
                    store[*out] = Some(SlotVal::Col(r));
                }
                Step::Affine {
                    input,
                    mul,
                    add,
                    out,
                } => {
                    let c = col(input)?;
                    let r = backend.affine(c, *mul, *add)?;
                    store[*out] = Some(SlotVal::Col(r));
                }
                Step::Product { a, b, out } => {
                    let (ca, cb) = (col(a)?, col(b)?);
                    let r = backend.product(ca, cb)?;
                    store[*out] = Some(SlotVal::Col(r));
                }
                Step::DenseMask {
                    input,
                    cmp,
                    lit,
                    out,
                } => {
                    let c = col(input)?;
                    let r = backend.dense_mask(c, *cmp, *lit)?;
                    store[*out] = Some(SlotVal::Col(r));
                }
                Step::ConstantOnes { like, out } => {
                    let c = col(like)?;
                    let r = backend.constant_f64(c.len(), 1.0)?;
                    store[*out] = Some(SlotVal::Col(r));
                }
                Step::Join {
                    outer,
                    inner,
                    algo,
                    out_left,
                    out_right,
                } => {
                    let (co, ci) = (col(outer)?, col(inner)?);
                    let (l, r) = backend.join(co, ci, *algo)?;
                    store[*out_left] = Some(SlotVal::Col(l));
                    store[*out_right] = Some(SlotVal::Col(r));
                }
                Step::GroupedSum {
                    keys,
                    vals,
                    out_keys,
                    out_vals,
                } => {
                    let (ck, cv) = (col(keys)?, col(vals)?);
                    let (k, v) = backend.grouped_sum(ck, cv)?;
                    store[*out_keys] = Some(SlotVal::Col(k));
                    store[*out_vals] = Some(SlotVal::Col(v));
                }
                Step::Reduce { input, out } => {
                    let c = col(input)?;
                    let r = backend.reduction(c)?;
                    store[*out] = Some(SlotVal::Scalar(r));
                }
                Step::FilterSumProduct { a, b, preds, out } => {
                    let (ca, cb) = (col(a)?, col(b)?);
                    let cols: Vec<&Col> =
                        preds.iter().map(|p| col(&p.col)).collect::<Result<_>>()?;
                    let ps: Vec<Pred<'_>> = preds
                        .iter()
                        .zip(cols)
                        .map(|(p, col)| Pred {
                            col,
                            cmp: p.cmp,
                            lit: p.lit,
                        })
                        .collect();
                    let r = backend.filter_sum_product(ca, cb, &ps)?;
                    store[*out] = Some(SlotVal::Scalar(r));
                }
                Step::FusedMap {
                    inputs,
                    expr,
                    threshold,
                    out,
                } => {
                    let refs: Vec<&Col> = inputs.iter().map(col).collect::<Result<_>>()?;
                    let len = refs.first().map_or(0, |c| c.len());
                    // Size-adaptive dispatch: the single-pass kernel only
                    // wins above the calibrated break-even; both paths are
                    // bit-equal.
                    let r = if len > *threshold {
                        backend.fused_map(&refs, expr)?
                    } else {
                        crate::fused::composed_map(backend, &refs, expr)?
                    };
                    store[*out] = Some(SlotVal::Col(r));
                }
                Step::FusedFilterAgg {
                    inputs,
                    preds,
                    expr,
                    threshold,
                    out,
                } => {
                    let refs: Vec<&Col> = inputs.iter().map(col).collect::<Result<_>>()?;
                    let len = refs.first().map_or(0, |c| c.len());
                    let r = if len > *threshold {
                        backend.fused_filter_agg(&refs, preds, expr)?
                    } else {
                        crate::fused::composed_filter_agg(backend, &refs, preds, expr)?
                    };
                    store[*out] = Some(SlotVal::Scalar(r));
                }
                Step::DownloadU32 { input, out } => {
                    let c = col(input)?;
                    let r = backend.download_u32(c)?;
                    store[*out] = Some(SlotVal::U32s(r));
                }
                Step::DownloadF64 { input, out } => {
                    let c = col(input)?;
                    let r = backend.download_f64(c)?;
                    store[*out] = Some(SlotVal::F64s(r));
                }
                Step::HostSort {
                    keys,
                    vals,
                    order,
                    limit,
                } => {
                    let key_vec = match store[*keys].take() {
                        Some(SlotVal::U32s(v)) => v,
                        _ => {
                            return Err(SimError::Unsupported(
                                "host sort key slot is not a downloaded u32 vector".into(),
                            ))
                        }
                    };
                    let mut val_vecs: Vec<Vec<f64>> = Vec::with_capacity(vals.len());
                    for &v in vals {
                        match store[v].take() {
                            Some(SlotVal::F64s(x)) => val_vecs.push(x),
                            _ => {
                                return Err(SimError::Unsupported(
                                    "host sort value slot is not a downloaded f64 vector".into(),
                                ))
                            }
                        }
                    }
                    let mut order_ix: Vec<usize> = (0..key_vec.len()).collect();
                    match order {
                        crate::logical::ResultOrder::KeyAsc => {
                            order_ix.sort_by_key(|&i| key_vec[i]);
                        }
                        crate::logical::ResultOrder::ValueDescKeyAsc => {
                            let primary = &val_vecs[0];
                            // NaN admits no total order: refuse with a
                            // typed error instead of panicking mid-sort.
                            if let Some(row) = primary.iter().position(|v| v.is_nan()) {
                                return Err(SimError::Unsupported(format!(
                                    "host sort: aggregate value column is NaN at row {row}"
                                )));
                            }
                            // `partial_cmp`, not `total_cmp`: -0.0 and
                            // +0.0 tie, and the key breaks the tie. With
                            // NaN refused above it is never `None`.
                            order_ix.sort_by(|&i, &j| {
                                primary[j]
                                    .partial_cmp(&primary[i])
                                    .unwrap_or(std::cmp::Ordering::Equal)
                                    .then(key_vec[i].cmp(&key_vec[j]))
                            });
                        }
                    }
                    if let Some(n) = limit {
                        order_ix.truncate(*n);
                    }
                    store[*keys] = Some(SlotVal::U32s(
                        order_ix.iter().map(|&i| key_vec[i]).collect(),
                    ));
                    for (slot, vec) in vals.iter().zip(val_vecs) {
                        store[*slot] =
                            Some(SlotVal::F64s(order_ix.iter().map(|&i| vec[i]).collect()));
                    }
                }
                Step::Free { slot } => match store[*slot].take() {
                    Some(SlotVal::Col(c)) => backend.free(c)?,
                    held => {
                        store[*slot] = held;
                        return Err(SimError::Unsupported(format!(
                            "plan frees slot %{slot} ({}) which holds no device column",
                            self.slots[*slot].name
                        )));
                    }
                },
            }
        }
        Ok(())
    }

    /// Drain the named outputs from an executed `store`.
    pub(crate) fn collect_outputs(&self, store: &mut SlotStore) -> Result<PlanOutput> {
        let mut out = PlanOutput::default();
        for (name, slot) in &self.outputs {
            let v = match store[*slot].take() {
                Some(SlotVal::Scalar(v)) => PlanValue::Scalar(v),
                Some(SlotVal::U32s(v)) => PlanValue::U32(v),
                Some(SlotVal::F64s(v)) => PlanValue::F64(v),
                Some(SlotVal::Col(_)) | None => {
                    return Err(SimError::Unsupported(format!(
                        "plan output `{name}` (%{slot}) was not downloaded"
                    )))
                }
            };
            out.values.insert(name.clone(), v);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod contract_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::HandwrittenBackend;
    use gpu_sim::Device;

    /// A minimal download + host-sort plan over two bound base columns.
    fn sort_plan(order: crate::logical::ResultOrder) -> PhysicalPlan {
        PhysicalPlan {
            query: "sort-test".into(),
            backend: "Handwritten".into(),
            join_algo: None,
            fused: false,
            cost: None,
            steps: vec![
                Step::DownloadU32 {
                    input: ColRef::Base("t.k".into()),
                    out: 0,
                },
                Step::DownloadF64 {
                    input: ColRef::Base("t.v".into()),
                    out: 1,
                },
                Step::HostSort {
                    keys: 0,
                    vals: vec![1],
                    order,
                    limit: None,
                },
            ],
            realize: vec![String::new(); 3],
            slots: vec![
                SlotMeta {
                    name: "keys".into(),
                    kind: SlotKind::HostU32,
                },
                SlotMeta {
                    name: "vals".into(),
                    kind: SlotKind::HostF64,
                },
            ],
            outputs: vec![("keys".into(), 0), ("vals".into(), 1)],
            base: [
                ("t.k".to_string(), ColType::U32),
                ("t.v".to_string(), ColType::F64),
            ]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn nan_aggregate_key_is_a_clean_error_not_a_panic() {
        let dev = Device::with_defaults();
        let b = HandwrittenBackend::new(&dev);
        let k = b.upload_u32(&[1, 2, 3]).unwrap();
        let v = b.upload_f64(&[2.0, f64::NAN, 1.0]).unwrap();
        let mut binds = PlanBindings::new();
        binds.bind("t.k", &k).bind("t.v", &v);
        let plan = sort_plan(crate::logical::ResultOrder::ValueDescKeyAsc);
        let err = plan.execute(&b, &binds).unwrap_err();
        assert!(
            matches!(&err, SimError::Unsupported(m) if m.contains("NaN at row 1")),
            "{err}"
        );
        for c in [k, v] {
            b.free(c).unwrap();
        }
    }

    #[test]
    fn value_ordered_host_sort_still_sorts_nan_free_data() {
        // Value descending, ties broken by ascending key; -0.0 and +0.0
        // tie, so only the key orders them.
        let cases: [(&[u32], &[f64], &[u32]); 2] = [
            (&[3, 1, 2], &[5.0, 9.0, 5.0], &[1, 2, 3]),
            (&[4, 3, 2, 1], &[0.0, -0.0, 0.0, -0.0], &[1, 2, 3, 4]),
        ];
        for (keys, vals, want) in cases {
            let dev = Device::with_defaults();
            let b = HandwrittenBackend::new(&dev);
            let k = b.upload_u32(keys).unwrap();
            let v = b.upload_f64(vals).unwrap();
            let mut binds = PlanBindings::new();
            binds.bind("t.k", &k).bind("t.v", &v);
            let plan = sort_plan(crate::logical::ResultOrder::ValueDescKeyAsc);
            let out = plan.execute(&b, &binds).unwrap();
            assert_eq!(out.u32s("keys").unwrap(), want);
            // Each value travels with its key, sign of zero included.
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let want_vals: Vec<f64> = want
                .iter()
                .map(|w| vals[keys.iter().position(|k| k == w).unwrap()])
                .collect();
            assert_eq!(bits(out.f64s("vals").unwrap()), bits(&want_vals));
            for c in [k, v] {
                b.free(c).unwrap();
            }
        }
    }

    /// A step that fails partway through a plan leaves no column behind:
    /// dropping the slot store frees what the steps before it created.
    #[test]
    fn a_failing_step_frees_the_columns_the_steps_before_it_created() {
        use crate::logical::{AggExpr, ColumnDecl, Expr, LogicalPlan, Predicate};
        use gpu_sim::{FaultPlan, FaultSite};
        let dev = Device::with_defaults();
        let b = HandwrittenBackend::new(&dev);
        let keys = b.upload_u32(&[1, 2, 1, 3]).unwrap();
        let vals = b.upload_f64(&[0.5, 1.0, 0.25, 2.0]).unwrap();
        let logical = LogicalPlan::scan("t", vec![ColumnDecl::u32("k"), ColumnDecl::f64("v")])
            .filter(Predicate::cmp("t.v", CmpOp::Lt, 1.5))
            .aggregate(Some("t.k"), vec![("sum", AggExpr::Sum(Expr::col("t.v")))]);
        let plan = crate::optimizer::plan("partway", &logical, &b).unwrap();
        let mut binds = PlanBindings::new();
        binds.bind("t.k", &keys).bind("t.v", &vals);
        // The device steps run; the first download times out.
        dev.install_fault_plan(FaultPlan::new(7).with_rate(FaultSite::DtoH, 1.0));
        let (live, launches) = (dev.live_buffers(), dev.stats().total_launches());
        let failed = plan.execute(&b, &binds);
        assert!(
            matches!(failed, Err(SimError::TransferTimeout { .. })),
            "{failed:?}"
        );
        assert!(dev.stats().total_launches() > launches, "no step ran first");
        assert_eq!(dev.live_buffers(), live);
    }
}
