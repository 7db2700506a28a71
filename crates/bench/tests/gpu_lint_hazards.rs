//! Hazard-injection property tests for `gpu-lint`.
//!
//! Each test starts from a *real* captured experiment trace (or a
//! really-compiled Program or query plan), verifies it is clean, then
//! uses a seeded mutator to inject one hazard of a known class and
//! asserts the analyzer flags exactly that rule, anchored on the
//! injected events. Running every class across several seeds moves the
//! injection site around the artifact, so the detectors are exercised at
//! arbitrary positions, not one hand-picked spot.
//!
//! The golden-gate test at the bottom replays the full experiment grid
//! and requires zero diagnostics (modulo the documented waiver table) —
//! the no-false-positive half of the contract.

use arrayfire_sim::{BinaryOp, DType, ProgramSpec};
use gpu_lint::Rule;
use gpu_sim::hostexec::expr::Instr;
use gpu_sim::{BufferId, KernelIo, TraceEvent, TraceKind};

const SEEDS: [u64; 6] = [1, 2, 3, 5, 8, 13];

/// Deterministic xorshift64* — the mutator's only entropy source.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "picking from an empty candidate set");
        (self.next() % n as u64) as usize
    }
}

/// A real, clean trace to mutate: E3's handwritten cell.
fn golden_trace() -> Vec<TraceEvent> {
    let mut cfg = bench::traced::lint_config();
    cfg.sizes = vec![1 << 10];
    let cells = bench::traced::traced_experiment(&cfg, "E3");
    let cell = cells
        .into_iter()
        .find(|c| c.label == "E3/Handwritten")
        .expect("E3 runs on the handwritten backend");
    assert!(
        gpu_lint::lint_trace(&cell.label, &cell.trace).is_clean(),
        "baseline trace must be clean before mutation"
    );
    cell.trace
}

fn ev(kind: TraceKind) -> TraceEvent {
    TraceEvent::new(0, 0, kind)
}

fn known_kernel(reads: &[BufferId], writes: &[BufferId]) -> TraceKind {
    TraceKind::Kernel {
        name: "injected".into(),
        io: KernelIo::known(reads, writes),
        bytes_read: 0,
        bytes_written: 0,
    }
}

/// A buffer id the trace has never seen (ids are never reused).
fn fresh_buffer(trace: &[TraceEvent], offset: u64) -> BufferId {
    let max = trace
        .iter()
        .flat_map(|e| match &e.kind {
            TraceKind::Alloc { buf, .. }
            | TraceKind::PoolAlloc { buf, .. }
            | TraceKind::Free { buf }
            | TraceKind::HtoD { buf, .. }
            | TraceKind::DtoH { buf, .. } => vec![buf.0],
            TraceKind::DtoD { src, dst, .. } => vec![src.0, dst.0],
            TraceKind::Kernel { io, .. } => match io {
                KernelIo::Known { reads, writes } => {
                    reads.iter().chain(writes).map(|b| b.0).collect()
                }
                KernelIo::Unknown => vec![],
            },
            _ => vec![],
        })
        .max()
        .unwrap_or(0);
    BufferId(max + 1 + offset)
}

/// Indices of `Free` events, with the freed buffer.
fn free_sites(trace: &[TraceEvent]) -> Vec<(usize, BufferId)> {
    trace
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e.kind {
            TraceKind::Free { buf } => Some((i, buf)),
            _ => None,
        })
        .collect()
}

/// Assert `trace` produces a diagnostic of `rule` anchored on `events`.
fn assert_flags(trace: &[TraceEvent], rule: Rule, events: &[usize]) {
    let report = gpu_lint::lint_trace("mutated", trace);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == rule && d.events == events),
        "expected {} at {events:?}, got: {:?}",
        rule.id(),
        report.diagnostics
    );
}

#[test]
fn injected_use_after_free_is_flagged() {
    let base = golden_trace();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut t = base.clone();
        let sites = free_sites(&t);
        let (f, buf) = sites[rng.pick(sites.len())];
        t.insert(f + 1, ev(known_kernel(&[buf], &[])));
        assert_flags(&t, Rule::UseAfterFree, &[f, f + 1]);
    }
}

#[test]
fn injected_double_free_is_flagged() {
    let base = golden_trace();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut t = base.clone();
        let sites = free_sites(&t);
        let (f, buf) = sites[rng.pick(sites.len())];
        // Anywhere strictly after the first free works: ids are unique.
        let g = f + 1 + rng.pick(t.len() - f);
        t.insert(g, ev(TraceKind::Free { buf }));
        assert_flags(&t, Rule::DoubleFree, &[f, g]);
    }
}

#[test]
fn injected_dead_transfers_are_flagged() {
    let base = golden_trace();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);

        // Dead D2H: download a buffer nothing ever wrote.
        let mut t = base.clone();
        let buf = fresh_buffer(&t, seed);
        let pos = rng.pick(t.len());
        t.insert(
            pos,
            ev(TraceKind::Alloc {
                bytes: 64,
                buf,
                init: false,
            }),
        );
        t.insert(pos + 1, ev(TraceKind::DtoH { bytes: 64, buf }));
        t.insert(pos + 2, ev(TraceKind::Free { buf }));
        assert_flags(&t, Rule::DeadDeviceToHost, &[pos + 1]);

        // Dead H2D: upload a buffer no kernel or download ever reads,
        // with compute (an empty-footprint kernel) in its live window.
        let mut t = base.clone();
        let buf = fresh_buffer(&t, seed);
        let pos = rng.pick(t.len());
        t.insert(
            pos,
            ev(TraceKind::Alloc {
                bytes: 64,
                buf,
                init: true,
            }),
        );
        t.insert(pos + 1, ev(TraceKind::HtoD { bytes: 64, buf }));
        t.insert(pos + 2, ev(known_kernel(&[], &[])));
        t.insert(pos + 3, ev(TraceKind::Free { buf }));
        assert_flags(&t, Rule::DeadHostToDevice, &[pos + 1]);
    }
}

#[test]
fn injected_read_before_write_is_flagged() {
    let base = golden_trace();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut t = base.clone();
        let buf = fresh_buffer(&t, seed);
        let pos = rng.pick(t.len());
        t.insert(
            pos,
            ev(TraceKind::Alloc {
                bytes: 64,
                buf,
                init: false,
            }),
        );
        t.insert(pos + 1, ev(known_kernel(&[buf], &[])));
        t.insert(pos + 2, ev(TraceKind::Free { buf }));
        assert_flags(&t, Rule::ReadBeforeWrite, &[pos + 1]);
    }
}

#[test]
fn injected_leak_and_unknown_free_are_flagged() {
    let base = golden_trace();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);

        // Leak: an allocation that is never freed.
        let mut t = base.clone();
        let buf = fresh_buffer(&t, seed);
        let pos = rng.pick(t.len() + 1);
        t.insert(
            pos,
            ev(TraceKind::Alloc {
                bytes: 64,
                buf,
                init: true,
            }),
        );
        assert_flags(&t, Rule::LeakedBuffer, &[pos]);

        // Free of a buffer the trace never allocated.
        let mut t = base.clone();
        let buf = fresh_buffer(&t, seed);
        let pos = rng.pick(t.len() + 1);
        t.insert(pos, ev(TraceKind::Free { buf }));
        assert_flags(&t, Rule::UnknownFree, &[pos]);
    }
}

// ---- Program mutations -------------------------------------------------

/// A really-compiled Q6-style predicate program.
fn golden_program() -> ProgramSpec {
    use arrayfire_sim::node::Node;
    use arrayfire_sim::{ColumnData, Program, Scalar};
    use std::sync::Arc;
    let dev = gpu_sim::Device::with_defaults();
    let leaf = |id: u64| {
        Arc::new(Node::Leaf(
            id,
            Arc::new(ColumnData::from_f64(&dev, vec![1.0, 2.0, 3.0]).unwrap()),
        ))
    };
    let tree = Node::Binary(
        BinaryOp::And,
        Arc::new(Node::ScalarRhs(BinaryOp::Ge, leaf(1), Scalar::F64(1.5))),
        Arc::new(Node::Binary(
            BinaryOp::And,
            Arc::new(Node::ScalarRhs(BinaryOp::Lt, leaf(1), Scalar::F64(2.5))),
            Arc::new(Node::ScalarRhs(BinaryOp::Lt, leaf(2), Scalar::F64(9.0))),
        )),
    );
    let spec = Program::compile(&tree).spec();
    assert!(
        gpu_lint::lint_program("golden", &spec).is_clean(),
        "baseline program must verify before mutation"
    );
    spec
}

#[test]
fn injected_stack_imbalance_is_flagged() {
    let base = golden_program();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);

        // Extra operand: the stack ends with two values.
        let mut p = base.clone();
        let pos = rng.pick(p.instrs.len() + 1);
        p.instrs.insert(pos, Instr::Load(0));
        p.declared_stack_depth += 1; // isolate GL201 from GL205
        let d = gpu_lint::lint_program("mutated", &p);
        let hit = d
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::StackImbalance)
            .unwrap_or_else(|| panic!("GL201 expected, got {:?}", d.diagnostics));
        assert_eq!(hit.events.len(), 2, "two leftover producers: {hit:?}");
        assert!(hit.events.iter().all(|&i| i < p.instrs.len()));

        // Missing operand: some later instruction underflows.
        let mut p = base.clone();
        let loads: Vec<usize> = p
            .instrs
            .iter()
            .enumerate()
            .filter_map(|(i, ins)| matches!(ins, Instr::Load(_)).then_some(i))
            .collect();
        p.instrs.remove(loads[rng.pick(loads.len())]);
        let d = gpu_lint::lint_program("mutated", &p);
        assert!(
            d.diagnostics.iter().any(|d| d.rule == Rule::StackImbalance),
            "underflow must be an imbalance: {:?}",
            d.diagnostics
        );
    }
}

#[test]
fn injected_unbound_leaf_is_flagged() {
    let base = golden_program();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut p = base.clone();
        let loads: Vec<usize> = p
            .instrs
            .iter()
            .enumerate()
            .filter_map(|(i, ins)| matches!(ins, Instr::Load(_)).then_some(i))
            .collect();
        let site = loads[rng.pick(loads.len())];
        p.instrs[site] = Instr::Load(p.leaf_dtypes.len() + rng.pick(3));
        let d = gpu_lint::lint_program("mutated", &p);
        assert!(
            d.diagnostics
                .iter()
                .any(|d| d.rule == Rule::UnboundLeaf && d.events == [site]),
            "GL202 at #{site} expected: {:?}",
            d.diagnostics
        );
    }
}

#[test]
fn injected_dtype_mismatch_is_flagged() {
    let base = golden_program();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut p = base.clone();
        // Turn a comparison directly feeding an And into arithmetic:
        // the And now consumes a definitely-numeric operand. Only Ands
        // whose right operand is a scalar comparison qualify (an And
        // fed by another And has no comparison to corrupt).
        let ands: Vec<usize> = p
            .instrs
            .iter()
            .enumerate()
            .filter_map(|(i, ins)| {
                (matches!(ins, Instr::Binary(BinaryOp::And))
                    && i > 0
                    && matches!(p.instrs[i - 1], Instr::ScalarRhs(..)))
                .then_some(i)
            })
            .collect();
        let and = ands[rng.pick(ands.len())];
        p.instrs[and - 1] = Instr::ScalarRhs(BinaryOp::Add, 0.0);
        let d = gpu_lint::lint_program("mutated", &p);
        assert!(
            d.diagnostics
                .iter()
                .any(|d| d.rule == Rule::DtypeMismatch && d.events == [and - 1, and]),
            "GL203 at #{} expected: {:?}",
            and - 1,
            d.diagnostics
        );
    }
}

#[test]
fn injected_dead_leaf_and_depth_overflow_are_flagged() {
    let base = golden_program();
    // A leaf bound in the table that no instruction loads.
    let mut p = base.clone();
    p.leaf_dtypes.push(DType::F64);
    let dead_slot = p.leaf_dtypes.len() - 1;
    let d = gpu_lint::lint_program("mutated", &p);
    assert!(
        d.diagnostics
            .iter()
            .any(|d| d.rule == Rule::DeadLeaf && d.events == [dead_slot]),
        "GL204 for slot {dead_slot} expected: {:?}",
        d.diagnostics
    );

    // Executor reserves less stack than the program truly needs.
    let mut p = base;
    p.declared_stack_depth = 0;
    let d = gpu_lint::lint_program("mutated", &p);
    assert!(
        d.diagnostics
            .iter()
            .any(|d| d.rule == Rule::StackDepthExceeded),
        "GL205 expected: {:?}",
        d.diagnostics
    );
}

// ---- Physical-query-plan mutations -------------------------------------

use gpu_lint::PhysView;
use proto_core::backend::ColType;
use proto_core::physical::SlotKind;

/// A real compiled TPC-H plan's view: Q5 on the handwritten backend —
/// the largest plan (four joins, 37 slots), so seeded injection sites
/// spread widely.
fn golden_physical_plan() -> PhysView {
    let fw = bench::paper_framework();
    let b = fw.backend("Handwritten").expect("handwritten backend");
    let plan = <tpch::queries::q5::Q5 as tpch::queries::Query>::physical_plan(b)
        .expect("Q5 plans on Handwritten");
    let view = gpu_lint::phys_view(&plan, optimizer::supported_joins(b));
    assert!(
        gpu_lint::lint_physical_plan("golden", &view).is_clean(),
        "baseline physical plan must be clean before mutation"
    );
    view
}

/// Indices of the plan's `Free` steps, with the freed slot.
fn plan_frees(view: &PhysView) -> Vec<(usize, usize)> {
    view.steps
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            Step::Free { slot } => Some((i, *slot)),
            _ => None,
        })
        .collect()
}

/// Assert `view` produces a diagnostic of `rule` anchored at step `site`.
fn assert_plan_flags(view: &PhysView, rule: Rule, site: usize) -> gpu_lint::Report {
    let report = gpu_lint::lint_physical_plan("mutated", view);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == rule && d.events == [site]),
        "{} anchored at #{site} expected: {:?}",
        rule.id(),
        report.diagnostics
    );
    report
}

#[test]
fn injected_unfreed_column_is_flagged() {
    let base = golden_physical_plan();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut view = base.clone();
        // Drop one free: the column it released now leaks.
        let frees = plan_frees(&view);
        let (victim, slot) = frees[rng.pick(frees.len())];
        view.steps.remove(victim);
        let def_site = view
            .steps
            .iter()
            .position(|s| s.writes().any(|w| w == slot))
            .expect("freed slots are defined");
        let report = assert_plan_flags(&view, Rule::UnfreedPlanColumn, def_site);
        assert_eq!(report.errors(), 0, "a leak is a warning, not an error");
    }
}

#[test]
fn injected_dtype_mismatch_in_plan_is_flagged() {
    let base = golden_physical_plan();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut view = base.clone();
        // Retype the column behind one typed operand: the call now reads
        // a dtype it does not accept (a u32 key column fed to
        // arithmetic, or measures used as gather indices).
        let typed: Vec<(usize, ColRef, ColType)> = view
            .steps
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                s.reads()
                    .into_iter()
                    .filter_map(move |r| r.dtype.map(|t| (i, r.col.clone(), t)))
            })
            .collect();
        let (i, col, want) = typed[rng.pick(typed.len())].clone();
        let other = match want {
            ColType::U32 => ColType::F64,
            ColType::F64 => ColType::U32,
        };
        match col {
            ColRef::Base(name) => {
                view.base.insert(name, other);
            }
            ColRef::Slot(s) => match &mut view.slots[s].kind {
                SlotKind::Device { dtype, .. } => *dtype = other,
                kind => panic!("typed operand %{s} is a {kind:?}, not a device column"),
            },
        }
        assert_plan_flags(&view, Rule::PlanDtypeMismatch, i);
    }
}

/// A fused TPC-H plan: Q6 compiled with the general fusion pass on, so
/// the plan carries a `fused_filter_agg` step whose arithmetic reads
/// are marked `fused_arith` — the GL405 injection surface.
fn golden_fused_physical_plan() -> PhysView {
    let fw = bench::paper_framework();
    let b = fw.backend("Handwritten").expect("handwritten backend");
    let opts = PlannerOptions {
        fusion: FusionPolicy::on(),
        ..PlannerOptions::default()
    };
    let plan = optimizer::plan_with("Q6+fused", &tpch::queries::q6::logical_plan(), b, &opts)
        .expect("Q6 plans");
    let view = gpu_lint::phys_view(&plan, optimizer::supported_joins(b));
    assert!(
        view.steps.iter().any(|s| s.label().starts_with("fused_")),
        "fusion-enabled Q6 must contain a fused step"
    );
    assert!(
        gpu_lint::lint_physical_plan("golden", &view).is_clean(),
        "baseline fused plan must be clean before mutation"
    );
    view
}

#[test]
fn injected_fused_arith_dtype_mismatch_is_flagged() {
    let base = golden_fused_physical_plan();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut view = base.clone();
        // Retype the base column behind one fused arithmetic read to u32:
        // the generated kernel would now read integer keys as f64 — the
        // mismatch `check_fused_inputs` rejects at run time.
        let arith: Vec<(usize, ColRef)> = view
            .steps
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                s.reads()
                    .into_iter()
                    .filter(|r| r.fused_arith)
                    .map(move |r| (i, r.col.clone()))
            })
            .collect();
        assert!(!arith.is_empty(), "fused plan must have arithmetic reads");
        let (i, col) = arith[rng.pick(arith.len())].clone();
        let ColRef::Base(name) = col else {
            panic!("fused read {col:?} must be a base column in Q6");
        };
        view.base.insert(name, ColType::U32);
        let report = assert_plan_flags(&view, Rule::FusedArithNotF64, i);
        assert!(report.errors() > 0, "GL405 is an error");
    }
}

#[test]
fn injected_merge_join_on_unsorted_keys_is_flagged() {
    let base = golden_physical_plan();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut view = base.clone();
        // Retarget one join to the sort-requiring merge variant without
        // sorting its inputs (scan-order base keys stay unsorted),
        // modelling a lowering that picks the wrong algorithm for its
        // operands.
        let joins: Vec<usize> = view
            .steps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, Step::Join { .. }).then_some(i))
            .collect();
        let site = joins[rng.pick(joins.len())];
        if let Step::Join { algo, .. } = &mut view.steps[site] {
            *algo = JoinAlgo::Merge;
        }
        assert_plan_flags(&view, Rule::MergeJoinUnsorted, site);
    }
}

#[test]
fn injected_plan_use_after_free_is_flagged() {
    let base = golden_physical_plan();
    let bound = base.base.keys().next().expect("Q5 reads base columns");
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        // Double free: repeat one free step at the plan's end.
        let mut view = base.clone();
        let frees = plan_frees(&view);
        let (victim, _) = frees[rng.pick(frees.len())];
        view.steps.push(view.steps[victim].clone());
        assert_plan_flags(&view, Rule::PlanUseAfterFree, view.steps.len() - 1);

        // Premature free: release the device slot feeding a seed-picked
        // output download immediately before the download runs.
        let mut view = base.clone();
        let out_slots: Vec<usize> = view.outputs.iter().map(|(_, s)| *s).collect();
        let downloads: Vec<(usize, usize)> = view
            .steps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.writes().any(|w| out_slots.contains(&w)))
            .flat_map(|(i, s)| {
                s.reads().into_iter().filter_map(move |r| match r.col {
                    ColRef::Slot(src) => Some((i, *src)),
                    ColRef::Base(_) => None,
                })
            })
            .collect();
        let (dl, src) = downloads[rng.pick(downloads.len())];
        view.steps.insert(dl, Step::Free { slot: src });
        assert_plan_flags(&view, Rule::PlanUseAfterFree, dl + 1);

        // Read of a slot no step defines (past the slot table, too),
        // downloaded into one of the plan's own host slots.
        let mut view = base.clone();
        let ghost = view.slots.len() + seed as usize;
        let host = view
            .slots
            .iter()
            .position(|m| m.kind == SlotKind::HostF64)
            .expect("Q5 downloads f64 results");
        let site = rng.pick(view.steps.len() + 1);
        let read = Step::DownloadF64 {
            input: ColRef::Slot(ghost),
            out: host,
        };
        view.steps.insert(site, read);
        assert_plan_flags(&view, Rule::PlanUseAfterFree, site);

        // A malformed view is a finding at its step, not a panic: a write
        // past the slot table ...
        let mut view = base.clone();
        let site = rng.pick(view.steps.len() + 1);
        let write = Step::ConstantOnes {
            like: ColRef::Base(bound.clone()),
            out: ghost,
        };
        view.steps.insert(site, write);
        assert_plan_flags(&view, Rule::PlanUseAfterFree, site);

        // ... and a read of a base column the view does not bind.
        let mut view = base.clone();
        let base_reads: Vec<(usize, String)> = view
            .steps
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                s.reads().into_iter().filter_map(move |r| match r.col {
                    ColRef::Base(name) => Some((i, name.clone())),
                    ColRef::Slot(_) => None,
                })
            })
            .collect();
        let (site, name) = base_reads[rng.pick(base_reads.len())].clone();
        view.base.remove(&name);
        assert_plan_flags(&view, Rule::PlanUseAfterFree, site);
    }
}

#[test]
fn injected_write_after_free_is_flagged() {
    let base = golden_physical_plan();
    let bound = base.base.keys().next().expect("Q5 reads base columns");
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut view = base.clone();
        // Re-define a freed slot at a seed-picked step after its free.
        let frees = plan_frees(&view);
        let (free, slot) = frees[rng.pick(frees.len())];
        let site = free + 1 + rng.pick(view.steps.len() - free);
        let write = Step::ConstantOnes {
            like: ColRef::Base(bound.clone()),
            out: slot,
        };
        view.steps.insert(site, write);
        let report = assert_plan_flags(&view, Rule::PlanWriteAfterFree, site);
        assert!(report.errors() > 0, "GL406 is an error");
    }
}

// ---- Planner-translation hazards (GL7xx) -------------------------------

use proto_core::logical::{ColumnDecl, LogicalPlan, ResultOrder};
use proto_core::ops::JoinAlgo;
use proto_core::optimizer::{self, FusionPolicy, PassTrace, PlannerOptions, RewriteCert};
use proto_core::physical::{ColRef, Step};
use proto_core::plan::Predicate;

/// Run one real query through `plan_traced`, build the analyzer's view,
/// and assert the baseline translation validates before mutation.
fn golden_translation(
    query: &str,
    opts: &PlannerOptions,
    backend: &str,
) -> (Vec<PassTrace>, gpu_lint::PhysView) {
    let (_, logical) = tpch::queries::LOGICAL_PLANS
        .iter()
        .find(|(q, _)| *q == query)
        .expect("known query");
    let fw = bench::paper_framework();
    let b = fw.backend(backend).expect("known backend");
    let (plan, traces) =
        optimizer::plan_traced(query, &logical(), b, opts).expect("query plans on this backend");
    let view = gpu_lint::phys_view(&plan, optimizer::supported_joins(b));
    let report = gpu_lint::lint_translation("golden", &traces, &view);
    assert!(
        report.is_clean(),
        "baseline translation must validate before mutation:\n{}",
        report.render()
    );
    (traces, view)
}

/// Structural rewrite: apply `f` top-down; where it returns `Some` the
/// subtree is replaced and recursion stops, elsewhere children recurse.
fn rewrite_plan(
    p: &LogicalPlan,
    f: &mut dyn FnMut(&LogicalPlan) -> Option<LogicalPlan>,
) -> LogicalPlan {
    if let Some(r) = f(p) {
        return r;
    }
    match p {
        LogicalPlan::Scan { .. } => p.clone(),
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(rewrite_plan(input, f)),
            predicate: predicate.clone(),
        },
        LogicalPlan::Project { input, columns } => LogicalPlan::Project {
            input: Box::new(rewrite_plan(input, f)),
            columns: columns.clone(),
        },
        LogicalPlan::Join {
            build,
            probe,
            build_key,
            probe_key,
            semi_distinct,
            project,
        } => LogicalPlan::Join {
            build: Box::new(rewrite_plan(build, f)),
            probe: Box::new(rewrite_plan(probe, f)),
            build_key: build_key.clone(),
            probe_key: probe_key.clone(),
            semi_distinct: *semi_distinct,
            project: project.clone(),
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => LogicalPlan::Aggregate {
            input: Box::new(rewrite_plan(input, f)),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        LogicalPlan::SortLimit {
            input,
            order,
            limit,
        } => LogicalPlan::SortLimit {
            input: Box::new(rewrite_plan(input, f)),
            order: *order,
            limit: *limit,
        },
    }
}

/// Replace the `after` tree of the rewrite certificate at trace `idx`.
fn tamper_after(
    traces: &mut [PassTrace],
    idx: usize,
    mut f: impl FnMut(&LogicalPlan) -> LogicalPlan,
) {
    let Some(RewriteCert::Rewrite {
        rule,
        before,
        after,
    }) = &traces[idx].cert
    else {
        panic!("trace #{idx} carries no tree rewrite certificate");
    };
    traces[idx].cert = Some(RewriteCert::Rewrite {
        rule,
        before: before.clone(),
        after: f(after),
    });
}

/// Index of the pushdown certificate in every `plan_traced` trace
/// (entry 0 is the uncertified "initial" snapshot).
const PUSHDOWN: usize = 1;

#[test]
fn injected_schema_mutations_are_flagged_gl701() {
    // Renamed root aggregate output: the rewrite no longer produces the
    // columns it started from.
    let queries = ["Q1", "Q3", "Q6", "Q14"];
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let q = queries[rng.pick(queries.len())];
        let (mut traces, view) = golden_translation(q, &PlannerOptions::default(), "Handwritten");
        tamper_after(&mut traces, PUSHDOWN, |p| {
            rewrite_plan(p, &mut |n| match n {
                LogicalPlan::Aggregate {
                    input,
                    group_by,
                    aggs,
                } => {
                    let mut aggs = aggs.clone();
                    aggs[0].0 = format!("{}_mut", aggs[0].0);
                    Some(LogicalPlan::Aggregate {
                        input: input.clone(),
                        group_by: group_by.clone(),
                        aggs,
                    })
                }
                _ => None,
            })
        });
        let r = gpu_lint::lint_translation("mutated", &traces, &view);
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.rule == Rule::TranslationSchemaMismatch && d.events == [PUSHDOWN]),
            "seed {seed} ({q}): GL701 at #{PUSHDOWN} expected: {:?}",
            r.diagnostics
        );
        assert!(r.errors() > 0, "GL701 is an error");
    }

    // Widened projection: the rewritten tree projects a column its
    // input never produced, so the certificate cannot be interpreted.
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let backends = ["Thrust", "Boost.Compute", "Handwritten"];
        let b = backends[rng.pick(backends.len())];
        let (mut traces, view) = golden_translation("Q14", &PlannerOptions::default(), b);
        let mut widened = false;
        tamper_after(&mut traces, PUSHDOWN, |p| {
            rewrite_plan(p, &mut |n| match n {
                LogicalPlan::Project { input, columns } => {
                    let mut columns = columns.clone();
                    columns.push("phantom.column".into());
                    widened = true;
                    Some(LogicalPlan::Project {
                        input: input.clone(),
                        columns,
                    })
                }
                _ => None,
            })
        });
        assert!(widened, "Q14 must carry a projection to widen");
        let r = gpu_lint::lint_translation("mutated", &traces, &view);
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.rule == Rule::TranslationSchemaMismatch && d.events == [PUSHDOWN]),
            "seed {seed} ({b}): GL701 at #{PUSHDOWN} expected: {:?}",
            r.diagnostics
        );
    }
}

#[test]
fn injected_dtype_flip_is_flagged_gl702() {
    // Flip every scan column's declared dtype: the grouped aggregate's
    // key column changes type across the rewrite.
    let queries = ["Q1", "Q3", "Q4", "Q5"];
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let q = queries[rng.pick(queries.len())];
        let (mut traces, view) = golden_translation(q, &PlannerOptions::default(), "Handwritten");
        tamper_after(&mut traces, PUSHDOWN, |p| {
            rewrite_plan(p, &mut |n| match n {
                LogicalPlan::Scan { table, columns } => Some(LogicalPlan::Scan {
                    table: table.clone(),
                    columns: columns
                        .iter()
                        .map(|c| ColumnDecl {
                            name: c.name.clone(),
                            dtype: match c.dtype {
                                proto_core::backend::ColType::U32 => {
                                    proto_core::backend::ColType::F64
                                }
                                proto_core::backend::ColType::F64 => {
                                    proto_core::backend::ColType::U32
                                }
                            },
                        })
                        .collect(),
                }),
                _ => None,
            })
        });
        let r = gpu_lint::lint_translation("mutated", &traces, &view);
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.rule == Rule::TranslationDtypeChange && d.events == [PUSHDOWN]),
            "seed {seed} ({q}): GL702 at #{PUSHDOWN} expected: {:?}",
            r.diagnostics
        );
        assert!(r.errors() > 0, "GL702 is an error");
    }
}

#[test]
fn injected_cardinality_violation_is_flagged_gl703() {
    // Cap a scalar aggregate (exactly one row) at zero rows: the
    // rewritten interval [0, 0] is disjoint from [1, 1].
    let queries = ["Q6", "Q14"];
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let q = queries[rng.pick(queries.len())];
        let (mut traces, view) = golden_translation(q, &PlannerOptions::default(), "Handwritten");
        tamper_after(&mut traces, PUSHDOWN, |p| LogicalPlan::SortLimit {
            input: Box::new(p.clone()),
            order: ResultOrder::KeyAsc,
            limit: Some(0),
        });
        let r = gpu_lint::lint_translation("mutated", &traces, &view);
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.rule == Rule::TranslationCardinalityViolation && d.events == [PUSHDOWN]),
            "seed {seed} ({q}): GL703 at #{PUSHDOWN} expected: {:?}",
            r.diagnostics
        );
        assert_eq!(r.errors(), 0, "GL703 is a warning, not an error");
        assert!(r.warnings() > 0);
    }
}

#[test]
fn injected_dropped_conjunct_is_flagged_gl704() {
    let queries = ["Q6", "Q14"];
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let q = queries[rng.pick(queries.len())];
        let (mut traces, view) = golden_translation(q, &PlannerOptions::default(), "Handwritten");
        // Count the filter conjuncts, then drop a seed-picked one.
        let count_in = |p: &LogicalPlan| {
            let mut n = 0usize;
            rewrite_plan(p, &mut |node| {
                if let LogicalPlan::Filter { predicate, .. } = node {
                    n += match predicate {
                        Predicate::And(v) => v.len(),
                        _ => 1,
                    };
                }
                None
            });
            n
        };
        let Some(RewriteCert::Rewrite { after, .. }) = &traces[PUSHDOWN].cert else {
            panic!("pushdown certificate missing");
        };
        let total = count_in(after);
        assert!(total > 0, "{q} must filter");
        let target = rng.pick(total);
        tamper_after(&mut traces, PUSHDOWN, |p| {
            let mut seen = 0usize;
            let mut done = false;
            rewrite_plan(p, &mut |node| {
                let LogicalPlan::Filter { input, predicate } = node else {
                    return None;
                };
                if done {
                    return None;
                }
                let n = match predicate {
                    Predicate::And(v) => v.len(),
                    _ => 1,
                };
                if target >= seen + n {
                    seen += n;
                    return None;
                }
                done = true;
                Some(match predicate {
                    Predicate::And(v) if v.len() > 1 => {
                        let mut v = v.clone();
                        v.remove(target - seen);
                        LogicalPlan::Filter {
                            input: input.clone(),
                            predicate: Predicate::And(v),
                        }
                    }
                    // A single-conjunct filter drops entirely.
                    _ => (**input).clone(),
                })
            })
        });
        let r = gpu_lint::lint_translation("mutated", &traces, &view);
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.rule == Rule::PredicateNotImplied && d.events == [PUSHDOWN]),
            "seed {seed} ({q}, conjunct {target}): GL704 at #{PUSHDOWN} expected: {:?}",
            r.diagnostics
        );
        assert!(r.errors() > 0, "GL704 is an error");
    }
}

#[test]
fn injected_swapped_fused_operands_are_flagged_gl705() {
    let backends = ["Thrust", "Boost.Compute", "Handwritten", "ArrayFire"];
    let opts = PlannerOptions {
        fusion: FusionPolicy::on(),
        ..PlannerOptions::default()
    };
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let b = backends[rng.pick(backends.len())];
        let (traces, mut view) = golden_translation("Q6", &opts, b);
        // Swap the input columns of two fused predicates that test
        // different columns: each comparison now filters the wrong one.
        let site = view
            .steps
            .iter()
            .position(|s| matches!(s, Step::FusedFilterAgg { .. }))
            .expect("fusion-enabled Q6 lowers to a fused filter+aggregate");
        let Step::FusedFilterAgg { preds, .. } = &mut view.steps[site] else {
            unreachable!()
        };
        let pairs: Vec<(usize, usize)> = (0..preds.len())
            .flat_map(|i| ((i + 1)..preds.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| {
                preds[i].input != preds[j].input
                    && (preds[i].cmp != preds[j].cmp || preds[i].lit != preds[j].lit)
            })
            .collect();
        let (i, j) = pairs[rng.pick(pairs.len())];
        let tmp = preds[i].input;
        preds[i].input = preds[j].input;
        preds[j].input = tmp;
        let r = gpu_lint::lint_translation("mutated", &traces, &view);
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.rule == Rule::FusedLoweringMismatch && d.events == [site]),
            "seed {seed} ({b}): GL705 at #{site} expected: {:?}",
            r.diagnostics
        );
        assert!(r.errors() > 0, "GL705 is an error");
    }
}

#[test]
fn injected_wrong_join_algorithm_is_flagged_gl706() {
    let queries = ["Q3", "Q4", "Q5", "Q14"];
    let backends = ["Thrust", "Boost.Compute", "Handwritten"];
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let q = queries[rng.pick(queries.len())];
        let b = backends[rng.pick(backends.len())];
        let (traces, mut view) = golden_translation(q, &PlannerOptions::default(), b);
        let chosen = view.join_algo.expect("join query selects an algorithm");
        let wrong = [JoinAlgo::NestedLoops, JoinAlgo::Merge, JoinAlgo::Hash]
            .into_iter()
            .find(|a| *a != chosen)
            .expect("another algorithm exists");
        view.join_algo = Some(wrong);
        let join_step = view
            .steps
            .iter()
            .position(|s| matches!(s, Step::Join { .. }))
            .expect("join query compiles a join step");
        let r = gpu_lint::lint_translation("mutated", &traces, &view);
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.rule == Rule::PlanShapeNonconforming && d.events.contains(&join_step)),
            "seed {seed} ({q}/{b}): GL706 on join step #{join_step} expected: {:?}",
            r.diagnostics
        );
        assert!(r.errors() > 0, "GL706 is an error");
    }
}

// ---- Golden gate -------------------------------------------------------

#[test]
fn golden_grid_traces_produce_zero_diagnostics() {
    let cfg = bench::traced::lint_config();
    let waivers = bench::traced::golden_waivers();
    for exp in bench::traced::EXPERIMENTS {
        for cell in bench::traced::traced_experiment(&cfg, exp) {
            let mut report = gpu_lint::lint_trace(&cell.label, &cell.trace);
            report.waive(&waivers);
            assert!(
                report.is_clean(),
                "golden trace is not clean:\n{}",
                report.render()
            );
        }
    }
    for report in bench::plan_lint::translation_reports() {
        assert!(
            report.is_clean(),
            "TPC-H plan is not clean:\n{}",
            report.render()
        );
    }
}
