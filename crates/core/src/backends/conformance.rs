//! What makes a backend correct — one list, held against every paper
//! backend (an in-tree backend adds itself by being in [`PAPER_BACKENDS`])
//! and against [`JitThrust`], a fifth library that exists to show what one
//! costs to add.
//!
//! [`calls`] is every `GpuBackend` operator applied to three fixed columns,
//! with the hand-computed answer; the same list is then fed empty columns
//! and another instance's columns. [`bad_operands_are_refused`]
//! is every way operands can be of the wrong dtype, of unequal lengths or
//! out of range. Where there is an answer it must be the right one, where
//! there is none the call must return `Err` — never panic — and either way
//! every device buffer it took is back once the returned columns are freed.
//! The same list fed shape-only columns must refuse for free. Inside a dry
//! scope every call must charge what it charges with bodies, on uploaded
//! and on shape-only inputs alike.
//! A call whose Table II cell the backend declares `Support::None` must
//! refuse before charging the device anything. What a call *costs* is not
//! checked here: that is each library's profile, pinned beside its adapter.

use super::eager::{EagerBackend, EagerLib};
use super::{make_backend, PAPER_BACKENDS};
use crate::backend::{Col, ColType, GpuBackend, Pred, Source};
use crate::fused::{composed_filter_agg, composed_map, FusedExpr, FusedPred};
use crate::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use crate::resilient::{ResilientBackend, RetryPolicy};
use boost_compute_sim::Context;
use gpu_sim::eager::{charge_launch, Launch};
use gpu_sim::{AllocPolicy, BufferId, Device, DeviceStats, KernelCost, Result, SimError};
use std::fmt::Display;
use std::sync::Arc;

type Backend<'a> = &'a dyn GpuBackend;

/// A fifth eager library: Thrust's launches and allocator, but every
/// program JIT-compiled on first use into an OpenCL-style context. Its
/// runtime profile and its name are all there is to write; the operators
/// are [`EagerBackend`]'s and the algorithms [`gpu_sim::eager`]'s.
struct JitThrust(Arc<Context>);

impl Launch for JitThrust {
    const ALLOC: AllocPolicy = AllocPolicy::Pooled;
    const SEQUENCE: &'static str = "sequence";

    fn device(&self) -> &Arc<Device> {
        self.0.device()
    }

    fn launch<K: Display>(
        &self,
        name: &str,
        key: impl FnOnce() -> K,
        cost: KernelCost,
        reads: &[BufferId],
        writes: &[BufferId],
    ) -> Result<()> {
        let kernel = format!("jit::{name}");
        self.0.ensure_program(&format!("{kernel}<{}>", key()));
        let cost = cost.with_launch_overhead(self.device().spec().cuda_launch_latency_ns);
        charge_launch(self.device(), &kernel, cost, reads, writes)
    }
}

impl EagerLib for JitThrust {
    const NAME: &'static str = "JitThrust";

    fn cold(device: &Arc<Device>) -> Self {
        JitThrust(Context::new(device))
    }
}

/// One backend by name: a paper backend, or the fifth.
fn make(name: &str, device: &Arc<Device>) -> Box<dyn GpuBackend> {
    match name {
        JitThrust::NAME => Box::new(EagerBackend::<JitThrust>::new(device)),
        paper => make_backend(paper, device),
    }
}

/// One operator call and what it must produce on the reference columns.
struct Call<'a> {
    name: String,
    /// The Table II operator the call realises; `None` for the part of the
    /// interface every backend has.
    op: Option<DbOperator>,
    /// Every output value in order, `u32`s widened.
    want: Vec<f64>,
    run: Box<dyn Fn() -> Result<Vec<f64>> + 'a>,
}

fn call<'a>(
    name: impl Into<String>,
    op: impl Into<Option<DbOperator>>,
    want: &[impl Into<f64> + Copy],
    run: impl Fn() -> Result<Vec<f64>> + 'a,
) -> Call<'a> {
    Call {
        name: name.into(),
        op: op.into(),
        want: want.iter().map(|&x| x.into()).collect(),
        run: Box::new(run),
    }
}

/// The reference columns: `u32` keys, a `u32` permutation of the row ids
/// and `f64` values.
const U: [u32; 4] = [2, 1, 2, 0];
const K: [u32; 4] = [1, 3, 2, 0];
const F: [f64; 4] = [20.0, 10.0, 21.0, 5.0];

/// The values of `c`, `u32`s widened.
fn values(b: Backend<'_>, c: &Col) -> Result<Vec<f64>> {
    Ok(match c.dtype() {
        ColType::U32 => b.download_u32(c)?.into_iter().map(f64::from).collect(),
        ColType::F64 => b.download_f64(c)?,
    })
}

/// The values of `c`, which is freed.
fn take(b: Backend<'_>, c: Col) -> Result<Vec<f64>> {
    let v = values(b, &c)?;
    b.free(c)?;
    Ok(v)
}

/// Every operator that reads a column, over `u`, `k` (`u32`) and `f`
/// (`f64`), equally long. The downloads come last: no call may have touched
/// its inputs.
fn calls<'a>(b: Backend<'a>, u: &'a Col, k: &'a Col, f: &'a Col) -> Vec<Call<'a>> {
    use DbOperator::*;
    let vals = move |c| take(b, c);
    let cols = move |cs: Vec<Col>| -> Result<Vec<f64>> {
        let each: Result<Vec<_>> = cs.into_iter().map(vals).collect();
        Ok(each?.concat())
    };
    let one = |x: f64| vec![x];
    let pred = |col, cmp, lit| Pred { col, cmp, lit };
    // `f * (u >= 2)` and `2 f + 1 where u > 0`, over the inputs `[f, u]`.
    let mask = FusedExpr::Mask {
        input: Box::new(FusedExpr::Col(1)),
        cmp: CmpOp::Ge,
        lit: 2.0,
    };
    let masked = FusedExpr::Mul(Box::new(FusedExpr::Col(0)), Box::new(mask));
    let scaled = FusedExpr::Affine {
        input: Box::new(FusedExpr::Col(0)),
        mul: 2.0,
        add: 1.0,
    };
    let positive = [FusedPred {
        input: 1,
        cmp: CmpOp::Gt,
        lit: 0.0,
    }];
    let mut list = vec![
        call("selection", Selection, &[0, 2], move || {
            b.selection(u, CmpOp::Gt, 1.0).and_then(vals)
        }),
        call("conjunction", ConjunctionDisjunction, &[0, 1], move || {
            let preds = [pred(u, CmpOp::Gt, 0.0), pred(f, CmpOp::Lt, 21.0)];
            b.selection_multi(&preds, Connective::And).and_then(vals)
        }),
        call("disjunction", ConjunctionDisjunction, &[2, 3], move || {
            let preds = [pred(u, CmpOp::Eq, 0.0), pred(f, CmpOp::Gt, 20.0)];
            b.selection_multi(&preds, Connective::Or).and_then(vals)
        }),
        call("selection_cmp_cols", Selection, &[0, 2, 3], move || {
            b.selection_cmp_cols(u, k, CmpOp::Ge).and_then(vals)
        }),
        call("dense_mask", Product, &[1, 0, 1, 0], move || {
            b.dense_mask(u, CmpOp::Ge, 2.0).and_then(vals)
        }),
        call("product", Product, &[400, 100, 441, 25], move || {
            b.product(f, f).and_then(vals)
        }),
        call("affine", Product, &[11.0, 6.0, 11.5, 3.5], move || {
            b.affine(f, 0.5, 1.0).and_then(vals)
        }),
        call("reduction", Reduction, &[56], move || {
            b.reduction(f).map(one)
        }),
        call("prefix_sum", PrefixSum, &[0, 2, 3, 5], move || {
            b.prefix_sum(u).and_then(vals)
        }),
        call("sort", Sort, &[0, 1, 2, 2], move || {
            b.sort(u).and_then(vals)
        }),
        call(
            "sort_by_key",
            SortByKey,
            &[0, 1, 2, 2, 5, 10, 20, 21],
            move || b.sort_by_key(u, f).and_then(|(k, v)| cols(vec![k, v])),
        ),
        call(
            "grouped_sum",
            GroupedAggregation,
            &[0, 1, 2, 5, 10, 41],
            move || b.grouped_sum(u, f).and_then(|(k, s)| cols(vec![k, s])),
        ),
        call(
            "grouped_sum_count",
            GroupedAggregation,
            &[0, 1, 2, 5, 10, 41, 1, 1, 2],
            move || {
                let (k, s, n) = b.grouped_sum_count(u, f)?;
                cols(vec![k, s, n])
            },
        ),
        call("gather f64", ScatterGather, &[10, 5, 21, 20], move || {
            b.gather(f, k).and_then(vals)
        }),
        call("gather u32", ScatterGather, &[1, 0, 2, 2], move || {
            b.gather(u, k).and_then(vals)
        }),
        call("scatter", ScatterGather, &[0, 2, 2, 1], move || {
            b.scatter(u, k, u.len()).and_then(vals)
        }),
        call("filter_sum_product", None, &[500], move || {
            let preds = [pred(u, CmpOp::Gt, 0.0), pred(f, CmpOp::Lt, 21.0)];
            b.filter_sum_product(f, f, &preds).map(one)
        }),
        call("fused_map", None, &[20, 0, 21, 0], move || {
            let fused = b.fused_map(&[f, u], &masked).and_then(vals);
            same_bits(fused, composed_map(b, &[f, u], &masked).and_then(vals))
        }),
        call("fused_filter_agg", None, &[105], move || {
            let fused = b.fused_filter_agg(&[f, u], &positive, &scaled).map(one);
            let composed = composed_filter_agg(b, &[f, u], &positive, &scaled).map(one);
            same_bits(fused, composed)
        }),
        call("download_u32", None, &U, move || {
            Ok(b.download_u32(u)?.into_iter().map(f64::from).collect())
        }),
        call("download_f64", None, &F, move || b.download_f64(f)),
    ];
    for algo in [JoinAlgo::NestedLoops, JoinAlgo::Merge, JoinAlgo::Hash] {
        let (name, pairs) = (format!("{algo:?} join"), [0, 1, 2, 3, 2, 0, 2, 3]);
        list.push(call(name, algo.operator(), &pairs, move || {
            b.join(u, k, algo).and_then(|(l, r)| cols(vec![l, r]))
        }));
    }
    list
}

/// A fused kernel's result, held to the composed chain's: both refuse, or
/// both produce the same bits (any NaN for a NaN: which one an addition
/// returns is the compiler's choice).
fn same_bits(fused: Result<Vec<f64>>, composed: Result<Vec<f64>>) -> Result<Vec<f64>> {
    match (&fused, &composed) {
        (Ok(x), Ok(y)) => {
            let canonical = |x: &f64| if x.is_nan() { f64::NAN } else { *x }.to_bits();
            let bits = |v: &[f64]| v.iter().map(canonical).collect::<Vec<_>>();
            assert_eq!(bits(x), bits(y), "fused {x:?} and composed {y:?} differ");
        }
        (Err(_), Err(_)) => {}
        _ => panic!("fused gave {fused:?} where composed gave {composed:?}"),
    }
    fused
}

/// What the operands given to [`calls`] let a call produce.
#[derive(Debug, Clone, Copy)]
enum Operands {
    /// The reference columns: the hand-computed answer.
    Reference,
    /// Empty columns: empty columns and zero sums.
    Empty,
    /// Columns the backend does not hold: nothing.
    NotHeld,
    /// Shape-only `u` and `f` outside a dry scope: the typed refusal,
    /// before anything is charged.
    ShapeOnly,
}

/// Run `calls` and hold each to `given` — and, whatever it returned, to
/// leaving no buffer behind and to refusing for free what the backend
/// declares unsupported.
fn hold(b: Backend<'_>, calls: Vec<Call<'_>>, given: Operands) {
    let dev = b.device();
    for call in calls {
        let at = format!("{}: {} ({given:?})", b.name(), call.name);
        let before = (dev.now(), dev.stats().total_launches(), dev.live_buffers());
        let stats = dev.stats();
        let got = (call.run)();
        let after = (dev.now(), dev.stats().total_launches(), dev.live_buffers());
        assert_eq!(after.2, before.2, "{at}: buffers left behind");
        if call.op.is_some_and(|op| b.support(op) == Support::None) {
            assert!(
                matches!(got, Err(SimError::Unsupported(_))),
                "{at}: {got:?}"
            );
            assert_eq!(after, before, "{at}: charged before refusing");
            continue;
        }
        match given {
            Operands::Reference => assert_eq!(got.expect(&at), call.want, "{at}"),
            Operands::Empty => assert!(is_nothing(&got.expect(&at)), "{at}"),
            Operands::NotHeld => assert!(got.is_err(), "{at}: {got:?}"),
            Operands::ShapeOnly => {
                let refused = matches!(got, Err(SimError::ShapeOnly { .. }));
                assert!(refused, "{at}: {got:?}");
                assert_eq!((after, dev.stats()), (before, stats), "{at}: charged");
            }
        }
    }
}

/// No rows, or the sum of none.
fn is_nothing(out: &[f64]) -> bool {
    out.is_empty() || out == [0.0]
}

/// Run `case` on a fresh instance of every paper backend and of the fifth,
/// which must leave no buffer live — and whose device counters must be the
/// fold of the events it traced from creation.
fn on_every_backend(case: impl Fn(Backend<'_>)) {
    for name in PAPER_BACKENDS.into_iter().chain([JitThrust::NAME]) {
        let dev = Device::with_defaults();
        dev.set_tracing(true);
        let b = make(name, &dev);
        case(b.as_ref());
        assert_eq!(dev.live_buffers(), 0, "{name}: buffers left behind");
        let counters = DeviceStats {
            mem_in_use: 0,
            mem_peak: 0,
            ..dev.stats()
        };
        let folded = DeviceStats::from_trace(&dev.take_trace());
        assert_eq!(folded, counters, "{name}: stats are not the trace's fold");
    }
}

/// `u` and `f` uploaded inside a dry scope through [`GpuBackend::upload`]:
/// shape-only, with the charges of their values.
fn shape_only(b: Backend<'_>, u: &[u32], f: &[f64]) -> [Col; 2] {
    let device = b.device();
    let _scope = device.dry_scope();
    let (u, f) = (|| Arc::new(u.to_vec()), || Arc::new(f.to_vec()));
    let (nu, nf) = (u().len(), f().len());
    [
        b.upload(nu, Source::U32(&u)).unwrap(),
        b.upload(nf, Source::F64(&f)).unwrap(),
    ]
}

fn upload(b: Backend<'_>, u: &[u32], k: &[u32], f: &[f64]) -> [Col; 3] {
    [
        b.upload_u32(u).unwrap(),
        b.upload_u32(k).unwrap(),
        b.upload_f64(f).unwrap(),
    ]
}

fn free(b: Backend<'_>, cols: impl IntoIterator<Item = Col>) {
    for c in cols {
        b.free(c).unwrap();
    }
}

/// The fixture of the per-library cost-profile tests: `[price, discount,
/// quantity]` columns on `b`, the chain `price * (1 - discount)` over the
/// first two and the predicate `quantity < 25` on the third.
pub(super) fn revenue(b: Backend<'_>) -> ([Col; 3], FusedExpr, [FusedPred; 1]) {
    let cols = [
        b.upload_f64(&[100.0, 50.0, 20.0, 80.0]).unwrap(),
        b.upload_f64(&[0.05, 0.1, 0.0, 0.2]).unwrap(),
        b.upload_u32(&[10, 30, 5, 20]).unwrap(),
    ];
    let net = FusedExpr::Affine {
        input: Box::new(FusedExpr::Col(1)),
        mul: -1.0,
        add: 1.0,
    };
    let few = FusedPred {
        input: 2,
        cmp: CmpOp::Lt,
        lit: 25.0,
    };
    let expr = FusedExpr::Mul(Box::new(FusedExpr::Col(0)), Box::new(net));
    (cols, expr, [few])
}

/// The device statistics of `run` alone.
pub(super) fn stats_of<R>(b: Backend<'_>, run: impl FnOnce() -> R) -> DeviceStats {
    b.device().reset_stats();
    run();
    b.device().stats()
}

/// The paper's Table II per backend: `+` full, `~` partial, `–` none, in
/// [`DbOperator::ALL`] order. [`hold`] checks each cell by execution.
#[test]
fn declared_support_is_table_ii() {
    let table = [
        "~–––++++++~+",
        "++––++++++++",
        "++––++++++++",
        "++++++++++++",
    ];
    for (name, row) in PAPER_BACKENDS.into_iter().zip(table) {
        let b = make_backend(name, &Device::with_defaults());
        let declared: String = DbOperator::ALL.map(|op| b.support(op).glyph()).concat();
        assert_eq!(declared, row, "{name}");
    }
}

/// The fifth library's profile is in effect: one compilation per program,
/// Thrust's launch count.
#[test]
fn the_fifth_library_pays_for_its_own_launches() {
    let b = make(JitThrust::NAME, &Device::with_defaults());
    let ([.., qty], ..) = revenue(b.as_ref());
    let select = || b.selection(&qty, CmpOp::Gt, 4.0).unwrap();
    let cold = stats_of(b.as_ref(), select);
    assert_eq!((cold.jit_compiles, cold.total_launches()), (4, 4));
    assert_eq!(cold.launches_of("jit::scatter_if"), 1);
    assert_eq!(stats_of(b.as_ref(), select).jit_compiles, 0);
}

#[test]
fn every_operator_gives_the_hand_computed_answer() {
    on_every_backend(|b| {
        let [u, k, f] = upload(b, &U, &K, &F);
        hold(b, calls(b, &u, &k, &f), Operands::Reference);
        free(b, [u, k, f]);
        let sevens = b.constant_f64(3, 7.5).unwrap();
        assert_eq!(take(b, sevens).unwrap(), [7.5; 3], "{}", b.name());
    });
}

/// A gather hands back the source's dtype and its exact values — also
/// where a library (ArrayFire) runs its other kernels in `f64` lanes.
#[test]
fn gather_returns_the_source_dtype_bit_for_bit() {
    const SRC: [u32; 4] = [u32::MAX, 0, 0x8000_0001, (1 << 24) + 1];
    on_every_backend(|b| {
        let src = b.upload_u32(&SRC).unwrap();
        let idx = b.upload_u32(&[2, 0, 3, 3, 1]).unwrap();
        let out = b.gather(&src, &idx).unwrap();
        assert_eq!(out.dtype(), ColType::U32, "{}", b.name());
        let want = [SRC[2], SRC[0], SRC[3], SRC[3], SRC[1]];
        assert_eq!(b.download_u32(&out).unwrap(), want, "{}", b.name());
        free(b, [src, idx, out]);
    });
}

/// A prefix sum past 2^32 wraps, as CUDA's unsigned arithmetic does — also
/// where a library (ArrayFire) sums its other dtypes in `f64` lanes.
#[test]
fn prefix_sums_wrap_past_2_pow_32() {
    on_every_backend(|b| {
        let src = b.upload_u32(&[u32::MAX, 2, 3, 4]).unwrap();
        let out = b.prefix_sum(&src).unwrap();
        assert_eq!(out.dtype(), ColType::U32, "{}", b.name());
        let want = [0, u32::MAX, 1, 4];
        assert_eq!(b.download_u32(&out).unwrap(), want, "{}", b.name());
        free(b, [src, out]);
    });
}

#[test]
fn empty_columns_flow_through_every_operator() {
    on_every_backend(|b| {
        let [u, k, f] = upload(b, &[], &[], &[]);
        hold(b, calls(b, &u, &k, &f), Operands::Empty);
        free(b, [u, k, f]);
        let none = b.constant_f64(0, 7.5).unwrap();
        assert!(take(b, none).unwrap().is_empty(), "{}", b.name());
    });
}

/// A join against an empty side — Q5's supplier side on a database with
/// no supplier in the region — has no pairs on every backend that joins.
#[test]
fn a_join_with_one_empty_side_has_no_pairs() {
    on_every_backend(|b| {
        let [u, none] = [&U[..], &[]].map(|c| b.upload_u32(c).unwrap());
        let mut joins = Vec::new();
        for (outer, inner, which) in [(&u, &none, "inner"), (&none, &u, "outer")] {
            for algo in [JoinAlgo::NestedLoops, JoinAlgo::Merge, JoinAlgo::Hash] {
                let name = format!("{algo:?} join, empty {which}");
                joins.push(call(name, algo.operator(), &[0u32; 0], move || {
                    let (l, r) = b.join(outer, inner, algo)?;
                    Ok([take(b, l)?, take(b, r)?].concat())
                }));
            }
        }
        hold(b, joins, Operands::Reference);
        free(b, [u, none]);
    });
}

/// The fused kernels against the composed chains where a shortcut shows:
/// `±inf`, `NaN` and `-0.0` in rows the predicate drops and in rows it
/// keeps, predicates that drop or keep every row, and no rows at all. A
/// dropped row must contribute nothing — a kernel that multiplies by the
/// mask instead turns a dropped `inf` into a `NaN` sum.
#[test]
fn fused_kernels_equal_the_composed_chains_on_adversarial_values() {
    const SPECIALS: [f64; 6] = [
        f64::INFINITY,
        f64::NAN,
        -0.0,
        f64::NEG_INFINITY,
        0.0,
        f64::MAX,
    ];
    let pred = |cmp, lit| FusedPred { input: 1, cmp, lit };
    let twice = FusedExpr::Affine {
        input: Box::new(FusedExpr::Col(0)),
        mul: 2.0,
        add: 0.0,
    };
    // `v * (k < 5)`: the mask-multiply itself, where both realisations
    // must agree that `inf * 0` is a NaN.
    let masked = FusedExpr::Mul(
        Box::new(FusedExpr::Col(0)),
        Box::new(FusedExpr::Mask {
            input: Box::new(FusedExpr::Col(1)),
            cmp: CmpOp::Lt,
            lit: 5.0,
        }),
    );
    // Specials only in dropped rows (keys of 9), only in kept rows, in
    // both, nowhere but signed zeros, and long enough for several windows.
    let n = 3000;
    let tables: Vec<(Vec<f64>, Vec<u32>)> = vec![
        (vec![1.5, f64::INFINITY, 2.5, f64::NAN], vec![1, 9, 2, 9]),
        (vec![f64::INFINITY, 1.5, -0.0, 2.5], vec![1, 9, 2, 9]),
        (vec![-0.0; 5], vec![1, 9, 2, 9, 3]),
        (
            (0..n)
                .map(|i| match i % 7 {
                    0 => SPECIALS[i / 7 % SPECIALS.len()],
                    r => i as f64 * 0.37 - r as f64,
                })
                .collect(),
            (0..n as u32).map(|i| i * 13 % 10).collect(),
        ),
        (vec![], vec![]),
    ];
    let filters = [
        vec![pred(CmpOp::Lt, 5.0)],
        vec![pred(CmpOp::Lt, 0.0)],
        vec![pred(CmpOp::Ge, 0.0)],
        vec![pred(CmpOp::Ne, 9.0), pred(CmpOp::Gt, 0.0)],
        vec![],
    ];
    on_every_backend(|b| {
        for (vals, keys) in &tables {
            let (v, k) = (b.upload_f64(vals).unwrap(), b.upload_u32(keys).unwrap());
            let inputs = [&v, &k];
            let live = b.device().live_buffers();
            for expr in [&twice, &masked] {
                let fused = b.fused_map(&inputs, expr).and_then(|c| take(b, c));
                let composed = composed_map(b, &inputs, expr).and_then(|c| take(b, c));
                same_bits(fused, composed).unwrap();
                for preds in &filters {
                    let fused = b.fused_filter_agg(&inputs, preds, expr).map(|x| vec![x]);
                    let composed = composed_filter_agg(b, &inputs, preds, expr).map(|x| vec![x]);
                    same_bits(fused, composed).unwrap();
                }
                assert_eq!(b.device().live_buffers(), live, "{}", b.name());
            }
            free(b, [v, k]);
        }
    });
}

/// The case above that tells a masked multiply from a select, by its
/// number: `2 v` over the rows with `k < 5`.
#[test]
fn a_dropped_row_contributes_nothing_whatever_it_holds() {
    on_every_backend(|b| {
        let v = b.upload_f64(&[1.5, f64::INFINITY, 2.5, f64::NAN]).unwrap();
        let k = b.upload_u32(&[1, 9, 2, 9]).unwrap();
        let twice = FusedExpr::Affine {
            input: Box::new(FusedExpr::Col(0)),
            mul: 2.0,
            add: 0.0,
        };
        let under_5 = FusedPred {
            input: 1,
            cmp: CmpOp::Lt,
            lit: 5.0,
        };
        let got = b.fused_filter_agg(&[&v, &k], &[under_5], &twice);
        assert_eq!(got.unwrap(), 8.0, "{}", b.name());
        let ones = b.upload_f64(&[1.0; 4]).unwrap();
        let preds = [Pred {
            col: &k,
            cmp: CmpOp::Lt,
            lit: 5.0,
        }];
        let got = b.filter_sum_product(&v, &ones, &preds);
        assert_eq!(got.unwrap(), 4.0, "{}", b.name());
        free(b, [v, k, ones]);
    });
}

/// Outside a dry scope nothing reads a shape-only column: every operator
/// given one — the index column being real — and every download of one is
/// [`SimError::ShapeOnly`], charging nothing and leaving no buffer behind.
/// Inside the scope a counted placeholder reads only real uploads, so
/// handing it a shape-only column is the same refusal. The same holds for
/// each paper backend behind a [`ResilientBackend`].
#[test]
fn nothing_reads_a_shape_only_column() {
    let case = |b: Backend<'_>| {
        let [u, f] = shape_only(b, &U, &F);
        let k = b.upload_u32(&K).unwrap();
        hold(b, calls(b, &u, &k, &f), Operands::ShapeOnly);
        let dev = b.device();
        let before = (dev.stats(), dev.now(), dev.live_buffers());
        {
            let _scope = dev.dry_scope();
            let keys = [&u, &k].map(|c| b.grouped_sum(c, &f).map(|(g, s)| free(b, [g, s])));
            let kept = [
                b.selection(&u, CmpOp::Lt, 2.0).map(|c| free(b, [c])),
                b.selection_cmp_cols(&k, &u, CmpOp::Lt)
                    .map(|c| free(b, [c])),
            ];
            let refused = |r: &Result<()>| matches!(r, Err(SimError::ShapeOnly { .. }));
            assert!(
                refused(&keys[0]) && kept.iter().all(refused),
                "{}",
                b.name()
            );
            assert!(keys[1].is_ok(), "{}: {:?}", b.name(), keys[1]);
        }
        let charged_for = (dev.stats(), dev.now(), dev.live_buffers());
        assert_ne!(
            before,
            charged_for,
            "{}: the real keys were counted",
            b.name()
        );
        free(b, [u, k, f]);
    };
    on_every_backend(case);
    // A retry wrapper forwards the lazy upload too: the wrapped column
    // stays shape-only.
    for name in PAPER_BACKENDS {
        let dev = Device::with_defaults();
        case(&ResilientBackend::with_policy(
            make(name, &dev),
            RetryPolicy::default(),
        ));
        assert_eq!(dev.live_buffers(), 0, "{name}: buffers left behind");
    }
}

/// The shape-priced operators — and `dtod`, under the sorts — on inputs
/// uploaded shape-only inside a dry scope, the index columns real: from
/// the first upload on, the device sees what it sees when the same calls
/// run with bodies on uploaded values — every event, counter and the clock,
/// refusals included — and each output has the same length.
#[test]
fn shape_only_inputs_charge_what_their_values_charge() {
    type Case = fn(Backend<'_>, &[Col; 6]) -> Result<Vec<Col>>;
    let cases: [(&str, Case); 12] = [
        ("sort", |b, c| Ok(vec![b.sort(&c[0])?])),
        ("sort_by_key", |b, c| {
            let (k, v) = b.sort_by_key(&c[0], &c[2])?;
            Ok(vec![k, v])
        }),
        ("reduction", |b, c| b.reduction(&c[2]).map(|_| Vec::new())),
        ("prefix_sum", |b, c| Ok(vec![b.prefix_sum(&c[0])?])),
        ("gather", |b, c| Ok(vec![b.gather(&c[2], &c[1])?])),
        ("scatter", |b, c| Ok(vec![b.scatter(&c[0], &c[1], 4)?])),
        ("product", |b, c| Ok(vec![b.product(&c[2], &c[2])?])),
        ("gather past the end", |b, c| {
            Ok(vec![b.gather(&c[2], &c[4])?])
        }),
        ("scatter past the end", |b, c| {
            Ok(vec![b.scatter(&c[0], &c[4], 4)?])
        }),
        ("scatter data/index", |b, c| {
            Ok(vec![b.scatter(&c[3], &c[1], 4)?])
        }),
        ("product of unequal lengths", |b, c| {
            Ok(vec![b.product(&c[2], &c[5])?])
        }),
        ("sort_by_key of unequal lengths", |b, c| {
            let (k, v) = b.sort_by_key(&c[3], &c[2])?;
            Ok(vec![k, v])
        }),
    ];
    for name in PAPER_BACKENDS.into_iter().chain([JitThrust::NAME]) {
        for (what, case) in cases {
            let run = |shape: bool| {
                let dev = Device::with_defaults();
                dev.set_tracing(true);
                let b = make(name, &dev);
                let b = b.as_ref();
                let ([u, f], [u3, f3]) = if shape {
                    (
                        shape_only(b, &U, &F),
                        shape_only(b, &[2, 1, 2], &[20.0, 10.0]),
                    )
                } else {
                    let up =
                        |u: &[u32], f: &[f64]| [b.upload_u32(u).unwrap(), b.upload_f64(f).unwrap()];
                    (up(&U, &F), up(&[2, 1, 2], &[20.0, 10.0]))
                };
                let [k, far] = [&K[..], &[0, 9, 1, 2]].map(|c| b.upload_u32(c).unwrap());
                let cols = [u, k, f, u3, far, f3];
                let live = dev.live_buffers();
                let out = {
                    let _scope = shape.then(|| dev.dry_scope());
                    case(b, &cols)
                };
                let lens = out.map(|cs| {
                    let lens: Vec<usize> = cs.iter().map(Col::len).collect();
                    free(b, cs);
                    lens
                });
                assert_eq!(dev.live_buffers(), live, "{name}: {what}: leaked");
                free(b, cols);
                (lens, dev.take_trace(), dev.stats(), dev.now())
            };
            assert_eq!(run(true), run(false), "{name}: {what}");
        }
    }
}

#[test]
fn columns_the_backend_does_not_hold_are_refused() {
    on_every_backend(|b| {
        // Another instance of the same library, and a different one.
        let different = PAPER_BACKENDS.into_iter().find(|n| *n != b.name()).unwrap();
        for other in [b.name(), different] {
            let o = make(other, &b.device());
            let [u, k, f] = upload(o.as_ref(), &U, &K, &F);
            hold(b, calls(b, &u, &k, &f), Operands::NotHeld);
            // A refused free still drops the handle, and with it the column.
            let live = b.device().live_buffers();
            assert!(b.free(u).is_err(), "{}: freed a foreign column", b.name());
            assert_eq!(b.device().live_buffers(), live - 1, "{}", b.name());
            free(o.as_ref(), [k, f]);
        }
    });
}

/// A handle owns its column: dropping uploads and operator outputs gives
/// every buffer back.
#[test]
fn dropping_a_handle_frees_its_column() {
    on_every_backend(|b| {
        let [u, k, f] = upload(b, &U, &K, &F);
        let ids = b.selection(&u, CmpOp::Gt, 1.0).unwrap();
        let (keys, sums) = b.grouped_sum(&u, &f).unwrap();
        let gathered = b.gather(&f, &k).unwrap();
        assert!(b.device().live_buffers() >= 7, "{}", b.name());
        drop((u, k, f, ids, keys, sums, gathered));
        assert_eq!(b.device().live_buffers(), 0, "{}", b.name());
    });
}

#[test]
fn bad_operands_are_refused() {
    fn pred(col: &Col) -> Pred<'_> {
        let (cmp, lit) = (CmpOp::Ge, 0.0);
        Pred { col, cmp, lit }
    }
    on_every_backend(|b| {
        let [u, k, f] = upload(b, &U, &K, &F);
        let [u3, far, f3] = upload(b, &[2, 1, 2], &[0, 9, 1, 2], &[20.0, 10.0, 21.0]);
        let [u5, e, f5] = upload(b, &[2, 1, 2, 0, 1], &[], &[20.0, 10.0, 21.0, 5.0, 1.0]);
        let times = FusedExpr::Mul(Box::new(FusedExpr::Col(0)), Box::new(FusedExpr::Col(1)));
        let (and, nlj) = (Connective::And, JoinAlgo::NestedLoops);
        let sum_product = |a, b_, by: &[&Col]| {
            let preds: Vec<Pred<'_>> = by.iter().map(|c| pred(c)).collect();
            b.filter_sum_product(a, b_, &preds).is_err()
        };
        let live = b.device().live_buffers();
        let refused = [
            // The wrong dtype.
            ("download u32 as f64", b.download_f64(&u).is_err()),
            ("download f64 as u32", b.download_u32(&f).is_err()),
            ("product of u32", b.product(&f, &u).is_err()),
            ("affine of u32", b.affine(&u, 2.0, 1.0).is_err()),
            ("reduction of u32", b.reduction(&u).is_err()),
            ("prefix_sum of f64", b.prefix_sum(&f).is_err()),
            ("sort of f64", b.sort(&f).is_err()),
            ("sort_by_key f64 keys", b.sort_by_key(&f, &f).is_err()),
            ("sort_by_key u32 values", b.sort_by_key(&u, &k).is_err()),
            ("grouped_sum f64 keys", b.grouped_sum(&f, &f).is_err()),
            ("grouped_sum u32 values", b.grouped_sum(&u, &k).is_err()),
            (
                "grouped_sum_count f64 keys",
                b.grouped_sum_count(&f, &f).is_err(),
            ),
            ("gather by f64", b.gather(&u, &f).is_err()),
            ("scatter of f64", b.scatter(&f, &k, 4).is_err()),
            ("scatter by f64", b.scatter(&u, &f, 4).is_err()),
            ("join of f64", b.join(&f, &k, nlj).is_err()),
            ("sum_product of u32", sum_product(&u, &f, &[&k])),
            (
                "fused arithmetic on u32",
                b.fused_map(&[&f, &u], &times).is_err(),
            ),
            (
                "composed arithmetic on u32",
                composed_map(b, &[&f, &u], &times).is_err(),
            ),
            (
                "fused sum on u32",
                b.fused_filter_agg(&[&u, &f], &[], &times).is_err(),
            ),
            // An index out of range.
            ("gather past the end", b.gather(&f, &far).is_err()),
            ("scatter past the end", b.scatter(&u, &far, 4).is_err()),
            // Unequal lengths.
            ("scatter data/index", b.scatter(&u3, &k, 4).is_err()),
            ("product", b.product(&f, &f3).is_err()),
            ("sort_by_key longer values", b.sort_by_key(&u3, &f).is_err()),
            (
                "sort_by_key shorter values",
                b.sort_by_key(&u, &f3).is_err(),
            ),
            ("grouped_sum", b.grouped_sum(&u, &f3).is_err()),
            ("grouped_sum_count", b.grouped_sum_count(&u, &f3).is_err()),
            (
                "selection_cmp_cols",
                b.selection_cmp_cols(&u, &u3, CmpOp::Lt).is_err(),
            ),
            (
                "selection_multi",
                b.selection_multi(&[pred(&u), pred(&f3)], and).is_err(),
            ),
            (
                "selection_multi of nothing",
                b.selection_multi(&[], and).is_err(),
            ),
            ("fused_map", b.fused_map(&[&f, &f3], &times).is_err()),
            (
                "fused_filter_agg",
                b.fused_filter_agg(&[&f, &f3], &[], &times).is_err(),
            ),
            ("sum_product shorter predicate", sum_product(&f, &f, &[&u3])),
            ("sum_product longer predicate", sum_product(&f, &f, &[&u5])),
            (
                "sum_product unequal predicates",
                sum_product(&f, &f, &[&u, &u3]),
            ),
            ("sum_product shorter a", sum_product(&f3, &f, &[&u])),
            ("sum_product shorter b", sum_product(&f, &f3, &[&u])),
            ("sum_product longer a and b", sum_product(&f5, &f5, &[&u])),
            ("sum_product of everything", sum_product(&f, &f, &[])),
        ];
        for (what, refused) in refused {
            assert!(refused, "{}: {what} accepted", b.name());
        }
        assert_eq!(b.device().live_buffers(), live, "{}: leaked", b.name());
        free(b, [u, k, f, u3, far, f3, u5, e, f5]);
    });
}

/// `preds` over `cols`, each `(column, comparison, literal)`.
fn preds<'a>(cols: &'a [Col; 6], preds: [(usize, CmpOp, f64); 3]) -> [Pred<'a>; 3] {
    preds.map(|(at, cmp, lit)| Pred {
        col: &cols[at],
        cmp,
        lit,
    })
}

/// The operators a dry scope covers, on the reference columns and on the
/// refusals that can reach them: `[u, k, f]`, then a shorter `u`, an index
/// past the end and a shorter `f`. Without bodies every call must charge
/// exactly what it charges with them — same events, counters, clock and
/// `Err` — and every output must be its placeholder: a shape-only column
/// of the same length, whose download is refused for free, or a
/// reduction's seed. The selections and grouped sums are priced by how
/// many rows they keep and groups they find, so their placeholders must
/// count those right for the charges to agree.
#[test]
fn a_dry_scope_charges_what_bodies_charge_and_fills_placeholders() {
    /// What a case returns: its output columns, or a reduction's total.
    enum Out {
        Cols(Vec<Col>),
        Total(f64),
    }
    use Out::{Cols, Total};
    type Case = fn(Backend<'_>, &[Col; 6]) -> Result<Out>;
    fn one(c: Col) -> Result<Out> {
        Ok(Out::Cols(vec![c]))
    }
    let cases: [(&str, Case); 22] = [
        ("selection", |b, c| {
            one(b.selection(&c[0], CmpOp::Lt, 2.0)?)
        }),
        ("selection_multi And", |b, c| {
            let p = preds(
                c,
                [
                    (0, CmpOp::Lt, 2.5),
                    (1, CmpOp::Gt, 0.0),
                    (2, CmpOp::Gt, 6.0),
                ],
            );
            one(b.selection_multi(&p, Connective::And)?)
        }),
        ("selection_multi Or", |b, c| {
            let p = preds(
                c,
                [
                    (0, CmpOp::Lt, 1.0),
                    (1, CmpOp::Gt, 2.0),
                    (2, CmpOp::Ge, 21.0),
                ],
            );
            one(b.selection_multi(&p, Connective::Or)?)
        }),
        ("selection_cmp_cols u32", |b, c| {
            one(b.selection_cmp_cols(&c[0], &c[1], CmpOp::Lt)?)
        }),
        ("selection_cmp_cols f64", |b, c| {
            one(b.selection_cmp_cols(&c[2], &c[2], CmpOp::Le)?)
        }),
        ("grouped_sum", |b, c| {
            let (k, v) = b.grouped_sum(&c[0], &c[2])?;
            Ok(Cols(vec![k, v]))
        }),
        ("grouped_sum_count", |b, c| {
            let (k, v, n) = b.grouped_sum_count(&c[0], &c[2])?;
            Ok(Cols(vec![k, v, n]))
        }),
        ("selection_multi of unequal lengths", |b, c| {
            let p = preds(
                c,
                [
                    (0, CmpOp::Lt, 2.5),
                    (3, CmpOp::Gt, 0.0),
                    (2, CmpOp::Gt, 6.0),
                ],
            );
            one(b.selection_multi(&p, Connective::Or)?)
        }),
        ("selection_cmp_cols of unequal lengths", |b, c| {
            one(b.selection_cmp_cols(&c[0], &c[3], CmpOp::Lt)?)
        }),
        ("grouped_sum of unequal lengths", |b, c| {
            let (k, v) = b.grouped_sum(&c[3], &c[2])?;
            Ok(Cols(vec![k, v]))
        }),
        ("grouped_sum_count of unequal lengths", |b, c| {
            let (k, v, n) = b.grouped_sum_count(&c[0], &c[5])?;
            Ok(Cols(vec![k, v, n]))
        }),
        ("sort", |b, c| one(b.sort(&c[0])?)),
        ("sort_by_key", |b, c| {
            let (k, v) = b.sort_by_key(&c[0], &c[2])?;
            Ok(Cols(vec![k, v]))
        }),
        ("reduction", |b, c| Ok(Total(b.reduction(&c[2])?))),
        ("prefix_sum", |b, c| one(b.prefix_sum(&c[0])?)),
        ("gather", |b, c| one(b.gather(&c[2], &c[1])?)),
        ("scatter", |b, c| one(b.scatter(&c[0], &c[1], 4)?)),
        ("product", |b, c| one(b.product(&c[2], &c[2])?)),
        ("gather past the end", |b, c| one(b.gather(&c[2], &c[4])?)),
        ("scatter past the end", |b, c| {
            one(b.scatter(&c[0], &c[4], 4)?)
        }),
        (
            "scatter data/index",
            |b, c| one(b.scatter(&c[3], &c[1], 4)?),
        ),
        ("product of unequal lengths", |b, c| {
            one(b.product(&c[2], &c[5])?)
        }),
    ];
    for name in PAPER_BACKENDS.into_iter().chain([JitThrust::NAME]) {
        for (what, case) in cases {
            let run = |dry: bool| {
                let dev = Device::with_defaults();
                dev.set_tracing(true);
                let b = make(name, &dev);
                let b = b.as_ref();
                let [u, k, f] = upload(b, &U, &K, &F);
                let [u3, far, f3] = upload(b, &[2, 1, 2], &[0, 9, 1, 2], &[20.0, 10.0]);
                let cols = [u, k, f, u3, far, f3];
                let live = dev.live_buffers();
                let out = {
                    let _scope = dry.then(|| dev.dry_scope());
                    case(b, &cols)
                };
                assert!(
                    !dev.is_dry(),
                    "{name}: {what}: the scope outlived its guard"
                );
                let device_side = (dev.take_trace(), dev.stats(), dev.now());
                // Each output column's length — its download refused for
                // free without bodies — or the reduction's total.
                let shapes = out.map(|out| match out {
                    Total(total) => vec![total],
                    Cols(cs) => cs
                        .into_iter()
                        .map(|c| {
                            let len = c.len() as f64;
                            let before = (dev.stats(), dev.now());
                            let got = values(b, &c);
                            if dry {
                                let refused = matches!(got, Err(SimError::ShapeOnly { .. }));
                                assert!(refused, "{name}: {what}: {got:?}");
                                assert_eq!(before, (dev.stats(), dev.now()), "{name}: {what}");
                            }
                            b.free(c).unwrap();
                            len
                        })
                        .collect(),
                });
                assert_eq!(dev.live_buffers(), live, "{name}: {what}: leaked");
                free(b, cols);
                (shapes, device_side)
            };
            let ((wet, with_bodies), (dry, without)) = (run(false), run(true));
            assert_eq!(without, with_bodies, "{name}: {what}: charges differ");
            let seed = |out: Vec<f64>| if what == "reduction" { vec![0.0] } else { out };
            assert_eq!(dry, wet.map(seed), "{name}: {what}");
        }
    }
}
