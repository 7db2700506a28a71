//! Charge-sequence equivalence: the four backends compute `grouped_sum`
//! and the `selection*` family with one host kernel and *charge* the
//! library chain Table II names, on reservations. This test runs the chain
//! itself — the retained library algorithms, with real intermediates — on
//! one device and the backend operator on another, and demands the same
//! outputs bit for bit, the same `DeviceStats`, the same simulated clock
//! and a byte-identical trace (kinds, bytes, buffer ids, `init`, order),
//! fault-free and with a fault fired at every alloc / DtoD / kernel site
//! of the chain in turn — after which no buffer or reservation may stay
//! live.
//!
//! The `old` modules are the operator bodies as they were before the
//! backends stopped re-enacting the chains; they are the reference, not
//! dead code.

use gpu_sim::{Device, DeviceStats, FaultPlan, FaultSite, Result, SimError, TraceEvent};
use proto_core::backends::{make_backend, PAPER_BACKENDS};
use proto_core::prelude::*;
use std::sync::Arc;

/// A host column to upload.
#[derive(Clone, Copy)]
enum HostCol<'a> {
    U32(&'a [u32]),
    F64(&'a [f64]),
}

/// One operator call over host columns.
enum Op<'a> {
    GroupedSum {
        keys: &'a [u32],
        vals: &'a [f64],
    },
    /// `preds[i] = (column index, comparison, literal)`.
    Select {
        cols: Vec<HostCol<'a>>,
        preds: Vec<(usize, CmpOp, f64)>,
        conn: Connective,
    },
    CmpCols {
        a: HostCol<'a>,
        b: HostCol<'a>,
        cmp: CmpOp,
    },
}

/// Output columns by bit pattern (`u32` widened), so NaN equals NaN.
type Bits = Vec<Vec<u64>>;

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<Bits>,
    stats: DeviceStats,
    now: u64,
    trace: Vec<TraceEvent>,
    /// Live buffers left over once the outputs are gone.
    leaked: u64,
}

fn bits32(v: &[u32]) -> Vec<u64> {
    v.iter().map(|&x| u64::from(x)).collect()
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Run `op(device)` after `upload(device)` on a fresh tracing device with
/// `plan` installed for the operator only.
fn observe<C, O>(
    plan: &Option<FaultPlan>,
    upload: impl FnOnce(&Arc<Device>) -> C,
    op: impl FnOnce(&C) -> Result<O>,
    download: impl FnOnce(&C, O) -> Bits,
) -> Outcome {
    let dev = Device::with_defaults();
    let ctx = upload(&dev);
    let baseline = dev.live_buffers();
    dev.set_tracing(true);
    if let Some(plan) = plan {
        dev.install_fault_plan(plan.clone());
    }
    let out = op(&ctx);
    dev.clear_fault_plan();
    let result = out.map(|o| download(&ctx, o));
    Outcome {
        result,
        stats: dev.stats(),
        now: dev.now().as_nanos(),
        trace: dev.take_trace(),
        leaked: dev.live_buffers() - baseline,
    }
}

/// The backend operator, through the `GpuBackend` trait.
fn run_new(backend: &str, op: &Op<'_>, plan: &Option<FaultPlan>) -> Outcome {
    type Ctx = (Box<dyn GpuBackend>, Vec<Col>);
    let upload = |dev: &Arc<Device>| -> Ctx {
        let b = make_backend(backend, dev);
        let up = |c: &HostCol<'_>| match c {
            HostCol::U32(v) => b.upload_u32(v).unwrap(),
            HostCol::F64(v) => b.upload_f64(v).unwrap(),
        };
        let cols = match op {
            Op::GroupedSum { keys, vals } => vec![up(&HostCol::U32(keys)), up(&HostCol::F64(vals))],
            Op::Select { cols, .. } => cols.iter().map(up).collect(),
            Op::CmpCols { a, b, .. } => vec![up(a), up(b)],
        };
        (b, cols)
    };
    let run = |(b, cols): &Ctx| -> Result<Vec<Col>> {
        match op {
            Op::GroupedSum { .. } => b.grouped_sum(&cols[0], &cols[1]).map(|(k, v)| vec![k, v]),
            Op::Select { preds, conn, .. } => {
                let preds: Vec<Pred<'_>> = preds
                    .iter()
                    .map(|&(c, cmp, lit)| Pred {
                        col: &cols[c],
                        cmp,
                        lit,
                    })
                    .collect();
                match preds[..] {
                    [p] => b.selection(p.col, p.cmp, p.lit),
                    _ => b.selection_multi(&preds, *conn),
                }
                .map(|ids| vec![ids])
            }
            Op::CmpCols { cmp, .. } => b
                .selection_cmp_cols(&cols[0], &cols[1], *cmp)
                .map(|ids| vec![ids]),
        }
    };
    let download = |(b, _): &Ctx, out: Vec<Col>| -> Bits {
        out.into_iter()
            .map(|c| {
                let bits = match c.dtype() {
                    ColType::U32 => bits32(&b.download_u32(&c).unwrap()),
                    ColType::F64 => bits64(&b.download_f64(&c).unwrap()),
                };
                b.free(c).unwrap();
                bits
            })
            .collect()
    };
    observe(plan, upload, run, download)
}

/// The library chain with real intermediates.
fn run_old(backend: &str, op: &Op<'_>, plan: &Option<FaultPlan>) -> Outcome {
    match backend {
        "Thrust" => old_eager::run(thrust_sim::Thrust::new, op, plan),
        "Boost.Compute" => {
            use boost_compute_sim::{CommandQueue, Context};
            old_eager::run(|dev| CommandQueue::new(&Context::new(dev)), op, plan)
        }
        "ArrayFire" => old_arrayfire::run(op, plan),
        "Handwritten" => old_handwritten::run(op, plan),
        other => panic!("unknown backend {other}"),
    }
}

/// The Thrust / Boost.Compute chain: one suite (`gpu_sim::eager`), so one
/// reference, run under each library's launcher.
mod old_eager {
    use super::*;
    use gpu_sim::eager::{self, Launch, Vector};
    use gpu_sim::SimDuration;

    enum Held {
        U32(Vector<u32>),
        F64(Vector<f64>),
    }

    fn flags<L: Launch>(lib: &L, s: &Held, cmp: CmpOp, lit: f64) -> Result<Vector<u32>> {
        match s {
            Held::U32(v) => eager::transform(lib, v, move |x| u32::from(cmp.eval(x as f64, lit))),
            Held::F64(v) => eager::transform(lib, v, move |x| u32::from(cmp.eval(x, lit))),
        }
    }

    fn compact<L: Launch>(lib: &L, flags: &Vector<u32>) -> Result<Vector<u32>> {
        let offs = eager::exclusive_scan(lib, flags, 0u32)?;
        let n = flags.len();
        let count = match n {
            0 => 0,
            _ => (offs.as_slice()[n - 1] + flags.as_slice()[n - 1]) as usize,
        };
        let device = lib.device();
        device.advance(SimDuration::from_nanos(device.spec().pcie_latency_ns));
        let ids = eager::sequence(lib, n)?;
        let mut out: Vector<u32> = Vector::zeroed(lib, count)?;
        eager::scatter_if(lib, &ids, &offs, flags, &mut out)?;
        Ok(out)
    }

    fn selection_multi<L: Launch>(
        lib: &L,
        cols: &[Held],
        preds: &[(usize, CmpOp, f64)],
        conn: Connective,
    ) -> Result<Vector<u32>> {
        let (c, cmp, lit) = preds[0];
        let mut combined = flags(lib, &cols[c], cmp, lit)?;
        for &(c, cmp, lit) in &preds[1..] {
            let f = flags(lib, &cols[c], cmp, lit)?;
            combined = match conn {
                Connective::And => eager::transform_binary(lib, &combined, &f, |a, b| a & b)?,
                Connective::Or => eager::transform_binary(lib, &combined, &f, |a, b| a | b)?,
            };
        }
        compact(lib, &combined)
    }

    fn cmp_cols<L: Launch>(lib: &L, a: &Held, b: &Held, cmp: CmpOp) -> Result<Vector<u32>> {
        let flags = match (a, b) {
            (Held::U32(va), Held::U32(vb)) => eager::transform_binary(lib, va, vb, move |x, y| {
                u32::from(cmp.eval(x as f64, y as f64))
            }),
            (Held::F64(va), Held::F64(vb)) => {
                eager::transform_binary(lib, va, vb, move |x, y| u32::from(cmp.eval(x, y)))
            }
            _ => {
                return Err(SimError::Unsupported(
                    "mixed-dtype column comparison".into(),
                ))
            }
        }?;
        compact(lib, &flags)
    }

    fn grouped_sum<L: Launch>(
        lib: &L,
        keys: &Vector<u32>,
        vals: &Vector<f64>,
    ) -> Result<(Vector<u32>, Vector<f64>)> {
        let (sk, sv) = {
            let mut k = keys.dclone()?;
            let mut v = vals.dclone()?;
            eager::sort_by_key(lib, &mut k, &mut v)?;
            (k, v)
        };
        let reduced = eager::reduce_by_key(lib, &sk, &sv, |x, y| x + y);
        drop(sk);
        drop(sv);
        reduced
    }

    /// `op` through the chain, on the library `cold` makes on a device.
    pub fn run<L: Launch>(
        cold: impl Fn(&Arc<Device>) -> L,
        op: &Op<'_>,
        plan: &Option<FaultPlan>,
    ) -> Outcome {
        let upload = |dev: &Arc<Device>| -> (L, Vec<Held>) {
            let lib = cold(dev);
            let up = |c: &HostCol<'_>| match c {
                HostCol::U32(v) => Held::U32(Vector::from_host(&lib, v).unwrap()),
                HostCol::F64(v) => Held::F64(Vector::from_host(&lib, v).unwrap()),
            };
            let cols = match op {
                Op::GroupedSum { keys, vals } => {
                    vec![up(&HostCol::U32(keys)), up(&HostCol::F64(vals))]
                }
                Op::Select { cols, .. } => cols.iter().map(up).collect(),
                Op::CmpCols { a, b, .. } => vec![up(a), up(b)],
            };
            (lib, cols)
        };
        let run = |(lib, cols): &(L, Vec<Held>)| -> Result<Vec<Held>> {
            match op {
                Op::GroupedSum { .. } => match (&cols[0], &cols[1]) {
                    (Held::U32(k), Held::F64(v)) => {
                        grouped_sum(lib, k, v).map(|(k, v)| vec![Held::U32(k), Held::F64(v)])
                    }
                    _ => unreachable!(),
                },
                Op::Select { preds, conn, .. } => {
                    selection_multi(lib, cols, preds, *conn).map(|ids| vec![Held::U32(ids)])
                }
                Op::CmpCols { cmp, .. } => {
                    cmp_cols(lib, &cols[0], &cols[1], *cmp).map(|ids| vec![Held::U32(ids)])
                }
            }
        };
        let download = |_: &(L, Vec<Held>), out: Vec<Held>| -> Bits {
            out.into_iter()
                .map(|s| match s {
                    Held::U32(v) => bits32(&v.to_host().unwrap()),
                    Held::F64(v) => bits64(&v.to_host().unwrap()),
                })
                .collect()
        };
        observe(plan, upload, run, download)
    }
}

mod old_arrayfire {
    use super::*;
    use arrayfire_sim as af;
    use arrayfire_sim::{Array, DType};

    fn cmp_node(a: &Array, cmp: CmpOp, lit: f64) -> Array {
        match cmp {
            CmpOp::Lt => a.lt_scalar(lit),
            CmpOp::Le => a.le_scalar(lit),
            CmpOp::Gt => a.gt_scalar(lit),
            CmpOp::Ge => a.ge_scalar(lit),
            CmpOp::Eq => a.eq_scalar(lit),
            CmpOp::Ne => a.eq_scalar(lit).not(),
        }
    }

    fn selection_multi(
        cols: &[Array],
        preds: &[(usize, CmpOp, f64)],
        conn: Connective,
    ) -> Result<Array> {
        let mask = |&(c, cmp, lit): &(usize, CmpOp, f64)| cmp_node(&cols[c].clone(), cmp, lit);
        let mut ids = af::where_(&mask(&preds[0]))?;
        for p in &preds[1..] {
            let next = af::where_(&mask(p))?;
            ids = match conn {
                Connective::And => af::set_intersect(&ids, &next)?,
                Connective::Or => af::set_union(&ids, &next)?,
            };
        }
        Ok(ids)
    }

    fn cmp_cols(xa: &Array, xb: &Array, cmp: CmpOp) -> Result<Array> {
        let mask = match cmp {
            CmpOp::Lt => xa.lt(xb)?,
            CmpOp::Le => xa.le(xb)?,
            CmpOp::Gt => xa.gt(xb)?,
            CmpOp::Ge => xa.ge(xb)?,
            CmpOp::Eq => xa.eq_elem(xb)?,
            CmpOp::Ne => xa.ne_elem(xb)?,
        };
        af::where_(&mask)
    }

    fn grouped_sum(keys: &Array, vals: &Array) -> Result<(Array, Array)> {
        let (sk, sv) = af::sort_by_key(keys, vals)?;
        af::sum_by_key(&sk, &sv)
    }

    pub fn run(op: &Op<'_>, plan: &Option<FaultPlan>) -> Outcome {
        type Ctx = Vec<Array>;
        let upload = |dev: &Arc<Device>| -> Ctx {
            let rt = af::Backend::new(dev);
            let up = |c: &HostCol<'_>| match c {
                HostCol::U32(v) => rt.array_u32(v).unwrap(),
                HostCol::F64(v) => rt.array_f64(v).unwrap(),
            };
            match op {
                Op::GroupedSum { keys, vals } => {
                    vec![up(&HostCol::U32(keys)), up(&HostCol::F64(vals))]
                }
                Op::Select { cols, .. } => cols.iter().map(up).collect(),
                Op::CmpCols { a, b, .. } => vec![up(a), up(b)],
            }
        };
        let run = |cols: &Ctx| -> Result<Vec<Array>> {
            match op {
                Op::GroupedSum { .. } => grouped_sum(&cols[0], &cols[1]).map(|(k, v)| vec![k, v]),
                Op::Select { preds, conn, .. } => {
                    selection_multi(cols, preds, *conn).map(|ids| vec![ids])
                }
                Op::CmpCols { cmp, .. } => cmp_cols(&cols[0], &cols[1], *cmp).map(|ids| vec![ids]),
            }
        };
        let download = |_: &Ctx, out: Vec<Array>| -> Bits {
            out.into_iter()
                .map(|a| match a.dtype() {
                    DType::U32 => bits32(&a.host_u32().unwrap()),
                    _ => bits64(&a.host_f64().unwrap()),
                })
                .collect()
        };
        observe(plan, upload, run, download)
    }
}

mod old_handwritten {
    use super::*;
    use gpu_sim::DeviceBuffer;
    use handwritten as hw;

    enum Held {
        U32(DeviceBuffer<u32>),
        F64(DeviceBuffer<f64>),
    }

    impl Held {
        fn values(&self) -> Vec<f64> {
            match self {
                Held::U32(v) => v.host().iter().map(|&x| x as f64).collect(),
                Held::F64(v) => v.host().to_vec(),
            }
        }

        fn width(&self) -> usize {
            match self {
                Held::U32(_) => 4,
                Held::F64(_) => 8,
            }
        }
    }

    fn selection_multi(
        device: &Arc<Device>,
        cols: &[Held],
        preds: &[(usize, CmpOp, f64)],
        conn: Connective,
    ) -> Result<DeviceBuffer<u32>> {
        let n = cols[preds[0].0].values().len();
        let width = preds.iter().map(|&(c, ..)| cols[c].width()).sum();
        let vals: Vec<(Vec<f64>, CmpOp, f64)> = preds
            .iter()
            .map(|&(c, cmp, lit)| (cols[c].values(), cmp, lit))
            .collect();
        hw::select_fused(device, n, width, |i| match conn {
            Connective::And => vals.iter().all(|(v, c, l)| c.eval(v[i], *l)),
            Connective::Or => vals.iter().any(|(v, c, l)| c.eval(v[i], *l)),
        })
    }

    fn cmp_cols(device: &Arc<Device>, a: &Held, b: &Held, cmp: CmpOp) -> Result<DeviceBuffer<u32>> {
        let (va, vb) = (a.values(), b.values());
        hw::select_fused(device, va.len(), a.width() + b.width(), |i| {
            cmp.eval(va[i], vb[i])
        })
    }

    fn grouped_sum(
        device: &Arc<Device>,
        keys: &DeviceBuffer<u32>,
        vals: &DeviceBuffer<f64>,
    ) -> Result<(DeviceBuffer<u32>, DeviceBuffer<f64>)> {
        let agg = hw::hash_group_aggregate(device, keys, vals)?;
        Ok((agg.keys, agg.sums))
    }

    pub fn run(op: &Op<'_>, plan: &Option<FaultPlan>) -> Outcome {
        type Ctx = (Arc<Device>, Vec<Held>);
        let upload = |dev: &Arc<Device>| -> Ctx {
            let up = |c: &HostCol<'_>| match c {
                HostCol::U32(v) => Held::U32(dev.htod(v).unwrap()),
                HostCol::F64(v) => Held::F64(dev.htod(v).unwrap()),
            };
            let cols = match op {
                Op::GroupedSum { keys, vals } => {
                    vec![up(&HostCol::U32(keys)), up(&HostCol::F64(vals))]
                }
                Op::Select { cols, .. } => cols.iter().map(up).collect(),
                Op::CmpCols { a, b, .. } => vec![up(a), up(b)],
            };
            (Arc::clone(dev), cols)
        };
        let run = |(dev, cols): &Ctx| -> Result<Vec<Held>> {
            match op {
                Op::GroupedSum { .. } => match (&cols[0], &cols[1]) {
                    (Held::U32(k), Held::F64(v)) => {
                        grouped_sum(dev, k, v).map(|(k, v)| vec![Held::U32(k), Held::F64(v)])
                    }
                    _ => unreachable!(),
                },
                Op::Select { preds, conn, .. } => {
                    selection_multi(dev, cols, preds, *conn).map(|ids| vec![Held::U32(ids)])
                }
                Op::CmpCols { cmp, .. } => {
                    cmp_cols(dev, &cols[0], &cols[1], *cmp).map(|ids| vec![Held::U32(ids)])
                }
            }
        };
        let download = |(dev, _): &Ctx, out: Vec<Held>| -> Bits {
            out.into_iter()
                .map(|s| match s {
                    Held::U32(v) => bits32(&dev.dtoh(&v).unwrap()),
                    Held::F64(v) => bits64(&dev.dtoh(&v).unwrap()),
                })
                .collect()
        };
        observe(plan, upload, run, download)
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

const CMPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];

/// A deterministic scramble of `0..n`.
fn scrambled(n: usize, mul: u32) -> Vec<u32> {
    (0..n as u32).map(|i| i.wrapping_mul(mul)).collect()
}

/// Values with the IEEE specials mixed in, one kind of special per value
/// of `class(i)`: a sum that meets two *different* NaNs (say the input NaN
/// and the one `inf - inf` makes) keeps whichever the compiled addition
/// happens to return, so each group is given a single source of NaN.
fn special_values(n: usize, class: impl Fn(usize) -> u32) -> Vec<f64> {
    const SPECIALS: [f64; 6] = [f64::NAN, f64::INFINITY, -0.0, f64::NEG_INFINITY, 1e300, 0.0];
    (0..n)
        .map(|i| match i % 3 {
            0 => SPECIALS[class(i) as usize % SPECIALS.len()],
            _ => (i as f64 - n as f64 / 2.0) * 0.37,
        })
        .collect()
}

/// [`special_values`] for a selection column: every special, by position.
fn special_column(n: usize) -> Vec<f64> {
    special_values(n, |i| (i / 3) as u32)
}

/// `(name, keys, values)` of the grouped-sum cases.
fn grouped_cases() -> Vec<(&'static str, Vec<u32>, Vec<f64>)> {
    let few: Vec<u32> = (0..5000).map(|i| (i * 7 + i / 13) % 6).collect();
    // Key 1 holds only -0.0; key 2 holds a NaN; key 3 opposite infinities.
    let signed = (
        vec![1, 2, 1, 3, 2, 3, 1, 0],
        vec![
            -0.0,
            f64::NAN,
            -0.0,
            f64::INFINITY,
            4.0,
            f64::NEG_INFINITY,
            -0.0,
            7.5,
        ],
    );
    // More than 2^15 distinct, widely spread keys: the group kernel's hash
    // path must hand over to its sort path.
    let many = scrambled(40_000, 0x9E37_79B1);
    // Dense and all distinct: the direct-index path with one row per key.
    let dense = scrambled(3000, 7).iter().map(|k| k % 3000 + 11).collect();
    let by_key = |keys: &[u32]| special_values(keys.len(), |i| keys[i]);
    let extremes: Vec<u32> = (0..600).map(|i| [0, u32::MAX, 5][i % 3]).collect();
    let cases = vec![
        ("empty", vec![], vec![]),
        ("one row", vec![9], vec![-0.0]),
        ("all equal keys", vec![6; 700], vec![]),
        ("few groups", few, vec![]),
        ("0 and u32::MAX together", extremes, vec![]),
        ("special sums", signed.0, signed.1),
        ("more than 2^15 distinct", many, vec![]),
        ("dense distinct", dense, vec![]),
    ];
    cases
        .into_iter()
        .map(|(name, keys, vals)| {
            let vals = if vals.len() == keys.len() {
                vals
            } else {
                by_key(&keys)
            };
            (name, keys, vals)
        })
        .collect()
}

/// The selection cases over a `u32` column, a second `u32` column and an
/// `f64` column of `n` rows.
fn selection_cases<'a>(ints: &'a [u32], more: &'a [u32], floats: &'a [f64]) -> Vec<Op<'a>> {
    let cols = || vec![HostCol::U32(ints), HostCol::U32(more), HostCol::F64(floats)];
    let mut ops = Vec::new();
    // Every operator on both dtypes; literals that keep nothing, keep
    // everything, split the column, are fractional, or are NaN.
    for (j, &cmp) in CMPS.iter().enumerate() {
        for (col, lit) in [
            (0, 500.0),
            (0, -1.0),
            (0, 1e10),
            (0, 499.5),
            (2, 0.0),
            (2, f64::NAN),
        ] {
            ops.push(Op::Select {
                cols: cols(),
                preds: vec![(col, cmp, lit)],
                conn: Connective::And,
            });
        }
        for conn in [Connective::And, Connective::Or] {
            ops.push(Op::Select {
                cols: cols(),
                // Three predicates, one column used twice.
                preds: vec![
                    (0, cmp, 300.0),
                    (2, CMPS[(j + 2) % 6], 1.5),
                    (0, CMPS[(j + 3) % 6], 700.0),
                ],
                conn,
            });
            ops.push(Op::Select {
                cols: cols(),
                // Nothing passes the first predicate / everything does.
                preds: vec![
                    (1, CmpOp::Lt, if j % 2 == 0 { -5.0 } else { 1e12 }),
                    (2, cmp, 0.5),
                ],
                conn,
            });
        }
        ops.push(Op::CmpCols {
            a: HostCol::U32(ints),
            b: HostCol::U32(more),
            cmp,
        });
        ops.push(Op::CmpCols {
            a: HostCol::F64(floats),
            b: HostCol::F64(floats),
            cmp,
        });
    }
    ops
}

// ---------------------------------------------------------------------------
// Fault-free equivalence
// ---------------------------------------------------------------------------

fn assert_equivalent(backend: &str, what: &str, op: &Op<'_>, plan: &Option<FaultPlan>) -> Outcome {
    let old = run_old(backend, op, plan);
    let new = run_new(backend, op, plan);
    assert_eq!(new.result, old.result, "{backend}: {what}: outputs");
    assert_eq!(new.stats, old.stats, "{backend}: {what}: device stats");
    assert_eq!(new.now, old.now, "{backend}: {what}: simulated clock");
    assert_eq!(new.trace, old.trace, "{backend}: {what}: trace");
    assert_eq!((new.leaked, old.leaked), (0, 0), "{backend}: {what}: leaks");
    new
}

#[test]
fn grouped_sum_charges_and_answers_like_the_library_chain() {
    for (name, keys, vals) in grouped_cases() {
        let op = Op::GroupedSum {
            keys: &keys,
            vals: &vals,
        };
        for backend in PAPER_BACKENDS {
            let run = assert_equivalent(backend, name, &op, &None);
            assert!(run.result.is_ok(), "{backend}: {name}: {:?}", run.result);
        }
    }
}

#[test]
fn selections_charge_and_answer_like_the_library_chain() {
    for n in [0, 1, 1000] {
        let ints = scrambled(n, 0x9E37_79B1)
            .iter()
            .map(|k| k % 1000)
            .collect::<Vec<_>>();
        let more = scrambled(n, 40_503)
            .iter()
            .map(|k| k % 1000)
            .collect::<Vec<_>>();
        let floats = special_column(n);
        for (i, op) in selection_cases(&ints, &more, &floats).iter().enumerate() {
            for backend in PAPER_BACKENDS {
                let what = format!("n={n} case {i}");
                let run = assert_equivalent(backend, &what, op, &None);
                assert!(run.result.is_ok(), "{backend}: {what}: {:?}", run.result);
            }
        }
    }
}

#[test]
fn arrayfire_and_handwritten_compare_columns_of_different_dtypes() {
    // Thrust and Boost.Compute reject the pairing before any device work.
    let ints: Vec<u32> = (0..300).map(|i| i % 7).collect();
    let floats: Vec<f64> = (0..300)
        .map(|i| (i % 5) as f64 + 0.5 * (i % 2) as f64)
        .collect();
    for cmp in CMPS {
        let op = Op::CmpCols {
            a: HostCol::U32(&ints),
            b: HostCol::F64(&floats),
            cmp,
        };
        for backend in ["ArrayFire", "Handwritten"] {
            let run = assert_equivalent(backend, &format!("{cmp:?}"), &op, &None);
            assert!(run.result.is_ok());
        }
        for backend in ["Thrust", "Boost.Compute"] {
            let run = assert_equivalent(backend, &format!("{cmp:?}"), &op, &None);
            assert!(matches!(run.result, Err(SimError::Unsupported(_))));
            assert!(run.trace.is_empty());
        }
    }
}

// ---------------------------------------------------------------------------
// Fault paths
// ---------------------------------------------------------------------------

/// A plan whose first fault at `site` is that site's `k`-th draw, and
/// which draws nowhere else.
fn first_fault_at(site: FaultSite, k: u64) -> FaultPlan {
    let rate = 1.0 / (k + 2) as f64;
    (0..)
        .map(|seed| FaultPlan::new(seed).with_rate(site, rate))
        .find(|plan| {
            let fires = plan.schedule(site, k + 1);
            fires[k as usize] && !fires[..k as usize].contains(&true)
        })
        .expect("some seed fires first at draw k")
}

/// Fire a fault at every draw of `site` the chain makes, one run per draw,
/// until a run gets through without one. Returns the number of faulted
/// runs.
fn fault_every_draw(backend: &str, what: &str, op: &Op<'_>, site: FaultSite) -> u64 {
    for k in 0.. {
        let plan = Some(first_fault_at(site, k));
        let run = assert_equivalent(backend, &format!("{what}, {site} fault #{k}"), op, &plan);
        match run.result {
            Err(_) => assert_eq!(run.stats.faults_injected, 1, "{backend}: {what}"),
            Ok(_) => return k,
        }
    }
    unreachable!()
}

#[test]
fn a_fault_at_any_site_of_the_chain_fails_the_same_way_and_leaks_nothing() {
    let keys: Vec<u32> = (0..400).map(|i| (i * 7) % 9).collect();
    let vals = special_values(400, |i| keys[i]);
    let ints: Vec<u32> = (0..400).map(|i| (i * 13) % 100).collect();
    let floats = special_column(400);
    let cols = vec![HostCol::U32(&ints), HostCol::F64(&floats)];
    let ops = [
        (
            "grouped_sum",
            Op::GroupedSum {
                keys: &keys,
                vals: &vals,
            },
        ),
        (
            "selection",
            Op::Select {
                cols: cols.clone(),
                preds: vec![(0, CmpOp::Lt, 50.0)],
                conn: Connective::And,
            },
        ),
        (
            "selection_multi and",
            Op::Select {
                cols: cols.clone(),
                preds: vec![
                    (0, CmpOp::Ge, 20.0),
                    (1, CmpOp::Lt, 3.0),
                    (0, CmpOp::Ne, 33.0),
                ],
                conn: Connective::And,
            },
        ),
        (
            "selection_multi or",
            Op::Select {
                cols,
                preds: vec![(0, CmpOp::Lt, 20.0), (1, CmpOp::Gt, 30.0)],
                conn: Connective::Or,
            },
        ),
        (
            "selection_cmp_cols",
            Op::CmpCols {
                a: HostCol::U32(&ints),
                b: HostCol::U32(&keys),
                cmp: CmpOp::Gt,
            },
        ),
    ];
    for backend in PAPER_BACKENDS {
        for (what, op) in &ops {
            let kernels = fault_every_draw(backend, what, op, FaultSite::Kernel);
            let allocs = fault_every_draw(backend, what, op, FaultSite::Alloc);
            let copies = fault_every_draw(backend, what, op, FaultSite::DtoD);
            assert!(kernels >= 1 && allocs >= 1, "{backend}: {what}");
            // Only the sort-based aggregations copy their inputs.
            let copying = *what == "grouped_sum" && matches!(backend, "Thrust" | "Boost.Compute");
            assert_eq!(copies, if copying { 2 } else { 0 }, "{backend}: {what}");
        }
    }
}
