//! `ops_scan` — every `GpuBackend` operator on device-resident columns.
//!
//! Kernel bodies in `*-sim` / `handwritten`, `hostexec`'s radix sort and
//! parallel chunks, and `hostalloc` recycling do nearly all the work; the
//! planner does none. The second half repeats the operators on 4096 rows,
//! where the fixed per-call cost (launch bookkeeping, slab, allocation) is
//! all there is. Two extra data shapes — already-sorted sort keys and
//! all-distinct group keys — drive the same sort and aggregation code
//! where radix pass-skipping and hash sizing behave differently, so a gain
//! tuned to uniform keys that costs the other shape shows.

use super::{timed, Call, Config, DevTotals, LayerMetrics, PassOut, SimMark, Workload};
use crate::registry::{BACKENDS, OPS};
use crate::{span, stat};
use gpu_sim::{Result, SimError};
use proto_core::backend::{Col, GpuBackend, Pred};
use proto_core::framework::Framework;
use proto_core::fused::{FusedExpr, FusedPred};
use proto_core::ops::{CmpOp, Connective};
use proto_core::workload as gen;
use tpch::queries::close;

/// Rows of the throughput half.
const BIG_N: usize = 1 << 20;
/// Rows of the inner (primary-key) side of the join.
const BIG_INNER: usize = 1 << 16;
/// Rows of the fixed-cost half.
const SMALL_N: usize = 4096;
/// Calls per operator and backend in the fixed-cost half, per pass.
const SMALL_REPS: usize = 50;
/// The first ten of [`OPS`] run at both sizes; the two shapes only at `BIG_N`.
const SMALL_OPS: usize = 10;
const GROUPS: usize = 4096;

/// Host copies of the input columns and the answers they imply.
struct Host {
    n: usize,
    thr: u32,
    key_cut: u32,
    sel: Vec<u32>,
    keys: Vec<u32>,
    vals: Vec<f64>,
    vals2: Vec<f64>,
    gkeys: Vec<u32>,
    distinct: Vec<u32>,
    sorted: Vec<u32>,
    ints: Vec<u32>,
    outer: Vec<u32>,
    inner: Vec<u32>,
    want: Want,
}

#[derive(Default)]
struct Want {
    sel: (usize, u64),
    multi: (usize, u64),
    keys_sum: u64,
    sorted_sum: u64,
    vals_sum: f64,
    groups: usize,
    prod_sum: f64,
    fused: f64,
}

fn fused_expr() -> FusedExpr {
    // a · (1 − b): the discounted-price shape of Q1/Q3/Q5.
    FusedExpr::Mul(
        Box::new(FusedExpr::Col(1)),
        Box::new(FusedExpr::Affine {
            input: Box::new(FusedExpr::Col(2)),
            mul: -1.0,
            add: 1.0,
        }),
    )
}

impl Host {
    fn generate(n: usize, inner_n: usize, seed: u64) -> Host {
        let s = |i: u64| seed.wrapping_add(i);
        let (sel, thr) = gen::selectivity_column(n, 0.5, s(0));
        let (outer, inner) = gen::fk_join(n, inner_n, s(6));
        let mut h = Host {
            n,
            thr,
            key_cut: u32::MAX / 2,
            sel,
            keys: gen::uniform_u32(n, u32::MAX, s(1)),
            vals: gen::uniform_f64(n, s(2)),
            vals2: gen::uniform_f64(n, s(3)),
            gkeys: gen::zipf_keys(n, GROUPS.min(n), 0.0, s(4)),
            distinct: gen::fk_join(1, n, s(5)).1,
            sorted: gen::sorted_keys(n, u32::MAX, s(1)),
            ints: gen::uniform_u32(n, 16, s(7)),
            outer,
            inner,
            want: Want::default(),
        };
        // (count, id sum) of the rows a predicate keeps.
        let ids = |keep: &dyn Fn(usize) -> bool| {
            (0..n)
                .filter(|&i| keep(i))
                .fold((0, 0), |(count, sum), i| (count + 1, sum + i as u64))
        };
        let expr = fused_expr();
        let mut seen = vec![false; GROUPS.max(1)];
        h.gkeys.iter().for_each(|&k| seen[k as usize] = true);
        h.want = Want {
            sel: ids(&|i| h.sel[i] < h.thr),
            multi: ids(&|i| h.sel[i] < h.thr && h.keys[i] < h.key_cut && h.vals[i] < 0.5),
            keys_sum: sum32(&h.keys),
            sorted_sum: sum32(&h.sorted),
            vals_sum: h.vals.iter().sum(),
            groups: seen.iter().filter(|&&s| s).count(),
            prod_sum: h.vals.iter().zip(&h.vals2).map(|(a, b)| a * b).sum(),
            fused: (0..n)
                .filter(|&i| h.sel[i] < h.thr)
                .map(|i| expr.eval_row(&|c| if c == 1 { h.vals[i] } else { h.vals2[i] }))
                .sum(),
        };
        h
    }
}

/// One backend's device-resident copies of a [`Host`].
struct Resident {
    sel: Col,
    keys: Col,
    vals: Col,
    vals2: Col,
    gkeys: Col,
    distinct: Col,
    sorted: Col,
    ints: Col,
    outer: Col,
    inner: Col,
}

impl Resident {
    fn upload(b: &dyn GpuBackend, h: &Host) -> Result<Resident> {
        Ok(Resident {
            sel: b.upload_u32(&h.sel)?,
            keys: b.upload_u32(&h.keys)?,
            vals: b.upload_f64(&h.vals)?,
            vals2: b.upload_f64(&h.vals2)?,
            gkeys: b.upload_u32(&h.gkeys)?,
            distinct: b.upload_u32(&h.distinct)?,
            sorted: b.upload_u32(&h.sorted)?,
            ints: b.upload_u32(&h.ints)?,
            outer: b.upload_u32(&h.outer)?,
            inner: b.upload_u32(&h.inner)?,
        })
    }
}

/// What an operator call hands back, before the answer check frees it.
enum Output {
    Col(Col),
    Pair(Col, Col),
    Scalar(f64),
}

fn run_op(op: usize, b: &dyn GpuBackend, r: &Resident, h: &Host) -> Result<Output> {
    Ok(match OPS[op] {
        "selection" => Output::Col(b.selection(&r.sel, CmpOp::Lt, f64::from(h.thr))?),
        "selection_multi" => {
            let preds = [
                Pred {
                    col: &r.sel,
                    cmp: CmpOp::Lt,
                    lit: f64::from(h.thr),
                },
                Pred {
                    col: &r.keys,
                    cmp: CmpOp::Lt,
                    lit: f64::from(h.key_cut),
                },
                Pred {
                    col: &r.vals,
                    cmp: CmpOp::Lt,
                    lit: 0.5,
                },
            ];
            Output::Col(b.selection_multi(&preds, Connective::And)?)
        }
        "sort" => Output::Col(b.sort(&r.keys)?),
        "sort_sorted" => Output::Col(b.sort(&r.sorted)?),
        "sort_by_key" => {
            let (k, v) = b.sort_by_key(&r.keys, &r.vals)?;
            Output::Pair(k, v)
        }
        "grouped_sum" => {
            let (k, v) = b.grouped_sum(&r.gkeys, &r.vals)?;
            Output::Pair(k, v)
        }
        "grouped_sum_distinct" => {
            let (k, v) = b.grouped_sum(&r.distinct, &r.vals)?;
            Output::Pair(k, v)
        }
        "reduction" => Output::Scalar(b.reduction(&r.vals)?),
        "prefix_sum" => Output::Col(b.prefix_sum(&r.ints)?),
        "product" => Output::Col(b.product(&r.vals, &r.vals2)?),
        "join" => {
            let algo = proto_core::optimizer::best_join(b)
                .ok_or_else(|| SimError::Unsupported("no join algorithm (Table II)".into()))?;
            let (o, i) = b.join(&r.outer, &r.inner, algo)?;
            Output::Pair(o, i)
        }
        "fused_filter_agg" => {
            let preds = [FusedPred {
                input: 0,
                cmp: CmpOp::Lt,
                lit: f64::from(h.thr),
            }];
            Output::Scalar(b.fused_filter_agg(
                &[&r.sel, &r.vals, &r.vals2],
                &preds,
                &fused_expr(),
            )?)
        }
        other => unreachable!("unknown operator {other}"),
    })
}

fn ascending(v: &[u32], strict: bool) -> bool {
    v.windows(2)
        .all(|w| if strict { w[0] < w[1] } else { w[0] <= w[1] })
}

fn sum32(v: &[u32]) -> u64 {
    v.iter().map(|&x| u64::from(x)).sum()
}

/// Check an operator's answer against the host's and free it.
fn check_and_free(op: usize, b: &dyn GpuBackend, h: &Host, out: Output) -> Result<bool> {
    let w = &h.want;
    let ok = match (OPS[op], &out) {
        ("selection", Output::Col(c)) | ("selection_multi", Output::Col(c)) => {
            let ids = b.download_u32(c)?;
            let want = if OPS[op] == "selection" {
                w.sel
            } else {
                w.multi
            };
            (ids.len(), sum32(&ids)) == want && ascending(&ids, true)
        }
        ("sort", Output::Col(c)) | ("sort_sorted", Output::Col(c)) => {
            let v = b.download_u32(c)?;
            let want = if OPS[op] == "sort" {
                w.keys_sum
            } else {
                w.sorted_sum
            };
            v.len() == h.n && ascending(&v, false) && sum32(&v) == want
        }
        ("sort_by_key", Output::Pair(k, v)) => {
            let keys = b.download_u32(k)?;
            let vals = b.download_f64(v)?;
            keys.len() == h.n
                && ascending(&keys, false)
                && sum32(&keys) == w.keys_sum
                && close(vals.iter().sum(), w.vals_sum)
        }
        ("grouped_sum", Output::Pair(k, v)) | ("grouped_sum_distinct", Output::Pair(k, v)) => {
            let keys = b.download_u32(k)?;
            let sums = b.download_f64(v)?;
            let groups = if OPS[op] == "grouped_sum" {
                w.groups
            } else {
                h.n
            };
            keys.len() == groups
                && sums.len() == groups
                && ascending(&keys, true)
                && close(sums.iter().sum(), w.vals_sum)
        }
        ("reduction", Output::Scalar(s)) => close(*s, w.vals_sum),
        ("fused_filter_agg", Output::Scalar(s)) => close(*s, w.fused),
        ("prefix_sum", Output::Col(c)) => {
            let v = b.download_u32(c)?;
            v.len() == h.n
                && v.first() == Some(&0)
                && v.windows(2)
                    .zip(&h.ints)
                    .all(|(w, &x)| w[1].wrapping_sub(w[0]) == x)
        }
        ("product", Output::Col(c)) => {
            let v = b.download_f64(c)?;
            v.len() == h.n && close(v.iter().sum(), w.prod_sum)
        }
        ("join", Output::Pair(o, i)) => {
            // FK → PK: every outer row matches exactly one inner row.
            let (o, i) = (b.download_u32(o)?, b.download_u32(i)?);
            o.len() == h.n
                && i.len() == h.n
                && o.iter().enumerate().all(|(row, &x)| x as usize == row)
                && o.iter()
                    .zip(&i)
                    .all(|(&or, &ir)| h.outer[or as usize] == h.inner[ir as usize])
        }
        _ => false,
    };
    match out {
        Output::Col(c) => b.free(c)?,
        Output::Pair(a, c) => {
            b.free(a)?;
            b.free(c)?;
        }
        Output::Scalar(_) => {}
    }
    Ok(ok)
}

/// One half of the schedule: the inputs at one size, resident on every
/// backend, and how often each of the first `ops` operators runs per pass.
struct Half {
    host: Host,
    resident: Vec<Resident>,
    ops: usize,
    reps: usize,
}

impl Half {
    fn setup(fw: &Framework, host: Host, ops: usize, reps: usize) -> Half {
        let resident = fw
            .backends()
            .iter()
            .map(|b| Resident::upload(b.as_ref(), &host).expect("upload operator inputs"))
            .collect();
        Half {
            host,
            resident,
            ops,
            reps,
        }
    }
}

pub struct OpsScan {
    fw: Framework,
    /// The throughput half, then the fixed-cost half.
    halves: [Half; 2],
    cells: Vec<String>,
}

impl OpsScan {
    pub fn setup(cfg: &Config) -> OpsScan {
        let seed = cfg.seed ^ gen::SEED;
        let fw = Framework::with_all_backends(&bench::paper_device());
        let big = Host::generate(BIG_N, BIG_INNER, seed);
        let small = Host::generate(SMALL_N, SMALL_N, seed.wrapping_add(100));
        let halves = [
            Half::setup(&fw, big, OPS.len(), 1),
            Half::setup(&fw, small, SMALL_OPS, SMALL_REPS),
        ];
        let mut cells = Vec::new();
        for half in &halves {
            for (prefix, _) in BACKENDS {
                let size = half.host.n;
                cells.extend(
                    OPS[..half.ops]
                        .iter()
                        .map(|op| format!("{prefix}/{op}/{size}")),
                );
            }
        }
        OpsScan { fw, halves, cells }
    }

    /// Run cell `cell` — operator `op` on backend `bi` — `half.reps` times
    /// and check each answer.
    fn run_cell(&self, out: &mut PassOut, cell: usize, half: &Half, bi: usize, op: usize) {
        let b = self.fw.backends()[bi].as_ref();
        let (h, r) = (&half.host, &half.resident[bi]);
        let dev = b.device();
        let mark = SimMark::take(&dev);
        let mut sim_ns = 0;
        for _ in 0..half.reps {
            let t0 = dev.now();
            let (res, us) = span::scope("backend", OPS[op], || timed(|| run_op(op, b, r, h)));
            let res = match res {
                Err(SimError::Unsupported(_)) => {
                    // Table II says no; the cell stays empty on every run.
                    out.sim_cells[cell] = "unsupported".into();
                    return;
                }
                other => other,
            };
            sim_ns += (dev.now() - t0).as_nanos();
            out.calls.push(Call {
                cell: cell as u32,
                us,
            });
            out.rows += h.n as u64;
            let ok = span::scope("harness", "check", || {
                res.and_then(|o| check_and_free(op, b, h, o))
                    .unwrap_or(false)
            });
            out.failed += u64::from(!ok);
        }
        out.sim_ns += sim_ns;
        out.sim_cells[cell] = mark.cell(&dev, sim_ns);
    }
}

impl Workload for OpsScan {
    fn cells(&self) -> &[String] {
        &self.cells
    }

    fn pass(&mut self) -> PassOut {
        let mut out = PassOut {
            sim_cells: vec![String::new(); self.cells.len()],
            ..PassOut::default()
        };
        for b in self.fw.backends() {
            b.device().reset_stats();
        }
        let mut cell = 0;
        for half in &self.halves {
            for bi in 0..BACKENDS.len() {
                for op in 0..half.ops {
                    self.run_cell(&mut out, cell, half, bi, op);
                    cell += 1;
                }
            }
        }
        let mut dev = DevTotals::default();
        for b in self.fw.backends() {
            dev.add(&b.device().stats());
        }
        out.dev = dev;
        out
    }

    fn layer_metrics(&mut self, passes: &[&PassOut], out: &mut LayerMetrics) {
        let big_cells = BACKENDS.len() * OPS.len();
        for (bi, (prefix, _)) in BACKENDS.iter().enumerate() {
            for (oi, op) in OPS.iter().enumerate() {
                let cell = (bi * OPS.len() + oi) as u32;
                let us: Vec<f64> = passes
                    .iter()
                    .flat_map(|p| p.calls.iter().filter(|c| c.cell == cell).map(|c| c.us))
                    .collect();
                out.insert(
                    format!("{prefix}.{op}_ns_per_row"),
                    stat::median(&us) * 1e3 / BIG_N as f64,
                );
            }
            let lo = (big_cells + bi * SMALL_OPS) as u32;
            let small: Vec<f64> = passes
                .iter()
                .flat_map(|p| p.calls.iter())
                .filter(|c| (lo..lo + SMALL_OPS as u32).contains(&c.cell))
                .map(|c| c.us)
                .collect();
            let mean = small.iter().sum::<f64>() / small.len().max(1) as f64;
            out.insert(format!("{prefix}.op_fixed_us"), mean);
        }
        crate::probes::hostexec(out);
        crate::probes::hostalloc_large(out);
    }
}
