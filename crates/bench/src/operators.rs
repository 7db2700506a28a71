//! Operator micro-benchmarks (experiments E3–E9, E15).
//!
//! Every experiment is a **per-backend part function** (`*_part`): the
//! sample sequence one backend contributes, in the same per-device order
//! the original serial sweep executed. Nothing here runs them: a row of
//! [`crate::experiments::TABLE`] pairs each part with the experiment's
//! title, axis and merge order (or, for the five-table E7 panel, with
//! `e7_assemble`), which puts the parts back into the serial emission
//! order — the output is byte-identical to the historical nested loops —
//! and the parallel grid (`crate::grid`, each part an independent job on
//! its backend's lane), the lint replay (`crate::traced`) and
//! [`crate::experiments::run_serial`] all read that row. Synthetic input
//! columns come from [`workload::cache`], so concurrent parts share one
//! generation per column. A column only a kernel body reads goes up through
//! [`GpuBackend::upload`] with its generator as the source: a dry lane never
//! generates it and holds it shape-only. Columns a counted placeholder or
//! an input check reads — selection and group keys, gather / scatter
//! indices — are generated and uploaded as they are (DESIGN.md §5).

use proto_core::backend::{GpuBackend, Pred, Source};
use proto_core::ops::{CmpOp, Connective, JoinAlgo, Support};
use proto_core::runner::{measure, Experiment};
use proto_core::workload;

use crate::experiments::{merge_x_major, Part};

/// E3 part — one backend's selection-scaling samples, one per size.
pub(crate) fn e3_part(b: &dyn GpuBackend, sizes: &[usize]) -> Part {
    let mut part = Part::new();
    for &n in sizes {
        let (col, thr) = workload::cache::selectivity_column(n, 0.5, workload::SEED);
        let c = b.upload_u32(&col).expect("upload");
        let s = measure(b, n as u64, || {
            let ids = b.selection(&c, CmpOp::Lt, thr as f64)?;
            b.free(ids)
        })
        .expect("measure");
        b.free(c).expect("free");
        part.push(vec![s]);
    }
    part
}

/// E4 part — one backend's selectivity-sweep samples, one per
/// selectivity; `x` is the selectivity in permille (500 = 50%).
pub(crate) fn e4_part(b: &dyn GpuBackend, n: usize, selectivities: &[f64]) -> Part {
    let mut part = Part::new();
    for &sel in selectivities {
        let (col, thr) = workload::cache::selectivity_column(n, sel, workload::SEED);
        let x = (sel * 1000.0).round() as u64;
        let c = b.upload_u32(&col).expect("upload");
        let s = measure(b, x, || {
            let ids = b.selection(&c, CmpOp::Lt, thr as f64)?;
            b.free(ids)
        })
        .expect("measure");
        b.free(c).expect("free");
        part.push(vec![s]);
    }
    part
}

/// E5 part — one backend's sort (or sort-by-key) samples, one per size.
pub(crate) fn e5_part(b: &dyn GpuBackend, sizes: &[usize], by_key: bool) -> Part {
    let mut part = Part::new();
    for &n in sizes {
        let keys = || workload::cache::uniform_u32(n, u32::MAX, workload::SEED);
        let vals = || workload::cache::uniform_f64(n, workload::SEED ^ 1);
        // Both columns are staged even for the keys-only sort: the
        // transfer-inclusive metric prices moving the whole (key, value)
        // dataset, as the paper does. gpu-lint waives the resulting
        // GL006 for E5a (`crate::traced::golden_waivers`).
        let k = b.upload(n, Source::U32(&keys)).expect("upload");
        let v = b.upload(n, Source::F64(&vals)).expect("upload");
        let s = measure(b, n as u64, || {
            if by_key {
                let (sk, sv) = b.sort_by_key(&k, &v)?;
                b.free(sk)?;
                b.free(sv)
            } else {
                let sk = b.sort(&k)?;
                b.free(sk)
            }
        })
        .expect("measure");
        b.free(k).expect("free");
        b.free(v).expect("free");
        part.push(vec![s]);
    }
    part
}

/// E6 part — one backend's grouped-aggregation samples, one per group count.
pub(crate) fn e6_part(b: &dyn GpuBackend, n: usize, group_counts: &[usize]) -> Part {
    let vals = || workload::cache::uniform_f64(n, workload::SEED ^ 2);
    let mut part = Part::new();
    for &g in group_counts {
        let keys = workload::cache::zipf_keys(n, g, 0.5, workload::SEED);
        let k = b.upload_u32(&keys).expect("upload");
        let v = b.upload(n, Source::F64(&vals)).expect("upload");
        let s = measure(b, g as u64, || {
            let (gk, gv) = b.grouped_sum(&k, &v)?;
            b.free(gk)?;
            b.free(gv)
        })
        .expect("measure");
        b.free(k).expect("free");
        b.free(v).expect("free");
        part.push(vec![s]);
    }
    part
}

/// E7 part — one backend's primitive-panel samples: per size, one sample
/// for each of [reduction, prefix sum, gather, scatter, product].
pub(crate) fn e7_part(b: &dyn GpuBackend, sizes: &[usize]) -> Vec<[proto_core::runner::Sample; 5]> {
    let mut rows = Vec::new();
    for &n in sizes {
        let f = || workload::cache::uniform_f64(n, workload::SEED ^ 3);
        let g = || workload::cache::uniform_f64(n, workload::SEED ^ 4);
        let u = || workload::cache::uniform_u32(n, 256, workload::SEED ^ 5);
        // Deterministic shuffle for a random-access index vector.
        let perm = workload::cache::shuffled_indices(n);
        let cf = b.upload(n, Source::F64(&f)).expect("upload");
        let cg = b.upload(n, Source::F64(&g)).expect("upload");
        let cu = b.upload(n, Source::U32(&u)).expect("upload");
        let cidx = b.upload_u32(&perm).expect("upload");
        let reduction = measure(b, n as u64, || b.reduction(&cf).map(drop)).expect("measure");
        let prefix = measure(b, n as u64, || {
            let p = b.prefix_sum(&cu)?;
            b.free(p)
        })
        .expect("measure");
        let gather = measure(b, n as u64, || {
            let o = b.gather(&cf, &cidx)?;
            b.free(o)
        })
        .expect("measure");
        let scatter = measure(b, n as u64, || {
            let o = b.scatter(&cu, &cidx, n)?;
            b.free(o)
        })
        .expect("measure");
        let product = measure(b, n as u64, || {
            let o = b.product(&cf, &cg)?;
            b.free(o)
        })
        .expect("measure");
        for c in [cf, cg, cu, cidx] {
            b.free(c).expect("free");
        }
        rows.push([reduction, prefix, gather, scatter, product]);
    }
    rows
}

/// Assemble the five E7 experiments from per-backend parts.
pub(crate) fn e7_assemble(parts: Vec<Vec<[proto_core::runner::Sample; 5]>>) -> Vec<Experiment> {
    let titles = [
        ("E7a", "Reduction (SUM) vs. rows"),
        ("E7b", "Prefix sum vs. rows"),
        ("E7c", "Gather vs. rows"),
        ("E7d", "Scatter vs. rows"),
        ("E7e", "Product vs. rows"),
    ];
    titles
        .iter()
        .enumerate()
        .map(|(i, (id, title))| {
            let mut exp = Experiment::new(id, title, "rows");
            exp.samples = merge_x_major(
                parts
                    .iter()
                    .map(|p| p.iter().map(|row| vec![row[i].clone()]).collect())
                    .collect(),
            );
            exp
        })
        .collect()
}

/// E8 part — one backend's join samples: per size, one sample per
/// supported algorithm (labelled `backend/algorithm`).
pub(crate) fn e8_part(b: &dyn GpuBackend, sizes: &[usize]) -> Part {
    let mut part = Part::new();
    for &n in sizes {
        let join = workload::cache::fk_join(n, n, workload::SEED);
        let (outer, inner) = (&join.0, &join.1);
        let mut row = Vec::new();
        for algo in [JoinAlgo::NestedLoops, JoinAlgo::Merge, JoinAlgo::Hash] {
            if b.support(algo.operator()) == Support::None {
                continue;
            }
            let o = b.upload_u32(outer).expect("upload");
            let i = b.upload_u32(inner).expect("upload");
            let mut s = measure(b, n as u64, || {
                let (l, r) = b.join(&o, &i, algo)?;
                b.free(l)?;
                b.free(r)
            })
            .expect("measure");
            s.backend = format!("{}/{:?}", b.name(), algo);
            row.push(s);
            b.free(o).expect("free");
            b.free(i).expect("free");
        }
        part.push(row);
    }
    part
}

/// E9 part — one backend's multi-predicate samples, one per predicate
/// count.
pub(crate) fn e9_part(
    b: &dyn GpuBackend,
    n: usize,
    pred_counts: &[usize],
    conn: Connective,
) -> Part {
    let cols: Vec<_> = (0..*pred_counts.iter().max().unwrap_or(&1))
        .map(|i| workload::cache::uniform_u32(n, 1 << 20, workload::SEED ^ (10 + i as u64)))
        .collect();
    let mut part = Part::new();
    for &k in pred_counts {
        let device_cols: Vec<_> = cols[..k]
            .iter()
            .map(|c| b.upload_u32(c).expect("upload"))
            .collect();
        let s = measure(b, k as u64, || {
            let preds: Vec<Pred<'_>> = device_cols
                .iter()
                .map(|c| Pred {
                    col: c,
                    cmp: CmpOp::Lt,
                    lit: (1 << 19) as f64, // 50% each
                })
                .collect();
            let ids = b.selection_multi(&preds, conn)?;
            b.free(ids)
        })
        .expect("measure");
        for c in device_cols {
            b.free(c).expect("free");
        }
        part.push(vec![s]);
    }
    part
}

/// One measurable operator invocation (boxed for the E15 table).
type OpThunk<'a> = Box<dyn Fn() -> gpu_sim::Result<()> + 'a>;

/// E15 part — one backend's launch-anatomy samples, one per Table-II
/// operator: how many launches (and how much device traffic) the backend
/// spends realising one call at `n` rows — the quantified version of
/// Table II's full/partial-support distinction. `x` indexes the operator
/// (0 = selection, 1 = conjunction·2, 2 = product, 3 = reduction,
/// 4 = prefix sum, 5 = sort, 6 = sort-by-key, 7 = grouped sum,
/// 8 = gather, 9 = scatter).
pub(crate) fn e15_part(b: &dyn GpuBackend, n: usize) -> Vec<proto_core::runner::Sample> {
    let (col, thr) = workload::cache::selectivity_column(n, 0.5, workload::SEED);
    let keys = workload::cache::zipf_keys(n, 256, 0.5, workload::SEED);
    let vals = || workload::cache::uniform_f64(n, workload::SEED ^ 50);
    let idx: Vec<u32> = (0..n as u32).collect();
    let c = b.upload_u32(&col).expect("upload");
    let k = b.upload_u32(&keys).expect("upload");
    let v = b.upload(n, Source::F64(&vals)).expect("upload");
    let w = b.upload(n, Source::F64(&vals)).expect("upload");
    let ix = b.upload_u32(&idx).expect("upload");
    let lit = thr as f64;
    let ops: Vec<(u64, OpThunk<'_>)> = vec![
        (
            0,
            Box::new(|| b.selection(&c, CmpOp::Lt, lit).and_then(|r| b.free(r))),
        ),
        (
            1,
            Box::new(|| {
                let preds = [
                    Pred {
                        col: &c,
                        cmp: CmpOp::Lt,
                        lit,
                    },
                    Pred {
                        col: &k,
                        cmp: CmpOp::Lt,
                        lit: 128.0,
                    },
                ];
                b.selection_multi(&preds, Connective::And)
                    .and_then(|r| b.free(r))
            }),
        ),
        (2, Box::new(|| b.product(&v, &w).and_then(|r| b.free(r)))),
        (3, Box::new(|| b.reduction(&v).map(drop))),
        (4, Box::new(|| b.prefix_sum(&k).and_then(|r| b.free(r)))),
        (5, Box::new(|| b.sort(&c).and_then(|r| b.free(r)))),
        (
            6,
            Box::new(|| {
                let (a, bb) = b.sort_by_key(&k, &v)?;
                b.free(a)?;
                b.free(bb)
            }),
        ),
        (
            7,
            Box::new(|| {
                let (a, bb) = b.grouped_sum(&k, &v)?;
                b.free(a)?;
                b.free(bb)
            }),
        ),
        (8, Box::new(|| b.gather(&v, &ix).and_then(|r| b.free(r)))),
        (
            9,
            Box::new(|| b.scatter(&c, &ix, n).and_then(|r| b.free(r))),
        ),
    ];
    let mut out = Vec::new();
    for (x, op) in &ops {
        let s = measure(b, *x, op.as_ref()).expect("measure");
        out.push(s);
    }
    drop(ops);
    for colh in [c, k, v, w, ix] {
        b.free(colh).expect("free");
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::experiments::serial;
    use crate::grid::GridConfig;
    use crate::traced::lint_config;

    fn small_sizes() -> GridConfig {
        GridConfig {
            sizes: vec![1 << 12, 1 << 16],
            ..lint_config()
        }
    }

    #[test]
    fn e3_shapes_hold() {
        let exp = serial("E3", small_sizes());
        assert_eq!(exp.backends().len(), 4);
        // Handwritten single-kernel selection wins at every size.
        for &x in &[1u64 << 12, 1 << 16] {
            let winner = exp
                .samples
                .iter()
                .filter(|s| s.x == x)
                .min_by_key(|s| s.nanos);
            assert_eq!(winner.unwrap().backend, "Handwritten");
        }
        // Everybody gets slower with more rows.
        for b in exp.backends() {
            let small = exp.get(b, 1 << 12).unwrap().nanos;
            let large = exp.get(b, 1 << 16).unwrap().nanos;
            assert!(large >= small, "{b}: {small} -> {large}");
        }
        // Thrust launches 4 kernels, handwritten 1.
        assert!(exp.get("Thrust", 1 << 12).unwrap().launches > 1);
        assert_eq!(exp.get("Handwritten", 1 << 12).unwrap().launches, 1);
    }

    #[test]
    fn e3_sample_order_is_x_major() {
        // The merged experiment preserves the serial emission order:
        // sizes outermost, backends in registration order within a size.
        let exp = serial("E3", small_sizes());
        let order: Vec<(u64, &str)> = exp
            .samples
            .iter()
            .map(|s| (s.x, s.backend.as_str()))
            .collect();
        let mut expect = Vec::new();
        for &n in &small_sizes().sizes {
            for name in proto_core::backends::PAPER_BACKENDS {
                expect.push((n as u64, name));
            }
        }
        assert_eq!(order, expect);
    }

    #[test]
    fn e8_hash_join_dominates_at_scale() {
        let n = 1u64 << 16;
        let exp = serial(
            "E8",
            GridConfig {
                join_sizes: vec![n as usize],
                ..lint_config()
            },
        );
        let hash = exp.get("Handwritten/Hash", n).unwrap().nanos;
        let nlj_thrust = exp.get("Thrust/NestedLoops", n).unwrap().nanos;
        let nlj_hw = exp.get("Handwritten/NestedLoops", n).unwrap().nanos;
        assert!(
            hash * 5 < nlj_thrust,
            "hash {hash} vs thrust-nlj {nlj_thrust}"
        );
        assert!(hash < nlj_hw);
        // ArrayFire appears nowhere in join results.
        assert!(exp.backends().iter().all(|b| !b.contains("ArrayFire")));
        // Merge join exists only for Handwritten.
        assert!(exp.get("Handwritten/Merge", n).is_some());
        assert!(exp.get("Thrust/Merge", n).is_none());
    }

    #[test]
    fn e6_hash_agg_beats_sort_reduce_for_few_groups() {
        let exp = serial(
            "E6",
            GridConfig {
                e6_n: 1 << 18,
                groups: vec![64],
                ..lint_config()
            },
        );
        let hw = exp.get("Handwritten", 64).unwrap().nanos;
        let th = exp.get("Thrust", 64).unwrap().nanos;
        assert!(hw * 2 < th, "hash agg {hw} vs sort+reduce {th}");
    }

    #[test]
    fn e15_quantifies_table_ii() {
        let exp = serial(
            "E15",
            GridConfig {
                e15_n: 1 << 14,
                ..lint_config()
            },
        );
        // Selection (op 0): 1 fused kernel vs the library chains.
        assert_eq!(exp.get("Handwritten", 0).unwrap().launches, 1);
        assert_eq!(exp.get("Thrust", 0).unwrap().launches, 4);
        assert_eq!(exp.get("Boost.Compute", 0).unwrap().launches, 4);
        assert_eq!(exp.get("ArrayFire", 0).unwrap().launches, 3);
        // Grouped sum (op 7): hash agg = 2 kernels, sort+reduce = 13.
        assert_eq!(exp.get("Handwritten", 7).unwrap().launches, 2);
        assert!(exp.get("Thrust", 7).unwrap().launches > 10);
        // Full-support primitives are one launch everywhere.
        for op in [2u64, 3, 4, 8, 9] {
            for b in exp.backends() {
                assert_eq!(exp.get(b, op).unwrap().launches, 1, "{b} op {op}");
            }
        }
    }

    #[test]
    fn e9_library_kernels_grow_with_predicates_handwritten_stays_one() {
        let exp = serial(
            "E9a",
            GridConfig {
                e9_n: 1 << 14,
                e9_preds: vec![1, 4],
                ..lint_config()
            },
        );
        assert_eq!(exp.get("Handwritten", 1).unwrap().launches, 1);
        assert_eq!(exp.get("Handwritten", 4).unwrap().launches, 1);
        let t1 = exp.get("Thrust", 1).unwrap().launches;
        let t4 = exp.get("Thrust", 4).unwrap().launches;
        assert!(t4 > t1, "thrust launches grow: {t1} -> {t4}");
    }
}
