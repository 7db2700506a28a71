//! Cross-crate integration: every backend computes the same answers for
//! every Table-II operator on shared randomized workloads.

use gpu_proto_db::core::backend::Pred;
use gpu_proto_db::core::prelude::*;
use gpu_proto_db::core::workload;

fn fw() -> Framework {
    gpu_proto_db::paper_setup()
}

/// Run `f` on all backends and assert all produced values are equal,
/// returning the agreed value.
fn agree<T: PartialEq + std::fmt::Debug>(
    fw: &Framework,
    f: impl Fn(&dyn gpu_proto_db::core::backend::GpuBackend) -> T,
) -> T {
    let mut result: Option<(String, T)> = None;
    for b in fw.backends() {
        let v = f(b.as_ref());
        match &result {
            None => result = Some((b.name().to_string(), v)),
            Some((name, expect)) => {
                assert_eq!(expect, &v, "{} disagrees with {}", b.name(), name);
            }
        }
    }
    result.expect("at least one backend").1
}

#[test]
fn selection_agreement_across_selectivities() {
    let fw = fw();
    for sel in [0.0, 0.03, 0.5, 0.97, 1.0] {
        let (col, thr) = workload::selectivity_column(20_000, sel, 42);
        let ids = agree(&fw, |b| {
            let c = b.upload_u32(&col).unwrap();
            let ids = b.selection(&c, CmpOp::Lt, thr as f64).unwrap();
            let v = b.download_u32(&ids).unwrap();
            b.free(ids).unwrap();
            b.free(c).unwrap();
            v
        });
        let expected: Vec<u32> = col
            .iter()
            .enumerate()
            .filter(|(_, &x)| x < thr)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(ids, expected, "selectivity {sel}");
    }
}

#[test]
fn conjunction_and_disjunction_agreement() {
    let fw = fw();
    let a = workload::uniform_u32(10_000, 1000, 1);
    let b_col = workload::uniform_u32(10_000, 1000, 2);
    for conn in [Connective::And, Connective::Or] {
        let ids = agree(&fw, |b| {
            let ca = b.upload_u32(&a).unwrap();
            let cb = b.upload_u32(&b_col).unwrap();
            let preds = [
                Pred {
                    col: &ca,
                    cmp: CmpOp::Lt,
                    lit: 400.0,
                },
                Pred {
                    col: &cb,
                    cmp: CmpOp::Ge,
                    lit: 600.0,
                },
            ];
            let ids = b.selection_multi(&preds, conn).unwrap();
            let v = b.download_u32(&ids).unwrap();
            b.free(ids).unwrap();
            b.free(ca).unwrap();
            b.free(cb).unwrap();
            v
        });
        let expected: Vec<u32> = (0..a.len())
            .filter(|&i| match conn {
                Connective::And => a[i] < 400 && b_col[i] >= 600,
                Connective::Or => a[i] < 400 || b_col[i] >= 600,
            })
            .map(|i| i as u32)
            .collect();
        assert_eq!(ids, expected, "{conn:?}");
    }
}

#[test]
fn grouped_sum_agreement() {
    let fw = fw();
    let keys = workload::zipf_keys(30_000, 64, 0.8, 3);
    let vals: Vec<f64> = (0..30_000).map(|i| (i % 97) as f64).collect();
    let (gk, gv) = agree(&fw, |b| {
        let k = b.upload_u32(&keys).unwrap();
        let v = b.upload_f64(&vals).unwrap();
        let (gk, gv) = b.grouped_sum(&k, &v).unwrap();
        let rk = b.download_u32(&gk).unwrap();
        let rv = b.download_f64(&gv).unwrap();
        for c in [gk, gv, k, v] {
            b.free(c).unwrap();
        }
        // Round to tolerate summation-order differences across backends.
        let rv: Vec<i64> = rv.iter().map(|x| (x * 1000.0).round() as i64).collect();
        (rk, rv)
    });
    let mut expect = std::collections::BTreeMap::new();
    for (k, v) in keys.iter().zip(&vals) {
        *expect.entry(*k).or_insert(0.0) += v;
    }
    assert_eq!(gk, expect.keys().copied().collect::<Vec<_>>());
    assert_eq!(
        gv,
        expect
            .values()
            .map(|v| (v * 1000.0).round() as i64)
            .collect::<Vec<_>>()
    );
}

#[test]
fn sort_and_prefix_sum_agreement() {
    let fw = fw();
    let data = workload::uniform_u32(15_000, 1 << 30, 4);
    let sorted = agree(&fw, |b| {
        let c = b.upload_u32(&data).unwrap();
        let s = b.sort(&c).unwrap();
        let v = b.download_u32(&s).unwrap();
        b.free(s).unwrap();
        b.free(c).unwrap();
        v
    });
    let mut expect = data.clone();
    expect.sort_unstable();
    assert_eq!(sorted, expect);

    let small = workload::uniform_u32(5_000, 100, 5);
    let scanned = agree(&fw, |b| {
        let c = b.upload_u32(&small).unwrap();
        let s = b.prefix_sum(&c).unwrap();
        let v = b.download_u32(&s).unwrap();
        b.free(s).unwrap();
        b.free(c).unwrap();
        v
    });
    let mut acc = 0u32;
    let expect: Vec<u32> = small
        .iter()
        .map(|&x| {
            let r = acc;
            acc += x;
            r
        })
        .collect();
    assert_eq!(scanned, expect);
}

#[test]
fn join_agreement_among_joinable_backends() {
    let fw = fw();
    let (outer, inner) = workload::fk_join(5_000, 2_000, 6);
    let mut reference: Option<(Vec<u32>, Vec<u32>)> = None;
    for b in fw.backends() {
        let Some(algo) = gpu_proto_db::core::optimizer::best_join(b.as_ref()) else {
            continue;
        };
        let o = b.upload_u32(&outer).unwrap();
        let i = b.upload_u32(&inner).unwrap();
        let (l, r) = b.join(&o, &i, algo).unwrap();
        let pair = (b.download_u32(&l).unwrap(), b.download_u32(&r).unwrap());
        match &reference {
            None => reference = Some(pair),
            Some(expect) => assert_eq!(expect, &pair, "{} ({:?})", b.name(), algo),
        }
        for c in [l, r, o, i] {
            b.free(c).unwrap();
        }
    }
    let (l, _) = reference.expect("at least one joinable backend");
    assert_eq!(l.len(), outer.len(), "FK join: every probe matches once");
}

#[test]
fn gather_scatter_product_reduction_agreement() {
    let fw = fw();
    let data: Vec<f64> = (0..8_000).map(|i| i as f64 / 7.0).collect();
    let idx: Vec<u32> = (0..4_000).map(|i| (i * 2) as u32).collect();
    let gathered = agree(&fw, |b| {
        let d = b.upload_f64(&data).unwrap();
        let m = b.upload_u32(&idx).unwrap();
        let g = b.gather(&d, &m).unwrap();
        let v = b.download_f64(&g).unwrap();
        for c in [g, d, m] {
            b.free(c).unwrap();
        }
        v.iter()
            .map(|x| (x * 1e6).round() as i64)
            .collect::<Vec<_>>()
    });
    assert_eq!(gathered.len(), idx.len());

    let total = agree(&fw, |b| {
        let d = b.upload_f64(&data).unwrap();
        let p = b.product(&d, &d).unwrap();
        let t = b.reduction(&p).unwrap();
        b.free(p).unwrap();
        b.free(d).unwrap();
        (t / 1000.0).round() as i64
    });
    let expect: f64 = data.iter().map(|x| x * x).sum();
    assert_eq!(total, (expect / 1000.0).round() as i64);
}

#[test]
fn unsupported_operations_error_cleanly_not_panic() {
    let fw = fw();
    let af = fw.backend("ArrayFire").unwrap();
    let o = af.upload_u32(&[1, 2, 3]).unwrap();
    let i = af.upload_u32(&[2]).unwrap();
    for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::NestedLoops] {
        assert!(af.join(&o, &i, algo).is_err());
    }
    let th = fw.backend("Thrust").unwrap();
    let to = th.upload_u32(&[1]).unwrap();
    let ti = th.upload_u32(&[1]).unwrap();
    assert!(th.join(&to, &ti, JoinAlgo::Hash).is_err());
    assert!(th.join(&to, &ti, JoinAlgo::NestedLoops).is_ok());
}
