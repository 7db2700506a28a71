//! Ablation experiments A1–A3 — making the paper's §II claims measurable.
//!
//! A1 runs on the shared per-backend devices (a part function per
//! backend, like `crate::operators`); A2 and A3 need a fresh device for
//! every measurement by design, so they are `*_cell_on` functions that
//! [`crate::experiments::TABLE`] hands one each — fully independent jobs
//! for the parallel grid.

use proto_core::backend::GpuBackend;
use proto_core::ops::CmpOp;
use proto_core::runner::{Experiment, Sample};
use proto_core::workload;
use std::fmt::Write as _;

/// A1 part — one backend's selection-anatomy sample.
pub(crate) fn a1_part(b: &dyn GpuBackend, n: usize) -> Vec<Sample> {
    let (col, thr) = workload::cache::selectivity_column(n, 0.5, workload::SEED);
    let c = b.upload_u32(&col).expect("upload");
    let s = proto_core::runner::measure(b, n as u64, || {
        let ids = b.selection(&c, CmpOp::Lt, thr as f64)?;
        b.free(ids)
    })
    .expect("measure");
    b.free(c).expect("free");
    vec![s]
}

/// Render A1 as the anatomy table (launches, bytes, time).
pub(crate) fn render_a1(exp: &Experiment) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## A1 — selection anatomy ({} rows)", exp.xs()[0]);
    let _ = writeln!(
        out,
        "{:<16} {:>9} {:>16} {:>12}",
        "backend", "launches", "device bytes", "time"
    );
    for b in exp.backends() {
        let s = exp.get(b, exp.xs()[0]).unwrap();
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>16} {:>12}",
            b,
            s.launches,
            s.kernel_bytes,
            proto_core::runner::fmt_duration(s.nanos)
        );
    }
    out
}

/// The two libraries A2 compares, in emission order.
pub const A2_LIBS: [&str; 2] = ["ArrayFire", "Thrust"];

/// One A2 measurement cell: an element-wise chain of length `k` over `n`
/// rows on `lib` (an [`A2_LIBS`] name) — one fused kernel on ArrayFire,
/// `k` kernels on Thrust. `dev` must be fresh (A2 measures cold fusion
/// behaviour).
pub(crate) fn a2_cell_on(
    dev: &std::sync::Arc<gpu_sim::Device>,
    lib: &str,
    k: usize,
    n: usize,
) -> Sample {
    let data = workload::cache::uniform_f64(n, workload::SEED ^ 21);
    match lib {
        // ArrayFire: lazy chain, one fused kernel at eval.
        "ArrayFire" => {
            let rt = arrayfire_backend(dev);
            let arr = rt.array_f64(&data).expect("upload");
            // Warm the JIT shape.
            run_af_chain(&arr, k);
            dev.reset_stats();
            let t0 = dev.now();
            run_af_chain(&arr, k);
            let stats = dev.stats();
            Sample {
                backend: "ArrayFire".into(),
                x: k as u64,
                nanos: (dev.now() - t0).as_nanos(),
                cold_nanos: 0,
                launches: stats.total_launches(),
                kernel_bytes: stats.total_kernel_bytes(),
            }
        }
        // Thrust: k eager transform calls.
        "Thrust" => {
            let lib = thrust_sim::Thrust::new(dev);
            let v = thrust_sim::DeviceVector::from_host(&lib, &data).expect("upload");
            run_thrust_chain(&lib, &v, k); // warm pools
            dev.reset_stats();
            let t0 = dev.now();
            run_thrust_chain(&lib, &v, k);
            let stats = dev.stats();
            Sample {
                backend: "Thrust".into(),
                x: k as u64,
                nanos: (dev.now() - t0).as_nanos(),
                cold_nanos: 0,
                launches: stats.total_launches(),
                kernel_bytes: stats.total_kernel_bytes(),
            }
        }
        other => panic!("A2 compares ArrayFire and Thrust, not {other}"),
    }
}

fn arrayfire_backend(
    dev: &std::sync::Arc<gpu_sim::Device>,
) -> std::sync::Arc<arrayfire_sim::Backend> {
    arrayfire_sim::Backend::new(dev)
}

fn run_af_chain(arr: &arrayfire_sim::Array, k: usize) {
    let mut e = arr + 1.0;
    for _ in 1..k {
        e = &e * 1.000001;
    }
    e.eval().expect("eval");
}

fn run_thrust_chain(lib: &thrust_sim::Thrust, v: &thrust_sim::DeviceVector<f64>, k: usize) {
    let mut cur = thrust_sim::transform(lib, v, |x| x + 1.0).expect("transform");
    for _ in 1..k {
        cur = thrust_sim::transform(lib, &cur, |x| x * 1.000001).expect("transform");
    }
}

/// One A3 measurement cell: `b`'s cold (x=0) and warm (x=1) selection
/// rows. The backend must be fresh (A3 measures the cold run's JIT
/// cost), whatever ran before.
pub(crate) fn a3_cell_on(b: &dyn GpuBackend, n: usize) -> Vec<Sample> {
    let (col, thr) = workload::cache::selectivity_column(n, 0.5, workload::SEED);
    let c = b.upload_u32(&col).expect("upload");
    let s = proto_core::runner::measure(b, 1, || {
        let ids = b.selection(&c, CmpOp::Lt, thr as f64)?;
        b.free(ids)
    })
    .expect("measure");
    b.free(c).expect("free");
    vec![
        Sample {
            backend: s.backend.clone(),
            x: 0,
            nanos: s.cold_nanos,
            cold_nanos: s.cold_nanos,
            launches: s.launches,
            kernel_bytes: s.kernel_bytes,
        },
        s,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::serial;
    use crate::grid::GridConfig;
    use crate::traced::lint_config;

    #[test]
    fn a1_handwritten_moves_least_data() {
        let exp = serial(
            "A1",
            GridConfig {
                a1_n: 1 << 18,
                ..lint_config()
            },
        );
        let hw = exp.get("Handwritten", 1 << 18).unwrap();
        let th = exp.get("Thrust", 1 << 18).unwrap();
        assert!(hw.launches < th.launches);
        assert!(hw.kernel_bytes < th.kernel_bytes, "{hw:?} vs {th:?}");
        let rendered = render_a1(&exp);
        assert!(rendered.contains("Handwritten") && rendered.contains("launches"));
    }

    #[test]
    fn a2_fusion_keeps_one_kernel_thrust_grows_linearly() {
        let exp = serial(
            "A2",
            GridConfig {
                a2_ks: vec![1, 4, 8],
                a2_n: 1 << 16,
                ..lint_config()
            },
        );
        for &k in &[1u64, 4, 8] {
            assert_eq!(exp.get("ArrayFire", k).unwrap().launches, 1, "fused");
            assert_eq!(exp.get("Thrust", k).unwrap().launches, k, "eager");
        }
        // Traffic: Thrust materialises k intermediates, AF only one output.
        let af8 = exp.get("ArrayFire", 8).unwrap().kernel_bytes;
        let th8 = exp.get("Thrust", 8).unwrap().kernel_bytes;
        assert!(th8 > 4 * af8, "af {af8} vs thrust {th8}");
    }

    #[test]
    fn a3_jit_penalty_is_boosts_and_arrayfires() {
        let exp = serial(
            "A3",
            GridConfig {
                a3_n: 1 << 16,
                ..lint_config()
            },
        );
        for b in ["Boost.Compute", "ArrayFire"] {
            let cold = exp.get(b, 0).unwrap().nanos;
            let warm = exp.get(b, 1).unwrap().nanos;
            assert!(cold > 3 * warm, "{b}: cold {cold} vs warm {warm}");
        }
        // Thrust has no JIT: the cold/warm gap is only pool warm-up.
        let cold = exp.get("Thrust", 0).unwrap().nanos;
        let warm = exp.get("Thrust", 1).unwrap().nanos;
        assert!(cold < 10 * warm, "Thrust cold/warm gap stays small");
    }
}
