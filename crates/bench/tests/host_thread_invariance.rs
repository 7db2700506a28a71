//! Query-level invariance across host thread counts.
//!
//! The host-execution engine splits kernel bodies across worker threads
//! at fixed chunk boundaries, so both the *answers* and the *simulated
//! nanoseconds* of every experiment must be bit-identical whatever
//! `GPU_SIM_HOST_THREADS` says. This test runs a representative slice of
//! the paper pipeline (selection, sort, sort-by-key, grouped aggregation
//! and a TPC-H query) at several thread counts and compares the rendered
//! CSVs — which encode backend, simulated ns and launch counts — plus
//! the query answers.
//!
//! A second test repeats the comparison on columns large enough for the
//! sort, join and aggregation kernels to run in parallel. The third covers
//! the other process-wide knob: the scheduler's `--jobs` worker count. All
//! three mutate process-global state (`GPU_SIM_HOST_THREADS`, the hostexec
//! worker budget), so they are kept in this binary alone and serialized
//! through [`GLOBAL_KNOBS`].

use std::sync::Mutex;

use bench::grid::GridConfig;
use proto_core::backend::Pred;
use proto_core::ops::{CmpOp, Connective};

/// Serializes tests that touch process-wide execution knobs. Each test
/// takes it poisoned or not, so one test's failure is not the others'.
static GLOBAL_KNOBS: Mutex<()> = Mutex::new(());

/// One full mini-run of the pipeline: returns every CSV rendering plus
/// the validated query answers, all of which must be invariant.
fn run_pipeline() -> (Vec<String>, String) {
    let fw = bench::paper_framework();
    let cfg = GridConfig {
        e6_n: 1 << 14,
        e9_n: 1 << 14,
        e9_preds: vec![1, 2, 3],
        ..bench::traced::lint_config()
    };
    let csvs = ["E3", "E5a", "E5b", "E6", "E9a"]
        .iter()
        .flat_map(|id| bench::experiments::run_serial(id, &fw, &cfg))
        .map(|exp| exp.to_csv())
        .collect();
    let tables = tpch::generate(0.001);
    bench::queries::validate_all(&fw, &tables).expect("query validation");
    let q6: Vec<String> = fw
        .backends()
        .iter()
        .map(|b| {
            let data = tpch::queries::q6::Q6Data::upload(b.as_ref(), &tables).expect("upload");
            let revenue = data.execute(b.as_ref()).expect("q6");
            format!("{}={revenue:?}", b.name())
        })
        .collect();
    (csvs, q6.join(";"))
}

#[test]
fn results_and_simulated_time_are_thread_count_invariant() {
    let _guard = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let mut runs = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("GPU_SIM_HOST_THREADS", threads);
        runs.push((threads, run_pipeline()));
    }
    std::env::remove_var("GPU_SIM_HOST_THREADS");
    let (_, baseline) = &runs[0];
    for (threads, run) in &runs[1..] {
        assert_eq!(
            run.0, baseline.0,
            "experiment CSVs changed at GPU_SIM_HOST_THREADS={threads}"
        );
        assert_eq!(
            run.1, baseline.1,
            "query answers changed at GPU_SIM_HOST_THREADS={threads}"
        );
    }
}

/// Sort, sort-by-key, grouped sum (few groups, all-distinct and widely
/// spread keys), the three selections and join on 2^18 rows, on every
/// backend: the sizes at which the block-parallel radix sort, the chunk-parallel
/// join probe, the aggregate's sort path and the row-id compaction's
/// windows really open parallel regions (the pipeline above stays below
/// them).
/// One line per backend: a digest of every output column's bits and the
/// simulated clock after the run.
fn run_large_operators() -> Vec<String> {
    use proto_core::workload as gen;
    use std::hash::{Hash, Hasher};
    const N: usize = 1 << 18;
    let keys = gen::uniform_u32(N, u32::MAX, 11);
    let vals = gen::uniform_f64(N, 12);
    let few_groups = gen::zipf_keys(N, 64, 0.0, 13);
    let distinct = gen::fk_join(1, N, 14).1;
    let spread: Vec<u32> = distinct
        .iter()
        .map(|k| k.wrapping_mul(0x9E37_79B1))
        .collect();
    let (outer, inner) = gen::fk_join(N, 1 << 12, 15);
    let fw = bench::paper_framework();
    fw.backends()
        .iter()
        .map(|b| {
            let b = b.as_ref();
            let mut digest = std::collections::hash_map::DefaultHasher::new();
            let mut absorb = |(k, v): (proto_core::backend::Col, proto_core::backend::Col)| {
                b.download_u32(&k).expect("download").hash(&mut digest);
                match b.download_f64(&v) {
                    Ok(f) => f.iter().for_each(|x| x.to_bits().hash(&mut digest)),
                    Err(_) => b.download_u32(&v).expect("download").hash(&mut digest),
                }
            };
            let v = b.upload_f64(&vals).expect("upload");
            let up = |col: &[u32]| b.upload_u32(col).expect("upload");
            let sort = |col: &[u32]| b.sort(&up(col)).expect("sort");
            absorb((sort(&keys), sort(&spread)));
            absorb(b.sort_by_key(&up(&keys), &v).expect("sort_by_key"));
            absorb(b.grouped_sum(&up(&few_groups), &v).expect("grouped_sum"));
            absorb(b.grouped_sum(&up(&distinct), &v).expect("grouped_sum"));
            absorb(b.grouped_sum(&up(&spread), &v).expect("grouped_sum"));
            let k = up(&keys);
            let half = f64::from(u32::MAX / 2);
            absorb((
                b.selection(&k, CmpOp::Lt, half).expect("selection"),
                b.selection_cmp_cols(&k, &up(&distinct), CmpOp::Gt)
                    .expect("selection_cmp_cols"),
            ));
            let preds = [
                Pred {
                    col: &k,
                    cmp: CmpOp::Lt,
                    lit: half,
                },
                Pred {
                    col: &v,
                    cmp: CmpOp::Ge,
                    lit: 0.25,
                },
            ];
            absorb((
                b.selection_multi(&preds, Connective::And)
                    .expect("selection_multi"),
                b.selection_multi(&preds, Connective::Or)
                    .expect("selection_multi"),
            ));
            if let Some(algo) = proto_core::optimizer::best_join(b) {
                absorb(b.join(&up(&outer), &up(&inner), algo).expect("join"));
            }
            format!("{} {:x} @{:?}", b.name(), digest.finish(), b.device().now())
        })
        .collect()
}

#[test]
fn large_sorts_groupings_and_joins_are_thread_count_invariant() {
    let _guard = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let mut runs = Vec::new();
    for threads in ["1", "2", "3", "8"] {
        std::env::set_var("GPU_SIM_HOST_THREADS", threads);
        runs.push((threads, run_large_operators()));
    }
    std::env::remove_var("GPU_SIM_HOST_THREADS");
    assert_eq!(runs[0].1.len(), 4, "all four backends ran");
    for (threads, run) in &runs[1..] {
        assert_eq!(
            run, &runs[0].1,
            "operator outputs or simulated time changed at GPU_SIM_HOST_THREADS={threads}"
        );
    }
}

/// Invariance across scheduler worker counts: the full experiment grid
/// — every CSV artifact and the rendered stdout — must be bit-identical
/// at `--jobs 1`, `2` and `8`, because results are assembled in
/// canonical serial order no matter which worker ran which cell.
#[test]
fn grid_artifacts_and_stdout_are_jobs_invariant() {
    let _guard = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    // Fault rates high enough that retries and fallbacks really happen.
    let cfg = || GridConfig {
        e17_rates: vec![0, 100],
        e19_rates: vec![0, 100],
        ..bench::traced::lint_config()
    };
    let digest = |s: &str| {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    };
    let baseline = bench::grid::run(cfg(), 1);
    for jobs in [2, 8] {
        let run = bench::grid::run(cfg(), jobs);
        assert_eq!(
            run.artifacts, baseline.artifacts,
            "CSV artifacts changed at --jobs {jobs}"
        );
        assert_eq!(
            digest(&run.stdout),
            digest(&baseline.stdout),
            "stdout digest changed at --jobs {jobs}"
        );
        assert_eq!(run.jobs, jobs);
    }
}
