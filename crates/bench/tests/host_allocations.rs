//! Large host blocks the simulator allocates. The shape-priced grid rows
//! run dry without materialising data no charge reads: they generate,
//! upload and allocate only the columns an input check reads. A column
//! uploaded to the four paper backends is held once. The tests take one
//! lock, because `hostalloc::stats()` counts the large host blocks of the
//! whole process.

use bench::experiments::run_serial;
use bench::grid::GridConfig;
use proto_core::backend::Source;
use proto_core::backends::PAPER_BACKENDS;
use std::sync::{Arc, Mutex};

/// Held by each test while it counts.
static COUNTING: Mutex<()> = Mutex::new(());

/// Large host blocks (≥ 64 KiB) allocated since the process started,
/// whether a recycled block served them or a fresh one.
fn large_allocations() -> u64 {
    let (hits, misses, _) = gpu_sim::hostalloc::stats();
    hits + misses
}

/// `hits + misses` across E5a, E5b and E7 at the default sizes, on one
/// paper framework as `run_serial` runs them: the sorts allocate nothing,
/// and E7 allocates its index column once per size (the generation) and
/// once per backend (the upload) — the gather / scatter bounds stay
/// checked. Any path that quietly materialises a column again shows here.
#[test]
fn dry_shape_priced_rows_allocate_only_the_columns_a_check_reads() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let (fw, cfg) = (bench::paper_framework(), GridConfig::default());
    for id in ["E5a", "E5b"] {
        let before = large_allocations();
        run_serial(id, &fw, &cfg);
        assert_eq!(large_allocations() - before, 0, "{id}");
    }
    let before = large_allocations();
    run_serial("E7", &fw, &cfg);
    let index_columns = cfg.sizes.iter().filter(|&&n| n * 4 >= 64 << 10).count() as u64;
    let per_size = 1 + PAPER_BACKENDS.len() as u64;
    assert_eq!(large_allocations() - before, index_columns * per_size, "E7");
}

/// One 2^20-row column (a NaN among its values) uploaded from a slice to
/// the four paper backends is one large host block while all four hold it,
/// not four; the same column from a cache (`Source`) is none.
#[test]
fn a_column_on_four_backends_is_one_host_block() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let fw = bench::paper_framework();
    let mut col: Vec<f64> = (0..1 << 20).map(f64::from).collect();
    col[7] = f64::NAN;
    let before = large_allocations();
    let held: Vec<_> = fw
        .backends()
        .iter()
        .map(|b| b.upload_f64(&col).unwrap())
        .collect();
    assert_eq!(large_allocations() - before, 1, "slice uploads");
    let cached = Arc::new(col);
    let source = || Arc::clone(&cached);
    let before = large_allocations();
    let shared: Vec<_> = fw
        .backends()
        .iter()
        .map(|b| b.upload(cached.len(), Source::F64(&source)).unwrap())
        .collect();
    assert_eq!(large_allocations() - before, 0, "cached uploads");
    for (b, cols) in fw.backends().iter().zip(held.into_iter().zip(shared)) {
        b.free(cols.0).unwrap();
        b.free(cols.1).unwrap();
    }
}
