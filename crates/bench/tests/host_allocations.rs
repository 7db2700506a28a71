//! The shape-priced grid rows run dry without materialising data no charge
//! reads: they generate, upload and allocate only the columns an input
//! check reads. One test in its own binary, because `hostalloc::stats()`
//! counts the large host blocks of the whole process.

use bench::experiments::run_serial;
use bench::grid::GridConfig;
use proto_core::backends::PAPER_BACKENDS;

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
