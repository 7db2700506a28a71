//! Large host blocks the simulator allocates. The shape-priced grid rows
//! run dry without materialising data no charge reads: they generate,
//! upload and allocate only the columns an input check reads. A column
//! uploaded to the four paper backends is held once, and a column its
//! owner published (a TPC-H column, a cached generated one) is not copied
//! by its uploads at all. A generated TPC-H column is allocated once, and
//! a generated column lives only while the grid row that read it runs.
//! The tests take one lock, because `hostalloc::stats()` counts the large
//! host blocks of the whole process and `workload::cache` holds its
//! columns for the whole process.

use bench::experiments::run_serial;
use bench::grid::GridConfig;
use proto_core::backend::Source;
use proto_core::backends::PAPER_BACKENDS;
use proto_core::resilient_plan::HostCol;
use std::sync::{Arc, Mutex};
use tpch::queries::LOGICAL_PLANS;

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
/// and E7 allocates its index column once per size, when it is generated;
/// every backend's upload shares that column, and the gather / scatter
/// bounds stay checked. Any path that quietly materialises a column
/// again shows here.
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
    assert_eq!(large_allocations() - before, index_columns, "E7");
}

/// Once the grid returns, no column it generated is alive: each row's pin
/// drops with the row's last cell, on whichever lane that ran.
#[test]
fn a_finished_grid_holds_no_generated_column() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    bench::grid::run(bench::traced::lint_config(), 2);
    assert_eq!(proto_core::workload::cache::live_columns(), 0);
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

/// The base columns the six TPC-H queries scan at SF 0.05 (the
/// `queries_scan` scale), Q1's group key among them, uploaded to the four
/// paper backends, allocate no large host block: every upload shares the
/// database's own published column. When an upload copied its slice, the
/// four backends shared one copy per column of 64 KiB or more.
#[test]
fn uploaded_tpch_columns_share_the_database_copy() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let db = tpch::generate_seeded(0.05, 3);
    let mut names: Vec<String> = LOGICAL_PLANS
        .iter()
        .flat_map(|(_, plan)| plan().scan_columns())
        .map(|(name, _)| name)
        .collect();
    names.sort_unstable();
    names.dedup();
    let stored: Vec<HostCol<'_>> = names.iter().map(|name| db.column(name).unwrap()).collect();
    let bytes = |col: &HostCol<'_>| match col {
        HostCol::U32(v) => v.len() * 4,
        HostCol::F64(v) => v.len() * 8,
    };
    let large = stored.iter().filter(|col| bytes(col) >= 64 << 10).count();
    assert_eq!(large, 15, "large stored base columns at SF 0.05");
    let fw = bench::paper_framework();
    let before = large_allocations();
    let held: Vec<_> = fw
        .backends()
        .iter()
        .flat_map(|b| {
            stored.iter().map(move |col| {
                let col = match col {
                    HostCol::U32(v) => b.upload_u32(v),
                    HostCol::F64(v) => b.upload_f64(v),
                };
                (b, col.unwrap())
            })
        })
        .collect();
    assert_eq!(held.len(), PAPER_BACKENDS.len() * stored.len());
    assert_eq!(large_allocations() - before, 0, "uploads of stored columns");
    for (b, col) in held {
        b.free(col).unwrap();
    }
}

/// Bytes each column of `db` has room for.
fn column_capacities(db: &tpch::Database) -> Vec<usize> {
    fn bytes<T>(col: &Vec<T>) -> usize {
        col.capacity() * std::mem::size_of::<T>()
    }
    let (li, o, c) = (&db.lineitem, &db.orders, &db.customer);
    let (p, s, ps) = (&db.part, &db.supplier, &db.partsupp);
    let u32s = [
        &li.orderkey,
        &li.partkey,
        &li.suppkey,
        &li.linenumber,
        &li.returnflag,
        &li.linestatus,
        &li.shipdate,
        &li.commitdate,
        &li.receiptdate,
        &li.groupkey,
        &o.orderkey,
        &o.custkey,
        &o.orderdate,
        &o.orderpriority,
        &o.shippriority,
        &c.custkey,
        &c.nationkey,
        &c.mktsegment,
        &p.partkey,
        &p.size,
        &s.suppkey,
        &s.nationkey,
        &ps.partkey,
        &ps.suppkey,
        &ps.availqty,
        &db.nation.nationkey,
        &db.nation.regionkey,
        &db.region.regionkey,
    ];
    let f64s = [
        &li.quantity,
        &li.extendedprice,
        &li.discount,
        &li.tax,
        &o.totalprice,
        &c.acctbal,
        &p.retailprice,
        &s.acctbal,
        &ps.supplycost,
    ];
    let u32s = u32s.into_iter().map(|col| bytes(col));
    u32s.chain(f64s.into_iter().map(|col| bytes(col))).collect()
}

/// One generation at SF 0.05 (the `queries_scan` scale) allocates each
/// column of 64 KiB or more as one large host block: 25 of them, where
/// `lineitem` and `orders` columns growing by doubling made 112, every
/// freed step kept resident by the recycling allocator.
#[test]
fn tpch_generation_allocates_each_large_column_once() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let before = large_allocations();
    let db = tpch::generate_seeded(0.05, 3);
    let blocks = large_allocations() - before;
    let large = column_capacities(&db);
    let large = large.iter().filter(|&&b| b >= 64 << 10).count() as u64;
    assert_eq!(blocks, large, "large host blocks vs large columns");
    assert_eq!(large, 25, "large columns at SF 0.05");
}
