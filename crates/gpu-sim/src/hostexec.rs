//! Host-execution engine: the one library of fast, deterministic host-side
//! kernel bodies the four backends share.
//!
//! The simulator separates *simulated* time (the cost model, charged via
//! [`crate::Device::charge_kernel`]) from *host* time (how long the
//! functional execution takes on the machine running the simulation). Host
//! speed is free in the cost model, so everything in this module is pure
//! wall-clock optimisation: the backends route their data movement through
//! these primitives while their charge sequences stay byte-identical.
//!
//! Six layers, each built on the ones before:
//!
//! * **A persistent worker pool** (`pool`) behind one primitive, `region`:
//!   the calling thread and up to `workers - 1` parked helpers run one
//!   closure that shares the work out by claiming indices. Nothing else in
//!   the crate spawns threads.
//! * **Deterministic parallel chunking** ([`par_chunks`],
//!   `par_chunks_mut`, `par_map_into`, `par_map_chunks`, [`gather`]) — loops
//!   split at a **fixed chunk granularity** ([`PAR_CHUNK`]) that does not
//!   depend on the worker count, so the set of chunk boundaries — and
//!   therefore any per-chunk computation, including f64 partial-reduction
//!   order — is identical whether the work runs on 1 thread or 64. The
//!   worker count is [`host_threads`].
//! * **A cache-partitioned stable radix sort** ([`sort_keys`],
//!   [`sort_pairs`]) over 8-bit digits. An order check returns an input
//!   that is sorted already as it is; a second read finds the key bits that
//!   vary, and constant bits cost no pass, which makes small-domain keys
//!   (group ids, flags) nearly free. Rows that fit the cache are sorted by
//!   block-parallel passes from the least significant digit up; larger
//!   inputs are first partitioned on their top eight varying bits into
//!   buckets that are then sorted in cache, one per thread. A stable sort's
//!   output is the one permutation that orders the keys and keeps equal
//!   keys in input order, so it is the same on either route and at any
//!   block or thread count.
//! * **A key index** (`index`) with the two kernels no surveyed library
//!   offers (paper Table II): [`equi_join`] and [`group_aggregate`]. One
//!   density rule picks its layout from the data: a table indexed by
//!   `key - min` where the key range is small next to the rows read, open
//!   addressing (`u32` key → dense group id in first-seen order) elsewhere.
//!   The join lists each inner key's rows in either layout and probes each
//!   [`PAR_CHUNK`] window of the outer side once.
//! * **Answers for whole library chains** (`select`, and [`grouped_sum`] in
//!   `index`): what `transform → exclusive_scan → scatter_if` and
//!   `sort_by_key → reduce_by_key` compute, bit for bit, in one fused pass
//!   each — [`select_rows`] / [`select_where`] compact row ids from typed
//!   predicates read in place, [`grouped_sum`] folds each key in row order
//!   from a caller-chosen seed. A backend charges the chain and takes the
//!   answer from here (DESIGN.md §5, "bodies vs. charges"). Inside a dry
//!   scope it takes only the counts the charges read: [`count_rows`] (the
//!   same flag pass, no compaction) and [`distinct_keys`] (the group
//!   count, no fold).
//! * **The expression engine** ([`expr`]): a flat post-order program run
//!   op-at-a-time over `f64` register windows — the body of every fused and
//!   element-wise kernel ([`expr::map`], [`expr::filter_sum`]).

use crate::error::{Result, SimError};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod expr;
mod index;
mod pool;
mod radix;
mod select;

pub use index::{distinct_keys, equi_join, group_aggregate, grouped_sum, GroupStats};
pub use radix::{sort_keys, sort_pairs, RadixKey};
pub use select::{
    count_rows, select_rows, select_where, Cmp, Counts, Lane, Rhs, RowPred, Selected,
};

/// Fixed chunk granularity (in elements) for the parallel helpers.
///
/// Chunk *boundaries* are always multiples of this constant regardless of
/// how many worker threads execute them; only the assignment of chunks to
/// threads varies. Callers must therefore ensure each chunk's effect is
/// independent of the others (disjoint writes), which every element-wise
/// kernel body satisfies by construction.
///
/// (Under Miri this and every other size threshold of the module shrink,
/// so the interpreted tests reach the parallel paths on a few hundred rows.)
pub const PAR_CHUNK: usize = if cfg!(miri) { 1 << 8 } else { 1 << 16 };

/// Below this input size the parallel helpers always run sequentially.
const DEFAULT_MIN_SEQ: usize = if cfg!(miri) { 1 << 4 } else { 1 << 12 };

/// Global concurrency budget for the chunk helpers: the maximum number of
/// host threads *one* parallel region may use (0 = uncapped). A scheduler
/// running several simulator instances concurrently (e.g. the benchmark
/// grid's cell workers) sets this to `total_cores / workers` so nested
/// parallelism — cell workers × chunk threads — never oversubscribes the
/// host. The cap changes only how fast chunks execute, never which chunks
/// exist, so results stay bit-identical at any budget.
static WORKER_BUDGET: AtomicUsize = AtomicUsize::new(0);

/// Cap the per-region worker count of the parallel helpers (0 lifts the
/// cap). See [`host_threads`].
pub fn set_worker_budget(threads_per_region: usize) {
    WORKER_BUDGET.store(threads_per_region, Ordering::Relaxed);
}

/// Number of threads one parallel region may use, the caller included:
/// `GPU_SIM_HOST_THREADS` when it parses as a positive integer, otherwise
/// (unset, empty, `0`, not a number) [`std::thread::available_parallelism`];
/// in both cases capped by [`set_worker_budget`] when a budget is
/// installed. The variable and the budget are read afresh by every region,
/// so a change to either takes effect at the next one.
pub fn host_threads() -> usize {
    // The core count is looked up once: the query reads the affinity mask
    // and the cgroup quota files, which costs more than opening a region.
    static CORES: OnceLock<usize> = OnceLock::new();
    let base = std::env::var("GPU_SIM_HOST_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        });
    match WORKER_BUDGET.load(Ordering::Relaxed) {
        0 => base,
        cap => base.min(cap),
    }
}

/// Piece `i` of `0..len` cut into pieces of `piece_len` (the last may be
/// short, and pieces past the end are empty).
fn piece_range(i: usize, piece_len: usize, len: usize) -> Range<usize> {
    (i * piece_len).min(len)..((i + 1) * piece_len).min(len)
}

/// Threads for a region over `len` elements in `n_chunks` pieces: 1 (run
/// inline) at or below `min_seq` elements or with a single piece.
fn region_workers(len: usize, min_seq: usize, n_chunks: usize) -> usize {
    if len <= min_seq || n_chunks < 2 {
        1
    } else {
        host_threads().min(n_chunks)
    }
}

/// Run `f(i)` once for every `i` in `0..n` on up to `workers` threads. Which
/// thread runs which index is unspecified; `f`'s effects for different
/// indices must be independent.
fn for_each_index(n: usize, workers: usize, f: impl Fn(usize) + Sync) {
    let next = AtomicUsize::new(0);
    // Relaxed: the counter only hands out indices; what `f` writes is
    // published to the caller by the pool lock `region` takes on exit.
    pool::region(workers.min(n), &|| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        f(i);
    });
}

/// Run `f(i, item)` once for every item, moving each item into the call
/// that claims it — how disjoint `&mut` windows reach the threads of a
/// region without `unsafe`.
fn for_each_owned<I: Send>(items: Vec<I>, workers: usize, f: impl Fn(usize, I) + Sync) {
    if workers < 2 {
        return items
            .into_iter()
            .enumerate()
            .for_each(|(i, item)| f(i, item));
    }
    let cells: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    for_each_index(cells.len(), workers, |i| {
        // INVARIANT: each index is handed out once, and a cell's lock is
        // held only to take its item.
        #[allow(clippy::expect_used)]
        let item = cells[i]
            .lock()
            .expect("an item cell is locked only to take the item")
            .take()
            .expect("each index is claimed once");
        f(i, item);
    });
}

/// `f(b)` for every `b` in `0..blocks` on up to `workers` threads, results in
/// index order.
// INVARIANT: `for_each_owned` runs the closure once for every slot.
#[allow(clippy::expect_used)]
fn par_map_blocks<R: Send>(blocks: usize, workers: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if workers < 2 {
        return (0..blocks).map(f).collect();
    }
    let mut slots: Vec<Option<R>> = (0..blocks).map(|_| None).collect();
    for_each_owned(slots.iter_mut().collect(), workers, |b, slot| {
        *slot = Some(f(b));
    });
    slots
        .into_iter()
        .map(|r| r.expect("every block produces a result"))
        .collect()
}

/// Run `f` over `0..len` split into fixed-granularity chunks across host
/// threads. Purely a host-side speedup; it has no effect on simulated
/// time. Chunk boundaries are multiples of [`PAR_CHUNK`] independent of
/// the thread count, so results are bit-identical at any parallelism as
/// long as `f`'s effect per range is independent of the other ranges.
pub fn par_chunks(len: usize, min_seq: usize, f: impl Fn(Range<usize>) + Sync) {
    let n_chunks = len.div_ceil(PAR_CHUNK);
    let workers = region_workers(len, min_seq, n_chunks);
    if workers < 2 {
        return f(0..len);
    }
    for_each_index(n_chunks, workers, |ci| f(piece_range(ci, PAR_CHUNK, len)));
}

/// Split `out` into fixed-granularity chunks and run `f(base_index,
/// chunk)` on host threads. The mutable-slice sibling of [`par_chunks`]:
/// each chunk is a disjoint window of `out`, so writes cannot race and the
/// result is identical at any thread count.
pub(crate) fn par_chunks_mut<T: Send>(
    out: &mut [T],
    min_seq: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let n_chunks = out.len().div_ceil(PAR_CHUNK);
    let workers = region_workers(out.len(), min_seq, n_chunks);
    if workers < 2 {
        return f(0, out);
    }
    let windows: Vec<&mut [T]> = out.chunks_mut(PAR_CHUNK).collect();
    for_each_owned(windows, workers, |ci, chunk| f(ci * PAR_CHUNK, chunk));
}

/// Fill `out[i] = f(i)` with the work split across host threads at fixed
/// chunk granularity. The workhorse for element-wise kernel bodies
/// (`transform`, `sequence`, predicate maps): each output element depends
/// only on its own index, so the result is bit-identical at any thread
/// count.
pub(crate) fn par_map_into<T: Send>(out: &mut [T], min_seq: usize, f: impl Fn(usize) -> T + Sync) {
    par_chunks_mut(out, min_seq, |base, chunk| {
        for (j, o) in chunk.iter_mut().enumerate() {
            *o = f(base + j);
        }
    });
}

/// Build a `Vec` of `len` elements with `out[i] = f(i)`, parallel at fixed
/// chunk granularity. Convenience over `par_map_into` for the common
/// "compute a fresh output column" shape. The output storage is recycled
/// by [`crate::hostalloc`]'s free lists (no fresh page faults) and every
/// element is `f(i)` regardless of the thread count.
pub fn par_map_vec<T: Copy + Send + Default + 'static>(
    len: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let mut out = vec![T::default(); len];
    par_map_into(&mut out, DEFAULT_MIN_SEQ, f);
    out
}

/// `out[i] = src[idx[i]]` in recycled storage, the work split across host
/// threads at fixed chunk granularity — the one gather body of the four
/// backends. Purely host-side: a backend gathers before it charges
/// anything, so a refused gather costs no simulated time.
///
/// # Errors
/// [`SimError::IndexOutOfBounds`] for the first element of `idx`, in `idx`
/// order at any thread count, that does not address `src`.
pub fn gather<T>(src: &[T], idx: &[u32]) -> Result<Vec<T>>
where
    T: Copy + Default + Send + Sync + 'static,
{
    let mut out: Vec<T> = vec![T::default(); idx.len()];
    // Relaxed: read after the region has ended, which publishes it.
    let first_bad = AtomicUsize::new(usize::MAX);
    par_chunks_mut(&mut out, DEFAULT_MIN_SEQ, |base, chunk| {
        for (j, (o, &i)) in chunk.iter_mut().zip(&idx[base..]).enumerate() {
            match src.get(i as usize) {
                Some(&x) => *o = x,
                None => {
                    // Later rows of this chunk cannot be the first bad one.
                    first_bad.fetch_min(base + j, Ordering::Relaxed);
                    return;
                }
            }
        }
    });
    match first_bad.into_inner() {
        usize::MAX => Ok(out),
        at => Err(SimError::IndexOutOfBounds {
            index: idx[at] as usize,
            len: src.len(),
        }),
    }
}

/// The refusal of [`gather`] and [`scatter`] alone: the first of
/// `indices`, in order, that does not address `len` elements.
///
/// # Errors
/// [`SimError::IndexOutOfBounds`] for that index.
pub fn check_indices(indices: impl IntoIterator<Item = u32>, len: usize) -> Result<()> {
    match indices.into_iter().find(|&i| i as usize >= len) {
        Some(bad) => Err(SimError::IndexOutOfBounds {
            index: bad as usize,
            len,
        }),
        None => Ok(()),
    }
}

/// `out[idx[i]] = src[i]` into `dst_len` default elements, in row order
/// (a later duplicate index wins).
///
/// # Errors
/// [`SimError::IndexOutOfBounds`] for the first element of `idx` that does
/// not address `dst_len` elements ([`check_indices`]).
pub fn scatter<T: Copy + Default>(src: &[T], idx: &[u32], dst_len: usize) -> Result<Vec<T>> {
    let mut out = vec![T::default(); dst_len];
    for (&x, &at) in src.iter().zip(idx) {
        let slot = out.get_mut(at as usize).ok_or(SimError::IndexOutOfBounds {
            index: at as usize,
            len: dst_len,
        })?;
        *slot = x;
    }
    Ok(out)
}

/// Map `f` over the fixed-granularity chunks of `0..len`, returning the
/// per-chunk results **in chunk order**. The chunk boundaries (multiples
/// of [`PAR_CHUNK`]) and the result order are independent of the thread
/// count, so order-sensitive combines — concatenating per-chunk compaction
/// outputs, folding f64 partials left-to-right — are bit-identical at any
/// parallelism.
pub(crate) fn par_map_chunks<R: Send>(
    len: usize,
    min_seq: usize,
    f: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let n_chunks = len.div_ceil(PAR_CHUNK).max(1);
    let workers = region_workers(len, min_seq, n_chunks);
    par_map_blocks(n_chunks, workers, |ci| f(piece_range(ci, PAR_CHUNK, len)))
}

#[cfg(test)]
mod tests;
