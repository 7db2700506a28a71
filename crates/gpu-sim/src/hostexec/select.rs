//! Row-id compaction: which rows pass a predicate, ascending.
//!
//! The scheme is [`equi_join`](super::equi_join)'s. A first pass over
//! [`PAR_CHUNK`] windows writes one flag byte per row and counts each
//! window's survivors; the output is then sized exactly, cut into one
//! window per chunk, and a second pass fills the windows branch-free
//! (every row id is stored, the store kept only if the row's flag is set).
//! Chunk boundaries, window sizes and window order depend only on the
//! input, so the ids are the same at any thread count.
//!
//! [`select_rows`] evaluates typed predicates — `u32` or `f64` columns read
//! in place, compared as `f64` against a literal or another column — one
//! monomorphic loop per predicate and chunk. [`count_rows`] runs the same
//! flag pass and keeps only the counts, for a caller that needs how many
//! rows survive and not which. [`select_where`] takes the predicate as a
//! closure.

use super::{
    for_each_owned, par_map_chunks, piece_range, region_workers, DEFAULT_MIN_SEQ, PAR_CHUNK,
};
use std::ops::Range;

/// A comparison between two `f64`-widened operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `x < y`
    Lt,
    /// `x <= y`
    Le,
    /// `x > y`
    Gt,
    /// `x >= y`
    Ge,
    /// `x == y`
    Eq,
    /// `x != y`
    Ne,
}

/// A column read in place, each element widened to `f64` where it is used
/// (`u32 → f64` is exact, so comparisons see the stored value).
#[derive(Debug, Clone, Copy)]
pub enum Lane<'a> {
    /// A `u32` column.
    U32(&'a [u32]),
    /// An `f64` column.
    F64(&'a [f64]),
}

impl Lane<'_> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Lane::U32(v) => v.len(),
            Lane::F64(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`, widened: what the references in `tests` compare.
    #[cfg(test)]
    pub(super) fn get(&self, i: usize) -> f64 {
        match self {
            Lane::U32(v) => f64::from(v[i]),
            Lane::F64(v) => v[i],
        }
    }
}

/// The right-hand side of a [`RowPred`].
#[derive(Debug, Clone, Copy)]
pub enum Rhs<'a> {
    /// One value for every row.
    Lit(f64),
    /// The same row of another column.
    Col(Lane<'a>),
}

/// `col[row] cmp rhs[row]`, both sides as `f64`.
#[derive(Debug, Clone, Copy)]
pub struct RowPred<'a> {
    /// Left-hand column.
    pub col: Lane<'a>,
    /// The comparison.
    pub cmp: Cmp,
    /// Right-hand literal or column.
    pub rhs: Rhs<'a>,
}

/// What [`select_rows`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selected {
    /// Rows passing the whole connective, ascending.
    pub ids: Vec<u32>,
    /// Per predicate, the rows passing it alone.
    pub each: Vec<usize>,
    /// Per predicate `j`, the rows passing predicates `0..=j` combined;
    /// the last entry is `ids.len()`.
    pub prefix: Vec<usize>,
}

/// Rows for which every (`all`) or any (`!all`) predicate holds, ascending,
/// plus the per-predicate and per-prefix survivor counts a library chain
/// that materialises those intermediates is charged by.
///
/// # Panics
/// If `preds` is empty or its columns differ in length (callers validate
/// first), or on more rows than `u32` row ids.
pub fn select_rows(preds: &[RowPred<'_>], all: bool) -> Selected {
    let n = rows_of(preds);
    let (ids, per_chunk) = compact(n, |rows, flags| chunk_counts(preds, all, rows, flags));
    let (each, prefix) = totals(preds.len(), per_chunk);
    Selected { ids, each, prefix }
}

/// What [`count_rows`] found: [`Selected`] without its rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// As [`Selected::each`].
    pub each: Vec<usize>,
    /// As [`Selected::prefix`].
    pub prefix: Vec<usize>,
}

impl Counts {
    /// Rows passing the whole connective.
    pub fn kept(&self) -> usize {
        self.prefix.last().copied().unwrap_or(0)
    }
}

/// [`select_rows`]' counts without its rows. Each [`PAR_CHUNK`] window
/// flags its rows into a buffer of its own and counts them; nothing is
/// compacted.
///
/// # Panics
/// As [`select_rows`].
pub fn count_rows(preds: &[RowPred<'_>], all: bool) -> Counts {
    let n = rows_of(preds);
    let per_chunk = par_map_chunks(n, DEFAULT_MIN_SEQ, |rows| {
        let mut flags: Vec<u8> = vec![0; rows.len()];
        chunk_counts(preds, all, rows, &mut flags)
    });
    let (each, prefix) = totals(preds.len(), per_chunk);
    Counts { each, prefix }
}

/// The rows every predicate of `preds` reads, after the checks both
/// selections make.
fn rows_of(preds: &[RowPred<'_>]) -> usize {
    // INVARIANT: every caller refuses an empty predicate list first.
    #[allow(clippy::expect_used)]
    let n = preds.first().expect("at least one predicate").col.len();
    for p in preds {
        let rhs_len = match p.rhs {
            Rhs::Lit(_) => n,
            Rhs::Col(c) => c.len(),
        };
        assert!(
            p.col.len() == n && rhs_len == n,
            "predicate column length mismatch"
        );
    }
    assert!(n < u32::MAX as usize, "more rows than u32 row ids");
    n
}

/// One window's counts, `each` then `prefix` (see [`Selected`]), with
/// `flags` — one byte per row of `rows` — left holding the connective.
fn chunk_counts(
    preds: &[RowPred<'_>],
    all: bool,
    rows: Range<usize>,
    flags: &mut [u8],
) -> Vec<usize> {
    let mut counts = vec![0usize; 2 * preds.len()];
    let (each, prefix) = counts.split_at_mut(preds.len());
    each[0] = fill_flags(&preds[0], rows.clone(), flags);
    prefix[0] = each[0];
    if preds.len() > 1 {
        let mut next: Vec<u8> = vec![0; flags.len()];
        for (j, p) in preds.iter().enumerate().skip(1) {
            each[j] = fill_flags(p, rows.clone(), &mut next);
            let mut kept = 0;
            for (f, &g) in flags.iter_mut().zip(&next) {
                *f = if all { *f & g } else { *f | g };
                kept += usize::from(*f);
            }
            prefix[j] = kept;
        }
        drop(next);
    }
    counts
}

/// The windows' counts summed: `(each, prefix)` over `preds` predicates.
fn totals(preds: usize, per_chunk: Vec<Vec<usize>>) -> (Vec<usize>, Vec<usize>) {
    let mut totals = vec![0usize; 2 * preds];
    for counts in per_chunk {
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
    }
    let prefix = totals.split_off(preds);
    (totals, prefix)
}

/// Rows of `0..n` for which `pred` holds, ascending. `pred` runs once per
/// row, on host threads at fixed chunk granularity.
///
/// # Panics
/// On more rows than `u32` row ids.
pub fn select_where(n: usize, pred: impl Fn(usize) -> bool + Sync) -> Vec<u32> {
    compact(n, |rows, flags| {
        for (f, row) in flags.iter_mut().zip(rows) {
            *f = u8::from(pred(row));
        }
    })
    .0
}

/// How many of `flags` (each 0 or 1) are set.
pub(super) fn count(flags: &[u8]) -> usize {
    flags.iter().map(|&f| usize::from(f)).sum()
}

/// The two-pass compaction. `flags_of(rows, flags)` sets `flags[j]` to 1 if
/// row `rows.start + j` is kept and to 0 otherwise, for one chunk; what it
/// returns comes back per chunk, in chunk order, beside the row ids.
fn compact<C: Send>(
    n: usize,
    flags_of: impl Fn(Range<usize>, &mut [u8]) -> C + Sync,
) -> (Vec<u32>, Vec<C>) {
    assert!(n < u32::MAX as usize, "more rows than u32 row ids");
    let n_chunks = n.div_ceil(PAR_CHUNK);
    let workers = region_workers(n, DEFAULT_MIN_SEQ, n_chunks);

    // Flag: one byte per row, and each chunk's number of survivors.
    let mut flags: Vec<u8> = vec![0; n];
    let mut found: Vec<Option<(usize, C)>> = (0..n_chunks).map(|_| None).collect();
    let chunks = flags.chunks_mut(PAR_CHUNK).zip(&mut found).collect();
    for_each_owned(
        chunks,
        workers,
        |ci, (flags, found): (&mut [u8], &mut Option<(usize, C)>)| {
            let extra = flags_of(piece_range(ci, PAR_CHUNK, n), flags);
            *found = Some((count(flags), extra));
        },
    );
    // INVARIANT: `for_each_owned` runs the closure once for every chunk.
    #[allow(clippy::expect_used)]
    let (kept, extras): (Vec<usize>, Vec<C>) = found
        .into_iter()
        .map(|f| f.expect("every chunk was flagged"))
        .unzip();

    // Fill: one exactly-sized output window per chunk, in chunk order.
    let mut ids: Vec<u32> = vec![0; kept.iter().sum()];
    let mut windows = Vec::with_capacity(n_chunks);
    let mut rest = &mut ids[..];
    for &k in &kept {
        let (window, tail) = rest.split_at_mut(k);
        windows.push(window);
        rest = tail;
    }
    for_each_owned(windows, workers, |ci, window| {
        let rows = piece_range(ci, PAR_CHUNK, n);
        let mut at = 0;
        for (row, &flag) in rows.clone().zip(&flags[rows]) {
            // A full window means every remaining flag is 0.
            if at == window.len() {
                break;
            }
            window[at] = row as u32;
            at += usize::from(flag);
        }
    });
    drop(flags);
    (ids, extras)
}

/// `flags[j] = pred(rows.start + j)` through the loop for this predicate's
/// column types and operator; returns how many flags it set, counted in
/// the same loop.
pub(super) fn fill_flags(pred: &RowPred<'_>, rows: Range<usize>, flags: &mut [u8]) -> usize {
    match pred.col {
        Lane::U32(xs) => fill_rhs(&xs[rows.clone()], pred, rows, flags),
        Lane::F64(xs) => fill_rhs(&xs[rows.clone()], pred, rows, flags),
    }
}

fn fill_rhs<X: Copy + Into<f64>>(
    xs: &[X],
    pred: &RowPred<'_>,
    rows: Range<usize>,
    flags: &mut [u8],
) -> usize {
    match pred.rhs {
        Rhs::Lit(y) => fill_cmp(xs, std::iter::repeat(y), pred.cmp, flags),
        Rhs::Col(Lane::U32(ys)) => {
            fill_cmp(xs, ys[rows].iter().map(|&y| f64::from(y)), pred.cmp, flags)
        }
        Rhs::Col(Lane::F64(ys)) => fill_cmp(xs, ys[rows].iter().copied(), pred.cmp, flags),
    }
}

fn fill_cmp<X: Copy + Into<f64>>(
    xs: &[X],
    ys: impl Iterator<Item = f64>,
    cmp: Cmp,
    flags: &mut [u8],
) -> usize {
    macro_rules! fill {
        ($op:tt) => {{
            let mut set = 0;
            for ((f, &x), y) in flags.iter_mut().zip(xs).zip(ys) {
                *f = u8::from(x.into() $op y);
                set += usize::from(*f);
            }
            set
        }};
    }
    match cmp {
        Cmp::Lt => fill!(<),
        Cmp::Le => fill!(<=),
        Cmp::Gt => fill!(>),
        Cmp::Ge => fill!(>=),
        Cmp::Eq => fill!(==),
        Cmp::Ne => fill!(!=),
    }
}
