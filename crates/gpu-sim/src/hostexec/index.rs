//! Key index and the kernels built on it: equi-join and grouped
//! aggregation (all statistics, or the sum alone).
//!
//! One density rule, [`dense_range`], picks the layout of both kernels'
//! tables from the data. A key range that is small next to the rows read
//! gets a table indexed by `key - min`, so a lookup is one array read.
//! Any other range goes through [`KeyIndex`], which maps `u32` keys to
//! dense group ids handed out in first-seen order. It is an open-addressing
//! table of `(key, group)` slots — one cache line answers a probe — with
//! Fibonacci hashing (the top bits of `key · 2^64/φ`), linear probing and a
//! load factor of at most one half, and it keeps the keys in group order
//! beside the table. [`RowLists`] adds, per slot of either layout, the rows
//! that carry its key, in compressed-sparse-row form:
//! `rows[starts[s]..starts[s + 1]]`, filled by one forward walk over the
//! input, so every list is ascending.
//!
//! The kernels promise more than a correct answer: an *order*. The join
//! emits pairs ascending by `(outer row, inner row)`; the aggregates fold
//! each group's values strictly in input row order from a stated seed, so
//! their `f64` sums are the same bits whichever internal path ran.

use super::select::count;
use super::{
    par_map_blocks, par_map_chunks, piece_range, region_workers, sort_keys, sort_pairs,
    DEFAULT_MIN_SEQ, PAR_CHUNK,
};
use std::ops::Range;

/// `2^64 / φ`: multiplying by it spreads consecutive keys evenly over the
/// top bits (Knuth's multiplicative hashing).
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// "No group": an empty table slot, or a probe key the index does not hold.
/// Never a real group: the join asserts that its row counts — an upper
/// bound on its groups — stay below this value (row ids are `u32`
/// throughout the simulator), and the aggregates stop hashing at
/// `HASH_GROUPS_MAX` groups.
const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Slot {
    key: u32,
    group: u32,
}

/// Open-addressing map from `u32` key to dense group id (first-seen order).
struct KeyIndex {
    /// Power-of-two table, at most half full.
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash keeps the top bits.
    shift: u32,
    /// Group id → key.
    keys: Vec<u32>,
}

impl KeyIndex {
    /// An empty index sized for `keys` distinct keys without regrowth.
    fn with_capacity(keys: usize) -> KeyIndex {
        let slots = (keys.max(8) * 2).next_power_of_two();
        KeyIndex {
            slots: vec![
                Slot {
                    key: 0,
                    group: NONE
                };
                slots
            ],
            shift: 64 - slots.trailing_zeros(),
            keys: Vec::with_capacity(keys),
        }
    }

    #[inline]
    fn home(&self, key: u32) -> usize {
        (u64::from(key).wrapping_mul(PHI) >> self.shift) as usize
    }

    /// The slot holding `key`, or the empty slot where it belongs. Ends
    /// because the table is never more than half full.
    #[inline]
    fn find(&self, key: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = self.home(key);
        loop {
            let slot = self.slots[at];
            if slot.group == NONE || slot.key == key {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// The group of `key`, or [`NONE`].
    #[inline]
    fn group_of(&self, key: u32) -> u32 {
        self.slots[self.find(key)].group
    }

    /// The group of `key`, which becomes the next new group if unseen.
    #[inline]
    fn insert(&mut self, key: u32) -> u32 {
        let at = self.find(key);
        let slot = self.slots[at];
        if slot.group != NONE {
            return slot.group;
        }
        if (self.keys.len() + 1) * 2 > self.slots.len() {
            self.grow();
            return self.insert(key);
        }
        let group = self.keys.len() as u32;
        self.slots[at] = Slot { key, group };
        self.keys.push(key);
        group
    }

    /// Double the table and re-seat every key under its old group id.
    fn grow(&mut self) {
        let keys = std::mem::take(&mut self.keys);
        let mut bigger = KeyIndex::with_capacity(self.slots.len());
        for (group, &key) in keys.iter().enumerate() {
            let at = bigger.find(key);
            bigger.slots[at] = Slot {
                key,
                group: group as u32,
            };
        }
        bigger.keys = keys;
        *self = bigger;
    }
}

/// Per slot, the rows carrying its key, ascending (CSR layout): a slot is
/// `key - min` in the direct layout and the key's group in the hashed one.
struct RowLists {
    /// `slots + 1` offsets into `rows`.
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl RowLists {
    /// List each of `slots` slots' rows, row `r` going to the `r`-th slot
    /// `slot_of_row` yields (every one below `slots`).
    fn build(slots: usize, slot_of_row: impl Iterator<Item = usize> + Clone) -> RowLists {
        let mut starts: Vec<u32> = vec![0; slots + 1];
        let mut n = 0;
        for s in slot_of_row.clone() {
            starts[s + 1] += 1;
            n += 1;
        }
        // The counts sit one slot up, so a running sum turns slot `s` into
        // its start offset.
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        // The fill uses slot `s` as its own cursor and leaves it at the
        // slot's end — the next slot's start; one rotation puts every
        // offset back in its own slot.
        let mut rows: Vec<u32> = vec![0; n];
        for (row, s) in slot_of_row.enumerate() {
            let at = &mut starts[s];
            rows[*at as usize] = row as u32;
            *at += 1;
        }
        starts.rotate_right(1);
        starts[0] = 0;
        RowLists { starts, rows }
    }

    /// Hash `keys` into groups and list each group's rows.
    fn hashed(keys: &[u32]) -> (KeyIndex, RowLists) {
        let mut index = KeyIndex::with_capacity(keys.len());
        let group_of_row: Vec<u32> = keys.iter().map(|&k| index.insert(k)).collect();
        let lists = RowLists::build(index.keys.len(), group_of_row.iter().map(|&g| g as usize));
        (index, lists)
    }

    /// The rows of `slot`; none past the last slot (a key outside the
    /// direct range, or the [`NONE`] group).
    #[inline]
    fn rows_of(&self, slot: usize) -> &[u32] {
        if slot < self.starts.len() - 1 {
            &self.rows[self.starts[slot] as usize..self.starts[slot + 1] as usize]
        } else {
            &[]
        }
    }
}

/// Equi-join of two key columns: every `(outer row, inner row)` with equal
/// keys, ascending by outer row and, for one outer row, by inner row — the
/// order a nested-loops join emits.
///
/// The inner side is indexed once, in the layout the aggregates' density
/// rule picks over both sides' rows: by `key - min` when its key range is
/// dense, so a probe reads an array, and through the hash index otherwise.
/// The outer side is then probed once, in [`PAR_CHUNK`] windows across
/// host threads, each window's pairs into its own lists, and the lists are
/// concatenated in window order. Window boundaries depend only on the
/// input, so the result is the same at any thread count.
pub fn equi_join(outer: &[u32], inner: &[u32]) -> (Vec<u32>, Vec<u32>) {
    if outer.is_empty() || inner.is_empty() {
        return (Vec::new(), Vec::new());
    }
    assert!(
        outer.len().max(inner.len()) < NONE as usize,
        "more rows than u32 row ids"
    );
    let input_rows = outer.len() + inner.len();
    match dense_range(inner, input_rows, std::mem::size_of::<u32>()) {
        Some((min, range)) => {
            let lists = RowLists::build(range, inner.iter().map(|&k| (k - min) as usize));
            probe(outer, |k| lists.rows_of(k.wrapping_sub(min) as usize))
        }
        None => {
            let (index, lists) = RowLists::hashed(inner);
            probe(outer, |k| lists.rows_of(index.group_of(k) as usize))
        }
    }
}

/// The join's pairs, `rows_of(key)` giving the inner rows of a key in
/// ascending order: one pass over each [`PAR_CHUNK`] window of `outer`, the
/// windows' pair lists joined in window order. A region of one thread
/// probes the whole side into one pair of lists — the same concatenation,
/// without the copy.
fn probe<'a>(outer: &[u32], rows_of: impl Fn(u32) -> &'a [u32] + Sync) -> (Vec<u32>, Vec<u32>) {
    let window = |rows: Range<usize>| {
        let mut left = Vec::with_capacity(rows.len());
        let mut right = Vec::with_capacity(rows.len());
        for (row, &k) in rows.clone().zip(&outer[rows]) {
            for &inner_row in rows_of(k) {
                left.push(row as u32);
                right.push(inner_row);
            }
        }
        (left, right)
    };
    let n_chunks = outer.len().div_ceil(PAR_CHUNK);
    if region_workers(outer.len(), DEFAULT_MIN_SEQ, n_chunks) < 2 {
        return window(0..outer.len());
    }
    let windows = par_map_chunks(outer.len(), DEFAULT_MIN_SEQ, window);
    let total = windows.iter().map(|(l, _)| l.len()).sum();
    let mut left = Vec::with_capacity(total);
    let mut right = Vec::with_capacity(total);
    for (l, r) in windows {
        left.extend_from_slice(&l);
        right.extend_from_slice(&r);
    }
    (left, right)
}

/// Per-group SUM / COUNT / MIN / MAX of a value column, groups ascending
/// by key. Column `i` of every vector describes group `keys[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStats {
    /// Distinct keys, ascending.
    pub keys: Vec<u32>,
    /// Sum of the group's values, folded in input row order from `0.0`.
    pub sums: Vec<f64>,
    /// Rows in the group.
    pub counts: Vec<u64>,
    /// `f64::min` fold of the group's values from `+inf`, in row order.
    pub mins: Vec<f64>,
    /// `f64::max` fold of the group's values from `-inf`, in row order.
    pub maxs: Vec<f64>,
}

/// One group's running aggregate: what [`fold_groups`] keeps per key.
trait Fold: Copy {
    /// The one fold step every aggregation path shares, so a group's values
    /// meet the same operations in the same order on all of them.
    fn add(&mut self, v: f64);
}

/// SUM / COUNT / MIN / MAX together.
#[derive(Clone, Copy)]
struct Stats {
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Fold for Stats {
    #[inline]
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// SUM alone.
impl Fold for f64 {
    #[inline]
    fn add(&mut self, v: f64) {
        *self += v;
    }
}

/// Most groups the hash path of [`fold_groups`] carries before it hands
/// over to the sort path: table slots (8 B, at least two per group) plus
/// accumulators (32 B) for this many groups are what a core's private
/// cache holds; beyond it every row is a cache miss, and sorting —
/// sequential passes, and parallel — is cheaper.
pub(super) const HASH_GROUPS_MAX: usize = if cfg!(miri) { 1 << 6 } else { 1 << 15 };

/// Table bytes a direct index — the join's row lists, [`fold_groups`]'
/// accumulators — may spend per input row (with a floor of
/// [`DIRECT_MIN_ROWS`] rows): the table is indexed by `key - min`, so a key
/// range this dense costs less memory than the hash table or the sorted
/// copies of the other paths, while a sparse one (row ids of a filtered
/// join, `0` next to `u32::MAX`) is declined.
pub(super) const DIRECT_BYTES_PER_ROW: usize = 16;

/// Row count below which the direct-index budget stops shrinking, so a
/// handful of rows over a handful of keys still index directly.
pub(super) const DIRECT_MIN_ROWS: usize = if cfg!(miri) { 1 << 4 } else { 1 << 10 };

/// Grouped SUM / COUNT / MIN / MAX of `vals` by `keys`, each group folded
/// strictly in input row order — sums from `0.0` — so every result is
/// bit-identical whichever internal path (direct index, hash, sort) the
/// data selects.
///
/// # Panics
/// If `keys` and `vals` differ in length (callers validate first).
pub fn group_aggregate(keys: &[u32], vals: &[f64]) -> GroupStats {
    let empty = Stats {
        sum: 0.0,
        count: 0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };
    let (keys, stats) = fold_groups(keys, vals, empty);
    GroupStats {
        keys,
        sums: stats.iter().map(|s| s.sum).collect(),
        counts: stats.iter().map(|s| s.count).collect(),
        mins: stats.iter().map(|s| s.min).collect(),
        maxs: stats.iter().map(|s| s.max).collect(),
    }
}

/// Grouped SUM of `vals` by `keys`: the distinct keys ascending, and per
/// key `seed + v₀ + v₁ + …` over its values strictly in input row order.
///
/// `-0.0` is the additive identity of every `f64` (a signalling NaN comes
/// back quiet), so seeding with it gives the sum a
/// `sort_by_key` + `reduce_by_key` chain computes, which starts each
/// group from its first value; `+0.0` gives the sum of a kernel that
/// zero-initialises its accumulators (a group of only `-0.0` then sums to
/// `+0.0`).
///
/// # Panics
/// If `keys` and `vals` differ in length (callers validate first).
pub fn grouped_sum(keys: &[u32], vals: &[f64], seed: f64) -> (Vec<u32>, Vec<f64>) {
    fold_groups(keys, vals, seed)
}

/// How many distinct keys `keys` holds: the group count of
/// [`grouped_sum`] and [`group_aggregate`], without their folds.
///
/// A key range dense enough for [`grouped_sum`]'s direct table is counted
/// on a seen map indexed by `key - min`: each host thread marks the
/// keys of one piece of the rows in a map of its own, and the maps are
/// OR-merged. Any other range is sorted and its runs counted.
pub fn distinct_keys(keys: &[u32]) -> usize {
    if keys.is_empty() {
        return 0;
    }
    let slot_bytes = std::mem::size_of::<f64>();
    match dense(key_range(keys), keys.len(), slot_bytes) {
        Some((min, range)) => seen_keys(keys, min, range),
        None => {
            let mut sorted = keys.to_vec();
            sort_keys(&mut sorted);
            1 + sorted.windows(2).filter(|w| w[0] != w[1]).count()
        }
    }
}

/// Rows a piece of [`seen_keys`] marks between two looks at whether its
/// map is full.
const SEEN_BLOCK: usize = 1 << 12;

/// The keys of `min..min + range` that `keys` holds, counted on per-piece
/// seen maps. A map has a byte per key, so marking a row is a store that
/// waits on no earlier one. A range of few keys is usually all seen long
/// before the rows end: while the range is small next to [`SEEN_BLOCK`],
/// a piece counts its map after each block and stops once it is full.
fn seen_keys(keys: &[u32], min: u32, range: usize) -> usize {
    let n = keys.len();
    let workers = region_workers(n, DEFAULT_MIN_SEQ, n.div_ceil(PAR_CHUNK));
    let piece = n.div_ceil(workers);
    let maps = par_map_blocks(workers, workers, |w| {
        let mut seen: Vec<u8> = vec![0; range];
        for block in keys[piece_range(w, piece, n)].chunks(SEEN_BLOCK) {
            for &k in block {
                seen[(k - min) as usize] = 1;
            }
            if range <= SEEN_BLOCK / 8 && count(&seen) == range {
                break;
            }
        }
        seen
    });
    let mut maps = maps.into_iter();
    let mut seen = maps.next().unwrap_or_default();
    for other in maps {
        for (s, o) in seen.iter_mut().zip(other) {
            *s |= o;
        }
    }
    count(&seen)
}

/// Fold `vals` into one accumulator per distinct key, starting each from
/// `empty`; keys come back ascending with their accumulators beside them.
///
/// The path is chosen by the data. If the observed key range is dense
/// enough for a table indexed by `key - min` ([`DIRECT_BYTES_PER_ROW`]),
/// one pass over the rows does it. Otherwise rows are hashed into
/// accumulators until more distinct keys have shown up than a core's
/// private cache holds accumulators for ([`HASH_GROUPS_MAX`]), at which
/// point the work so far is dropped and the column is stably sorted by
/// key and folded segment by segment. All three visit a group's values in
/// input row order.
fn fold_groups<A: Fold>(keys: &[u32], vals: &[f64], empty: A) -> (Vec<u32>, Vec<A>) {
    assert_eq!(keys.len(), vals.len(), "grouped fold length mismatch");
    if keys.is_empty() {
        return (Vec::new(), Vec::new());
    }
    if let Some((min, range)) = dense_range(keys, keys.len(), std::mem::size_of::<A>()) {
        return direct_fold(keys, vals, min, range, empty);
    }
    hash_fold(keys, vals, empty).unwrap_or_else(|| sort_fold(keys, vals, empty))
}

/// `(min, max - min + 1)` of the non-empty `keys` when a table of
/// `slot_bytes` per key of that range, indexed by `key - min`, fits in
/// [`DIRECT_BYTES_PER_ROW`] per row the kernel reads (`input_rows`, at
/// least [`DIRECT_MIN_ROWS`]); `None` for a range too sparse. The one
/// density rule of the join's index and the aggregates' accumulators.
pub(super) fn dense_range(
    keys: &[u32],
    input_rows: usize,
    slot_bytes: usize,
) -> Option<(u32, usize)> {
    dense(bounds(keys), input_rows, slot_bytes)
}

/// `(min, max)` of the non-empty `keys`.
fn bounds(keys: &[u32]) -> (u32, u32) {
    keys.iter()
        .fold((u32::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)))
}

/// [`dense_range`]'s rule on a key range already found.
fn dense((min, max): (u32, u32), input_rows: usize, slot_bytes: usize) -> Option<(u32, usize)> {
    let range = u64::from(max - min) + 1;
    let budget = input_rows.max(DIRECT_MIN_ROWS) * DIRECT_BYTES_PER_ROW;
    (range <= (budget / slot_bytes) as u64).then_some((min, range as usize))
}

/// [`bounds`] of each [`PAR_CHUNK`] window across host threads, folded.
fn key_range(keys: &[u32]) -> (u32, u32) {
    par_map_chunks(keys.len(), DEFAULT_MIN_SEQ, |rows| bounds(&keys[rows]))
        .into_iter()
        .fold((u32::MAX, 0), |(lo, hi), (l, h)| (lo.min(l), hi.max(h)))
}

/// One pass over the rows into a table indexed by `key - min`. A range
/// whose every key was seen is the answer as it stands; otherwise a walk
/// over the seen map keeps the keys that were.
fn direct_fold<A: Fold>(
    keys: &[u32],
    vals: &[f64],
    min: u32,
    range: usize,
    empty: A,
) -> (Vec<u32>, Vec<A>) {
    let mut table = vec![empty; range];
    let mut seen: Vec<u8> = vec![0; range];
    for (&k, &v) in keys.iter().zip(vals) {
        let at = (k - min) as usize;
        table[at].add(v);
        seen[at] = 1;
    }
    let groups = seen.iter().map(|&s| usize::from(s)).sum();
    if groups == range {
        return ((0..range as u32).map(|at| min + at).collect(), table);
    }
    let mut out_keys = Vec::with_capacity(groups);
    let mut out = Vec::with_capacity(groups);
    for (at, _) in seen.iter().enumerate().filter(|(_, &s)| s != 0) {
        out_keys.push(min + at as u32);
        out.push(table[at]);
    }
    drop(seen);
    (out_keys, out)
}

/// One pass over the rows into a hash table of accumulators; `None` once
/// the table would outgrow [`HASH_GROUPS_MAX`] groups.
fn hash_fold<A: Fold>(keys: &[u32], vals: &[f64], empty: A) -> Option<(Vec<u32>, Vec<A>)> {
    let mut index = KeyIndex::with_capacity(keys.len().min(1024));
    let mut accs: Vec<A> = Vec::new();
    for (&k, &v) in keys.iter().zip(vals) {
        let g = index.insert(k) as usize;
        if g == accs.len() {
            if g == HASH_GROUPS_MAX {
                return None;
            }
            accs.push(empty);
        }
        accs[g].add(v);
    }
    // Order the (unique) group keys with the shared radix sort, carrying
    // the group id instead of moving the wide accumulators per pass.
    let mut sorted_keys = index.keys;
    let mut order: Vec<u32> = (0..sorted_keys.len() as u32).collect();
    sort_pairs(&mut sorted_keys, &mut order);
    let out = order.iter().map(|&g| accs[g as usize]).collect();
    Some((sorted_keys, out))
}

/// Stable sort by key — equal keys stay in row order — then one fold per
/// run of equal keys.
fn sort_fold<A: Fold>(keys: &[u32], vals: &[f64], empty: A) -> (Vec<u32>, Vec<A>) {
    let mut keys = keys.to_vec();
    let mut vals = vals.to_vec();
    sort_pairs(&mut keys, &mut vals);
    let groups = keys.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!keys.is_empty());
    let mut out_keys = Vec::with_capacity(groups);
    let mut out = Vec::with_capacity(groups);
    let mut rows = keys.iter().zip(&vals);
    if let Some((&first, &v)) = rows.next() {
        let (mut key, mut acc) = (first, empty);
        acc.add(v);
        for (&k, &v) in rows {
            if k != key {
                out_keys.push(key);
                out.push(acc);
                (key, acc) = (k, empty);
            }
            acc.add(v);
        }
        out_keys.push(key);
        out.push(acc);
    }
    drop(keys);
    drop(vals);
    (out_keys, out)
}
