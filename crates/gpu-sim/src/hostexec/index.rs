//! Key index and the kernels built on it: equi-join and grouped
//! aggregation (all statistics, or the sum alone).
//!
//! [`KeyIndex`] maps `u32` keys to dense group ids handed out in first-seen
//! order. It is an open-addressing table of `(key, group)` slots — one
//! cache line answers a probe — with Fibonacci hashing (the top bits of
//! `key · 2^64/φ`), linear probing and a load factor of at most one half,
//! and it keeps the keys in group order beside the table. [`RowLists`] adds,
//! per group, the rows that carry its key, in compressed-sparse-row form:
//! `rows[starts[g]..starts[g + 1]]`, filled by one forward walk over the
//! input, so every list is ascending.
//!
//! The kernels promise more than a correct answer: an *order*. The join
//! emits pairs ascending by `(outer row, inner row)`; the aggregates fold
//! each group's values strictly in input row order from a stated seed, so
//! their `f64` sums are the same bits whichever internal path ran.

use super::{for_each_owned, piece_range, region_workers, sort_pairs, DEFAULT_MIN_SEQ, PAR_CHUNK};

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

/// Per group, the rows carrying its key, ascending (CSR layout).
struct RowLists {
    /// `groups + 1` offsets into `rows`.
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl RowLists {
    /// Index `keys` and list each group's rows.
    fn build(keys: &[u32]) -> (KeyIndex, RowLists) {
        assert!(keys.len() < NONE as usize, "more rows than u32 row ids");
        let mut index = KeyIndex::with_capacity(keys.len());
        let mut group_of_row: Vec<u32> = vec![0; keys.len()];
        let mut starts: Vec<u32> = vec![0];
        for (g, &k) in group_of_row.iter_mut().zip(keys) {
            *g = index.insert(k);
            if *g as usize + 1 == starts.len() {
                starts.push(0);
            }
            starts[*g as usize + 1] += 1;
        }
        // The counts sit one slot up, so a running sum turns slot `g` into
        // group `g`'s start offset.
        for g in 1..starts.len() {
            starts[g] += starts[g - 1];
        }
        // The fill uses slot `g` as group `g`'s cursor and leaves it at the
        // group's end — the next group's start; one rotation puts every
        // offset back in its own slot.
        let mut rows: Vec<u32> = vec![0; keys.len()];
        for (row, &g) in group_of_row.iter().enumerate() {
            let at = &mut starts[g as usize];
            rows[*at as usize] = row as u32;
            *at += 1;
        }
        starts.rotate_right(1);
        starts[0] = 0;
        drop(group_of_row);
        (index, RowLists { starts, rows })
    }

    /// The rows of `group`; none for [`NONE`].
    #[inline]
    fn rows_of(&self, group: u32) -> &[u32] {
        if group == NONE {
            return &[];
        }
        let g = group as usize;
        &self.rows[self.starts[g] as usize..self.starts[g + 1] as usize]
    }
}

/// Equi-join of two key columns: every `(outer row, inner row)` with equal
/// keys, ascending by outer row and, for one outer row, by inner row — the
/// order a nested-loops join emits.
///
/// The inner side is indexed once; the outer side is probed in
/// [`PAR_CHUNK`] chunks across host threads, first counting each chunk's
/// matches so the outputs can be sized exactly and cut into one window per
/// chunk, then filling the windows. Chunk boundaries and window order
/// depend only on the input, so the result is the same at any thread count.
pub fn equi_join(outer: &[u32], inner: &[u32]) -> (Vec<u32>, Vec<u32>) {
    if outer.is_empty() || inner.is_empty() {
        return (Vec::new(), Vec::new());
    }
    assert!(outer.len() < NONE as usize, "more rows than u32 row ids");
    let (index, lists) = RowLists::build(inner);
    let n_chunks = outer.len().div_ceil(PAR_CHUNK);
    let workers = region_workers(outer.len(), DEFAULT_MIN_SEQ, n_chunks);

    // Probe: each outer row's group, and each chunk's number of matches.
    let mut groups: Vec<u32> = vec![0; outer.len()];
    let mut matches = vec![0usize; n_chunks];
    let probes = groups.chunks_mut(PAR_CHUNK).zip(&mut matches).collect();
    for_each_owned(
        probes,
        workers,
        |ci, (groups, matches): (&mut [u32], &mut usize)| {
            let keys = &outer[piece_range(ci, PAR_CHUNK, outer.len())];
            for (g, &k) in groups.iter_mut().zip(keys) {
                *g = index.group_of(k);
                *matches += lists.rows_of(*g).len();
            }
        },
    );

    // Fill: one exactly-sized output window per chunk, in chunk order.
    let total = matches.iter().sum();
    let mut left: Vec<u32> = vec![0; total];
    let mut right: Vec<u32> = vec![0; total];
    let mut windows = Vec::with_capacity(n_chunks);
    let (mut rest_l, mut rest_r) = (&mut left[..], &mut right[..]);
    for &m in &matches {
        let (l, tail_l) = rest_l.split_at_mut(m);
        let (r, tail_r) = rest_r.split_at_mut(m);
        windows.push((l, r));
        (rest_l, rest_r) = (tail_l, tail_r);
    }
    for_each_owned(windows, workers, |ci, (l, r)| {
        let rows = piece_range(ci, PAR_CHUNK, outer.len());
        let mut at = 0;
        for (row, &g) in rows.clone().zip(&groups[rows]) {
            for &inner_row in lists.rows_of(g) {
                l[at] = row as u32;
                r[at] = inner_row;
                at += 1;
            }
        }
    });
    drop(groups);
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

/// Accumulator bytes the direct-index path of [`fold_groups`] may spend
/// per input row (with a floor of [`DIRECT_MIN_ROWS`] rows): the table is
/// indexed by `key - min`, so a key range this dense costs less memory
/// than the sorted copies of the sort path, while a sparse one (row ids of
/// a filtered join, `0` next to `u32::MAX`) is declined.
const DIRECT_BYTES_PER_ROW: usize = 16;

/// Row count below which the direct-index budget stops shrinking, so a
/// handful of rows over a handful of keys still index directly.
const DIRECT_MIN_ROWS: usize = if cfg!(miri) { 1 << 4 } else { 1 << 10 };

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
    let (min, max) = keys
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    let range = u64::from(max - min) + 1;
    let budget = keys.len().max(DIRECT_MIN_ROWS) * DIRECT_BYTES_PER_ROW;
    if range <= (budget / std::mem::size_of::<A>()) as u64 {
        return direct_fold(keys, vals, min, range as usize, empty);
    }
    hash_fold(keys, vals, empty).unwrap_or_else(|| sort_fold(keys, vals, empty))
}

/// One pass over the rows into a table indexed by `key - min`.
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
