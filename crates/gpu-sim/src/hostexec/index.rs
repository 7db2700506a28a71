//! Key index and the two kernels built on it: equi-join and grouped
//! aggregation.
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
//! Both kernels promise more than a correct answer: an *order*. The join
//! emits pairs ascending by `(outer row, inner row)`; the aggregate folds
//! each group's values strictly in input row order from a `0.0` seed, so
//! its `f64` sums are the same bits whichever internal path ran.

use super::{for_each_owned, piece_range, region_workers, sort_pairs, DEFAULT_MIN_SEQ, PAR_CHUNK};
use crate::hostmem;

/// `2^64 / φ`: multiplying by it spreads consecutive keys evenly over the
/// top bits (Knuth's multiplicative hashing).
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// "No group": an empty table slot, or a probe key the index does not hold.
/// Never a real group: the join asserts that its row counts — an upper
/// bound on its groups — stay below this value (row ids are `u32`
/// throughout the simulator), and the aggregate stops hashing at
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
        let mut group_of_row: Vec<u32> = hostmem::take_scratch(keys.len());
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
        let mut rows: Vec<u32> = hostmem::take_scratch(keys.len());
        for (row, &g) in group_of_row.iter().enumerate() {
            let at = &mut starts[g as usize];
            rows[*at as usize] = row as u32;
            *at += 1;
        }
        starts.rotate_right(1);
        starts[0] = 0;
        hostmem::put_vec(group_of_row);
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
    let mut groups: Vec<u32> = hostmem::take_scratch(outer.len());
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
    let mut left: Vec<u32> = hostmem::take_scratch(total);
    let mut right: Vec<u32> = hostmem::take_scratch(total);
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
    hostmem::put_vec(groups);
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

impl GroupStats {
    fn with_capacity(groups: usize) -> GroupStats {
        GroupStats {
            keys: Vec::with_capacity(groups),
            sums: Vec::with_capacity(groups),
            counts: Vec::with_capacity(groups),
            mins: Vec::with_capacity(groups),
            maxs: Vec::with_capacity(groups),
        }
    }

    fn push(&mut self, key: u32, acc: Acc) {
        self.keys.push(key);
        self.sums.push(acc.sum);
        self.counts.push(acc.count);
        self.mins.push(acc.min);
        self.maxs.push(acc.max);
    }
}

/// One group's running aggregates.
#[derive(Clone, Copy)]
struct Acc {
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Acc {
    const EMPTY: Acc = Acc {
        sum: 0.0,
        count: 0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// The one fold step both aggregation paths share, so a group's values
    /// meet the same operations in the same order on either.
    #[inline]
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// Most groups the hash path of [`group_aggregate`] carries before it
/// hands over to the sort path: table slots (8 B, at least two per group)
/// plus accumulators (32 B) for this many groups are what a core's
/// private cache holds; beyond it every row is a cache miss, and sorting —
/// sequential passes, and parallel — is cheaper.
pub(super) const HASH_GROUPS_MAX: usize = if cfg!(miri) { 1 << 6 } else { 1 << 15 };

/// Grouped SUM / COUNT / MIN / MAX of `vals` by `keys`.
///
/// Each group's values are folded strictly in input row order, so every
/// result — `f64` sums included — is bit-identical whichever path runs and
/// at any thread count. The path is chosen by the data: rows are hashed
/// into per-group accumulators until more distinct keys have shown up than
/// a core's private cache holds accumulators for (`HASH_GROUPS_MAX`), at
/// which point the work so far is dropped and the column is stably sorted
/// by key and reduced segment by segment.
///
/// # Panics
/// If `keys` and `vals` differ in length (callers validate first).
pub fn group_aggregate(keys: &[u32], vals: &[f64]) -> GroupStats {
    assert_eq!(keys.len(), vals.len(), "group_aggregate length mismatch");
    hash_aggregate(keys, vals).unwrap_or_else(|| sort_aggregate(keys, vals))
}

/// One pass over the rows into a hash table of accumulators; `None` once
/// the table would outgrow [`HASH_GROUPS_MAX`] groups.
fn hash_aggregate(keys: &[u32], vals: &[f64]) -> Option<GroupStats> {
    let mut index = KeyIndex::with_capacity(keys.len().min(1024));
    let mut accs: Vec<Acc> = Vec::new();
    for (&k, &v) in keys.iter().zip(vals) {
        let g = index.insert(k) as usize;
        if g == accs.len() {
            if g == HASH_GROUPS_MAX {
                return None;
            }
            accs.push(Acc::EMPTY);
        }
        accs[g].add(v);
    }
    // Order the (unique) group keys with the shared radix sort, carrying
    // the group id instead of moving the wide accumulators per pass.
    let mut sorted_keys = index.keys;
    let mut order: Vec<u32> = (0..sorted_keys.len() as u32).collect();
    sort_pairs(&mut sorted_keys, &mut order);
    let mut out = GroupStats::with_capacity(accs.len());
    for (&k, &g) in sorted_keys.iter().zip(&order) {
        out.push(k, accs[g as usize]);
    }
    Some(out)
}

/// Stable sort by key — equal keys stay in row order — then one fold per
/// run of equal keys.
fn sort_aggregate(keys: &[u32], vals: &[f64]) -> GroupStats {
    let mut keys = hostmem::take_from_slice(keys);
    let mut vals = hostmem::take_from_slice(vals);
    sort_pairs(&mut keys, &mut vals);
    let groups = keys.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!keys.is_empty());
    let mut out = GroupStats::with_capacity(groups);
    let mut rows = keys.iter().zip(&vals);
    if let Some((&first, &v)) = rows.next() {
        let (mut key, mut acc) = (first, Acc::EMPTY);
        acc.add(v);
        for (&k, &v) in rows {
            if k != key {
                out.push(key, acc);
                (key, acc) = (k, Acc::EMPTY);
            }
            acc.add(v);
        }
        out.push(key, acc);
    }
    hostmem::put_vec(keys);
    hostmem::put_vec(vals);
    out
}
