//! Deterministic workload generators for the experiments.
//!
//! All generators are seeded so every benchmark invocation measures the
//! same data — the simulated timings are then reproducible end to end.

use rand::prelude::*;

/// Default seed for experiment workloads.
pub const SEED: u64 = 0x9E3779B97F4A7C15;

/// Uniform random `u32` keys in `[0, bound)`.
pub fn uniform_u32(n: usize, bound: u32, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..bound)).collect()
}

/// Uniform random `f64` values in `[0, 1)`.
pub fn uniform_f64(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen::<f64>()).collect()
}

/// A `u32` column where a `selectivity` fraction of rows is below the
/// returned threshold — used for controlled-selectivity selections.
/// Returns `(column, threshold)` such that `x < threshold` selects
/// ~`selectivity · n` rows.
pub fn selectivity_column(n: usize, selectivity: f64, seed: u64) -> (Vec<u32>, u32) {
    let col = uniform_u32(n, SELECTIVITY_DOMAIN, seed);
    let threshold = (selectivity.clamp(0.0, 1.0) * SELECTIVITY_DOMAIN as f64) as u32;
    (col, threshold)
}

/// Key domain of [`selectivity_column`] (thresholds scale against it).
pub(crate) const SELECTIVITY_DOMAIN: u32 = 1 << 20;

/// Zipf-distributed group keys over `groups` distinct values with skew
/// `theta` (0 = uniform). Each key is the index `rand`'s `WeightedIndex`
/// would draw from the same stream, found through a guide table in O(1)
/// expected time instead of a binary search.
pub fn zipf_keys(n: usize, groups: usize, theta: f64, seed: u64) -> Vec<u32> {
    assert!(groups > 0, "need at least one group");
    let mut rng = StdRng::seed_from_u64(seed);
    if theta <= f64::EPSILON {
        return (0..n).map(|_| rng.gen_range(0..groups as u32)).collect();
    }
    let table = GuideTable::new(groups, |k| 1.0 / ((k + 1) as f64).powf(theta));
    table.draws(&mut rng, n)
}

/// Inverse-CDF sampling over fixed weights with a guide table (Chen &
/// Asau): `[0, total)` is cut into two equal-width buckets per weight, and
/// each bucket remembers the first index a draw landing in it can map to.
/// A draw is one bucket lookup and a look at the few cumulative weights
/// inside that bucket. Indices must fit a `u32`.
///
/// It picks exactly the index `WeightedIndex::sample` picks: the same
/// left-to-right cumulative sums, the same `x = u · total`, the first
/// cumulative weight `> x` clamped to the last index. Only a draw equal to
/// a cumulative weight can make `binary_search_by`'s answer depend on which
/// of several equal entries it lands on (weights under half an ULP of the
/// running total leave equal neighbours). Today's `std` lands on the last,
/// which is the same rule, but its documentation leaves the choice open, so
/// those draws are answered by the same binary search.
struct GuideTable {
    /// The cumulative weights, then [`Self::PROBES`] `+inf` so a draw can
    /// look past the last one without a bounds test.
    cumulative: Vec<f64>,
    /// Index of the last weight.
    last: usize,
    total: f64,
    /// `guide[b]` counts the cumulative weights in buckets before `b`; all
    /// of them lie below any `x` in bucket `b`, so its answer is no lower.
    guide: Vec<u32>,
    /// Buckets per unit of `x`.
    scale: f64,
}

impl GuideTable {
    /// Cumulative weights a draw compares without branching on them. Which
    /// way a data-dependent branch goes is unpredictable, and every
    /// misprediction also throws away the table loads of the draws behind
    /// it; two entries cover almost every bucket of a Zipf table.
    const PROBES: usize = 2;

    /// The table over the `len` weights `weight(0..len)`, which are
    /// computed on host threads (each on its own, so in any order).
    fn new(len: usize, weight: impl Fn(usize) -> f64 + Sync) -> Self {
        let padded = |i| if i < len { weight(i) } else { f64::INFINITY };
        let mut cumulative = gpu_sim::par_map_vec(len + Self::PROBES, padded);
        let mut total = 0.0f64;
        for c in &mut cumulative[..len] {
            assert!(c.is_finite() && *c >= 0.0, "invalid weight {c}");
            total += *c;
            *c = total;
        }
        assert!(total > 0.0, "weights sum to zero");
        let (last, buckets) = (len - 1, 2 * len);
        let mut table = GuideTable {
            cumulative,
            last,
            total,
            guide: Vec::with_capacity(buckets),
            scale: buckets as f64 / total,
        };
        for i in 0..=last {
            let b = table.bucket(table.cumulative[i]);
            if b >= table.guide.len() {
                table.guide.resize(b + 1, i as u32);
            }
        }
        table.guide.resize(buckets, last as u32 + 1);
        table
    }

    /// The bucket of `x`: monotone in `x`, which is all the guide relies on.
    fn bucket(&self, x: f64) -> usize {
        ((x * self.scale) as usize).min(2 * self.last + 1)
    }

    /// The indices of `n` draws from `rng`. A batch of draws goes through
    /// each table in turn — all its bucket lookups, then all its cumulative
    /// weights — so their cache misses overlap instead of queueing.
    fn draws(&self, rng: &mut impl RngCore, n: usize) -> Vec<u32> {
        const BATCH: usize = 256;
        let mut out = Vec::with_capacity(n);
        let (mut xs, mut firsts) = ([0.0; BATCH], [0u32; BATCH]);
        while out.len() < n {
            let batch = (n - out.len()).min(BATCH);
            let (xs, firsts) = (&mut xs[..batch], &mut firsts[..batch]);
            for x in xs.iter_mut() {
                *x = rng.gen::<f64>() * self.total;
            }
            for (first, &x) in firsts.iter_mut().zip(xs.iter()) {
                *first = self.guide[self.bucket(x)];
            }
            let picks = xs.iter().zip(firsts.iter());
            out.extend(picks.map(|(&x, &first)| self.resolve(first as usize, x) as u32));
        }
        out
    }

    /// The index a draw of `x` in `[0, total]` maps to, given the first
    /// candidate of its bucket.
    fn resolve(&self, first: usize, x: f64) -> usize {
        let probed = &self.cumulative[first..first + Self::PROBES];
        let below = probed.iter().filter(|&&c| c <= x).count();
        if below < Self::PROBES && !probed.contains(&x) {
            return (first + below).min(self.last);
        }
        self.scan(first, x)
    }

    /// [`Self::resolve`] of a draw whose bucket holds more than
    /// [`Self::PROBES`] weights at or below it, or equals one.
    #[cold]
    fn scan(&self, mut i: usize, x: f64) -> usize {
        let weights = &self.cumulative[..=self.last];
        while i <= self.last && weights[i] <= x {
            i += 1;
        }
        if i > 0 && weights[i - 1] == x {
            // Finite and never -0.0 here, so `total_cmp` is `partial_cmp`.
            return match weights.binary_search_by(|c| c.total_cmp(&x)) {
                Ok(hit) => (hit + 1).min(self.last),
                Err(at) => at.min(self.last),
            };
        }
        i.min(self.last)
    }
}

/// Foreign-key join inputs: `inner` is the primary-key side
/// (a shuffled permutation of `0..inner_n`), `outer` draws `outer_n`
/// foreign keys uniformly from the key domain — every probe matches
/// exactly once.
pub fn fk_join(outer_n: usize, inner_n: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inner: Vec<u32> = (0..inner_n as u32).collect();
    inner.shuffle(&mut rng);
    let outer: Vec<u32> = (0..outer_n)
        .map(|_| rng.gen_range(0..inner_n as u32))
        .collect();
    (outer, inner)
}

/// Ascending sorted `u32` keys with duplicates (merge-join inputs).
pub fn sorted_keys(n: usize, bound: u32, seed: u64) -> Vec<u32> {
    let mut v = uniform_u32(n, bound, seed);
    gpu_sim::hostexec::sort_keys(&mut v);
    v
}

/// A deterministic pseudo-random permutation of `0..n` (gather/scatter
/// index vectors). The mix uses the global [`SEED`] so the permutation is
/// a pure function of `n`.
pub fn shuffled_indices(n: usize) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..perm.len()).rev() {
        let j = (SEED as usize).wrapping_mul(i).wrapping_add(i >> 3) % (i + 1);
        perm.swap(i, j);
    }
    perm
}

pub mod cache {
    //! Memoizing wrappers over the workload generators.
    //!
    //! The benchmark grid reuses the same synthetic columns across
    //! backends (and sometimes across experiments: E5a/E5b sort the same
    //! keys, E4 rethresholds one column per selectivity). The cache
    //! generates each distinct `(generator, arguments)` input once while
    //! it stays within the retention budget and hands out `Arc`s, so
    //! parallel experiment cells share one copy instead of regenerating
    //! per backend; an input the FIFO has evicted is generated again, with
    //! the same values, when it is next asked for. Values are exactly what
    //! the underlying generator returns — callers observe no difference
    //! beyond the saved work.

    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};

    #[derive(Hash, PartialEq, Eq, Clone)]
    enum Key {
        U32 {
            n: usize,
            bound: u32,
            seed: u64,
        },
        F64 {
            n: usize,
            seed: u64,
        },
        Zipf {
            n: usize,
            groups: usize,
            theta: u64,
            seed: u64,
        },
        FkJoin {
            outer: usize,
            inner: usize,
            seed: u64,
        },
        Perm {
            n: usize,
        },
    }

    #[derive(Clone)]
    enum Entry {
        U32(Arc<Vec<u32>>),
        F64(Arc<Vec<f64>>),
        Pair(Arc<(Vec<u32>, Vec<u32>)>),
    }

    type Slot = Arc<OnceLock<Entry>>;

    struct Store {
        slots: HashMap<Key, Slot>,
        /// Insertion-ordered `(key, bytes)` log for FIFO eviction.
        order: std::collections::VecDeque<(Key, usize)>,
        bytes: usize,
    }

    fn store() -> &'static Mutex<Store> {
        static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
        STORE.get_or_init(|| {
            Mutex::new(Store {
                slots: HashMap::new(),
                order: std::collections::VecDeque::new(),
                bytes: 0,
            })
        })
    }

    /// Retention budget in bytes (128 MiB). Entries are dropped
    /// oldest-first once the total exceeds it; columns still referenced
    /// by callers stay alive through their own `Arc`s, the cache merely
    /// forgets them. Unbounded retention shows up as host page-fault
    /// overhead late in a long run, so the budget keeps roughly one
    /// experiment's working set resident.
    const BUDGET_BYTES: usize = 128 << 20;

    fn slot(key: Key) -> Slot {
        let mut st = store().lock().unwrap();
        st.slots.entry(key).or_default().clone()
    }

    /// Charge a freshly generated entry against the budget, evicting the
    /// oldest entries until the total fits again.
    fn charge(key: Key, bytes: usize) {
        let mut st = store().lock().unwrap();
        st.bytes += bytes;
        st.order.push_back((key, bytes));
        while st.bytes > BUDGET_BYTES && st.order.len() > 1 {
            let (old, sz) = st.order.pop_front().unwrap();
            st.slots.remove(&old);
            st.bytes -= sz;
        }
    }

    // The map lock is held only to fetch the slot; generation runs under
    // the slot's own `OnceLock`, so concurrent requests for *different*
    // inputs generate in parallel while requests for the *same* input
    // block on one generation. Eviction removes the map's reference
    // only — an evicted column stays valid for every caller already
    // holding it, and a later request for the same key regenerates the
    // identical data.

    fn get_u32(key: Key, bytes: usize, gen: impl FnOnce() -> Vec<u32>) -> Arc<Vec<u32>> {
        let s = slot(key.clone());
        let mut fresh = false;
        let out = match s.get_or_init(|| {
            fresh = true;
            Entry::U32(Arc::new(gen()))
        }) {
            Entry::U32(v) => v.clone(),
            _ => unreachable!(),
        };
        if fresh {
            charge(key, bytes);
        }
        out
    }

    /// Cached [`uniform_u32`](super::uniform_u32).
    pub fn uniform_u32(n: usize, bound: u32, seed: u64) -> Arc<Vec<u32>> {
        let key = Key::U32 { n, bound, seed };
        get_u32(key, n * 4, || super::uniform_u32(n, bound, seed))
    }

    /// Cached [`uniform_f64`](super::uniform_f64).
    pub fn uniform_f64(n: usize, seed: u64) -> Arc<Vec<f64>> {
        let key = Key::F64 { n, seed };
        let s = slot(key.clone());
        let mut fresh = false;
        let out = match s.get_or_init(|| {
            fresh = true;
            Entry::F64(Arc::new(super::uniform_f64(n, seed)))
        }) {
            Entry::F64(v) => v.clone(),
            _ => unreachable!(),
        };
        if fresh {
            charge(key, n * 8);
        }
        out
    }

    /// Cached [`zipf_keys`](super::zipf_keys).
    pub fn zipf_keys(n: usize, groups: usize, theta: f64, seed: u64) -> Arc<Vec<u32>> {
        let key = Key::Zipf {
            n,
            groups,
            theta: theta.to_bits(),
            seed,
        };
        get_u32(key, n * 4, || super::zipf_keys(n, groups, theta, seed))
    }

    /// Cached [`selectivity_column`](super::selectivity_column). The
    /// column depends only on `(n, seed)`, so every selectivity of a
    /// sweep shares one generation; the threshold is recomputed.
    pub fn selectivity_column(n: usize, selectivity: f64, seed: u64) -> (Arc<Vec<u32>>, u32) {
        let col = uniform_u32(n, super::SELECTIVITY_DOMAIN, seed);
        let threshold = (selectivity.clamp(0.0, 1.0) * super::SELECTIVITY_DOMAIN as f64) as u32;
        (col, threshold)
    }

    /// Cached [`fk_join`](super::fk_join) — `(outer, inner)`.
    pub fn fk_join(outer_n: usize, inner_n: usize, seed: u64) -> Arc<(Vec<u32>, Vec<u32>)> {
        let key = Key::FkJoin {
            outer: outer_n,
            inner: inner_n,
            seed,
        };
        let s = slot(key.clone());
        let mut fresh = false;
        let out = match s.get_or_init(|| {
            fresh = true;
            Entry::Pair(Arc::new(super::fk_join(outer_n, inner_n, seed)))
        }) {
            Entry::Pair(v) => v.clone(),
            _ => unreachable!(),
        };
        if fresh {
            charge(key, (outer_n + inner_n) * 4);
        }
        out
    }

    /// Cached [`shuffled_indices`](super::shuffled_indices).
    pub fn shuffled_indices(n: usize) -> Arc<Vec<u32>> {
        let key = Key::Perm { n };
        get_u32(key, n * 4, || super::shuffled_indices(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform_u32(100, 50, 7), uniform_u32(100, 50, 7));
        assert_ne!(uniform_u32(100, 50, 7), uniform_u32(100, 50, 8));
        assert_eq!(uniform_f64(10, 3), uniform_f64(10, 3));
        assert_eq!(zipf_keys(50, 8, 0.9, 1), zipf_keys(50, 8, 0.9, 1));
    }

    #[test]
    fn selectivity_column_hits_the_target_fraction() {
        for sel in [0.01, 0.25, 0.5, 0.9] {
            let (col, thr) = selectivity_column(100_000, sel, SEED);
            let hit = col.iter().filter(|&&x| x < thr).count() as f64 / col.len() as f64;
            assert!((hit - sel).abs() < 0.02, "target {sel}, got {hit}");
        }
    }

    #[test]
    fn zipf_skews_toward_low_keys() {
        let keys = zipf_keys(100_000, 100, 1.2, SEED);
        let zero = keys.iter().filter(|&&k| k == 0).count();
        let tail = keys.iter().filter(|&&k| k == 99).count();
        assert!(zero > 10 * tail.max(1), "zipf head {zero} vs tail {tail}");
        assert!(keys.iter().all(|&k| k < 100));
        let uniform = zipf_keys(10_000, 10, 0.0, SEED);
        assert!(uniform.iter().all(|&k| k < 10));
    }

    fn zipf_weights(groups: usize, theta: f64) -> Vec<f64> {
        (1..=groups).map(|k| 1.0 / (k as f64).powf(theta)).collect()
    }

    /// The keys `rand`'s `WeightedIndex` draws over the same weights and
    /// stream: what `zipf_keys` returned before the guide table.
    fn zipf_reference(n: usize, groups: usize, theta: f64, seed: u64) -> Vec<u32> {
        let dist = WeightedIndex::new(zipf_weights(groups, theta)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| dist.sample(&mut rng) as u32).collect()
    }

    #[test]
    fn zipf_keys_draw_what_weighted_index_draws() {
        for groups in [1, 2, 3, 16, 64, 4_096, 65_536, 1 << 20] {
            // Not a whole number of batches.
            let n = (16 * groups).clamp(1 << 10, 1 << 16) - 1;
            for theta in [0.5, 0.9, 1.2, 3.0] {
                for seed in [SEED, 1, 2] {
                    let got = zipf_keys(n, groups, theta, seed);
                    let want = zipf_reference(n, groups, theta, seed);
                    assert!(got == want, "{groups} groups, theta {theta}, seed {seed}");
                }
            }
        }
        let n = 1 << 20;
        assert!(zipf_keys(n, n, 0.5, SEED) == zipf_reference(n, n, 0.5, SEED));
        assert!(zipf_keys(0, 16, 0.9, SEED).is_empty());
    }

    /// Weights under half an ULP of the running total add nothing, leaving
    /// a tail of equal cumulative sums.
    #[test]
    fn stalled_tables_draw_what_weighted_index_draws() {
        for (groups, theta) in [(100_000, 4.0), (1 << 20, 3.0)] {
            let weights = zipf_weights(groups, theta);
            let table = GuideTable::new(groups, |k| weights[k]);
            let cumulative = &table.cumulative[..=table.last];
            assert!(cumulative.windows(2).any(|w| w[0] == w[1]));
            let got = zipf_keys(1 << 16, groups, theta, SEED);
            assert!(
                got == zipf_reference(1 << 16, groups, theta, SEED),
                "{groups}, {theta}"
            );
        }
    }

    /// Every cumulative weight of a Zipf table and its two neighbouring
    /// doubles maps to the first cumulative weight above it — where that
    /// answer is unique, i.e. the draw does not equal two entries.
    #[test]
    fn draws_at_and_beside_every_cumulative_weight_map_to_the_first_above() {
        for (groups, theta) in [(3, 1.2), (64, 0.5), (4_096, 0.9), (100_000, 4.0)] {
            let weights = zipf_weights(groups, theta);
            let table = GuideTable::new(groups, |k| weights[k]);
            let c = &table.cumulative[..=table.last];
            let mut distinct = c.to_vec();
            distinct.dedup();
            for at in distinct {
                for x in [at.next_down(), at, at.next_up()] {
                    let above = c.partition_point(|&v| v <= x);
                    if above - c.partition_point(|&v| v < x) > 1 {
                        continue;
                    }
                    let got = table.resolve(table.guide[table.bucket(x)] as usize, x);
                    assert_eq!(got, above.min(groups - 1), "{groups}, {theta}, x {x}");
                }
            }
        }
    }

    /// Replays fixed raw words, so a draw can be steered onto a cumulative
    /// weight exactly.
    struct Replay(u64);

    impl RngCore for Replay {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// Dyadic weights summing to 8 make every multiple of 1/64 a draw
    /// (`word >> 11` is the draw's 53-bit mantissa), and zero weights leave
    /// runs of equal cumulative sums for those draws to hit — the ties where
    /// `binary_search_by` may land on any of the run.
    #[test]
    fn exact_ties_pick_what_weighted_index_picks() {
        let tables: [&[f64]; 4] = [
            &[1.0, 1.0, 0.0, 0.0, 2.0, 0.0, 4.0, 0.0, 0.0],
            &[0.0, 0.0, 4.0, 0.0, 4.0],
            &[2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 6.0],
            &[8.0],
        ];
        for weights in tables {
            let reference = WeightedIndex::new(weights).unwrap();
            let table = GuideTable::new(weights.len(), |k| weights[k]);
            for step in 0..64u64 {
                let word = step << 58;
                let want = reference.sample(&mut Replay(word)) as u32;
                assert_eq!(
                    table.draws(&mut Replay(word), 1),
                    [want],
                    "{weights:?} at {step}/64"
                );
            }
        }
    }

    #[test]
    fn fk_join_every_probe_matches_once() {
        let (outer, inner) = fk_join(1_000, 500, SEED);
        let mut sorted = inner.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..500).collect::<Vec<u32>>(),
            "inner is a permutation"
        );
        assert!(outer.iter().all(|&k| k < 500));
    }

    #[test]
    fn sorted_keys_are_sorted() {
        let v = sorted_keys(1_000, 100, SEED);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn shuffled_indices_is_a_permutation() {
        let p = shuffled_indices(1_000);
        let mut s = p.clone();
        s.sort_unstable();
        assert_eq!(s, (0..1_000).collect::<Vec<u32>>());
        assert_ne!(p, s, "actually shuffled");
    }

    #[test]
    fn cache_returns_generator_values_and_shares_storage() {
        assert_eq!(*cache::uniform_u32(500, 64, 9), uniform_u32(500, 64, 9));
        assert_eq!(*cache::uniform_f64(500, 9), uniform_f64(500, 9));
        assert_eq!(*cache::zipf_keys(500, 8, 0.5, 9), zipf_keys(500, 8, 0.5, 9));
        assert_eq!(*cache::fk_join(300, 200, 9), fk_join(300, 200, 9));
        assert_eq!(*cache::shuffled_indices(500), shuffled_indices(500));
        // Repeated requests share one allocation.
        assert!(Arc::ptr_eq(
            &cache::uniform_u32(500, 64, 9),
            &cache::uniform_u32(500, 64, 9)
        ));
        // Every selectivity of a sweep shares the same column.
        let (c1, t1) = cache::selectivity_column(500, 0.1, SEED);
        let (c2, t2) = cache::selectivity_column(500, 0.9, SEED);
        assert!(Arc::ptr_eq(&c1, &c2));
        assert!(t1 < t2);
        let (plain, thr) = selectivity_column(500, 0.1, SEED);
        assert_eq!((&*c1, t1), (&plain, thr));
    }

    use rand::distributions::WeightedIndex;
    use std::sync::Arc;
}
