//! Deterministic workload generators for the experiments.
//!
//! All generators are seeded so every benchmark invocation measures the
//! same data — the simulated timings are then reproducible end to end.

use rand::distributions::Distribution;
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
/// `theta` (0 = uniform). Implemented with a cumulative table — fine for
/// the group counts the experiments use.
pub fn zipf_keys(n: usize, groups: usize, theta: f64, seed: u64) -> Vec<u32> {
    assert!(groups > 0, "need at least one group");
    let mut rng = StdRng::seed_from_u64(seed);
    if theta <= f64::EPSILON {
        return (0..n).map(|_| rng.gen_range(0..groups as u32)).collect();
    }
    let weights: Vec<f64> = (1..=groups).map(|k| 1.0 / (k as f64).powf(theta)).collect();
    let dist = rand::distributions::WeightedIndex::new(&weights).expect("valid weights");
    (0..n).map(|_| dist.sample(&mut rng) as u32).collect()
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
    v.sort_unstable();
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
    //! generates each distinct `(generator, arguments)` input once per
    //! process and hands out `Arc`s, so parallel experiment cells share
    //! one copy instead of regenerating per backend. Values are exactly
    //! what the underlying generator returns — callers observe no
    //! difference beyond the saved work.

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

    /// Retention budget in bytes. Entries are dropped oldest-first once
    /// the total exceeds it; columns still referenced by callers stay
    /// alive through their own `Arc`s, the cache merely forgets them.
    /// Unbounded retention shows up as host page-fault overhead late in
    /// a long run, so the default keeps roughly one experiment's working
    /// set resident. Override with `GPU_SIM_CACHE_BUDGET_MB`: whole
    /// mebibytes, surrounding whitespace ignored, 0 = keep everything; a
    /// value that is not a non-negative integer falls back to the default
    /// 128, like an unset variable.
    fn budget_bytes() -> usize {
        static BUDGET: OnceLock<usize> = OnceLock::new();
        *BUDGET
            .get_or_init(|| parse_budget(std::env::var("GPU_SIM_CACHE_BUDGET_MB").ok().as_deref()))
    }

    /// [`budget_bytes`] of the variable's raw value.
    pub(super) fn parse_budget(raw: Option<&str>) -> usize {
        match raw.and_then(|v| v.trim().parse::<usize>().ok()) {
            Some(0) => usize::MAX,
            Some(mb) => mb << 20,
            None => 128 << 20,
        }
    }

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
        while st.bytes > budget_bytes() && st.order.len() > 1 {
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

    #[test]
    fn cache_budget_override_ignores_whitespace_and_falls_back_on_garbage() {
        assert_eq!(cache::parse_budget(Some("64")), 64 << 20);
        assert_eq!(cache::parse_budget(Some(" 64\n")), 64 << 20);
        assert_eq!(cache::parse_budget(Some("0")), usize::MAX);
        for fallback in [None, Some(""), Some("lots"), Some("-1")] {
            assert_eq!(cache::parse_budget(fallback), 128 << 20);
        }
    }

    use std::sync::Arc;
}
