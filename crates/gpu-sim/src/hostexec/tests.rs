//! The sort, the key index, the chunk helpers and the expression engine
//! against naive references,
//! on adversarial inputs, at 1, 2, 3 and 8 host threads. (The pool's own
//! tests live in `pool`.) Sizes are written in terms of the module's
//! thresholds, which shrink under Miri, so the interpreted run reaches the
//! same parallel paths on far fewer rows.

use super::expr::{self, BinaryOp, Cast, Instr, Leaf, Program, UnaryOp, WINDOW};
use super::index::{dense_range, DIRECT_BYTES_PER_ROW, DIRECT_MIN_ROWS, HASH_GROUPS_MAX};
use super::radix::{CACHE_BYTES, MIN_BLOCK, RADIX_CUTOFF};
use super::*;
use crate::SimError;
use proptest::prelude::*;
use rand::prelude::*;
use std::collections::BTreeMap;

/// Serialises the tests that set `GPU_SIM_HOST_THREADS`: the variable is
/// process-wide and `cargo test` runs tests on parallel threads.
static THREADS: Mutex<()> = Mutex::new(());

/// Run `f(threads)` with `GPU_SIM_HOST_THREADS` set to 1, 2, 3 and 8.
fn at_each_thread_count(mut f: impl FnMut(usize)) {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 2, 3, 8] {
        std::env::set_var("GPU_SIM_HOST_THREADS", threads.to_string());
        f(threads);
    }
    std::env::remove_var("GPU_SIM_HOST_THREADS");
}

/// Most rows of a `u32` key and a `u32` payload the sort takes without
/// partitioning them first; twice as many when there is no payload.
const CACHE_PAIRS: usize = CACHE_BYTES / 8;

/// Lengths on both sides of every threshold a kernel switches path at:
/// comparison sort → radix sort, one chunk → several, one sort block →
/// several, and block counts that do not divide the length.
fn boundary_lengths() -> Vec<usize> {
    let mut lens = vec![0, 1, 2];
    for edge in [RADIX_CUTOFF, PAR_CHUNK, 2 * MIN_BLOCK, 3 * MIN_BLOCK] {
        lens.extend([edge - 1, edge, edge + 1]);
    }
    lens.extend([2 * PAR_CHUNK + 1, 5 * MIN_BLOCK + 17]);
    lens.sort_unstable();
    lens.dedup();
    lens
}

/// Keys whose top byte `b` occurs `SIZES[b]` times, and the bytes above
/// `SIZES` as chance has it, in random order over random low bits: a
/// partition on the top byte meets buckets of exactly these sizes.
fn sized_buckets(n: usize, rng: &mut StdRng) -> Vec<u32> {
    const SIZES: [usize; 5] = [0, 1, RADIX_CUTOFF - 1, RADIX_CUTOFF, RADIX_CUTOFF + 1];
    let mut keys: Vec<u32> = SIZES
        .iter()
        .enumerate()
        .flat_map(|(top, &size)| std::iter::repeat_n(top as u32, size))
        .chain(std::iter::repeat_with(|| SIZES.len() as u32 + rng.gen::<u32>() % 251).take(n))
        .take(n)
        .collect();
    keys.iter_mut()
        .for_each(|k| *k = *k << 24 | rng.gen::<u32>() >> 8);
    keys.shuffle(rng);
    keys
}

/// The one shape of [`key_shapes`] that has, once it is long enough, both
/// many rows to a key and more keys than [`HASH_GROUPS_MAX`].
const ZIPF: &str = "zipf";

/// Key columns of length `n` that stress one property each.
fn key_shapes(n: usize, seed: u64) -> Vec<(&'static str, Vec<u32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut distinct: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B1)).collect();
    distinct.shuffle(&mut rng);
    let mut shapes = vec![
        ("all equal", vec![7; n]),
        ("all distinct", distinct),
        ("extremes", (0..n).map(|i| [0, u32::MAX][i % 2]).collect()),
        ("ascending", (0..n as u32).collect()),
        ("descending", (0..n as u32).rev().collect()),
        ("few groups", (0..n).map(|_| rng.gen::<u32>() % 5).collect()),
        (
            "one byte varies",
            (0..n).map(|_| (rng.gen::<u32>() % 256) << 16).collect(),
        ),
        ("uniform", (0..n).map(|_| rng.gen()).collect()),
    ];
    let mut dense: Vec<u32> = (0..n as u32).collect();
    dense.shuffle(&mut rng);
    shapes.extend([
        // Skew: a bucket of the first partition that has to be partitioned
        // again, beside three one-row buckets.
        (
            "all but three rows under one top byte",
            (0..n)
                .map(|i| match i {
                    0 => 0,
                    1 => 0xAA00_0000 | rng.gen::<u32>() >> 8,
                    2 => u32::MAX,
                    _ => 0x5500_0000 | rng.gen::<u32>() >> 8,
                })
                .collect(),
        ),
        // Rank `r` about `n / r` times, the ranks spread over all the bits.
        (
            ZIPF,
            (0..n)
                .map(|_| ((n as f64).powf(rng.gen()) as u32).wrapping_mul(0x9E37_79B1))
                .collect(),
        ),
        ("sized buckets", sized_buckets(n, &mut rng)),
        (
            "top byte varies",
            (0..n)
                .map(|_| rng.gen::<u32>() << 24 | 0x00C0_FFEE)
                .collect(),
        ),
        (
            "low byte varies",
            (0..n)
                .map(|_| rng.gen::<u32>() >> 24 | 0xC0FF_EE00)
                .collect(),
        ),
        (
            "two values 2^31 apart",
            (0..n).map(|_| 5 + (rng.gen::<u32>() >> 31 << 31)).collect(),
        ),
        // Varying bits that do not end on a digit boundary.
        ("shuffled 0..n", dense),
    ]);
    shapes
}

/// Values with every IEEE special mixed in.
fn special_values(n: usize, seed: u64) -> Vec<f64> {
    const SPECIALS: [f64; 8] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MAX,
        f64::MIN_POSITIVE,
        -1.5,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| match rng.gen::<u32>() % 4 {
            0 => SPECIALS[rng.gen::<usize>() % SPECIALS.len()],
            _ => (rng.gen::<f64>() - 0.5) * 1e6,
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// host_threads and the chunk helpers
// ---------------------------------------------------------------------------

#[test]
fn host_threads_falls_back_to_available_parallelism_on_invalid_values() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (value, want) in [
        ("5", 5),
        (" 3 ", 3),
        ("0", cores),
        ("", cores),
        ("-2", cores),
        ("many", cores),
    ] {
        std::env::set_var("GPU_SIM_HOST_THREADS", value);
        assert_eq!(host_threads(), want, "GPU_SIM_HOST_THREADS={value:?}");
    }
    std::env::remove_var("GPU_SIM_HOST_THREADS");
    assert_eq!(host_threads(), cores, "unset");
}

#[test]
fn par_map_into_is_identical_at_any_thread_count() {
    // Chunk boundaries are fixed, and each element depends only on its own
    // index.
    let n = 3 * PAR_CHUNK + 1234;
    let reference: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
    at_each_thread_count(|threads| {
        let mut out = vec![0u64; n];
        par_map_into(&mut out, 16, |i| i as u64 * 3 + 1);
        assert_eq!(out, reference, "threads={threads}");
    });
}

#[test]
fn par_chunks_boundaries_are_fixed_multiples() {
    at_each_thread_count(|threads| {
        let seen = Mutex::new(Vec::new());
        par_chunks(PAR_CHUNK * 3 + 17, 0, |r| {
            seen.lock().unwrap().push((r.start, r.end));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let want = if threads == 1 {
            vec![(0, 3 * PAR_CHUNK + 17)] // one worker: one inline call
        } else {
            vec![
                (0, PAR_CHUNK),
                (PAR_CHUNK, 2 * PAR_CHUNK),
                (2 * PAR_CHUNK, 3 * PAR_CHUNK),
                (3 * PAR_CHUNK, 3 * PAR_CHUNK + 17),
            ]
        };
        assert_eq!(seen, want, "threads={threads}");
    });
}

#[test]
fn par_map_chunks_returns_results_in_chunk_order() {
    at_each_thread_count(|threads| {
        for len in [0, 1, PAR_CHUNK, 4 * PAR_CHUNK + 1] {
            let got = par_map_chunks(len, 0, |r| (r.start, r.end));
            let want: Vec<(usize, usize)> = (0..len.div_ceil(PAR_CHUNK).max(1))
                .map(|ci| (ci * PAR_CHUNK, ((ci + 1) * PAR_CHUNK).min(len)))
                .collect();
            assert_eq!(got, want, "threads={threads} len={len}");
        }
    });
}

#[test]
fn gather_indexes_the_source_and_names_the_first_bad_index() {
    let src: Vec<u64> = (0..1000).map(|i| i * 7).collect();
    let bad_index = |index| SimError::IndexOutOfBounds { index, len: 1000 };
    for n in [
        1,
        PAR_CHUNK - 1,
        PAR_CHUNK,
        PAR_CHUNK + 1,
        3 * PAR_CHUNK + 5,
    ] {
        let idx: Vec<u32> = (0..n).map(|i| (i * 31 % src.len()) as u32).collect();
        let want: Vec<u64> = idx.iter().map(|&i| src[i as usize]).collect();
        // Two indices out of range, chunks apart when there are several:
        // the earlier is the error, whichever a thread reaches first.
        let mut bad = idx.clone();
        bad[n - 1] = 3000;
        bad[n / 3] = 2000;
        at_each_thread_count(|threads| {
            assert!(
                gather(&src, &idx) == Ok(want.clone()),
                "n={n} threads={threads}"
            );
            assert_eq!(
                gather(&src, &bad),
                Err(bad_index(2000)),
                "n={n} threads={threads}"
            );
        });
    }
    // No index is out of no range; any index is out of an empty one.
    assert_eq!(gather(&src, &[]), Ok(vec![]));
    assert_eq!(gather::<u64>(&[], &[]), Ok(vec![]));
    let nothing = SimError::IndexOutOfBounds { index: 4, len: 0 };
    assert_eq!(gather::<u64>(&[], &[4, 0]), Err(nothing));
}

// ---------------------------------------------------------------------------
// Radix sort
// ---------------------------------------------------------------------------

/// `std`'s stable sort on `radix_bits`, the definition of the right answer.
fn reference_sort_pairs<K: RadixKey, V: Copy>(keys: &[K], vals: &[V]) -> (Vec<K>, Vec<V>) {
    let mut perm: Vec<usize> = (0..keys.len()).collect();
    perm.sort_by_key(|&i| keys[i].radix_bits());
    (
        perm.iter().map(|&i| keys[i]).collect(),
        perm.iter().map(|&i| vals[i]).collect(),
    )
}

#[test]
fn sorts_match_the_stable_reference_on_every_shape_and_boundary() {
    // The sort's own thresholds: the most rows it takes without partitioning
    // them first, with a payload and without, and past both a length that
    // gives every thread count its full set of blocks.
    let mut lens = boundary_lengths();
    lens.extend([CACHE_PAIRS, CACHE_PAIRS + 1]);
    lens.extend([2 * CACHE_PAIRS, 2 * CACHE_PAIRS + 1, 16 * MIN_BLOCK + 1]);
    for n in lens {
        for (shape, keys) in key_shapes(n, n as u64) {
            // The payload is the input position, so it witnesses stability.
            let vals: Vec<u32> = (0..n as u32).collect();
            let (want_k, want_v) = reference_sort_pairs(&keys, &vals);
            at_each_thread_count(|threads| {
                let (mut k, mut v) = (keys.clone(), vals.clone());
                sort_pairs(&mut k, &mut v);
                assert!(k == want_k, "pairs keys: {shape} n={n} threads={threads}");
                assert!(v == want_v, "pairs vals: {shape} n={n} threads={threads}");
                let mut k = keys.clone();
                sort_keys(&mut k);
                assert!(k == want_k, "keys: {shape} n={n} threads={threads}");
            });
        }
    }
}

#[test]
fn sorts_handle_every_key_type() {
    // Long enough for an 8-byte key and its payload to be partitioned, and
    // — magnitudes are log-uniform, so seven rows in eight share the top
    // byte, and six in seven of those the next — for the fullest bucket to
    // be partitioned again, twice.
    let n = CACHE_PAIRS + 3;
    let mut rng = StdRng::seed_from_u64(7);
    let mut raw: Vec<u64> = (0..n)
        .map(|_| rng.gen::<u64>() >> (rng.gen::<u32>() % 64))
        .collect();
    // As `u64` and, below, as `i64`: both ends of either type, and zero.
    raw[..4].copy_from_slice(&[0, u64::MAX, 1 << 63, (1 << 63) - 1]);
    let idx: Vec<u32> = (0..n as u32).collect();
    fn check<K: RadixKey + PartialEq + std::fmt::Debug>(keys: Vec<K>, idx: &[u32]) {
        let (want_k, want_v) = reference_sort_pairs(&keys, idx);
        at_each_thread_count(|threads| {
            let (mut k, mut v) = (keys.clone(), idx.to_vec());
            sort_pairs(&mut k, &mut v);
            assert!(k == want_k && v == want_v, "{threads} threads");
        });
    }
    check::<u8>(raw.iter().map(|&x| x as u8).collect(), &idx);
    check::<u16>(raw.iter().map(|&x| x as u16).collect(), &idx);
    check::<u64>(raw.clone(), &idx);
    check::<i32>(raw.iter().map(|&x| x as i32).collect(), &idx);
    check::<i64>(
        raw.iter().map(|&x| (x as i64).wrapping_neg()).collect(),
        &idx,
    );
    check::<i64>(raw.iter().map(|&x| x as i64).collect(), &idx);
    // f64 keys: the order is IEEE total order, so compare bit patterns
    // (NaN != NaN would fail a value comparison of equal outputs). Three
    // rows in eight are finite and at least 2.0: one top byte, and at this
    // length one bucket to partition again.
    let n = 3 * CACHE_PAIRS + 3;
    let idx: Vec<u32> = (0..n as u32).collect();
    let floats = special_values(n, 11);
    let (want_k, want_v) = reference_sort_pairs(&floats, &idx);
    at_each_thread_count(|threads| {
        let (mut k, mut v) = (floats.clone(), idx.clone());
        sort_pairs(&mut k, &mut v);
        assert!(
            bits(&k) == bits(&want_k) && v == want_v,
            "{threads} threads"
        );
    });
    let ordered: Vec<f64> = want_k.iter().copied().filter(|x| !x.is_nan()).collect();
    assert!(
        ordered.windows(2).all(|w| w[0] <= w[1]),
        "matches partial_cmp"
    );
}

#[test]
fn sort_pairs_carries_wide_payloads() {
    // 24-byte rows: partitioned on the top of 40 varying bits, then sorted
    // bucket by bucket; a hundred rows share each key.
    let n = CACHE_PAIRS / 2 + 9;
    let keys: Vec<u64> = (0..n as u64)
        .map(|i| (i / 100).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24)
        .collect();
    let vals: Vec<(f64, u8)> = (0..n).map(|i| (i as f64, i as u8)).collect();
    let (want_k, want_v) = reference_sort_pairs(&keys, &vals);
    at_each_thread_count(|_| {
        let (mut k, mut v) = (keys.clone(), vals.clone());
        sort_pairs(&mut k, &mut v);
        assert!(k == want_k && v == want_v);
    });
}

// ---------------------------------------------------------------------------
// Equi-join
// ---------------------------------------------------------------------------

/// The nested loops themselves.
fn reference_join(outer: &[u32], inner: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let (mut l, mut r) = (Vec::new(), Vec::new());
    for (o, ok) in outer.iter().enumerate() {
        for (i, ik) in inner.iter().enumerate() {
            if ok == ik {
                l.push(o as u32);
                r.push(i as u32);
            }
        }
    }
    (l, r)
}

#[test]
fn join_emits_nested_loop_order_on_small_adversarial_inputs() {
    let cases: [(&[u32], &[u32]); 9] = [
        (&[], &[]),
        (&[], &[1]),
        (&[1], &[]),
        (&[1], &[1]),
        (&[5, 3, 5], &[5, 5, 3]),                  // duplicate build keys
        (&[7, 7], &[7, 7]),                        // all match
        (&[1, 2, 3], &[4, 5, 6]),                  // zero match
        (&[0, u32::MAX, 0], &[u32::MAX, 0, 1, 0]), // extremes
        (&[9; 40], &[9; 30]),                      // all equal: cross product
    ];
    for (outer, inner) in cases {
        assert_eq!(equi_join(outer, inner), reference_join(outer, inner));
    }
}

/// Expected join output from a `BTreeMap` index — the reference for sizes
/// where the nested loops themselves would take too long.
fn indexed_reference_join(outer: &[u32], inner: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut index: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (row, &k) in inner.iter().enumerate() {
        index.entry(k).or_default().push(row as u32);
    }
    let (mut l, mut r) = (Vec::new(), Vec::new());
    for (row, k) in outer.iter().enumerate() {
        for &m in index.get(k).map_or(&[][..], |m| m) {
            l.push(row as u32);
            r.push(m);
        }
    }
    (l, r)
}

#[test]
fn join_is_identical_at_any_thread_count_across_chunk_boundaries() {
    let mut rng = StdRng::seed_from_u64(21);
    for outer_n in [PAR_CHUNK - 1, PAR_CHUNK + 1, 3 * PAR_CHUNK + 5] {
        let inner_n = PAR_CHUNK / 4 + 3;
        // Foreign keys with some dangling, primary keys with some doubled.
        let outer: Vec<u32> = (0..outer_n)
            .map(|_| rng.gen::<u32>() % (inner_n as u32 + 50))
            .collect();
        let inner: Vec<u32> = (0..inner_n as u32)
            .map(|i| if i % 7 == 0 { i / 2 } else { i })
            .collect();
        let want = indexed_reference_join(&outer, &inner);
        at_each_thread_count(|threads| {
            assert!(
                equi_join(&outer, &inner) == want,
                "outer {outer_n}, {threads} threads"
            );
        });
        let nothing = vec![u32::MAX; 9];
        at_each_thread_count(|_| {
            assert_eq!(equi_join(&outer, &nothing), (vec![], vec![]));
        });
    }
}

/// Each layout of the join's index at its edges, held to the nested loops
/// at every thread count: an inner key range exactly as wide as the direct
/// layout may index for the join's rows and one key wider (probes below
/// the range's `min` and above its `max` in both), the whole `u32` range
/// (2^32 keys), one inner key on every row, and an empty side.
#[test]
fn join_layouts_match_the_nested_loops_at_their_edges() {
    let mut rng = StdRng::seed_from_u64(35);
    let (outer_n, inner_n) = (2 * PAR_CHUNK + 1, 64);
    let rows = outer_n + inner_n;
    let slots = rows.max(DIRECT_MIN_ROWS) * DIRECT_BYTES_PER_ROW / std::mem::size_of::<u32>();
    let mut cases: Vec<(String, Vec<u32>, Vec<u32>)> = Vec::new();
    for (range, direct) in [(slots, true), (slots + 1, false)] {
        let (min, max) = (1000, 1000 + range as u32 - 1);
        let mut inner: Vec<u32> = (0..inner_n).map(|_| rng.gen_range(min..=max)).collect();
        (inner[0], inner[1], inner[2]) = (max, min, inner[3]);
        let dense = dense_range(&inner, rows, std::mem::size_of::<u32>());
        assert_eq!(dense.is_some(), direct, "range {range} for {rows} rows");
        let outer = (0..outer_n)
            .map(|_| match rng.gen::<u32>() % 4 {
                0 => inner[rng.gen::<usize>() % inner_n],
                1 => [0, min - 1][rng.gen::<usize>() % 2],
                2 => [max + 1, u32::MAX][rng.gen::<usize>() % 2],
                _ => rng.gen_range(min..=max),
            })
            .collect();
        cases.push((format!("key range {range}, direct {direct}"), outer, inner));
    }
    let inner = vec![u32::MAX, 0, 7, u32::MAX, 0];
    let dense = dense_range(&inner, outer_n + inner.len(), std::mem::size_of::<u32>());
    assert_eq!(dense, None);
    let outer = (0..outer_n)
        .map(|_| [0, 1, 7, u32::MAX - 1, u32::MAX][rng.gen::<usize>() % 5])
        .collect();
    cases.push(("keys 0 and u32::MAX".into(), outer, inner));
    let outer = (0..outer_n as u32)
        .map(|i| if i % 3 == 0 { 42 } else { i })
        .collect();
    cases.push(("one inner key".into(), outer, vec![42; 50]));
    let some: Vec<u32> = (0..outer_n as u32).collect();
    cases.push(("empty inner".into(), some.clone(), vec![]));
    cases.push(("empty outer".into(), vec![], some));
    for (what, outer, inner) in &cases {
        let want = reference_join(outer, inner);
        at_each_thread_count(|threads| {
            assert!(equi_join(outer, inner) == want, "{what}, {threads} threads");
        });
    }
}

// ---------------------------------------------------------------------------
// Grouped aggregation
// ---------------------------------------------------------------------------

/// Group-by through a `BTreeMap`, folding in row order with the documented
/// seeds — the definition of the right answer, bit for bit.
fn reference_groups(keys: &[u32], vals: &[f64]) -> GroupStats {
    let mut table: BTreeMap<u32, (f64, u64, f64, f64)> = BTreeMap::new();
    for (&k, &v) in keys.iter().zip(vals) {
        let e = table
            .entry(k)
            .or_insert((0.0, 0, f64::INFINITY, f64::NEG_INFINITY));
        e.0 += v;
        e.1 += 1;
        e.2 = e.2.min(v);
        e.3 = e.3.max(v);
    }
    GroupStats {
        keys: table.keys().copied().collect(),
        sums: table.values().map(|e| e.0).collect(),
        counts: table.values().map(|e| e.1).collect(),
        mins: table.values().map(|e| e.2).collect(),
        maxs: table.values().map(|e| e.3).collect(),
    }
}

/// Sums by bit pattern; extrema by value, except that NaN equals NaN.
fn assert_same_groups(got: &GroupStats, want: &GroupStats, what: &str) {
    assert!(got.keys == want.keys, "keys: {what}");
    assert!(got.counts == want.counts, "counts: {what}");
    assert!(bits(&got.sums) == bits(&want.sums), "sums: {what}");
    let same = |a: &[f64], b: &[f64]| {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x == y || (x.is_nan() && y.is_nan()))
    };
    assert!(same(&got.mins, &want.mins), "mins: {what}");
    assert!(same(&got.maxs, &want.maxs), "maxs: {what}");
}

#[test]
fn aggregate_matches_the_reference_on_every_shape_and_boundary() {
    let mut lens = boundary_lengths();
    // Group counts on both sides of the hash → sort hand-over.
    lens.extend([
        HASH_GROUPS_MAX - 1,
        HASH_GROUPS_MAX,
        HASH_GROUPS_MAX + 1,
        3 * HASH_GROUPS_MAX,
    ]);
    for n in lens {
        let vals = special_values(n, n as u64 + 1);
        for (shape, keys) in key_shapes(n, n as u64) {
            let want = reference_groups(&keys, &vals);
            assert!(want.keys.windows(2).all(|w| w[0] < w[1]));
            at_each_thread_count(|threads| {
                let got = group_aggregate(&keys, &vals);
                assert_same_groups(&got, &want, &format!("{shape} n={n} threads={threads}"));
            });
        }
    }
}

#[test]
fn aggregate_hand_over_mid_column_keeps_row_order_sums() {
    // Few groups first, then a burst of new keys that forces the hand-over
    // after most rows were already hashed; sums of values whose rounding
    // depends on order show any reordering.
    let n = 4 * HASH_GROUPS_MAX;
    let keys: Vec<u32> = (0..n as u32)
        .map(|i| if i < n as u32 / 2 { i % 3 } else { i })
        .collect();
    let vals: Vec<f64> = (0..n).map(|i| [1e16, 1.0, -1e16, 3.0][i % 4]).collect();
    let want = reference_groups(&keys, &vals);
    at_each_thread_count(|threads| {
        assert_same_groups(
            &group_aggregate(&keys, &vals),
            &want,
            &format!("{threads} threads"),
        );
    });
}

/// One column's grouped sum: [`grouped_sums`] of that column alone.
fn grouped_sum(keys: &[u32], vals: &[f64], seed: f64) -> (Vec<u32>, Vec<f64>) {
    let (keys, mut sums) = grouped_sums(keys, &[vals], seed);
    assert_eq!(sums.len(), 1);
    (keys, sums.remove(0))
}

/// `seed + v₀ + v₁ + …` per key through a `BTreeMap`, in row order.
fn reference_sums(keys: &[u32], vals: &[f64], seed: f64) -> (Vec<u32>, Vec<u64>) {
    let mut table: BTreeMap<u32, f64> = BTreeMap::new();
    for (&k, &v) in keys.iter().zip(vals) {
        *table.entry(k).or_insert(seed) += v;
    }
    (
        table.keys().copied().collect(),
        table.values().map(|s| s.to_bits()).collect(),
    )
}

#[test]
fn grouped_sum_matches_the_seeded_reference_on_every_shape_and_boundary() {
    let mut lens = boundary_lengths();
    // Dense ("ascending") columns of these lengths index directly; the
    // scattered ones cross the hash → sort hand-over.
    lens.extend([
        HASH_GROUPS_MAX - 1,
        HASH_GROUPS_MAX + 1,
        3 * HASH_GROUPS_MAX,
    ]);
    for n in lens {
        let vals = special_values(n, n as u64 + 1);
        // `inf - inf` is a NaN of other bits than `f64::NAN`, and which of
        // two NaNs a sum keeps is the code generator's choice of operand
        // order, not row order: the sort path's differs from the
        // reference's. Only `ZIPF` takes many-row groups there, so it sums
        // the same values with 1.0 for each `f64::NAN`.
        let one_nan: Vec<f64> = vals
            .iter()
            .map(|&v| if v.is_nan() { 1.0 } else { v })
            .collect();
        for (shape, keys) in key_shapes(n, n as u64) {
            let vals = if shape == ZIPF { &one_nan } else { &vals };
            for seed in [-0.0, 0.0] {
                let want = reference_sums(&keys, vals, seed);
                at_each_thread_count(|threads| {
                    let (k, s) = grouped_sum(&keys, vals, seed);
                    assert!(
                        (k, bits(&s)) == want,
                        "{shape} n={n} seed={seed:?} threads={threads}"
                    );
                });
            }
        }
    }
}

#[test]
fn grouped_sum_seed_decides_the_sign_of_an_all_negative_zero_group() {
    // Key 1 holds only -0.0; keys 0 and u32::MAX together make the range
    // too wide to index directly, the second column is dense with every
    // key of its range seen, the third dense with one key missing.
    for keys in [[0, 1, u32::MAX, 1], [3, 1, 2, 1], [4, 1, 2, 1]] {
        let vals = [2.5, -0.0, f64::NAN, -0.0];
        let (k, first_value) = grouped_sum(&keys, &vals, -0.0);
        let (_, zeroed) = grouped_sum(&keys, &vals, 0.0);
        let at = k.iter().position(|&key| key == 1).unwrap();
        assert_eq!(first_value[at].to_bits(), (-0.0f64).to_bits());
        assert_eq!(zeroed[at].to_bits(), 0.0f64.to_bits());
        // -0.0 is the identity: each sum is what a fold that starts from
        // the group's first value gives.
        let mut by_first: BTreeMap<u32, f64> = BTreeMap::new();
        for (&key, &v) in keys.iter().zip(&vals) {
            by_first.entry(key).and_modify(|s| *s += v).or_insert(v);
        }
        let want: Vec<u64> = by_first.values().map(|s| s.to_bits()).collect();
        assert_eq!(bits(&first_value), want);
    }
    assert_eq!(grouped_sum(&[], &[], -0.0), (vec![], vec![]));
}

/// `n` values for a column folded beside others: random finite values
/// mixed with NaNs of four payloads (quiet and signalling, both signs),
/// `±0.0` and `±inf`, so groups meet two NaNs, `inf - inf` and signed
/// zeros alike.
fn payload_values(n: usize, seed: u64) -> Vec<f64> {
    const SPECIALS: [u64; 8] = [
        0x7FF8_0000_0000_0000,
        0xFFF8_0000_0000_BEEF,
        0x7FF0_0000_0000_0001,
        0xFFF4_0000_0000_0000,
        0x0000_0000_0000_0000,
        0x8000_0000_0000_0000,
        0x7FF0_0000_0000_0000,
        0xFFF0_0000_0000_0000,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| match rng.gen::<u32>() % 3 {
            0 => f64::from_bits(SPECIALS[rng.gen::<usize>() % SPECIALS.len()]),
            _ => (rng.gen::<f64>() - 0.5) * 1e6,
        })
        .collect()
}

/// `grouped_sums` of `cols` is, column by column, the bits of the column's
/// own fold: the same keys, and each sum bit for bit, under both seeds at
/// every thread count.
fn assert_sums_fold_per_column(keys: &[u32], cols: &[Vec<f64>], what: &str) {
    let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
    for seed in [-0.0, 0.0] {
        let want: Vec<(Vec<u32>, Vec<u64>)> = refs
            .iter()
            .map(|col| {
                let (k, s) = grouped_sum(keys, col, seed);
                (k, bits(&s))
            })
            .collect();
        at_each_thread_count(|threads| {
            let (k, sums) = grouped_sums(keys, &refs, seed);
            assert_eq!(sums.len(), refs.len(), "{what}");
            for (c, (want_k, want_s)) in want.iter().enumerate() {
                assert!(
                    &k == want_k && &bits(&sums[c]) == want_s,
                    "{what}, column {c}, seed {seed:?}, {threads} threads"
                );
            }
        });
    }
}

#[test]
fn grouped_sums_folds_each_column_to_the_bits_of_its_own_fold() {
    let n = 2 * PAR_CHUNK + 17;
    let mut rng = StdRng::seed_from_u64(58);
    let mut sparse: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B1)).collect();
    sparse.shuffle(&mut rng);
    let mut dense: Vec<u32> = (0..n).map(|_| 1000 + rng.gen::<u32>() % 4).collect();
    dense[n - 1] = 1002;
    let mut gapped: Vec<u32> = (0..n as u32).map(|i| i % 64 * 2).collect();
    gapped.shuffle(&mut rng);
    let cases: Vec<(&str, Vec<u32>, bool)> = vec![
        ("empty", vec![], false),
        ("one row", vec![u32::MAX], true),
        ("all duplicate", vec![7; n], true),
        ("dense range", dense, true),
        ("dense range, every other key unseen", gapped, true),
        (
            "keys 0 and u32::MAX",
            (0..n).map(|i| [0, u32::MAX, 5][i % 3]).collect(),
            false,
        ),
        ("more than HASH_GROUPS_MAX distinct keys", sparse, false),
    ];
    for (what, keys, direct) in &cases {
        if !keys.is_empty() {
            let slot_bytes = std::mem::size_of::<f64>();
            assert_eq!(
                dense_range(keys, keys.len(), slot_bytes).is_some(),
                *direct,
                "{what}"
            );
        }
        for width in [0, 1, 2, 6, 9] {
            let cols: Vec<Vec<f64>> = (0..width)
                .map(|c| payload_values(keys.len(), c as u64))
                .collect();
            assert_sums_fold_per_column(keys, &cols, &format!("{what}, {width} columns"));
        }
        let (k, sums) = grouped_sums(keys, &[], 0.0);
        assert!(sums.is_empty());
        assert_eq!(
            k,
            grouped_sum(keys, &vec![0.0; keys.len()], 0.0).0,
            "{what}"
        );
    }
    assert!(distinct_keys(&cases[6].1) > HASH_GROUPS_MAX);
}

/// `distinct_keys` counts the groups `grouped_sum` returns, at every thread
/// count: on every key shape (one key on every row, keys 0 and `u32::MAX`,
/// more sparse keys than `HASH_GROUPS_MAX`, few keys one of which only the
/// last row holds) at lengths across the chunk
/// and hand-over boundaries, and on key ranges one key narrower than the
/// direct table may index for the rows, exactly as wide, and one wider.
#[test]
fn distinct_keys_counts_the_groups_grouped_sum_returns() {
    let mut cases: Vec<(String, Vec<u32>)> = vec![
        ("empty".into(), vec![]),
        ("0 and u32::MAX".into(), vec![u32::MAX, 0, u32::MAX]),
    ];
    for n in [1, PAR_CHUNK + 1, 2 * PAR_CHUNK + 17, HASH_GROUPS_MAX + 1] {
        for (shape, keys) in key_shapes(n, n as u64 + 39) {
            cases.push((format!("{shape} n={n}"), keys));
        }
    }
    let n = 2 * PAR_CHUNK + 1;
    // Few keys, all seen within the first rows but one, seen last.
    let mut late: Vec<u32> = (0..n as u32)
        .map(|i| if i % 64 == 31 { 30 } else { i % 64 })
        .collect();
    late[n - 1] = 31;
    cases.push(("one of 64 keys on the last row only".into(), late));
    let mut rng = StdRng::seed_from_u64(39);
    let slot_bytes = std::mem::size_of::<f64>();
    let slots = n.max(DIRECT_MIN_ROWS) * DIRECT_BYTES_PER_ROW / slot_bytes;
    for (range, direct) in [(slots - 1, true), (slots, true), (slots + 1, false)] {
        let (min, max) = (1000, 1000 + range as u32 - 1);
        let mut keys: Vec<u32> = (0..n).map(|_| rng.gen_range(min..=max)).collect();
        (keys[0], keys[n - 1]) = (max, min);
        assert_eq!(dense_range(&keys, n, slot_bytes).is_some(), direct);
        cases.push((format!("key range {range}, direct {direct}"), keys));
    }
    for (what, keys) in &cases {
        let groups = grouped_sum(keys, &vec![0.0; keys.len()], 0.0).0.len();
        at_each_thread_count(|threads| {
            assert_eq!(distinct_keys(keys), groups, "{what}, {threads} threads");
        });
    }
}

// ---------------------------------------------------------------------------
// Row-id compaction
// ---------------------------------------------------------------------------

/// Flag columns of length `n`: nothing kept, everything kept, every other
/// row, and a random half.
fn flag_shapes(n: usize, seed: u64) -> Vec<(&'static str, Vec<u32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        ("none", vec![0; n]),
        ("all", vec![1; n]),
        ("alternating", (0..n as u32).map(|i| i % 2).collect()),
        ("random", (0..n).map(|_| rng.gen::<u32>() % 2).collect()),
    ]
}

#[test]
fn select_where_keeps_exactly_the_flagged_rows_across_window_boundaries() {
    let mut lens = boundary_lengths();
    lens.push(4 * PAR_CHUNK + 3);
    for n in lens {
        for (shape, keep) in flag_shapes(n, n as u64) {
            let want: Vec<u32> = (0..n as u32).filter(|&i| keep[i as usize] == 1).collect();
            at_each_thread_count(|threads| {
                let got = select_where(n, |i| keep[i] == 1);
                assert!(got == want, "{shape} n={n} threads={threads}");
            });
        }
    }
}

fn reference_cmp(cmp: Cmp, x: f64, y: f64) -> bool {
    match cmp {
        Cmp::Lt => x < y,
        Cmp::Le => x <= y,
        Cmp::Gt => x > y,
        Cmp::Ge => x >= y,
        Cmp::Eq => x == y,
        Cmp::Ne => x != y,
    }
}

#[test]
fn select_rows_matches_a_row_at_a_time_filter_for_every_operand_type() {
    for n in [0, 1, PAR_CHUNK - 1, 2 * PAR_CHUNK + 17] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let ints: Vec<u32> = (0..n)
            .map(|i| [0, u32::MAX, 7][i % 3] ^ (rng.gen::<u32>() % 4))
            .collect();
        let small: Vec<u32> = (0..n).map(|_| rng.gen::<u32>() % 8).collect();
        let floats = special_values(n, 5);
        let lanes = [Lane::U32(&ints), Lane::U32(&small), Lane::F64(&floats)];
        // Every operand pairing and operator, three predicates at a time so
        // the conjunction, the disjunction and both counts are exercised.
        let mut preds = Vec::new();
        for (i, &col) in lanes.iter().enumerate() {
            for (j, &cmp) in CMPS.iter().enumerate() {
                let rhs = match (i + j) % 4 {
                    0 => Rhs::Lit(3.0),
                    1 => Rhs::Lit(f64::NAN),
                    2 => Rhs::Col(lanes[(i + 1) % 3]),
                    _ => Rhs::Col(lanes[(i + 2) % 3]),
                };
                preds.push(RowPred { col, cmp, rhs });
            }
        }
        let holds = |p: &RowPred<'_>, row: usize| {
            let y = match p.rhs {
                Rhs::Lit(y) => y,
                Rhs::Col(c) => c.get(row),
            };
            reference_cmp(p.cmp, p.col.get(row), y)
        };
        for group in preds.chunks(3).chain(preds.chunks(1)) {
            for all in [true, false] {
                let passes = |upto: usize, row: usize| {
                    let mut flags = group[..=upto].iter().map(|p| holds(p, row));
                    if all {
                        flags.all(|f| f)
                    } else {
                        flags.any(|f| f)
                    }
                };
                let want = Selected {
                    ids: (0..n as u32)
                        .filter(|&r| passes(group.len() - 1, r as usize))
                        .collect(),
                    each: group
                        .iter()
                        .map(|p| (0..n).filter(|&r| holds(p, r)).count())
                        .collect(),
                    prefix: (0..group.len())
                        .map(|j| (0..n).filter(|&r| passes(j, r)).count())
                        .collect(),
                };
                at_each_thread_count(|threads| {
                    let got = select_rows(group, all);
                    assert!(got == want, "n={n} all={all} threads={threads} {group:?}");
                });
            }
        }
    }
}

/// `count_rows` counts what `select_rows` selects — the same `each` and
/// `prefix`, and as many rows kept — at every thread count, on one and
/// three predicates under both connectives: empty columns, no row and
/// every row kept, NaN and `-0.0` on either side of an `f64` comparison,
/// and `u32` and `f64` column against column.
#[test]
fn count_rows_counts_what_select_rows_selects() {
    for n in [0, 1, PAR_CHUNK - 1, PAR_CHUNK, 2 * PAR_CHUNK + 17] {
        let mut rng = StdRng::seed_from_u64(n as u64 + 39);
        let ints: Vec<u32> = (0..n).map(|_| rng.gen::<u32>() % 8).collect();
        let more: Vec<u32> = (0..n).map(|_| rng.gen::<u32>() % 8).collect();
        let floats = special_values(n, n as u64 + 39);
        let zeros: Vec<f64> = (0..n).map(|i| [0.0, -0.0, f64::NAN][i % 3]).collect();
        let (ints, more) = (Lane::U32(&ints), Lane::U32(&more));
        let (floats, zeros) = (Lane::F64(&floats), Lane::F64(&zeros));
        let lit = |col, cmp, y| RowPred {
            col,
            cmp,
            rhs: Rhs::Lit(y),
        };
        let cols = |col, cmp, other| RowPred {
            col,
            cmp,
            rhs: Rhs::Col(other),
        };
        let cases = [
            ("no row", vec![lit(ints, Cmp::Gt, 8.0)]),
            ("every row", vec![lit(ints, Cmp::Lt, 8.0)]),
            ("NaN literal", vec![lit(floats, Cmp::Ne, f64::NAN)]),
            ("-0.0 literal", vec![lit(zeros, Cmp::Lt, -0.0)]),
            ("u32 columns", vec![cols(ints, Cmp::Lt, more)]),
            ("f64 columns", vec![cols(zeros, Cmp::Le, floats)]),
            (
                "three predicates",
                vec![
                    lit(ints, Cmp::Lt, 4.0),
                    lit(zeros, Cmp::Eq, 0.0),
                    cols(floats, Cmp::Ge, zeros),
                ],
            ),
            (
                "three against NaN and -0.0",
                vec![
                    lit(floats, Cmp::Le, -0.0),
                    lit(zeros, Cmp::Ge, f64::NAN),
                    cols(ints, Cmp::Ne, more),
                ],
            ),
        ];
        for (what, preds) in &cases {
            for all in [true, false] {
                let want = select_rows(preds, all);
                at_each_thread_count(|threads| {
                    let got = count_rows(preds, all);
                    let why = format!("{what} n={n} all={all} threads={threads}");
                    assert_eq!(got.each, want.each, "{why}");
                    assert_eq!(got.prefix, want.prefix, "{why}");
                    assert_eq!(got.kept(), want.ids.len(), "{why}");
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The expression engine
// ---------------------------------------------------------------------------

const UNARY_OPS: [UnaryOp; 3] = [UnaryOp::Not, UnaryOp::Neg, UnaryOp::Abs];
const BINARY_OPS: [BinaryOp; 15] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Min,
    BinaryOp::Max,
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::Select,
];
const CASTS: [Cast; 3] = [Cast::F64, Cast::U32, Cast::B8];
const CMPS: [Cmp; 6] = [Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge, Cmp::Eq, Cmp::Ne];
const LITERALS: [f64; 6] = [3.0, 0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// One leaf column of every type, `n` rows each: IEEE specials, `u32`
/// extremes and flag bytes.
struct Columns {
    floats: Vec<f64>,
    ints: Vec<u32>,
    flags: Vec<u8>,
}

impl Columns {
    fn new(n: usize, seed: u64) -> Columns {
        let mut rng = StdRng::seed_from_u64(seed);
        Columns {
            floats: special_values(n, seed),
            ints: (0..n)
                .map(|i| [0, u32::MAX, 7, 1 << 31][i % 4] ^ (rng.gen::<u32>() % 4))
                .collect(),
            flags: (0..n).map(|_| rng.gen::<u8>() % 2).collect(),
        }
    }

    /// Slots 0..3: `f64`, `u32`, `b8`.
    fn leaves(&self) -> [Leaf<'_>; 3] {
        [
            Leaf::F64(&self.floats),
            Leaf::U32(&self.ints),
            Leaf::B8(&self.flags),
        ]
    }
}

/// Bit patterns of computed values. Which NaN an operation returns is not
/// specified (the compiler may commute an addition), so every NaN counts as
/// the same value; everything else, signed zeros included, is exact.
fn value_bits(v: &[f64]) -> Vec<u64> {
    let canonical = |x: &f64| if x.is_nan() { f64::NAN } else { *x }.to_bits();
    v.iter().map(canonical).collect()
}

/// The engine's semantics one row at a time, spelled out independently of
/// `BinaryOp::apply` / `UnaryOp::apply`.
fn reference_row(instrs: &[Instr], leaves: &[Leaf<'_>], row: usize) -> f64 {
    fn binary(op: BinaryOp, a: f64, b: f64) -> f64 {
        let flag = |holds: bool| if holds { 1.0 } else { 0.0 };
        match op {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Min => a.min(b),
            BinaryOp::Max => a.max(b),
            BinaryOp::And => flag(a != 0.0 && b != 0.0),
            BinaryOp::Or => flag(a != 0.0 || b != 0.0),
            BinaryOp::Lt => flag(a < b),
            BinaryOp::Le => flag(a <= b),
            BinaryOp::Gt => flag(a > b),
            BinaryOp::Ge => flag(a >= b),
            BinaryOp::Eq => flag(a == b),
            BinaryOp::Ne => flag(a != b),
            BinaryOp::Select if b != 0.0 => a,
            BinaryOp::Select => 0.0,
        }
    }
    let mut stack = Vec::new();
    for instr in instrs {
        let value = match *instr {
            Instr::Load(slot) => match leaves[slot] {
                Leaf::F64(v) => v[row],
                Leaf::U32(v) => f64::from(v[row]),
                Leaf::B8(v) => f64::from(v[row]),
            },
            Instr::Binary(op) => {
                let b = stack.pop().unwrap();
                binary(op, stack.pop().unwrap(), b)
            }
            Instr::ScalarRhs(op, s) => binary(op, stack.pop().unwrap(), s),
            Instr::ScalarLhs(op, s) => binary(op, s, stack.pop().unwrap()),
            Instr::Unary(UnaryOp::Not) => f64::from(u8::from(stack.pop().unwrap() == 0.0)),
            Instr::Unary(UnaryOp::Neg) => -stack.pop().unwrap(),
            Instr::Unary(UnaryOp::Abs) => stack.pop().unwrap().abs(),
            Instr::Cast(Cast::F64) => stack.pop().unwrap(),
            Instr::Cast(Cast::U32) => stack.pop().unwrap() as u32 as f64,
            Instr::Cast(Cast::B8) => f64::from(u8::from(stack.pop().unwrap() != 0.0)),
        };
        stack.push(value);
    }
    assert_eq!(stack.len(), 1);
    stack[0]
}

/// Every instruction, one short program each: every binary operator between
/// columns and against every literal on either side, every unary operator,
/// and every cast of every leaf type.
fn one_instruction_programs() -> Vec<Vec<Instr>> {
    let mut programs = Vec::new();
    for op in BINARY_OPS {
        programs.push(vec![Instr::Load(0), Instr::Load(1), Instr::Binary(op)]);
        programs.push(vec![Instr::Load(2), Instr::Load(0), Instr::Binary(op)]);
        for lit in LITERALS {
            programs.push(vec![Instr::Load(0), Instr::ScalarRhs(op, lit)]);
            programs.push(vec![Instr::Load(0), Instr::ScalarLhs(op, lit)]);
        }
    }
    for op in UNARY_OPS {
        programs.push(vec![Instr::Load(0), Instr::Unary(op)]);
    }
    for slot in 0..3 {
        for to in CASTS {
            programs.push(vec![Instr::Load(slot), Instr::Cast(to)]);
        }
    }
    programs
}

/// Longer programs: a stack three deep, a leaf loaded twice, and the
/// mask-and-select shape a fused filter compiles to.
fn deep_programs() -> Vec<Vec<Instr>> {
    vec![
        vec![
            Instr::Load(0),
            Instr::ScalarRhs(BinaryOp::Mul, -1.0),
            Instr::ScalarRhs(BinaryOp::Add, 1.0),
            Instr::Load(1),
            Instr::Load(0),
            Instr::Cast(Cast::U32),
            Instr::Binary(BinaryOp::Max),
            Instr::Binary(BinaryOp::Mul),
            Instr::Load(0),
            Instr::Binary(BinaryOp::Sub),
        ],
        vec![
            Instr::Load(0),
            Instr::Load(1),
            Instr::ScalarRhs(BinaryOp::Lt, 8.0),
            Instr::Load(2),
            Instr::Unary(UnaryOp::Not),
            Instr::Binary(BinaryOp::And),
            Instr::Cast(Cast::F64),
            Instr::Binary(BinaryOp::Select),
        ],
    ]
}

/// `map` into every storable type against the reference, bit for bit, at
/// every thread count.
fn assert_map_matches(instrs: &[Instr], cols: &Columns, n: usize) {
    let leaves = cols.leaves();
    let want: Vec<f64> = (0..n)
        .map(|row| reference_row(instrs, &leaves, row))
        .collect();
    let prog = Program::new(instrs.to_vec());
    at_each_thread_count(|threads| {
        let what = format!("n={n} threads={threads} {instrs:?}");
        let got = expr::map::<f64>(&prog, &leaves, n);
        assert!(value_bits(&got) == value_bits(&want), "f64 {what}");
        let as_u32: Vec<u32> = want.iter().map(|&x| x as u32).collect();
        assert!(expr::map::<u32>(&prog, &leaves, n) == as_u32, "u32 {what}");
        let as_b8: Vec<u8> = want.iter().map(|&x| u8::from(x != 0.0)).collect();
        assert!(expr::map::<u8>(&prog, &leaves, n) == as_b8, "b8 {what}");
    });
}

#[test]
fn expr_map_matches_the_reference_for_every_instruction() {
    for n in [0, 1, WINDOW - 1, WINDOW + 1] {
        let cols = Columns::new(n, n as u64);
        for instrs in one_instruction_programs() {
            assert_map_matches(&instrs, &cols, n);
        }
    }
}

#[test]
fn expr_map_matches_the_reference_across_window_and_chunk_boundaries() {
    for n in [2 * WINDOW, PAR_CHUNK - 1, PAR_CHUNK + 1, 2 * PAR_CHUNK + 17] {
        let cols = Columns::new(n, n as u64);
        for instrs in deep_programs() {
            assert_map_matches(&instrs, &cols, n);
        }
    }
}

/// `seed + Σ` over the passing rows, one addition per passing row.
fn reference_filter_sum(
    instrs: &[Instr],
    leaves: &[Leaf<'_>],
    preds: &[RowPred<'_>],
    n: usize,
    seed: f64,
) -> f64 {
    let holds = |p: &RowPred<'_>, row: usize| {
        let y = match p.rhs {
            Rhs::Lit(y) => y,
            Rhs::Col(c) => c.get(row),
        };
        reference_cmp(p.cmp, p.col.get(row), y)
    };
    let mut acc = seed;
    for row in 0..n {
        if preds.iter().all(|p| holds(p, row)) {
            acc += reference_row(instrs, leaves, row);
        }
    }
    acc
}

#[test]
fn expr_filter_sum_folds_exactly_the_passing_rows_in_row_order() {
    for n in [
        0,
        1,
        WINDOW - 1,
        WINDOW + 1,
        PAR_CHUNK - 1,
        PAR_CHUNK + 1,
        2 * PAR_CHUNK + 17,
    ] {
        let cols = Columns::new(n, n as u64 + 1);
        let leaves = cols.leaves();
        // A second value column without specials, so some sums stay finite
        // and the fold order shows in the low bits.
        let mut rng = StdRng::seed_from_u64(n as u64);
        let plain: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 1e3 - 300.0).collect();
        let small: Vec<u32> = (0..n).map(|_| rng.gen::<u32>() % 8).collect();
        let (ints, floats) = (Lane::U32(&cols.ints), Lane::F64(&cols.floats));
        let pred = |col, cmp, rhs| RowPred { col, cmp, rhs };
        let mut filters: Vec<Vec<RowPred<'_>>> = vec![
            vec![],
            // Nothing passes; everything passes; an empty window amid full ones.
            vec![pred(ints, Cmp::Lt, Rhs::Lit(-1.0))],
            vec![pred(ints, Cmp::Ge, Rhs::Lit(0.0))],
            vec![pred(floats, Cmp::Eq, Rhs::Lit(f64::NAN))],
            vec![
                pred(Lane::U32(&small), Cmp::Lt, Rhs::Lit(6.0)),
                pred(floats, Cmp::Le, Rhs::Lit(f64::INFINITY)),
                pred(Lane::U32(&small), Cmp::Ne, Rhs::Col(ints)),
            ],
        ];
        // Every comparison, on the lengths that fit in a chunk.
        for cmp in CMPS.into_iter().filter(|_| n < PAR_CHUNK) {
            filters.push(vec![pred(Lane::U32(&small), cmp, Rhs::Lit(3.0))]);
            filters.push(vec![pred(floats, cmp, Rhs::Lit(-0.0))]);
        }
        let value_leaves = [leaves[0], Leaf::F64(&plain), leaves[1]];
        let programs = [
            vec![Instr::Load(1)],
            vec![Instr::Load(0), Instr::ScalarRhs(BinaryOp::Mul, 2.0)],
            vec![
                Instr::Load(1),
                Instr::Load(2),
                Instr::ScalarRhs(BinaryOp::Lt, 9.0),
                Instr::Binary(BinaryOp::Mul),
            ],
        ];
        for instrs in &programs {
            let prog = Program::new(instrs.clone());
            for preds in &filters {
                for seed in [0.0, -0.0] {
                    let want = reference_filter_sum(instrs, &value_leaves, preds, n, seed);
                    at_each_thread_count(|threads| {
                        let got = expr::filter_sum(&prog, &value_leaves, preds, n, seed);
                        assert!(
                            value_bits(&[got]) == value_bits(&[want]),
                            "n={n} threads={threads} seed={seed} {instrs:?} {preds:?}: {got} != {want}"
                        );
                    });
                }
            }
        }
    }
}

#[test]
fn expr_filter_sum_ignores_what_dropped_rows_hold() {
    let keys = [1u32, 9, 2, 9];
    let vals = [1.5, f64::INFINITY, 2.5, f64::NAN];
    let twice = Program::new(vec![Instr::Load(0), Instr::ScalarRhs(BinaryOp::Mul, 2.0)]);
    let under_5 = RowPred {
        col: Lane::U32(&keys),
        cmp: Cmp::Lt,
        rhs: Rhs::Lit(5.0),
    };
    let got = expr::filter_sum(&twice, &[Leaf::F64(&vals)], &[under_5], 4, 0.0);
    assert_eq!(got, 8.0);
    // An all-negative-zero selection keeps its sign only from a -0.0 seed.
    let zeros = [-0.0; 3];
    let load = Program::new(vec![Instr::Load(0)]);
    for (seed, want) in [(0.0f64, 0.0f64), (-0.0, -0.0)] {
        let got = expr::filter_sum(&load, &[Leaf::F64(&zeros)], &[], 3, seed);
        assert_eq!(got.to_bits(), want.to_bits());
    }
}

#[test]
#[should_panic(expected = "on a stack of 1")]
fn expr_program_rejects_a_stack_underflow() {
    Program::new(vec![Instr::Load(0), Instr::Binary(BinaryOp::Add)]);
}

#[test]
#[should_panic(expected = "leaves 2 values")]
fn expr_program_rejects_leftover_values() {
    Program::new(vec![Instr::Load(0), Instr::Load(0)]);
}

// ---------------------------------------------------------------------------
// Random shapes
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 12 }))]

    /// Random length, key domain, column count and content: `grouped_sums`
    /// folds each column to the bits of the column's own fold.
    #[test]
    fn grouped_sums_matches_per_column_folds_on_random_columns(
        n in 0usize..3 * HASH_GROUPS_MAX,
        domain_bits in 0u32..=32,
        width in 1usize..=6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = ((1u64 << domain_bits) - 1) as u32;
        let keys: Vec<u32> = (0..n).map(|_| rng.gen::<u32>() & mask).collect();
        let cols: Vec<Vec<f64>> = (0..width)
            .map(|c| payload_values(n, seed ^ c as u64))
            .collect();
        assert_sums_fold_per_column(&keys, &cols, &format!("n={n} bits={domain_bits}"));
    }

    /// Random length, key domain, skew and content: sort, join, aggregates
    /// and compaction all agree with their references at every thread
    /// count. The lengths reach past where the sort partitions twelve-byte
    /// rows, and — when two rows in three are `hot`, sharing the top byte of
    /// the domain — where it partitions a bucket again.
    #[test]
    fn kernels_agree_with_references_on_random_columns(
        n in 0usize..2 * CACHE_PAIRS,
        domain_bits in 0u32..=32,
        hot in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = ((1u64 << domain_bits) - 1) as u32;
        let keys: Vec<u32> = (0..n)
            .map(|_| match (rng.gen::<u32>() & mask, hot && rng.gen::<u32>() % 3 != 0) {
                (key, true) => key & (mask >> 8),
                (key, false) => key,
            })
            .collect();
        // Any bit pattern at all is a legal f64 value.
        let vals: Vec<f64> = (0..n).map(|_| f64::from_bits(rng.gen())).collect();
        // At most about two build rows per key value, so the output stays
        // near the outer side's size even on a one-value domain.
        let build_n = (n / 16).min(2usize << domain_bits.min(30));
        let build: Vec<u32> = (0..build_n).map(|_| rng.gen::<u32>() & mask).collect();
        let (want_k, want_v) = reference_sort_pairs(&keys, &vals);
        let want_groups = reference_groups(&keys, &vals);
        let want_sums = reference_sums(&keys, &vals, 0.0);
        let want_join = indexed_reference_join(&keys, &build);
        let want_ids: Vec<u32> = (0..n as u32).filter(|&i| keys[i as usize] < mask / 2).collect();
        at_each_thread_count(|threads| {
            let (mut k, mut v) = (keys.clone(), vals.clone());
            sort_pairs(&mut k, &mut v);
            assert!(k == want_k && bits(&v) == bits(&want_v), "sort, {threads} threads");
            assert_same_groups(&group_aggregate(&keys, &vals), &want_groups, "aggregate");
            assert!(equi_join(&keys, &build) == want_join, "join, {threads} threads");
            let (k, s) = grouped_sum(&keys, &vals, 0.0);
            assert!((k, bits(&s)) == want_sums, "grouped sum, {threads} threads");
            let pred = RowPred { col: Lane::U32(&keys), cmp: Cmp::Lt, rhs: Rhs::Lit(f64::from(mask / 2)) };
            assert!(select_rows(&[pred], true).ids == want_ids, "select, {threads} threads");
        });
    }
}
