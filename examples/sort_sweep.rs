//! Sweep the host radix sort over input sizes and key / payload shapes.
//!
//! `hostexec::radix`'s `CACHE_BYTES` — the most bytes of rows sorted without
//! partitioning them first — was chosen from this table: build it once per
//! candidate value and compare the cells on either side of the threshold
//! (for the `u32` column that is `CACHE_BYTES / 4` rows, for `u32/f64`
//! `CACHE_BYTES / 12`). Host time only; nothing here is simulated.
//!
//! ```sh
//! cargo run --release --example sort_sweep [-- <lg lo> <lg hi>]
//! ```

use gpu_proto_db::sim::hostexec::{sort_keys, sort_pairs, RadixKey};
use std::hint::black_box;
use std::time::Instant;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// ns/row of `sort` on a fresh copy of the input, lower quartile of `reps`.
fn time<I: Clone>(input: &I, rows: usize, reps: usize, sort: impl Fn(&mut I)) -> f64 {
    let mut runs: Vec<f64> = (0..reps)
        .map(|_| {
            let mut rows_in = input.clone();
            let start = Instant::now();
            sort(black_box(&mut rows_in));
            start.elapsed().as_secs_f64() * 1e9 / rows as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[reps / 4]
}

fn keys_only<K: RadixKey>(keys: &[K], reps: usize) -> f64 {
    time(&keys.to_vec(), keys.len(), reps, |k| sort_keys(k))
}

fn pairs<K: RadixKey, V: Copy + Send + Sync + 'static>(keys: &[K], vals: &[V], reps: usize) -> f64 {
    let input = (keys.to_vec(), vals.to_vec());
    time(&input, keys.len(), reps, |(k, v)| sort_pairs(k, v))
}

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<u32>());
    let lo = args.next().and_then(Result::ok).unwrap_or(14);
    let hi = args.next().and_then(Result::ok).unwrap_or(22);
    const SHAPES: [&str; 9] = [
        "u32",
        "u32/f64",
        "u32/u32",
        "low8",
        "12bit/f64",
        "perm/f64",
        "skew/f64",
        "u64",
        "u64/f64",
    ];
    println!("lg n{}", SHAPES.map(|s| format!("{s:>10}")).concat());
    for lg in lo..=hi {
        let n = 1usize << lg;
        let reps = (1 << 24 >> lg).clamp(5, 200);
        let mut state = 0x9E37_79B9_7F4A_7C15 ^ u64::from(lg);
        let keys: Vec<u32> = (0..n).map(|_| xorshift(&mut state) as u32).collect();
        let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let idx: Vec<u32> = (0..n as u32).collect();
        let low8: Vec<u32> = keys.iter().map(|k| k % 256).collect();
        let bits12: Vec<u32> = keys.iter().map(|k| k % 4096).collect();
        let mut perm = idx.clone();
        for i in (1..n).rev() {
            perm.swap(i, (xorshift(&mut state) % (i as u64 + 1)) as usize);
        }
        // Half the rows under one key, the rest over 4 096 others.
        let skew: Vec<u32> = keys
            .iter()
            .map(|k| match k & 1 {
                0 => 77,
                _ => (k >> 1) % 4096 * 1000,
            })
            .collect();
        let wide: Vec<u64> = (0..n).map(|_| xorshift(&mut state)).collect();
        let cells = [
            keys_only(&keys, reps),
            pairs(&keys, &vals, reps),
            pairs(&keys, &idx, reps),
            keys_only(&low8, reps),
            pairs(&bits12, &vals, reps),
            pairs(&perm, &vals, reps),
            pairs(&skew, &vals, reps),
            keys_only(&wide, reps),
            pairs(&wide, &vals, reps),
        ];
        println!("{lg:>4}{}", cells.map(|c| format!("{c:>10.2}")).concat());
    }
}
