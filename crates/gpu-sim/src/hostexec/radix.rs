//! Cache-partitioned stable radix sort over 8-bit digits.
//!
//! One *pass* orders rows by one digit: the input is cut into contiguous
//! *blocks*, every block counts its rows per digit value, an exclusive scan
//! over the counts in (digit, block) order gives each block the place where
//! its rows of each digit go, and every block then copies its rows there in
//! input order. Rows with equal digits therefore land in block order and,
//! within a block, in input order — the pass is stable however many blocks
//! there are.
//!
//! A sequence of such passes from the least significant digit up (LSD)
//! sorts the rows, but each pass scatters over the whole array, which is
//! slow once the array has outgrown the cache. So the sort first checks,
//! block by block and only up to a block's first descent, whether the keys
//! are in order (then it returns), reads them again for the bits that
//! differ between any two of them, and, when the rows do not fit
//! [`CACHE_BYTES`], makes its first pass on the *top* eight varying bits:
//! that partitions the rows into at most 256 contiguous buckets, each of
//! which holds one range of keys and is then LSD-sorted on the bits below,
//! in cache, one bucket per thread. A bucket that is still too large — the
//! keys are skewed — is first read for its own varying bits and sorted the
//! same way with every thread, before the small buckets are shared out.
//!
//! A stable partition followed by stable sorts of the buckets is, like the
//! LSD sequence, the one permutation that orders the keys and keeps equal
//! keys in input order, so the output depends on neither the block count
//! nor the thread count, nor on which of the two routes the sizes select.

use super::{for_each_index, for_each_owned, host_threads, par_map_blocks, piece_range};

mod sealed {
    pub trait Sealed {}
}

/// A key type the LSD radix sort can handle: mapped to unsigned bits whose
/// ascending order equals the key's ascending order. Mirrors the primitive
/// key dispatch of CUB/Thrust's radix sort (integers and IEEE floats).
///
/// Sealed: the sort's scatter writes through raw pointers at positions
/// derived from `radix_bits`, so it relies on every implementation being a
/// pure function of the key — which holds for the ones below and could not
/// be demanded of a foreign one.
pub trait RadixKey: Copy + Send + Sync + 'static + sealed::Sealed {
    /// Order-preserving mapping into unsigned bits.
    fn radix_bits(self) -> u64;
}

macro_rules! radix_key {
    ($($t:ty, |$k:ident| $bits:expr;)*) => {$(
        impl sealed::Sealed for $t {}
        impl RadixKey for $t {
            #[inline]
            fn radix_bits(self) -> u64 {
                let $k = self;
                $bits
            }
        }
    )*};
}

radix_key! {
    u8, |k| u64::from(k);
    u16, |k| u64::from(k);
    u32, |k| u64::from(k);
    u64, |k| k;
    i32, |k| u64::from((k as u32) ^ 0x8000_0000);
    i64, |k| (k as u64) ^ (1 << 63);
    // IEEE-754 total order: flip the sign bit of non-negatives, all bits of
    // negatives. Matches `partial_cmp` on every non-NaN input (NaNs order
    // last).
    f64, |k| {
        let b = k.to_bits();
        if b >> 63 == 0 { b ^ (1 << 63) } else { !b }
    };
}

/// Inputs at or below this length use a stable comparison sort instead:
/// the histogram set-up of the radix sort costs more than it saves there.
/// So does a bucket of a partitioned input.
pub(super) const RADIX_CUTOFF: usize = 256;

/// Fewest rows worth a block of their own: below two of these a pass
/// runs as a single block on the calling thread.
pub(super) const MIN_BLOCK: usize = if cfg!(miri) { 1 << 6 } else { 1 << 15 };

/// Most bytes of rows (keys and payloads) the LSD passes sort as one piece.
/// A piece this size and the scratch copy the passes alternate with sit in
/// a core's private cache together; anything larger is partitioned first.
/// Chosen from `examples/sort_sweep.rs` (DESIGN.md §8 has the cells that
/// decided it and the benchmark rows on either side of it).
pub(super) const CACHE_BYTES: usize = if cfg!(miri) { 1 << 12 } else { 1 << 20 };

type Histogram = [usize; 256];

#[inline]
fn digit<K: RadixKey>(key: K, shift: u32) -> usize {
    ((key.radix_bits() >> shift) & 0xff) as usize
}

/// Stable ascending sort of `keys`. Functionally equivalent to
/// `keys.sort_by_key(RadixKey::radix_bits)` (which for integers is plain
/// ascending order); much faster on large inputs. Purely host-side:
/// charges nothing to the simulated clock.
pub fn sort_keys<K: RadixKey>(keys: &mut [K]) {
    if keys.len() <= RADIX_CUTOFF {
        keys.sort_by_key(|k| k.radix_bits());
        return;
    }
    // A zero-sized payload: the value moves compile to nothing.
    radix_sort(keys, &mut vec![(); keys.len()]);
}

/// Stable ascending sort of `keys` carrying `vals` along — the payload
/// variant of [`sort_keys`]. Equal keys keep their input order.
///
/// # Panics
/// If `keys` and `vals` differ in length (callers validate first).
pub fn sort_pairs<K: RadixKey, V: Copy + Send + Sync + 'static>(keys: &mut [K], vals: &mut [V]) {
    assert_eq!(keys.len(), vals.len(), "sort_pairs length mismatch");
    if keys.len() <= RADIX_CUTOFF {
        let (mut tmp_k, mut tmp_v) = (keys.to_vec(), vals.to_vec());
        let (tmp_k, tmp_v) = (&mut tmp_k[..], &mut tmp_v[..]);
        return comparison_sort(Window {
            keys,
            vals,
            tmp_k,
            tmp_v,
        });
    }
    radix_sort(keys, vals);
}

/// One contiguous run of rows in both of the sort's arrays: the caller's
/// (`keys`, `vals`), where the sorted rows must end up, and the scratch
/// copy's. The four slices have one length.
struct Window<'a, K, V> {
    keys: &'a mut [K],
    vals: &'a mut [V],
    tmp_k: &'a mut [K],
    tmp_v: &'a mut [V],
}

impl<'a, K, V> Window<'a, K, V> {
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// The first `mid` rows and the rest.
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (keys, keys_rest) = self.keys.split_at_mut(mid);
        let (vals, vals_rest) = self.vals.split_at_mut(mid);
        let (tmp_k, tmp_k_rest) = self.tmp_k.split_at_mut(mid);
        let (tmp_v, tmp_v_rest) = self.tmp_v.split_at_mut(mid);
        let first = Window {
            keys,
            vals,
            tmp_k,
            tmp_v,
        };
        let rest = Window {
            keys: keys_rest,
            vals: vals_rest,
            tmp_k: tmp_k_rest,
            tmp_v: tmp_v_rest,
        };
        (first, rest)
    }

    /// `(src_k, src_v, dst_k, dst_v)` for a pass over rows that the scratch
    /// side holds (`in_tmp`) or the caller's.
    #[allow(clippy::type_complexity)]
    fn sides(&mut self, in_tmp: bool) -> (&mut [K], &mut [V], &mut [K], &mut [V]) {
        let Window {
            keys,
            vals,
            tmp_k,
            tmp_v,
        } = self;
        if in_tmp {
            (tmp_k, tmp_v, keys, vals)
        } else {
            (keys, vals, tmp_k, tmp_v)
        }
    }
}

/// The radix sort proper, for `n > RADIX_CUTOFF` rows.
fn radix_sort<K: RadixKey, V: Copy + Send + Sync + 'static>(keys: &mut [K], vals: &mut [V]) {
    let workers = host_threads();
    let Some(mask) = varying_bits(keys, workers) else {
        return; // in order already: the stable permutation is the identity
    };
    let mut scratch_k = keys.to_vec();
    let mut scratch_v = vals.to_vec();
    let window = Window {
        keys,
        vals,
        tmp_k: &mut scratch_k[..],
        tmp_v: &mut scratch_v[..],
    };
    sort_window(window, false, mask, workers);
    drop(scratch_k);
    drop(scratch_v);
}

/// Blocks a pass over `n` rows is cut into on `workers` threads.
fn block_count(n: usize, workers: usize) -> usize {
    if workers < 2 || n < 2 * MIN_BLOCK {
        1
    } else {
        (2 * workers).min(n / MIN_BLOCK)
    }
}

/// The key bits in which some two of `keys` differ, or `None` if the keys
/// are in order already. `keys` must not be empty. Two reads: the order
/// check, which ends in each block at its first descent, then the bits.
fn varying_bits<K: RadixKey>(keys: &[K], workers: usize) -> Option<u64> {
    let n = keys.len();
    let blocks = block_count(n, workers);
    let (workers, block_len) = (workers.min(blocks), n.div_ceil(blocks));
    let sorted = par_map_blocks(blocks, workers, |b| {
        let rows = piece_range(b, block_len, n);
        // Starting one row early makes the check span the block seams.
        keys[rows.start.saturating_sub(1)..rows.end]
            .windows(2)
            .all(|w| w[0].radix_bits() <= w[1].radix_bits())
    });
    if sorted.into_iter().all(|in_order| in_order) {
        return None;
    }
    let base = keys[0].radix_bits();
    let varying = par_map_blocks(blocks, workers, |b| {
        keys[piece_range(b, block_len, n)]
            .iter()
            .fold(0, |varying, k| varying | (k.radix_bits() ^ base))
    });
    Some(varying.into_iter().fold(0, |all, v| all | v))
}

/// The 8-bit digits that cover the set bits of `mask`, lowest first, each
/// as its shift. A digit starts at a set bit, so runs of constant bits
/// between the varying ones cost no pass.
fn digit_shifts(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let shift = mask.trailing_zeros();
            mask &= !(0xff << shift);
            shift
        })
    })
}

/// The shift of the digit to partition `n` rows on, when they are to be
/// partitioned: they do not fit the cache, and the varying bits (`mask`,
/// not zero) span more than one digit — the top one is the partition's.
fn partition_shift<K, V>(n: usize, mask: u64) -> Option<u32> {
    let (low, high) = (mask.trailing_zeros(), 63 - mask.leading_zeros());
    (!fits_cache::<K, V>(n) && high - low >= 8).then(|| high - 7)
}

/// Whether `n` rows are few enough for the LSD passes to take as they are.
fn fits_cache<K, V>(n: usize) -> bool {
    n * (std::mem::size_of::<K>() + std::mem::size_of::<V>()) <= CACHE_BYTES
}

/// Sort the rows of `w` — which its scratch side holds if `in_tmp`, else
/// the caller's — into the caller's side. `mask` has the key bits that
/// differ between rows of `w` (and maybe more); it is not zero.
fn sort_window<K: RadixKey, V: Copy + Send + Sync>(
    mut w: Window<'_, K, V>,
    in_tmp: bool,
    mask: u64,
    workers: usize,
) {
    let n = w.len();
    let Some(shift) = partition_shift::<K, V>(n, mask) else {
        return lsd_sort(w, in_tmp, mask, workers);
    };
    let (src_k, src_v, dst_k, dst_v) = w.sides(in_tmp);
    let mut offsets = count_digit(src_k, shift, workers);
    counts_to_offsets(&mut offsets);
    radix_pass(src_k, src_v, dst_k, dst_v, &offsets, shift, workers);
    // The rows have changed sides, and bucket `d` starts where block 0 put
    // its first row of digit `d`.
    let in_tmp = !in_tmp;
    let low_bits = mask & ((1 << shift) - 1);
    let mut small = Vec::new();
    let (mut rest, mut taken) = (w, 0);
    for d in 0..256 {
        let end = if d == 255 { n } else { offsets[0][d + 1] };
        let (mut bucket, tail) = rest.split_at(end - taken);
        (rest, taken) = (tail, end);
        if fits_cache::<K, V>(bucket.len()) {
            small.push(bucket);
            continue;
        }
        // Skew: many rows share this digit. The bucket gets every thread,
        // and a fresh look at which of its bits vary.
        match varying_bits(bucket.sides(in_tmp).0, workers) {
            Some(own) => sort_window(bucket, in_tmp, own, workers),
            None if in_tmp => {
                bucket.keys.copy_from_slice(bucket.tmp_k);
                bucket.vals.copy_from_slice(bucket.tmp_v);
            }
            None => {}
        }
    }
    for_each_owned(small, workers, |_, bucket| {
        lsd_sort(bucket, in_tmp, low_bits, 1)
    });
}

/// Sort the rows of `w` (see [`sort_window`]) by LSD passes over the digits
/// of `mask`, on `workers` threads.
fn lsd_sort<K: RadixKey, V: Copy + Send + Sync>(
    mut w: Window<'_, K, V>,
    mut in_tmp: bool,
    mask: u64,
    workers: usize,
) {
    let n = w.len();
    if n <= RADIX_CUTOFF {
        if !in_tmp {
            w.tmp_k.copy_from_slice(w.keys);
            w.tmp_v.copy_from_slice(w.vals);
        }
        return comparison_sort(w);
    }
    let (mut src_k, mut src_v, mut dst_k, mut dst_v) = w.sides(in_tmp);
    for shift in digit_shifts(mask) {
        let mut offsets = count_digit(src_k, shift, workers);
        // A digit that is constant across the rows (`mask` may name more
        // bits than vary here) makes its pass an identity permutation.
        if (0..256).any(|d| offsets.iter().map(|block| block[d]).sum::<usize>() == n) {
            continue;
        }
        counts_to_offsets(&mut offsets);
        radix_pass(src_k, src_v, dst_k, dst_v, &offsets, shift, workers);
        std::mem::swap(&mut src_k, &mut dst_k);
        std::mem::swap(&mut src_v, &mut dst_v);
        in_tmp = !in_tmp;
    }
    if in_tmp {
        // The sorted rows sit in the scratch side, which `src` now names.
        dst_k.copy_from_slice(src_k);
        dst_v.copy_from_slice(src_v);
    }
}

/// Stable comparison sort of the rows in the scratch side of `w` into the
/// caller's side, for at most [`RADIX_CUTOFF`] rows.
fn comparison_sort<K: RadixKey, V: Copy>(w: Window<'_, K, V>) {
    let mut perm = [0usize; RADIX_CUTOFF];
    let perm = &mut perm[..w.len()];
    perm.iter_mut().enumerate().for_each(|(i, p)| *p = i);
    perm.sort_by_key(|&i| w.tmp_k[i].radix_bits());
    for (dst, &src) in perm.iter().enumerate() {
        w.keys[dst] = w.tmp_k[src];
        w.vals[dst] = w.tmp_v[src];
    }
}

/// Per block of `keys` (as [`block_count`] cuts them), how many keys have
/// each value of the digit at `shift`.
fn count_digit<K: RadixKey>(keys: &[K], shift: u32, workers: usize) -> Vec<Histogram> {
    let n = keys.len();
    let blocks = block_count(n, workers);
    let block_len = n.div_ceil(blocks);
    par_map_blocks(blocks, workers.min(blocks), |b| {
        let mut hist = [0usize; 256];
        for &k in &keys[piece_range(b, block_len, n)] {
            hist[digit(k, shift)] += 1;
        }
        hist
    })
}

/// Exclusive scan in (digit, block) order: each block's count of a digit
/// becomes the place where its first row of that digit goes.
fn counts_to_offsets(counts: &mut [Histogram]) {
    let mut next = 0usize;
    for d in 0..256 {
        for block in counts.iter_mut() {
            next += std::mem::replace(&mut block[d], next);
        }
    }
}

/// A destination array several blocks scatter into at once.
struct Scatter<T>(*mut T);

// SAFETY: a `Scatter` is only a base address; `radix_pass` argues that the
// threads sharing it write disjoint elements, and `T: Send` lets the values
// written on one thread be read and dropped on another.
unsafe impl<T: Send> Sync for Scatter<T> {}

impl<T> Scatter<T> {
    /// # Safety
    /// `at` must be in bounds of the allocation, and no other thread may
    /// access element `at` until the region that shares `self` has ended.
    #[inline]
    unsafe fn write(&self, at: usize, value: T) {
        // SAFETY: forwarded to the caller.
        unsafe { self.0.add(at).write(value) }
    }
}

/// One stable scatter pass: block `b` copies its rows of `src` to `dst`
/// starting, for each digit value, at `offsets[b][digit]`.
fn radix_pass<K: RadixKey, V: Copy + Send + Sync>(
    src_k: &[K],
    src_v: &[V],
    dst_k: &mut [K],
    dst_v: &mut [V],
    offsets: &[Histogram],
    shift: u32,
    workers: usize,
) {
    let n = src_k.len();
    assert!(src_v.len() == n && dst_k.len() == n && dst_v.len() == n);
    let blocks = offsets.len();
    let block_len = n.div_ceil(blocks);
    let (out_k, out_v) = (Scatter(dst_k.as_mut_ptr()), Scatter(dst_v.as_mut_ptr()));
    for_each_index(blocks, workers, |b| {
        let mut at = offsets[b];
        let rows = piece_range(b, block_len, n);
        for (&k, &v) in src_k[rows.clone()].iter().zip(&src_v[rows]) {
            let slot = &mut at[digit(k, shift)];
            debug_assert!(*slot < n);
            // SAFETY: `offsets` is the exclusive scan, in (digit, block)
            // order, of each block's digit counts over these same `src_k`
            // rows with this same pure `digit` (RadixKey is sealed). Block
            // `b` thus owns, for digit `d`, the range of `dst` starting at
            // `offsets[b][d]` and as long as its count of `d`, and writes
            // exactly that many rows there; the ranges of all (digit,
            // block) pairs tile `0..n`, all four slices have length `n`
            // (asserted above), so every write is in bounds and no two
            // threads write the same element. Nothing reads `dst` before
            // `for_each_index` returns, and `dst_k`/`dst_v` are exclusively
            // borrowed for this call, so the raw pointers are the only
            // access path meanwhile.
            unsafe {
                out_k.write(*slot, k);
                out_v.write(*slot, v);
            }
            *slot += 1;
        }
    });
}
