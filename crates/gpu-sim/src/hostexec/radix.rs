//! Block-parallel stable LSD radix sort over 8-bit digits.
//!
//! One pass orders the rows by one digit: the input is cut into contiguous
//! *blocks*, every block counts its rows per digit value, an exclusive scan
//! over the counts in (digit, block) order gives each block the place where
//! its rows of each digit go, and every block then copies its rows there in
//! input order. Rows with equal digits therefore land in block order and,
//! within a block, in input order — the pass is stable however many blocks
//! there are. A sequence of stable passes from the least significant digit
//! up yields the one permutation that sorts the keys and keeps equal keys
//! in input order, so the output does not depend on the block count, and
//! with it not on the thread count. With one block the same code is the
//! classic serial LSD sort.

use super::{for_each_index, host_threads, par_map_blocks, piece_range};

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
    /// Number of 8-bit digit passes covering the key width.
    const PASSES: usize;
    /// Order-preserving mapping into unsigned bits (low `8 * PASSES` bits).
    fn radix_bits(self) -> u64;
}

macro_rules! radix_key {
    ($($t:ty, $passes:expr, |$k:ident| $bits:expr;)*) => {$(
        impl sealed::Sealed for $t {}
        impl RadixKey for $t {
            const PASSES: usize = $passes;
            #[inline]
            fn radix_bits(self) -> u64 {
                let $k = self;
                $bits
            }
        }
    )*};
}

radix_key! {
    u8, 1, |k| u64::from(k);
    u16, 2, |k| u64::from(k);
    u32, 4, |k| u64::from(k);
    u64, 8, |k| k;
    i32, 4, |k| u64::from((k as u32) ^ 0x8000_0000);
    i64, 8, |k| (k as u64) ^ (1 << 63);
    // IEEE-754 total order: flip the sign bit of non-negatives, all bits of
    // negatives. Matches `partial_cmp` on every non-NaN input (NaNs order
    // last).
    f64, 8, |k| {
        let b = k.to_bits();
        if b >> 63 == 0 { b ^ (1 << 63) } else { !b }
    };
}

/// Inputs at or below this length use a stable comparison sort instead:
/// the histogram set-up of the radix sort costs more than it saves there.
pub(super) const RADIX_CUTOFF: usize = 256;

/// Fewest rows worth a block of their own: below two of these the sort
/// runs as a single block on the calling thread.
pub(super) const MIN_BLOCK: usize = if cfg!(miri) { 1 << 6 } else { 1 << 15 };

type Histogram = [usize; 256];

#[inline]
fn digit<K: RadixKey>(key: K, shift: usize) -> usize {
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
    let n = keys.len();
    if n <= RADIX_CUTOFF {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_by_key(|&i| keys[i as usize].radix_bits());
        let (old_k, old_v) = (keys.to_vec(), vals.to_vec());
        for (dst, &src) in perm.iter().enumerate() {
            keys[dst] = old_k[src as usize];
            vals[dst] = old_v[src as usize];
        }
        return;
    }
    radix_sort(keys, vals);
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

/// The radix sort proper, for `n > RADIX_CUTOFF` rows.
fn radix_sort<K: RadixKey, V: Copy + Send + Sync + 'static>(keys: &mut [K], vals: &mut [V]) {
    let n = keys.len();
    if keys
        .windows(2)
        .all(|w| w[0].radix_bits() <= w[1].radix_bits())
    {
        return; // in order already: the stable permutation is the identity
    }
    let workers = if n < 2 * MIN_BLOCK { 1 } else { host_threads() };
    let blocks = if workers < 2 {
        1
    } else {
        (2 * workers).min(n / MIN_BLOCK)
    };
    let block_len = n.div_ceil(blocks);

    // Every pass's digit counts per block, from one read of the keys. The
    // sums over blocks tell which passes have anything to do; the per-block
    // counts themselves are those of the first such pass (later passes see
    // the rows in a different order and count again).
    let first: Vec<Vec<Histogram>> = par_map_blocks(blocks, workers, |b| {
        let mut hist = vec![[0usize; 256]; K::PASSES];
        for k in &keys[piece_range(b, block_len, n)] {
            let bits = k.radix_bits();
            for (p, h) in hist.iter_mut().enumerate() {
                h[((bits >> (8 * p)) & 0xff) as usize] += 1;
            }
        }
        hist
    });
    // A digit that is constant across the input makes its pass an identity
    // permutation.
    let active: Vec<usize> = (0..K::PASSES)
        .filter(|&p| !(0..256).any(|d| first.iter().map(|h| h[p][d]).sum::<usize>() == n))
        .collect();

    let mut scratch_k = crate::hostmem::take_from_slice(keys);
    let mut scratch_v = crate::hostmem::take_from_slice(vals);
    let (mut src_k, mut dst_k) = (&mut *keys, &mut scratch_k[..]);
    let (mut src_v, mut dst_v) = (&mut *vals, &mut scratch_v[..]);
    for (nth, &p) in active.iter().enumerate() {
        let shift = 8 * p;
        let mut counts: Vec<Histogram> = if nth == 0 {
            first.iter().map(|h| h[p]).collect()
        } else {
            par_map_blocks(blocks, workers, |b| {
                let mut hist = [0usize; 256];
                for &k in &src_k[piece_range(b, block_len, n)] {
                    hist[digit(k, shift)] += 1;
                }
                hist
            })
        };
        // Exclusive scan in (digit, block) order: counts become offsets.
        let mut next = 0usize;
        for d in 0..256 {
            for block in counts.iter_mut() {
                next += std::mem::replace(&mut block[d], next);
            }
        }
        radix_pass(src_k, src_v, dst_k, dst_v, &counts, shift, workers);
        std::mem::swap(&mut src_k, &mut dst_k);
        std::mem::swap(&mut src_v, &mut dst_v);
    }
    if active.len() % 2 == 1 {
        // The sorted rows sit in the scratch arrays, which `src` now names.
        dst_k.copy_from_slice(src_k);
        dst_v.copy_from_slice(src_v);
    }
    crate::hostmem::put_vec(scratch_k);
    crate::hostmem::put_vec(scratch_v);
}

/// One stable scatter pass: block `b` copies its rows of `src` to `dst`
/// starting, for each digit value, at `offsets[b][digit]`.
fn radix_pass<K: RadixKey, V: Copy + Send + Sync>(
    src_k: &[K],
    src_v: &[V],
    dst_k: &mut [K],
    dst_v: &mut [V],
    offsets: &[Histogram],
    shift: usize,
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
