//! Process-wide recycling allocator for large host blocks.
//!
//! The simulator's host execution continuously allocates and frees
//! multi-megabyte staging vectors (sort scratch, gather outputs, the copy
//! a write to a shared buffer makes; a column several buffers share is
//! one block, freed when its last sharer drops). The system allocator
//! hands such blocks straight back to the kernel on free, so every
//! reallocation pays the full cost of faulting the pages in again — on
//! virtualised hosts that dwarfs the actual compute. `RecyclingAlloc` keeps freed large blocks in per-size free
//! lists and reuses them, so pages are faulted once per high-water mark
//! instead of once per allocation.
//!
//! The allocator is purely a host-side mechanism: it changes *when* the
//! process asks the OS for memory, never what any simulation computes or
//! charges. Small allocations (below `MIN_RECYCLE_BYTES`, 64 KiB) and unusual
//! alignments pass straight through to the system allocator.
//!
//! Design notes:
//! * Requests are rounded up to a power of two, which makes the bucket a
//!   pure function of the layout — `dealloc` recomputes it without any
//!   side table.
//! * Each bucket is an intrusive singly-linked stack (the freed block's
//!   first word stores the next pointer) guarded by a spinlock, so the
//!   allocator itself never allocates.
//! * Buckets cap what they cache by bytes (`MAX_CACHED_BYTES_PER_BUCKET`,
//!   never fewer than `MIN_CACHED_PER_BUCKET` blocks); overflow goes back
//!   to the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

/// Smallest request worth recycling. Below this the system allocator's
/// own small-object caching is already fine.
pub(crate) const MIN_RECYCLE_BYTES: usize = 64 * 1024;

/// log2 of [`MIN_RECYCLE_BYTES`] — index origin of the bucket array.
const MIN_SHIFT: u32 = 16;

/// Number of power-of-two size classes: 64 KiB up to 2 TiB.
const BUCKETS: usize = 35;

/// Bytes a size class may keep cached. One query frees a few dozen
/// same-class columns at once and the next one takes them all back; a cap
/// counted in blocks that is right for the multi-megabyte classes evicts
/// most of such a burst in the small ones, and every evicted block is a
/// fresh mapping (and its page faults) a moment later.
const MAX_CACHED_BYTES_PER_BUCKET: usize = 32 << 20;

/// Blocks every size class may keep cached however large they are.
const MIN_CACHED_PER_BUCKET: usize = 8;

/// Most blocks class `idx` keeps cached: the byte cap's worth, at least
/// [`MIN_CACHED_PER_BUCKET`].
#[inline]
fn max_cached(idx: usize) -> usize {
    (MAX_CACHED_BYTES_PER_BUCKET / bucket_size(idx)).max(MIN_CACHED_PER_BUCKET)
}

/// Largest alignment served from the cache. Every recyclable block is
/// allocated with this alignment so any cached block satisfies any
/// recyclable request of its class.
const MAX_RECYCLE_ALIGN: usize = 16;

struct Bucket {
    lock: AtomicBool,
    head: AtomicPtr<u8>,
    count: std::sync::atomic::AtomicUsize,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_BUCKET: Bucket = Bucket {
    lock: AtomicBool::new(false),
    head: AtomicPtr::new(ptr::null_mut()),
    count: std::sync::atomic::AtomicUsize::new(0),
};

static FREE_LISTS: [Bucket; BUCKETS] = [EMPTY_BUCKET; BUCKETS];

/// Large-block traffic counters, queryable via [`stats`].
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Recycling effectiveness counters since process start:
/// `(cache_hits, cache_misses, evictions)`. A rising eviction count with
/// steady traffic means the per-class byte cap is too small for the
/// workload's working set.
pub fn stats() -> (u64, u64, u64) {
    (
        HITS.load(Ordering::Relaxed),
        MISSES.load(Ordering::Relaxed),
        EVICTIONS.load(Ordering::Relaxed),
    )
}

/// Size class for `size`, or `None` when the request is not recyclable.
#[inline]
fn bucket_index(size: usize, align: usize) -> Option<usize> {
    if size < MIN_RECYCLE_BYTES || align > MAX_RECYCLE_ALIGN {
        return None;
    }
    let idx = (usize::BITS - (size - 1).leading_zeros()).saturating_sub(MIN_SHIFT) as usize;
    (idx < BUCKETS).then_some(idx)
}

/// The rounded allocation size of a bucket.
#[inline]
fn bucket_size(idx: usize) -> usize {
    1usize << (MIN_SHIFT as usize + idx)
}

/// The layout actually passed to the system allocator for a bucket.
#[inline]
fn bucket_layout(idx: usize) -> Layout {
    // SAFETY: size is a power of two >= 64 KiB, align is 16.
    unsafe { Layout::from_size_align_unchecked(bucket_size(idx), MAX_RECYCLE_ALIGN) }
}

struct BucketGuard<'a>(&'a Bucket);

impl<'a> BucketGuard<'a> {
    fn lock(b: &'a Bucket) -> Self {
        while b
            .lock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        BucketGuard(b)
    }
}

impl Drop for BucketGuard<'_> {
    fn drop(&mut self) {
        self.0.lock.store(false, Ordering::Release);
    }
}

/// Pop a cached block of class `idx`, if any.
fn pop_block(idx: usize) -> *mut u8 {
    let b = &FREE_LISTS[idx];
    if b.head.load(Ordering::Relaxed).is_null() {
        return ptr::null_mut();
    }
    let _g = BucketGuard::lock(b);
    let head = b.head.load(Ordering::Relaxed);
    if head.is_null() {
        return ptr::null_mut();
    }
    // SAFETY: blocks on the list were pushed by `push_block` with their
    // first word holding the next pointer.
    let next = unsafe { *(head as *mut *mut u8) };
    b.head.store(next, Ordering::Relaxed);
    b.count.fetch_sub(1, Ordering::Relaxed);
    head
}

/// Cache a block of class `idx`; returns `false` when the bucket is full
/// and the caller must free the block itself.
fn push_block(idx: usize, block: *mut u8) -> bool {
    let b = &FREE_LISTS[idx];
    let _g = BucketGuard::lock(b);
    if b.count.load(Ordering::Relaxed) >= max_cached(idx) {
        return false;
    }
    let head = b.head.load(Ordering::Relaxed);
    // SAFETY: the block is at least 64 KiB and 16-aligned; its first word
    // is dead storage once freed.
    unsafe { *(block as *mut *mut u8) = head };
    b.head.store(block, Ordering::Relaxed);
    b.count.fetch_add(1, Ordering::Relaxed);
    true
}

/// Global allocator that recycles large blocks through per-size free
/// lists. Installed by the `gpu-sim` crate for every binary that links
/// it; see the module docs for the rationale.
#[derive(Debug)]
pub(crate) struct RecyclingAlloc;

// SAFETY: delegates to `System` for everything it does not cache; cached
// blocks are only ever handed out to layouts whose rounded size and
// alignment they satisfy.
unsafe impl GlobalAlloc for RecyclingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match bucket_index(layout.size(), layout.align()) {
            Some(idx) => {
                let cached = pop_block(idx);
                if !cached.is_null() {
                    HITS.fetch_add(1, Ordering::Relaxed);
                    cached
                } else {
                    MISSES.fetch_add(1, Ordering::Relaxed);
                    // SAFETY: bucket_layout(idx) has nonzero power-of-two
                    // size covering layout.size() and align 16 >=
                    // layout.align() (bucket_index rejects larger aligns).
                    unsafe { System.alloc(bucket_layout(idx)) }
                }
            }
            // SAFETY: caller upholds GlobalAlloc::alloc's contract
            // (nonzero size); the layout is forwarded untouched.
            None => unsafe { System.alloc(layout) },
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        match bucket_index(layout.size(), layout.align()) {
            Some(idx) => {
                if !push_block(idx, ptr) {
                    EVICTIONS.fetch_add(1, Ordering::Relaxed);
                    // SAFETY: every block of this class was allocated with
                    // bucket_layout(idx) (see alloc/alloc_zeroed), so
                    // freeing with the same layout is correct.
                    unsafe { System.dealloc(ptr, bucket_layout(idx)) };
                }
            }
            // SAFETY: non-recyclable blocks were forwarded to System with
            // this exact layout in alloc; the caller guarantees ptr came
            // from this allocator with this layout.
            None => unsafe { System.dealloc(ptr, layout) },
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        match bucket_index(layout.size(), layout.align()) {
            Some(idx) => {
                let cached = pop_block(idx);
                if !cached.is_null() {
                    HITS.fetch_add(1, Ordering::Relaxed);
                    // SAFETY: cached is a live block of bucket_size(idx)
                    // >= layout.size() bytes owned by the free list, so
                    // zeroing layout.size() bytes stays in bounds.
                    unsafe { ptr::write_bytes(cached, 0, layout.size()) };
                    cached
                } else {
                    MISSES.fetch_add(1, Ordering::Relaxed);
                    // SAFETY: as in alloc — the bucket layout covers the
                    // requested layout's size and alignment.
                    unsafe { System.alloc_zeroed(bucket_layout(idx)) }
                }
            }
            // SAFETY: caller upholds GlobalAlloc::alloc_zeroed's contract;
            // the layout is forwarded untouched.
            None => unsafe { System.alloc_zeroed(layout) },
        }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let old = bucket_index(layout.size(), layout.align());
        let new = bucket_index(new_size, layout.align());
        match (old, new) {
            // Still the same size class: the block is already big enough.
            (Some(a), Some(b)) if a == b => p,
            // Class change (or crossing the recycle threshold): move.
            (Some(_), _) | (_, Some(_)) => {
                // SAFETY: layout.align() came from a valid Layout and
                // new_size is the caller-requested size, which the
                // GlobalAlloc contract requires to round up validly.
                let new_layout =
                    unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
                // SAFETY: new_layout is valid per above; alloc's own
                // contract requirements are met by the caller's.
                let dst = unsafe { self.alloc(new_layout) };
                if !dst.is_null() {
                    // SAFETY: p is live with layout.size() readable bytes,
                    // dst was just allocated with >= min(old, new) bytes,
                    // and the two blocks are distinct allocations.
                    unsafe { ptr::copy_nonoverlapping(p, dst, layout.size().min(new_size)) };
                    // SAFETY: p was allocated by this allocator with
                    // `layout` (caller contract) and is no longer used.
                    unsafe { self.dealloc(p, layout) };
                }
                dst
            }
            // SAFETY: non-recyclable in both classes means the block was
            // forwarded to System originally; forwarding realloc is sound.
            (None, None) => unsafe { System.realloc(p, layout, new_size) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_and_large_buckets() {
        assert_eq!(bucket_index(1, 8), None, "small passes through");
        assert_eq!(bucket_index(64 * 1024, 8), Some(0));
        assert_eq!(bucket_index(64 * 1024 + 1, 8), Some(1));
        assert_eq!(bucket_index(1 << 20, 16), Some(4));
        assert_eq!(
            bucket_index(1 << 20, 64),
            None,
            "over-aligned passes through"
        );
        assert_eq!(bucket_size(4), 1 << 20);
    }

    #[test]
    fn small_classes_cache_a_burst_and_large_ones_eight_blocks() {
        assert_eq!(max_cached(0), 512, "64 KiB");
        assert_eq!(max_cached(4), 32, "1 MiB");
        assert_eq!(max_cached(6), 8, "4 MiB: the byte cap's worth");
        assert_eq!(max_cached(8), 8, "16 MiB: the floor");
        assert_eq!(max_cached(BUCKETS - 1), 8);
    }

    #[test]
    fn free_list_round_trip() {
        // Drive the free list directly (concurrent tests share the global
        // buckets, so pointer-identity through `Vec` would be racy).
        let idx = BUCKETS - 1; // 2 TiB class — no real allocation uses it
        assert!(pop_block(idx).is_null(), "top bucket starts empty");
        let mut storage = [0u8; 64];
        let block = storage
            .as_mut_ptr()
            .wrapping_add(storage.as_ptr().align_offset(16));
        assert!(push_block(idx, block), "bucket has room");
        assert_eq!(pop_block(idx), block, "pop returns the cached block");
        assert!(pop_block(idx).is_null(), "bucket drained");
    }

    #[test]
    fn big_vec_contents_survive_recycling() {
        let v: Vec<u64> = vec![7; 1 << 18]; // 2 MiB
        drop(v);
        let w: Vec<u64> = vec![9; 1 << 18];
        assert!(w.iter().all(|&x| x == 9), "contents are the new fill");
    }

    #[test]
    fn zeroed_alloc_is_zero_after_recycling() {
        let v: Vec<u8> = vec![0xAB; 1 << 20];
        drop(v);
        let z: Vec<u8> = vec![0; 1 << 20];
        assert!(
            z.iter().all(|&x| x == 0),
            "recycled zeroed block must be cleared"
        );
    }

    #[test]
    fn vec_growth_across_classes_preserves_contents() {
        let mut v: Vec<u32> = Vec::with_capacity(32 * 1024); // 128 KiB class
        v.extend(0..32 * 1024u32);
        v.reserve_exact(v.capacity() + 1); // force a class change
        v.push(u32::MAX);
        for (i, &x) in v[..32 * 1024].iter().enumerate() {
            assert_eq!(x, i as u32);
        }
        assert_eq!(*v.last().unwrap(), u32::MAX);
    }
}
