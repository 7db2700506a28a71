//! Host staging-vector helpers over the recycling allocator.
//!
//! The simulator's "device memory" physically lives in host `Vec`s, and
//! the hot pipelines (multi-pass sorts, per-iteration output buffers)
//! allocate and drop multi-megabyte staging vectors constantly. All of
//! that traffic is absorbed by the process-wide
//! [`hostalloc`](crate::hostalloc) free lists, so these helpers are thin:
//! they express the caller's *contract* for the storage it asks for
//! (zeroed, scratch, or a copy) and hand the blocks straight back to the
//! allocator on [`put_vec`], where every later large allocation — whether
//! it comes through this module, `Vec::with_capacity`, or `collect()` —
//! can reuse the already-faulted pages.
//!
//! Everything here is purely host-side: simulated allocation cost is
//! accounted by [`crate::Device`] exactly as before, and every `take_*`
//! function returns storage whose contents are fully specified by its
//! contract, so results cannot depend on what previously occupied the
//! pages.

/// Release a vector's storage for reuse. With the recycling allocator
/// installed this is just `drop` — the block lands on the process-wide
/// free list where *any* subsequent large allocation can pick it up.
/// Kept as an explicit call so hot paths document where storage retires.
pub fn put_vec<T: 'static>(v: Vec<T>) {
    drop(v);
}

/// A `vec![T::default(); len]` equivalent: every element is
/// `T::default()`.
pub(crate) fn take_zeroed<T: Clone + Default + 'static>(len: usize) -> Vec<T> {
    vec![T::default(); len]
}

/// A length-`len` vector for callers that overwrite every element before
/// reading any. The contents start as `T::default()` — the "scratch"
/// name records the caller's contract (no element is read before it is
/// written), which is what makes the pooled reuse underneath safe.
pub fn take_scratch<T: Copy + Default + 'static>(len: usize) -> Vec<T> {
    vec![T::default(); len]
}

/// A copy of `src` in recycled storage.
pub fn take_from_slice<T: Copy + 'static>(src: &[T]) -> Vec<T> {
    src.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_is_zeroed() {
        let w: Vec<u64> = take_zeroed(5_000);
        assert_eq!(w.len(), 5_000);
        assert!(w.iter().all(|&x| x == 0));
    }

    #[test]
    fn take_from_slice_copies() {
        let src = vec![1u32, 2, 3];
        let v = take_from_slice(&src);
        assert_eq!(v, src);
    }

    #[test]
    fn scratch_has_requested_length() {
        let v: Vec<f64> = take_scratch(1234);
        assert_eq!(v.len(), 1234);
    }
}
