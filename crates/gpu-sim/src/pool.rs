//! Caching device-memory pool.
//!
//! `cudaMalloc`/`clCreateBuffer` round-trips cost ~0.1 ms — enough to
//! dominate small operator calls. Thrust's `caching_allocator` and
//! ArrayFire's memory manager therefore recycle freed blocks. The simulator
//! models that: allocations are bucketed into power-of-two size classes;
//! freeing a pooled buffer parks its size class on a free list, and a
//! later allocation of the same class is a *pool hit* that skips the driver
//! latency.
//!
//! The pool tracks only **cost accounting** — actual storage lives in the
//! buffer's host `Vec`. That keeps the model simple while preserving the
//! timing behaviour the paper's libraries exhibit.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Allocation strategy for a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// Every allocation/free is a driver round-trip (`cudaMalloc` cost).
    Raw,
    /// Allocations are served from the caching pool when possible.
    #[default]
    Pooled,
}

/// Observable pool behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Allocations served from the free list.
    pub hits: u64,
    /// Allocations that had to go to the driver.
    pub misses: u64,
    /// Bytes currently parked on free lists.
    pub cached_bytes: u64,
}

/// Size-class based caching allocator (cost model only).
#[derive(Debug, Default)]
pub struct MemoryPool {
    /// size-class (log2 of bytes, rounded up) → number of cached blocks.
    free: BTreeMap<u32, u64>,
    stats: PoolStats,
}

/// Smallest allocation granularity (real pools round tiny requests up).
const MIN_CLASS: u32 = 8; // 256 B

fn size_class(bytes: u64) -> u32 {
    let bits = 64 - bytes.max(1).saturating_sub(1).leading_zeros();
    bits.max(MIN_CLASS)
}

/// Bytes actually reserved for a request (its size class capacity).
pub(crate) fn rounded_size(bytes: u64) -> u64 {
    1u64 << size_class(bytes)
}

impl MemoryPool {
    /// Fresh, empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Try to serve `bytes` from the cache. Returns `true` on a hit.
    pub fn try_acquire(&mut self, bytes: u64) -> bool {
        let class = size_class(bytes);
        match self.free.get_mut(&class) {
            Some(n) if *n > 0 => {
                *n -= 1;
                self.stats.hits += 1;
                self.stats.cached_bytes -= 1u64 << class;
                true
            }
            _ => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Return a block of `bytes` to the cache.
    pub fn release(&mut self, bytes: u64) {
        let class = size_class(bytes);
        *self.free.entry(class).or_insert(0) += 1;
        self.stats.cached_bytes += 1u64 << class;
    }

    /// Drop all cached blocks (models `cudaDeviceReset` / pool trim) and
    /// return how many bytes were released to the driver.
    pub fn trim(&mut self) -> u64 {
        let released = self.stats.cached_bytes;
        self.free.clear();
        self.stats.cached_bytes = 0;
        released
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_round_up_to_powers_of_two() {
        assert_eq!(rounded_size(1), 256, "tiny requests hit the floor class");
        assert_eq!(rounded_size(256), 256);
        assert_eq!(rounded_size(257), 512);
        assert_eq!(rounded_size(1 << 20), 1 << 20);
        assert_eq!(rounded_size((1 << 20) + 1), 1 << 21);
    }

    #[test]
    fn first_allocation_misses_then_hits_after_release() {
        let mut pool = MemoryPool::new();
        assert!(!pool.try_acquire(1000), "cold pool must miss");
        pool.release(1000);
        assert!(pool.try_acquire(1000), "warm pool must hit");
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn different_size_classes_do_not_alias() {
        let mut pool = MemoryPool::new();
        pool.release(300); // class 512
        assert!(!pool.try_acquire(5000), "larger class must miss");
        assert!(pool.try_acquire(400), "same class must hit");
    }

    #[test]
    fn cached_bytes_track_releases() {
        let mut pool = MemoryPool::new();
        pool.release(1024);
        pool.release(1024);
        assert_eq!(pool.stats().cached_bytes, 2048);
        pool.try_acquire(1024);
        assert_eq!(pool.stats().cached_bytes, 1024);
        assert_eq!(pool.trim(), 1024);
        assert_eq!(pool.stats().cached_bytes, 0);
    }

    #[test]
    fn default_policy_is_pooled() {
        assert_eq!(AllocPolicy::default(), AllocPolicy::Pooled);
    }
}
