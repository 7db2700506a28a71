//! Device buffers.
//!
//! A [`DeviceBuffer<T>`] models a contiguous allocation in GPU global
//! memory. Storage physically lives in a host `Vec<T>` (the simulator
//! executes kernels functionally on the CPU), but all *cost* behaviour —
//! allocation latency, pooling, memory accounting, transfer charging —
//! follows the device model. Library crates wrap this type in their own
//! abstractions (`thrust::DeviceVector`, `boost::Vector`, `af::Array`).

use crate::device::Device;
use crate::pool::AllocPolicy;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Marker for element types that may live in device memory.
///
/// Mirrors CUDA's requirement that device data be trivially copyable.
/// Blanket-implemented for every `Copy` type that is thread-safe.
pub trait DeviceCopy: Copy + Send + Sync + 'static {}
impl<T: Copy + Send + Sync + 'static> DeviceCopy for T {}

/// Identity of a device buffer, unique per device for the device's
/// lifetime (ids are never reused, so a trace can tell a use-after-free
/// from a fresh allocation that recycled the same memory).
///
/// This is the currency of the trace IR: allocation, free and transfer
/// events name the buffers they touch by id, and io-aware kernel
/// launches declare their read/write sets as id lists (see
/// [`crate::trace::KernelIo`]).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct BufferId(pub u64);

impl std::fmt::Display for BufferId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Device memory that is accounted but not backed by host storage.
///
/// A reservation takes a [`BufferId`] and goes through exactly the
/// allocation path a [`DeviceBuffer`] does — pool, memory accounting,
/// alloc fault site, `Alloc`/`PoolAlloc` trace event, and `Free` on drop —
/// so the device cannot tell the two apart. It exists for buffers whose
/// *contents* nobody reads: the intermediates of a library chain whose
/// result was computed another way (see DESIGN.md §5, "bodies vs.
/// charges"). Being its own type, it cannot be read, copied from or
/// downloaded; [`Reservation::into_buffer`] turns it into a real buffer
/// once a kernel body has produced the data it stands for.
#[derive(Debug)]
pub struct Reservation {
    device: Arc<Device>,
    policy: AllocPolicy,
    /// Logical payload size in bytes.
    bytes: u64,
    /// Bytes charged against device memory (size-class rounded).
    alloc_bytes: u64,
    id: BufferId,
}

impl Reservation {
    pub(crate) fn from_parts(
        device: Arc<Device>,
        policy: AllocPolicy,
        bytes: u64,
        alloc_bytes: u64,
        id: BufferId,
    ) -> Self {
        Reservation {
            device,
            policy,
            bytes,
            alloc_bytes,
            id,
        }
    }

    /// The identity trace events and kernel read/write sets refer to.
    pub fn id(&self) -> BufferId {
        self.id
    }

    /// Logical payload size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.bytes
    }

    /// Back the reservation with `data`: the buffer keeps this
    /// reservation's id and accounting, and the device sees no event.
    ///
    /// # Panics
    /// If `data` is not exactly the reserved payload size — the caller
    /// sized the reservation for other data, which is a bug.
    pub fn into_buffer<T: DeviceCopy>(self, data: Vec<T>) -> DeviceBuffer<T> {
        assert_eq!(
            (data.len() * std::mem::size_of::<T>()) as u64,
            self.bytes,
            "reservation {} filled with data of another size",
            self.id
        );
        DeviceBuffer { data, res: self }
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.device
            .on_buffer_free(self.id, self.alloc_bytes, self.policy);
    }
}

/// A typed allocation in simulated device global memory: a
/// [`Reservation`] plus the host storage that stands in for its contents.
#[derive(Debug)]
pub struct DeviceBuffer<T: DeviceCopy> {
    data: Vec<T>,
    res: Reservation,
}

impl<T: DeviceCopy> DeviceBuffer<T> {
    /// This buffer's device-unique identity (what trace events and
    /// kernel read/write sets refer to).
    pub fn id(&self) -> BufferId {
        self.res.id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Logical payload size in bytes (`len * size_of::<T>()`).
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<T>()) as u64
    }

    /// The device this buffer lives on.
    pub fn device(&self) -> &Arc<Device> {
        &self.res.device
    }

    /// The allocation policy used for this buffer.
    pub fn policy(&self) -> AllocPolicy {
        self.res.policy
    }

    /// Read-only view of the backing storage. In a real system this would
    /// be a device pointer; kernels in this simulator read through it.
    pub fn host(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing storage, used by kernel bodies.
    pub fn host_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Shorten the buffer to `len` elements (used after stream compaction,
    /// where the output size is only known post-kernel). The device
    /// reservation is unchanged — exactly like `cudaMalloc`'d memory.
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }
}

impl<T: DeviceCopy> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        // Recycle the host storage: faulting fresh pages for the next
        // buffer is far more expensive than reusing these warm ones. The
        // reservation frees the device memory when it drops right after.
        drop(std::mem::take(&mut self.data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;

    #[test]
    fn buffer_basics() {
        let dev = Device::new(DeviceSpec::gtx1080());
        let mut buf = dev.alloc::<u32>(10).unwrap();
        assert_eq!(buf.len(), 10);
        assert!(!buf.is_empty());
        assert_eq!(buf.size_bytes(), 40);
        buf.host_mut()[3] = 42;
        assert_eq!(buf.host()[3], 42);
        buf.truncate(4);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.size_bytes(), 16);
    }

    #[test]
    fn drop_releases_device_memory() {
        let dev = Device::new(DeviceSpec::gtx1080());
        let before = dev.mem_in_use();
        {
            let _buf = dev.alloc::<u64>(1 << 16).unwrap();
            assert!(dev.mem_in_use() > before);
        }
        // Pooled memory stays reserved in the cache but is reusable.
        let again = dev.alloc::<u64>(1 << 16).unwrap();
        assert_eq!(dev.pool_stats().hits, 1);
        drop(again);
    }

    #[test]
    fn reservation_is_accounted_like_a_buffer_and_fills_in_place() {
        let dev = Device::new(DeviceSpec::gtx1080());
        dev.set_tracing(true);
        let res = dev.reserve(12, AllocPolicy::Pooled, true).unwrap();
        assert_eq!(dev.live_buffers(), 1);
        assert!(dev.mem_in_use() >= 12);
        let id = res.id();
        let buf = res.into_buffer(vec![1u32, 2, 3]);
        assert_eq!((buf.id(), buf.host()), (id, &[1u32, 2, 3][..]));
        assert_eq!(dev.take_trace().len(), 1, "filling is not a device event");
        drop(buf);
        drop(dev.reserve(12, AllocPolicy::Pooled, false).unwrap());
        assert_eq!(dev.live_buffers(), 0);
        assert_eq!(dev.pool_stats().hits, 1, "a dropped reservation is pooled");
        use crate::trace::TraceKind::{Free, PoolAlloc};
        let kinds: Vec<_> = dev.take_trace().into_iter().map(|e| e.kind).collect();
        assert!(
            matches!(
                kinds[..],
                [Free { .. }, PoolAlloc { init: false, .. }, Free { .. }]
            ),
            "{kinds:?}"
        );
    }

    #[test]
    #[should_panic(expected = "another size")]
    fn reservation_rejects_data_of_another_size() {
        let dev = Device::new(DeviceSpec::gtx1080());
        let _ = dev
            .reserve(8, AllocPolicy::Pooled, true)
            .unwrap()
            .into_buffer(vec![1u32]);
    }
}
