//! Device buffers.
//!
//! A [`DeviceBuffer<T>`] models a contiguous allocation in GPU global
//! memory. Storage physically lives in a host `Vec<T>` (the simulator
//! executes kernels functionally on the CPU), but all *cost* behaviour —
//! allocation latency, pooling, memory accounting, transfer charging —
//! follows the device model. Library crates wrap this type in their own
//! abstractions (`thrust::DeviceVector`, `boost::Vector`, `af::Array`).
//!
//! Inside a dry scope a buffer may be *shape-only* ([`Contents::Shape`]):
//! a reservation and a length, with no host storage. The device cannot
//! tell it from one with data; reading its contents is
//! [`SimError::ShapeOnly`] (DESIGN.md §5, "Dry scope").

use crate::device::Device;
use crate::error::{Result, SimError};
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

    /// Back the reservation with `contents` (data, or a shape-only
    /// length): the buffer keeps this reservation's id and accounting, and
    /// the device sees no event.
    ///
    /// # Panics
    /// If `contents` is not exactly the reserved payload size — the caller
    /// sized the reservation for other data, which is a bug.
    pub fn into_buffer<T: DeviceCopy>(self, contents: impl Into<Contents<T>>) -> DeviceBuffer<T> {
        let contents = contents.into();
        assert_eq!(
            (contents.len() * std::mem::size_of::<T>()) as u64,
            self.bytes,
            "reservation {} filled with data of another size",
            self.id
        );
        DeviceBuffer {
            contents,
            res: self,
        }
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.device
            .on_buffer_free(self.id, self.alloc_bytes, self.policy);
    }
}

/// What stands behind a buffer on the host: its elements, or — for a
/// shape-only buffer — only how many there are.
///
/// Kernel bodies produce `Data`; their placeholders inside a dry scope
/// produce `Shape` ([`Device::outputs`]), and so does an upload whose
/// values no body will read ([`Device::upload`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Contents<T> {
    /// The elements.
    Data(Vec<T>),
    /// No storage: this many elements, which nothing may read.
    Shape(usize),
}

impl<T> Contents<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Contents::Data(v) => v.len(),
            Contents::Shape(len) => *len,
        }
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The same length with `f` applied to the data: a conversion of the
    /// elements, which shape-only contents have none of.
    pub fn map<U>(self, f: impl FnOnce(Vec<T>) -> Vec<U>) -> Contents<U> {
        match self {
            Contents::Data(v) => Contents::Data(f(v)),
            Contents::Shape(len) => Contents::Shape(len),
        }
    }
}

impl<T> From<Vec<T>> for Contents<T> {
    fn from(data: Vec<T>) -> Self {
        Contents::Data(data)
    }
}

/// Device memory a kernel body may read, whatever its element type: what
/// [`Device::reads`] checks before a call charges anything.
pub trait Readable {
    /// `Err(SimError::ShapeOnly)` when the allocation holds no data.
    fn readable(&self) -> Result<()>;
}

/// A typed allocation in simulated device global memory: a
/// [`Reservation`] plus the host storage that stands in for its contents
/// (none for a shape-only buffer).
#[derive(Debug)]
pub struct DeviceBuffer<T: DeviceCopy> {
    contents: Contents<T>,
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
        self.contents.len()
    }

    /// `true` when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.contents.is_empty()
    }

    /// Logical payload size in bytes (`len * size_of::<T>()`).
    pub fn size_bytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<T>()) as u64
    }

    /// The device this buffer lives on.
    pub fn device(&self) -> &Arc<Device> {
        &self.res.device
    }

    /// The allocation policy used for this buffer.
    pub fn policy(&self) -> AllocPolicy {
        self.res.policy
    }

    /// The elements, or [`SimError::ShapeOnly`] for a shape-only buffer:
    /// the accessor for anything that reads a buffer it has not checked
    /// (downloads, counted placeholders, index checks).
    pub fn data(&self) -> Result<&[T]> {
        match &self.contents {
            Contents::Data(v) => Ok(v),
            Contents::Shape(_) => Err(SimError::ShapeOnly { buf: self.id() }),
        }
    }

    /// Read-only view of the backing storage. In a real system this would
    /// be a device pointer; kernel bodies read through it, after their call
    /// checked its inputs ([`Device::reads`]).
    ///
    /// # Panics
    /// On a shape-only buffer — a body ran on an input nobody checked.
    pub fn host(&self) -> &[T] {
        match &self.contents {
            Contents::Data(v) => v,
            Contents::Shape(_) => unchecked_read(self.id()),
        }
    }

    /// Mutable view of the backing storage, used by kernel bodies.
    ///
    /// # Panics
    /// As [`DeviceBuffer::host`].
    pub fn host_mut(&mut self) -> &mut [T] {
        let id = self.id();
        match &mut self.contents {
            Contents::Data(v) => v,
            Contents::Shape(_) => unchecked_read(id),
        }
    }

    /// Shorten the buffer to `len` elements (used after stream compaction,
    /// where the output size is only known post-kernel). The device
    /// reservation is unchanged — exactly like `cudaMalloc`'d memory.
    pub fn truncate(&mut self, len: usize) {
        match &mut self.contents {
            Contents::Data(v) => v.truncate(len),
            Contents::Shape(n) => *n = len.min(*n),
        }
    }
}

/// A kernel body reached a shape-only buffer.
// INVARIANT: every call checks the inputs its body reads before it charges
// anything (`Device::reads`, `DeviceBuffer::data`), so a body only ever
// runs on buffers that hold data; reaching this is a missing check.
#[allow(clippy::panic)]
#[cold]
fn unchecked_read(buf: BufferId) -> ! {
    panic!("buffer {buf} is shape-only: a body read an input its call did not check")
}

impl DeviceBuffer<u32> {
    /// `IndexOutOfBounds` for the first index this buffer holds that does
    /// not address `len` elements: a gather's or scatter's input check.
    /// A shape-only index (only ever met inside a dry scope) has no values
    /// to check; its length is all there is.
    pub fn check_indices(&self, len: usize) -> Result<()> {
        match &self.contents {
            Contents::Data(at) => crate::hostexec::check_indices(at.iter().copied(), len),
            Contents::Shape(_) => Ok(()),
        }
    }
}

impl<T: DeviceCopy> Readable for DeviceBuffer<T> {
    fn readable(&self) -> Result<()> {
        self.data().map(drop)
    }
}

impl<T: DeviceCopy> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        // Recycle the host storage: faulting fresh pages for the next
        // buffer is far more expensive than reusing these warm ones. The
        // reservation frees the device memory when it drops right after.
        drop(std::mem::replace(&mut self.contents, Contents::Shape(0)));
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
