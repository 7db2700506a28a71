//! Device buffers.
//!
//! A [`DeviceBuffer<T>`] models a contiguous allocation in GPU global
//! memory. Storage physically lives in a host `Vec<T>` (the simulator
//! executes kernels functionally on the CPU), but all *cost* behaviour —
//! allocation latency, pooling, memory accounting, transfer charging —
//! follows the device model. Library crates wrap this type in their own
//! abstractions (`thrust::DeviceVector`, `boost::Vector`, `af::Array`).
//!
//! The host `Vec` is shared and copy-on-write: a device-to-device copy,
//! and an upload of a column another buffer already holds, point at the
//! same `Vec`, and the first write through [`DeviceBuffer::host_mut`]
//! copies it (DESIGN.md §5, "Reservations"). Only host memory is shared:
//! every buffer keeps its own reservation, id and charges.
//!
//! Inside a dry scope a buffer may be *shape-only* ([`Contents::Shape`]):
//! a reservation and a length, with no host storage. The device cannot
//! tell it from one with data; reading its contents is
//! [`SimError::ShapeOnly`] (DESIGN.md §5, "Dry scope").

use crate::device::Device;
use crate::error::{Result, SimError};
use crate::hostalloc::MIN_RECYCLE_BYTES;
use crate::pool::AllocPolicy;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Weak};

/// Element types that may live in device memory: the primitive numbers.
///
/// Mirrors CUDA's requirement that device data be trivially copyable.
/// [`DeviceCopy::same_bits`] is what lets an upload share the host copy of
/// a column another buffer holds ([`Device::htod`]).
pub trait DeviceCopy: Copy + Send + Sync + 'static {
    /// Whether `a` and `b` hold the same bits, element for element. Floats
    /// compare by `to_bits`: `-0.0` is not `0.0`, and two NaN payloads
    /// differ.
    fn same_bits(a: &[Self], b: &[Self]) -> bool;
}

macro_rules! device_copy {
    (eq: $($int:ty),*; bits: $($float:ty),*) => {
        $(impl DeviceCopy for $int {
            fn same_bits(a: &[Self], b: &[Self]) -> bool {
                a == b
            }
        })*
        $(impl DeviceCopy for $float {
            fn same_bits(a: &[Self], b: &[Self]) -> bool {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
        })*
    };
}

device_copy!(eq: bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize; bits: f32, f64);

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
        self.fill(contents.into().into())
    }

    /// [`Reservation::into_buffer`] with storage that may be shared.
    pub(crate) fn fill<T: DeviceCopy>(self, storage: Storage<T>) -> DeviceBuffer<T> {
        assert_eq!(
            (storage.len() * std::mem::size_of::<T>()) as u64,
            self.bytes,
            "reservation {} filled with data of another size",
            self.id
        );
        DeviceBuffer { storage, res: self }
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
/// values no body will read ([`Device::upload`]). A buffer filled with
/// `Data` owns that `Vec` until a copy or an upload shares it.
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

/// The host storage behind a buffer: elements that other buffers may
/// share, copied at the first write, or — shape-only — a length.
#[derive(Debug, Clone)]
pub(crate) enum Storage<T> {
    Data(Arc<Vec<T>>),
    Shape(usize),
}

impl<T> Storage<T> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Storage::Data(v) => v.len(),
            Storage::Shape(len) => *len,
        }
    }
}

impl<T> From<Contents<T>> for Storage<T> {
    fn from(contents: Contents<T>) -> Self {
        match contents {
            Contents::Data(v) => Storage::Data(Arc::new(v)),
            Contents::Shape(len) => Storage::Shape(len),
        }
    }
}

/// Host copies of the large columns uploaded from a slice, by the slice's
/// address, length and element type, so the next upload of the same slice
/// can share the copy while a buffer holds it. Dead entries are dropped
/// when the table has doubled since the last sweep.
struct Uploads {
    copies: HashMap<(usize, usize, TypeId), Weak<dyn Any + Send + Sync>>,
    sweep_at: usize,
}

static UPLOADS: LazyLock<Mutex<Uploads>> = LazyLock::new(|| {
    Mutex::new(Uploads {
        copies: HashMap::new(),
        sweep_at: 64,
    })
});

/// The host storage of an upload of `host`: the copy a live buffer holds
/// of the same slice when its bits are still `host`'s, else a new copy.
/// Slices under [`MIN_RECYCLE_BYTES`] are always copied.
pub(crate) fn upload_copy<T: DeviceCopy>(host: &[T]) -> Arc<Vec<T>> {
    if std::mem::size_of_val(host) < MIN_RECYCLE_BYTES {
        return Arc::new(host.to_vec());
    }
    let key = (host.as_ptr() as usize, host.len(), TypeId::of::<T>());
    let held = UPLOADS.lock().copies.get(&key).and_then(Weak::upgrade);
    // Compared outside the lock: grid workers uploading other columns do
    // not wait for this one.
    if let Some(held) = held.and_then(|h| h.downcast::<Vec<T>>().ok()) {
        if T::same_bits(&held, host) {
            return held;
        }
    }
    let copy = Arc::new(host.to_vec());
    let weak = Arc::downgrade(&copy);
    let mut table = UPLOADS.lock();
    table.copies.insert(key, weak);
    if table.copies.len() >= table.sweep_at {
        table.copies.retain(|_, copy| copy.strong_count() > 0);
        table.sweep_at = (2 * table.copies.len()).max(64);
    }
    copy
}

/// A typed allocation in simulated device global memory: a
/// [`Reservation`] plus the host storage that stands in for its contents
/// (none for a shape-only buffer). That storage may be shared with other
/// buffers — a [`Device::dtod`] copy, an upload of the same column — and
/// is copied on the first write, so no buffer ever sees another's writes.
#[derive(Debug)]
pub struct DeviceBuffer<T: DeviceCopy> {
    storage: Storage<T>,
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
        self.storage.len()
    }

    /// `true` when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        match &self.storage {
            Storage::Data(v) => Ok(v),
            Storage::Shape(_) => Err(SimError::ShapeOnly { buf: self.id() }),
        }
    }

    /// Another handle on this buffer's host storage, for a copy of it.
    pub(crate) fn share(&self) -> Storage<T> {
        self.storage.clone()
    }

    /// Read-only view of the backing storage. In a real system this would
    /// be a device pointer; kernel bodies read through it, after their call
    /// checked its inputs ([`Device::reads`]).
    ///
    /// # Panics
    /// On a shape-only buffer — a body ran on an input nobody checked.
    pub fn host(&self) -> &[T] {
        match &self.storage {
            Storage::Data(v) => v,
            Storage::Shape(_) => unchecked_read(self.id()),
        }
    }

    /// Mutable view of the backing storage, used by kernel bodies. Storage
    /// another buffer shares is copied first, so the write is this
    /// buffer's alone.
    ///
    /// # Panics
    /// As [`DeviceBuffer::host`].
    pub fn host_mut(&mut self) -> &mut [T] {
        let id = self.id();
        match &mut self.storage {
            Storage::Data(v) => Arc::make_mut(v).as_mut_slice(),
            Storage::Shape(_) => unchecked_read(id),
        }
    }

    /// Shorten the buffer to `len` elements (used after stream compaction,
    /// where the output size is only known post-kernel); shared storage is
    /// copied first, as by [`DeviceBuffer::host_mut`]. The device
    /// reservation is unchanged — exactly like `cudaMalloc`'d memory.
    pub fn truncate(&mut self, len: usize) {
        match &mut self.storage {
            Storage::Data(v) => Arc::make_mut(v).truncate(len),
            Storage::Shape(n) => *n = len.min(*n),
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
        match &self.storage {
            Storage::Data(at) => crate::hostexec::check_indices(at.iter().copied(), len),
            Storage::Shape(_) => Ok(()),
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
        // Recycle the host storage (when this was its last sharer):
        // faulting fresh pages for the next buffer is far more expensive
        // than reusing these warm ones. The reservation frees the device
        // memory when it drops right after.
        drop(std::mem::replace(&mut self.storage, Storage::Shape(0)));
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
    fn same_bits_tells_zeros_and_nan_payloads_apart() {
        let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
        assert!(f64::same_bits(&[nan(1), -0.0], &[nan(1), -0.0]));
        assert!(!f64::same_bits(&[-0.0], &[0.0]));
        assert!(!f64::same_bits(&[nan(1)], &[nan(2)]));
        assert!(!u32::same_bits(&[1, 2], &[1]));
    }

    #[test]
    fn copies_and_uploads_share_storage_until_a_write() {
        let dev = Device::new(DeviceSpec::gtx1080());
        let mut host: Vec<u32> = (0..1 << 14).collect();
        let a = dev.htod(&host).unwrap();
        let b = dev.htod(&host).unwrap();
        assert!(std::ptr::eq(a.host(), b.host()), "a held upload is shared");
        let mut c = dev.dtod(&a).unwrap();
        assert!(std::ptr::eq(a.host(), c.host()), "a copy is shared");
        c.host_mut()[0] = 7;
        c.truncate(3);
        assert_eq!((a.host()[0], b.host()[0], c.host()), (0, 0, &[7, 1, 2][..]));
        assert_eq!(a.len(), 1 << 14);
        host[1] = 9;
        let changed = dev.htod(&host).unwrap();
        assert_eq!((a.host()[1], changed.host()[1]), (1, 9), "new bits");
        let small = [1u32, 2];
        let (d, e) = (dev.htod(&small).unwrap(), dev.htod(&small).unwrap());
        assert!(!std::ptr::eq(d.host(), e.host()), "under 64 KiB: copied");
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
