//! `boost::compute::vector<T>` equivalent.
//!
//! Unlike Thrust's pooled temporaries, Boost.Compute vectors allocate raw
//! OpenCL buffers: every construction is a driver round-trip
//! ([`AllocPolicy::Raw`]), which the paper's small-input measurements feel.

use crate::context::CommandQueue;
use gpu_sim::{AllocPolicy, DeviceBuffer, DeviceCopy, Reservation, Result};

/// A device vector bound to an OpenCL context.
#[derive(Debug)]
pub struct Vector<T: DeviceCopy> {
    buf: DeviceBuffer<T>,
}

impl<T: DeviceCopy> Vector<T> {
    /// Allocate and upload `host` (charges raw allocation + PCIe copy —
    /// `clCreateBuffer` + `clEnqueueWriteBuffer`).
    pub fn from_host(host: &[T], queue: &CommandQueue) -> Result<Self> {
        Ok(Vector {
            buf: queue.device().htod_with(host, AllocPolicy::Raw)?,
        })
    }

    /// Allocate a zero-filled vector of `len` elements.
    pub fn zeroed(len: usize, queue: &CommandQueue) -> Result<Self>
    where
        T: Default,
    {
        Ok(Vector {
            buf: queue.device().alloc_with(len, AllocPolicy::Raw)?,
        })
    }

    /// Back a [`Reservation`] an algorithm's charge half made with the
    /// `data` its kernel body produced.
    pub fn filled(reserved: Reservation, data: Vec<T>) -> Self {
        Vector {
            buf: reserved.into_buffer(data),
        }
    }

    /// Wrap an existing buffer.
    pub fn from_buffer(buf: DeviceBuffer<T>) -> Self {
        Vector { buf }
    }

    /// Download to the host (charges the transfer).
    pub fn to_host(&self, queue: &CommandQueue) -> Result<Vec<T>> {
        queue.device().dtoh(&self.buf)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Kernel-side read access.
    pub fn as_slice(&self) -> &[T] {
        self.buf.host()
    }

    /// Kernel-side write access.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.buf.host_mut()
    }

    /// Shrink the logical length (after compaction).
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// The underlying buffer's trace identity (see [`gpu_sim::BufferId`]).
    pub fn id(&self) -> gpu_sim::BufferId {
        self.buf.id()
    }

    /// The underlying buffer.
    pub fn buffer(&self) -> &DeviceBuffer<T> {
        &self.buf
    }

    /// Device-side copy (`clEnqueueCopyBuffer`): charges global-memory
    /// bandwidth, not PCIe.
    pub fn dclone(&self, queue: &CommandQueue) -> Result<Self> {
        Ok(Vector {
            buf: queue.device().dtod(&self.buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use gpu_sim::Device;

    fn queue() -> (std::sync::Arc<Device>, CommandQueue) {
        let dev = Device::with_defaults();
        let ctx = Context::new(&dev);
        (dev, CommandQueue::new(&ctx))
    }

    #[test]
    fn roundtrip() {
        let (_dev, q) = queue();
        let v = Vector::from_host(&[1u32, 2, 3], &q).unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v.to_host(&q).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn vectors_use_raw_allocation() {
        let (dev, q) = queue();
        let a0 = dev.stats().allocs;
        {
            let _v = Vector::<u32>::zeroed(1 << 16, &q).unwrap();
        }
        {
            let _w = Vector::<u32>::zeroed(1 << 16, &q).unwrap();
        }
        // Raw policy: both constructions hit the driver; nothing pooled.
        assert_eq!(dev.stats().allocs, a0 + 2);
        assert_eq!(dev.pool_stats().hits, 0);
    }

    #[test]
    fn upload_charges_transfer_time() {
        let (dev, q) = queue();
        let t0 = dev.now();
        let _v = Vector::from_host(&vec![0u8; 1 << 20], &q).unwrap();
        let dt = dev.now() - t0;
        assert!(dt.as_nanos() > dev.spec().pcie_latency_ns);
    }
}
