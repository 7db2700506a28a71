//! `thrust::device_vector` equivalent.

use gpu_sim::{Device, DeviceBuffer, DeviceCopy, Reservation, Result};
use std::sync::Arc;

/// A device-resident vector, the currency of every Thrust algorithm.
///
/// Construction from host data charges a PCIe transfer;
/// [`DeviceVector::to_host`] charges the way back. Algorithms operate on
/// the underlying [`DeviceBuffer`] and account kernel costs on its device.
#[derive(Debug)]
pub struct DeviceVector<T: DeviceCopy> {
    buf: DeviceBuffer<T>,
}

impl<T: DeviceCopy> DeviceVector<T> {
    /// Upload `host` to the device (charges the transfer).
    pub fn from_host(device: &Arc<Device>, host: &[T]) -> Result<Self> {
        Ok(DeviceVector {
            buf: device.htod(host)?,
        })
    }

    /// Wrap an existing device buffer.
    pub fn from_buffer(buf: DeviceBuffer<T>) -> Self {
        DeviceVector { buf }
    }

    /// Back a [`Reservation`] an algorithm's charge half made with the
    /// `data` its kernel body produced.
    pub fn filled(reserved: Reservation, data: Vec<T>) -> Self {
        DeviceVector {
            buf: reserved.into_buffer(data),
        }
    }

    /// Allocate a zero-initialised vector of `len` elements.
    pub fn zeroed(device: &Arc<Device>, len: usize) -> Result<Self>
    where
        T: Default,
    {
        Ok(DeviceVector {
            buf: device.alloc(len)?,
        })
    }

    /// Download to the host (charges the transfer).
    pub fn to_host(&self) -> Result<Vec<T>> {
        self.device().dtoh(&self.buf)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The owning device.
    pub fn device(&self) -> &Arc<Device> {
        self.buf.device()
    }

    /// Direct read view of device storage (kernel-side access).
    pub fn as_slice(&self) -> &[T] {
        self.buf.host()
    }

    /// Direct write view of device storage (kernel-side access).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.buf.host_mut()
    }

    /// Shrink the logical length (after compaction).
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Borrow the underlying buffer.
    pub fn buffer(&self) -> &DeviceBuffer<T> {
        &self.buf
    }

    /// The underlying buffer's trace identity (see [`gpu_sim::BufferId`]).
    pub fn id(&self) -> gpu_sim::BufferId {
        self.buf.id()
    }

    /// Take ownership of the underlying buffer.
    pub fn into_buffer(self) -> DeviceBuffer<T> {
        self.buf
    }

    /// Device-to-device clone (charges a copy, like
    /// `thrust::device_vector`'s copy constructor).
    pub fn dclone(&self) -> Result<Self> {
        Ok(DeviceVector {
            buf: self.device().dtod(&self.buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_host_charges_transfer_and_roundtrips() {
        let dev = Device::with_defaults();
        let v = DeviceVector::from_host(&dev, &[1u32, 2, 3]).unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v.to_host().unwrap(), vec![1, 2, 3]);
        let s = dev.stats();
        assert_eq!(s.htod_count, 1);
        assert_eq!(s.dtoh_count, 1);
    }

    #[test]
    fn dclone_is_device_side() {
        let dev = Device::with_defaults();
        let v = DeviceVector::from_host(&dev, &[9u8; 100]).unwrap();
        let w = v.dclone().unwrap();
        assert_eq!(w.to_host().unwrap(), vec![9u8; 100]);
        assert_eq!(dev.stats().htod_count, 1, "clone must not re-upload");
        assert_eq!(dev.stats().dtod_bytes, 100);
    }

    #[test]
    fn zeroed_and_truncate() {
        let dev = Device::with_defaults();
        let mut v: DeviceVector<u64> = DeviceVector::zeroed(&dev, 8).unwrap();
        assert_eq!(v.as_slice(), &[0; 8]);
        v.as_mut_slice()[0] = 7;
        v.truncate(2);
        assert_eq!(v.to_host().unwrap(), vec![7, 0]);
        assert!(!v.is_empty());
    }
}
