//! Runtime-typed columns — ArrayFire arrays carry their dtype at runtime.

use gpu_sim::{
    AllocPolicy, Contents, Device, DeviceBuffer, Readable, Reservation, Result, SimError,
};
use std::sync::Arc;

/// Element type of an [`Array`](crate::Array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 64-bit float (`f64` / AF `f64`).
    F64,
    /// 32-bit unsigned (`u32` / AF `u32`).
    U32,
    /// 8-bit boolean (`b8`).
    B8,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size(self) -> usize {
        match self {
            DType::F64 => 8,
            DType::U32 => 4,
            DType::B8 => 1,
        }
    }

    /// Short ArrayFire-style name, used in JIT shape signatures.
    pub fn name(self) -> &'static str {
        match self {
            DType::F64 => "f64",
            DType::U32 => "u32",
            DType::B8 => "b8",
        }
    }
}

/// A scalar constant embedded in a lazy expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// 64-bit float constant.
    F64(f64),
    /// 32-bit unsigned constant.
    U32(u32),
    /// Boolean constant.
    B8(bool),
}

impl Scalar {
    /// The scalar's dtype.
    pub fn dtype(self) -> DType {
        match self {
            Scalar::F64(_) => DType::F64,
            Scalar::U32(_) => DType::U32,
            Scalar::B8(_) => DType::B8,
        }
    }

    /// Lossy conversion to `f64` (for arithmetic dispatch).
    pub fn as_f64(self) -> f64 {
        match self {
            Scalar::F64(x) => x,
            Scalar::U32(x) => x as f64,
            Scalar::B8(x) => x as u8 as f64,
        }
    }
}

macro_rules! impl_from_scalar {
    ($($t:ty => $v:ident),*) => {$(
        impl From<$t> for Scalar {
            fn from(x: $t) -> Scalar { Scalar::$v(x) }
        }
    )*};
}
impl_from_scalar!(f64 => F64, u32 => U32, bool => B8);

/// Materialised column data, one device buffer per dtype.
#[derive(Debug)]
pub enum ColumnData {
    /// 64-bit float column.
    F64(DeviceBuffer<f64>),
    /// 32-bit unsigned column.
    U32(DeviceBuffer<u32>),
    /// Boolean column (stored as 0/1 bytes).
    B8(DeviceBuffer<u8>),
}

impl ColumnData {
    /// The column's dtype.
    pub fn dtype(&self) -> DType {
        match self {
            ColumnData::F64(_) => DType::F64,
            ColumnData::U32(_) => DType::U32,
            ColumnData::B8(_) => DType::B8,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::F64(b) => b.len(),
            ColumnData::U32(b) => b.len(),
            ColumnData::B8(b) => b.len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes.
    pub(crate) fn size_bytes(&self) -> u64 {
        (self.len() * self.dtype().size()) as u64
    }

    /// Wrap a typed host vector (or shape-only contents) into a pooled
    /// device column (ArrayFire's memory manager pools allocations).
    pub fn from_f64(device: &Arc<Device>, v: impl Into<Contents<f64>>) -> Result<Self> {
        Ok(ColumnData::F64(
            device.buffer_from_vec(v, AllocPolicy::Pooled)?,
        ))
    }

    /// See [`ColumnData::from_f64`].
    pub fn from_u32(device: &Arc<Device>, v: impl Into<Contents<u32>>) -> Result<Self> {
        Ok(ColumnData::U32(
            device.buffer_from_vec(v, AllocPolicy::Pooled)?,
        ))
    }

    /// View as `f64` values, converting on the fly (functional helper used
    /// by kernel bodies, after their call checked the column is readable;
    /// no cost implications).
    pub(crate) fn to_f64_vec(&self) -> Vec<f64> {
        match self {
            ColumnData::F64(b) => b.host().to_vec(),
            ColumnData::U32(b) => {
                let s = b.host();
                gpu_sim::par_map_vec(s.len(), |i| f64::from(s[i]))
            }
            ColumnData::B8(b) => {
                let s = b.host();
                gpu_sim::par_map_vec(s.len(), |i| f64::from(s[i]))
            }
        }
    }

    /// Typed accessors — error with [`SimError::Unsupported`] on dtype
    /// mismatch (mirrors `af::array::host<T>` type checking).
    /// A shape-only column has no values: [`SimError::ShapeOnly`].
    pub fn as_f64(&self) -> Result<&[f64]> {
        match self {
            ColumnData::F64(b) => b.data(),
            other => Err(type_err("f64", other.dtype())),
        }
    }

    /// See [`ColumnData::as_f64`].
    pub fn as_u32(&self) -> Result<&[u32]> {
        match self {
            ColumnData::U32(b) => b.data(),
            other => Err(type_err("u32", other.dtype())),
        }
    }

    /// See [`ColumnData::as_f64`].
    #[cfg(test)]
    pub(crate) fn as_b8(&self) -> Result<&[u8]> {
        match self {
            ColumnData::B8(b) => b.data(),
            other => Err(type_err("b8", other.dtype())),
        }
    }
}

impl Readable for ColumnData {
    fn readable(&self) -> Result<()> {
        match self {
            ColumnData::F64(b) => b.readable(),
            ColumnData::U32(b) => b.readable(),
            ColumnData::B8(b) => b.readable(),
        }
    }
}

macro_rules! column_from_buffer {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<DeviceBuffer<$t>> for ColumnData {
            fn from(buf: DeviceBuffer<$t>) -> ColumnData {
                ColumnData::$variant(buf)
            }
        }
    )*};
}
column_from_buffer!(f64 => F64, u32 => U32, u8 => B8);

fn type_err(wanted: &str, got: DType) -> SimError {
    SimError::Unsupported(format!(
        "dtype mismatch: wanted {wanted}, array is {}",
        got.name()
    ))
}

/// Build a [`ColumnData`] of `dtype` from an `f64` working vector
/// (interpreter output, or shape-only contents), truncating/rounding like
/// a GPU cast.
pub(crate) fn column_from_f64(
    device: &Arc<Device>,
    dtype: DType,
    v: Contents<f64>,
) -> Result<ColumnData> {
    let out = reserve_column(device, dtype, v.len())?;
    Ok(fill_from_f64(out, dtype, v))
}

/// A pooled allocation for `len` elements of `dtype`, not backed yet: what
/// a non-fused operation's charge half returns for each output column.
pub(crate) fn reserve_column(
    device: &Arc<Device>,
    dtype: DType,
    len: usize,
) -> Result<Reservation> {
    device.reserve((len * dtype.size()) as u64, AllocPolicy::Pooled, true)
}

/// Back `out` (from [`reserve_column`]) with `v` cast to `dtype`,
/// truncating/rounding like a GPU cast.
pub(crate) fn fill_from_f64(out: Reservation, dtype: DType, v: Contents<f64>) -> ColumnData {
    match dtype {
        DType::F64 => ColumnData::F64(out.into_buffer(v)),
        DType::U32 => ColumnData::U32(
            out.into_buffer(v.map(|v| gpu_sim::par_map_vec(v.len(), |i| v[i] as u32))),
        ),
        DType::B8 => ColumnData::B8(
            out.into_buffer(v.map(|v| gpu_sim::par_map_vec(v.len(), |i| u8::from(v[i] != 0.0)))),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes_and_names() {
        assert_eq!(DType::F64.size(), 8);
        assert_eq!(DType::U32.size(), 4);
        assert_eq!(DType::B8.size(), 1);
        assert_eq!(DType::U32.name(), "u32");
    }

    #[test]
    fn scalar_conversions() {
        let s: Scalar = 2.5f64.into();
        assert_eq!(s.dtype(), DType::F64);
        assert_eq!(s.as_f64(), 2.5);
        let s: Scalar = true.into();
        assert_eq!(s.as_f64(), 1.0);
        let s: Scalar = 7u32.into();
        assert_eq!(s.dtype(), DType::U32);
    }

    #[test]
    fn column_roundtrip_and_type_checks() {
        let dev = Device::with_defaults();
        let c = ColumnData::from_u32(&dev, vec![1, 2, 3]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.dtype(), DType::U32);
        assert_eq!(c.size_bytes(), 12);
        assert_eq!(c.as_u32().unwrap(), &[1, 2, 3]);
        assert!(c.as_f64().is_err());
        assert_eq!(c.to_f64_vec(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn column_from_f64_casts() {
        let dev = Device::with_defaults();
        let c = column_from_f64(&dev, DType::B8, vec![0.0, 1.0, 2.0].into()).unwrap();
        assert_eq!(c.as_b8().unwrap(), &[0, 1, 1]);
        let c = column_from_f64(&dev, DType::U32, vec![1.9, 3.0].into()).unwrap();
        assert_eq!(c.as_u32().unwrap(), &[1, 3]);
    }
}
