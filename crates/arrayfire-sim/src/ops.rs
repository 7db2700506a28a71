//! Non-fusable ArrayFire operations.
//!
//! `where`, `sort`, `scan`, reductions, `sumByKey`,
//! `setIntersect`/`setUnion` and `lookup` break the JIT graph: they
//! force-evaluate their inputs, then run as discrete kernels with their own
//! footprints (Table II's partial-support pathways).
//!
//! `lookup`, `sum`, `constant`, `scan`, `sort` and `sort_by_key` run their
//! bodies through [`gpu_sim::Device::body`], so a dry scope skips the
//! bodies and nothing else; their outputs there are shape-only. Each
//! checks, before it charges anything, that the columns its body reads
//! hold data ([`gpu_sim::Device::reads`]); the others read theirs through
//! the fallible accessors.

use crate::array::{Array, Backend};
use crate::dtype::{fill_from_f64, reserve_column, ColumnData, DType};
use gpu_sim::{presets, Contents, KernelCost, Readable, Reservation, Result, SimError};
use std::sync::Arc;

fn backend_of(a: &Array) -> Arc<Backend> {
    Arc::clone(a.backend())
}

/// `af::where` — indices of non-zero elements, as a `u32` array.
///
/// This is ArrayFire's selection vehicle: the predicate fuses into the
/// input expression, but materialising the qualifying row-ids is a
/// scan + compact pair of kernels.
pub fn where_(cond: &Array) -> Result<Array> {
    let af = backend_of(cond);
    let col = cond.eval()?;
    col.readable()?;
    // Predicate masks arrive as b8 and are compacted as they are; any other
    // dtype goes through the f64 working lanes.
    let idx = match &*col {
        ColumnData::B8(mask) => indices_where(mask.host(), |&b| b != 0),
        other => indices_where(&other.to_f64_vec(), |&v| v != 0.0),
    };
    let out = charge_where(&af, cond.len(), idx.len())?;
    af.fill_u32(out, idx)
}

/// What [`where_`] costs on the device once its condition is evaluated:
/// the scan and compact launches over `n` mask elements and the
/// allocation of the `kept` indices.
pub fn charge_where(af: &Arc<Backend>, n: usize, kept: usize) -> Result<Reservation> {
    let device = af.device();
    let launch = device.spec().cuda_launch_latency_ns;
    device.try_charge_kernel(
        "af::where/scan",
        presets::scan::<u8>(n).with_launch_overhead(launch),
    )?;
    device.try_charge_kernel(
        "af::where/compact",
        KernelCost::map::<u8, ()>(n)
            .with_write((kept * 4) as u64)
            .with_divergence(0.3)
            .with_launch_overhead(launch),
    )?;
    reserve_column(device, DType::U32, kept)
}

/// Ascending indices of the elements `keep` accepts. Branch-free: every
/// index is stored and the store kept only if the element qualifies, so a
/// 50 % selectivity costs no mispredictions.
fn indices_where<T>(vals: &[T], keep: impl Fn(&T) -> bool) -> Vec<u32> {
    let mut out: Vec<u32> = vec![0; vals.len()];
    let mut len = 0;
    for (i, v) in vals.iter().enumerate() {
        out[len] = i as u32;
        len += usize::from(keep(v));
    }
    out.truncate(len);
    out
}

/// `af::lookup` — gather `data[indices[i]]` (materialisation after
/// `where`).
pub fn lookup(data: &Array, indices: &Array) -> Result<Array> {
    let not_u32 = || SimError::Unsupported("af::lookup expects u32 indices".into());
    if indices.dtype() != DType::U32 {
        return Err(not_u32());
    }
    let af = backend_of(data);
    let device = af.device();
    let col = data.eval()?;
    let idx_col = indices.eval()?;
    let ColumnData::U32(idx) = &*idx_col else {
        return Err(not_u32());
    };
    device.reads(&[&*col, idx])?;
    let n = idx.len();
    // The kernel, then the output column: what a gather that found every
    // index in bounds goes on to pay.
    let charge = || {
        let launch = device.spec().cuda_launch_latency_ns;
        let bytes_per = data.dtype().size();
        device.try_charge_kernel(
            "af::lookup",
            presets::gather::<u64>(n)
                .with_read((n * (4 + bytes_per)) as u64)
                .with_write((n * bytes_per) as u64)
                .with_launch_overhead(launch),
        )?;
        reserve_column(device, data.dtype(), n)
    };
    // Gathered in the column's own dtype: no widened copy of the source.
    macro_rules! gathered {
        ($variant:ident, $src:expr) => {{
            let src = $src;
            let check = || idx.check_indices(src.len());
            let gather = || gpu_sim::hostexec::gather(src.host(), idx.host());
            let rows = device.checked_outputs(n, check, gather)?;
            ColumnData::$variant(charge()?.into_buffer(rows))
        }};
    }
    let out = match &*col {
        ColumnData::F64(b) => gathered!(F64, b),
        ColumnData::U32(b) => gathered!(U32, b),
        ColumnData::B8(b) => gathered!(B8, b),
    };
    af.wrap(out)
}

/// `af::sum` — total of all elements, returned as `f64`.
pub fn sum(a: &Array) -> Result<f64> {
    let af = backend_of(a);
    let device = af.device();
    let col = a.eval()?;
    device.reads(&[&*col])?;
    // Fold from +0.0 explicitly: std's `Sum for f64` seeds with -0.0,
    // which leaks into empty-selection totals and breaks bit-equality
    // with the fused kernels' 0.0-seeded accumulators. In place, widening
    // integer elements as they are read.
    let fold = || match &*col {
        ColumnData::F64(b) => b.host().iter().fold(0.0, |acc, &x| acc + x),
        ColumnData::U32(b) => b.host().iter().fold(0.0, |acc, &x| acc + f64::from(x)),
        ColumnData::B8(b) => b.host().iter().fold(0.0, |acc, &x| acc + f64::from(x)),
    };
    let total = device.body(fold, || 0.0);
    device.try_charge_kernel(
        "af::sum",
        KernelCost::reduce::<u64>(0)
            .with_read(col.size_bytes())
            .with_flops(a.len() as u64)
            .with_launch_overhead(device.spec().cuda_launch_latency_ns),
    )?;
    device.read_back_scalar();
    Ok(total)
}

/// `af::constant` — a device array filled with `value` (one fill kernel,
/// no transfer).
pub fn constant(af: &Arc<Backend>, value: f64, len: usize) -> Result<Array> {
    let device = af.device();
    device.try_charge_kernel(
        "af::constant",
        KernelCost::map::<(), f64>(len).with_launch_overhead(device.spec().cuda_launch_latency_ns),
    )?;
    af.wrap(ColumnData::from_f64(
        device,
        device.outputs(len, || vec![value; len]),
    )?)
}

/// `af::scan` — prefix sum with selectable semantics (`exclusive = true`
/// gives the database-style offsets scan). A `u32` column sums in `u32`,
/// wrapping past 2^32 as CUDA's unsigned arithmetic does; the other dtypes
/// sum in the `f64` working lanes.
pub fn scan(a: &Array, exclusive: bool) -> Result<Array> {
    let af = backend_of(a);
    let device = af.device();
    let col = a.eval()?;
    device.reads(&[&*col])?;
    let charge = || {
        let launch = device.spec().cuda_launch_latency_ns;
        device.try_charge_kernel(
            "af::scan",
            presets::scan::<u64>(a.len()).with_launch_overhead(launch),
        )
    };
    let n = a.len();
    if let ColumnData::U32(b) = &*col {
        let sums = device.outputs(n, || {
            running_sums(b.host().iter().copied(), exclusive, u32::wrapping_add)
        });
        charge()?;
        return af.fill_u32(reserve_column(device, DType::U32, sums.len())?, sums);
    }
    let sums = device.outputs(n, || {
        running_sums(col.to_f64_vec().into_iter(), exclusive, |acc, x| acc + x)
    });
    charge()?;
    af.wrap(crate::dtype::column_from_f64(device, a.dtype(), sums)?)
}

/// The running sums of `vals` from zero: through each element, or with
/// `exclusive` up to the one before it.
fn running_sums<T: Copy + Default>(
    vals: impl ExactSizeIterator<Item = T>,
    exclusive: bool,
    add: impl Fn(T, T) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(vals.len());
    let mut acc = T::default();
    for x in vals {
        let next = add(acc, x);
        out.push(if exclusive { acc } else { next });
        acc = next;
    }
    out
}

/// `af::sort` — ascending values.
pub fn sort(a: &Array) -> Result<Array> {
    let af = backend_of(a);
    let device = af.device();
    let col = a.eval()?;
    device.reads(&[&*col])?;
    charge_radix(&af, a.len(), a.dtype().size(), 0, "af::sort")?;
    // Real LSD radix sort, run in the column's native key domain when it
    // has one — the f64 working-lane round-trip is order-preserving and
    // exact for every dtype here, so the narrow sort produces the same
    // column as sorting the f64 lanes (at half the passes for u32).
    let sorted = match &*col {
        crate::dtype::ColumnData::U32(b) => {
            let v = device.outputs(a.len(), || sorted(b.host().to_vec()));
            crate::dtype::ColumnData::from_u32(device, v)?
        }
        _ => {
            let v = device.outputs(a.len(), || sorted(col.to_f64_vec()));
            crate::dtype::column_from_f64(device, a.dtype(), v)?
        }
    };
    af.wrap(sorted)
}

/// `keys` in ascending order.
fn sorted<K: gpu_sim::RadixKey>(mut keys: Vec<K>) -> Vec<K> {
    gpu_sim::hostexec::sort_keys(&mut keys);
    keys
}

/// `af::sort` with `(keys, values)` — returns both permuted, keys
/// ascending and stable.
pub fn sort_by_key(keys: &Array, vals: &Array) -> Result<(Array, Array)> {
    if keys.len() != vals.len() {
        return Err(SimError::SizeMismatch {
            left: keys.len(),
            right: vals.len(),
        });
    }
    let af = backend_of(keys);
    let kcol = keys.eval()?;
    let vcol = vals.eval()?;
    af.device().reads(&[&*kcol, &*vcol])?;
    let n = keys.len();
    let (kout, vout) = charge_sort_by_key(&af, n, keys.dtype(), vals.dtype())?;
    // Stable radix sort == the old index-tiebroken comparison sort. The
    // dominant dtype pairing sorts in its native key domain (u32 keys
    // take half the digit passes of the f64 working lanes and skip both
    // conversions); everything else goes through the f64 lanes, whose
    // order matches the native one exactly.
    let device = af.device();
    if let (crate::dtype::ColumnData::U32(kb), crate::dtype::ColumnData::F64(vb)) = (&*kcol, &*vcol)
    {
        let body = || sorted_pairs(kb.host().to_vec(), vb.host().to_vec());
        let (ks, vs) = device.body(body, shapes(n));
        return Ok((af.fill_u32(kout, ks)?, af.fill_f64(vout, vs)?));
    }
    let body = || sorted_pairs(kcol.to_f64_vec(), vcol.to_f64_vec());
    let (ks, vs) = device.body(body, shapes(n));
    Ok((
        af.wrap(fill_from_f64(kout, keys.dtype(), ks))?,
        af.wrap(fill_from_f64(vout, vals.dtype(), vs))?,
    ))
}

/// `(keys, vals)` stably sorted by key.
fn sorted_pairs<K: gpu_sim::RadixKey, V: gpu_sim::DeviceCopy>(
    mut keys: Vec<K>,
    mut vals: Vec<V>,
) -> (Contents<K>, Contents<V>) {
    gpu_sim::hostexec::sort_pairs(&mut keys, &mut vals);
    (keys.into(), vals.into())
}

/// The placeholder of a body producing two columns of `n` elements.
fn shapes<K, V>(n: usize) -> impl FnOnce() -> (Contents<K>, Contents<V>) {
    move || (Contents::Shape(n), Contents::Shape(n))
}

/// What [`sort_by_key`] costs on the device once its inputs are
/// evaluated: the radix kernel triples over `n` pairs and the allocation
/// of the sorted key and value columns.
pub fn charge_sort_by_key(
    af: &Arc<Backend>,
    n: usize,
    keys: DType,
    vals: DType,
) -> Result<(Reservation, Reservation)> {
    charge_radix(af, n, keys.size(), vals.size(), "af::sort_by_key")?;
    let kout = reserve_column(af.device(), keys, n)?;
    let vout = reserve_column(af.device(), vals, n)?;
    Ok((kout, vout))
}

fn charge_radix(
    af: &Arc<Backend>,
    n: usize,
    key_bytes: usize,
    payload_bytes: usize,
    label: &str,
) -> Result<()> {
    let device = af.device();
    let launch = device.spec().cuda_launch_latency_ns;
    let passes = key_bytes.max(1);
    for _ in 0..passes {
        for (i, cost) in presets::radix_sort_pass::<u8>(n, payload_bytes)
            .into_iter()
            .enumerate()
        {
            // presets::radix_sort_pass sizes keys as u8; rescale reads to
            // the real key width.
            let cost = match i {
                0 => cost.with_read((n * key_bytes) as u64),
                2 => cost
                    .with_read((n * (key_bytes + payload_bytes)) as u64)
                    .with_write((n * (key_bytes + payload_bytes)) as u64),
                _ => cost,
            };
            let phase = ["histogram", "digit_scan", "scatter"][i % 3];
            device.try_charge_kernel(
                &format!("{label}/{phase}"),
                cost.with_launch_overhead(launch),
            )?;
        }
    }
    Ok(())
}

/// `af::sumByKey` — segmented sum over runs of consecutive equal keys.
/// Returns `(unique_keys, sums)`.
pub fn sum_by_key(keys: &Array, vals: &Array) -> Result<(Array, Array)> {
    if keys.len() != vals.len() {
        return Err(SimError::SizeMismatch {
            left: keys.len(),
            right: vals.len(),
        });
    }
    let af = backend_of(keys);
    let kcol = keys.eval()?;
    let vcol = vals.eval()?;
    kcol.readable()?;
    vcol.readable()?;
    let charge =
        |groups: usize| charge_sum_by_key(&af, keys.len(), groups, keys.dtype(), vals.dtype());
    // Native fast path for the dominant pairing (u32 group keys, f64
    // measures): keys compare and flow into the output column in their
    // own width instead of round-tripping through an f64 working lane.
    // Grouping and sums are bit-identical to the generic path — u32→f64
    // widening is exact, so run boundaries land in the same places and
    // the fold sees the same f64 sequence.
    if let (ColumnData::U32(kb), ColumnData::F64(vb)) = (&*kcol, &*vcol) {
        let (ks, vs) = (kb.host(), vb.host());
        let mut out_k: Vec<u32> = Vec::new();
        let mut out_v: Vec<f64> = Vec::new();
        let mut i = 0;
        while i < ks.len() {
            let k = ks[i];
            let mut acc = vs[i];
            let mut j = i + 1;
            while j < ks.len() && ks[j] == k {
                acc += vs[j];
                j += 1;
            }
            out_k.push(k);
            out_v.push(acc);
            i = j;
        }
        let (kout, vout) = charge(out_k.len())?;
        return Ok((af.fill_u32(kout, out_k)?, af.fill_f64(vout, out_v)?));
    }
    let kv = kcol.to_f64_vec();
    let vv = vcol.to_f64_vec();
    let mut out_k = Vec::new();
    let mut out_v = Vec::new();
    let mut i = 0;
    while i < kv.len() {
        let k = kv[i];
        let mut acc = vv[i];
        let mut j = i + 1;
        while j < kv.len() && kv[j] == k {
            acc += vv[j];
            j += 1;
        }
        out_k.push(k);
        out_v.push(acc);
        i = j;
    }
    let (kout, vout) = charge(out_k.len())?;
    Ok((
        af.wrap(fill_from_f64(kout, keys.dtype(), out_k.into()))?,
        af.wrap(fill_from_f64(vout, vals.dtype(), out_v.into()))?,
    ))
}

/// What [`sum_by_key`] costs on the device once its inputs are evaluated:
/// one segmented-reduce launch over `n` rows and the allocation of the
/// `groups` unique keys and their sums.
pub fn charge_sum_by_key(
    af: &Arc<Backend>,
    n: usize,
    groups: usize,
    keys: DType,
    vals: DType,
) -> Result<(Reservation, Reservation)> {
    let device = af.device();
    device.try_charge_kernel(
        "af::sumByKey",
        presets::reduce_by_key::<u64, u64>(n, groups)
            .with_launch_overhead(device.spec().cuda_launch_latency_ns),
    )?;
    let kout = reserve_column(device, keys, groups)?;
    let vout = reserve_column(device, vals, groups)?;
    Ok((kout, vout))
}

/// `af::setIntersect` — intersection of two **sorted, unique** u32 index
/// arrays (the paper's conjunction of selections).
pub fn set_intersect(a: &Array, b: &Array) -> Result<Array> {
    set_op(a, b, true)
}

/// `af::setUnion` — union of two **sorted, unique** u32 index arrays
/// (the paper's disjunction of selections).
pub fn set_union(a: &Array, b: &Array) -> Result<Array> {
    set_op(a, b, false)
}

/// Kernel name of a set operation.
fn set_label(intersect: bool) -> &'static str {
    if intersect {
        "af::setIntersect"
    } else {
        "af::setUnion"
    }
}

fn set_op(a: &Array, b: &Array, intersect: bool) -> Result<Array> {
    let label = set_label(intersect);
    if a.dtype() != DType::U32 || b.dtype() != DType::U32 {
        return Err(SimError::Unsupported(format!(
            "{label} expects u32 index arrays"
        )));
    }
    let af = backend_of(a);
    let av = a.eval()?;
    let bv = b.eval()?;
    let (xs, ys) = (av.as_u32()?, bv.as_u32()?);
    if !is_sorted_unique(xs) || !is_sorted_unique(ys) {
        return Err(SimError::Unsupported(format!(
            "{label} requires sorted unique inputs"
        )));
    }
    // Branch-free merge: which side advances is data-dependent and, at
    // middling selectivities, unpredictable, so the comparison results are
    // used as numbers. Every step stores the smaller head and keeps the
    // store only if it belongs to the output.
    let bound = if intersect {
        xs.len().min(ys.len())
    } else {
        xs.len() + ys.len()
    };
    let mut out: Vec<u32> = vec![0; bound];
    let (mut i, mut j, mut len) = (0, 0, 0);
    while i < xs.len() && j < ys.len() {
        let (x, y) = (xs[i], ys[j]);
        out[len] = x.min(y);
        len += usize::from(!intersect || x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    if !intersect {
        for tail in [&xs[i..], &ys[j..]] {
            out[len..len + tail.len()].copy_from_slice(tail);
            len += tail.len();
        }
    }
    out.truncate(len);
    let reserved = charge_set_op(&af, intersect, xs.len(), ys.len(), out.len())?;
    af.fill_u32(reserved, out)
}

/// What [`set_intersect`] (`intersect`) or [`set_union`] costs on the
/// device once its inputs are evaluated: one merge launch over both index
/// arrays and the allocation of the `out_len` resulting indices.
pub fn charge_set_op(
    af: &Arc<Backend>,
    intersect: bool,
    a_len: usize,
    b_len: usize,
    out_len: usize,
) -> Result<Reservation> {
    let device = af.device();
    device.try_charge_kernel(
        set_label(intersect),
        KernelCost::map::<u32, u32>(a_len + b_len)
            .with_write((out_len * 4) as u64)
            .with_divergence(0.2)
            .with_launch_overhead(device.spec().cuda_launch_latency_ns),
    )?;
    reserve_column(device, DType::U32, out_len)
}

fn is_sorted_unique(v: &[u32]) -> bool {
    v.windows(2).all(|w| w[0] < w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;

    fn af() -> (Arc<Device>, Arc<Backend>) {
        let dev = Device::with_defaults();
        let b = Backend::new(&dev);
        (dev, b)
    }

    #[test]
    fn where_returns_indices_of_true() {
        let (dev, af) = af();
        let x = af.array_u32(&[5, 2, 9, 1, 7]).unwrap();
        let mask = x.gt_scalar(4u32);
        dev.reset_stats();
        let idx = where_(&mask).unwrap();
        assert_eq!(idx.host_u32().unwrap(), vec![0, 2, 4]);
        let s = dev.stats();
        assert_eq!(s.launches_of("af::jit_fused"), 1, "predicate fused");
        assert_eq!(s.launches_of("af::where/scan"), 1);
        assert_eq!(s.launches_of("af::where/compact"), 1);
    }

    #[test]
    fn lookup_gathers_rows() {
        let (_dev, af) = af();
        let data = af.array_f64(&[10.0, 20.0, 30.0]).unwrap();
        let idx = af.array_u32(&[2, 0]).unwrap();
        let out = lookup(&data, &idx).unwrap();
        assert_eq!(out.host_f64().unwrap(), vec![30.0, 10.0]);
        let bad = af.array_u32(&[9]).unwrap();
        assert!(lookup(&data, &bad).is_err());
        let not_u32 = af.array_f64(&[0.0]).unwrap();
        assert!(lookup(&data, &not_u32).is_err());
    }

    #[test]
    fn selection_pipeline_where_then_lookup() {
        let (_dev, af) = af();
        let x = af.array_u32(&[5, 2, 9, 1, 7]).unwrap();
        let idx = where_(&x.gt_scalar(4u32)).unwrap();
        let vals = lookup(&x.cast(DType::F64), &idx).unwrap();
        assert_eq!(vals.host_f64().unwrap(), vec![5.0, 9.0, 7.0]);
    }

    #[test]
    fn sum_and_scan() {
        let (_dev, af) = af();
        let x = af.array_f64(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(sum(&x).unwrap(), 6.0);
        let inclusive = scan(&x, false).unwrap();
        assert_eq!(inclusive.host_f64().unwrap(), vec![1.0, 3.0, 6.0]);
        let exclusive = scan(&x, true).unwrap();
        assert_eq!(exclusive.host_f64().unwrap(), vec![0.0, 1.0, 3.0]);
        // u32 sums wrap past 2^32 instead of saturating in the f64 lanes.
        let u = af.array_u32(&[u32::MAX, 2, 3]).unwrap();
        assert_eq!(sum(&u).unwrap(), f64::from(u32::MAX) + 5.0);
        let wrapped = scan(&u, false).unwrap();
        assert_eq!(wrapped.dtype(), DType::U32);
        assert_eq!(wrapped.host_u32().unwrap(), vec![u32::MAX, 1, 4]);
    }

    #[test]
    fn sort_and_sort_by_key() {
        let (_dev, af) = af();
        let x = af.array_u32(&[3, 1, 2]).unwrap();
        let s = sort(&x).unwrap();
        assert_eq!(s.host_u32().unwrap(), vec![1, 2, 3]);
        let k = af.array_u32(&[2, 1, 2, 1]).unwrap();
        let v = af.array_f64(&[20.0, 10.0, 21.0, 11.0]).unwrap();
        let (ks, vs) = sort_by_key(&k, &v).unwrap();
        assert_eq!(ks.host_u32().unwrap(), vec![1, 1, 2, 2]);
        assert_eq!(vs.host_f64().unwrap(), vec![10.0, 11.0, 20.0, 21.0]);
    }

    #[test]
    fn grouped_aggregation_sum_by_key() {
        let (_dev, af) = af();
        let k = af.array_u32(&[1, 1, 2, 2, 2]).unwrap();
        let v = af.array_u32(&[1, 2, 3, 4, 5]).unwrap();
        let (gk, gv) = sum_by_key(&k, &v).unwrap();
        assert_eq!(gk.host_u32().unwrap(), vec![1, 2]);
        assert_eq!(gv.host_u32().unwrap(), vec![3, 12]);
    }

    /// The u32-key/f64-value fast path must group, fold and charge
    /// exactly like the generic f64-lane path — including keys at the
    /// top of the u32 range and fractional measures.
    #[test]
    fn sum_by_key_native_u32_path_matches_generic() {
        let (dev, af) = af();
        let k = af.array_u32(&[7, 7, u32::MAX, u32::MAX, 3]).unwrap();
        let v = af.array_f64(&[0.1, 0.2, 5.5, 4.5, 9.0]).unwrap();
        dev.reset_stats();
        let (gk, gv) = sum_by_key(&k, &v).unwrap();
        assert_eq!(gk.dtype(), DType::U32);
        assert_eq!(gk.host_u32().unwrap(), vec![7, u32::MAX, 3]);
        let sums = gv.host_f64().unwrap();
        assert_eq!(sums.len(), 3);
        assert_eq!(sums[0].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(sums[1].to_bits(), 10.0f64.to_bits());
        assert_eq!(sums[2].to_bits(), 9.0f64.to_bits());
        // Same single segmented-reduce launch as the generic path.
        assert_eq!(dev.stats().launches_of("af::sumByKey"), 1);
    }

    #[test]
    fn set_ops_implement_conjunction_disjunction() {
        let (_dev, af) = af();
        let a = af.array_u32(&[0, 2, 4, 6]).unwrap();
        let b = af.array_u32(&[2, 3, 6]).unwrap();
        let i = set_intersect(&a, &b).unwrap();
        assert_eq!(i.host_u32().unwrap(), vec![2, 6]);
        let u = set_union(&a, &b).unwrap();
        assert_eq!(u.host_u32().unwrap(), vec![0, 2, 3, 4, 6]);
    }

    #[test]
    fn set_ops_enforce_preconditions() {
        let (_dev, af) = af();
        let unsorted = af.array_u32(&[3, 1]).unwrap();
        let ok = af.array_u32(&[1, 2]).unwrap();
        assert!(set_intersect(&unsorted, &ok).is_err());
        let f = af.array_f64(&[1.0]).unwrap();
        assert!(set_union(&f, &ok).is_err());
    }

    #[test]
    fn mismatched_key_value_lengths() {
        let (_dev, af) = af();
        let k = af.array_u32(&[1]).unwrap();
        let v = af.array_f64(&[1.0, 2.0]).unwrap();
        assert!(sum_by_key(&k, &v).is_err());
        assert!(sort_by_key(&k, &v).is_err());
    }
}
