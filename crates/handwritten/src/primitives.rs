//! Handwritten parallel primitives and fused pipelines.
//!
//! The reduction, scan, gather, scatter, product and both sorts run their
//! bodies through [`Device::body`], so a
//! [dry scope](Device::dry_scope) skips the bodies and nothing else; their
//! outputs there are shape-only. Each checks, before it charges anything,
//! that the buffers its body reads hold data ([`Device::reads`]).

use crate::charge_io;
use gpu_sim::hostexec::expr::{self, BinaryOp, Instr, Leaf, Program};
use gpu_sim::hostexec::RowPred;
use gpu_sim::{
    hostexec, presets, AllocPolicy, Device, DeviceBuffer, DeviceCopy, KernelCost, Result, SimError,
};
use std::sync::Arc;

/// Tree reduction (sum) of an `f64` column — one kernel.
pub fn reduce_f64(device: &Arc<Device>, src: &DeviceBuffer<f64>) -> Result<f64> {
    // Fold from +0.0 explicitly: std's `Sum for f64` seeds with -0.0,
    // which leaks into empty-selection totals and breaks bit-equality
    // with the fused kernels' 0.0-seeded accumulators.
    device.reads(&[src])?;
    let fold = || src.host().iter().fold(0.0, |acc, &x| acc + x);
    let total = device.body(fold, || 0.0);
    charge_io(
        device,
        "reduce",
        KernelCost::reduce::<f64>(src.len()),
        &[src.id()],
        &[],
    )?;
    Ok(total)
}

/// Single-dispatch decoupled-lookback exclusive scan — reads the input
/// once and writes once (the chained-scan trick tuned kernels use),
/// cheaper than the library's reduce-then-scan.
pub fn exclusive_scan_u32(
    device: &Arc<Device>,
    src: &DeviceBuffer<u32>,
) -> Result<DeviceBuffer<u32>> {
    device.reads(&[src])?;
    let out = device.outputs(src.len(), || {
        let mut out = Vec::with_capacity(src.len());
        let mut acc = 0u32;
        for &x in src.host() {
            out.push(acc);
            acc = acc.wrapping_add(x);
        }
        out
    });
    let b = src.size_bytes();
    charge_io(
        device,
        "scan_lookback",
        KernelCost::map::<u32, u32>(src.len())
            .with_read(b)
            .with_write(b),
        &[src.id()],
        &[],
    )?;
    device.buffer_from_vec(out, AllocPolicy::Pooled)
}

/// Gather through a row-id vector: `out[i] = src[idx[i]]`.
pub fn gather<T: DeviceCopy + Default>(
    device: &Arc<Device>,
    src: &DeviceBuffer<T>,
    idx: &DeviceBuffer<u32>,
) -> Result<DeviceBuffer<T>> {
    device.reads(&[src, idx])?;
    let check = || idx.check_indices(src.len());
    let body = || hostexec::gather(src.host(), idx.host());
    let out = device.checked_outputs(idx.len(), check, body)?;
    charge_io(
        device,
        "gather",
        presets::gather::<T>(idx.len()),
        &[src.id(), idx.id()],
        &[],
    )?;
    device.buffer_from_vec(out, AllocPolicy::Pooled)
}

/// In-place LSD radix sort of `(keys, vals)` pairs — same footprint as the
/// library sorts (the libraries* are* tuned here; sort is where they shine).
pub fn radix_sort_pairs(
    device: &Arc<Device>,
    keys: &mut DeviceBuffer<u32>,
    vals: &mut DeviceBuffer<u32>,
) -> Result<()> {
    device.reads(&[&*keys, &*vals])?;
    if keys.len() != vals.len() {
        return Err(SimError::SizeMismatch {
            left: keys.len(),
            right: vals.len(),
        });
    }
    let n = keys.len();
    device.body(
        || hostexec::sort_pairs(keys.host_mut(), vals.host_mut()),
        || (),
    );
    let kv = [keys.id(), vals.id()];
    charge_radix_sort(device, n, 4, &kv, &kv)
}

/// The radix kernel triples of a sort of `n` `u32` keys carrying
/// `payload_bytes` per row over the buffers `reads`, the scatter phases
/// writing `writes`.
fn charge_radix_sort(
    device: &Device,
    n: usize,
    payload_bytes: usize,
    reads: &[gpu_sim::BufferId],
    writes: &[gpu_sim::BufferId],
) -> Result<()> {
    let passes = presets::radix_sort::<u32>(n, payload_bytes);
    for (i, cost) in passes.into_iter().enumerate() {
        let phase = ["histogram", "digit_scan", "scatter"][i % 3];
        let writes = if i % 3 == 2 { writes } else { &[] };
        charge_io(device, &format!("radix_sort/{phase}"), cost, reads, writes)?;
    }
    Ok(())
}

/// Element-wise product of two `f64` columns — one map kernel.
pub fn product_f64(
    device: &Arc<Device>,
    a: &DeviceBuffer<f64>,
    b: &DeviceBuffer<f64>,
) -> Result<DeviceBuffer<f64>> {
    device.reads(&[a, b])?;
    if a.len() != b.len() {
        return Err(SimError::SizeMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    let n = a.len();
    let out = device.outputs(n, || {
        let (xa, xb) = (a.host(), b.host());
        xa.iter().zip(xb).map(|(&x, &y)| x * y).collect()
    });
    charge_io(
        device,
        "product",
        KernelCost::map::<f64, f64>(n).with_read((n * 16) as u64),
        &[a.id(), b.id()],
        &[],
    )?;
    device.buffer_from_vec(out, AllocPolicy::Pooled)
}

/// Ascending radix sort of a `u32` column, returning a sorted copy.
pub fn sort_u32(device: &Arc<Device>, src: &DeviceBuffer<u32>) -> Result<DeviceBuffer<u32>> {
    device.reads(&[src])?;
    let v = device.outputs(src.len(), || {
        let mut v = src.host().to_vec();
        hostexec::sort_keys(&mut v);
        v
    });
    charge_radix_sort(device, src.len(), 0, &[src.id()], &[])?;
    device.buffer_from_vec(v, AllocPolicy::Pooled)
}

/// Scatter `src[i]` to position `idx[i]` of a zero-initialised output of
/// `dst_len` elements — one random-write kernel.
pub fn scatter_u32(
    device: &Arc<Device>,
    src: &DeviceBuffer<u32>,
    idx: &DeviceBuffer<u32>,
    dst_len: usize,
) -> Result<DeviceBuffer<u32>> {
    device.reads(&[src, idx])?;
    if src.len() != idx.len() {
        return Err(SimError::SizeMismatch {
            left: src.len(),
            right: idx.len(),
        });
    }
    let check = || idx.check_indices(dst_len);
    let body = || hostexec::scatter(src.host(), idx.host(), dst_len);
    let out = device.checked_outputs(dst_len, check, body)?;
    charge_io(
        device,
        "scatter",
        presets::scatter::<u32>(src.len()),
        &[src.id(), idx.id()],
        &[],
    )?;
    device.buffer_from_vec(out, AllocPolicy::Pooled)
}

/// The fused TPC-H Q6 shape: `SUM(a[i] * b[i])` over rows passing every
/// one of `preds`, in **one** kernel — predicate, product and reduction
/// share the pass. `bytes_per_row` covers the predicates' extra column
/// reads, and `pred_cols` names the device buffers those reads come from so
/// the launch's declared footprint is complete.
pub fn fused_filter_dot(
    device: &Arc<Device>,
    a: &DeviceBuffer<f64>,
    b: &DeviceBuffer<f64>,
    bytes_per_row: usize,
    pred_cols: &[gpu_sim::BufferId],
    preds: &[RowPred<'_>],
) -> Result<f64> {
    if a.len() != b.len() {
        return Err(SimError::SizeMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    let n = a.len();
    let dot = Program::new(vec![
        Instr::Load(0),
        Instr::Load(1),
        Instr::Binary(BinaryOp::Mul),
    ]);
    let acc = expr::filter_sum(
        &dot,
        &[Leaf::F64(a.data()?), Leaf::F64(b.data()?)],
        preds,
        n,
        0.0,
    );
    let mut reads = vec![a.id(), b.id()];
    reads.extend_from_slice(pred_cols);
    charge_io(
        device,
        "fused_filter_dot",
        KernelCost::reduce::<f64>(n)
            .with_read((n * (16 + bytes_per_row)) as u64)
            .with_flops(4 * n as u64)
            .with_divergence(0.2),
        &reads,
        &[],
    )?;
    device.read_back_scalar();
    Ok(acc)
}

/// A fully fused element-wise chain: evaluate the expression `prog` over
/// `leaves` once per row into a fresh `f64` buffer — **one** kernel however
/// long the chain. `bytes_per_row` is the per-row read footprint over every
/// operand column and `in_cols` names their device buffers, so the launch
/// declares its complete data flow.
pub fn fused_map_expr(
    device: &Arc<Device>,
    len: usize,
    bytes_per_row: usize,
    in_cols: &[gpu_sim::BufferId],
    prog: &Program,
    leaves: &[Leaf<'_>],
) -> Result<DeviceBuffer<f64>> {
    let out = device.buffer_from_vec(expr::map(prog, leaves, len), AllocPolicy::Pooled)?;
    charge_io(
        device,
        "fused_map",
        KernelCost::map::<(), f64>(len).with_read((len * bytes_per_row) as u64),
        in_cols,
        &[out.id()],
    )?;
    Ok(out)
}

/// The general form of [`fused_filter_dot`]: `SUM(prog(row))` over the rows
/// passing every one of `preds` — predicate, value expression and reduction
/// share one pass. Dropped rows contribute nothing to the fold, so the
/// accumulation order matches a select-then-reduce pipeline bit-for-bit.
pub fn fused_filter_sum(
    device: &Arc<Device>,
    len: usize,
    bytes_per_row: usize,
    in_cols: &[gpu_sim::BufferId],
    prog: &Program,
    leaves: &[Leaf<'_>],
    preds: &[RowPred<'_>],
) -> Result<f64> {
    let acc = expr::filter_sum(prog, leaves, preds, len, 0.0);
    charge_io(
        device,
        "fused_filter_sum",
        KernelCost::reduce::<f64>(len)
            .with_read((len * bytes_per_row) as u64)
            .with_flops(4 * len as u64)
            .with_divergence(0.2),
        in_cols,
        &[],
    )?;
    device.read_back_scalar();
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::hostexec::{Cmp, Lane, Rhs};

    #[test]
    fn reduce_and_scan() {
        let dev = Device::with_defaults();
        let v = dev.htod(&[1.0f64, 2.0, 3.5]).unwrap();
        assert_eq!(reduce_f64(&dev, &v).unwrap(), 6.5);
        let u = dev.htod(&[1u32, 2, 3]).unwrap();
        let s = exclusive_scan_u32(&dev, &u).unwrap();
        assert_eq!(s.host(), &[0, 1, 3]);
    }

    #[test]
    fn gathers_are_bounds_checked() {
        let dev = Device::with_defaults();
        let src = dev.htod(&[10u32, 20]).unwrap();
        let good = dev.htod(&[1u32, 0]).unwrap();
        assert_eq!(gather(&dev, &src, &good).unwrap().host(), &[20, 10]);
        let bad = dev.htod(&[5u32]).unwrap();
        assert!(gather(&dev, &src, &bad).is_err());
        let fsrc = dev.htod(&[1.0f64, 2.0]).unwrap();
        assert_eq!(gather(&dev, &fsrc, &good).unwrap().host(), &[2.0, 1.0]);
        assert!(gather(&dev, &fsrc, &bad).is_err());
    }

    #[test]
    fn radix_sort_pairs_sorts_stably() {
        let dev = Device::with_defaults();
        let mut k = dev.htod(&[2u32, 1, 2, 1]).unwrap();
        let mut v = dev.htod(&[20u32, 10, 21, 11]).unwrap();
        radix_sort_pairs(&dev, &mut k, &mut v).unwrap();
        assert_eq!(k.host(), &[1, 1, 2, 2]);
        assert_eq!(v.host(), &[10, 11, 20, 21]);
        let mut short = dev.htod(&[1u32]).unwrap();
        assert!(radix_sort_pairs(&dev, &mut k, &mut short).is_err());
    }

    #[test]
    fn fused_filter_dot_computes_q6_shape() {
        let dev = Device::with_defaults();
        let price = dev.htod(&[10.0f64, 20.0, 30.0]).unwrap();
        let disc = dev.htod(&[0.1f64, 0.2, 0.3]).unwrap();
        let keep = RowPred {
            col: Lane::F64(price.host()),
            cmp: Cmp::Ne,
            rhs: Rhs::Lit(20.0),
        };
        let r = fused_filter_dot(&dev, &price, &disc, 8, &[], &[keep]).unwrap();
        assert_eq!(r, 1.0 + 9.0);
        assert_eq!(dev.stats().launches_of("hw::fused_filter_dot"), 1);
    }

    #[test]
    fn scan_handles_wrapping_sums() {
        let dev = Device::with_defaults();
        let v = dev.htod(&[u32::MAX, 2]).unwrap();
        let s = exclusive_scan_u32(&dev, &v).unwrap();
        assert_eq!(s.host(), &[0, u32::MAX]);
    }
}
