//! Boost.Compute's algorithm suite.
//!
//! Every function enqueues on the given [`CommandQueue`], which JIT-compiles
//! the kernel on first use (per context, per type instantiation) and then
//! charges OpenCL enqueue overhead per launch. Functional semantics match
//! the Thrust equivalents; only the cost profile differs — which is exactly
//! the paper's point when comparing the two libraries.

use crate::context::CommandQueue;
use crate::vector::Vector;
use gpu_sim::{
    hostexec, presets, AllocPolicy, BufferId, DeviceCopy, KernelCost, RadixKey, Reservation,
    Result, SimError,
};
use std::any::type_name;
use std::ops::Add;

fn tkey<T>() -> &'static str {
    type_name::<T>()
}

/// `boost::compute::transform` — unary map.
///
/// The kernel body runs through the host-execution engine: written once
/// (same single raw allocation as `Vector::zeroed`, no zero-fill) and
/// split across host threads at fixed chunk granularity.
pub fn transform<T, U>(
    src: &Vector<T>,
    op: impl Fn(T) -> U + Sync,
    queue: &CommandQueue,
) -> Result<Vector<U>>
where
    T: DeviceCopy,
    U: DeviceCopy + Default,
{
    let out = charge_transform::<T, U>(src.len(), src.id(), queue)?;
    let input = src.as_slice();
    Ok(Vector::filled(
        out,
        gpu_sim::par_map_vec(src.len(), |i| op(input[i])),
    ))
}

/// A raw allocation of `n` elements of `T` whose contents are not backed
/// yet — the output of a charge half.
fn reserve_raw<T>(n: usize, queue: &CommandQueue) -> Result<Reservation> {
    queue.device().reserve(
        (n * std::mem::size_of::<T>()) as u64,
        AllocPolicy::Raw,
        true,
    )
}

/// What [`transform`] costs on the device: the output allocation and the
/// enqueue (JIT on first use), for `n` elements read from buffer `src`.
pub fn charge_transform<T, U>(n: usize, src: BufferId, queue: &CommandQueue) -> Result<Reservation>
where
    T: DeviceCopy,
    U: DeviceCopy,
{
    let out = reserve_raw::<U>(n, queue)?;
    queue.enqueue_io(
        "transform",
        tkey::<(T, U)>(),
        KernelCost::map::<T, U>(n),
        &[src],
        &[out.id()],
    )?;
    Ok(out)
}

/// `boost::compute::transform` with two inputs — binary map (the paper's
/// conjunction/disjunction via `bit_and<T>`/`bit_or<T>`, product via
/// `operator*`).
pub fn transform_binary<A, B, U>(
    a: &Vector<A>,
    b: &Vector<B>,
    op: impl Fn(A, B) -> U + Sync,
    queue: &CommandQueue,
) -> Result<Vector<U>>
where
    A: DeviceCopy,
    B: DeviceCopy,
    U: DeviceCopy + Default,
{
    let out = charge_transform_binary::<A, B, U>((a.len(), a.id()), (b.len(), b.id()), queue)?;
    let (xa, xb) = (a.as_slice(), b.as_slice());
    Ok(Vector::filled(
        out,
        gpu_sim::par_map_vec(a.len(), |i| op(xa[i], xb[i])),
    ))
}

/// What [`transform_binary`] costs on the device, for operands given as
/// `(length, buffer)`: the length check, the output allocation and the
/// enqueue.
pub fn charge_transform_binary<A, B, U>(
    a: (usize, BufferId),
    b: (usize, BufferId),
    queue: &CommandQueue,
) -> Result<Reservation>
where
    A: DeviceCopy,
    B: DeviceCopy,
    U: DeviceCopy,
{
    let n = a.0;
    if n != b.0 {
        return Err(SimError::SizeMismatch {
            left: n,
            right: b.0,
        });
    }
    let out = reserve_raw::<U>(n, queue)?;
    queue.enqueue_io(
        "transform_binary",
        tkey::<(A, B, U)>(),
        KernelCost::map::<A, U>(n)
            .with_read((n * (std::mem::size_of::<A>() + std::mem::size_of::<B>())) as u64),
        &[a.1, b.1],
        &[out.id()],
    )?;
    Ok(out)
}

/// `boost::compute::fill`.
pub fn fill<T: DeviceCopy>(vec: &mut Vector<T>, value: T, queue: &CommandQueue) -> Result<()> {
    gpu_sim::par_chunks_mut(vec.as_mut_slice(), 1 << 12, |_, chunk| {
        for x in chunk {
            *x = value;
        }
    });
    queue.enqueue_io(
        "fill",
        tkey::<T>(),
        KernelCost::map::<(), T>(vec.len()),
        &[],
        &[vec.id()],
    )?;
    Ok(())
}

/// `boost::compute::iota` — `0, 1, 2, …`.
pub fn iota(len: usize, queue: &CommandQueue) -> Result<Vector<u32>> {
    let out = charge_iota(len, queue)?;
    Ok(Vector::filled(out, gpu_sim::par_map_vec(len, |i| i as u32)))
}

/// What [`iota`] costs on the device: the output allocation and the
/// enqueue.
pub fn charge_iota(len: usize, queue: &CommandQueue) -> Result<Reservation> {
    let out = reserve_raw::<u32>(len, queue)?;
    queue.enqueue_io(
        "iota",
        "u32",
        KernelCost::map::<(), u32>(len),
        &[],
        &[out.id()],
    )?;
    Ok(out)
}

/// `boost::compute::reduce` — fold with `op` from `init`.
pub fn reduce<T, A>(
    src: &Vector<T>,
    init: A,
    op: impl Fn(A, T) -> A,
    queue: &CommandQueue,
) -> Result<A>
where
    T: DeviceCopy,
    A: DeviceCopy,
{
    let mut acc = init;
    for &x in src.as_slice() {
        acc = op(acc, x);
    }
    queue.enqueue_io(
        "reduce",
        tkey::<(T, A)>(),
        KernelCost::reduce::<T>(src.len()),
        &[src.id()],
        &[],
    )?;
    // Scalar result read back by the host.
    let dev = queue.device();
    dev.advance(gpu_sim::SimDuration::from_nanos(dev.spec().pcie_latency_ns));
    Ok(acc)
}

/// `boost::compute::reduce_by_key` — segmented reduction over consecutive
/// equal keys. Returns `(unique_keys, reduced_values)`.
pub fn reduce_by_key<K, V>(
    keys: &Vector<K>,
    vals: &Vector<V>,
    op: impl Fn(V, V) -> V,
    queue: &CommandQueue,
) -> Result<(Vector<K>, Vector<V>)>
where
    K: DeviceCopy + PartialEq + Default,
    V: DeviceCopy + Default,
{
    if keys.len() != vals.len() {
        return Err(SimError::SizeMismatch {
            left: keys.len(),
            right: vals.len(),
        });
    }
    let mut out_keys = Vec::new();
    let mut out_vals = Vec::new();
    {
        let ks = keys.as_slice();
        let vs = vals.as_slice();
        let mut i = 0;
        while i < ks.len() {
            let k = ks[i];
            let mut acc = vs[i];
            let mut j = i + 1;
            while j < ks.len() && ks[j] == k {
                acc = op(acc, vs[j]);
                j += 1;
            }
            out_keys.push(k);
            out_vals.push(acc);
            i = j;
        }
    }
    let (kb, vb) =
        charge_reduce_by_key::<K, V>(keys.len(), out_keys.len(), [keys.id(), vals.id()], queue)?;
    Ok((Vector::filled(kb, out_keys), Vector::filled(vb, out_vals)))
}

/// What [`reduce_by_key`] costs on the device: one enqueue over `n` rows
/// of the `[keys, vals]` buffers, then the allocation of the `groups`
/// unique keys and of their reduced values.
pub fn charge_reduce_by_key<K: DeviceCopy, V: DeviceCopy>(
    n: usize,
    groups: usize,
    reads: [BufferId; 2],
    queue: &CommandQueue,
) -> Result<(Reservation, Reservation)> {
    queue.enqueue_io(
        "reduce_by_key",
        tkey::<(K, V)>(),
        presets::reduce_by_key::<K, V>(n, groups),
        &reads,
        &[],
    )?;
    let keys = reserve_raw::<K>(groups, queue)?;
    let vals = reserve_raw::<V>(groups, queue)?;
    Ok((keys, vals))
}

/// `boost::compute::inner_product` — fused transform+reduce.
pub fn inner_product<A, B, R>(
    a: &Vector<A>,
    b: &Vector<B>,
    init: R,
    combine: impl Fn(R, R) -> R,
    multiply: impl Fn(A, B) -> R,
    queue: &CommandQueue,
) -> Result<R>
where
    A: DeviceCopy,
    B: DeviceCopy,
    R: DeviceCopy,
{
    if a.len() != b.len() {
        return Err(SimError::SizeMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    let mut acc = init;
    let (xa, xb) = (a.as_slice(), b.as_slice());
    for i in 0..xa.len() {
        acc = combine(acc, multiply(xa[i], xb[i]));
    }
    let n = a.len();
    queue.enqueue_io(
        "inner_product",
        tkey::<(A, B, R)>(),
        KernelCost::reduce::<A>(n)
            .with_read((n * (std::mem::size_of::<A>() + std::mem::size_of::<B>())) as u64)
            .with_flops(2 * n as u64),
        &[a.id(), b.id()],
        &[],
    )?;
    Ok(acc)
}

/// `boost::compute::exclusive_scan`.
pub fn exclusive_scan<T>(src: &Vector<T>, init: T, queue: &CommandQueue) -> Result<Vector<T>>
where
    T: DeviceCopy + Add<Output = T> + Default,
{
    let out = charge_exclusive_scan::<T>(src.len(), src.id(), queue)?;
    let mut data: Vec<T> = gpu_sim::hostmem::take_scratch(src.len());
    let mut acc = init;
    for (o, &x) in data.iter_mut().zip(src.as_slice()) {
        *o = acc;
        acc = acc + x;
    }
    Ok(Vector::filled(out, data))
}

/// What [`exclusive_scan`] costs on the device: the output allocation and
/// the enqueue, for `n` elements read from buffer `src`.
pub fn charge_exclusive_scan<T: DeviceCopy>(
    n: usize,
    src: BufferId,
    queue: &CommandQueue,
) -> Result<Reservation> {
    let out = reserve_raw::<T>(n, queue)?;
    queue.enqueue_io(
        "exclusive_scan",
        tkey::<T>(),
        presets::scan::<T>(n),
        &[src],
        &[out.id()],
    )?;
    Ok(out)
}

/// `boost::compute::inclusive_scan`.
pub fn inclusive_scan<T>(src: &Vector<T>, queue: &CommandQueue) -> Result<Vector<T>>
where
    T: DeviceCopy + Add<Output = T> + Default,
{
    let mut data: Vec<T> = gpu_sim::hostmem::take_scratch(src.len());
    let mut acc = T::default();
    for (o, &x) in data.iter_mut().zip(src.as_slice()) {
        acc = acc + x;
        *o = acc;
    }
    let buf = queue
        .device()
        .buffer_from_vec(data, gpu_sim::AllocPolicy::Raw)?;
    let out = Vector::from_buffer(buf);
    queue.enqueue_io(
        "inclusive_scan",
        tkey::<T>(),
        presets::scan::<T>(src.len()),
        &[src.id()],
        &[out.id()],
    )?;
    Ok(out)
}

/// `boost::compute::sort` — radix sort for primitive keys.
pub fn sort<T>(vec: &mut Vector<T>, queue: &CommandQueue) -> Result<()>
where
    T: DeviceCopy + RadixKey,
{
    hostexec::sort_keys(vec.as_mut_slice());
    for (i, cost) in presets::radix_sort::<T>(vec.len(), 0)
        .into_iter()
        .enumerate()
    {
        let phase = ["histogram", "digit_scan", "scatter"][i % 3];
        let writes: &[gpu_sim::BufferId] = if i % 3 == 2 { &[vec.id()] } else { &[] };
        queue.enqueue_io(
            &format!("sort/{phase}"),
            tkey::<T>(),
            cost,
            &[vec.id()],
            writes,
        )?;
    }
    Ok(())
}

/// `boost::compute::sort_by_key` — stable key sort carrying a payload.
pub fn sort_by_key<K, V>(
    keys: &mut Vector<K>,
    vals: &mut Vector<V>,
    queue: &CommandQueue,
) -> Result<()>
where
    K: DeviceCopy + RadixKey,
    V: DeviceCopy,
{
    charge_sort_by_key::<K, V>((keys.len(), keys.id()), (vals.len(), vals.id()), queue)?;
    hostexec::sort_pairs(keys.as_mut_slice(), vals.as_mut_slice());
    Ok(())
}

/// What [`sort_by_key`] costs on the device, for the key and value
/// vectors given as `(length, buffer)`: the length check and the radix
/// kernel triples.
pub fn charge_sort_by_key<K: DeviceCopy, V: DeviceCopy>(
    keys: (usize, BufferId),
    vals: (usize, BufferId),
    queue: &CommandQueue,
) -> Result<()> {
    if keys.0 != vals.0 {
        return Err(SimError::SizeMismatch {
            left: keys.0,
            right: vals.0,
        });
    }
    for (i, cost) in presets::radix_sort::<K>(keys.0, std::mem::size_of::<V>())
        .into_iter()
        .enumerate()
    {
        let phase = ["histogram", "digit_scan", "scatter"][i % 3];
        let kv = [keys.1, vals.1];
        let writes: &[BufferId] = if i % 3 == 2 { &kv } else { &[] };
        queue.enqueue_io(
            &format!("sort_by_key/{phase}"),
            tkey::<(K, V)>(),
            cost,
            &kv,
            writes,
        )?;
    }
    Ok(())
}

/// `boost::compute::gather` — `out[i] = src[map[i]]`.
pub fn gather<T>(map: &Vector<u32>, src: &Vector<T>, queue: &CommandQueue) -> Result<Vector<T>>
where
    T: DeviceCopy + Default,
{
    let m = map.as_slice();
    let s = src.as_slice();
    if let Some(&bad) = m.iter().find(|&&idx| idx as usize >= s.len()) {
        return Err(SimError::IndexOutOfBounds {
            index: bad as usize,
            len: s.len(),
        });
    }
    let buf = queue
        .device()
        .alloc_map_with(m.len(), gpu_sim::AllocPolicy::Raw, |i| s[m[i] as usize])?;
    let out = Vector::from_buffer(buf);
    queue.enqueue_io(
        "gather",
        tkey::<T>(),
        presets::gather::<T>(map.len()),
        &[map.id(), src.id()],
        &[out.id()],
    )?;
    Ok(out)
}

/// `boost::compute::scatter` — `dst[map[i]] = src[i]`.
pub fn scatter<T>(
    src: &Vector<T>,
    map: &Vector<u32>,
    dst: &mut Vector<T>,
    queue: &CommandQueue,
) -> Result<()>
where
    T: DeviceCopy,
{
    if src.len() != map.len() {
        return Err(SimError::SizeMismatch {
            left: src.len(),
            right: map.len(),
        });
    }
    {
        let s = src.as_slice();
        let m = map.as_slice();
        let dlen = dst.len();
        let d = dst.as_mut_slice();
        for (i, &idx) in m.iter().enumerate() {
            let idx = idx as usize;
            if idx >= dlen {
                return Err(SimError::IndexOutOfBounds {
                    index: idx,
                    len: dlen,
                });
            }
            d[idx] = s[i];
        }
    }
    queue.enqueue_io(
        "scatter",
        tkey::<T>(),
        presets::scatter::<T>(src.len()),
        &[src.id(), map.id()],
        &[dst.id()],
    )?;
    Ok(())
}

/// `boost::compute::scatter_if` — `dst[map[i]] = src[i]` where
/// `stencil[i] != 0` (selection-pipeline tail).
pub fn scatter_if<T>(
    src: &Vector<T>,
    map: &Vector<u32>,
    stencil: &Vector<u32>,
    dst: &mut Vector<T>,
    queue: &CommandQueue,
) -> Result<()>
where
    T: DeviceCopy,
{
    if src.len() != map.len() || src.len() != stencil.len() {
        return Err(SimError::SizeMismatch {
            left: src.len(),
            right: map.len().min(stencil.len()),
        });
    }
    {
        let s = src.as_slice();
        let m = map.as_slice();
        let st = stencil.as_slice();
        let dlen = dst.len();
        let d = dst.as_mut_slice();
        for i in 0..s.len() {
            if st[i] != 0 {
                let idx = m[i] as usize;
                if idx >= dlen {
                    return Err(SimError::IndexOutOfBounds {
                        index: idx,
                        len: dlen,
                    });
                }
                d[idx] = s[i];
            }
        }
    }
    let kept = stencil.as_slice().iter().filter(|&&f| f != 0).count();
    charge_scatter_if::<T>(
        src.len(),
        kept,
        [src.id(), map.id(), stencil.id()],
        dst.id(),
        queue,
    )
}

/// What [`scatter_if`] costs on the device: one enqueue over `n` elements
/// of which `kept` are written, reading the `[src, map, stencil]` buffers.
pub fn charge_scatter_if<T: DeviceCopy>(
    n: usize,
    kept: usize,
    reads: [BufferId; 3],
    dst: BufferId,
    queue: &CommandQueue,
) -> Result<()> {
    // Compaction writes are dense (ascending offsets) and sized by the
    // surviving rows: better coalescing than an arbitrary scatter.
    let elem = std::mem::size_of::<T>();
    queue.enqueue_io(
        "scatter_if",
        tkey::<T>(),
        KernelCost::map::<T, ()>(n)
            .with_read((n * (elem + 8)) as u64)
            .with_write((kept * elem) as u64)
            .with_pattern(gpu_sim::AccessPattern::Strided)
            .with_divergence(0.3),
        &reads,
        &[dst],
    )
}

/// `boost::compute::copy_if` — stream compaction. Boost.Compute lowers
/// this to a scan + scatter internally (two kernels).
pub fn copy_if<T>(
    src: &Vector<T>,
    pred: impl Fn(T) -> bool,
    queue: &CommandQueue,
) -> Result<Vector<T>>
where
    T: DeviceCopy + Default,
{
    let kept: Vec<T> = src
        .as_slice()
        .iter()
        .copied()
        .filter(|&x| pred(x))
        .collect();
    let n = src.len();
    let out_bytes = (kept.len() * std::mem::size_of::<T>()) as u64;
    queue.enqueue_io(
        "copy_if/scan",
        tkey::<T>(),
        presets::scan::<T>(n),
        &[src.id()],
        &[],
    )?;
    queue.enqueue_io(
        "copy_if/compact",
        tkey::<T>(),
        KernelCost::map::<T, ()>(n)
            .with_write(out_bytes)
            .with_divergence(0.3),
        &[src.id()],
        &[],
    )?;
    let buf = queue
        .device()
        .buffer_from_vec(kept, gpu_sim::AllocPolicy::Raw)?;
    Ok(Vector::from_buffer(buf))
}

/// `boost::compute::count_if`.
pub fn count_if<T>(src: &Vector<T>, pred: impl Fn(T) -> bool, queue: &CommandQueue) -> Result<usize>
where
    T: DeviceCopy,
{
    let n = src.as_slice().iter().filter(|&&x| pred(x)).count();
    queue.enqueue_io(
        "count_if",
        tkey::<T>(),
        KernelCost::reduce::<T>(src.len()),
        &[src.id()],
        &[],
    )?;
    Ok(n)
}

/// `boost::compute::for_each_n` over a counting range — the paper's
/// nested-loops-join vehicle. Caller declares the kernel footprint.
pub fn for_each_n(
    n: usize,
    cost: KernelCost,
    mut f: impl FnMut(usize),
    queue: &CommandQueue,
) -> Result<()> {
    if cost.flops == 0 && n > 0 {
        return Err(SimError::InvalidLaunch(
            "for_each_n requires a non-zero cost declaration".into(),
        ));
    }
    for i in 0..n {
        f(i);
    }
    queue.enqueue("for_each_n", "counting", cost)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use gpu_sim::Device;
    use std::sync::Arc;

    fn queue() -> (Arc<Device>, CommandQueue) {
        let dev = Device::with_defaults();
        let ctx = Context::new(&dev);
        (dev, CommandQueue::new(&ctx))
    }

    #[test]
    fn transform_and_cache_behaviour() {
        let (dev, q) = queue();
        let v = Vector::from_host(&[1u32, 2], &q).unwrap();
        let a = transform(&v, |x| x * 10, &q).unwrap();
        assert_eq!(a.to_host(&q).unwrap(), vec![10, 20]);
        let jits = dev.stats().jit_compiles;
        let _b = transform(&v, |x| x + 1, &q).unwrap();
        assert_eq!(dev.stats().jit_compiles, jits, "same instantiation, cached");
    }

    #[test]
    fn scan_sort_reduce_semantics() {
        let (_dev, q) = queue();
        let v = Vector::from_host(&[3u32, 1, 2], &q).unwrap();
        let s = exclusive_scan(&v, 0, &q).unwrap();
        assert_eq!(s.to_host(&q).unwrap(), vec![0, 3, 4]);
        let i = inclusive_scan(&v, &q).unwrap();
        assert_eq!(i.to_host(&q).unwrap(), vec![3, 4, 6]);
        let mut w = Vector::from_host(&[3u32, 1, 2], &q).unwrap();
        sort(&mut w, &q).unwrap();
        assert_eq!(w.to_host(&q).unwrap(), vec![1, 2, 3]);
        assert_eq!(reduce(&v, 0u32, |a, x| a + x, &q).unwrap(), 6);
    }

    #[test]
    fn sort_by_key_and_reduce_by_key() {
        let (_dev, q) = queue();
        let mut k = Vector::from_host(&[2u32, 1, 2, 1], &q).unwrap();
        let mut v = Vector::from_host(&[20u64, 10, 21, 11], &q).unwrap();
        sort_by_key(&mut k, &mut v, &q).unwrap();
        assert_eq!(k.to_host(&q).unwrap(), vec![1, 1, 2, 2]);
        assert_eq!(v.to_host(&q).unwrap(), vec![10, 11, 20, 21]);
        let (gk, gv) = reduce_by_key(&k, &v, |a, b| a + b, &q).unwrap();
        assert_eq!(gk.to_host(&q).unwrap(), vec![1, 2]);
        assert_eq!(gv.to_host(&q).unwrap(), vec![21, 41]);
    }

    #[test]
    fn gather_scatter_copy_if() {
        let (_dev, q) = queue();
        let src = Vector::from_host(&[5u32, 6, 7], &q).unwrap();
        let map = Vector::from_host(&[2u32, 0], &q).unwrap();
        let g = gather(&map, &src, &q).unwrap();
        assert_eq!(g.to_host(&q).unwrap(), vec![7, 5]);
        let mut dst: Vector<u32> = Vector::zeroed(3, &q).unwrap();
        scatter(&g, &map, &mut dst, &q).unwrap();
        assert_eq!(dst.to_host(&q).unwrap(), vec![5, 0, 7]);
        let kept = copy_if(&src, |x| x != 6, &q).unwrap();
        assert_eq!(kept.to_host(&q).unwrap(), vec![5, 7]);
        assert_eq!(count_if(&src, |x| x > 5, &q).unwrap(), 2);
    }

    #[test]
    fn inner_product_and_iota_and_fill() {
        let (_dev, q) = queue();
        let a = Vector::from_host(&[1.0f64, 2.0], &q).unwrap();
        let b = Vector::from_host(&[3.0f64, 4.0], &q).unwrap();
        let r = inner_product(&a, &b, 0.0, |x, y| x + y, |x, y| x * y, &q).unwrap();
        assert_eq!(r, 11.0);
        let i = iota(4, &q).unwrap();
        assert_eq!(i.to_host(&q).unwrap(), vec![0, 1, 2, 3]);
        let mut f: Vector<u8> = Vector::zeroed(3, &q).unwrap();
        fill(&mut f, 9, &q).unwrap();
        assert_eq!(f.to_host(&q).unwrap(), vec![9, 9, 9]);
    }

    #[test]
    fn first_op_pays_jit_cold_start() {
        let (dev, q) = queue();
        let v = Vector::from_host(&vec![1u32; 1024], &q).unwrap();
        let (_, cold) = dev.time(|| transform(&v, |x| x + 1, &q).unwrap());
        let (_, warm) = dev.time(|| transform(&v, |x| x + 1, &q).unwrap());
        assert!(
            cold.as_nanos() > warm.as_nanos() + dev.spec().opencl_jit_compile_ns / 2,
            "cold {cold} vs warm {warm}"
        );
    }

    #[test]
    fn mismatched_lengths_error() {
        let (_dev, q) = queue();
        let a = Vector::from_host(&[1u32], &q).unwrap();
        let b = Vector::from_host(&[1u32, 2], &q).unwrap();
        assert!(transform_binary(&a, &b, |x, y| x + y, &q).is_err());
        assert!(inner_product(&a, &b, 0u32, |x, y| x + y, |x, y| x * y, &q).is_err());
    }

    #[test]
    fn for_each_n_cost_contract() {
        let (_dev, q) = queue();
        assert!(for_each_n(5, KernelCost::empty(), |_| {}, &q).is_err());
        let mut acc = 0;
        for_each_n(5, KernelCost::empty().with_flops(5), |i| acc += i, &q).unwrap();
        assert_eq!(acc, 10);
    }
}
