//! The eager algorithm library — Thrust's and Boost.Compute's suite,
//! written once.
//!
//! The paper's Table II gives both libraries the same realisation of every
//! operator (`transform() & exclusive_scan() & scatter_if()`,
//! `sort_by_key() & reduce_by_key()`, `for_each_n()` …): free algorithms
//! over device vectors, every call launching at once and materialising its
//! result. What its evaluation compares is their *runtime profile* — how a
//! launch is issued and where memory comes from. That profile is a
//! [`Launch`] implementation; everything else is here, generic over it.
//!
//! Each algorithm is a [`hostexec`] body, a [`presets`] footprint and one
//! launch (a radix sort: three per digit pass). The chain algorithms also
//! expose their *charge half* — `charge_*`: the allocations and launches
//! for operands given as shapes and buffer ids, returning
//! [`Reservation`]s — so a caller that computes a whole chain's answer in
//! one host pass can replay the chain's cost without its intermediates.
//! Within an algorithm the order of allocation, launch and clock advance is
//! fixed: fault sites are drawn in that order. An in-place algorithm
//! checks its operands and charges before it runs its body, so a call that
//! returns `Err` leaves them as it found them. The bodies of `sort`,
//! `sort_by_key`, `reduce`, `exclusive_scan`, `gather`, `scatter`, `fill`
//! and `transform_binary` go through [`Device::body`], so a
//! [dry scope](Device::dry_scope) skips them and nothing else, and their
//! outputs there are shape-only. Every algorithm checks, before it charges
//! anything, that the inputs its body reads hold data
//! ([`Device::reads`]); the others read theirs through [`Vector::data`].

use crate::hostexec::{expr, RowPred};
use crate::{
    hostexec, presets, AccessPattern, AllocPolicy, BufferId, Contents, Device, DeviceBuffer,
    DeviceCopy, KernelCost, RadixKey, Readable, Reservation, Result, SimError,
};
use std::any::type_name;
use std::fmt::Display;
use std::sync::Arc;

/// An eager library's runtime profile: everything that differs between two
/// libraries offering this suite.
pub trait Launch {
    /// How the library allocates its vectors, algorithm outputs included.
    const ALLOC: AllocPolicy;
    /// The library's name for the algorithm that writes `0, 1, 2, …`
    /// (`thrust::sequence`, `boost::compute::iota`).
    const SEQUENCE: &'static str;

    /// The device the library runs on.
    fn device(&self) -> &Arc<Device>;

    /// Issue one kernel of algorithm `name`: stamp the library's launch
    /// latency on `cost` and charge it under the library's kernel prefix,
    /// through [`charge_launch`]. `key` identifies the instantiation (the
    /// element types, or the rendered expression of a zip functor); it is
    /// only called by a library that compiles programs at run time.
    /// Fallible: with a fault plan installed the launch can fail with
    /// [`SimError::DeviceLost`].
    fn launch<K: Display>(
        &self,
        name: &str,
        key: impl FnOnce() -> K,
        cost: KernelCost,
        reads: &[BufferId],
        writes: &[BufferId],
    ) -> Result<()>;
}

/// Charge one launch of `kernel` (its full name) with its declared read and
/// write sets, recorded into the trace for `gpu-lint`. Two empty sets
/// declare nothing: the footprint is recorded as unknown.
pub fn charge_launch(
    device: &Device,
    kernel: &str,
    cost: KernelCost,
    reads: &[BufferId],
    writes: &[BufferId],
) -> Result<()> {
    if reads.is_empty() && writes.is_empty() {
        device.try_charge_kernel(kernel, cost)?;
    } else {
        device.try_charge_kernel_io(kernel, cost, reads, writes)?;
    }
    Ok(())
}

/// A device-resident vector (`thrust::device_vector`,
/// `boost::compute::vector`), the currency of every algorithm.
#[derive(Debug)]
pub struct Vector<T: DeviceCopy> {
    buf: DeviceBuffer<T>,
}

impl<T: DeviceCopy> Vector<T> {
    /// Allocate as `lib` does and upload `host` (charges the transfer).
    pub fn from_host<L: Launch>(lib: &L, host: &[T]) -> Result<Self> {
        lib.device()
            .htod_with(host, L::ALLOC)
            .map(Self::from_buffer)
    }

    /// Allocate as `lib` does and upload the `len` values `source`
    /// produces, sharing them, which inside a dry scope it never calls: the
    /// vector is then shape-only ([`Device::upload`]).
    pub fn upload<L: Launch>(
        lib: &L,
        len: usize,
        source: impl FnOnce() -> Arc<Vec<T>>,
    ) -> Result<Self> {
        lib.device()
            .upload_with(len, L::ALLOC, source)
            .map(Self::from_buffer)
    }

    /// Allocate a zero-filled vector of `len` elements as `lib` does;
    /// shape-only inside a dry scope.
    pub fn zeroed<L: Launch>(lib: &L, len: usize) -> Result<Self>
    where
        T: Default,
    {
        lib.device()
            .alloc_with(len, L::ALLOC)
            .map(Self::from_buffer)
    }

    /// Wrap an existing device buffer.
    pub fn from_buffer(buf: DeviceBuffer<T>) -> Self {
        Vector { buf }
    }

    /// Back a [`Reservation`] a charge half made with the `data` the
    /// algorithm's body produced.
    fn filled(reserved: Reservation, data: impl Into<Contents<T>>) -> Self {
        Vector::from_buffer(reserved.into_buffer(data))
    }

    /// Download to the host (charges the transfer).
    pub fn to_host(&self) -> Result<Vec<T>> {
        self.buf.device().dtoh(&self.buf)
    }

    /// Device-to-device copy, allocated as the original was. The copy
    /// shares the original's host storage until either is written, so a
    /// `dclone` followed by an in-place sort copies the host data once, at
    /// the sort ([`Device::dtod`]).
    pub fn dclone(&self) -> Result<Self>
    where
        T: Default,
    {
        self.buf.device().dtod(&self.buf).map(Self::from_buffer)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Direct read view of device storage (kernel-side access, once the
    /// call checked its inputs).
    ///
    /// # Panics
    /// On a shape-only vector ([`DeviceBuffer::host`]).
    pub fn as_slice(&self) -> &[T] {
        self.buf.host()
    }

    /// The elements, or [`SimError::ShapeOnly`] for a shape-only vector.
    pub fn data(&self) -> Result<&[T]> {
        self.buf.data()
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        self.buf.host_mut()
    }

    /// The underlying buffer.
    pub fn buffer(&self) -> &DeviceBuffer<T> {
        &self.buf
    }

    /// The underlying buffer's trace identity (see [`BufferId`]).
    pub fn id(&self) -> BufferId {
        self.buf.id()
    }
}

impl<T: DeviceCopy> Readable for Vector<T> {
    fn readable(&self) -> Result<()> {
        self.buf.readable()
    }
}

/// An operand of a charge half: `(length, buffer)`.
pub type Operand = (usize, BufferId);

/// `SizeMismatch` unless two operands are equally long.
fn same_len(left: usize, right: usize) -> Result<()> {
    if left == right {
        Ok(())
    } else {
        Err(SimError::SizeMismatch { left, right })
    }
}

/// An allocation of `n` elements of `T` whose contents are not backed yet —
/// the output of a charge half.
fn reserve<T, L: Launch>(lib: &L, n: usize) -> Result<Reservation> {
    let bytes = (n * std::mem::size_of::<T>()) as u64;
    lib.device().reserve(bytes, L::ALLOC, true)
}

// ---------------------------------------------------------------------------
// Element-wise
// ---------------------------------------------------------------------------

/// `transform(first, last, result, op)` — unary map into a fresh vector.
/// One launch; the body is written once (no zero-fill) and split across
/// host threads at fixed chunk granularity.
pub fn transform<T, U>(
    lib: &impl Launch,
    src: &Vector<T>,
    op: impl Fn(T) -> U + Sync,
) -> Result<Vector<U>>
where
    T: DeviceCopy,
    U: DeviceCopy + Default,
{
    let input = src.data()?;
    let out = charge_transform::<T, U>(lib, src.len(), src.id())?;
    Ok(Vector::filled(
        out,
        hostexec::par_map_vec(src.len(), |i| op(input[i])),
    ))
}

/// What [`transform`] costs on the device: the output allocation and the
/// one launch, for `n` elements read from buffer `src`.
pub fn charge_transform<T, U>(lib: &impl Launch, n: usize, src: BufferId) -> Result<Reservation>
where
    T: DeviceCopy,
    U: DeviceCopy,
{
    let out = reserve::<U, _>(lib, n)?;
    let (key, cost) = (type_name::<(T, U)>, KernelCost::map::<T, U>(n));
    lib.launch("transform", key, cost, &[src], &[out.id()])?;
    Ok(out)
}

/// `transform(first1, last1, first2, result, op)` — binary map (the
/// paper's conjunction / disjunction via `bit_and<T>` / `bit_or<T>`,
/// product via `multiplies<T>`).
pub fn transform_binary<A, B, U>(
    lib: &impl Launch,
    a: &Vector<A>,
    b: &Vector<B>,
    op: impl Fn(A, B) -> U + Sync,
) -> Result<Vector<U>>
where
    A: DeviceCopy,
    B: DeviceCopy,
    U: DeviceCopy + Default,
{
    lib.device().reads(&[a, b])?;
    let out = charge_transform_binary::<A, B, U>(lib, (a.len(), a.id()), (b.len(), b.id()))?;
    let data = lib.device().outputs(a.len(), || {
        let (xa, xb) = (a.as_slice(), b.as_slice());
        hostexec::par_map_vec(a.len(), |i| op(xa[i], xb[i]))
    });
    Ok(Vector::filled(out, data))
}

/// What [`transform_binary`] costs on the device: the length check, the
/// output allocation and the one launch.
pub fn charge_transform_binary<A, B, U>(
    lib: &impl Launch,
    a: Operand,
    b: Operand,
) -> Result<Reservation>
where
    A: DeviceCopy,
    B: DeviceCopy,
    U: DeviceCopy,
{
    let n = a.0;
    same_len(n, b.0)?;
    let out = reserve::<U, _>(lib, n)?;
    let cost = KernelCost::map::<A, U>(n)
        .with_read((n * (std::mem::size_of::<A>() + std::mem::size_of::<B>())) as u64);
    let key = type_name::<(A, B, U)>;
    lib.launch("transform_binary", key, cost, &[a.1, b.1], &[out.id()])?;
    Ok(out)
}

/// `transform(zip_iterator(...), result, op)` — N-ary map over a zip of
/// device ranges, the functor given as an expression `prog` over the zipped
/// `leaves`. The caller supplies the aggregate read footprint and the zip's
/// constituent buffer ids, since the arity is only known at run time, and
/// the program `key`: to a library that compiles at run time each distinct
/// expression is its own kernel. One launch regardless of arity — the
/// single-pass form fused element-wise chains lower to.
pub fn transform_zip<U, K: Display, L: Launch>(
    lib: &L,
    len: usize,
    key: impl FnOnce() -> K,
    read_bytes: u64,
    reads: &[BufferId],
    prog: &expr::Program,
    leaves: &[expr::Leaf<'_>],
) -> Result<Vector<U>>
where
    U: DeviceCopy + expr::Store,
{
    let data = expr::map(prog, leaves, len);
    let out = Vector::from_buffer(lib.device().buffer_from_vec(data, L::ALLOC)?);
    let cost = KernelCost::map::<(), U>(len).with_read(read_bytes);
    lib.launch("transform_zip", key, cost, reads, &[out.id()])?;
    Ok(out)
}

/// `fill` — set every element to `value`.
pub fn fill<T: DeviceCopy>(lib: &impl Launch, vec: &mut Vector<T>, value: T) -> Result<()> {
    lib.device().reads(&[&*vec])?;
    let cost = KernelCost::map::<(), T>(vec.len());
    lib.launch("fill", type_name::<T>, cost, &[], &[vec.id()])?;
    let body =
        || hostexec::par_chunks_mut(vec.as_mut_slice(), 1 << 12, |_, chunk| chunk.fill(value));
    lib.device().body(body, || ());
    Ok(())
}

/// `sequence` / `iota` — write `0, 1, 2, …` (row-id generation).
pub fn sequence(lib: &impl Launch, len: usize) -> Result<Vector<u32>> {
    let out = charge_sequence(lib, len)?;
    Ok(Vector::filled(
        out,
        hostexec::par_map_vec(len, |i| i as u32),
    ))
}

/// What [`sequence`] costs on the device: the output allocation and the
/// one launch.
pub fn charge_sequence<L: Launch>(lib: &L, len: usize) -> Result<Reservation> {
    let out = reserve::<u32, _>(lib, len)?;
    let cost = KernelCost::map::<(), u32>(len);
    lib.launch(L::SEQUENCE, type_name::<u32>, cost, &[], &[out.id()])?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Reductions and scans
// ---------------------------------------------------------------------------

/// `reduce` — fold the vector with `op` starting from `init`, whose type
/// drives the reduction (it may differ from the element type). In a dry
/// scope the fold is skipped and `init` returned.
pub fn reduce<T, A>(
    lib: &impl Launch,
    src: &Vector<T>,
    init: A,
    op: impl Fn(A, T) -> A,
) -> Result<A>
where
    T: DeviceCopy,
    A: DeviceCopy,
{
    lib.device().reads(&[src])?;
    let fold = || src.as_slice().iter().fold(init, |acc, &x| op(acc, x));
    let acc = lib.device().body(fold, || init);
    let cost = KernelCost::reduce::<T>(src.len());
    lib.launch("reduce", type_name::<(T, A)>, cost, &[src.id()], &[])?;
    lib.device().read_back_scalar();
    Ok(acc)
}

/// `transform_reduce(zip_iterator(...), op, init, plus)` — fused
/// map-reduce over a zip of device ranges: `init` plus the expression `prog`
/// over the zipped `leaves`, summed over the rows that pass every one of
/// `preds`. Rows the predicates drop contribute nothing to the fold (rather
/// than a padded identity), so the accumulation sequence is exactly the
/// composed `selection → gather → reduce` chain's — bit-equal, including
/// signed zeros. One launch regardless of arity; footprint and `key` as for
/// [`transform_zip`].
#[allow(clippy::too_many_arguments)]
pub fn transform_reduce_zip<K: Display>(
    lib: &impl Launch,
    len: usize,
    key: impl FnOnce() -> K,
    read_bytes: u64,
    reads: &[BufferId],
    init: f64,
    prog: &expr::Program,
    leaves: &[expr::Leaf<'_>],
    preds: &[RowPred<'_>],
) -> Result<f64> {
    let acc = expr::filter_sum(prog, leaves, preds, len, init);
    let cost = KernelCost::reduce::<f64>(len).with_read(read_bytes);
    lib.launch("transform_reduce_zip", key, cost, reads, &[])?;
    lib.device().read_back_scalar();
    Ok(acc)
}

/// `inner_product` — fused multiply(-like) + reduce in a single launch,
/// e.g. `SUM(price * discount)`.
pub fn inner_product<A, B, R>(
    lib: &impl Launch,
    a: &Vector<A>,
    b: &Vector<B>,
    init: R,
    combine: impl Fn(R, R) -> R,
    multiply: impl Fn(A, B) -> R,
) -> Result<R>
where
    A: DeviceCopy,
    B: DeviceCopy,
    R: DeviceCopy,
{
    same_len(a.len(), b.len())?;
    let (n, xa, xb) = (a.len(), a.data()?, b.data()?);
    let mut acc = init;
    for i in 0..n {
        acc = combine(acc, multiply(xa[i], xb[i]));
    }
    let cost = KernelCost::reduce::<A>(n)
        .with_read((n * (std::mem::size_of::<A>() + std::mem::size_of::<B>())) as u64)
        .with_flops(2 * n as u64);
    let key = type_name::<(A, B, R)>;
    lib.launch("inner_product", key, cost, &[a.id(), b.id()], &[])?;
    Ok(acc)
}

/// `reduce_by_key` — segmented reduction over runs of *consecutive* equal
/// keys (the grouped-aggregation building block after a `sort_by_key`).
/// Returns `(unique_keys, reduced_values)`.
pub fn reduce_by_key<K, V>(
    lib: &impl Launch,
    keys: &Vector<K>,
    vals: &Vector<V>,
    op: impl Fn(V, V) -> V,
) -> Result<(Vector<K>, Vector<V>)>
where
    K: DeviceCopy + PartialEq,
    V: DeviceCopy,
{
    same_len(keys.len(), vals.len())?;
    let (mut out_keys, mut out_vals) = (Vec::new(), Vec::<V>::new());
    for (&k, &v) in keys.data()?.iter().zip(vals.data()?) {
        match out_vals.last_mut() {
            Some(acc) if out_keys.last() == Some(&k) => *acc = op(*acc, v),
            _ => {
                out_keys.push(k);
                out_vals.push(v);
            }
        }
    }
    let reads = [keys.id(), vals.id()];
    let (kbuf, vbuf) = charge_reduce_by_key::<K, V>(lib, keys.len(), out_keys.len(), reads)?;
    Ok((
        Vector::filled(kbuf, out_keys),
        Vector::filled(vbuf, out_vals),
    ))
}

/// What [`reduce_by_key`] costs on the device: one launch over `n` rows of
/// the `[keys, vals]` buffers, then the allocation of the `groups` unique
/// keys and of their reduced values.
pub fn charge_reduce_by_key<K: DeviceCopy, V: DeviceCopy>(
    lib: &impl Launch,
    n: usize,
    groups: usize,
    reads: [BufferId; 2],
) -> Result<(Reservation, Reservation)> {
    let cost = presets::reduce_by_key::<K, V>(n, groups);
    lib.launch("reduce_by_key", type_name::<(K, V)>, cost, &reads, &[])?;
    Ok((reserve::<K, _>(lib, groups)?, reserve::<V, _>(lib, groups)?))
}

/// `exclusive_scan` — `out[i] = init + Σ src[0..i]` modulo 2^32, as CUDA's
/// unsigned arithmetic wraps: the middle stage of library-based selection
/// (predicate flags → output offsets) and the *Prefix Sum* operator itself.
pub fn exclusive_scan(lib: &impl Launch, src: &Vector<u32>, init: u32) -> Result<Vector<u32>> {
    lib.device().reads(&[src])?;
    let out = charge_exclusive_scan::<u32>(lib, src.len(), src.id())?;
    let data = lib.device().outputs(src.len(), || {
        let mut data: Vec<u32> = vec![0; src.len()];
        let mut acc = init;
        for (o, &x) in data.iter_mut().zip(src.as_slice()) {
            *o = acc;
            acc = acc.wrapping_add(x);
        }
        data
    });
    Ok(Vector::filled(out, data))
}

/// What [`exclusive_scan`] costs on the device: the output allocation and
/// the one launch, for `n` elements read from buffer `src`.
pub fn charge_exclusive_scan<T: DeviceCopy>(
    lib: &impl Launch,
    n: usize,
    src: BufferId,
) -> Result<Reservation> {
    let out = reserve::<T, _>(lib, n)?;
    let cost = presets::scan::<T>(n);
    lib.launch("exclusive_scan", type_name::<T>, cost, &[src], &[out.id()])?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Sorting
// ---------------------------------------------------------------------------

/// The launches of an LSD radix sort of `n` keys `K` carrying
/// `payload_bytes` per row: one histogram / digit-scan / scatter triple per
/// 8-bit digit, instantiated for `I`.
fn charge_radix<K, I>(
    lib: &impl Launch,
    n: usize,
    payload_bytes: usize,
    label: &str,
    bufs: &[BufferId],
) -> Result<()> {
    let passes = presets::radix_sort::<K>(n, payload_bytes);
    for (i, cost) in passes.into_iter().enumerate() {
        let phase = ["histogram", "digit_scan", "scatter"][i % 3];
        // Every phase reads the key / value buffers; the scatter phase
        // writes them back (the sort is in place at the buffer level —
        // ping-pong scratch is internal to the pass).
        let writes = if i % 3 == 2 { bufs } else { &[] };
        let name = format!("{label}/{phase}");
        lib.launch(&name, type_name::<I>, cost, bufs, writes)?;
    }
    Ok(())
}

/// `sort` — ascending in-place sort. Primitive keys dispatch to a real LSD
/// radix sort ([`hostexec::sort_keys`]), as Thrust hands them to CUB.
pub fn sort<T>(lib: &impl Launch, vec: &mut Vector<T>) -> Result<()>
where
    T: DeviceCopy + RadixKey,
{
    lib.device().reads(&[&*vec])?;
    charge_radix::<T, T>(lib, vec.len(), 0, "sort", &[vec.id()])?;
    lib.device()
        .body(|| hostexec::sort_keys(vec.as_mut_slice()), || ());
    Ok(())
}

/// `sort_by_key` — sort `keys` ascending, permuting `vals` along. Stable,
/// so equal keys keep their input order.
pub fn sort_by_key<K, V>(
    lib: &impl Launch,
    keys: &mut Vector<K>,
    vals: &mut Vector<V>,
) -> Result<()>
where
    K: DeviceCopy + RadixKey,
    V: DeviceCopy,
{
    lib.device().reads(&[&*keys, &*vals])?;
    charge_sort_by_key::<K, V>(lib, (keys.len(), keys.id()), (vals.len(), vals.id()))?;
    let body = || hostexec::sort_pairs(keys.as_mut_slice(), vals.as_mut_slice());
    lib.device().body(body, || ());
    Ok(())
}

/// What [`sort_by_key`] costs on the device: the length check and the
/// radix kernel triples.
pub fn charge_sort_by_key<K, V>(lib: &impl Launch, keys: Operand, vals: Operand) -> Result<()> {
    same_len(keys.0, vals.0)?;
    let (n, bufs) = (keys.0, [keys.1, vals.1]);
    charge_radix::<K, (K, V)>(lib, n, std::mem::size_of::<V>(), "sort_by_key", &bufs)
}

// ---------------------------------------------------------------------------
// Index-directed permutation
// ---------------------------------------------------------------------------

/// `gather(map, src)` — `out[i] = src[map[i]]`.
pub fn gather<T, L: Launch>(lib: &L, map: &Vector<u32>, src: &Vector<T>) -> Result<Vector<T>>
where
    T: DeviceCopy + Default,
{
    lib.device().reads(&[map, src])?;
    let check = || map.buffer().check_indices(src.len());
    let body = || hostexec::gather(src.as_slice(), map.as_slice());
    let data = lib.device().checked_outputs(map.len(), check, body)?;
    let out = Vector::from_buffer(lib.device().buffer_from_vec(data, L::ALLOC)?);
    let (cost, reads) = (presets::gather::<T>(map.len()), [map.id(), src.id()]);
    lib.launch("gather", type_name::<T>, cost, &reads, &[out.id()])?;
    Ok(out)
}

/// `scatter(src, map, dst)` — `dst[map[i]] = src[i]`.
pub fn scatter<T>(
    lib: &impl Launch,
    src: &Vector<T>,
    map: &Vector<u32>,
    dst: &mut Vector<T>,
) -> Result<()>
where
    T: DeviceCopy,
{
    lib.device().reads(&[src, map, &*dst])?;
    same_len(src.len(), map.len())?;
    map.buffer().check_indices(dst.len())?;
    let (cost, reads) = (presets::scatter::<T>(src.len()), [src.id(), map.id()]);
    lib.launch("scatter", type_name::<T>, cost, &reads, &[dst.id()])?;
    let body = || {
        let d = dst.as_mut_slice();
        for (&x, &at) in src.as_slice().iter().zip(map.as_slice()) {
            d[at as usize] = x;
        }
    };
    lib.device().body(body, || ());
    Ok(())
}

/// `scatter_if(src, map, stencil, dst)` — `dst[map[i]] = src[i]` where
/// `stencil[i] != 0`. The third kernel of the paper's library selection
/// pipeline: compacts row ids to their scanned offsets.
pub fn scatter_if<T>(
    lib: &impl Launch,
    src: &Vector<T>,
    map: &Vector<u32>,
    stencil: &Vector<u32>,
    dst: &mut Vector<T>,
) -> Result<()>
where
    T: DeviceCopy,
{
    let n = src.len();
    if n != map.len() || n != stencil.len() {
        return Err(SimError::SizeMismatch {
            left: n,
            right: map.len().min(stencil.len()),
        });
    }
    let (s, m, st) = (src.data()?, map.data()?, stencil.data()?);
    let selected = || (0..n).filter(|&i| st[i] != 0);
    hostexec::check_indices(selected().map(|i| m[i]), dst.len())?;
    let reads = [src.id(), map.id(), stencil.id()];
    charge_scatter_if::<T>(lib, n, selected().count(), reads, dst.id())?;
    let d = dst.as_mut_slice();
    for i in selected() {
        d[m[i] as usize] = s[i];
    }
    Ok(())
}

/// What [`scatter_if`] costs on the device: one launch over `n` elements
/// of which `kept` are written, reading the `[src, map, stencil]` buffers.
pub fn charge_scatter_if<T: DeviceCopy>(
    lib: &impl Launch,
    n: usize,
    kept: usize,
    reads: [BufferId; 3],
    dst: BufferId,
) -> Result<()> {
    // Compaction writes are dense (ascending offsets) and sized by the
    // surviving rows: better coalescing than an arbitrary scatter.
    let elem = std::mem::size_of::<T>();
    let cost = KernelCost::map::<T, ()>(n)
        .with_read((n * (elem + 8)) as u64) // data + map + stencil
        .with_write((kept * elem) as u64)
        .with_pattern(AccessPattern::Strided)
        .with_divergence(0.3);
    lib.launch("scatter_if", type_name::<T>, cost, &reads, &[dst])
}

// ---------------------------------------------------------------------------
// Arbitrary functors
// ---------------------------------------------------------------------------

/// `for_each_n` over a counting iterator — run `f(i)` for `i in 0..n`,
/// charging the caller-declared `cost`. Table II maps the nested-loops join
/// here: the functor captures device buffers and performs arbitrary reads
/// and writes, so only the caller knows the footprint.
pub fn for_each_n(
    lib: &impl Launch,
    n: usize,
    cost: KernelCost,
    f: impl FnMut(usize),
) -> Result<()> {
    if cost.flops == 0 && n > 0 {
        return Err(SimError::InvalidLaunch(
            "for_each_n requires a non-zero cost declaration".into(),
        ));
    }
    (0..n).for_each(f);
    lib.launch("for_each_n", || "counting", cost, &[], &[])
}

#[cfg(test)]
mod tests;
