//! The simulated device: allocation, transfers, kernel accounting, timing.
//!
//! `Device` is shared (`Arc`) between every library handle and buffer.
//! It owns the virtual clock, the statistics counters and the caching
//! memory pool. All methods are thread-safe; device work is serialised on a
//! single in-order timeline, which matches how the paper benchmarks each
//! library (synchronous timing around each operator); the model has no
//! stream concept.
//!
//! Every cost is one event ([`TraceKind`]) through one private `emit`,
//! which — in one critical section — advances the clock, folds the event
//! into [`DeviceStats`] and, with tracing on, records it. So the clock,
//! the counters and the trace describe the same run by construction.
//!
//! A [`DryScope`] ([`Device::dry_scope`]) switches the device to charges
//! without bodies: every kernel body asks [`Device::body`] whether to run,
//! and inside the scope gets its placeholder instead, whose outputs are
//! shape-only buffers (DESIGN.md §5).

use crate::buffer::{
    upload_copy, BufferId, Contents, DeviceBuffer, DeviceCopy, Readable, Reservation, Storage,
};
use crate::clock::{SimDuration, SimTime};
use crate::cost::KernelCost;
use crate::error::{Result, SimError};
use crate::fault::{fault_error, FaultPlan, FaultSite, FaultState, FAULT_LATENCY_NS};
use crate::pool::{rounded_size, AllocPolicy, MemoryPool, PoolStats};
use crate::spec::DeviceSpec;
use crate::stats::DeviceStats;
use crate::trace::{KernelIo, Recovery, TraceEvent, TraceKind};
use crate::transfer::{transfer_time, Direction};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Latency of serving a [`AllocPolicy::Pooled`] allocation from the
/// sub-allocator cache (a free-list pop — no driver round trip).
/// Exposed so plan costing prices warm allocations the same way
/// [`Device::alloc`] charges them.
pub const POOL_HIT_NS: u64 = 500;

/// A simulated GPU.
#[derive(Debug)]
pub struct Device {
    spec: DeviceSpec,
    inner: Mutex<Inner>,
    /// Set while a [`DryScope`] lives: kernel bodies make placeholders.
    dry: AtomicBool,
}

/// A dry scope on a [`Device`], from [`Device::dry_scope`]. While it
/// lives, every kernel body routed through [`Device::body`] is replaced by
/// its placeholder; everything the device sees stays as it was. Dropping
/// it — on return, on an early `?`, or while a panic unwinds — restores
/// the flag it found, so scopes nest.
#[derive(Debug)]
#[must_use = "the scope ends when the guard is dropped"]
pub struct DryScope<'d> {
    device: &'d Device,
    outer: bool,
}

impl Drop for DryScope<'_> {
    fn drop(&mut self) {
        self.device.dry.store(self.outer, Ordering::Relaxed);
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// The virtual clock.
    now: SimTime,
    tracing: bool,
    /// The last [`BufferId`] handed out; ids start at 1 and are never
    /// reused, not even by a failed allocation.
    last_buffer: u64,
    stats: DeviceStats,
    pool: MemoryPool,
    trace: Vec<TraceEvent>,
    faults: Option<FaultState>,
    /// Number of live buffers and reservations — the teardown self-check
    /// (`Device::drop`) asserts this is zero in debug builds.
    live_buffers: u64,
}

impl Inner {
    /// The one charge path: advance the clock by `dur`, fold the event
    /// into the counters, and record it when tracing.
    fn emit(&mut self, dur: SimDuration, kind: TraceKind) {
        let start = self.now;
        self.now = start + dur;
        self.stats.apply(dur, &kind);
        if self.tracing {
            let (start, end) = (start.as_nanos(), self.now.as_nanos());
            self.trace.push(TraceEvent::new(start, end, kind));
        }
    }

    /// Advance the clock without an event: costs no event is attributed
    /// to yet ([`Device::advance`], the `Raw` free latency).
    fn advance(&mut self, dur: SimDuration) {
        self.now = self.now + dur;
    }

    /// Device memory not reserved by live buffers or the pool cache.
    fn available(&self, spec: &DeviceSpec) -> u64 {
        spec.global_mem_bytes.saturating_sub(self.stats.mem_in_use)
    }

    /// Draw the next fault decision at `site`; on a fire, emit the fault
    /// (charging its detection latency) and return the injected error.
    /// `requested` is the byte size for alloc/transfer sites, `label` the
    /// kernel or plan step for the others.
    fn inject(
        &mut self,
        spec: &DeviceSpec,
        site: FaultSite,
        label: &str,
        requested: u64,
    ) -> Result<()> {
        let Some(state) = self.faults.as_mut() else {
            return Ok(());
        };
        if !state.draw(site) {
            return Ok(());
        }
        let Some(err) = fault_error(site, label, requested, self.available(spec)) else {
            return Ok(()); // absorbed alloc fault: the request still fits
        };
        let latency = SimDuration::from_nanos(FAULT_LATENCY_NS);
        self.emit(latency, TraceKind::Fault(format!("{site}: {err}")));
        Err(err)
    }
}

/// The event of one launch of `name` costing `cost`.
fn launch(name: &str, cost: &KernelCost, io: KernelIo) -> TraceKind {
    TraceKind::Kernel {
        name: name.to_string(),
        io,
        bytes_read: cost.bytes_read,
        bytes_written: cost.bytes_written,
    }
}

impl Device {
    /// Create a device with the given specification.
    pub fn new(spec: DeviceSpec) -> Arc<Device> {
        let (inner, dry) = (Mutex::default(), AtomicBool::new(false));
        Arc::new(Device { spec, inner, dry })
    }

    /// Create the default paper device (GTX 1080-class).
    pub fn with_defaults() -> Arc<Device> {
        Device::new(DeviceSpec::default())
    }

    /// The device's static specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Current virtual instant.
    pub fn now(&self) -> SimTime {
        self.inner.lock().now
    }

    /// Advance the virtual clock directly (library crates use this for
    /// costs outside the kernel/transfer models, e.g. host-side graph
    /// bookkeeping). No event is recorded and no counter moves.
    pub fn advance(&self, d: SimDuration) {
        self.inner.lock().advance(d);
    }

    /// Charge the small device→host copy that returns one scalar (a
    /// reduction's total, a compaction's count): one PCIe latency. Like
    /// [`advance`](Self::advance), it records no event and moves no
    /// counter.
    pub fn read_back_scalar(&self) {
        self.advance(SimDuration::from_nanos(self.spec.pcie_latency_ns));
    }

    /// Run `f` and return its result together with the simulated time it
    /// consumed. This is the measurement primitive every benchmark uses.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, SimDuration) {
        let start = self.now();
        let r = f();
        (r, self.now() - start)
    }

    // ----------------------------------------------------------------
    // Bodies
    // ----------------------------------------------------------------

    /// Run kernel bodies dry until the returned guard drops: for work whose
    /// simulated cost depends only on shapes and on counts a placeholder
    /// can take from the inputs, and whose outputs nobody reads. Inside the
    /// scope outputs are shape-only (a reduction returns its seed) and so
    /// are lazy uploads ([`Device::upload`]); every input check, fault
    /// draw, reservation, transfer, launch, JIT lookup, free, output length
    /// and the clock stay exactly what they are with bodies.
    pub fn dry_scope(&self) -> DryScope<'_> {
        let outer = self.dry.swap(true, Ordering::Relaxed);
        DryScope {
            device: self,
            outer,
        }
    }

    /// Whether a [`DryScope`] is live on this device.
    pub fn is_dry(&self) -> bool {
        self.dry.load(Ordering::Relaxed)
    }

    /// The one place a kernel body is skipped: `body()`, or inside a
    /// [`DryScope`] `placeholder()`. A placeholder performs every input
    /// check the body performs and returns shape-only outputs of the
    /// body's lengths. Where a charge reads a count of the answer — rows a
    /// selection keeps, distinct groups — the placeholder is *counted*: it
    /// computes that count from the inputs (`hostexec::count_rows`,
    /// `hostexec::distinct_keys`) and nothing else. A counted placeholder
    /// reads only real uploads, never another operator's dry output or a
    /// lazy upload, which are shape-only: it takes them through
    /// [`DeviceBuffer::data`], so doing so is [`SimError::ShapeOnly`].
    pub fn body<R>(&self, body: impl FnOnce() -> R, placeholder: impl FnOnce() -> R) -> R {
        if self.is_dry() {
            placeholder()
        } else {
            body()
        }
    }

    /// [`Device::body`] for a body that computes `len` output elements:
    /// inside a [`DryScope`], shape-only contents of that length.
    pub fn outputs<T>(&self, len: usize, body: impl FnOnce() -> Vec<T>) -> Contents<T> {
        self.body(|| Contents::Data(body()), || Contents::Shape(len))
    }

    /// [`Device::outputs`] for a body that can refuse its input: inside a
    /// [`DryScope`], `check` — the refusal alone — runs in its place.
    pub fn checked_outputs<T>(
        &self,
        len: usize,
        check: impl FnOnce() -> Result<()>,
        body: impl FnOnce() -> Result<Vec<T>>,
    ) -> Result<Contents<T>> {
        self.body(
            || body().map(Contents::Data),
            || check().map(|()| Contents::Shape(len)),
        )
    }

    /// What a call whose kernel bodies read `inputs` checks before it
    /// charges anything. Outside a [`DryScope`] the bodies run, so each
    /// input must hold data: the first shape-only one is
    /// [`SimError::ShapeOnly`], and the call costs nothing. Inside one only
    /// placeholders run, and they read lengths.
    pub fn reads(&self, inputs: &[&dyn Readable]) -> Result<()> {
        if self.is_dry() {
            return Ok(());
        }
        inputs.iter().try_for_each(|input| input.readable())
    }

    // ----------------------------------------------------------------
    // Fault injection and recovery accounting
    // ----------------------------------------------------------------

    /// Install a fault plan; subsequent device operations draw injection
    /// decisions from it. Replaces any existing plan and resets the
    /// per-site draw counters, so installing the same plan twice replays
    /// the same schedule.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.inner.lock().faults = Some(FaultState::new(plan));
    }

    /// Remove the installed fault plan (if any), returning it.
    pub fn clear_fault_plan(&self) -> Option<FaultPlan> {
        self.inner.lock().faults.take().map(|s| s.plan)
    }

    /// Draw the next plan-step fault decision — the hook the resilient
    /// plan executor calls once per step attempt, *before* interpreting
    /// the step. With no plan installed (or a zero `plan-step` rate) this
    /// draws nothing and is free: no clock or trace effect, so the
    /// fault-free path stays byte-identical to plain execution. On a
    /// fire it counts the fault, charges the detection latency, traces
    /// it, and returns the injected [`SimError::DeviceLost`].
    pub fn inject_plan_step_fault(&self, label: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.inject(&self.spec, FaultSite::PlanStep, label, 0)
    }

    /// Note a recovery action a layer above the simulator took, so it
    /// shows in the stats and the trace. `cost` is the simulated time it
    /// charges: a retry's backoff, [`SimDuration::ZERO`] for the others.
    pub fn note(&self, recovery: Recovery, cost: SimDuration) {
        self.inner.lock().emit(cost, TraceKind::Recovery(recovery));
    }

    // ----------------------------------------------------------------
    // Allocation
    // ----------------------------------------------------------------

    /// Allocate an uninitialised (zeroed) buffer of `len` elements using
    /// the pooled policy; shape-only inside a [`DryScope`].
    pub fn alloc<T: DeviceCopy + Default>(self: &Arc<Self>, len: usize) -> Result<DeviceBuffer<T>> {
        self.alloc_with(len, AllocPolicy::Pooled)
    }

    /// Allocate with an explicit policy ([`AllocPolicy::Raw`] charges a
    /// driver round-trip on every call — Boost.Compute's default path).
    pub(crate) fn alloc_with<T: DeviceCopy + Default>(
        self: &Arc<Self>,
        len: usize,
        policy: AllocPolicy,
    ) -> Result<DeviceBuffer<T>> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let res = self.reserve(bytes, policy, false)?;
        Ok(res.into_buffer(self.outputs(len, || vec![T::default(); len])))
    }

    /// Allocate a buffer initialised from host data (or shape-only
    /// contents) **without** charging a transfer — used internally and by
    /// tests; measured code paths use [`Device::htod`].
    pub fn buffer_from_vec<T: DeviceCopy>(
        self: &Arc<Self>,
        data: impl Into<Contents<T>>,
        policy: AllocPolicy,
    ) -> Result<DeviceBuffer<T>> {
        let data = data.into();
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        // Born initialised: the buffer carries its host contents from the
        // start (materialised kernel outputs come this way).
        Ok(self.reserve(bytes, policy, true)?.into_buffer(data))
    }

    /// Reserve `bytes` of device memory without host storage behind it:
    /// the one allocation path every buffer goes through. `init` says
    /// whether the memory counts as written from birth (a kernel output or
    /// an upload) or starts undefined (`alloc`) — the flag the trace's
    /// allocation event carries.
    pub fn reserve(
        self: &Arc<Self>,
        bytes: u64,
        policy: AllocPolicy,
        init: bool,
    ) -> Result<Reservation> {
        let rounded = rounded_size(bytes);
        let id = self.account_alloc(rounded, policy, init)?;
        let device = Arc::clone(self);
        Ok(Reservation::from_parts(device, policy, bytes, rounded, id))
    }

    /// Mint the next buffer id and charge allocating `bytes` (size-class
    /// rounded) for it.
    fn account_alloc(&self, bytes: u64, policy: AllocPolicy, init: bool) -> Result<BufferId> {
        let mut inner = self.inner.lock();
        inner.last_buffer += 1;
        let buf = BufferId(inner.last_buffer);
        // Pool hits reuse memory already counted in mem_in_use, and never
        // reach the driver's fault site.
        if policy == AllocPolicy::Pooled && inner.pool.try_acquire(bytes) {
            inner.live_buffers += 1;
            // Hidden from timelines, but gives the lint passes a birth
            // record for pool-served buffers.
            let kind = TraceKind::PoolAlloc { bytes, buf, init };
            inner.emit(SimDuration::from_nanos(POOL_HIT_NS), kind);
            return Ok(buf);
        }
        // Pool misses go to the driver, which is where injected memory
        // pressure strikes.
        inner.inject(&self.spec, FaultSite::Alloc, "", bytes)?;
        if bytes > inner.available(&self.spec) {
            // Last resort: trim the pool and retry, like real pools do
            // under memory pressure.
            let released = inner.pool.trim();
            inner.stats.mem_in_use -= released;
            let available = inner.available(&self.spec);
            if bytes > available {
                return Err(SimError::OutOfMemory {
                    requested: bytes,
                    available,
                });
            }
        }
        inner.stats.mem_in_use += bytes;
        inner.stats.mem_peak = inner.stats.mem_peak.max(inner.stats.mem_in_use);
        inner.live_buffers += 1;
        let kind = TraceKind::Alloc { bytes, buf, init };
        inner.emit(SimDuration::from_nanos(self.spec.malloc_latency_ns), kind);
        Ok(buf)
    }

    pub(crate) fn on_buffer_free(&self, buf: BufferId, alloc_bytes: u64, policy: AllocPolicy) {
        let mut inner = self.inner.lock();
        inner.live_buffers = inner.live_buffers.saturating_sub(1);
        match policy {
            // Memory stays reserved in the cache: mem_in_use unchanged.
            AllocPolicy::Pooled => inner.pool.release(alloc_bytes),
            AllocPolicy::Raw => {
                inner.stats.mem_in_use = inner.stats.mem_in_use.saturating_sub(alloc_bytes);
                inner.advance(SimDuration::from_nanos(self.spec.free_latency_ns));
            }
        }
        // The end of the buffer's lifetime for the lifetime pass:
        // zero-width, after the Raw latency above.
        inner.emit(SimDuration::ZERO, TraceKind::Free { buf });
    }

    /// Number of currently live [`DeviceBuffer`]s and [`Reservation`]s on
    /// this device.
    pub fn live_buffers(&self) -> u64 {
        self.inner.lock().live_buffers
    }

    // ----------------------------------------------------------------
    // Transfers
    // ----------------------------------------------------------------

    /// Copy host data to a new device buffer, charging PCIe time. When
    /// `host` is a column its owner published ([`crate::publish`]), the
    /// buffer shares that column; while a buffer holds an upload of the
    /// same slice (address, length, element type) whose bits are still
    /// `host`'s, it shares that copy. Otherwise it makes a copy; a slice
    /// under 64 KiB is always copied. The device sees the same upload
    /// either way.
    pub fn htod<T: DeviceCopy>(self: &Arc<Self>, host: &[T]) -> Result<DeviceBuffer<T>> {
        self.htod_with(host, AllocPolicy::Pooled)
    }

    /// [`Device::htod`] with an explicit allocation policy (OpenCL-style
    /// libraries allocate raw buffers for every upload).
    pub(crate) fn htod_with<T: DeviceCopy>(
        self: &Arc<Self>,
        host: &[T],
        policy: AllocPolicy,
    ) -> Result<DeviceBuffer<T>> {
        self.htod_storage(Storage::Data(upload_copy(host)), policy)
    }

    /// Upload `len` elements that `source` produces, charging PCIe time:
    /// [`Device::htod`] for values only a kernel body reads. The buffer
    /// shares the `Vec` `source` returns (a column cache keeps its own
    /// handle on it) and copies it at its first write. Inside a
    /// [`DryScope`] no body will read it, so `source` is not called and the
    /// buffer is shape-only — with the same reservation, alloc and HtoD
    /// fault draws and `HtoD` event as the upload of the values. `source`
    /// producing other than `len` elements is `SizeMismatch`, before
    /// anything is charged.
    pub fn upload<T: DeviceCopy>(
        self: &Arc<Self>,
        len: usize,
        source: impl FnOnce() -> Arc<Vec<T>>,
    ) -> Result<DeviceBuffer<T>> {
        self.upload_with(len, AllocPolicy::Pooled, source)
    }

    /// [`Device::upload`] with an explicit allocation policy.
    pub(crate) fn upload_with<T: DeviceCopy>(
        self: &Arc<Self>,
        len: usize,
        policy: AllocPolicy,
        source: impl FnOnce() -> Arc<Vec<T>>,
    ) -> Result<DeviceBuffer<T>> {
        if self.is_dry() {
            return self.htod_storage(Storage::Shape(len), policy);
        }
        let data = source();
        if data.len() != len {
            let (left, right) = (len, data.len());
            return Err(SimError::SizeMismatch { left, right });
        }
        self.htod_storage(Storage::Data(data), policy)
    }

    /// The one upload path: a buffer born with `storage`, then the
    /// transfer of its bytes.
    fn htod_storage<T: DeviceCopy>(
        self: &Arc<Self>,
        storage: Storage<T>,
        policy: AllocPolicy,
    ) -> Result<DeviceBuffer<T>> {
        let bytes = (storage.len() * std::mem::size_of::<T>()) as u64;
        let buf = self.reserve(bytes, policy, true)?.fill(storage);
        let id = buf.id();
        let kind = TraceKind::HtoD { bytes, buf: id };
        self.transfer(FaultSite::HtoD, Direction::HostToDevice, bytes, kind)?;
        Ok(buf)
    }

    /// Copy a device buffer back to the host, charging PCIe time. A
    /// shape-only buffer has nothing to copy: [`SimError::ShapeOnly`],
    /// before anything is charged.
    pub fn dtoh<T: DeviceCopy>(&self, buf: &DeviceBuffer<T>) -> Result<Vec<T>> {
        let host = buf.data()?;
        let (bytes, id) = (buf.size_bytes(), buf.id());
        let kind = TraceKind::DtoH { bytes, buf: id };
        self.transfer(FaultSite::DtoH, Direction::DeviceToHost, bytes, kind)?;
        Ok(host.to_vec())
    }

    /// Device-to-device copy into a fresh buffer (what chained library
    /// calls do to materialise intermediates); shape-only inside a
    /// [`DryScope`]. The copy shares `src`'s host storage: whichever of
    /// the two a kernel writes first copies it then, so the host pays for
    /// a copy only when one is written.
    pub fn dtod<T: DeviceCopy + Default>(
        self: &Arc<Self>,
        src: &DeviceBuffer<T>,
    ) -> Result<DeviceBuffer<T>> {
        self.reads(&[src])?;
        let res = self.reserve_dtod(src)?;
        Ok(res.fill(self.body(|| src.share(), || Storage::Shape(src.len()))))
    }

    /// Everything [`Device::dtod`] does on the device — allocation, the
    /// copy's fault site, bandwidth charge and trace event — for a copy
    /// whose contents will not be read.
    pub fn reserve_dtod<T: DeviceCopy>(
        self: &Arc<Self>,
        src: &DeviceBuffer<T>,
    ) -> Result<Reservation> {
        let bytes = src.size_bytes();
        let res = self.reserve(bytes, src.policy(), true)?;
        let (src, dst) = (src.id(), res.id());
        let kind = TraceKind::DtoD { bytes, src, dst };
        self.transfer(FaultSite::DtoD, Direction::DeviceToDevice, bytes, kind)?;
        Ok(res)
    }

    /// Draw the copy's fault site, then charge moving `bytes` in `dir`.
    fn transfer(&self, site: FaultSite, dir: Direction, bytes: u64, kind: TraceKind) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.inject(&self.spec, site, "", bytes)?;
        inner.emit(transfer_time(&self.spec, dir, bytes), kind);
        Ok(())
    }

    // ----------------------------------------------------------------
    // Kernels & JIT
    // ----------------------------------------------------------------

    /// Account one kernel launch: advances the clock by the modelled
    /// duration and records statistics under `name`. The *functional*
    /// effect of the kernel is performed by the caller on the buffers'
    /// host storage (the simulator separates semantics from cost).
    ///
    /// Returns the simulated duration of the launch.
    pub fn charge_kernel(&self, name: &str, cost: KernelCost) -> SimDuration {
        let d = cost.duration(&self.spec);
        let kind = launch(name, &cost, KernelIo::Unknown);
        self.inner.lock().emit(d, kind);
        d
    }

    /// Fallible variant of [`Device::charge_kernel`]: draws a kernel-site
    /// fault decision first, so launches can fail with
    /// [`SimError::DeviceLost`] under an installed [`FaultPlan`]. All
    /// library-crate launch funnels go through this; `charge_kernel`
    /// remains for infallible contexts (no plan installed ⇒ identical
    /// behaviour and cost).
    pub fn try_charge_kernel(&self, name: &str, cost: KernelCost) -> Result<SimDuration> {
        self.try_launch(name, cost, KernelIo::Unknown)
    }

    /// [`Device::try_charge_kernel`] with a declared read/write buffer set,
    /// so the trace carries data-flow information the lint passes can use.
    /// Identical cost accounting; the io sets are observation-only.
    pub fn try_charge_kernel_io(
        &self,
        name: &str,
        cost: KernelCost,
        reads: &[BufferId],
        writes: &[BufferId],
    ) -> Result<SimDuration> {
        self.try_launch(name, cost, KernelIo::known(reads, writes))
    }

    fn try_launch(&self, name: &str, cost: KernelCost, io: KernelIo) -> Result<SimDuration> {
        let d = cost.duration(&self.spec);
        let kind = launch(name, &cost, io);
        let mut inner = self.inner.lock();
        inner.inject(&self.spec, FaultSite::Kernel, name, 0)?;
        inner.emit(d, kind);
        Ok(d)
    }

    /// Account a JIT compilation taking `ns` nanoseconds (OpenCL program
    /// build, ArrayFire fused-kernel codegen).
    pub fn charge_jit(&self, what: &str, ns: u64) -> SimDuration {
        let d = SimDuration::from_nanos(ns);
        self.inner.lock().emit(d, TraceKind::Jit(what.to_string()));
        d
    }

    // ----------------------------------------------------------------
    // Introspection
    // ----------------------------------------------------------------

    /// Snapshot all statistics.
    pub fn stats(&self) -> DeviceStats {
        self.inner.lock().stats.clone()
    }

    /// Zero the statistics (memory accounting is preserved).
    pub fn reset_stats(&self) {
        let stats = &mut self.inner.lock().stats;
        let (mem_in_use, mem_peak) = (stats.mem_in_use, stats.mem_peak);
        *stats = DeviceStats::default();
        (stats.mem_in_use, stats.mem_peak) = (mem_in_use, mem_peak);
    }

    /// Enable or disable execution tracing (see [`crate::trace`]).
    pub fn set_tracing(&self, on: bool) {
        self.inner.lock().tracing = on;
    }

    /// Drain and return the recorded trace events.
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.inner.lock().trace)
    }

    /// Memory-pool statistics.
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.lock().pool.stats()
    }

    /// Device memory currently reserved (live buffers + pool cache).
    pub fn mem_in_use(&self) -> u64 {
        self.inner.lock().stats.mem_in_use
    }
}

impl Drop for Device {
    fn drop(&mut self) {
        // Teardown self-check (debug builds): every DeviceBuffer holds an
        // Arc<Device>, so by the time the device itself drops they must
        // all be gone. A nonzero count means a buffer was leaked via
        // mem::forget or a reference cycle — the static-analysis
        // counterpart is gpu-lint's GL004 leak rule.
        if !std::thread::panicking() {
            let live = self.inner.get_mut().live_buffers;
            debug_assert_eq!(live, 0, "device dropped with {live} live buffer(s)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AccessPattern;
    use crate::hostexec::par_chunks;

    #[test]
    fn kernel_charging_advances_clock_and_records_stats() {
        let dev = Device::with_defaults();
        let t0 = dev.now();
        let cost = KernelCost::map::<u32, u32>(1 << 20).with_launch_overhead(5_000);
        let d = dev.charge_kernel("map_test", cost);
        assert_eq!(dev.now() - t0, d);
        let stats = dev.stats();
        assert_eq!(stats.launches_of("map_test"), 1);
        assert_eq!(stats.kernels["map_test"].bytes_read, (1u64 << 20) * 4);
    }

    #[test]
    fn htod_dtoh_roundtrip_preserves_data_and_charges_pcie() {
        let dev = Device::with_defaults();
        let data: Vec<u64> = (0..1000).collect();
        let (buf, t_up) = {
            let t0 = dev.now();
            let b = dev.htod(&data).unwrap();
            (b, dev.now() - t0)
        };
        assert!(t_up.as_nanos() >= dev.spec().pcie_latency_ns);
        let back = dev.dtoh(&buf).unwrap();
        assert_eq!(back, data);
        let s = dev.stats();
        assert_eq!(s.htod_bytes, 8_000);
        assert_eq!(s.dtoh_bytes, 8_000);
    }

    #[test]
    fn oom_is_reported() {
        let mut spec = DeviceSpec::gtx1080();
        spec.global_mem_bytes = 1 << 20; // 1 MiB device
        let dev = Device::new(spec);
        let r = dev.alloc::<u8>(2 << 20);
        match r {
            Err(SimError::OutOfMemory { requested, .. }) => assert!(requested >= 2 << 20),
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn pool_trim_rescues_allocation_under_pressure() {
        let mut spec = DeviceSpec::gtx1080();
        spec.global_mem_bytes = 4 << 20;
        let dev = Device::new(spec);
        {
            let _a = dev.alloc::<u8>(3 << 20).unwrap();
        } // dropped into pool; memory still reserved
        assert!(dev.mem_in_use() >= 3 << 20);
        // A different size class cannot reuse the cached block, but the
        // trim-under-pressure path frees it.
        let b = dev.alloc::<u8>(2 << 20);
        assert!(b.is_ok(), "trim should rescue: {b:?}");
    }

    #[test]
    fn reset_stats_keeps_memory_accounting() {
        let dev = Device::with_defaults();
        let _buf = dev.alloc::<u32>(1024).unwrap();
        let used = dev.mem_in_use();
        dev.charge_kernel("k", KernelCost::empty());
        dev.reset_stats();
        assert_eq!(dev.stats().total_launches(), 0);
        assert_eq!(dev.mem_in_use(), used);
    }

    #[test]
    fn time_measures_enclosed_work_only() {
        let dev = Device::with_defaults();
        dev.charge_kernel("warmup", KernelCost::empty());
        let ((), d) = dev.time(|| {
            dev.charge_kernel("inner", KernelCost::empty().with_launch_overhead(1_000));
        });
        assert_eq!(d.as_nanos(), 1_000 + dev.spec().min_kernel_ns);
    }

    #[test]
    fn jit_charge_is_tracked() {
        let dev = Device::with_defaults();
        dev.charge_jit("program-x", 40_000_000);
        let s = dev.stats();
        assert_eq!(s.jit_compiles, 1);
        assert_eq!(s.jit_time.0, 40_000_000);
    }

    #[test]
    fn dtod_copies_and_charges_global_memory_time() {
        let dev = Device::with_defaults();
        let a = dev.htod(&[1u32, 2, 3]).unwrap();
        let t0 = dev.now();
        let b = dev.dtod(&a).unwrap();
        assert!(dev.now() > t0);
        assert_eq!(b.host(), a.host());
        assert_eq!(dev.stats().dtod_bytes, 12);
    }

    #[test]
    fn par_chunks_covers_the_whole_range() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        par_chunks(10_000, 100, |r| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10_000);
        // Small ranges run sequentially.
        let hits = AtomicUsize::new(0);
        par_chunks(10, 100, |r| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn fault_plan_injects_at_each_site_and_is_observable() {
        let dev = Device::with_defaults();
        dev.install_fault_plan(FaultPlan::uniform(5, 1.0));
        dev.set_tracing(true);
        // Kernel site.
        let r = dev.try_charge_kernel("k", KernelCost::empty());
        assert!(
            matches!(r, Err(SimError::DeviceLost(ref k)) if k == "k"),
            "{r:?}"
        );
        // Alloc site (driver path).
        assert!(matches!(
            dev.alloc::<u32>(16),
            Err(SimError::OutOfMemory { .. })
        ));
        let stats = dev.stats();
        assert_eq!(stats.faults_injected, 2);
        let trace = dev.take_trace();
        assert!(
            trace.iter().all(|e| matches!(e.kind, TraceKind::Fault(_))),
            "{trace:?}"
        );
        // Clearing the plan restores the happy path.
        assert!(dev.clear_fault_plan().is_some());
        assert!(dev.try_charge_kernel("k", KernelCost::empty()).is_ok());
        assert!(dev.alloc::<u32>(16).is_ok());
    }

    #[test]
    fn transfer_faults_fire_on_each_direction() {
        let dev = Device::with_defaults();
        let buf = dev.htod(&[1u32, 2, 3]).unwrap();
        dev.install_fault_plan(
            FaultPlan::new(9)
                .with_rate(crate::fault::FaultSite::HtoD, 1.0)
                .with_rate(crate::fault::FaultSite::DtoH, 1.0)
                .with_rate(crate::fault::FaultSite::DtoD, 1.0),
        );
        assert!(matches!(
            dev.htod(&[1u32]),
            Err(SimError::TransferTimeout { bytes: 4 })
        ));
        assert!(matches!(
            dev.dtoh(&buf),
            Err(SimError::TransferTimeout { .. })
        ));
        assert!(matches!(
            dev.dtod(&buf),
            Err(SimError::TransferTimeout { .. })
        ));
        assert_eq!(dev.stats().faults_injected, 3);
    }

    #[test]
    fn zero_rate_plan_changes_nothing() {
        let faulty = Device::with_defaults();
        faulty.install_fault_plan(FaultPlan::new(11));
        let clean = Device::with_defaults();
        for dev in [&faulty, &clean] {
            let b = dev.htod(&[1u64; 512]).unwrap();
            dev.try_charge_kernel("k", KernelCost::map::<u64, u64>(512))
                .unwrap();
            let _ = dev.dtoh(&b).unwrap();
        }
        assert_eq!(faulty.now(), clean.now(), "rate-0 plan must be free");
    }

    #[test]
    fn identical_seeds_replay_identical_fault_schedules() {
        let run = |seed: u64| -> (Vec<bool>, u64) {
            let dev = Device::with_defaults();
            dev.install_fault_plan(FaultPlan::uniform(seed, 0.3));
            let oks = (0..200)
                .map(|_| dev.try_charge_kernel("k", KernelCost::empty()).is_ok())
                .collect();
            (oks, dev.now().as_nanos())
        };
        let (a, ta) = run(21);
        let (b, tb) = run(21);
        let (c, _) = run(22);
        assert_eq!(a, b);
        assert_eq!(ta, tb, "same schedule implies same simulated time");
        assert_ne!(a, c);
    }

    #[test]
    fn pool_hits_skip_the_alloc_fault_site() {
        let dev = Device::with_defaults();
        // Warm the pool, then make every driver allocation fail.
        drop(dev.alloc::<u32>(1024).unwrap());
        dev.install_fault_plan(FaultPlan::new(3).with_rate(crate::fault::FaultSite::Alloc, 1.0));
        let r = dev.alloc::<u32>(1024);
        assert!(r.is_ok(), "pool hit must not consult the driver: {r:?}");
        drop(r);
        assert!(dev.alloc::<u32>(4096).is_err(), "pool miss hits the fault");
    }

    fn note_all(dev: &Device) {
        let s = |x: &str| x.to_string();
        dev.note(
            Recovery::Retry {
                what: s("selection"),
            },
            SimDuration::from_nanos(5_000),
        );
        let fallback = Recovery::Fallback {
            from: s("Thrust"),
            to: s("Handwritten"),
        };
        dev.note(fallback, SimDuration::ZERO);
        let split = Recovery::Split {
            what: s("join"),
            parts: 4,
        };
        dev.note(split, SimDuration::ZERO);
        let partition = Recovery::Partition {
            what: s("Q1"),
            parts: 8,
        };
        dev.note(partition, SimDuration::ZERO);
    }

    #[test]
    fn notes_count_and_only_a_backoff_charges() {
        let dev = Device::with_defaults();
        dev.set_tracing(true);
        note_all(&dev);
        let s = dev.stats();
        assert_eq!(
            (s.retries, s.fallbacks, s.batch_splits, s.plan_partitions),
            (1, 1, 1, 1)
        );
        assert_eq!(dev.now().as_nanos(), 5_000, "only backoff costs time");
        let labels: Vec<String> = dev.take_trace().iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            labels,
            [
                "resilience retry selection",
                "resilience fallback Thrust -> Handwritten",
                "resilience split join into 4",
                "resilience partition Q1 into 8",
            ]
        );
    }

    /// Folding a trace recorded from device creation gives back every
    /// counter, over every kind of event the device emits.
    #[test]
    fn stats_are_the_fold_of_the_trace() {
        let dev = Device::with_defaults();
        dev.set_tracing(true);
        drop(dev.alloc::<u32>(256).unwrap()); // driver alloc, pooled free
        let hit = dev.alloc::<u32>(256).unwrap();
        drop(dev.alloc_with::<u32>(64, AllocPolicy::Raw).unwrap());
        let up = dev.htod(&[1u32, 2, 3]).unwrap();
        let _ = dev.dtoh(&up).unwrap();
        let copy = dev.dtod(&up).unwrap();
        dev.charge_kernel("unknown", KernelCost::map::<u32, u32>(3));
        let cost = KernelCost::map::<u32, u32>(3);
        dev.try_charge_kernel_io("known", cost, &[up.id()], &[copy.id()])
            .unwrap();
        dev.charge_jit("program", 1_000);
        for site in FaultSite::ALL {
            dev.install_fault_plan(FaultPlan::new(1).with_rate(site, 1.0));
            let failed = match site {
                FaultSite::Alloc => dev.alloc::<u8>(1 << 20).is_err(),
                FaultSite::HtoD => dev.htod(&[0u8]).is_err(),
                FaultSite::DtoH => dev.dtoh(&up).is_err(),
                FaultSite::DtoD => dev.dtod(&up).is_err(),
                FaultSite::Kernel => dev.try_charge_kernel("k", KernelCost::empty()).is_err(),
                FaultSite::PlanStep => dev.inject_plan_step_fault("Q6 step 0").is_err(),
            };
            assert!(failed, "{site}");
        }
        dev.clear_fault_plan();
        note_all(&dev);
        drop((hit, up, copy));
        let s = dev.stats();
        let counters = [
            s.allocs,
            s.pool_hits,
            s.htod_count,
            s.dtoh_count,
            s.dtod_bytes,
            s.launches_of("unknown"),
            s.launches_of("known"),
            s.jit_compiles,
            s.retries,
            s.fallbacks,
            s.batch_splits,
            s.plan_partitions,
        ];
        assert!(counters.iter().all(|&c| c > 0), "{s:?}");
        assert_eq!(s.faults_injected, 6);
        let folded = DeviceStats::from_trace(&dev.take_trace());
        let s = DeviceStats {
            mem_in_use: 0,
            mem_peak: 0,
            ..s
        };
        assert_eq!(folded, s);
    }

    #[test]
    fn plan_step_faults_fire_only_when_drawn() {
        // No plan installed: free in every observable dimension.
        let dev = Device::with_defaults();
        dev.set_tracing(true);
        assert!(dev.inject_plan_step_fault("Q6 step 0").is_ok());
        assert_eq!(dev.now().as_nanos(), 0);
        assert!(dev.take_trace().is_empty());
        assert_eq!(dev.stats().faults_injected, 0);
        // Certain plan-step fault: DeviceLost carrying the step label,
        // counted, traced, and charged the detection latency.
        dev.install_fault_plan(FaultPlan::new(5).with_rate(crate::fault::FaultSite::PlanStep, 1.0));
        let r = dev.inject_plan_step_fault("Q6 step 0");
        assert!(
            matches!(r, Err(SimError::DeviceLost(ref k)) if k == "Q6 step 0"),
            "{r:?}"
        );
        assert_eq!(dev.stats().faults_injected, 1);
        assert!(dev.now().as_nanos() > 0, "detection latency is charged");
        let trace = dev.take_trace();
        assert_eq!(trace.len(), 1);
        assert!(matches!(trace[0].kind, TraceKind::Fault(_)));
        // Other sites never consult the plan-step schedule.
        assert!(dev.try_charge_kernel("k", KernelCost::empty()).is_ok());
    }

    #[test]
    fn a_dry_scope_skips_bodies_until_its_guard_drops() {
        let dev = Device::with_defaults();
        let src = dev.htod(&[3u32, 1, 2]).unwrap();
        let body = || dev.outputs(3, || vec![7u32; 3]);
        assert_eq!(body(), Contents::Data(vec![7, 7, 7]));
        {
            let _outer = dev.dry_scope();
            assert_eq!(body(), Contents::Shape(3));
            let copy = dev.dtod(&src).unwrap();
            assert_eq!((copy.len(), copy.data().is_err()), (3, true));
            let check = || Err(SimError::IndexOutOfBounds { index: 9, len: 3 });
            let refused = dev.checked_outputs::<u32>(3, check, || Ok(vec![1; 3]));
            assert_eq!(
                refused,
                Err(SimError::IndexOutOfBounds { index: 9, len: 3 })
            );
            drop(dev.dry_scope());
            assert!(dev.is_dry(), "an inner scope restores the outer one");
        }
        assert!(!dev.is_dry());
        assert_eq!(dev.dtod(&src).unwrap().host(), [3, 1, 2]);
        // An error that leaves the scope early, and a panic inside it.
        let failing = || -> Result<()> {
            let _scope = dev.dry_scope();
            dev.dtoh(&src).map(drop)?;
            Err(SimError::DeviceLost("k".into()))
        };
        assert!(failing().is_err());
        assert!(!dev.is_dry(), "an early `?` ends the scope");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = dev.dry_scope();
            panic!("a cell failed");
        }));
        assert!(panicked.is_err());
        assert!(!dev.is_dry(), "unwinding ends the scope");
    }

    /// A lazy upload inside a dry scope is shape-only and costs what the
    /// upload of its values costs — event for event, fault draws included —
    /// without asking for them; outside the scope it uploads them. Reading
    /// a shape-only buffer back, or copying it outside the scope, is the
    /// typed error and charges nothing.
    #[test]
    fn shape_only_uploads_charge_what_uploads_charge_and_cannot_be_read() {
        let run = |dry: bool, faults: bool| {
            let dev = Device::with_defaults();
            dev.set_tracing(true);
            if faults {
                dev.install_fault_plan(FaultPlan::uniform(4, 0.5));
            }
            let values: Arc<Vec<u64>> = Arc::new((0..1000).collect());
            let mut asked = 0;
            let lens: Vec<Result<usize>> = (0..8)
                .map(|_| {
                    let _scope = dry.then(|| dev.dry_scope());
                    let up = dev.upload(1000, || {
                        asked += 1;
                        Arc::clone(&values)
                    })?;
                    assert_eq!(up.data().is_err(), dry, "shape-only iff dry");
                    Ok(up.len())
                })
                .collect();
            ((lens, dev.take_trace(), dev.stats(), dev.now()), asked)
        };
        for faults in [false, true] {
            let (wet, dry) = (run(false, faults), run(true, faults));
            assert_eq!((wet.1, dry.1), (8, 0), "only a wet upload asks");
            assert_eq!(wet.0, dry.0, "faults: {faults}");
        }
        let dev = Device::with_defaults();
        let shape = {
            let _scope = dev.dry_scope();
            dev.upload(4, || Arc::new(vec![1u32; 4])).unwrap()
        };
        assert_eq!(
            dev.upload(4, || Arc::new(vec![1u32; 3])).unwrap_err(),
            SimError::SizeMismatch { left: 4, right: 3 }
        );
        let (before, live) = (dev.stats(), dev.live_buffers());
        let refused = SimError::ShapeOnly { buf: shape.id() };
        assert_eq!(dev.dtoh(&shape), Err(refused.clone()));
        assert_eq!(dev.dtod(&shape).unwrap_err(), refused);
        assert_eq!(
            (dev.stats(), dev.live_buffers()),
            (before, live),
            "refusals charge nothing"
        );
    }

    #[test]
    fn random_pattern_kernels_run_slower() {
        let dev = Device::with_defaults();
        let coalesced = KernelCost::map::<u64, u64>(1 << 22);
        let random = coalesced.with_pattern(AccessPattern::Random);
        let d0 = dev.charge_kernel("c", coalesced);
        let d1 = dev.charge_kernel("r", random);
        assert!(d1 > d0);
    }
}
