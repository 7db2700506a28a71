//! The simulated device: allocation, transfers, kernel accounting, timing.
//!
//! `Device` is shared (`Arc`) between every library handle and buffer.
//! It owns the virtual clock, the statistics counters and the caching
//! memory pool. All methods are thread-safe; device work is serialised on a
//! single in-order timeline, which matches how the paper benchmarks each
//! library (synchronous timing around each operator); the model has no
//! stream concept.

use crate::buffer::{BufferId, DeviceBuffer, DeviceCopy, Reservation};
use crate::clock::{SimDuration, SimTime, VirtualClock};
use crate::cost::KernelCost;
use crate::error::{Result, SimError};
use crate::fault::{fault_error, FaultPlan, FaultSite, FaultState, FAULT_LATENCY_NS};
use crate::pool::{rounded_size, AllocPolicy, MemoryPool, PoolStats};
use crate::spec::DeviceSpec;
use crate::stats::DeviceStats;
use crate::trace::{KernelIo, TraceEvent, TraceKind};
use crate::transfer::{transfer_time, Direction};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    clock: VirtualClock,
    tracing: AtomicBool,
    /// Next [`BufferId`]; ids start at 1 and are never reused.
    next_buffer: AtomicU64,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    stats: DeviceStats,
    pool: MemoryPool,
    trace: Vec<TraceEvent>,
    faults: Option<FaultState>,
    /// Number of live buffers and reservations — the teardown self-check
    /// (`Device::drop`) asserts this is zero in debug builds.
    live_buffers: u64,
}

impl Device {
    /// Create a device with the given specification.
    pub fn new(spec: DeviceSpec) -> Arc<Device> {
        Arc::new(Device {
            spec,
            clock: VirtualClock::new(),
            tracing: AtomicBool::new(false),
            next_buffer: AtomicU64::new(1),
            inner: Mutex::new(Inner::default()),
        })
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
        self.clock.now()
    }

    /// Advance the virtual clock directly (library crates use this for
    /// costs outside the kernel/transfer models, e.g. host-side graph
    /// bookkeeping).
    pub fn advance(&self, d: SimDuration) {
        self.clock.advance(d);
    }

    /// Run `f` and return its result together with the simulated time it
    /// consumed. This is the measurement primitive every benchmark uses.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, SimDuration) {
        let start = self.now();
        let r = f();
        (r, self.now() - start)
    }

    // ----------------------------------------------------------------
    // Fault injection
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

    /// Draw the next fault decision at `site`; on a fire, count it,
    /// charge the detection latency, trace it, and return the injected
    /// error. `requested` is the byte size for alloc/transfer sites,
    /// `label` the kernel name for the kernel site.
    fn maybe_inject(&self, site: FaultSite, label: &str, requested: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        let Some(state) = inner.faults.as_mut() else {
            return Ok(());
        };
        if !state.draw(site) {
            return Ok(());
        }
        let available = self
            .spec
            .global_mem_bytes
            .saturating_sub(inner.stats.mem_in_use);
        let Some(err) = fault_error(site, label, requested, available) else {
            return Ok(()); // absorbed alloc fault: the request still fits
        };
        inner.stats.faults_injected += 1;
        drop(inner);
        let start = self.now();
        self.clock
            .advance(SimDuration::from_nanos(FAULT_LATENCY_NS));
        self.record(start, TraceKind::Fault(format!("{site}: {err}")));
        Err(err)
    }

    /// Draw the next plan-step fault decision — the hook the resilient
    /// plan executor calls once per step attempt, *before* interpreting
    /// the step. With no plan installed (or a zero `plan-step` rate) this
    /// draws nothing and is free: no clock or trace effect, so the
    /// fault-free path stays byte-identical to plain execution. On a
    /// fire it counts the fault, charges the detection latency, traces
    /// it, and returns the injected [`SimError::DeviceLost`].
    pub fn inject_plan_step_fault(&self, label: &str) -> Result<()> {
        self.maybe_inject(FaultSite::PlanStep, label, 0)
    }

    // ----------------------------------------------------------------
    // Resilience accounting (called by recovery layers above the
    // simulator so retries/fallbacks/splits appear in stats and traces)
    // ----------------------------------------------------------------

    /// Record one retry of `what`, charging `backoff` to simulated time.
    pub fn note_retry(&self, what: &str, backoff: SimDuration) {
        self.inner.lock().stats.retries += 1;
        let start = self.now();
        self.clock.advance(backoff);
        self.record(start, TraceKind::Resilience(format!("retry {what}")));
    }

    /// Record a fallback from one implementation to another.
    pub fn note_fallback(&self, from: &str, to: &str) {
        self.inner.lock().stats.fallbacks += 1;
        let start = self.now();
        self.record(
            start,
            TraceKind::Resilience(format!("fallback {from} -> {to}")),
        );
    }

    /// Record one batch split of `what` into `parts` chunks.
    pub fn note_batch_split(&self, what: &str, parts: usize) {
        self.inner.lock().stats.batch_splits += 1;
        let start = self.now();
        self.record(
            start,
            TraceKind::Resilience(format!("split {what} into {parts}")),
        );
    }

    /// Record one partitioned re-execution of plan `what` over `parts`
    /// horizontal row partitions.
    pub fn note_plan_partition(&self, what: &str, parts: usize) {
        self.inner.lock().stats.plan_partitions += 1;
        let start = self.now();
        self.record(
            start,
            TraceKind::Resilience(format!("partition {what} into {parts}")),
        );
    }

    // ----------------------------------------------------------------
    // Allocation
    // ----------------------------------------------------------------

    /// Allocate an uninitialised (zeroed) buffer of `len` elements using
    /// the pooled policy.
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
        Ok(res.into_buffer(crate::hostmem::take_zeroed(len)))
    }

    /// Allocate a buffer initialised from host data **without** charging a
    /// transfer — used internally and by tests; measured code paths use
    /// [`Device::htod`].
    pub fn buffer_from_vec<T: DeviceCopy>(
        self: &Arc<Self>,
        data: Vec<T>,
        policy: AllocPolicy,
    ) -> Result<DeviceBuffer<T>> {
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        // Born initialised: the buffer carries its host contents from the
        // start (uploads and materialised kernel outputs come this way).
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
        let id = self.mint_buffer_id();
        self.account_alloc(bytes, policy, id, init)?;
        Ok(Reservation::from_parts(
            Arc::clone(self),
            policy,
            bytes,
            rounded_size(bytes),
            id,
        ))
    }

    fn mint_buffer_id(&self) -> BufferId {
        BufferId(self.next_buffer.fetch_add(1, Ordering::Relaxed))
    }

    fn account_alloc(
        &self,
        bytes: u64,
        policy: AllocPolicy,
        id: BufferId,
        init: bool,
    ) -> Result<()> {
        let rounded = rounded_size(bytes);
        let mut inner = self.inner.lock();
        // Pool hits reuse already-reserved memory; misses must fit.
        let hit = policy == AllocPolicy::Pooled && inner.pool.try_acquire(rounded);
        if hit {
            inner.stats.pool_hits += 1;
            inner.live_buffers += 1;
            // Cached bytes were already counted in mem_in_use.
            drop(inner);
            let start = self.now();
            self.clock.advance(SimDuration::from_nanos(POOL_HIT_NS));
            // Meta event: hidden from timelines, but gives the lint passes
            // a birth record for pool-served buffers.
            self.record(
                start,
                TraceKind::PoolAlloc {
                    bytes: rounded,
                    buf: id,
                    init,
                },
            );
            return Ok(());
        }
        // Pool misses go to the driver, which is where injected memory
        // pressure strikes (pool hits above never leave the process).
        drop(inner);
        self.maybe_inject(FaultSite::Alloc, "", rounded)?;
        let mut inner = self.inner.lock();
        let available = self
            .spec
            .global_mem_bytes
            .saturating_sub(inner.stats.mem_in_use);
        if rounded > available {
            // Last resort: trim the pool and retry, like real pools do
            // under memory pressure.
            let released = inner.pool.trim();
            inner.stats.mem_in_use -= released;
            let available = self
                .spec
                .global_mem_bytes
                .saturating_sub(inner.stats.mem_in_use);
            if rounded > available {
                return Err(SimError::OutOfMemory {
                    requested: rounded,
                    available,
                });
            }
        }
        inner.stats.allocs += 1;
        inner.stats.mem_in_use += rounded;
        inner.stats.mem_peak = inner.stats.mem_peak.max(inner.stats.mem_in_use);
        inner.live_buffers += 1;
        drop(inner);
        let start = self.now();
        self.clock
            .advance(SimDuration::from_nanos(self.spec.malloc_latency_ns));
        self.record(
            start,
            TraceKind::Alloc {
                bytes: rounded,
                buf: id,
                init,
            },
        );
        Ok(())
    }

    pub(crate) fn on_buffer_free(&self, id: BufferId, alloc_bytes: u64, policy: AllocPolicy) {
        let mut inner = self.inner.lock();
        inner.live_buffers = inner.live_buffers.saturating_sub(1);
        match policy {
            AllocPolicy::Pooled => {
                // Memory stays reserved in the cache: mem_in_use unchanged.
                inner.pool.release(alloc_bytes);
            }
            AllocPolicy::Raw => {
                inner.stats.mem_in_use = inner.stats.mem_in_use.saturating_sub(alloc_bytes);
                self.clock
                    .advance(SimDuration::from_nanos(self.spec.free_latency_ns));
            }
        }
        drop(inner);
        // Meta event: the end of the buffer's lifetime for the lifetime
        // pass. Zero-width (frees charge no device time beyond the Raw
        // latency above, which predates the event).
        let start = self.now();
        self.record(start, TraceKind::Free { buf: id });
    }

    /// Number of currently live [`DeviceBuffer`]s and [`Reservation`]s on
    /// this device.
    pub fn live_buffers(&self) -> u64 {
        self.inner.lock().live_buffers
    }

    // ----------------------------------------------------------------
    // Transfers
    // ----------------------------------------------------------------

    /// Copy host data to a new device buffer, charging PCIe time.
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
        let buf = self.buffer_from_vec(crate::hostmem::take_from_slice(host), policy)?;
        let bytes = buf.size_bytes();
        self.maybe_inject(FaultSite::HtoD, "", bytes)?;
        let t = transfer_time(&self.spec, Direction::HostToDevice, bytes);
        {
            let mut inner = self.inner.lock();
            inner.stats.htod_bytes += bytes;
            inner.stats.htod_count += 1;
        }
        let start = self.now();
        self.clock.advance(t);
        self.record(
            start,
            TraceKind::HtoD {
                bytes,
                buf: buf.id(),
            },
        );
        Ok(buf)
    }

    /// Copy a device buffer back to the host, charging PCIe time.
    pub fn dtoh<T: DeviceCopy>(&self, buf: &DeviceBuffer<T>) -> Result<Vec<T>> {
        let bytes = buf.size_bytes();
        self.maybe_inject(FaultSite::DtoH, "", bytes)?;
        let t = transfer_time(&self.spec, Direction::DeviceToHost, bytes);
        {
            let mut inner = self.inner.lock();
            inner.stats.dtoh_bytes += bytes;
            inner.stats.dtoh_count += 1;
        }
        let start = self.now();
        self.clock.advance(t);
        self.record(
            start,
            TraceKind::DtoH {
                bytes,
                buf: buf.id(),
            },
        );
        Ok(buf.host().to_vec())
    }

    /// Device-to-device copy into a fresh buffer (what chained library
    /// calls do to materialise intermediates).
    pub fn dtod<T: DeviceCopy>(self: &Arc<Self>, src: &DeviceBuffer<T>) -> Result<DeviceBuffer<T>> {
        let res = self.reserve_dtod(src)?;
        Ok(res.into_buffer(crate::hostmem::take_from_slice(src.host())))
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
        self.maybe_inject(FaultSite::DtoD, "", bytes)?;
        let t = transfer_time(&self.spec, Direction::DeviceToDevice, bytes);
        {
            let mut inner = self.inner.lock();
            inner.stats.dtod_bytes += bytes;
        }
        let start = self.now();
        self.clock.advance(t);
        self.record(
            start,
            TraceKind::DtoD {
                bytes,
                src: src.id(),
                dst: res.id(),
            },
        );
        Ok(res)
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
        self.charge_kernel_traced(name, cost, KernelIo::Unknown)
    }

    fn charge_kernel_traced(&self, name: &str, cost: KernelCost, io: KernelIo) -> SimDuration {
        let d = cost.duration(&self.spec);
        {
            let mut inner = self.inner.lock();
            let stat = inner.stats.kernels.entry(name.to_string()).or_default();
            stat.launches += 1;
            stat.total_time.0 += d.as_nanos();
            stat.bytes_read += cost.bytes_read;
            stat.bytes_written += cost.bytes_written;
        }
        let start = self.now();
        self.clock.advance(d);
        self.record(
            start,
            TraceKind::Kernel {
                name: name.to_string(),
                io,
            },
        );
        d
    }

    /// Fallible variant of [`Device::charge_kernel`]: draws a kernel-site
    /// fault decision first, so launches can fail with
    /// [`SimError::DeviceLost`] under an installed [`FaultPlan`]. All
    /// library-crate launch funnels go through this; `charge_kernel`
    /// remains for infallible contexts (no plan installed ⇒ identical
    /// behaviour and cost).
    pub fn try_charge_kernel(&self, name: &str, cost: KernelCost) -> Result<SimDuration> {
        self.maybe_inject(FaultSite::Kernel, name, 0)?;
        Ok(self.charge_kernel(name, cost))
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
        self.maybe_inject(FaultSite::Kernel, name, 0)?;
        Ok(self.charge_kernel_traced(name, cost, KernelIo::known(reads, writes)))
    }

    /// Account a JIT compilation taking `ns` nanoseconds (OpenCL program
    /// build, ArrayFire fused-kernel codegen).
    pub fn charge_jit(&self, what: &str, ns: u64) -> SimDuration {
        let d = SimDuration::from_nanos(ns);
        {
            let mut inner = self.inner.lock();
            inner.stats.jit_compiles += 1;
            inner.stats.jit_time.0 += ns;
        }
        let start = self.now();
        self.clock.advance(d);
        self.record(start, TraceKind::Jit(what.to_string()));
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
        let mut inner = self.inner.lock();
        let mem_in_use = inner.stats.mem_in_use;
        let mem_peak = inner.stats.mem_peak;
        inner.stats = DeviceStats {
            mem_in_use,
            mem_peak,
            ..DeviceStats::default()
        };
    }

    /// Enable or disable execution tracing (see [`crate::trace`]).
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::SeqCst);
    }

    /// Drain and return the recorded trace events.
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.inner.lock().trace)
    }

    fn record(&self, start: crate::clock::SimTime, kind: TraceKind) {
        if self.tracing.load(Ordering::SeqCst) {
            let end = self.now();
            self.inner
                .lock()
                .trace
                .push(TraceEvent::new(start.as_nanos(), end.as_nanos(), kind));
        }
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

pub use crate::hostexec::par_chunks;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AccessPattern;

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

    #[test]
    fn note_methods_count_and_charge() {
        let dev = Device::with_defaults();
        dev.set_tracing(true);
        let t0 = dev.now();
        dev.note_retry("selection", SimDuration::from_nanos(5_000));
        dev.note_fallback("Thrust", "Handwritten");
        dev.note_batch_split("join", 4);
        dev.note_plan_partition("Q1", 8);
        let s = dev.stats();
        assert_eq!(
            (s.retries, s.fallbacks, s.batch_splits, s.plan_partitions),
            (1, 1, 1, 1)
        );
        assert_eq!(
            (dev.now() - t0).as_nanos(),
            5_000,
            "only backoff costs time"
        );
        let trace = dev.take_trace();
        assert_eq!(trace.len(), 4);
        assert!(trace
            .iter()
            .all(|e| matches!(e.kind, TraceKind::Resilience(_))));
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
    fn random_pattern_kernels_run_slower() {
        let dev = Device::with_defaults();
        let coalesced = KernelCost::map::<u64, u64>(1 << 22);
        let random = coalesced.with_pattern(AccessPattern::Random);
        let d0 = dev.charge_kernel("c", coalesced);
        let d1 = dev.charge_kernel("r", random);
        assert!(d1 > d0);
    }
}
