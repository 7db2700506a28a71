//! OpenCL context and command queue, with the per-context program cache.

use gpu_sim::eager::{charge_launch, Launch};
use gpu_sim::{AllocPolicy, BufferId, Device, KernelCost, Result};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fmt::Display;
use std::sync::Arc;

/// An OpenCL context on a device.
///
/// Owns the **program cache**: the set of kernel instantiations already
/// JIT-compiled. Boost.Compute caches compiled programs per context, so
/// the first call of each distinct algorithm/type combination pays
/// [`DeviceSpec::opencl_jit_compile_ns`](gpu_sim::DeviceSpec) and later
/// calls do not.
#[derive(Debug)]
pub struct Context {
    device: Arc<Device>,
    program_cache: Mutex<HashSet<String>>,
}

impl Context {
    /// Create a context on `device` with an empty program cache.
    pub fn new(device: &Arc<Device>) -> Arc<Context> {
        Arc::new(Context {
            device: Arc::clone(device),
            program_cache: Mutex::new(HashSet::new()),
        })
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Ensure the program identified by `key` is compiled, charging the
    /// JIT cost exactly once per context. Returns `true` on a cache miss
    /// (i.e. when compilation happened).
    pub fn ensure_program(&self, key: &str) -> bool {
        let mut cache = self.program_cache.lock();
        if cache.contains(key) {
            return false;
        }
        cache.insert(key.to_string());
        drop(cache);
        self.device
            .charge_jit(key, self.device.spec().opencl_jit_compile_ns);
        true
    }

    /// Number of programs currently cached.
    #[cfg(test)]
    fn cached_programs(&self) -> usize {
        self.program_cache.lock().len()
    }
}

/// An in-order OpenCL command queue.
///
/// The library's [`Launch`]: every algorithm takes the queue, which
/// carries the context (and through it the device and program cache).
#[derive(Debug, Clone)]
pub struct CommandQueue {
    context: Arc<Context>,
}

impl CommandQueue {
    /// Create a queue on `context`.
    pub fn new(context: &Arc<Context>) -> CommandQueue {
        CommandQueue {
            context: Arc::clone(context),
        }
    }
}

impl Launch for CommandQueue {
    /// `compute::vector` allocates a raw OpenCL buffer on every
    /// construction: a driver round-trip, no caching allocator.
    const ALLOC: AllocPolicy = AllocPolicy::Raw;
    const SEQUENCE: &'static str = "iota";

    fn device(&self) -> &Arc<Device> {
        self.context.device()
    }

    /// Enqueue a kernel: ensure its program — one per algorithm and `key`
    /// — is compiled (JIT on first use), then charge the launch with
    /// OpenCL enqueue overhead. If the launch faults the compiled program
    /// stays cached, exactly like a real OpenCL runtime.
    fn launch<K: Display>(
        &self,
        name: &str,
        key: impl FnOnce() -> K,
        cost: KernelCost,
        reads: &[BufferId],
        writes: &[BufferId],
    ) -> Result<()> {
        let kernel = format!("{}::{name}", crate::KERNEL_PREFIX);
        self.context.ensure_program(&format!("{kernel}<{}>", key()));
        let cost = cost.with_launch_overhead(self.device().spec().opencl_enqueue_latency_ns);
        charge_launch(self.device(), &kernel, cost, reads, writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::eager::{fill, sequence, sort, transform, Vector};

    /// One launch of kernel `name` instantiated for `key`, costing nothing.
    fn enqueue(q: &CommandQueue, name: &str, key: &str) {
        q.launch(name, || key, KernelCost::empty(), &[], &[])
            .unwrap();
    }

    #[test]
    fn first_enqueue_compiles_second_hits_cache() {
        let dev = Device::with_defaults();
        let ctx = Context::new(&dev);
        let q = CommandQueue::new(&ctx);
        enqueue(&q, "transform", "u32");
        assert_eq!(dev.stats().jit_compiles, 1);
        enqueue(&q, "transform", "u32");
        assert_eq!(dev.stats().jit_compiles, 1, "cache hit");
        assert_eq!(ctx.cached_programs(), 1);
    }

    #[test]
    fn distinct_type_instantiations_compile_separately() {
        let dev = Device::with_defaults();
        let ctx = Context::new(&dev);
        let q = CommandQueue::new(&ctx);
        enqueue(&q, "transform", "u32");
        enqueue(&q, "transform", "u64");
        assert_eq!(dev.stats().jit_compiles, 2);
    }

    #[test]
    fn fresh_context_has_cold_cache() {
        let dev = Device::with_defaults();
        let ctx1 = Context::new(&dev);
        enqueue(&CommandQueue::new(&ctx1), "sort", "u32");
        let ctx2 = Context::new(&dev);
        enqueue(&CommandQueue::new(&ctx2), "sort", "u32");
        assert_eq!(
            dev.stats().jit_compiles,
            2,
            "program caches are per-context"
        );
    }

    #[test]
    fn jit_time_dwarfs_launch_time() {
        let dev = Device::with_defaults();
        let ctx = Context::new(&dev);
        let q = CommandQueue::new(&ctx);
        let (_, cold) = dev.time(|| enqueue(&q, "reduce", "u32"));
        let (_, warm) = dev.time(|| enqueue(&q, "reduce", "u32"));
        assert!(cold.as_nanos() > 100 * warm.as_nanos());
    }

    #[test]
    fn every_vector_is_a_raw_driver_allocation() {
        let dev = Device::with_defaults();
        let q = CommandQueue::new(&Context::new(&dev));
        let xs = Vector::from_host(&q, &vec![1u32; 1 << 14]).unwrap();
        for made in 1..=2 {
            drop(transform(&q, &xs, |x| x + 1).unwrap());
            drop(Vector::<u32>::zeroed(&q, 1 << 14).unwrap());
            // Upload + two per round: nothing is pooled, nothing reused.
            assert_eq!(dev.stats().allocs, 1 + 2 * made);
        }
        assert_eq!(dev.pool_stats().hits, 0);
    }

    #[test]
    fn sequence_is_iota_here() {
        let dev = Device::with_defaults();
        dev.set_tracing(true);
        let ids = sequence(&CommandQueue::new(&Context::new(&dev)), 4).unwrap();
        assert_eq!(ids.as_slice(), [0, 1, 2, 3]);
        assert_eq!(dev.stats().launches_of("boost::iota"), 1);
        let jit = gpu_sim::TraceKind::Jit("boost::iota<u32>".into());
        assert!(dev.take_trace().iter().any(|e| e.kind == jit));
    }

    #[test]
    fn a_launch_that_faults_fails_the_call_before_its_body_runs() {
        use gpu_sim::{FaultPlan, FaultSite, SimError};
        let dev = Device::with_defaults();
        let ctx = Context::new(&dev);
        let q = CommandQueue::new(&ctx);
        let mut v = Vector::from_host(&q, &[3u32, 1, 2]).unwrap();
        dev.install_fault_plan(FaultPlan::new(1).with_rate(FaultSite::Kernel, 1.0));
        assert!(matches!(sort(&q, &mut v), Err(SimError::DeviceLost(_))));
        assert!(matches!(fill(&q, &mut v, 0), Err(SimError::DeviceLost(_))));
        assert_eq!(v.as_slice(), [3, 1, 2]);
        // The programs compiled for the lost launches stay cached.
        assert_eq!(ctx.cached_programs(), 2);
    }
}
