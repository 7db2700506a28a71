//! Property tests for the Boost.Compute profile: the JIT program cache
//! behaves like a cache, and an enqueue costs more than a CUDA launch. (What
//! the algorithms answer is checked once, in `gpu_sim::eager`.)

use boost_compute_sim as compute;
use boost_compute_sim::{CommandQueue, Context, Vector};
use gpu_sim::Device;
use proptest::prelude::*;
use std::sync::Arc;

fn setup() -> (Arc<Device>, CommandQueue) {
    let dev = Device::with_defaults();
    let ctx = Context::new(&dev);
    (dev, CommandQueue::new(&ctx))
}

/// Simulated nanoseconds of `ops` chained transforms on `lib`, once its
/// programs are compiled and its pool is warm.
fn warm_chain(lib: &impl compute::Launch, ops: usize) -> u64 {
    let data: Vec<u32> = (0..1 << 12).collect();
    let v = Vector::from_host(lib, &data).unwrap();
    let chain = || {
        let t0 = lib.device().now();
        for _ in 0..ops {
            compute::transform(lib, &v, |x| x + 1).unwrap();
        }
        (lib.device().now() - t0).as_nanos()
    };
    chain();
    chain()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn program_cache_never_compiles_twice(reps in 2usize..6) {
        let (dev, q) = setup();
        let v = Vector::from_host(&q, &[1u32, 2, 3]).unwrap();
        for _ in 0..reps {
            compute::transform(&q, &v, |x| x + 1).unwrap();
        }
        // One instantiation, however many calls.
        prop_assert_eq!(dev.stats().jit_compiles, 1);
    }

    #[test]
    fn enqueue_overhead_exceeds_cuda(ops in 1usize..6) {
        // The same kernel chain on the same device spec is strictly more
        // expensive through the OpenCL path (enqueue latency), warm JIT.
        let (boost, thrust) = (Device::with_defaults(), Device::with_defaults());
        let boost_time = warm_chain(&CommandQueue::new(&Context::new(&boost)), ops);
        let thrust_time = warm_chain(&thrust_sim::Thrust::new(&thrust), ops);
        prop_assert!(boost_time > thrust_time, "boost {boost_time} vs thrust {thrust_time}");
    }
}
