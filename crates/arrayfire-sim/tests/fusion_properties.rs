//! Property tests for the ArrayFire model: fused evaluation must equal
//! step-by-step evaluation, and the JIT/fusion accounting must hold its
//! structural invariants for arbitrary expression chains.

use arrayfire_sim as af;
use gpu_sim::Device;
use proptest::prelude::*;

/// A random element-wise op on the f64 lane.
#[derive(Debug, Clone, Copy)]
enum ChainOp {
    AddC(f64),
    MulC(f64),
    SubC(f64),
    AddArr,
    MulArr,
}

fn chain_op() -> impl Strategy<Value = ChainOp> {
    prop_oneof![
        (-100.0..100.0f64).prop_map(ChainOp::AddC),
        (-4.0..4.0f64).prop_map(ChainOp::MulC),
        (-100.0..100.0f64).prop_map(ChainOp::SubC),
        Just(ChainOp::AddArr),
        Just(ChainOp::MulArr),
    ]
}

fn apply_host(data: &[f64], other: &[f64], ops: &[ChainOp]) -> Vec<f64> {
    let mut cur: Vec<f64> = data.to_vec();
    for op in ops {
        for (i, x) in cur.iter_mut().enumerate() {
            *x = match op {
                ChainOp::AddC(c) => *x + c,
                ChainOp::MulC(c) => *x * c,
                ChainOp::SubC(c) => *x - c,
                ChainOp::AddArr => *x + other[i],
                ChainOp::MulArr => *x * other[i],
            };
        }
    }
    cur
}

fn apply_lazy(a: &af::Array, other: &af::Array, ops: &[ChainOp]) -> af::Array {
    let mut cur = a.clone();
    for op in ops {
        cur = match op {
            ChainOp::AddC(c) => &cur + *c,
            ChainOp::MulC(c) => &cur * *c,
            ChainOp::SubC(c) => &cur - *c,
            ChainOp::AddArr => &cur + other,
            ChainOp::MulArr => &cur * other,
        };
    }
    cur
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary fused chains compute exactly what the host computes.
    #[test]
    fn fused_chain_equals_host_evaluation(
        data in prop::collection::vec(-1000.0..1000.0f64, 1..200),
        ops in prop::collection::vec(chain_op(), 1..10),
        other_seed in 0u32..1000,
    ) {
        let dev = Device::with_defaults();
        let rt = af::Backend::new(&dev);
        let other: Vec<f64> = (0..data.len())
            .map(|i| ((i as u32 + other_seed) % 97) as f64)
            .collect();
        let a = rt.array_f64(&data).unwrap();
        let b = rt.array_f64(&other).unwrap();
        let lazy = apply_lazy(&a, &b, &ops);
        let got = lazy.host_f64().unwrap();
        let expect = apply_host(&data, &other, &ops);
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!((g - e).abs() <= 1e-9 * e.abs().max(1.0), "{g} vs {e}");
        }
    }

    /// However long the chain, evaluation is exactly one fused kernel.
    #[test]
    fn any_chain_is_one_kernel(
        ops in prop::collection::vec(chain_op(), 1..12),
    ) {
        let dev = Device::with_defaults();
        let rt = af::Backend::new(&dev);
        let a = rt.array_f64(&[1.0; 32]).unwrap();
        let b = rt.array_f64(&[2.0; 32]).unwrap();
        dev.reset_stats();
        let lazy = apply_lazy(&a, &b, &ops);
        lazy.eval().unwrap();
        prop_assert_eq!(dev.stats().launches_of("af::jit_fused"), 1);
    }

    /// Re-evaluating the same *shape* with different data never re-JITs.
    #[test]
    fn jit_cache_keyed_by_shape_not_data(
        ops in prop::collection::vec(chain_op(), 1..8),
        d1 in prop::collection::vec(-10.0..10.0f64, 4..20),
    ) {
        let dev = Device::with_defaults();
        let rt = af::Backend::new(&dev);
        let n = d1.len();
        let other = vec![3.0; n];
        let a1 = rt.array_f64(&d1).unwrap();
        let b1 = rt.array_f64(&other).unwrap();
        apply_lazy(&a1, &b1, &ops).eval().unwrap();
        let jits = dev.stats().jit_compiles;
        let d2: Vec<f64> = d1.iter().map(|x| x + 1.0).collect();
        let a2 = rt.array_f64(&d2).unwrap();
        let b2 = rt.array_f64(&other).unwrap();
        apply_lazy(&a2, &b2, &ops).eval().unwrap();
        prop_assert_eq!(dev.stats().jit_compiles, jits, "same shape must hit the cache");
    }

    /// `where` + `lookup` equals the host filter, for arbitrary thresholds.
    #[test]
    fn where_lookup_selection(
        data in prop::collection::vec(0u32..1000, 0..300),
        threshold in 0u32..1000,
    ) {
        let dev = Device::with_defaults();
        let rt = af::Backend::new(&dev);
        let a = rt.array_u32(&data).unwrap();
        let ids = af::where_(&a.lt_scalar(threshold)).unwrap();
        let expect_ids: Vec<u32> = data
            .iter()
            .enumerate()
            .filter(|(_, &x)| x < threshold)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(ids.host_u32().unwrap(), expect_ids);
        if !ids.is_empty() {
            let vals = af::lookup(&a, &ids).unwrap();
            let expect_vals: Vec<u32> = data.iter().copied().filter(|&x| x < threshold).collect();
            prop_assert_eq!(vals.host_u32().unwrap(), expect_vals);
        }
    }

    /// setUnion/setIntersect agree with BTreeSet semantics on sorted
    /// unique inputs.
    #[test]
    fn set_ops_match_btreeset(
        a in prop::collection::btree_set(0u32..200, 0..60),
        b in prop::collection::btree_set(0u32..200, 0..60),
    ) {
        let dev = Device::with_defaults();
        let rt = af::Backend::new(&dev);
        let av: Vec<u32> = a.iter().copied().collect();
        let bv: Vec<u32> = b.iter().copied().collect();
        let aa = rt.array_u32(&av).unwrap();
        let ab = rt.array_u32(&bv).unwrap();
        let inter = af::set_intersect(&aa, &ab).unwrap().host_u32().unwrap();
        let union = af::set_union(&aa, &ab).unwrap().host_u32().unwrap();
        let expect_i: Vec<u32> = a.intersection(&b).copied().collect();
        let expect_u: Vec<u32> = a.union(&b).copied().collect();
        prop_assert_eq!(inter, expect_i);
        prop_assert_eq!(union, expect_u);
    }

    /// The sum reduction matches the host sum on a lazy input.
    #[test]
    fn reductions_match_host(data in prop::collection::vec(-100.0..100.0f64, 1..200)) {
        let dev = Device::with_defaults();
        let rt = af::Backend::new(&dev);
        let a = rt.array_f64(&data).unwrap();
        let lazy = &a * 2.0;
        let got = af::sum(&lazy).unwrap();
        let expect: f64 = data.iter().map(|x| x * 2.0).sum();
        prop_assert!((got - expect).abs() <= 1e-9 * expect.abs().max(1.0));
    }
}
