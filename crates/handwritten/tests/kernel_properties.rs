//! Property tests for the handwritten kernels: join algorithms agree with
//! each other and with the relational definition; aggregation conserves
//! mass; fused pipelines equal their unfused counterparts.

use gpu_sim::hostexec::{Cmp, Lane, Rhs, RowPred};
use gpu_sim::Device;
use handwritten as hw;
use proptest::prelude::*;

fn sorted_pairs(r: &hw::JoinResult) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> = r
        .left
        .host()
        .iter()
        .zip(r.right.host())
        .map(|(&a, &b)| (a, b))
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// All three join algorithms produce the identical match set.
    #[test]
    fn joins_agree_on_arbitrary_inputs(
        outer in prop::collection::vec(0u32..32, 0..150),
        inner in prop::collection::vec(0u32..32, 0..150),
    ) {
        let dev = Device::with_defaults();
        let o = dev.htod(&outer).unwrap();
        let i = dev.htod(&inner).unwrap();
        let hash = sorted_pairs(&hw::hash_join(&dev, &o, &i).unwrap());
        let nlj = sorted_pairs(&hw::nested_loops_join(&dev, &o, &i).unwrap());
        prop_assert_eq!(&hash, &nlj);
        // Merge join needs sorted inputs: sort value copies, join, then
        // verify the *count* matches (ids refer to sorted positions).
        let mut so = outer.clone();
        let mut si = inner.clone();
        so.sort_unstable();
        si.sort_unstable();
        let os = dev.htod(&so).unwrap();
        let is_ = dev.htod(&si).unwrap();
        let merge = hw::merge_join(&dev, &os, &is_).unwrap();
        prop_assert_eq!(merge.len(), hash.len());
    }

    /// |A ⋈ B| equals the bag-semantics formula Σ_k cnt_A(k)·cnt_B(k).
    #[test]
    fn join_cardinality_formula(
        outer in prop::collection::vec(0u32..16, 0..120),
        inner in prop::collection::vec(0u32..16, 0..120),
    ) {
        let dev = Device::with_defaults();
        let o = dev.htod(&outer).unwrap();
        let i = dev.htod(&inner).unwrap();
        let got = hw::hash_join(&dev, &o, &i).unwrap().len();
        let mut ca = [0usize; 16];
        let mut cb = [0usize; 16];
        for &k in &outer { ca[k as usize] += 1; }
        for &k in &inner { cb[k as usize] += 1; }
        let expect: usize = (0..16).map(|k| ca[k] * cb[k]).sum();
        prop_assert_eq!(got, expect);
    }

    /// Hash aggregation conserves sums and counts.
    #[test]
    fn aggregation_conserves_mass(
        keys in prop::collection::vec(0u32..64, 1..200),
    ) {
        let dev = Device::with_defaults();
        let vals: Vec<f64> = keys.iter().map(|&k| (k as f64) * 0.5 + 1.0).collect();
        let kb = dev.htod(&keys).unwrap();
        let vb = dev.htod(&vals).unwrap();
        let agg = hw::hash_group_aggregate(&dev, &kb, &vb).unwrap();
        let total_in: f64 = vals.iter().sum();
        let total_out: f64 = agg.sums.host().iter().sum();
        prop_assert!((total_in - total_out).abs() < 1e-9);
        prop_assert_eq!(agg.counts.host().iter().sum::<u64>(), keys.len() as u64);
        // Min ≤ avg ≤ max in every group.
        for g in 0..agg.len() {
            let avg = agg.sums.host()[g] / agg.counts.host()[g] as f64;
            prop_assert!(agg.mins.host()[g] <= avg + 1e-12);
            prop_assert!(avg <= agg.maxs.host()[g] + 1e-12);
        }
        // Keys ascending & unique.
        prop_assert!(agg.keys.host().windows(2).all(|w| w[0] < w[1]));
    }

    /// The fused filter-dot kernel equals the unfused pipeline.
    #[test]
    fn fused_filter_dot_equals_unfused(
        rows in prop::collection::vec((0.0..100.0f64, 0.0..1.0f64, 0u32..100), 0..200),
        threshold in 0u32..100,
    ) {
        let dev = Device::with_defaults();
        let a: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let b: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let keys: Vec<u32> = rows.iter().map(|r| r.2).collect();
        let ab = dev.htod(&a).unwrap();
        let bb = dev.htod(&b).unwrap();
        let under = RowPred {
            col: Lane::U32(&keys),
            cmp: Cmp::Lt,
            rhs: Rhs::Lit(f64::from(threshold)),
        };
        let fused = hw::fused_filter_dot(&dev, &ab, &bb, 4, &[], &[under]).unwrap();
        let expect: f64 = rows
            .iter()
            .filter(|r| r.2 < threshold)
            .map(|r| r.0 * r.1)
            .sum();
        prop_assert!((fused - expect).abs() < 1e-9 * expect.abs().max(1.0));
    }

    /// Radix sort of pairs preserves the multiset of pairs.
    #[test]
    fn radix_sort_pairs_is_a_permutation(
        pairs in prop::collection::vec((any::<u32>(), any::<u32>()), 0..200),
    ) {
        let dev = Device::with_defaults();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let vals: Vec<u32> = pairs.iter().map(|p| p.1).collect();
        let mut kb = dev.htod(&keys).unwrap();
        let mut vb = dev.htod(&vals).unwrap();
        hw::radix_sort_pairs(&dev, &mut kb, &mut vb).unwrap();
        prop_assert!(kb.host().windows(2).all(|w| w[0] <= w[1]));
        let mut got: Vec<(u32, u32)> = kb.host().iter().zip(vb.host()).map(|(&k, &v)| (k, v)).collect();
        let mut expect = pairs.clone();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
