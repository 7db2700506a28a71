//! Thrust — Table II's third column: the eager suite under
//! [`thrust_sim::Thrust`]'s profile.
//!
//! Every call launches a pre-compiled CUDA kernel (no JIT, CUDA launch
//! latency) and temporaries come from the pooled allocator; the operator
//! realisations themselves are `backends::eager`'s.

use super::eager::{EagerBackend, EagerLib};
use gpu_sim::Device;
use std::sync::Arc;
use thrust_sim::Thrust;

/// The Thrust library plugged into the framework.
pub type ThrustBackend = EagerBackend<Thrust>;

impl EagerLib for Thrust {
    const NAME: &'static str = "Thrust";

    fn cold(device: &Arc<Device>) -> Self {
        Thrust::new(device)
    }
}

/// Thrust's cost profile; answers are `conformance`'s business.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::GpuBackend;
    use crate::backends::conformance::{revenue, stats_of};
    use crate::ops::CmpOp;

    #[test]
    fn chains_launch_what_table_ii_names() {
        let b = ThrustBackend::new(&Device::with_defaults());
        let ([price, _, qty], ..) = revenue(&b);
        let s = stats_of(&b, || b.selection(&qty, CmpOp::Gt, 4.0).unwrap());
        assert_eq!(s.launches_of("thrust::transform"), 1);
        assert_eq!(s.launches_of("thrust::exclusive_scan"), 1);
        assert_eq!(s.launches_of("thrust::scatter_if"), 1);
        assert_eq!(s.jit_compiles, 0, "Thrust kernels are pre-compiled");
        let s = stats_of(&b, || b.grouped_sum(&qty, &price).unwrap());
        assert!(s.launches_of("thrust::sort_by_key/scatter") > 0);
        assert_eq!(s.launches_of("thrust::reduce_by_key"), 1);
    }

    #[test]
    fn fused_kernels_are_one_launch_each() {
        let b = ThrustBackend::new(&Device::with_defaults());
        let ([price, disc, qty], expr, few) = revenue(&b);
        let s = stats_of(&b, || b.fused_map(&[&price, &disc], &expr).unwrap());
        assert_eq!(s.launches_of("thrust::transform_zip"), 1);
        assert_eq!(s.total_launches(), 1, "fused map must be a single launch");
        let inputs = [&price, &disc, &qty];
        let s = stats_of(&b, || b.fused_filter_agg(&inputs, &few, &expr).unwrap());
        assert_eq!(s.launches_of("thrust::transform_reduce_zip"), 1);
        assert_eq!(s.total_launches(), 1, "fused agg must be a single launch");
    }
}
