//! Boost.Compute — Table II's second column: the eager suite under
//! [`boost_compute_sim::CommandQueue`]'s profile.
//!
//! Same operator realisations as Thrust (`backends::eager`), but
//! running through an OpenCL command queue: every distinct kernel
//! JIT-compiles on first use, each launch pays OpenCL enqueue overhead and
//! every vector is a raw driver allocation. The framework-visible
//! difference is therefore pure cost profile — which is exactly what the
//! paper compares.

use super::eager::{EagerBackend, EagerLib};
use boost_compute_sim::{CommandQueue, Context};
use gpu_sim::Device;
use std::sync::Arc;

/// The Boost.Compute library plugged into the framework.
pub type BoostBackend = EagerBackend<CommandQueue>;

impl EagerLib for CommandQueue {
    const NAME: &'static str = "Boost.Compute";

    /// A queue on a fresh OpenCL context (cold program cache — first calls
    /// will JIT).
    fn cold(device: &Arc<Device>) -> Self {
        CommandQueue::new(&Context::new(device))
    }
}

/// Boost.Compute's cost profile; answers are `conformance`'s business.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::GpuBackend;
    use crate::backends::conformance::{revenue, stats_of};
    use crate::fused::FusedExpr;
    use crate::ops::CmpOp;

    #[test]
    fn first_selection_pays_jit_repeats_do_not() {
        let b = BoostBackend::new(&Device::with_defaults());
        let col = b.upload_u32(&(0..4096u32).collect::<Vec<_>>()).unwrap();
        let dev = b.device();
        let (_, cold) = dev.time(|| b.selection(&col, CmpOp::Gt, 100.0).unwrap());
        let (_, warm) = dev.time(|| b.selection(&col, CmpOp::Gt, 100.0).unwrap());
        assert!(
            cold.as_nanos() > warm.as_nanos() + dev.spec().opencl_jit_compile_ns,
            "cold {cold} vs warm {warm}"
        );
    }

    #[test]
    fn fused_kernels_are_one_launch_and_one_program_per_expression() {
        let b = BoostBackend::new(&Device::with_defaults());
        let ([price, disc, qty], expr, few) = revenue(&b);
        let inputs = [&price, &disc, &qty];
        let agg = |expr| stats_of(&b, || b.fused_filter_agg(&inputs, &few, expr).unwrap());
        let cold = agg(&expr);
        assert_eq!(
            cold.total_launches(),
            1,
            "fused agg must be a single launch"
        );
        assert_eq!(
            cold.jit_compiles, 1,
            "first fused call JIT-compiles its kernel"
        );
        assert_eq!(
            agg(&expr).jit_compiles,
            0,
            "same expression: cached program"
        );
        assert_eq!(
            agg(&FusedExpr::Col(0)).jit_compiles,
            1,
            "new expression: new program"
        );
        let s = stats_of(&b, || b.fused_map(&[&price, &disc], &expr).unwrap());
        assert_eq!(s.total_launches(), 1, "fused map must be a single launch");
    }
}
