//! # arrayfire-sim — an ArrayFire-style lazy, fusing GPU library
//!
//! Reimplementation of the **ArrayFire** programming model on the
//! [`gpu_sim`] substrate. ArrayFire differs from Thrust and Boost.Compute
//! in one fundamental way the paper's measurements expose: it evaluates
//! **lazily**. Element-wise operations build an expression DAG; when a
//! result is needed (`eval`, reduction, download), the whole chain is
//! JIT-fused into a *single* generated kernel:
//!
//! * one read per distinct input column, one write for the result —
//!   no intermediate materialisation between chained operators;
//! * one kernel launch per fused tree, instead of one per operator;
//! * the first evaluation of each tree *shape* pays
//!   [`DeviceSpec::arrayfire_jit_compile_ns`](gpu_sim::DeviceSpec) of
//!   codegen (cached by shape thereafter);
//! * small host-side graph-management overhead per lazy node.
//!
//! Non-fusable operations ([`where_`], [`sort`], [`scan`], [`sum_by_key`],
//! [`set_intersect`], …) break the graph and run as discrete kernels.
//! ArrayFire pools device memory (its memory manager), so allocations are
//! pool-served after warm-up.
//!
//! ```
//! use gpu_sim::Device;
//! use arrayfire_sim as af;
//!
//! let dev = Device::with_defaults();
//! let rt = af::Backend::new(&dev);
//! let price = rt.array_f64(&[10.0, 20.0, 30.0]).unwrap();
//! let discount = rt.array_f64(&[0.1, 0.2, 0.3]).unwrap();
//! // Lazy: nothing launches here.
//! let revenue = &price * &discount;
//! // Reduction forces one fused kernel, then the reduce kernel.
//! assert_eq!(af::sum(&revenue).unwrap(), 1.0 + 4.0 + 9.0);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo
    )
)]

pub mod array;
pub mod dtype;
pub mod node;
pub mod ops;
pub mod program;

pub use array::{Array, Backend};
pub use dtype::{ColumnData, DType, Scalar};
pub use node::{BinaryOp, UnaryOp};
pub use ops::{
    charge_set_op, charge_sort_by_key, charge_sum_by_key, charge_where, constant, lookup, scan,
    set_intersect, set_union, sort, sort_by_key, sum, sum_by_key, where_,
};
pub use program::Program;

/// Kernel-name prefix for device statistics.
pub const KERNEL_PREFIX: &str = "af";
