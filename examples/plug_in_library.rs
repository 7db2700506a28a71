//! Plug a *new* library into the framework — the paper's extensibility
//! claim ("allows a user to plug-in new libraries and custom-written
//! code"), demonstrated.
//!
//! A library that offers the eager algorithm suite Thrust and
//! Boost.Compute share (`gpu_proto_db::sim::eager`) is one `impl Launch`
//! — how it allocates and what one kernel launch costs — and one
//! `impl EagerLib` — its Table II name and its cold context.
//! `EagerBackend` supplies every operator. `CubLike`, modelled on CUB's
//! device-wide primitives, registers next to the paper's four backends,
//! appears in the generated support matrix, answers TPC-H Q6 and competes
//! in the selection shoot-out.
//!
//! ```sh
//! cargo run --release --example plug_in_library
//! ```

use gpu_proto_db::core::backends::{EagerBackend, EagerLib};
use gpu_proto_db::core::prelude::*;
use gpu_proto_db::core::runner::fmt_duration;
use gpu_proto_db::sim::eager::{charge_launch, Launch};
use gpu_proto_db::sim::{AllocPolicy, BufferId, Device, DeviceSpec, KernelCost, Result};
use gpu_proto_db::tpch::queries::q6;
use std::fmt::Display;
use std::sync::Arc;

/// A CUB-style library: pre-compiled CUDA kernels, and no allocator of its
/// own — the caller `cudaMalloc`s every temporary, so nothing comes from a
/// pool.
struct CubLike(Arc<Device>);

impl Launch for CubLike {
    const ALLOC: AllocPolicy = AllocPolicy::Raw;
    const SEQUENCE: &'static str = "sequence";

    fn device(&self) -> &Arc<Device> {
        &self.0
    }

    fn launch<K: Display>(
        &self,
        name: &str,
        _key: impl FnOnce() -> K,
        cost: KernelCost,
        reads: &[BufferId],
        writes: &[BufferId],
    ) -> Result<()> {
        let cost = cost.with_launch_overhead(self.0.spec().cuda_launch_latency_ns);
        charge_launch(&self.0, &format!("cub::{name}"), cost, reads, writes)
    }
}

impl EagerLib for CubLike {
    const NAME: &'static str = "CUB-like";

    fn cold(device: &Arc<Device>) -> Self {
        CubLike(Arc::clone(device))
    }
}

fn main() {
    let mut fw = gpu_proto_db::paper_setup();
    let device = Device::new(DeviceSpec::gtx1080());
    fw.register(Box::new(EagerBackend::<CubLike>::new(&device)));

    // The new library shows up in the generated Table II automatically.
    println!("{}", fw.support_matrix());

    // It answers TPC-H Q6 like any paper backend (first, cold run).
    let db = gpu_proto_db::tpch::generate(0.01);
    let want = q6::reference(&db);
    println!("TPC-H Q6 (SF 0.01, revenue {want:.2}):");
    for b in fw.backends() {
        let b = b.as_ref();
        let data = q6::Q6Data::upload(b, &db).expect("upload");
        let (got, t) = b.device().time(|| data.execute(b).expect("q6"));
        assert!(
            (got - want).abs() < 1e-6,
            "{} answers Q6 with {got}",
            b.name()
        );
        println!("  {:<16} {:>10}", b.name(), fmt_duration(t.as_nanos()));
    }

    // And competes in the selection shoot-out.
    let column: Vec<u32> = (0..500_000u32).map(|i| i.wrapping_mul(40_503)).collect();
    println!("selection shoot-out (500k rows, 50% selectivity):");
    for b in fw.backends() {
        let col = b.upload_u32(&column).expect("upload");
        let warm = b.selection(&col, CmpOp::Lt, 2f64.powi(31)).expect("warm");
        b.free(warm).expect("free");
        let dev = b.device();
        let t0 = dev.now();
        let ids = b.selection(&col, CmpOp::Lt, 2f64.powi(31)).expect("run");
        println!(
            "  {:<16} {:>10}",
            b.name(),
            fmt_duration((dev.now() - t0).as_nanos())
        );
        b.free(ids).expect("free");
        b.free(col).expect("free");
    }
}
