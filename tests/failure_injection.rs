//! Failure injection: the system must degrade with typed errors, never
//! panics or silent corruption, when resources run out or callers misuse
//! handles.

use gpu_proto_db::core::backend::GpuBackend;
use gpu_proto_db::core::prelude::*;
use gpu_proto_db::sim::{Device, DeviceSpec, SimError};

fn tiny_device(bytes: u64) -> std::sync::Arc<Device> {
    let mut spec = DeviceSpec::gtx1080();
    spec.global_mem_bytes = bytes;
    Device::new(spec)
}

#[test]
fn device_oom_is_a_typed_error() {
    let dev = tiny_device(1 << 20); // 1 MiB
    let r = dev.alloc::<u64>(1 << 20); // 8 MiB
    match r {
        Err(SimError::OutOfMemory {
            requested,
            available,
        }) => {
            assert!(requested > available);
        }
        other => panic!("expected OOM, got {other:?}"),
    }
    // The device is still usable afterwards.
    let ok = dev.alloc::<u8>(1024);
    assert!(ok.is_ok());
}

#[test]
fn backend_operator_oom_propagates_not_panics() {
    // A device that can hold the input but not the operator's
    // intermediates: the Thrust selection chain needs ~4 extra columns.
    let dev = tiny_device(8 << 20);
    let b = ThrustBackend::new(&dev);
    let col = b.upload_u32(&vec![1u32; 1 << 20]).unwrap(); // 4 MiB exactly
    let r = b.selection(&col, CmpOp::Gt, 0.0);
    assert!(
        matches!(r, Err(SimError::OutOfMemory { .. })),
        "expected OOM from intermediates, got {r:?}"
    );
}

#[test]
fn pool_pressure_is_rescued_by_trim() {
    let dev = tiny_device(4 << 20);
    {
        let _a = dev.alloc::<u8>(3 << 20).unwrap();
    } // cached in the pool, still reserved
      // A different size class forces the pool trim path.
    let b = dev.alloc::<u8>((2 << 20) + 1);
    assert!(b.is_ok(), "trim-under-pressure must rescue: {b:?}");
}

#[test]
fn freeing_a_foreign_handle_errors_and_drops_it() {
    let a = ThrustBackend::new(&Device::with_defaults());
    let b = BoostBackend::new(&Device::with_defaults());
    let col = a.upload_u32(&[1, 2, 3]).unwrap();
    // Another library rejects it, and so does another Thrust instance: a
    // handle belongs to the instance that minted it.
    assert!(b.download_u32(&col).is_err());
    let other = ThrustBackend::new(&a.device());
    assert!(other.download_u32(&col).is_err());
    // A refused free still drops the handle, and with it the column.
    assert_eq!(a.device().live_buffers(), 1);
    assert!(matches!(other.free(col), Err(SimError::Unsupported(_))));
    assert_eq!(a.device().live_buffers(), 0);
}

#[test]
fn merge_join_precondition_is_enforced_end_to_end() {
    let hw = HandwrittenBackend::new(&Device::with_defaults());
    // Framework-level merge join sorts internally, so unsorted input is
    // fine there; the raw kernel enforces sortedness.
    let dev = Device::with_defaults();
    let a = dev.htod(&[3u32, 1]).unwrap();
    let b = dev.htod(&[1u32, 2]).unwrap();
    assert!(matches!(
        gpu_proto_db::handwritten::merge_join(&dev, &a, &b),
        Err(SimError::Unsupported(_))
    ));
    // And the backend path still works on arbitrary input.
    let o = hw.upload_u32(&[3, 1]).unwrap();
    let i = hw.upload_u32(&[1, 2]).unwrap();
    let (l, r) = hw.join(&o, &i, JoinAlgo::Merge).unwrap();
    assert_eq!(hw.download_u32(&l).unwrap(), vec![1]);
    assert_eq!(hw.download_u32(&r).unwrap(), vec![0]);
}

#[test]
fn zero_cost_for_each_n_is_rejected() {
    use gpu_proto_db::{sim::KernelCost, thrust};
    let lib = thrust::Thrust::new(&Device::with_defaults());
    let r = thrust::for_each_n(&lib, 5, KernelCost::empty(), |_| {});
    assert!(matches!(r, Err(SimError::InvalidLaunch(_))));
}

#[test]
fn gather_with_poisoned_indices_fails_closed() {
    for b in gpu_proto_db::paper_setup().backends() {
        let data = b.upload_f64(&[1.0, 2.0]).unwrap();
        let bad = b.upload_u32(&[0, 7]).unwrap();
        let r = b.gather(&data, &bad);
        assert!(r.is_err(), "{} must bounds-check", b.name());
        // Backend still functional afterwards.
        let good = b.upload_u32(&[1]).unwrap();
        let g = b.gather(&data, &good).unwrap();
        assert_eq!(b.download_f64(&g).unwrap(), vec![2.0]);
    }
}

#[test]
fn empty_inputs_flow_through_every_operator() {
    for b in gpu_proto_db::paper_setup().backends() {
        let name = b.name();
        let u = b.upload_u32(&[]).unwrap();
        let f = b.upload_f64(&[]).unwrap();
        let ids = b.selection(&u, CmpOp::Gt, 0.0).unwrap();
        assert!(ids.is_empty(), "{name}");
        let ps = b.prefix_sum(&u).unwrap();
        assert!(ps.is_empty(), "{name}");
        let s = b.sort(&u).unwrap();
        assert!(s.is_empty(), "{name}");
        assert_eq!(b.reduction(&f).unwrap(), 0.0, "{name}");
        let (gk, gv) = b.grouped_sum(&u, &f).unwrap();
        assert!(gk.is_empty() && gv.is_empty(), "{name}");
        let mask = b.dense_mask(&u, CmpOp::Gt, 0.0).unwrap();
        assert!(mask.is_empty(), "{name}");
    }
}

#[test]
fn oom_error_messages_are_actionable() {
    let dev = tiny_device(1 << 16);
    let e = dev.alloc::<u64>(1 << 20).unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("out of memory"), "{msg}");
    assert!(msg.contains("requested"), "{msg}");
}
