//! Copy-on-write device storage: one host column uploaded to all four paper
//! backends is held once on the host, so these tests hold the sharing to
//! what separate copies guarantee — a kernel on one backend never changes
//! another backend's column, and a host column changed in place and
//! uploaded again is a new column while the old one keeps its values.

use gpu_proto_db::core::backend::{Col, GpuBackend};

const ROWS: usize = 1 << 17;

/// Two NaNs that differ only in their payload.
const NAN_A: u64 = 0x7ff8_0000_0000_0001;
const NAN_B: u64 = 0x7ff8_0000_0000_0002;

/// `u32` keys with duplicates, and `f64` values holding `-0.0`, `0.0` and
/// the two NaN payloads among ordinary numbers.
fn columns() -> (Vec<u32>, Vec<f64>) {
    let keys = (0..ROWS as u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % 1000)
        .collect();
    let mut vals: Vec<f64> = (0..ROWS).map(|i| i as f64 * 0.25).collect();
    vals[1] = -0.0;
    vals[2] = 0.0;
    vals[3] = f64::from_bits(NAN_A);
    vals[4] = f64::from_bits(NAN_B);
    (keys, vals)
}

fn bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

/// What `b` holds in `keys` and `vals`, the values as bits.
fn held(b: &dyn GpuBackend, keys: &Col, vals: &Col) -> (Vec<u32>, Vec<u64>) {
    let k = b.download_u32(keys).unwrap();
    (k, bits(&b.download_f64(vals).unwrap()))
}

#[test]
fn kernels_on_a_shared_column_leave_every_backends_upload_as_the_host_data() {
    let fw = gpu_proto_db::paper_setup();
    let (keys, vals) = columns();
    let reversed: Vec<u32> = (0..ROWS as u32).rev().collect();
    let uploads: Vec<(Col, Col, Col)> = fw
        .backends()
        .iter()
        .map(|b| {
            let k = b.upload_u32(&keys).unwrap();
            let v = b.upload_f64(&vals).unwrap();
            (k, v, b.upload_u32(&reversed).unwrap())
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    for (b, (k, v, at)) in fw.backends().iter().zip(&uploads) {
        let name = b.name();
        let s = b.sort(k).unwrap();
        assert_eq!(b.download_u32(&s).unwrap(), sorted, "{name} sort");
        let (sk, sv) = b.sort_by_key(k, v).unwrap();
        assert_eq!(b.download_u32(&sk).unwrap(), sorted, "{name} sort_by_key");
        let scattered = b.scatter(k, at, ROWS).unwrap();
        let back: Vec<u32> = keys.iter().rev().copied().collect();
        assert_eq!(b.download_u32(&scattered).unwrap(), back, "{name} scatter");
        for c in [s, sk, sv, scattered] {
            b.free(c).unwrap();
        }
    }
    for (b, (k, v, _)) in fw.backends().iter().zip(&uploads) {
        let host = (keys.clone(), bits(&vals));
        assert_eq!(held(b.as_ref(), k, v), host, "{}", b.name());
    }
    for (b, (k, v, at)) in fw.backends().iter().zip(uploads) {
        for c in [k, v, at] {
            b.free(c).unwrap();
        }
    }
}

#[test]
fn a_column_changed_in_place_and_uploaded_again_is_a_new_column() {
    let fw = gpu_proto_db::paper_setup();
    let (mut keys, mut vals) = columns();
    let old = (keys.clone(), bits(&vals));
    let first: Vec<(Col, Col)> = fw
        .backends()
        .iter()
        .map(|b| (b.upload_u32(&keys).unwrap(), b.upload_f64(&vals).unwrap()))
        .collect();
    // The same allocations, equal under `==` wherever it is defined: only
    // the signs of the zeros, the NaN payloads and one key change.
    keys[ROWS / 2] += 1;
    vals.swap(1, 2);
    vals.swap(3, 4);
    let new = (keys.clone(), bits(&vals));
    assert_ne!(old, new);
    for (b, (k, v)) in fw.backends().iter().zip(first) {
        let (k2, v2) = (b.upload_u32(&keys).unwrap(), b.upload_f64(&vals).unwrap());
        assert_eq!(held(b.as_ref(), &k2, &v2), new, "{} new upload", b.name());
        assert_eq!(held(b.as_ref(), &k, &v), old, "{} old upload", b.name());
        for c in [k, v, k2, v2] {
            b.free(c).unwrap();
        }
    }
}
