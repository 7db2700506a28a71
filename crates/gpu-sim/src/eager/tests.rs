//! What every algorithm answers, refuses and launches — once, under a
//! launcher with no profile of its own. What a *library's* launches cost
//! (prefix, latency, JIT, allocation policy) is pinned beside its `Launch`
//! impl, in `thrust-sim` and `boost-compute-sim`.
//!
//! Sizes shrink under Miri; the bodies' parallel paths are `hostexec`'s and
//! are driven across their thresholds by its own tests.

use super::*;
use crate::hostexec::expr::{BinaryOp, Instr, Leaf, Program};
use crate::hostexec::{Cmp, Lane, Rhs};
use crate::{FaultPlan, FaultSite, TraceKind};
use proptest::prelude::*;
use rand::prelude::*;
use std::sync::Mutex;

/// Rows of the tests that need "many".
const MANY: usize = if cfg!(miri) { 1 << 8 } else { 1 << 16 };
const CASES: u32 = if cfg!(miri) { 3 } else { 48 };

/// A library with no latency and a pooled allocator, which records the
/// program a compiling library would have been asked for at each launch.
struct Probe {
    device: Arc<Device>,
    programs: Mutex<Vec<String>>,
}

impl Probe {
    fn new() -> Probe {
        Probe {
            device: Device::with_defaults(),
            programs: Mutex::new(Vec::new()),
        }
    }

    /// The programs launched since the last call.
    fn programs(&self) -> Vec<String> {
        std::mem::take(&mut *self.programs.lock().unwrap())
    }

    fn launches_of(&self, name: &str) -> u64 {
        self.device.stats().launches_of(&format!("probe::{name}"))
    }

    fn upload<T: DeviceCopy>(&self, host: &[T]) -> Vector<T> {
        Vector::from_host(self, host).unwrap()
    }
}

impl Launch for Probe {
    const ALLOC: AllocPolicy = AllocPolicy::Pooled;
    const SEQUENCE: &'static str = "sequence";

    fn device(&self) -> &Arc<Device> {
        &self.device
    }

    fn launch<K: Display>(
        &self,
        name: &str,
        key: impl FnOnce() -> K,
        cost: KernelCost,
        reads: &[BufferId],
        writes: &[BufferId],
    ) -> Result<()> {
        let program = format!("{name}<{}>", key());
        self.programs.lock().unwrap().push(program);
        charge_launch(&self.device, &format!("probe::{name}"), cost, reads, writes)
    }
}

/// The trace of `run` alone.
fn trace_of(lib: &Probe, run: impl FnOnce()) -> Vec<TraceKind> {
    lib.device.set_tracing(true);
    run();
    lib.device.set_tracing(false);
    let kinds = lib.device.take_trace().into_iter().map(|e| e.kind);
    kinds.collect()
}

fn kernel_names(trace: &[TraceKind]) -> Vec<&str> {
    let names = trace.iter().filter_map(|k| match k {
        TraceKind::Kernel { name, .. } => Some(name.as_str()),
        _ => None,
    });
    names.collect()
}

// ---------------------------------------------------------------------------
// Vectors
// ---------------------------------------------------------------------------

#[test]
fn a_vector_round_trips_over_pcie_and_copies_on_the_device() {
    let lib = Probe::new();
    let v = lib.upload(&[1u32, 2, 3]);
    assert_eq!((v.len(), v.is_empty()), (3, false));
    assert_eq!(v.to_host().unwrap(), [1, 2, 3]);
    let w = v.dclone().unwrap();
    assert_eq!(w.to_host().unwrap(), [1, 2, 3]);
    let s = lib.device.stats();
    assert_eq!(
        (s.htod_count, s.dtoh_count),
        (1, 2),
        "clone must not re-upload"
    );
    assert_eq!(s.dtod_bytes, 12);
    let z: Vector<u64> = Vector::zeroed(&lib, 8).unwrap();
    assert_eq!(z.as_slice(), [0; 8]);
}

// ---------------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------------

#[test]
fn element_wise_algorithms_map_each_row() {
    let lib = Probe::new();
    let v = lib.upload(&[1u32, 2, 3]);
    let squares = transform(&lib, &v, |x| x * x).unwrap();
    assert_eq!(squares.to_host().unwrap(), [1, 4, 9]);
    let a = lib.upload(&[1.0f64, 2.0, 3.0]);
    let b = lib.upload(&[4.0f64, 5.0, 6.0]);
    let product = transform_binary(&lib, &a, &b, |x, y| x * y).unwrap();
    assert_eq!(product.to_host().unwrap(), [4.0, 10.0, 18.0]);
    let sum = Program::new(vec![
        Instr::Load(0),
        Instr::Load(1),
        Instr::Binary(BinaryOp::Add),
    ]);
    let leaves = [Leaf::F64(a.as_slice()), Leaf::F64(b.as_slice())];
    let reads = [a.id(), b.id()];
    let zipped: Vector<f64> =
        transform_zip(&lib, 3, || "a + b", 48, &reads, &sum, &leaves).unwrap();
    assert_eq!(zipped.to_host().unwrap(), [5.0, 7.0, 9.0]);
    let mut sevens: Vector<u16> = Vector::zeroed(&lib, 4).unwrap();
    fill(&lib, &mut sevens, 7).unwrap();
    assert_eq!(sevens.to_host().unwrap(), [7; 4]);
    assert_eq!(
        sequence(&lib, 5).unwrap().to_host().unwrap(),
        [0, 1, 2, 3, 4]
    );
}

#[test]
fn reductions_fold_in_row_order() {
    let lib = Probe::new();
    let v = lib.upload(&[1u32, 2, 3, 4]);
    assert_eq!(reduce(&lib, &v, 0u64, |a, x| a + u64::from(x)).unwrap(), 10);
    let a = lib.upload(&[1.0f64, 2.0, 3.0]);
    let b = lib.upload(&[2.0f64, 3.0, 4.0]);
    let dot = inner_product(&lib, &a, &b, 0.0, |x, y| x + y, |x, y| x * y).unwrap();
    assert_eq!(dot, 2.0 + 6.0 + 12.0);
    // Rows the predicate drops contribute nothing — not even a `+ 0.0`,
    // which would turn a `-0.0` sum into `0.0`.
    let zeros = Program::new(vec![Instr::Load(0), Instr::ScalarRhs(BinaryOp::Mul, -0.0)]);
    let lane = Lane::F64(a.as_slice());
    let not_2 = RowPred {
        col: lane,
        cmp: Cmp::Ne,
        rhs: Rhs::Lit(2.0),
    };
    let (reads, leaves) = ([a.id()], [lane.into()]);
    let sum = transform_reduce_zip(
        &lib,
        3,
        || "c0",
        24,
        &reads,
        -0.0,
        &zeros,
        &leaves,
        &[not_2],
    );
    assert_eq!(sum.unwrap().to_bits(), (-0.0f64).to_bits());
    assert_eq!(lib.device.stats().total_launches(), 3);
}

#[test]
fn reduce_by_key_collapses_consecutive_runs() {
    let lib = Probe::new();
    let k = lib.upload(&[1u32, 1, 2, 2, 2, 1]);
    let v = lib.upload(&[10u64, 20, 1, 2, 3, 100]);
    let (keys, sums) = reduce_by_key(&lib, &k, &v, |a, b| a + b).unwrap();
    // The trailing `1` is a *new* run.
    assert_eq!(keys.to_host().unwrap(), [1, 2, 1]);
    assert_eq!(sums.to_host().unwrap(), [30, 6, 100]);
}

#[test]
fn exclusive_scan_gives_offsets_from_init() {
    let lib = Probe::new();
    let flags = lib.upload(&[1u32, 0, 1, 1, 0]);
    let offsets = exclusive_scan(&lib, &flags, 0).unwrap();
    assert_eq!(offsets.to_host().unwrap(), [0, 1, 1, 2, 3]);
    let from = exclusive_scan(&lib, &lib.upload(&[2u32, 3]), 100).unwrap();
    assert_eq!(from.to_host().unwrap(), [100, 102]);
    // Past 2^32 the sum wraps, as CUDA's unsigned arithmetic does.
    let past = exclusive_scan(&lib, &lib.upload(&[2u32, 3, 4]), u32::MAX).unwrap();
    assert_eq!(past.to_host().unwrap(), [u32::MAX, 1, 4]);
}

#[test]
fn sort_orders_random_keys() {
    let lib = Probe::new();
    let mut rng = StdRng::seed_from_u64(7);
    let data: Vec<u32> = (0..MANY).map(|_| rng.gen()).collect();
    let mut v = lib.upload(&data);
    sort(&lib, &mut v).unwrap();
    let mut expect = data;
    expect.sort_unstable();
    assert_eq!(v.to_host().unwrap(), expect);
}

#[test]
fn sort_by_key_is_stable_and_carries_the_payload() {
    let lib = Probe::new();
    let mut k = lib.upload(&[1u32, 0, 1, 0]);
    let mut v = lib.upload(&[10u8, 20, 11, 21]);
    sort_by_key(&lib, &mut k, &mut v).unwrap();
    assert_eq!(k.to_host().unwrap(), [0, 0, 1, 1]);
    assert_eq!(v.to_host().unwrap(), [20, 21, 10, 11]);
}

#[test]
fn gather_and_scatter_move_rows_by_index() {
    let lib = Probe::new();
    let src = lib.upload(&[10u32, 20, 30, 40]);
    let map = lib.upload(&[3u32, 0, 2]);
    let picked = gather(&lib, &map, &src).unwrap();
    assert_eq!(picked.to_host().unwrap(), [40, 10, 30]);
    let mut dst: Vector<u32> = Vector::zeroed(&lib, 4).unwrap();
    scatter(&lib, &picked, &map, &mut dst).unwrap();
    assert_eq!(dst.to_host().unwrap(), [10, 0, 30, 40]);
}

#[test]
fn scatter_if_compacts_row_ids_to_scanned_offsets() {
    // The selection tail: row ids scattered to their offsets where the
    // flag is set.
    let lib = Probe::new();
    let ids = sequence(&lib, 5).unwrap();
    let flags = lib.upload(&[1u32, 0, 1, 0, 1]);
    let offsets = exclusive_scan(&lib, &flags, 0).unwrap();
    let mut out: Vector<u32> = Vector::zeroed(&lib, 3).unwrap();
    scatter_if(&lib, &ids, &offsets, &flags, &mut out).unwrap();
    assert_eq!(out.to_host().unwrap(), [0, 2, 4]);
}

#[test]
fn for_each_n_runs_the_functor_once_per_index() {
    let lib = Probe::new();
    let mut sum = 0;
    for_each_n(&lib, 100, presets::nested_loops::<u32>(100, 10), |i| {
        sum += i
    })
    .unwrap();
    assert_eq!(sum, 4950);
    assert_eq!(lib.launches_of("for_each_n"), 1);
}

#[test]
fn empty_inputs_give_empty_outputs_and_the_initial_value() {
    let lib = Probe::new();
    let (e, ef) = (lib.upload::<u32>(&[]), lib.upload::<f64>(&[]));
    assert!(transform(&lib, &e, |x| x + 1).unwrap().is_empty());
    assert!(transform_binary(&lib, &e, &ef, |x, _| x)
        .unwrap()
        .is_empty());
    assert!(exclusive_scan(&lib, &e, 0).unwrap().is_empty());
    assert!(sequence(&lib, 0).unwrap().is_empty());
    assert!(gather(&lib, &e, &ef).unwrap().is_empty());
    assert_eq!(reduce(&lib, &e, 42u32, |a, x| a + x).unwrap(), 42);
    let plus = |a, b| a + b;
    assert_eq!(
        inner_product(&lib, &ef, &ef, 1.5, plus, |a, b| a * b).unwrap(),
        1.5
    );
    let (keys, sums) = reduce_by_key(&lib, &e, &ef, plus).unwrap();
    assert!(keys.is_empty() && sums.is_empty());
    let (mut k, mut v) = (e.dclone().unwrap(), ef.dclone().unwrap());
    sort(&lib, &mut k).unwrap();
    sort_by_key(&lib, &mut k, &mut v).unwrap();
    scatter(&lib, &ef, &e, &mut v).unwrap();
    scatter_if(&lib, &ef, &e, &e, &mut v).unwrap();
    for_each_n(&lib, 0, KernelCost::empty(), |_| unreachable!()).unwrap();
}

// ---------------------------------------------------------------------------
// Refusals, and what they leave behind
// ---------------------------------------------------------------------------

#[test]
fn operands_of_unequal_length_are_refused_before_any_device_work() {
    let lib = Probe::new();
    let (one, two) = (lib.upload(&[1u32]), lib.upload(&[1u32, 2]));
    let (mut k, mut v, mut dst) = (
        lib.upload(&[2u32, 1]),
        lib.upload(&[1u8]),
        lib.upload(&[0u32; 2]),
    );
    let before = (lib.device.now(), lib.device.live_buffers());
    let plus = |x, y| x + y;
    let refused = [
        transform_binary(&lib, &one, &two, plus).err(),
        inner_product(&lib, &one, &two, 0, plus, |x, y| x * y).err(),
        reduce_by_key(&lib, &one, &two, plus).err(),
        sort_by_key(&lib, &mut k, &mut v).err(),
        scatter(&lib, &two, &one, &mut dst).err(),
        scatter_if(&lib, &two, &one, &two, &mut dst).err(),
        scatter_if(&lib, &two, &two, &one, &mut dst).err(),
    ];
    for (i, r) in refused.iter().enumerate() {
        assert!(
            matches!(r, Some(SimError::SizeMismatch { .. })),
            "{i}: {r:?}"
        );
    }
    assert_eq!(
        refused[0],
        Some(SimError::SizeMismatch { left: 1, right: 2 })
    );
    assert_eq!((lib.device.now(), lib.device.live_buffers()), before);
    assert_eq!((k.as_slice(), dst.as_slice()), (&[2, 1][..], &[0, 0][..]));
}

#[test]
fn an_index_out_of_range_is_refused_with_the_destination_untouched() {
    let lib = Probe::new();
    let src = lib.upload(&[7u32, 8, 9]);
    // The bad index sits mid-column: rows ahead of it must not land.
    let map = lib.upload(&[2u32, 5, 0]);
    let launches = lib.device.stats().total_launches();
    let bad = Some(SimError::IndexOutOfBounds { index: 5, len: 3 });
    assert_eq!(gather(&lib, &map, &src).err(), bad);
    let mut dst = lib.upload(&[1u32, 1, 1]);
    assert_eq!(scatter(&lib, &src, &map, &mut dst).err(), bad);
    assert_eq!(dst.as_slice(), [1, 1, 1]);
    let all = lib.upload(&[1u32, 1, 1]);
    assert_eq!(scatter_if(&lib, &src, &map, &all, &mut dst).err(), bad);
    assert_eq!(dst.as_slice(), [1, 1, 1]);
    assert_eq!(lib.device.stats().total_launches(), launches);
    // An index the stencil masks out is never dereferenced.
    let masked = lib.upload(&[1u32, 0, 1]);
    scatter_if(&lib, &src, &map, &masked, &mut dst).unwrap();
    assert_eq!(dst.as_slice(), [9, 1, 7]);
}

#[test]
fn an_in_place_algorithm_whose_launch_faults_leaves_its_operand_as_it_was() {
    let lib = Probe::new();
    let mut keys = lib.upload(&[3u32, 1, 2]);
    let mut vals = lib.upload(&[30.0f64, 10.0, 20.0]);
    let (map, new) = (lib.upload(&[2u32, 1, 0]), lib.upload(&[0.5f64; 3]));
    let every_launch = FaultPlan::new(1).with_rate(FaultSite::Kernel, 1.0);
    lib.device.install_fault_plan(every_launch);
    let lost = |r: Result<()>| assert!(matches!(r, Err(SimError::DeviceLost(_))), "{r:?}");
    lost(fill(&lib, &mut vals, 0.0));
    lost(scatter(&lib, &new, &map, &mut vals));
    lost(scatter_if(&lib, &new, &map, &map, &mut vals));
    lost(sort_by_key(&lib, &mut keys, &mut vals));
    lost(sort(&lib, &mut keys));
    lib.device.clear_fault_plan();
    assert_eq!(keys.as_slice(), [3, 1, 2]);
    assert_eq!(vals.as_slice(), [30.0, 10.0, 20.0]);
}

#[test]
fn for_each_n_needs_a_declared_cost() {
    let lib = Probe::new();
    let r = for_each_n(&lib, 10, KernelCost::empty(), |_| {});
    assert!(matches!(r, Err(SimError::InvalidLaunch(_))));
    assert_eq!(lib.launches_of("for_each_n"), 0);
}

// ---------------------------------------------------------------------------
// Launches
// ---------------------------------------------------------------------------

#[test]
fn a_call_is_one_launch_of_the_program_for_its_types() {
    let lib = Probe::new();
    let u = lib.upload(&[3u32, 1, 2]);
    let f = lib.upload(&[0.5f64, 1.5, 2.5]);
    let mut d = lib.upload(&[0.0f64; 3]);
    let plus = |a, b| a + b;
    transform(&lib, &u, f64::from).unwrap();
    transform_binary(&lib, &u, &f, |x, y| f64::from(x) * y).unwrap();
    let product = Program::new(vec![
        Instr::Load(0),
        Instr::Load(1),
        Instr::Binary(BinaryOp::Mul),
    ]);
    let lanes = [Lane::U32(u.as_slice()), Lane::F64(f.as_slice())];
    let leaves = lanes.map(Leaf::from);
    let _: Vector<f64> = transform_zip(
        &lib,
        3,
        || "c0 * c1",
        36,
        &[u.id(), f.id()],
        &product,
        &leaves,
    )
    .unwrap();
    fill(&lib, &mut d, 1.0).unwrap();
    sequence(&lib, 3).unwrap();
    reduce(&lib, &f, 0.0f64, |a, x| a + x).unwrap();
    let under_2 = RowPred {
        col: lanes[1],
        cmp: Cmp::Lt,
        rhs: Rhs::Lit(2.0),
    };
    let key = || "c0 where c1 Lt 2";
    transform_reduce_zip(
        &lib,
        3,
        key,
        36,
        &[f.id()],
        0.0,
        &product,
        &leaves,
        &[under_2],
    )
    .unwrap();
    inner_product(&lib, &f, &f, 0.0f64, plus, |a, b| a * b).unwrap();
    reduce_by_key(&lib, &u, &f, plus).unwrap();
    exclusive_scan(&lib, &u, 0).unwrap();
    gather(&lib, &u.dclone().unwrap(), &lib.upload(&[0.0f64; 4])).unwrap();
    scatter(&lib, &f, &lib.upload(&[2u32, 0, 1]), &mut d).unwrap();
    scatter_if(&lib, &f, &lib.upload(&[0u32, 1, 2]), &u, &mut d).unwrap();
    for_each_n(&lib, 3, presets::nested_loops::<u32>(3, 3), |_| {}).unwrap();
    let programs = [
        "transform<(u32, f64)>",
        "transform_binary<(u32, f64, f64)>",
        "transform_zip<c0 * c1>",
        "fill<f64>",
        "sequence<u32>",
        "reduce<(f64, f64)>",
        "transform_reduce_zip<c0 where c1 Lt 2>",
        "inner_product<(f64, f64, f64)>",
        "reduce_by_key<(u32, f64)>",
        "exclusive_scan<u32>",
        "gather<f64>",
        "scatter<f64>",
        "scatter_if<f64>",
        "for_each_n<counting>",
    ];
    assert_eq!(lib.programs(), programs);
    assert_eq!(lib.device.stats().total_launches(), programs.len() as u64);
}

#[test]
fn a_radix_sort_is_three_launches_per_digit_pass() {
    let lib = Probe::new();
    let mut k = lib.upload(&(0..1000u32).rev().collect::<Vec<_>>());
    let mut v = lib.upload(&vec![0.5f64; 1000]);
    let trace = trace_of(&lib, || sort_by_key(&lib, &mut k, &mut v).unwrap());
    // u32 keys: four passes of histogram → digit_scan → scatter, in order,
    // and nothing else on the device.
    let phases = ["histogram", "digit_scan", "scatter"];
    let triple = phases.map(|p| format!("probe::sort_by_key/{p}"));
    assert_eq!(kernel_names(&trace), [&triple[..]; 4].concat());
    assert_eq!(trace.len(), 12);
    let programs = phases.map(|p| format!("sort_by_key/{p}<(u32, f64)>"));
    assert_eq!(lib.programs()[..3], programs);
    let mut keys = lib.upload(&[5u64, 4, 3, 2, 1]);
    sort(&lib, &mut keys).unwrap();
    assert_eq!(
        lib.launches_of("sort/histogram"),
        8,
        "eight digits in a u64"
    );
    assert_eq!(
        lib.programs()[12..14],
        ["sort/histogram<u64>", "sort/digit_scan<u64>"]
    );
}

#[test]
fn wider_keys_and_random_access_cost_more() {
    let time = |run: &dyn Fn(&Probe)| {
        let lib = Probe::new();
        run(&lib);
        lib.device
            .stats()
            .kernels
            .values()
            .map(|k| k.total_time.0)
            .sum::<u64>()
    };
    let t32 = time(&|lib| sort(lib, &mut lib.upload(&vec![1u32; MANY])).unwrap());
    let t64 = time(&|lib| sort(lib, &mut lib.upload(&vec![1u64; MANY])).unwrap());
    assert!(t64 > t32, "8 digit passes must outweigh 4");
    let ids: Vec<u32> = (0..MANY as u32).collect();
    let t_gather = time(&|lib| drop(gather(lib, &lib.upload(&ids), &lib.upload(&ids))));
    let t_map = time(&|lib| drop(transform(lib, &lib.upload(&ids), |x| x)));
    assert!(t_gather > t_map, "gather pays random-access bandwidth");
}

#[test]
fn an_algorithm_charges_exactly_what_its_charge_half_does() {
    // Same device events in the same order from the half that only
    // reserves as from the call that also computes — buffer ids aside,
    // which the fresh device makes equal too.
    let u = [3u32, 1, 2, 1, 0];
    let f = [0.5f64, 1.5, -2.0, 4.0, 8.0];
    let whole = Probe::new();
    let (wu, wf) = (whole.upload(&u), whole.upload(&f));
    let called = trace_of(&whole, || {
        let flags = transform(&whole, &wf, |x| u32::from(x > 1.0)).unwrap();
        let both = transform_binary(&whole, &flags, &wu, |a, b| a & b).unwrap();
        let offs = exclusive_scan(&whole, &both, 0).unwrap();
        let ids = sequence(&whole, 5).unwrap();
        let mut out: Vector<u32> = Vector::zeroed(&whole, 2).unwrap();
        scatter_if(&whole, &ids, &offs, &both, &mut out).unwrap();
        let (mut k, mut v) = (wu.dclone().unwrap(), wf.dclone().unwrap());
        sort_by_key(&whole, &mut k, &mut v).unwrap();
        reduce_by_key(&whole, &k, &v, |a, b| a + b).unwrap();
        assert_eq!(out.as_slice(), [1, 3]);
    });
    let half = Probe::new();
    let (hu, hf) = (half.upload(&u), half.upload(&f));
    let charged = trace_of(&half, || {
        let flags = charge_transform::<f64, u32>(&half, 5, hf.id()).unwrap();
        let both =
            charge_transform_binary::<u32, u32, u32>(&half, (5, flags.id()), (5, hu.id())).unwrap();
        let offs = charge_exclusive_scan::<u32>(&half, 5, both.id()).unwrap();
        let ids = charge_sequence(&half, 5).unwrap();
        let out = half.device.reserve(8, Probe::ALLOC, false).unwrap();
        let reads = [ids.id(), offs.id(), both.id()];
        charge_scatter_if::<u32>(&half, 5, 2, reads, out.id()).unwrap();
        let k = half.device.reserve_dtod(hu.buffer()).unwrap();
        let v = half.device.reserve_dtod(hf.buffer()).unwrap();
        charge_sort_by_key::<u32, f64>(&half, (5, k.id()), (5, v.id())).unwrap();
        charge_reduce_by_key::<u32, f64>(&half, 5, 4, [k.id(), v.id()]).unwrap();
    });
    assert_eq!(charged, called);
    assert_eq!(half.device.now(), whole.device.now());
    assert_eq!(half.device.stats(), whole.device.stats());
    assert_eq!(half.programs(), whole.programs());
    // Every output was a reservation: all of it is back.
    assert_eq!(
        (half.device.live_buffers(), whole.device.live_buffers()),
        (2, 2)
    );
}

// ---------------------------------------------------------------------------
// Against `std` oracles
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn transform_reduce_and_scan_match_iterators(data in prop::collection::vec(any::<u32>(), 0..300)) {
        let lib = Probe::new();
        let v = lib.upload(&data);
        let f = |x: u32| x.wrapping_mul(3).wrapping_add(7);
        let mapped = transform(&lib, &v, f).unwrap();
        prop_assert_eq!(mapped.to_host().unwrap(), data.iter().map(|&x| f(x)).collect::<Vec<_>>());
        let total: u64 = data.iter().map(|&x| u64::from(x)).sum();
        prop_assert_eq!(reduce(&lib, &v, 0u64, |a, x| a + u64::from(x)).unwrap(), total);
        let scanned = exclusive_scan(&lib, &v, 0).unwrap();
        let mut acc = 0u32;
        for (&got, &x) in scanned.as_slice().iter().zip(&data) {
            prop_assert_eq!(got, acc);
            acc = acc.wrapping_add(x);
        }
    }

    #[test]
    fn sort_by_key_is_a_stable_permutation(
        pairs in prop::collection::vec((0u32..16, any::<u32>()), 0..300),
    ) {
        let lib = Probe::new();
        let mut k = lib.upload(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
        let mut v = lib.upload(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
        sort_by_key(&lib, &mut k, &mut v).unwrap();
        let mut expect = pairs.clone();
        expect.sort_by_key(|p| p.0); // stable
        let got: Vec<(u32, u32)> = k.to_host().unwrap().into_iter().zip(v.to_host().unwrap()).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn reduce_by_key_conserves_totals(keys in prop::collection::vec(0u32..8, 1..300)) {
        let lib = Probe::new();
        let vals: Vec<u64> = (0..keys.len() as u64).collect();
        let (gk, gv) = reduce_by_key(&lib, &lib.upload(&keys), &lib.upload(&vals), |a, b| a + b).unwrap();
        prop_assert_eq!(gv.to_host().unwrap().iter().sum::<u64>(), vals.iter().sum::<u64>());
        // Output keys are the run-length-compressed input.
        let mut runs = keys.clone();
        runs.dedup();
        prop_assert_eq!(gk.to_host().unwrap(), runs);
    }

    #[test]
    fn gather_inverts_scatter_on_permutations(n in 1usize..200, seed in any::<u64>()) {
        let lib = Probe::new();
        let data: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(seed));
        let (src, map) = (lib.upload(&data), lib.upload(&perm));
        let mut scattered: Vector<u32> = Vector::zeroed(&lib, n).unwrap();
        scatter(&lib, &src, &map, &mut scattered).unwrap();
        prop_assert_eq!(gather(&lib, &map, &scattered).unwrap().to_host().unwrap(), data);
    }

    #[test]
    fn chained_calls_are_one_launch_each_and_time_grows_with_input(k in 1usize..10, small in 1usize..1000) {
        // No fusion in an eager library: k chained transforms are exactly
        // k launches — the contract the cost comparisons rely on.
        let time = |n: usize| {
            let lib = Probe::new();
            let mut cur = lib.upload(&vec![1.0f64; n]);
            for _ in 0..k {
                cur = transform(&lib, &cur, |x| x + 1.0).unwrap();
            }
            prop_assert_eq!(lib.launches_of("transform"), k as u64);
            lib.device.now()
        };
        prop_assert!(time(small * 17) >= time(small));
    }
}
