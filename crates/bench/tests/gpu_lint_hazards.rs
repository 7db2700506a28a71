//! Hazard-injection property tests for `gpu-lint`.
//!
//! Each test starts from a *real* captured experiment trace, verifies it
//! is clean, then uses a seeded mutator to inject one hazard of a known
//! class and asserts the analyzer flags exactly that rule, anchored on
//! the injected events. Running every class across several seeds moves the
//! injection site around the artifact, so the detectors are exercised at
//! arbitrary positions, not one hand-picked spot.
//!
//! The no-false-positive half of the contract, zero diagnostics on every
//! experiment trace and TPC-H plan target (modulo the documented waiver
//! table), is the gating `gpu_lint --deny-warnings` run.

use gpu_lint::Rule;
use gpu_sim::{BufferId, KernelIo, TraceEvent, TraceKind};

const SEEDS: [u64; 6] = [1, 2, 3, 5, 8, 13];

/// Deterministic xorshift64* — the mutator's only entropy source.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "picking from an empty candidate set");
        (self.next() % n as u64) as usize
    }
}

/// A real, clean trace to mutate: E3's handwritten cell.
fn golden_trace() -> Vec<TraceEvent> {
    let mut cfg = bench::traced::lint_config();
    cfg.sizes = vec![1 << 10];
    let cells = bench::traced::traced_experiment(&cfg, "E3");
    let cell = cells
        .into_iter()
        .find(|c| c.label == "E3/Handwritten")
        .expect("E3 runs on the handwritten backend");
    assert!(
        gpu_lint::lint_trace(&cell.label, &cell.trace).is_clean(),
        "baseline trace must be clean before mutation"
    );
    cell.trace
}

fn ev(kind: TraceKind) -> TraceEvent {
    TraceEvent::new(0, 0, kind)
}

fn known_kernel(reads: &[BufferId], writes: &[BufferId]) -> TraceKind {
    TraceKind::Kernel {
        name: "injected".into(),
        io: KernelIo::known(reads, writes),
        bytes_read: 0,
        bytes_written: 0,
    }
}

/// A buffer id the trace has never seen (ids are never reused).
fn fresh_buffer(trace: &[TraceEvent], offset: u64) -> BufferId {
    let max = trace
        .iter()
        .flat_map(|e| match &e.kind {
            TraceKind::Alloc { buf, .. }
            | TraceKind::PoolAlloc { buf, .. }
            | TraceKind::Free { buf }
            | TraceKind::HtoD { buf, .. }
            | TraceKind::DtoH { buf, .. } => vec![buf.0],
            TraceKind::DtoD { src, dst, .. } => vec![src.0, dst.0],
            TraceKind::Kernel { io, .. } => match io {
                KernelIo::Known { reads, writes } => {
                    reads.iter().chain(writes).map(|b| b.0).collect()
                }
                KernelIo::Unknown => vec![],
            },
            _ => vec![],
        })
        .max()
        .unwrap_or(0);
    BufferId(max + 1 + offset)
}

/// Indices of `Free` events, with the freed buffer.
fn free_sites(trace: &[TraceEvent]) -> Vec<(usize, BufferId)> {
    trace
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e.kind {
            TraceKind::Free { buf } => Some((i, buf)),
            _ => None,
        })
        .collect()
}

/// Assert `trace` produces a diagnostic of `rule` anchored on `events`.
fn assert_flags(trace: &[TraceEvent], rule: Rule, events: &[usize]) {
    let report = gpu_lint::lint_trace("mutated", trace);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == rule && d.events == events),
        "expected {} at {events:?}, got: {:?}",
        rule.id(),
        report.diagnostics
    );
}

#[test]
fn injected_use_after_free_is_flagged() {
    let base = golden_trace();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut t = base.clone();
        let sites = free_sites(&t);
        let (f, buf) = sites[rng.pick(sites.len())];
        t.insert(f + 1, ev(known_kernel(&[buf], &[])));
        assert_flags(&t, Rule::UseAfterFree, &[f, f + 1]);
    }
}

#[test]
fn injected_double_free_is_flagged() {
    let base = golden_trace();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut t = base.clone();
        let sites = free_sites(&t);
        let (f, buf) = sites[rng.pick(sites.len())];
        // Anywhere strictly after the first free works: ids are unique.
        let g = f + 1 + rng.pick(t.len() - f);
        t.insert(g, ev(TraceKind::Free { buf }));
        assert_flags(&t, Rule::DoubleFree, &[f, g]);
    }
}

#[test]
fn injected_dead_transfers_are_flagged() {
    let base = golden_trace();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);

        // Dead D2H: download a buffer nothing ever wrote.
        let mut t = base.clone();
        let buf = fresh_buffer(&t, seed);
        let pos = rng.pick(t.len());
        t.insert(
            pos,
            ev(TraceKind::Alloc {
                bytes: 64,
                buf,
                init: false,
            }),
        );
        t.insert(pos + 1, ev(TraceKind::DtoH { bytes: 64, buf }));
        t.insert(pos + 2, ev(TraceKind::Free { buf }));
        assert_flags(&t, Rule::DeadDeviceToHost, &[pos + 1]);

        // Dead H2D: upload a buffer no kernel or download ever reads,
        // with compute (an empty-footprint kernel) in its live window.
        let mut t = base.clone();
        let buf = fresh_buffer(&t, seed);
        let pos = rng.pick(t.len());
        t.insert(
            pos,
            ev(TraceKind::Alloc {
                bytes: 64,
                buf,
                init: true,
            }),
        );
        t.insert(pos + 1, ev(TraceKind::HtoD { bytes: 64, buf }));
        t.insert(pos + 2, ev(known_kernel(&[], &[])));
        t.insert(pos + 3, ev(TraceKind::Free { buf }));
        assert_flags(&t, Rule::DeadHostToDevice, &[pos + 1]);
    }
}

#[test]
fn injected_read_before_write_is_flagged() {
    let base = golden_trace();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut t = base.clone();
        let buf = fresh_buffer(&t, seed);
        let pos = rng.pick(t.len());
        t.insert(
            pos,
            ev(TraceKind::Alloc {
                bytes: 64,
                buf,
                init: false,
            }),
        );
        t.insert(pos + 1, ev(known_kernel(&[buf], &[])));
        t.insert(pos + 2, ev(TraceKind::Free { buf }));
        assert_flags(&t, Rule::ReadBeforeWrite, &[pos + 1]);
    }
}

#[test]
fn injected_leak_and_unknown_free_are_flagged() {
    let base = golden_trace();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);

        // Leak: an allocation that is never freed.
        let mut t = base.clone();
        let buf = fresh_buffer(&t, seed);
        let pos = rng.pick(t.len() + 1);
        t.insert(
            pos,
            ev(TraceKind::Alloc {
                bytes: 64,
                buf,
                init: true,
            }),
        );
        assert_flags(&t, Rule::LeakedBuffer, &[pos]);

        // Free of a buffer the trace never allocated.
        let mut t = base.clone();
        let buf = fresh_buffer(&t, seed);
        let pos = rng.pick(t.len() + 1);
        t.insert(pos, ev(TraceKind::Free { buf }));
        assert_flags(&t, Rule::UnknownFree, &[pos]);
    }
}
