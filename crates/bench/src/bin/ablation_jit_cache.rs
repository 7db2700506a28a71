//! A3 — cold (first-call, JIT) vs. warm operator latency per backend.
fn main() {
    bench::experiments::emit_serial(&["A3"], &bench::paper_framework(), &Default::default());
}
