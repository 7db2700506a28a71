//! A2 — ArrayFire lazy fusion vs. Thrust eager chaining.
fn main() {
    bench::experiments::emit_serial(&["A2"], &bench::paper_framework(), &Default::default());
}
