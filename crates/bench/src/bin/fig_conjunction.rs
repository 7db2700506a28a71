//! E9 — conjunctive & disjunctive selection vs. predicate count.
fn main() {
    bench::experiments::emit_serial(
        &["E9a", "E9b"],
        &bench::paper_framework(),
        &Default::default(),
    );
}
