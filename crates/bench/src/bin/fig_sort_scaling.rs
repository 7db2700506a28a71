//! E5 — sort and sort-by-key runtime vs. rows.
fn main() {
    bench::experiments::emit_serial(
        &["E5a", "E5b"],
        &bench::paper_framework(),
        &Default::default(),
    );
}
