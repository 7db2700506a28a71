//! E8 — join algorithms (per backend) on an FK→PK workload.
fn main() {
    bench::experiments::emit_serial(&["E8"], &bench::paper_framework(), &Default::default());
}
