//! Render the execution timeline of TPC-H Q6 per backend — the visual
//! version of ablation A1: where each library's simulated time actually
//! goes (kernels vs. JIT vs. allocations).

fn main() {
    bench::report::parse_args("fig_query_timeline", &[]);
    let db = tpch::generate(0.005);
    let fw = bench::paper_framework();
    for b in fw.backends() {
        let data = tpch::queries::q6::Q6Data::upload(b.as_ref(), &db).expect("upload");
        // Warm run so the timeline shows steady state (JIT caches, pools).
        data.execute(b.as_ref()).expect("warm-up");
        let dev = b.device();
        dev.set_tracing(true);
        data.execute(b.as_ref()).expect("execute");
        dev.set_tracing(false);
        let trace = dev.take_trace();
        println!("=== {} — Q6 steady state ===", b.name());
        println!("{}", gpu_sim::render_timeline(&trace));
        data.free(b.as_ref()).expect("free");
    }
}
