//! Run every experiment (E1–E19, A1–A4) — the full paper regeneration.
//!
//! Cells are scheduled over the deterministic parallel grid
//! (`bench::grid`): `--jobs N` (or `GPU_SIM_HOST_JOBS`) picks the worker
//! count, defaulting to every available core; output is byte-identical
//! at any job count. Pass `--csv DIR` to also write per-experiment CSVs.
//! Host wall time per experiment and per cell is collected into
//! `BENCH_host.json` together with a scheduler-efficiency summary
//! (simulated results are unaffected — this measures the runner itself).
fn main() {
    let csv = bench::report::csv_dir_from_args();
    let jobs = bench::sched::jobs_from_args();
    if let Err(e) = proto_core::optimizer::env_fusion_threshold() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let mut host = bench::report::HostTimer::new();

    let run = bench::grid::run(bench::grid::GridConfig::default(), jobs);
    print!("{}", run.stdout);
    if let Some(dir) = &csv {
        std::fs::create_dir_all(dir).expect("create csv dir");
        for (name, contents) in &run.artifacts {
            std::fs::write(dir.join(name), contents).expect("write csv");
        }
    }

    for (label, ms) in &run.sections {
        host.record(label, *ms);
    }
    host.set_cells(run.cells);
    host.set_scheduler(bench::report::SchedulerSummary {
        jobs: run.jobs,
        busy_ms: run.busy_ms,
        wall_ms: run.wall_ms,
    });
    host.write_json(std::path::Path::new("BENCH_host.json"))
        .expect("write BENCH_host.json");
}
