//! Run every experiment (E1–E21, A1–A4) — the full paper regeneration,
//! and the one runner that prints and writes the experiment table's rows.
//!
//! Cells are scheduled over the deterministic parallel grid
//! (`bench::grid`): `--jobs N` (`-j N`) picks the worker count,
//! defaulting to every available core; output is byte-identical at any
//! job count. Pass `--csv DIR` to also write one `<id>.csv` per
//! experiment. Any other argument, a flag without a good value, or a
//! `--csv` directory that cannot be created is one line on stderr and exit
//! code 2 before anything runs; a CSV that cannot be written is one line
//! and exit code 1. It writes nothing but the `--csv` files.

fn main() {
    let args = bench::report::parse_args("all_experiments", &["--jobs", "--csv"]);
    let jobs = args
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let run = bench::grid::run(bench::grid::GridConfig::default(), jobs);
    print!("{}", run.stdout);
    if let Some(dir) = &args.csv {
        for (name, contents) in &run.artifacts {
            bench::report::write_artifact(dir, name, contents);
        }
    }
}
