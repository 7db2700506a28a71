//! Run every experiment (E1–E21, A1–A4) — the full paper regeneration,
//! and the one runner that prints and writes the experiment table's rows.
//!
//! Cells are scheduled over the deterministic parallel grid
//! (`bench::grid`): `--jobs N` (`-j N`) picks the worker count,
//! defaulting to every available core; output is byte-identical at any
//! job count. Pass `--csv DIR` to also write one `<id>.csv` per
//! experiment. Any other argument, or a flag without a good value, is
//! one line on stderr and exit code 2 before anything runs. It writes
//! nothing but the `--csv` files.

use std::path::PathBuf;

/// What the command line asks for.
struct Args {
    jobs: Option<usize>,
    csv: Option<PathBuf>,
}

/// `[--jobs N | -j N] [--csv DIR]`; the message names what is wrong.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        jobs: None,
        csv: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let value = args.next().unwrap_or_default();
                match value.trim().parse::<usize>() {
                    Ok(jobs) if jobs > 0 => parsed.jobs = Some(jobs),
                    _ => {
                        return Err(format!(
                            "bad {arg} value `{value}` (expected a positive integer)"
                        ))
                    }
                }
            }
            "--csv" => match args.next() {
                Some(dir) if !dir.is_empty() => parsed.csv = Some(PathBuf::from(dir)),
                _ => return Err("--csv needs a directory".into()),
            },
            _ => {
                return Err(format!(
                    "unknown argument `{arg}` (usage: all_experiments [--jobs N] [--csv DIR])"
                ))
            }
        }
    }
    Ok(parsed)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let jobs = args
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let run = bench::grid::run(bench::grid::GridConfig::default(), jobs);
    print!("{}", run.stdout);
    if let Some(dir) = &args.csv {
        std::fs::create_dir_all(dir).expect("create csv dir");
        for (name, contents) in &run.artifacts {
            std::fs::write(dir.join(name), contents).expect("write csv");
        }
    }
}
