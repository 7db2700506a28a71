//! Command-line and output plumbing for the experiment binaries.

use proto_core::runner::Experiment;
use std::path::{Path, PathBuf};

/// What an experiment binary's command line asks for.
#[derive(Debug)]
pub struct Args {
    /// `--jobs N` (`-j N`): how many grid workers to run.
    pub jobs: Option<usize>,
    /// `--csv DIR`: where to write one `<id>.csv` per experiment.
    pub csv: Option<PathBuf>,
}

/// Report a bad command line on one stderr line and exit with code 2.
fn reject(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Report a failure after the run (an artifact that cannot be written) on
/// one stderr line and exit with code 1.
fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Parse `bin`'s command line, which takes the flags in `takes` —
/// `"--jobs"` (also spelled `-j`) and `"--csv"` — and nothing else. Any
/// other argument, a flag without a good value, or a `--csv` directory
/// that cannot be created is one line on stderr and exit code 2 before
/// anything runs.
pub fn parse_args(bin: &str, takes: &[&str]) -> Args {
    let mut parsed = Args {
        jobs: None,
        csv: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = if arg == "-j" { "--jobs" } else { arg.as_str() };
        match flag {
            "--jobs" if takes.contains(&flag) => {
                let value = args.next().unwrap_or_default();
                match value.trim().parse::<usize>() {
                    Ok(jobs) if jobs > 0 => parsed.jobs = Some(jobs),
                    _ => reject(format!(
                        "bad {arg} value `{value}` (expected a positive integer)"
                    )),
                }
            }
            "--csv" if takes.contains(&flag) => match args.next() {
                Some(dir) if !dir.is_empty() && !dir.starts_with('-') => {
                    parsed.csv = Some(PathBuf::from(dir))
                }
                _ => reject("--csv needs a directory".into()),
            },
            _ => {
                let usage: String = takes
                    .iter()
                    .map(|&f| {
                        if f == "--jobs" {
                            " [--jobs N]"
                        } else {
                            " [--csv DIR]"
                        }
                    })
                    .collect();
                reject(format!("unknown argument `{arg}` (usage: {bin}{usage})"))
            }
        }
    }
    if let Some(dir) = &parsed.csv {
        if let Err(e) = std::fs::create_dir_all(dir) {
            reject(format!(
                "cannot create --csv directory `{}`: {e}",
                dir.display()
            ));
        }
    }
    parsed
}

/// Write `contents` to `dir/name`. A failure is one line on stderr and
/// exit code 1.
pub fn write_artifact(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, contents) {
        fail(format!("cannot write `{}`: {e}", path.display()));
    }
}

/// Write `<id>.csv` into `csv_dir` when it is set ([`write_artifact`]).
pub fn write_csv(exp: &Experiment, csv_dir: Option<&Path>) {
    if let Some(dir) = csv_dir {
        write_artifact(dir, &format!("{}.csv", exp.id), &exp.to_csv());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proto_core::runner::Sample;

    #[test]
    fn write_csv_writes_the_id_csv() {
        let mut exp = Experiment::new("T0", "test", "x");
        exp.push(Sample {
            backend: "A".into(),
            x: 1,
            nanos: 10,
            cold_nanos: 10,
            launches: 1,
            kernel_bytes: 2,
        });
        let dir = std::env::temp_dir().join("bench_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        write_csv(&exp, Some(&dir));
        let csv = std::fs::read_to_string(dir.join("T0.csv")).unwrap();
        assert!(csv.contains("1,A,10"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
