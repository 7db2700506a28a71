//! `harness` — the two-clock, layer-attributed benchmark of gpu-proto-db.
//!
//! With `--workload W` it runs that workload in this process and ends its
//! standard output with one JSON line (the contract `BENCHMARK.json`
//! describes). Without, it runs every workload, each in a process of its
//! own — so `hostalloc` free lists, JIT caches and `workload::cache` never
//! leak from one workload into the next — and prints every metric by name.
//! See `README.md`; normally started through `run.sh`.

mod json;
mod probes;
mod registry;
mod run;
mod span;
mod stat;
mod suite;
mod tpch_bind;
mod tracing_backend;
mod workload;

use std::path::PathBuf;

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
              [--bless] [--check-repeat] [--list]
  --workload W     run one workload in this process (default: all, one process each)
  --seed N         data seed (default 1, the seed the sim goldens are pinned to)
  --seconds S      measuring time the fixed schedule is sized for: the number of passes
                   scales with it (default: BENCHMARK.json's run_seconds)
  --trace [0|1]    record spans and print per-layer metrics instead of end-to-end
                   (without --workload: print both)
  --bless          rewrite expected/<workload>.sim.json from this run
  --check-repeat   run everything twice and compare against the bounds
  --list           print workload and metric names with units, run nothing";

#[derive(Debug, Clone)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bless: bool,
    pub check_repeat: bool,
    pub dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        workload: None,
        seed: registry::DEFAULT_SEED,
        seconds: registry::RUN_SECONDS as f64,
        trace: false,
        bless: false,
        check_repeat: false,
        dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--dir" => cli.dir = PathBuf::from(value("a path")?),
            // `--trace 0|1` as the driver passes it; bare `--trace` means 1.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--bless" => cli.bless = true,
            "--check-repeat" => cli.check_repeat = true,
            "--list" => {
                print_list();
                return Ok(None);
            }
            "--emit-benchmark-json" => {
                print!("{}", registry::benchmark_json().render_pretty());
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds >= 0.0) {
        return Err("--seconds must be >= 0".into());
    }
    Ok(Some(cli))
}

fn print_list() {
    println!("workloads:");
    for w in &registry::WORKLOADS {
        println!(
            "  {:<16} {} [{} passes per {} s, 2 x {} set-ups]",
            w.name,
            w.why,
            w.passes,
            registry::RUN_SECONDS,
            w.setup_repeats
        );
    }
    println!("end-to-end metrics (--trace 0):");
    for m in registry::end_to_end() {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!("bound {:.0}%", b * 100.0));
        println!(
            "  {:<44} {:<7} {:<6} better  {bound:<10} {}",
            m.name, m.unit, m.better, m.about
        );
    }
    println!("per-layer metrics (--trace 1), and the end-to-end metric each should move:");
    for m in registry::per_layer() {
        println!(
            "  {:<44} {:<7} {:<6} better  {}\n  {:<44} -> {}",
            m.name,
            m.unit,
            m.better,
            m.about,
            "",
            registry::moves(&m.name)
        );
    }
}

/// Header of a run: what a reader needs to compare two outputs.
pub fn print_header(cli: &Cli) {
    println!(
        "# harness: seed {} | seconds {} | host_threads {} | available_parallelism {} | grid jobs {}",
        cli.seed,
        cli.seconds,
        gpu_sim::hostexec::host_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workload::grid_full::jobs(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => return,
        Err(e) => {
            eprintln!("harness: {e}");
            std::process::exit(2);
        }
    };
    let ok = match &cli.workload {
        Some(name) => {
            print_header(&cli);
            match run::run(&cli, name) {
                Ok(result) => {
                    for note in &result.notes {
                        println!("# {note}");
                    }
                    for (name, value, unit) in &result.metrics {
                        println!("{name:<44} {value:>18.6} {unit}");
                    }
                    println!("{}", result.to_json().render());
                    result.correct
                }
                Err(e) => {
                    eprintln!("harness: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => suite::run(&cli),
    };
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn trace_takes_an_optional_zero_or_one() {
        let cli = parse_args(&args(&[
            "--workload",
            "ops_scan",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            "0",
        ]))
        .unwrap()
        .unwrap();
        assert!(!cli.trace && cli.seed == 7 && cli.seconds == 2.0);
        let cli = parse_args(&args(&["--trace", "1", "--bless"]))
            .unwrap()
            .unwrap();
        assert!(cli.trace && cli.bless && cli.workload.is_none());
        let cli = parse_args(&args(&["--trace", "--check-repeat"]))
            .unwrap()
            .unwrap();
        assert!(cli.trace && cli.check_repeat);
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
        assert!(parse_args(&args(&["--seed"])).is_err());
    }

    /// The line a run ends with parses and carries exactly the declared
    /// names — `BENCHMARK.json`'s, since a registry test pins the file.
    #[test]
    fn emitted_json_parses_and_names_every_declared_metric() {
        for (defs, trace) in [
            (registry::end_to_end(), false),
            (registry::per_layer(), true),
        ] {
            let result = run::RunResult {
                correct: true,
                attempted: 10,
                failed: 0,
                metrics: defs
                    .iter()
                    .map(|d| (d.name.clone(), 1.25, d.unit))
                    .collect(),
                notes: vec![],
            };
            let line = result.to_json().render();
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).expect("result line parses");
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(metrics.len(), defs.len(), "trace {trace}");
            for d in &defs {
                let m = doc
                    .get("metrics")
                    .unwrap()
                    .get(&d.name)
                    .expect("declared metric present");
                assert_eq!(m.get("unit").and_then(json::Value::as_str), Some(d.unit));
                assert_eq!(m.get("value").and_then(json::Value::as_f64), Some(1.25));
            }
        }
    }
}
