//! Output plumbing for the experiment binaries.

use proto_core::runner::Experiment;
use std::path::Path;

/// Write `<id>.csv` into `csv_dir` (created on demand) when it is set.
pub fn write_csv(exp: &Experiment, csv_dir: Option<&Path>) -> std::io::Result<()> {
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", exp.id)), exp.to_csv())?;
    }
    Ok(())
}

/// Parse the common `--csv DIR` flag from binary arguments.
pub fn csv_dir_from_args() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
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
        write_csv(&exp, Some(&dir)).unwrap();
        let csv = std::fs::read_to_string(dir.join("T0.csv")).unwrap();
        assert!(csv.contains("1,A,10"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
