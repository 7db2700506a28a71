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

/// Wall-clock timer for *host* execution cost, section by section.
///
/// Simulated nanoseconds (the paper's numbers) come from the device
/// clock and are deterministic; this timer measures what the experiments
/// cost to *run* on the host, which is the quantity the host-execution
/// engine optimises. [`HostTimer::write_json`] renders the sections as a
/// small JSON report (`BENCH_host.json` in CI) without needing a JSON
/// dependency.
#[derive(Debug, Default)]
pub struct HostTimer {
    sections: Vec<(String, u128)>,
    cells: Vec<(String, u128)>,
    scheduler: Option<SchedulerSummary>,
    started: Option<std::time::Instant>,
}

/// Pool accounting of a parallel grid run, rendered into the JSON report.
#[derive(Debug)]
pub struct SchedulerSummary {
    /// Worker count.
    pub jobs: usize,
    /// Summed per-cell wall time (serial-equivalent work).
    pub busy_ms: u128,
    /// Wall time of the scheduled portion.
    pub wall_ms: u128,
}

impl HostTimer {
    /// A timer with the total-clock running.
    pub fn new() -> Self {
        HostTimer {
            started: Some(std::time::Instant::now()),
            ..HostTimer::default()
        }
    }

    /// Record a measured section (the grid times its cells itself).
    pub fn record(&mut self, label: &str, ms: u128) {
        self.sections.push((label.to_string(), ms));
    }

    /// Attach per-cell wall times (finer than sections).
    pub fn set_cells(&mut self, cells: Vec<(String, u128)>) {
        self.cells = cells;
    }

    /// Attach the scheduler-efficiency summary.
    pub fn set_scheduler(&mut self, summary: SchedulerSummary) {
        self.scheduler = Some(summary);
    }

    /// Render the report as JSON: per-section milliseconds in run order,
    /// optional per-cell times and scheduler summary, plus the total
    /// since construction.
    pub fn to_json(&self) -> String {
        fn object(entries: &[(String, u128)]) -> String {
            let mut out = String::from("{\n");
            for (i, (label, ms)) in entries.iter().enumerate() {
                let comma = if i + 1 < entries.len() { "," } else { "" };
                out.push_str(&format!("    \"{label}\": {ms}{comma}\n"));
            }
            out.push_str("  }");
            out
        }
        let mut out = String::from("{\n  \"host_wall_ms\": ");
        out.push_str(&object(&self.sections));
        if !self.cells.is_empty() {
            out.push_str(",\n  \"cell_wall_ms\": ");
            out.push_str(&object(&self.cells));
        }
        if let Some(s) = &self.scheduler {
            let efficiency = if s.wall_ms > 0 && s.jobs > 0 {
                s.busy_ms as f64 / (s.wall_ms as f64 * s.jobs as f64)
            } else {
                0.0
            };
            out.push_str(&format!(
                ",\n  \"scheduler\": {{\n    \"jobs\": {},\n    \"busy_ms\": {},\n    \"wall_ms\": {},\n    \"efficiency\": {:.3}\n  }}",
                s.jobs, s.busy_ms, s.wall_ms, efficiency
            ));
        }
        let total = self
            .started
            .map(|t| t.elapsed().as_millis())
            .unwrap_or_else(|| self.sections.iter().map(|(_, ms)| ms).sum());
        out.push_str(&format!(",\n  \"total_ms\": {total}\n}}\n"));
        out
    }

    /// Write [`HostTimer::to_json`] to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
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
        write_csv(&exp, Some(&dir)).unwrap();
        let csv = std::fs::read_to_string(dir.join("T0.csv")).unwrap();
        assert!(csv.contains("1,A,10"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn host_timer_records_sections_and_renders_json() {
        let mut t = HostTimer::new();
        t.record("E3", 42);
        t.record("E5a", 7);
        let json = t.to_json();
        assert!(json.contains("\"E3\": 42,\n"));
        assert!(json.contains("\"E5a\": 7\n"));
        assert!(json.contains("\"total_ms\": "));
        // Exactly one trailing-comma-free last entry: parses as flat JSON.
        assert_eq!(json.matches("},").count() + json.matches("}\n").count(), 2);
    }
}
