//! Host ns per generated row of every `core::workload` generator at 2^20
//! rows, then of `zipf_keys` (θ = 0.5) from 16 to 2^20 groups — the
//! instrument for the data-generation layer. Each cell is the lower quartile
//! of its reps; nothing here is simulated, and every generator returns the
//! same values whatever it costs.
//!
//! ```sh
//! cargo run --release --example gen_sweep [-- <reps>]
//! ```

use gpu_proto_db::core::workload::{self, SEED};
use std::hint::black_box;
use std::time::Instant;

const N: usize = 1 << 20;

/// ns per row of `N` of `gen`, lower quartile of `reps`.
fn time<T>(reps: usize, gen: impl Fn() -> T) -> f64 {
    let mut runs: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(gen());
            start.elapsed().as_secs_f64() * 1e9 / N as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[reps / 4]
}

fn main() {
    let reps = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .map_or(9, |r: usize| r.max(1));
    let rows = [
        (
            "uniform_u32",
            time(reps, || workload::uniform_u32(N, 1 << 20, SEED)),
        ),
        ("uniform_f64", time(reps, || workload::uniform_f64(N, SEED))),
        (
            "zipf_keys/4096",
            time(reps, || workload::zipf_keys(N, 4096, 0.5, SEED)),
        ),
        ("fk_join", time(reps, || workload::fk_join(N, N, SEED))),
        (
            "selectivity_column",
            time(reps, || workload::selectivity_column(N, 0.5, SEED)),
        ),
        (
            "sorted_keys",
            time(reps, || workload::sorted_keys(N, u32::MAX, SEED)),
        ),
        (
            "shuffled_indices",
            time(reps, || workload::shuffled_indices(N)),
        ),
    ];
    println!("{:<20}{:>10}", "generator", "ns/row");
    for (name, ns) in rows {
        println!("{name:<20}{ns:>10.2}");
    }
    // `table` is the weight-table build alone (no draws), spread over N.
    println!(
        "\n{:<20}{:>10}{:>10}",
        "zipf_keys groups", "ns/draw", "table"
    );
    for lg in (4..=20).step_by(2) {
        let ns = time(reps, || workload::zipf_keys(N, 1 << lg, 0.5, SEED));
        let table = time(reps, || workload::zipf_keys(0, 1 << lg, 0.5, SEED));
        println!("{:<20}{ns:>10.2}{table:>10.2}", 1usize << lg);
    }
}
