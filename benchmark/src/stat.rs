//! Small statistics and `/proc` helpers shared by every workload.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice so an absent measurement prints as 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile levels a tail latency may be reported at, ascending, in
/// per mille (so "ten samples beyond it" is exact integer arithmetic).
const TAIL_LEVELS_PERMILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest level of p50/p90/p95/p99/p99.9 that still has at least ten
/// of `n` samples beyond it; the median when even p90 has fewer.
pub fn tail_level(n: usize) -> f64 {
    let permille = TAIL_LEVELS_PERMILLE
        .iter()
        .copied()
        .rev()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .unwrap_or(TAIL_LEVELS_PERMILLE[0]);
    permille as f64 / 10.0
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux has fixed
/// `USER_HZ` at 100 on every architecture this repository builds for;
/// `std` offers no `sysconf`.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may itself contain
/// spaces or parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// CPU seconds this process (all threads, living or joined) has used.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_seconds(&s))
        .unwrap_or(0.0)
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond_it() {
        // 1000 samples leave exactly ten beyond p99; 999 do not.
        assert_eq!(tail_level(1000), 99.0);
        assert_eq!(tail_level(999), 95.0);
        assert_eq!(tail_level(200), 95.0);
        assert_eq!(tail_level(199), 90.0);
        assert_eq!(tail_level(100), 90.0);
        assert_eq!(tail_level(99), 50.0);
        assert_eq!(tail_level(1), 50.0);
        assert_eq!(tail_level(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn fnv_digest_is_stable() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn stat_cpu_parse_survives_odd_command_names() {
        let line = "1234 (har) ness (x)) S 1 1234 1234 0 -1 4194304 500 0 0 0 \
                    250 50 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(line), Some(3.0));
        assert_eq!(parse_stat_cpu_seconds("garbage"), None);
        assert!(cpu_seconds() >= 0.0);
    }
}
