//! TPC-H date handling.
//!
//! Dates are stored device-side as `u32` day numbers relative to
//! 1992-01-01 (the earliest o_orderdate dbgen emits). The benchmark's
//! whole date domain spans 1992-01-01 … 1998-12-31.

/// First year of the TPC-H date domain.
pub const EPOCH_YEAR: i32 = 1992;

const DAYS_IN_MONTH: [u32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Days in `year`.
fn days_in_year(year: i32) -> u32 {
    if is_leap(year) {
        366
    } else {
        365
    }
}

/// Encode a calendar date as days since 1992-01-01.
///
/// # Panics
/// Panics on out-of-domain dates (year < 1992, bad month/day).
pub fn date(year: i32, month: u32, day: u32) -> u32 {
    assert!(year >= EPOCH_YEAR, "date before TPC-H epoch");
    assert!((1..=12).contains(&month), "bad month {month}");
    let mut days = 0u32;
    for y in EPOCH_YEAR..year {
        days += days_in_year(y);
    }
    for m in 1..month {
        days += DAYS_IN_MONTH[(m - 1) as usize];
        if m == 2 && is_leap(year) {
            days += 1;
        }
    }
    let month_len = DAYS_IN_MONTH[(month - 1) as usize] + u32::from(month == 2 && is_leap(year));
    assert!(
        (1..=month_len).contains(&day),
        "bad day {day} for {year}-{month}"
    );
    days + day - 1
}

/// Decode a day number back to `(year, month, day)`.
pub(crate) fn decode(mut days: u32) -> (i32, u32, u32) {
    let mut year = EPOCH_YEAR;
    while days >= days_in_year(year) {
        days -= days_in_year(year);
        year += 1;
    }
    let mut month = 1;
    loop {
        let len = DAYS_IN_MONTH[(month - 1) as usize] + u32::from(month == 2 && is_leap(year));
        if days < len {
            return (year, month as u32, days + 1);
        }
        days -= len;
        month += 1;
    }
}

/// Last orderdate dbgen generates (1998-08-02).
pub fn max_orderdate() -> u32 {
    date(1998, 8, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(date(1992, 1, 1), 0);
        assert_eq!(date(1992, 1, 2), 1);
        assert_eq!(date(1992, 2, 1), 31);
    }

    #[test]
    fn leap_years_count() {
        // 1992 and 1996 are leap years.
        assert_eq!(date(1993, 1, 1), 366);
        assert_eq!(date(1992, 3, 1), 31 + 29);
        assert_eq!(days_in_year(1996), 366);
        assert_eq!(days_in_year(1997), 365);
    }

    #[test]
    fn roundtrip_all_domain_days() {
        for d in 0..(7 * 366) {
            let (y, m, dd) = decode(d);
            assert_eq!(date(y, m, dd), d, "{y}-{m}-{dd}");
        }
    }

    #[test]
    fn known_benchmark_dates() {
        // Q6 window.
        assert!(date(1994, 1, 1) < date(1995, 1, 1));
        // Q1 cutoff: 1998-12-01 minus 90 days lands in Sept 1998.
        let cutoff = date(1998, 12, 1) - 90;
        let (y, m, _) = decode(cutoff);
        assert_eq!((y, m), (1998, 9));
        assert!(max_orderdate() < date(1998, 12, 31));
    }

    #[test]
    #[should_panic(expected = "bad day")]
    fn rejects_february_30th() {
        date(1993, 2, 30);
    }
}
