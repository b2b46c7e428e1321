//! Proleptic-Gregorian day calendar for the chronon axis.
//!
//! The paper's figures use dates like `12/01/82`; ChronosDB fixes the
//! interpretation of one chronon tick as **one civil day**, with tick 0 =
//! 1970-01-01 (the Unix epoch day).  Conversions use the classic
//! days-from-civil / civil-from-days algorithms and are exact over the
//! full proleptic-Gregorian range supported by [`Date`].
//!
//! Two textual forms are accepted:
//!
//! * the paper's `mm/dd/yy` (two-digit years are pivoted into 19yy, since
//!   every date in the paper is from the 1970s and 80s) and `mm/dd/yyyy`;
//! * ISO `yyyy-mm-dd`.
//!
//! [`Date`] displays as `mm/dd/yy` so rendered tables match the paper
//! byte for byte.

use std::fmt;
use std::str::FromStr;

use crate::chronon::Chronon;
use crate::error::{CoreError, CoreResult};

/// A civil (year, month, day) date on the proleptic-Gregorian calendar.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

impl Date {
    /// Creates a date, validating month and day-of-month.
    pub fn new(year: i32, month: u8, day: u8) -> CoreResult<Date> {
        if !(1..=12).contains(&month) {
            return Err(CoreError::InvalidDate(format!(
                "month {month} out of range 1..=12"
            )));
        }
        let dim = days_in_month(year, month);
        if day == 0 || day > dim {
            return Err(CoreError::InvalidDate(format!(
                "day {day} out of range 1..={dim} for {year:04}-{month:02}"
            )));
        }
        Ok(Date { year, month, day })
    }

    /// The year (may be negative for BCE on the proleptic calendar).
    pub const fn year(self) -> i32 {
        self.year
    }

    /// The month, 1–12.
    pub const fn month(self) -> u8 {
        self.month
    }

    /// The day of month, 1–31.
    pub const fn day(self) -> u8 {
        self.day
    }

    /// Converts to the chronon of this day (days since 1970-01-01).
    pub fn to_chronon(self) -> Chronon {
        Chronon::new(days_from_civil(self.year, self.month, self.day))
    }

    /// Converts a chronon back to a civil date.
    pub fn from_chronon(c: Chronon) -> Date {
        let (year, month, day) = civil_from_days(c.ticks());
        Date { year, month, day }
    }

    /// Day of week, 0 = Sunday … 6 = Saturday.
    pub fn weekday(self) -> u8 {
        // 1970-01-01 was a Thursday (4).
        let z = self.to_chronon().ticks();
        ((z.rem_euclid(7) + 4) % 7) as u8
    }
}

impl FromStr for Date {
    type Err = CoreError;

    fn from_str(s: &str) -> CoreResult<Date> {
        let bad = || CoreError::InvalidDate(format!("unparsable date {s:?}"));
        if s.contains('/') {
            // mm/dd/yy or mm/dd/yyyy — the paper's format.
            let mut it = s.split('/');
            let (m, d, y) = match (it.next(), it.next(), it.next(), it.next()) {
                (Some(m), Some(d), Some(y), None) => (m, d, y),
                _ => return Err(bad()),
            };
            let month: u8 = m.parse().map_err(|_| bad())?;
            let day: u8 = d.parse().map_err(|_| bad())?;
            let year: i32 = match y.len() {
                2 => 1900 + y.parse::<i32>().map_err(|_| bad())?,
                4 => y.parse().map_err(|_| bad())?,
                _ => return Err(bad()),
            };
            Date::new(year, month, day)
        } else if s.contains('-') && !s.starts_with('-') {
            // ISO yyyy-mm-dd.
            let mut it = s.split('-');
            let (y, m, d) = match (it.next(), it.next(), it.next(), it.next()) {
                (Some(y), Some(m), Some(d), None) => (y, m, d),
                _ => return Err(bad()),
            };
            Date::new(
                y.parse().map_err(|_| bad())?,
                m.parse().map_err(|_| bad())?,
                d.parse().map_err(|_| bad())?,
            )
        } else {
            Err(bad())
        }
    }
}

impl Date {
    /// The text [`Display`](fmt::Display) pads: `mm/dd/yy` for
    /// 20th-century dates (as printed in the paper), `mm/dd/yyyy`
    /// otherwise — the year zero-padded to four places, a sign
    /// included, as `{:04}` pads it.
    pub fn text(self) -> DateText {
        let mut text = DateText {
            buf: [0; DateText::CAP],
            len: 0,
        };
        text.push_digits(u32::from(self.month), 2);
        text.push(b'/');
        text.push_digits(u32::from(self.day), 2);
        text.push(b'/');
        if (1900..2000).contains(&self.year) {
            text.push_digits((self.year - 1900) as u32, 2);
        } else if self.year < 0 {
            text.push(b'-');
            text.push_digits(self.year.unsigned_abs(), 3);
        } else {
            text.push_digits(self.year as u32, 4);
        }
        text
    }
}

/// A date's display text, held on the stack (see [`Date::text`]).
#[derive(Clone, Copy, Debug)]
pub struct DateText {
    buf: [u8; DateText::CAP],
    len: usize,
}

impl DateText {
    /// `mm/dd/`, a sign and the ten digits of any `i32` year.
    const CAP: usize = 17;

    /// The text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("ASCII digits")
    }

    fn push(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    /// Appends `v` in decimal, zero-padded to at least `min` digits.
    fn push_digits(&mut self, mut v: u32, min: usize) {
        let mut digits = [b'0'; 10];
        let mut n = 0;
        loop {
            digits[n] = b'0' + (v % 10) as u8;
            v /= 10;
            n += 1;
            if v == 0 {
                break;
            }
        }
        for _ in n..min {
            self.push(b'0');
        }
        for &d in digits[..n].iter().rev() {
            self.push(d);
        }
    }
}

impl fmt::Display for Date {
    /// Pads [`Date::text`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.text().as_str())
    }
}

/// Parses a date in either accepted format and returns its chronon.
///
/// This is the idiomatic way to write down paper dates:
///
/// ```
/// use chronos_core::calendar::date;
/// let promoted = date("12/01/82").unwrap();
/// assert_eq!(date("1982-12-01").unwrap(), promoted);
/// ```
pub fn date(s: &str) -> CoreResult<Chronon> {
    s.parse::<Date>().map(Date::to_chronon)
}

/// True iff `year` is a Gregorian leap year.
pub fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Number of days in the given month.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap_year(year) => 29,
        2 => 28,
        _ => 0,
    }
}

/// Days since 1970-01-01 from a civil date (Hinnant's `days_from_civil`).
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m as i32 + 9) % 12); // [0, 11], Mar = 0
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since 1970-01-01 (Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::new(1970, 1, 1).unwrap().to_chronon(), Chronon::ZERO);
        assert_eq!(
            Date::from_chronon(Chronon::ZERO),
            Date::new(1970, 1, 1).unwrap()
        );
    }

    #[test]
    fn paper_dates_parse_and_print() {
        for s in [
            "08/25/77", "12/15/82", "12/07/82", "01/10/83", "02/25/84", "09/01/77", "12/01/82",
            "12/05/82", "01/01/83", "03/01/84", "12/10/82", "12/11/82", "12/20/82",
        ] {
            let c = date(s).unwrap();
            assert_eq!(Date::from_chronon(c).to_string(), s, "round trip of {s}");
        }
    }

    #[test]
    fn iso_and_paper_formats_agree() {
        assert_eq!(date("12/01/82").unwrap(), date("1982-12-01").unwrap());
        assert_eq!(date("12/01/1982").unwrap(), date("1982-12-01").unwrap());
    }

    #[test]
    fn ordering_matches_chronology() {
        assert!(date("08/25/77").unwrap() < date("12/15/82").unwrap());
        assert!(date("12/07/82").unwrap() < date("12/10/82").unwrap());
        assert!(date("12/10/82").unwrap() < date("12/15/82").unwrap());
    }

    #[test]
    fn rejects_nonsense() {
        assert!(date("13/01/82").is_err());
        assert!(date("02/30/83").is_err());
        assert!(date("02/29/83").is_err()); // 1983 not a leap year
        assert!(date("02/29/84").is_ok()); // 1984 is
        assert!(date("snodgrass").is_err());
        assert!(date("12/01").is_err());
        assert!(date("1982-13-01").is_err());
        assert!(date("00/10/82").is_err());
        assert!(date("01/00/82").is_err());
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(1984));
        assert!(!is_leap_year(1985));
    }

    #[test]
    fn weekday_known_values() {
        // 1970-01-01 was a Thursday.
        assert_eq!(Date::new(1970, 1, 1).unwrap().weekday(), 4);
        // 1985-05-28, first day of SIGMOD '85 week, was a Tuesday.
        assert_eq!(Date::new(1985, 5, 28).unwrap().weekday(), 2);
    }

    #[test]
    fn round_trip_dense_range() {
        // Every day across several leap boundaries round-trips.
        let start = Date::new(1979, 12, 20).unwrap().to_chronon().ticks();
        let end = Date::new(1985, 3, 10).unwrap().to_chronon().ticks();
        for t in start..=end {
            let d = Date::from_chronon(Chronon::new(t));
            assert_eq!(d.to_chronon().ticks(), t, "{d}");
        }
    }

    #[test]
    fn display_past_2000_uses_four_digits() {
        let d = Date::new(2026, 7, 5).unwrap();
        assert_eq!(d.to_string(), "07/05/2026");
    }

    #[test]
    fn display_agrees_with_the_general_formatter_and_pads() {
        for year in [
            -12_345, -1, 0, 7, 999, 1899, 1900, 1977, 1999, 2000, 9999, 10_000,
        ] {
            let d = Date::new(year, 2, 9).unwrap();
            let want = if (1900..2000).contains(&year) {
                format!("02/09/{:02}", year - 1900)
            } else {
                format!("02/09/{year:04}")
            };
            assert_eq!(d.to_string(), want);
            assert_eq!(
                format!("{d:>12}|{d:<12}|{d:^12}"),
                format!("{want:>12}|{want:<12}|{want:^12}")
            );
        }
    }
}
