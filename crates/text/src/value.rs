//! Typed interpretation of infobox value atoms.
//!
//! Infobox values for the same fact are written very differently across
//! language editions: the English article for *The Last Emperor* reports a
//! running time of `160 minutes` while the Portuguese one says
//! `165 minutos`; birth dates appear as `December 18, 1950` in English and
//! `18 de Dezembro de 1950` in Portuguese. The `vsim` measure of the paper
//! compares raw value vectors, so recognising dates and numbers and mapping
//! them to a canonical token dramatically reduces spurious mismatches that
//! are purely due to formatting.
//!
//! [`parse_value`] classifies an atom as a [`CanonicalValue::Date`],
//! [`CanonicalValue::Number`] or [`CanonicalValue::Text`] and
//! [`CanonicalValue::canonical_token`] renders it as a stable token.

use crate::normalize::normalize;

/// The result of interpreting a single value atom.
#[derive(Debug, Clone, PartialEq)]
pub enum CanonicalValue {
    /// A calendar date (year, optional month, optional day).
    Date {
        /// Four digit year.
        year: i32,
        /// Month 1..=12 when present.
        month: Option<u32>,
        /// Day of month when present.
        day: Option<u32>,
    },
    /// A plain number, possibly scaled by a magnitude word
    /// ("10 million" → 10_000_000).
    Number(f64),
    /// Anything else, stored in normalised form.
    Text(String),
}

impl CanonicalValue {
    /// Renders the canonical token used inside term vectors.
    ///
    /// Dates become `date:YYYY[-MM[-DD]]`, numbers `num:<value>` (with up to
    /// two decimals, trailing zeros trimmed), text stays as its normalised
    /// form.
    pub fn canonical_token(&self) -> String {
        match self {
            CanonicalValue::Date { year, month, day } => match (month, day) {
                (Some(m), Some(d)) => format!("date:{year:04}-{m:02}-{d:02}"),
                (Some(m), None) => format!("date:{year:04}-{m:02}"),
                _ => format!("date:{year:04}"),
            },
            CanonicalValue::Number(n) => {
                if (n.fract()).abs() < 1e-9 {
                    format!("num:{}", *n as i64)
                } else {
                    format!("num:{n:.2}")
                }
            }
            CanonicalValue::Text(t) => t.clone(),
        }
    }

    /// Returns true when the value carries date semantics.
    pub fn is_date(&self) -> bool {
        matches!(self, CanonicalValue::Date { .. })
    }

    /// Returns true when the value carries numeric semantics.
    pub fn is_number(&self) -> bool {
        matches!(self, CanonicalValue::Number(_))
    }

    /// Extracts the numeric magnitude if this is a number or a bare year.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            CanonicalValue::Number(n) => Some(*n),
            CanonicalValue::Date {
                year,
                month: None,
                day: None,
            } => Some(*year as f64),
            _ => None,
        }
    }
}

/// Month names for the three corpus languages (normalised, diacritics folded).
const MONTHS: &[(&str, u32)] = &[
    // English.
    ("january", 1),
    ("february", 2),
    ("march", 3),
    ("april", 4),
    ("may", 5),
    ("june", 6),
    ("july", 7),
    ("august", 8),
    ("september", 9),
    ("october", 10),
    ("november", 11),
    ("december", 12),
    // Portuguese.
    ("janeiro", 1),
    ("fevereiro", 2),
    ("marco", 3),
    ("abril", 4),
    ("maio", 5),
    ("junho", 6),
    ("julho", 7),
    ("agosto", 8),
    ("setembro", 9),
    ("outubro", 10),
    ("novembro", 11),
    ("dezembro", 12),
    // Vietnamese month references are written as "tháng N" and handled
    // numerically below.
];

/// Magnitude words that scale a number ("10 million", "10 bilhões", "tỷ").
const MAGNITUDES: &[(&str, f64)] = &[
    ("thousand", 1.0e3),
    ("mil", 1.0e3),
    ("nghin", 1.0e3),
    ("million", 1.0e6),
    ("milhao", 1.0e6),
    ("milhoes", 1.0e6),
    ("trieu", 1.0e6),
    ("billion", 1.0e9),
    ("bilhao", 1.0e9),
    ("bilhoes", 1.0e9),
    ("ty", 1.0e9),
];

/// Units that commonly trail a numeric value and should be dropped.
const UNITS: &[&str] = &[
    "minutes", "minutos", "phut", "min", "usd", "us", "dollars", "dolares", "reais", "dong",
];

fn lookup_month(token: &str) -> Option<u32> {
    MONTHS
        .iter()
        .find(|(name, _)| *name == token)
        .map(|(_, m)| *m)
}

fn parse_number_token(token: &str) -> Option<f64> {
    let cleaned: String = token
        .chars()
        .filter(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    if cleaned.is_empty() {
        return None;
    }
    // Reject tokens that had non-numeric junk mixed in (e.g. "12th" is fine,
    // "ab1" is not meaningful as a number).
    let digit_fraction = cleaned.chars().filter(|c| c.is_ascii_digit()).count() as f64
        / token.chars().count() as f64;
    if digit_fraction < 0.5 {
        return None;
    }
    cleaned.parse::<f64>().ok()
}

/// Parses a date expressed in one of the corpus conventions.
///
/// Recognised shapes (after normalisation):
/// * `18 de dezembro de 1950`, `dezembro de 1950` (Portuguese)
/// * `december 18 1950`, `18 december 1950`, `december 1950` (English)
/// * `ngay 18 thang 12 nam 1950`, `18 thang 12 1950` (Vietnamese)
/// * `1950 12 18` / `1950-12-18` (ISO, separators already normalised)
/// * bare four-digit years
pub(crate) fn parse_date(norm: &str) -> Option<CanonicalValue> {
    let tokens: Vec<&str> = norm
        .split_whitespace()
        // Portuguese "de", Vietnamese "ngày/tháng/năm" and English "of" are
        // connective words inside dates.
        .filter(|t| !matches!(*t, "de" | "of" | "ngay" | "thang" | "nam"))
        .collect();
    if tokens.is_empty() || tokens.len() > 4 {
        return None;
    }

    let mut year: Option<i32> = None;
    let mut month: Option<u32> = None;
    let mut day: Option<u32> = None;
    let mut numbers: Vec<i64> = Vec::new();

    for t in &tokens {
        if let Some(m) = lookup_month(t) {
            if month.is_some() {
                return None;
            }
            month = Some(m);
        } else if let Some(n) = parse_number_token(t) {
            if n.fract() != 0.0 {
                return None;
            }
            numbers.push(n as i64);
        } else {
            return None;
        }
    }

    // Assign numeric parts: a 4-digit number is the year; remaining numbers
    // are day and (when no month name was seen) month in day-month order,
    // which matches both the Portuguese and Vietnamese conventions.
    let mut small: Vec<i64> = Vec::new();
    for n in numbers {
        if (1000..=2200).contains(&n) && year.is_none() {
            year = Some(n as i32);
        } else if (1..=31).contains(&n) {
            small.push(n);
        } else {
            return None;
        }
    }
    match (month, small.as_slice()) {
        (Some(_), []) => {}
        (Some(_), [d]) => day = Some(*d as u32),
        (None, []) => {}
        (None, [d, m]) if *m <= 12 => {
            day = Some(*d as u32);
            month = Some(*m as u32);
        }
        // ISO-style "1950 12 18": the month precedes the day.
        (None, [m, d]) if *m <= 12 => {
            month = Some(*m as u32);
            day = Some(*d as u32);
        }
        (None, [y_or_m])
            // A single small number alongside a year is ambiguous; treat it as
            // a month if plausible.
            if *y_or_m <= 12 => {
                month = Some(*y_or_m as u32);
            }
        _ => return None,
    }

    let year = year?;
    // A bare year with no month/day still counts as a date.
    Some(CanonicalValue::Date { year, month, day })
}

/// Parses a numeric value with optional magnitude word and unit.
pub(crate) fn parse_number(norm: &str) -> Option<CanonicalValue> {
    let tokens: Vec<&str> = norm.split_whitespace().collect();
    if tokens.is_empty() || tokens.len() > 3 {
        return None;
    }
    let base = parse_number_token(tokens[0])?;
    let mut value = base;
    for t in &tokens[1..] {
        if let Some((_, scale)) = MAGNITUDES.iter().find(|(name, _)| name == t) {
            value *= scale;
        } else if UNITS.contains(t) {
            // Ignore the unit.
        } else {
            return None;
        }
    }
    Some(CanonicalValue::Number(value))
}

/// Interprets one value atom.
///
/// The atom is normalised first; date interpretation is attempted before
/// numeric interpretation so that `"december 18 1950"` does not degrade into
/// the number 18. Both need an ASCII digit (a year, a day or the number
/// itself), so an atom without one is text at once.
///
/// ```
/// use wiki_text::{parse_value, CanonicalValue};
/// assert_eq!(
///     parse_value("December 18, 1950").canonical_token(),
///     "date:1950-12-18"
/// );
/// assert_eq!(parse_value("10 bilhões").canonical_token(), "num:10000000000");
/// assert_eq!(
///     parse_value("Bernardo Bertolucci"),
///     CanonicalValue::Text("bernardo bertolucci".into())
/// );
/// ```
pub fn parse_value(atom: &str) -> CanonicalValue {
    let norm = normalize(atom);
    if !norm.bytes().any(|b| b.is_ascii_digit()) {
        return CanonicalValue::Text(norm);
    }
    if let Some(date) = parse_date(&norm) {
        return date;
    }
    if let Some(num) = parse_number(&norm) {
        return num;
    }
    CanonicalValue::Text(norm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn english_dates() {
        assert_eq!(
            parse_value("December 18, 1950"),
            CanonicalValue::Date {
                year: 1950,
                month: Some(12),
                day: Some(18)
            }
        );
        assert_eq!(
            parse_value("18 December 1950").canonical_token(),
            "date:1950-12-18"
        );
        assert_eq!(parse_value("June 1975").canonical_token(), "date:1975-06");
    }

    #[test]
    fn portuguese_dates() {
        assert_eq!(
            parse_value("18 de Dezembro de 1950").canonical_token(),
            "date:1950-12-18"
        );
        assert_eq!(
            parse_value("Dezembro de 1950").canonical_token(),
            "date:1950-12"
        );
    }

    #[test]
    fn vietnamese_dates() {
        assert_eq!(
            parse_value("ngày 18 tháng 12 năm 1950").canonical_token(),
            "date:1950-12-18"
        );
        assert_eq!(
            parse_value("18 tháng 12 1950").canonical_token(),
            "date:1950-12-18"
        );
    }

    #[test]
    fn iso_dates_and_bare_years() {
        assert_eq!(
            parse_value("1950-12-18").canonical_token(),
            "date:1950-12-18"
        );
        assert_eq!(parse_value("1987").canonical_token(), "date:1987");
        assert!(parse_value("1987").is_date());
    }

    #[test]
    fn numbers_with_magnitudes_and_units() {
        assert_eq!(parse_value("160 minutes").canonical_token(), "num:160");
        assert_eq!(parse_value("165 minutos").canonical_token(), "num:165");
        assert_eq!(parse_value("10 million").canonical_token(), "num:10000000");
        assert_eq!(
            parse_value("10 bilhões").canonical_token(),
            "num:10000000000"
        );
        assert_eq!(parse_value("44.1").canonical_token(), "num:44.10");
    }

    #[test]
    fn plain_text_falls_through() {
        assert_eq!(
            parse_value("Bernardo Bertolucci"),
            CanonicalValue::Text("bernardo bertolucci".into())
        );
        assert!(!parse_value("Drama").is_number());
    }

    #[test]
    fn as_number_extracts_magnitudes() {
        assert_eq!(parse_value("1970").as_number(), Some(1970.0));
        assert_eq!(parse_value("10 million").as_number(), Some(10_000_000.0));
        assert_eq!(parse_value("Drama").as_number(), None);
    }

    #[test]
    fn date_beats_number_interpretation() {
        // "december 18 1950" contains parseable numbers but must be a date.
        assert!(parse_value("December 18 1950").is_date());
    }
}
