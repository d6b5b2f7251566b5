//! A small parser for the Prometheus text exposition format, used by the
//! integration tests (to validate what `/metrics` serves and to read
//! server-side quantiles from a scrape-over-scrape delta) and by the
//! benchmark harness (to read phase histograms).
//!
//! It understands the subset [`crate::MetricsRegistry::render`] emits:
//! `# HELP`/`# TYPE` comments, and sample lines of the form
//! `name{key="value",…} number`.

use std::collections::BTreeMap;

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name, including any `_bucket`/`_sum`/`_count` suffix.
    pub name: String,
    /// Label pairs in appearance order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The labels with `le` removed, as a canonical sorted key — used to
    /// group the series of one histogram child.
    fn series_key(&self) -> String {
        let mut pairs: Vec<&(String, String)> =
            self.labels.iter().filter(|(k, _)| k != "le").collect();
        pairs.sort();
        pairs
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Parses an exposition document into samples, skipping comments and
/// blank lines. Returns an error describing the first malformed line.
pub fn parse_text(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (line_no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples
            .push(parse_sample(line).map_err(|e| format!("line {}: {e}: {line:?}", line_no + 1))?);
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = line.rfind('}').ok_or("unterminated label set")?;
            if close < open {
                return Err("mismatched braces".to_string());
            }
            let labels = parse_labels(&line[open + 1..close])?;
            (&line[..open], (labels, line[close + 1..].trim()))
        }
        None => {
            let mut parts = line.splitn(2, ' ');
            let name = parts.next().unwrap_or_default();
            (name, (Vec::new(), parts.next().unwrap_or_default().trim()))
        }
    };
    let (labels, value_part) = rest;
    if name_part.is_empty() {
        return Err("empty metric name".to_string());
    }
    let value = parse_value(value_part)?;
    Ok(Sample {
        name: name_part.to_string(),
        labels,
        value,
    })
}

fn parse_value(text: &str) -> Result<f64, String> {
    match text {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|e| format!("bad value {other:?}: {e}")),
    }
}

fn parse_labels(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = text.chars().peekable();
    loop {
        // Key up to '='.
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        let key = key.trim().to_string();
        if key.is_empty() {
            return Err("empty label key".to_string());
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key:?} value not quoted"));
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('n') => value.push('\n'),
                    Some(escaped) => value.push(escaped),
                    None => return Err("dangling escape".to_string()),
                },
                '"' => {
                    closed = true;
                    break;
                }
                c => value.push(c),
            }
        }
        if !closed {
            return Err(format!("unterminated value for label {key:?}"));
        }
        labels.push((key, value));
        match chars.next() {
            None => break,
            Some(',') => continue,
            Some(other) => return Err(format!("expected ',' between labels, got {other:?}")),
        }
    }
    Ok(labels)
}

/// One histogram child reassembled from its `_bucket`/`_sum`/`_count`
/// series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramScrape {
    /// `(le, cumulative count)` pairs in document order; the last entry
    /// is `le = +Inf`.
    pub buckets: Vec<(f64, f64)>,
    /// The `_sum` sample (seconds).
    pub sum: f64,
    /// The `_count` sample.
    pub count: f64,
}

impl HistogramScrape {
    /// Extracts the histogram named `name` whose non-`le` labels include
    /// `(label_key, label_value)` (pass `None` for an unlabelled child).
    pub fn extract(
        samples: &[Sample],
        name: &str,
        label: Option<(&str, &str)>,
    ) -> Option<HistogramScrape> {
        let matches = |s: &Sample| match label {
            Some((k, v)) => s.label(k) == Some(v),
            None => s.labels.iter().all(|(k, _)| k == "le"),
        };
        let bucket_name = format!("{name}_bucket");
        let sum_name = format!("{name}_sum");
        let count_name = format!("{name}_count");
        let mut scrape = HistogramScrape::default();
        let mut seen = false;
        for sample in samples {
            if !matches(sample) {
                continue;
            }
            if sample.name == bucket_name {
                let le = sample
                    .label("le")
                    .map(|v| parse_value(v).unwrap_or(f64::NAN))?;
                scrape.buckets.push((le, sample.value));
                seen = true;
            } else if sample.name == sum_name {
                scrape.sum = sample.value;
                seen = true;
            } else if sample.name == count_name {
                scrape.count = sample.value;
                seen = true;
            }
        }
        seen.then_some(scrape)
    }

    /// Groups every child of histogram `name` by its non-`le` label set.
    /// Keys are canonical `key=value,…` strings (empty for unlabelled).
    pub fn extract_all(samples: &[Sample], name: &str) -> BTreeMap<String, HistogramScrape> {
        let bucket_name = format!("{name}_bucket");
        let sum_name = format!("{name}_sum");
        let count_name = format!("{name}_count");
        let mut out: BTreeMap<String, HistogramScrape> = BTreeMap::new();
        for sample in samples {
            let key = sample.series_key();
            if sample.name == bucket_name {
                if let Some(le) = sample
                    .label("le")
                    .map(|v| parse_value(v).unwrap_or(f64::NAN))
                {
                    out.entry(key).or_default().buckets.push((le, sample.value));
                }
            } else if sample.name == sum_name {
                out.entry(key).or_default().sum = sample.value;
            } else if sample.name == count_name {
                out.entry(key).or_default().count = sample.value;
            }
        }
        out
    }

    /// True when bucket `le` bounds strictly increase and cumulative
    /// counts never decrease, ending at `+Inf == _count`.
    pub fn is_monotone(&self) -> bool {
        let mut previous_le = f64::NEG_INFINITY;
        let mut previous_count = 0.0f64;
        for &(le, count) in &self.buckets {
            if le <= previous_le || count < previous_count {
                return false;
            }
            previous_le = le;
            previous_count = count;
        }
        match self.buckets.last() {
            Some(&(le, count)) => le.is_infinite() && count == self.count,
            None => self.count == 0.0,
        }
    }

    /// The scrape-over-scrape delta (`self - baseline`), for isolating
    /// what one benchmark run contributed. Buckets are matched by `le`;
    /// a `le` absent from the baseline counts as zero there.
    pub fn delta_from(&self, baseline: &HistogramScrape) -> HistogramScrape {
        let base_at = |le: f64| {
            baseline
                .buckets
                .iter()
                .rev()
                .find(|(b, _)| *b <= le)
                .map(|(_, c)| *c)
                .unwrap_or(0.0)
        };
        HistogramScrape {
            buckets: self
                .buckets
                .iter()
                .map(|&(le, c)| (le, (c - base_at(le)).max(0.0)))
                .collect(),
            sum: self.sum - baseline.sum,
            count: self.count - baseline.count,
        }
    }

    /// The upper bound (in seconds) of the bucket holding the
    /// nearest-rank `q`-quantile, or `None` when empty. For the overflow
    /// bucket this is `+Inf`.
    pub fn quantile_upper(&self, q: f64) -> Option<f64> {
        if self.count <= 0.0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count).ceil().max(1.0);
        for &(le, cumulative) in &self.buckets {
            if cumulative >= rank {
                return Some(le);
            }
        }
        self.buckets.last().map(|&(le, _)| le)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_registry_output() {
        let registry = crate::MetricsRegistry::new();
        registry.counter("wm_expo_total", "a counter").add(5);
        let h = registry.histogram_with("wm_expo_seconds", "latency", &[("phase", "x")]);
        h.record(1_000); // 1 µs
        h.record(2_000_000_000); // 2 s
        let samples = parse_text(&registry.render()).expect("parses own output");
        let counter = samples
            .iter()
            .find(|s| s.name == "wm_expo_total")
            .expect("counter present");
        assert_eq!(counter.value, 5.0);
        let scrape = HistogramScrape::extract(&samples, "wm_expo_seconds", Some(("phase", "x")))
            .expect("histogram present");
        assert!(scrape.is_monotone(), "{scrape:?}");
        assert_eq!(scrape.count, 2.0);
        assert!((scrape.sum - 2.000001).abs() < 1e-9, "{}", scrape.sum);
        // p100 lands in the finite bucket holding the 2 s observation.
        let p100 = scrape.quantile_upper(1.0).unwrap();
        assert!(p100.is_finite() && (2.0..3.0).contains(&p100), "{p100}");
    }

    #[test]
    fn parses_labels_with_escapes() {
        let samples = parse_text("wm_x{a=\"q\\\"uote\",b=\"line\\nbreak\"} 1.5\n").expect("parses");
        assert_eq!(samples[0].label("a"), Some("q\"uote"));
        assert_eq!(samples[0].label("b"), Some("line\nbreak"));
        assert_eq!(samples[0].value, 1.5);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(
            parse_text("wm_bad{le=\"0.1\" 3\n").is_err(),
            "unterminated labels"
        );
        assert!(parse_text("wm_bad notanumber\n").is_err(), "bad value");
    }

    #[test]
    fn delta_isolates_new_observations() {
        let before = HistogramScrape {
            buckets: vec![(0.1, 2.0), (f64::INFINITY, 3.0)],
            sum: 1.0,
            count: 3.0,
        };
        let after = HistogramScrape {
            buckets: vec![(0.1, 5.0), (f64::INFINITY, 7.0)],
            sum: 3.5,
            count: 7.0,
        };
        let delta = after.delta_from(&before);
        assert_eq!(delta.count, 4.0);
        assert_eq!(delta.buckets[0], (0.1, 3.0));
        assert!((delta.sum - 2.5).abs() < 1e-12);
    }
}
