//! Percentiles and throughput, with the rules that keep them repeatable.

/// A percentile is reported only when at least this many samples of the run
/// lie beyond it: p99 needs ≥1,000 samples, p90 ≥100, the median ≥20.
pub const MIN_BEYOND: usize = 10;
/// Ops every timed region collects at least, whatever its length: as many
/// as the median needs.
pub const MIN_SAMPLES: usize = 2 * MIN_BEYOND;

/// Nearest-rank `p`-th percentile of `samples`, or an error naming the
/// shortfall when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; {MIN_BEYOND} are needed"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of a small set of repeats (set-up times, direct-call
/// timings), where the ten-beyond rule of [`percentile`] does not apply.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Completed ops per second of a closed loop: `op_ends` are the seconds,
/// from the start of the timed region, at which each op finished. An op
/// that ended after `run_s` was cut off by the end of the run and does not
/// count; the wall time is that of the ops that do.
pub fn ops_per_s(op_ends: &[f64], run_s: f64) -> Option<f64> {
    let counted: Vec<f64> = op_ends.iter().copied().filter(|&e| e <= run_s).collect();
    let last = counted.iter().copied().fold(0.0, f64::max);
    (!counted.is_empty() && last > 0.0).then(|| counted.len() as f64 / last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(
            percentile(&samples, 99.0).is_err(),
            "999 samples leave 9 beyond p99"
        );
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Ok(990.0));
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&samples, 90.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&[1.0; 19], 50.0).is_err());
        assert_eq!(percentile(&[2.0; MIN_SAMPLES], 50.0), Ok(2.0));
    }

    #[test]
    fn percentile_is_nearest_rank_on_unsorted_input() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 50.0), Ok(50.0));
        assert_eq!(percentile(&samples, 90.0), Ok(90.0));
    }

    #[test]
    fn throughput_ignores_an_op_cut_off_by_the_end_of_the_run() {
        // Three ops end inside a 10 s run; the fourth started inside it but
        // ended after it.
        let ends = [2.0, 4.0, 6.0, 10.5];
        assert_eq!(ops_per_s(&ends, 10.0), Some(0.5));
        assert_eq!(ops_per_s(&ends[..3], 10.0), Some(0.5));
        assert_eq!(ops_per_s(&[10.5], 10.0), None);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
