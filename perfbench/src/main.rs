//! The WikiMatch benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch|serve-rw|coldstart --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics of the workload with `--trace 0`, the per-layer
//! metrics with `--trace 1`. End-to-end times, rates and set-up time are
//! host-normalized (see `calib`). The line before it records the run: host,
//! commit, sample counts, CPU steal, the host factor and the raw end-to-end
//! values. `perfbench/METRICS.md` defines every workload and metric.

mod batch;
mod calib;
mod coldstart;
mod host;
mod layers;
mod rng;
mod serve_rw;
mod served;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// The longest a timed region runs on to collect the samples its
/// percentiles need; with set-up and the output checks, a run still ends
/// well inside 180 s.
pub const MAX_RUN: Duration = Duration::from_secs(120);

/// Where runs leave their temporary files, span logs and run records,
/// relative to the checkout root.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).expect("create .bench_out");
    dir
}

/// Every end-to-end metric, with its unit, in `BENCHMARK.json` order. Every
/// workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("read_ms_p50", "ms"),
    ("macro_f", "F1"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// What the command line asks for.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run: Duration,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["batch", "serve-rw", "coldstart"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        run: Duration::from_secs(seconds.ok_or("--seconds is required")?.max(1)),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Sample counts behind each reported percentile, by population.
    pub samples: Vec<(&'static str, usize)>,
    /// Further raw figures of the run for its record, not reported as
    /// metrics: the latency of each population apart, file sizes.
    pub detail: Vec<(&'static str, f64)>,
    /// CPU use over the timed region.
    pub cpu: host::CpuUse,
    /// How much slower than its reference the host ran the calibration
    /// loop during the timed region.
    pub host_factor: f64,
    /// The set-up repeats behind `setup_s`; empty in a traced run.
    pub setup: calib::SetupTimes,
}

/// Divides an end-to-end time by the host's slowdown over the timed region
/// and multiplies a rate by it; other metrics pass through. The slowdown is
/// the calibration factor, and for wall times also the share of busy CPU
/// time the host stole, which the calibration's median leaves out; CPU
/// time has no steal in it. `setup_s` is normalized by its own repeats.
fn normalized(metric: &Metric, outcome: &Outcome) -> f64 {
    let mut slowdown = outcome.host_factor;
    if metric.name != "cpu_ms_per_op" {
        slowdown /= 1.0 - outcome.cpu.steal_pct / 100.0;
    }
    match metric.unit {
        "ms" => metric.value / slowdown,
        "1/s" => metric.value * slowdown,
        _ => metric.value,
    }
}

/// `metrics` in the order of `names`, or an error naming the first one
/// missing or in another unit.
fn in_order(metrics: &[Metric], names: &[(&str, &str)]) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|(name, unit)| {
            metrics
                .iter()
                .find(|m| m.name == *name && m.unit == *unit)
                .cloned()
                .ok_or_else(|| format!("no {name} in {unit}"))
        })
        .collect()
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// A metric value as JSON, which has no NaN or infinity.
fn json_number(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "batch" => batch::run(&args),
        "serve-rw" => serve_rw::run(&args),
        _ => coldstart::run(&args),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let mut raw: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("{}:{}", json_string(m.name), json_number(m.value)))
        .collect();
    if !args.trace {
        let values: Vec<f64> = outcome
            .metrics
            .iter()
            .map(|m| normalized(m, &outcome))
            .collect();
        for (m, value) in outcome.metrics.iter_mut().zip(values) {
            m.value = value;
        }
        raw.push(format!(
            "\"setup_s\":{}",
            json_number(outcome.setup.raw_s())
        ));
        let setup_s = outcome.setup.normalized_s();
        outcome.metrics.push(metric("setup_s", setup_s, "s"));
        outcome.metrics = match in_order(&outcome.metrics, END_TO_END) {
            Ok(metrics) => metrics,
            Err(err) => {
                eprintln!("perfbench: {}: {err}", args.workload);
                return ExitCode::FAILURE;
            }
        };
    }
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(name, n)| format!("{}:{n}", json_string(name)))
        .collect();
    let detail: Vec<String> = outcome
        .detail
        .iter()
        .map(|(name, value)| format!("{}:{}", json_string(name), json_number(*value)))
        .collect();
    let record = format!(
        "{{\"run\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":{},\
         \"cpu_model\":{},\"nproc\":{},\"steal_pct\":{},\"cpu_util\":{},\"host_factor\":{},\
         \"samples\":{{{}}},\"detail\":{{{}}},\"raw\":{{{}}}}}}}",
        json_string(&args.workload),
        args.seed,
        args.run.as_secs(),
        u8::from(args.trace),
        json_string(&host::commit()),
        json_string(&host::cpu_model()),
        host::cores(),
        outcome.cpu.steal_pct,
        outcome.cpu.cpu_util(),
        outcome.host_factor,
        samples.join(","),
        detail.join(","),
        raw.join(","),
    );
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(out_dir().join(name), format!("{record}\n"));
    println!("{record}");

    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Asserts that `section` of `BENCHMARK.json` lists exactly `metrics`,
    /// in order and in their units.
    fn assert_manifest_lists(section: &str, metrics: &[(&str, &str)]) {
        let manifest = include_str!("../../BENCHMARK.json");
        let start = manifest
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} section"));
        let listed = &manifest[start..];
        let listed = &listed[..listed.find(']').expect("the section ends")];
        let mut rest = listed;
        for (name, unit) in metrics {
            let at = rest
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("{name} missing from {section}, or out of order"));
            rest = &rest[at..];
            let entry = &rest[..rest.find('}').expect("entry ends")];
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "{name} has another unit there"
            );
        }
        assert_eq!(listed.matches("\"name\"").count(), metrics.len());
    }

    #[test]
    fn benchmark_json_lists_every_metric_in_order() {
        assert_manifest_lists("end_to_end", END_TO_END);
        assert_manifest_lists("per_layer", layers::PER_LAYER);
    }

    #[test]
    fn metrics_are_put_in_manifest_order_and_a_missing_one_is_an_error() {
        let names = [("b", "ms"), ("a", "s")];
        let ordered = in_order(&[metric("a", 1.0, "s"), metric("b", 2.0, "ms")], &names).unwrap();
        assert_eq!(ordered[0].name, "b");
        assert_eq!(ordered[1].name, "a");
        assert!(in_order(&[metric("a", 1.0, "s")], &names).is_err());
        assert!(in_order(&[metric("a", 1.0, "ms"), metric("b", 2.0, "ms")], &names).is_err());
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args =
            parse_args(&argv("--workload serve-rw --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(args.workload, "serve-rw");
        assert_eq!(args.seed, 7);
        assert_eq!(args.run, Duration::from_secs(20));
        assert!(args.trace);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload batch --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload batch --seed 1 --seconds 1 --trace 2")).is_err());
    }
}
