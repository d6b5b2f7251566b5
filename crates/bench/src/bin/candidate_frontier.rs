//! Candidate-frontier experiment — the exact similarity build across the
//! synthetic scale tiers, the record behind `BENCH_7.json`.
//!
//! For each tier the Pt-En film schema is built once, then the full
//! `SimilarityTable` construction is timed in the default `pruned` mode:
//! candidate generation (every pair that shares a value or link term),
//! every non-certified-zero channel cosine and the LSI fit (scores are then
//! answered on demand from the factors). Its [`wikimatch::PairCounts`] (channel
//! cosines scored versus pruned) is recorded per tier — the same gauges
//! `matchd` exposes on `/stats`. `BENCH_7.json` also holds the columns of
//! two sparse modes that no longer exist; they are history.
//!
//! ```text
//! cargo run --release -p wiki-bench --bin candidate_frontier \
//!     [-- --tiers tiny,small,medium,large,xlarge --runs N --smoke --out BENCH_7.json]
//! ```
//!
//! `--smoke` (tiny + medium, one run) is the CI guard that keeps this
//! binary from rotting; the checked-in `BENCH_7.json` was produced with
//! `--out BENCH_7.json` under `taskset -c 0` for a stable single-core
//! number.

use std::time::{Duration, Instant};

use wiki_bench::report::f2;
use wiki_bench::{format_table, tier_config, tier_names, write_report};
use wiki_corpus::synthetic::SyntheticGenerator;
use wiki_corpus::Language;
use wiki_linalg::LsiConfig;
use wiki_translate::TitleDictionary;
use wikimatch::{ComputeMode, DualSchema, SimilarityTable};

/// The exact build's measurements at one tier.
#[derive(serde::Serialize)]
struct ModeResult {
    mode: String,
    build_ms: f64,
    pairs_scored: u64,
    pairs_pruned: u64,
    stored_pairs: usize,
}

/// One tier's measurements, serialized into `reports/candidate_frontier.json`
/// (and, via `--out`, the repo-root `BENCH_7.json`).
#[derive(serde::Serialize)]
struct TierResult {
    tier: String,
    attribute_groups: usize,
    pruned: ModeResult,
}

/// The whole run, as checked in at the repo root.
#[derive(serde::Serialize)]
struct Report {
    bench: String,
    pr: u32,
    note: String,
    runs: usize,
    tiers: Vec<TierResult>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Best-of-N wall time of `f` in milliseconds (best-of, not mean: the
/// quantity of interest is the cost of the work, not of the noise).
fn time_best<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs {
        let t = Instant::now();
        last = Some(f());
        best = best.min(ms(t.elapsed()));
    }
    (best, last.expect("runs >= 1"))
}

fn measure_tier(tier: &str, runs: usize) -> TierResult {
    let config = tier_config(tier).unwrap_or_else(|| {
        eprintln!("unknown tier {tier:?} ({})", tier_names());
        std::process::exit(2);
    });
    let generator = SyntheticGenerator::new(config);
    let (corpus, _) = generator.generate_pair(Language::Pt);
    let dictionary = TitleDictionary::from_corpus(&corpus, &Language::Pt, &Language::En);
    let schema = DualSchema::build(&corpus, &Language::Pt, "Filme", "Film", &dictionary);
    let n = schema.len();

    let mode = ComputeMode::Pruned;
    let (build_ms, (_, counts)) = time_best(runs, || {
        SimilarityTable::compute_counted(&schema, LsiConfig::default(), mode)
    });
    TierResult {
        tier: tier.to_string(),
        attribute_groups: n,
        pruned: ModeResult {
            mode: mode.to_string(),
            build_ms,
            pairs_scored: counts.scored,
            pairs_pruned: counts.pruned,
            stored_pairs: n * n.saturating_sub(1) / 2,
        },
    }
}

/// The next argument as a flag's value; a trailing flag without one is a
/// usage error, not an index-out-of-bounds panic.
fn flag_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| {
        eprintln!("{flag} needs a value; see the module docs");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tiers = vec![
        "tiny".to_string(),
        "small".to_string(),
        "medium".to_string(),
        "large".to_string(),
        "xlarge".to_string(),
    ];
    let mut runs = 3usize;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tiers" => {
                tiers = flag_value(&args, &mut i, "--tiers")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "--runs" => {
                runs = flag_value(&args, &mut i, "--runs")
                    .parse()
                    .expect("--runs takes an integer");
            }
            "--smoke" => {
                tiers = vec!["tiny".to_string(), "medium".to_string()];
                runs = 1;
            }
            "--out" => {
                out = Some(flag_value(&args, &mut i, "--out"));
            }
            other => {
                eprintln!("unknown flag {other}; see the module docs");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let mut results = Vec::new();
    for tier in &tiers {
        eprintln!("measuring tier {tier} ({runs} runs)...");
        results.push(measure_tier(tier, runs));
    }

    let header: Vec<String> = [
        "tier",
        "attrs",
        "pruned ms",
        "scored",
        "pruned",
        "stored",
        "pruned %",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let m = &r.pruned;
            let total = (m.pairs_scored + m.pairs_pruned).max(1);
            vec![
                r.tier.clone(),
                r.attribute_groups.to_string(),
                f2(m.build_ms),
                m.pairs_scored.to_string(),
                m.pairs_pruned.to_string(),
                m.stored_pairs.to_string(),
                format!("{:.1}", 100.0 * m.pairs_pruned as f64 / total as f64),
            ]
        })
        .collect();
    println!("=== Candidate frontier — exact pruned builds (Pt-En film) ===");
    println!("{}", format_table(&header, &rows));

    let report = Report {
        bench: "candidate_frontier".to_string(),
        pr: 7,
        note: "single-core (taskset -c 0) full exact SimilarityTable builds of the \
               Pt-En film schema; pairs_scored/pairs_pruned are the /stats gauges"
            .to_string(),
        runs,
        tiers: results,
    };
    write_report("candidate_frontier", &report);
    if let Some(path) = out {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => std::fs::write(&path, json + "\n").expect("write --out file"),
            Err(err) => eprintln!("warning: cannot serialise report: {err}"),
        }
    }
}
