//! Cold-hit experiment — out-of-core (memory-mapped) serving versus owned
//! snapshot decode versus a cold rebuild.
//!
//! Two parts, both recorded in `reports/coldhit.json` (and `--out`, which
//! CI points at `BENCH_9.json`):
//!
//! **Per tier** — the Pt-En dataset is generated once and its snapshot
//! written; then three ways of serving the first request on a cold corpus
//! are timed, dataset generation excluded:
//!
//! * **rebuild** — construct the engine and compute every artifact;
//! * **decode** — read the file onto the heap and decode it
//!   (`EngineSnapshot::load`), restore, align one type;
//! * **mapped** — zero-copy open of the same file
//!   ([`MappedSnapshot::open`]), restore, align one type — the evidence
//!   rows of that type page in lazily, everything else stays mapped.
//!
//! **Budget scenario** — a [`Registry`] with `--max-resident-mb 1` serves a
//! corpus set whose snapshots total ≥10× the budget. Every request is a
//! cold hit (the budget keeps at most one session's working set resident),
//! timed end-to-end through the registry (dataset generation included —
//! the comparator, a plain owned snapshot load, includes it too). The run
//! fails loudly unless the resident-bytes ceiling is honored, the corpus
//! set really is ≥10× the budget, and cold-hit p50 ≤ 2× the owned
//! snapshot-load p50 — the acceptance bar of the out-of-core tentpole.
//!
//! ```text
//! cargo run --release -p wiki-bench --bin coldhit [-- --tiers tiny,small,medium --runs N --smoke --out BENCH_9.json]
//! ```

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wiki_bench::{format_table, tier_config, tier_names, write_report};
use wiki_corpus::{Dataset, Language, SyntheticConfig};
use wiki_serve::registry::{CorpusSpec, Registry};
use wikimatch::snapshot::EngineSnapshot;
use wikimatch::{ComputeMode, MappedSnapshot, MatchEngine};

/// How many small-tier corpora the budget scenario registers, sized so
/// the snapshot set clears 10× the 1 MB budget.
const BUDGET_CORPORA: usize = 10;
const BUDGET_MB: u64 = 1;

/// One tier's cold-path measurements (medians of `runs`).
#[derive(serde::Serialize)]
struct TierResult {
    tier: String,
    snapshot_bytes: u64,
    rebuild_ms: f64,
    decode_ms: f64,
    mapped_ms: f64,
    /// mapped / decode — below 1.0 the map out-runs the owned decode.
    mapped_vs_decode: f64,
}

/// The budget scenario's outcome.
#[derive(serde::Serialize)]
struct BudgetResult {
    budget_mb: u64,
    corpora: usize,
    /// Total bytes of snapshots on disk backing the corpus set.
    snapshot_bytes_total: u64,
    /// snapshot_bytes_total / budget bytes — must be ≥ 10.
    coverage_x: f64,
    cold_hits: usize,
    cold_hit_p50_ms: f64,
    owned_load_p50_ms: f64,
    /// cold_hit_p50 / owned_load_p50 — must be ≤ 2.
    ratio: f64,
    resident_bytes_final: u64,
    resident_final: usize,
    ceiling_honored: bool,
}

#[derive(serde::Serialize)]
struct Report {
    bench: String,
    pr: u32,
    note: String,
    runs: usize,
    tiers: Vec<TierResult>,
    budget: BudgetResult,
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn flag_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

/// Asserts every similarity channel of every type is bit-identical between
/// the two engines — the golden-hash pin that makes the mapped timing a
/// *correct* shortcut rather than a different answer served faster.
fn assert_bit_identical(reference: &MatchEngine, candidate: &MatchEngine, label: &str) {
    for pairing in &reference.dataset().types.clone() {
        let a = reference.similarity(&pairing.type_id).expect("reference");
        let b = candidate.similarity(&pairing.type_id).expect("candidate");
        assert_eq!(
            a.pairs().len(),
            b.pairs().len(),
            "{label} {}",
            pairing.type_id
        );
        for (x, y) in a.pairs().iter().zip(b.pairs()) {
            assert_eq!((x.p, x.q), (y.p, y.q), "{label} {}", pairing.type_id);
            assert_eq!(
                x.vsim.to_bits(),
                y.vsim.to_bits(),
                "{label} {}",
                pairing.type_id
            );
            assert_eq!(
                x.lsim.to_bits(),
                y.lsim.to_bits(),
                "{label} {}",
                pairing.type_id
            );
            assert_eq!(
                x.lsi.to_bits(),
                y.lsi.to_bits(),
                "{label} {}",
                pairing.type_id
            );
        }
    }
}

/// Per-tier comparison: rebuild vs owned decode vs mapped open, each ending
/// in one served alignment of the first entity type.
fn run_tier(tier: &str, config: &SyntheticConfig, dir: &Path, runs: usize) -> TierResult {
    let dataset = Arc::new(Dataset::pt_en(config));
    let first_type = dataset.types[0].type_id.clone();

    // Rebuild: dictionary + every artifact + one alignment.
    let mut rebuild_samples = Vec::with_capacity(runs);
    let mut reference = None;
    for _ in 0..runs {
        let start = Instant::now();
        let engine = MatchEngine::new(Arc::clone(&dataset));
        engine.prepare_all();
        engine.align(&first_type).expect("type aligns");
        rebuild_samples.push(start.elapsed());
        reference = Some(engine);
    }
    let reference = reference.expect("at least one rebuild");

    let path = dir.join(format!("pt-{tier}.snap"));
    EngineSnapshot::capture(&reference)
        .save(&path)
        .expect("snapshot saves");
    let snapshot_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    // One untimed warmup faults the file into the page cache for both
    // loaders, modelling a daemon restarting over a recently written tier.
    drop(EngineSnapshot::load(&path).expect("warmup load"));

    // Heap decode: read the file, validate it, then one alignment.
    let mut decode_samples = Vec::with_capacity(runs);
    let mut owned = None;
    for _ in 0..runs {
        let start = Instant::now();
        let snapshot = EngineSnapshot::load(&path).expect("owned load");
        let engine = MatchEngine::builder(Arc::clone(&dataset))
            .build_from_snapshot(snapshot)
            .expect("owned restore");
        engine.align(&first_type).expect("type aligns");
        decode_samples.push(start.elapsed());
        owned = Some(engine);
    }
    let owned = owned.expect("at least one decode");

    // Mapped open: validate + borrow, page in only the aligned type.
    let mut mapped_samples = Vec::with_capacity(runs);
    let mut mapped = None;
    for _ in 0..runs {
        let start = Instant::now();
        let snapshot = MappedSnapshot::open(&path).expect("mapped open");
        let engine = MatchEngine::builder(Arc::clone(&dataset))
            .build_from_snapshot(snapshot.snapshot)
            .expect("mapped restore");
        engine.align(&first_type).expect("type aligns");
        mapped_samples.push(start.elapsed());
        mapped = Some(engine);
    }
    let mapped = mapped.expect("at least one mapped open");

    // Neither restore path may rebuild artifacts, and both must serve the
    // reference bits (this walk also materializes every mapped channel).
    assert_eq!(owned.stats().artifact_builds, 0, "owned decode rebuilt");
    assert_eq!(mapped.stats().artifact_builds, 0, "mapped open rebuilt");
    assert_bit_identical(&reference, &owned, "owned");
    assert_bit_identical(&reference, &mapped, "mapped");
    assert!(mapped.stats().page_ins > 0, "mapped engine never paged in");

    let decode = median(decode_samples);
    let mapped_cold = median(mapped_samples);
    TierResult {
        tier: tier.to_string(),
        snapshot_bytes,
        rebuild_ms: ms(median(rebuild_samples)),
        decode_ms: ms(decode),
        mapped_ms: ms(mapped_cold),
        mapped_vs_decode: mapped_cold.as_secs_f64() / decode.as_secs_f64().max(1e-9),
    }
}

/// The serving-tier scenario: a 1 MB resident budget over a corpus set
/// ≥10× larger, every request a cold hit through the registry.
fn run_budget(dir: &Path, runs: usize) -> BudgetResult {
    let small = tier_config("small").expect("small tier exists");
    let specs: Vec<CorpusSpec> = (0..BUDGET_CORPORA)
        .map(|i| CorpusSpec {
            name: format!("ooc-small-{i}"),
            language: Language::Pt,
            config: SyntheticConfig {
                seed: 9_000 + i as u64,
                ..small
            },
        })
        .collect();

    let snapshot_dir = dir.join("budget");
    let registry = Registry::new(4, ComputeMode::default())
        .with_snapshot_dir(&snapshot_dir)
        .with_resident_budget_mb(BUDGET_MB);
    registry.register_all(specs.iter().cloned());

    // Seed pass: warm writes every corpus' snapshot through to disk
    // (untimed — this is the offline build, not the serving path).
    for spec in &specs {
        registry.warm(&spec.name).expect("warm seeds the disk tier");
    }
    let snapshot_bytes_total: u64 = std::fs::read_dir(&snapshot_dir)
        .expect("snapshot dir listing")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "snap"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let budget_bytes = BUDGET_MB * 1024 * 1024;
    let coverage_x = snapshot_bytes_total as f64 / budget_bytes as f64;

    // Serve loop: round-robin over the set keeps every access cold (the
    // budget holds at most one working set resident). Timed end-to-end —
    // dataset generation, mapped open, restore, one alignment.
    let mut cold_samples = Vec::with_capacity(runs * specs.len());
    for _ in 0..runs {
        for spec in &specs {
            let start = Instant::now();
            let engine = registry.engine(&spec.name).expect("cold hit serves");
            engine.align("film").expect("film aligns");
            cold_samples.push(start.elapsed());
            let engine_stats = engine.stats();
            assert_eq!(
                engine_stats.artifact_builds, 0,
                "{} cold hit rebuilt artifacts instead of mapping",
                spec.name
            );
            // Each cold hit pages its film evidence in. (The settling
            // access below maps a fresh, untouched session, so the
            // registry-wide count read after it says nothing about this.)
            assert!(
                engine_stats.page_ins > 0,
                "{} cold hit never paged in",
                spec.name
            );
        }
    }
    let cold_hits = cold_samples.len();

    // The budget is enforced on access, so the materialization done by the
    // *last* alignment hasn't been weighed yet; one settling access lets
    // the registry enforce against the full working set before we read it.
    registry.corpus(&specs[0].name).expect("settling access");
    let stats = registry.stats();
    let ceiling_honored = stats.resident_bytes <= budget_bytes || stats.resident <= 1;
    let loads: u64 = stats.corpora.iter().map(|c| c.snapshot_loads).sum();
    assert!(
        loads >= cold_hits as u64,
        "cold hits were not snapshot loads"
    );

    // Comparator: the same end-to-end work with a plain owned snapshot
    // load — dataset generation + heap decode + restore + one alignment.
    let mut owned_samples = Vec::with_capacity(runs * specs.len());
    let mut checked = false;
    for _ in 0..runs {
        for spec in &specs {
            let path = snapshot_dir.join(format!("{}.snap", spec.name));
            let start = Instant::now();
            let dataset = Arc::new(spec.dataset());
            let snapshot = EngineSnapshot::load(&path).expect("owned load");
            let engine = MatchEngine::builder(Arc::clone(&dataset))
                .build_from_snapshot(snapshot)
                .expect("owned restore");
            engine.align("film").expect("film aligns");
            owned_samples.push(start.elapsed());
            // One golden-hash spot check: what the budgeted registry
            // serves is bit-identical to the owned load.
            if !checked {
                checked = true;
                let served = registry.engine(&spec.name).expect("cold hit serves");
                assert_bit_identical(&engine, &served, &spec.name);
            }
        }
    }

    let cold = median(cold_samples);
    let owned = median(owned_samples);
    BudgetResult {
        budget_mb: BUDGET_MB,
        corpora: specs.len(),
        snapshot_bytes_total,
        coverage_x,
        cold_hits,
        cold_hit_p50_ms: ms(cold),
        owned_load_p50_ms: ms(owned),
        ratio: cold.as_secs_f64() / owned.as_secs_f64().max(1e-9),
        resident_bytes_final: stats.resident_bytes,
        resident_final: stats.resident,
        ceiling_honored,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut tiers = "tiny,small,medium".to_string();
    let mut runs: usize = 3;
    let mut out: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--tiers" => tiers = flag_value(&args, &mut i, "--tiers"),
            "--runs" => {
                runs = flag_value(&args, &mut i, "--runs")
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("--runs takes a positive integer");
                        std::process::exit(2);
                    })
            }
            "--smoke" => {
                tiers = "tiny,medium".to_string();
                runs = 1;
            }
            "--out" => out = Some(flag_value(&args, &mut i, "--out")),
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let runs = runs.max(1);

    let dir = std::env::temp_dir().join(format!("wm-coldhit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let mut results: Vec<TierResult> = Vec::new();
    for tier in tiers.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let Some(config) = tier_config(tier) else {
            eprintln!("unknown tier {tier:?}; expected {}", tier_names());
            std::process::exit(2);
        };
        results.push(run_tier(tier, &config, &dir, runs));
    }

    let budget = run_budget(&dir, runs);
    let _ = std::fs::remove_dir_all(&dir);

    let header: Vec<String> = [
        "tier",
        "size",
        "rebuild",
        "decode",
        "mapped",
        "mapped/decode",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.tier.clone(),
                format!("{:.1} MiB", r.snapshot_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.1} ms", r.rebuild_ms),
                format!("{:.1} ms", r.decode_ms),
                format!("{:.1} ms", r.mapped_ms),
                format!("{:.2}x", r.mapped_vs_decode),
            ]
        })
        .collect();
    println!("=== Cold hit — rebuild vs owned decode vs mapped open (Pt-En, median of runs) ===");
    println!("{}", format_table(&header, &rows));
    println!(
        "budget scenario: {} corpora, {:.1} MiB of snapshots over a {} MB budget \
         ({:.1}x coverage); {} cold hits, p50 {:.1} ms vs owned-load p50 {:.1} ms \
         ({:.2}x); final resident {} session(s) holding {} bytes",
        budget.corpora,
        budget.snapshot_bytes_total as f64 / (1024.0 * 1024.0),
        budget.budget_mb,
        budget.coverage_x,
        budget.cold_hits,
        budget.cold_hit_p50_ms,
        budget.owned_load_p50_ms,
        budget.ratio,
        budget.resident_final,
        budget.resident_bytes_final,
    );

    // The tentpole's acceptance bars.
    let mut failed = false;
    if budget.coverage_x < 10.0 {
        eprintln!(
            "FAIL: corpus set is only {:.1}x the resident budget (target: ≥10x)",
            budget.coverage_x
        );
        failed = true;
    }
    if !budget.ceiling_honored {
        eprintln!(
            "FAIL: {} resident sessions hold {} bytes over the {} MB budget",
            budget.resident_final, budget.resident_bytes_final, budget.budget_mb
        );
        failed = true;
    }
    if budget.ratio > 2.0 {
        eprintln!(
            "FAIL: cold-hit p50 is {:.2}x the owned snapshot-load p50 (target: ≤2x)",
            budget.ratio
        );
        failed = true;
    }

    let report = Report {
        bench: "coldhit".to_string(),
        pr: 9,
        note: "Out-of-core serving: mapped cold hits vs owned decode vs rebuild; \
               1 MB resident budget over a ≥10x corpus set"
            .to_string(),
        runs,
        tiers: results,
        budget,
    };
    write_report("coldhit", &report);
    if let Some(path) = out {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&path, json + "\n").expect("write --out report");
        println!("wrote {path}");
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "cold-hit p50 within {:.2}x of owned load over a {:.1}x-budget corpus set — OK",
        report.budget.ratio, report.budget.coverage_x
    );
}
