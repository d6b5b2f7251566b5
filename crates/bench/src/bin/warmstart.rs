//! Warm-start experiment — cold engine build versus snapshot load across
//! the synthetic scale tiers.
//!
//! For each tier the Pt-En dataset is generated once, then two ways of
//! obtaining a fully warmed [`MatchEngine`] are timed:
//!
//! * **cold build** — construct the engine (title dictionary) and
//!   `prepare_all` (every per-type schema / similarity table / candidate
//!   index);
//! * **snapshot load** — read the persisted snapshot from disk and restore
//!   the same artifacts with [`MatchEngine::builder`]'s
//!   `build_from_snapshot` (zero artifact builds).
//!
//! Dataset generation is excluded from both sides — it is the same work
//! either way. The acceptance target of the snapshot tentpole is a ≥10×
//! faster warm start at the `pt-medium` tier; the run fails loudly if the
//! restored artifacts are not bit-identical to the cold build.
//!
//! ```text
//! cargo run --release -p wiki-bench --bin warmstart [-- --tiers tiny,small,medium[,large,xlarge] --runs N]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use wiki_bench::{format_table, tier_config, tier_names, write_report};
use wiki_corpus::Dataset;
use wikimatch::snapshot::EngineSnapshot;
use wikimatch::MatchEngine;

/// One tier's measurements, serialized into `reports/warmstart.json`.
#[derive(serde::Serialize)]
struct TierResult {
    tier: String,
    attribute_groups: usize,
    snapshot_bytes: u64,
    cold_build_ms: f64,
    snapshot_load_ms: f64,
    speedup: f64,
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tiers = match args.iter().position(|a| a == "--tiers") {
        Some(i) => args.get(i + 1).cloned().unwrap_or_default(),
        None => "tiny,small,medium".to_string(),
    };
    let runs: usize = match args.iter().position(|a| a == "--runs") {
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("--runs takes a positive integer");
                std::process::exit(2);
            }),
        None => 3,
    }
    .max(1);

    let dir = std::env::temp_dir().join(format!("wm-warmstart-{}", std::process::id()));
    let mut results: Vec<TierResult> = Vec::new();

    for tier in tiers.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let Some(config) = tier_config(tier) else {
            eprintln!("unknown tier {tier:?}; expected {}", tier_names());
            std::process::exit(2);
        };
        // Generated once; both sides start from the same in-memory dataset.
        let dataset = Arc::new(Dataset::pt_en(&config));
        let attribute_groups = {
            let engine = MatchEngine::new(Arc::clone(&dataset));
            let film = engine.prepared("film").expect("film type exists");
            film.schema.len()
        };

        // Cold build: dictionary + every per-type artifact.
        let mut cold_samples = Vec::with_capacity(runs);
        let mut reference = None;
        for _ in 0..runs {
            let start = Instant::now();
            let engine = MatchEngine::new(Arc::clone(&dataset));
            engine.prepare_all();
            cold_samples.push(start.elapsed());
            reference = Some(engine);
        }
        let reference = reference.expect("at least one cold run");

        // Persist the warmed session once, then time pure loads.
        let path = dir.join(format!("pt-{tier}.snap"));
        EngineSnapshot::capture(&reference)
            .save(&path)
            .expect("snapshot saves");
        let snapshot_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

        // One untimed warmup load first: it faults the file into the page
        // cache and warms the allocator, modelling the steady state a
        // restarting daemon sees (the file was just written) instead of a
        // first-touch outlier.
        let warmup = EngineSnapshot::load(&path).expect("snapshot loads");
        drop(warmup);

        let mut load_samples = Vec::with_capacity(runs);
        let mut restored = None;
        for _ in 0..runs {
            let start = Instant::now();
            let snapshot = EngineSnapshot::load(&path).expect("snapshot loads");
            let engine = MatchEngine::builder(Arc::clone(&dataset))
                .build_from_snapshot(snapshot)
                .expect("snapshot restores");
            load_samples.push(start.elapsed());
            restored = Some(engine);
        }
        let restored = restored.expect("at least one load run");

        // The load must be a *correct* shortcut: zero builds, identical bits.
        assert_eq!(restored.stats().artifact_builds, 0);
        for pairing in &dataset.types {
            let a = reference.similarity(&pairing.type_id).expect("cold table");
            let b = restored.similarity(&pairing.type_id).expect("loaded table");
            for (x, y) in a.pairs().iter().zip(b.pairs()) {
                assert_eq!(x.vsim.to_bits(), y.vsim.to_bits(), "{}", pairing.type_id);
                assert_eq!(x.lsim.to_bits(), y.lsim.to_bits(), "{}", pairing.type_id);
                assert_eq!(x.lsi.to_bits(), y.lsi.to_bits(), "{}", pairing.type_id);
            }
        }

        let cold = median(cold_samples);
        let load = median(load_samples);
        results.push(TierResult {
            tier: tier.to_string(),
            attribute_groups,
            snapshot_bytes,
            cold_build_ms: cold.as_secs_f64() * 1e3,
            snapshot_load_ms: load.as_secs_f64() * 1e3,
            speedup: cold.as_secs_f64() / load.as_secs_f64().max(1e-9),
        });
    }
    let _ = std::fs::remove_dir_all(&dir);

    let header: Vec<String> = [
        "tier",
        "film attrs",
        "snapshot size",
        "cold build",
        "snapshot load",
        "speedup",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.tier.clone(),
                r.attribute_groups.to_string(),
                format!("{:.1} MiB", r.snapshot_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.1} ms", r.cold_build_ms),
                format!("{:.1} ms", r.snapshot_load_ms),
                format!("{:.1}x", r.speedup),
            ]
        })
        .collect();
    println!("=== Warm start — cold build vs snapshot load (Pt-En, median of runs) ===");
    println!("{}", format_table(&header, &rows));
    write_report("warmstart", &results);

    // The tentpole's acceptance bar: ≥10× at pt-medium (when measured).
    if let Some(medium) = results.iter().find(|r| r.tier == "medium") {
        if medium.speedup < 10.0 {
            eprintln!(
                "FAIL: pt-medium warm start is only {:.1}x faster (target: ≥10x)",
                medium.speedup
            );
            std::process::exit(1);
        }
        println!(
            "pt-medium warm start: {:.1}x faster than a cold build (target ≥10x) — OK",
            medium.speedup
        );
    }
}
