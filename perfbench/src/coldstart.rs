//! `coldstart`: out-of-core serving. An in-process `MatchServer` with a
//! snapshot directory and a 1 MB resident budget serves four `vi-medium`
//! corpora whose v4 snapshots are written in set-up — a working set about
//! sixty times the budget. One connection requests `POST /align` for
//! `film`, never the same corpus twice in a row, so every request is a cold
//! hit: it regenerates the pristine corpus, maps a snapshot, evicts the
//! previous session and aligns one type. Similarity does nothing.
//!
//! The four corpora share one generator seed and differ only by name, so
//! every cold hit does the same work and the latency percentiles describe
//! one population. The run's seed picks the rotation. The timed region
//! lasts `--seconds` and runs on, if need be, until it holds the reads
//! `read_ms_p50` needs. `macro_f` scores the `film` pairs every response
//! must equal against ground truth.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wiki_corpus::Language;
use wiki_eval::MacroAggregator;
use wiki_serve::protocol::{AlignRequest, AlignResponse, CorpusRequest, TypePairs};
use wiki_serve::{CorpusSpec, Registry};
use wikimatch::{corpus_fingerprint, AttributeAlignment, ComputeMode, MappedSnapshot, MatchEngine};

use crate::calib::{Calibration, Region, SetupTimes};
use crate::host::CpuWindow;
use crate::layers::{self, integrations};
use crate::rng::Rng;
use crate::served::{body, direct, post_ok, timed, Driven, OpSample, Served, ServerSums, Until};
use crate::stats::{median, percentile, MIN_SAMPLES};
use crate::trace::{maybe_span, Tracer};
use crate::{metric, out_dir, Args, Outcome, SETUP_REPEATS};

const CORPORA: usize = 4;
const WORKERS: usize = 2;
const BUDGET_MB: u64 = 1;
const TYPE: &str = "film";
const SCHEDULE_OPS: usize = 20_000;
/// The client's pause after each response, while the evicted session is
/// dropped on a background thread. Sent back to back, cold hits split into
/// a fast and a slow group whose mix moved the median by 20 % between
/// runs. The pause narrowed that, but does not remove it: the drop starts
/// during the request that evicts, and in a fast host phase most hits
/// fell in the fast group (a 40 ms pause did no better). The pause is left
/// out of the region's wall clock.
const THINK: Duration = Duration::from_millis(20);

/// The four corpora: the canonical `vi-medium` tier under four names,
/// `vi-medium-0` … `vi-medium-3`. A cold hit's cost depends on the
/// generator seed by about 10 %, so the seed varies the rotation instead.
pub fn specs() -> Vec<CorpusSpec> {
    let base = CorpusSpec::tier(Language::Vn, "medium").expect("the medium tier exists");
    (0..CORPORA)
        .map(|i| CorpusSpec {
            name: format!("vi-medium-{i}"),
            ..base.clone()
        })
        .collect()
}

/// The corpus each request goes to. Set-up ends on corpus 0, and no
/// request repeats the one before it, so none finds its corpus resident.
pub fn schedule(seed: u64, ops: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 300);
    let mut previous = 0;
    (0..ops)
        .map(|_| {
            previous = (previous + 1 + rng.below(CORPORA - 1)) % CORPORA;
            previous
        })
        .collect()
}

struct Setup {
    served: Served,
    /// Request body and the exact expected response of each corpus.
    requests: Vec<(String, String)>,
    /// Macro F of the expected `film` pairs.
    macro_f: f64,
    seconds: f64,
}

/// Set-up: write every corpus' v4 snapshot through `/warm`, align `film`
/// on an in-process engine for the expected answer, and serve one
/// untimed cold hit.
fn setup(index: usize, traced: bool) -> Result<Setup, String> {
    let started = Instant::now();
    let specs = specs();
    let dir = Served::snapshot_dir("coldstart", index);
    let registry = Registry::new(CORPORA, ComputeMode::default())
        .with_snapshot_dir(&dir)
        .with_resident_budget_mb(BUDGET_MB);
    registry.register_all(specs.iter().cloned());
    let served = Served::start(registry, dir, WORKERS, traced)?;
    let mut client = served.client();
    for spec in &specs {
        post_ok(
            &mut client,
            "/warm",
            &body(&CorpusRequest {
                corpus: spec.name.clone(),
            }),
        )?;
    }
    let dataset = specs[0].dataset();
    let gold = dataset
        .ground_truth
        .for_type(TYPE)
        .cloned()
        .unwrap_or_default();
    let mut agg = MacroAggregator::new();
    let reference = MatchEngine::builder(dataset).build();
    let pairs = reference
        .align(TYPE)
        .ok_or("film type missing")?
        .cross_pairs();
    agg.add_type(
        &pairs,
        &gold,
        reference.dataset().other_language(),
        &Language::En,
    );
    let requests: Vec<(String, String)> = specs
        .iter()
        .map(|spec| {
            let request = body(&AlignRequest {
                corpus: spec.name.clone(),
                type_id: Some(TYPE.to_string()),
            });
            let expected = body(&AlignResponse {
                corpus: spec.name.clone(),
                matcher: "WikiMatch".to_string(),
                alignments: vec![TypePairs {
                    type_id: TYPE.to_string(),
                    pairs: pairs.clone(),
                }],
            });
            (request, expected)
        })
        .collect();
    post_ok(&mut client, "/align", &requests[0].0)?;
    Ok(Setup {
        served,
        requests,
        macro_f: agg.scores().f1,
        seconds: started.elapsed().as_secs_f64(),
    })
}

/// Requests cold hits until `until`, sampling the host between them; the
/// region's clocks leave the samples out.
fn drive(
    setup: &Setup,
    seed: u64,
    until: Until,
    calibration: &mut Calibration,
    tracer: Option<&Tracer>,
) -> Driven {
    let mut client = setup.served.client();
    let mut samples = Vec::new();
    let mut region = Region::start();
    for (i, corpus) in schedule(seed, SCHEDULE_OPS).into_iter().enumerate() {
        region.calibrate(calibration);
        if until.done(region.elapsed(), samples.len(), 0) {
            break;
        }
        let (request, expected) = &setup.requests[corpus];
        let (ms, response) = maybe_span(tracer, i as u64, None, "op", |_| {
            timed(&mut client, "/align", request)
        });
        let ok = response.is_some_and(|r| r.status == 200 && r.body == *expected);
        region.think(THINK);
        samples.push(OpSample {
            write: false,
            ms,
            ok,
        });
    }
    Driven::new(samples, region)
}

/// Snapshot loads so far, summed over the corpora: one per cold hit.
fn snapshot_loads(registry: &Registry) -> u64 {
    registry
        .stats()
        .corpora
        .iter()
        .map(|c| c.snapshot_loads)
        .sum()
}

fn snapshot_bytes(setup: &Setup) -> u64 {
    std::fs::metadata(setup.served.dir.join("vi-medium-0.snap")).map_or(0, |m| m.len())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return traced(args);
    }
    let mut calibration = Calibration::new();
    let mut setups = SetupTimes::default();
    let mut current: Option<Setup> = None;
    for index in 0..SETUP_REPEATS {
        if let Some(previous) = current.take() {
            previous.served.shutdown();
        }
        current = Some(setups.time(&mut calibration, || {
            let setup = setup(index, false)?;
            let seconds = setup.seconds;
            Ok((setup, seconds))
        })?);
    }
    let setup = current.expect("set up at least once");
    let loads_before = snapshot_loads(&setup.served.registry);

    let window = CpuWindow::start();
    let until = Until {
        run: args.run,
        reads: MIN_SAMPLES,
        writes: 0,
    };
    let driven = drive(&setup, args.seed, until, &mut calibration, None);
    let cpu = window.finish();
    let cold_hits = snapshot_loads(&setup.served.registry) - loads_before;
    let snapshot_mb = snapshot_bytes(&setup) as f64 / 1e6;
    setup.served.shutdown();

    let reads = driven.ms(false);
    let failed = driven.failed();
    eprintln!(
        "coldstart: {} reads, {cold_hits} snapshot loads, {failed} failed, steal {:.1}%",
        reads.len(),
        cpu.steal_pct
    );
    let mut metrics = driven.metrics()?;
    metrics.push(metric("macro_f", setup.macro_f, "F1"));
    let mut detail = vec![("snapshot_mb", snapshot_mb)];
    detail.extend(
        percentile(&reads, 90.0)
            .ok()
            .map(|p90| ("read_ms_p90", p90)),
    );
    Ok(Outcome {
        attempted: reads.len() as u64,
        failed,
        metrics,
        samples: vec![
            ("reads", reads.len()),
            ("cold_hits", cold_hits as usize),
            ("calibration", calibration.samples()),
        ],
        detail,
        cpu,
        host_factor: calibration.host_factor(),
        setup: setups,
    })
}

/// The traced run: an untraced half on one server, then a traced half on a
/// second that logs each request's phase segments. The cold build and the
/// alignment run inside `req_lookup` and `req_compute` without phases of
/// their own; they are split by calling `CorpusSpec::dataset`,
/// `corpus_fingerprint`, `MappedSnapshot::open` and
/// `AttributeAlignment::run` directly on the same inputs afterwards.
fn traced(args: &Args) -> Result<Outcome, String> {
    let half = args.run / 2;
    let plain_setup = setup(0, false)?;
    let mut calibration = Calibration::new();
    let plain = drive(
        &plain_setup,
        args.seed,
        Until::time(half),
        &mut calibration,
        None,
    );
    plain_setup.served.shutdown();

    let setup = setup(1, true)?;
    let registry = Arc::clone(&setup.served.registry);
    let stats0 = registry.stats();
    let logged0 = setup.served.logged().len();
    let tracer = Tracer::default();
    let window = CpuWindow::start();
    let samples = drive(
        &setup,
        args.seed,
        Until::time(half),
        &mut calibration,
        Some(&tracer),
    )
    .samples;
    let cpu = window.finish();
    let stats1 = registry.stats();
    let lines: Vec<String> = setup.served.logged().split_off(logged0);
    let sums = ServerSums::of(&lines, "align");

    let spec = specs().remove(0);
    let path = setup.served.dir.join(format!("{}.snap", spec.name));
    let (generate_ms, dataset) = direct(&tracer, "corpus.generate", 3, || spec.dataset());
    let (fingerprint_ms, _) = direct(&tracer, "core.snapshot.fingerprint", 3, || {
        corpus_fingerprint(&dataset)
    });
    let (map_open_ms, _) = direct(&tracer, "core.snapshot.map_open", 3, || {
        MappedSnapshot::open(&path)
    });
    let dataset = Arc::new(dataset);
    let (mut page_in, mut align, mut page_ins) = (Vec::new(), Vec::new(), 0);
    let (mut candidates, mut accepted) = (0, 0);
    for _ in 0..3 {
        let mapped = MappedSnapshot::open(&path).map_err(|e| e.to_string())?;
        let region = Arc::clone(&mapped.region);
        let engine = MatchEngine::builder(Arc::clone(&dataset))
            .build_from_snapshot(mapped.snapshot)
            .map_err(|e| e.to_string())?;
        let prepared = engine.prepared(TYPE).ok_or("film type missing")?;
        let config = *engine.config();
        page_in.push(
            direct(&tracer, "core.snapshot.page_in", 1, || {
                prepared.table.pairs().len()
            })
            .0,
        );
        let (ms, matches) = direct(&tracer, "core.alignment", 1, || {
            AttributeAlignment::new(&prepared.schema, &prepared.table, config).run()
        });
        align.push(ms);
        page_ins = region.page_in_count();
        candidates = prepared.table.above_lsi(config.t_lsi).len();
        accepted = integrations(&matches);
    }
    let (page_in_ms, align_ms) = (median(&page_in), median(&align));
    let v4_mb = snapshot_bytes(&setup) as f64 / 1e6;
    let _ = tracer.write_jsonl(&out_dir().join(format!("coldstart-seed{}.trace.jsonl", args.seed)));
    setup.served.shutdown();

    let ops = samples.len().max(1) as f64;
    let n = sums.requests as f64;
    let lookup = sums.phase("req_lookup");
    let generate = (n * generate_ms).min(lookup);
    // A cold build fingerprints the pristine corpus and the restore checks
    // it again: two fingerprints per cold hit.
    let fingerprint = (2.0 * n * fingerprint_ms).min(lookup - generate);
    let compute = sums.phase("req_compute");
    let paging = (n * page_in_ms).min(compute);
    let alignment = (n * align_ms).min(compute - paging);
    let client_ms: f64 = samples.iter().map(|s| s.ms).sum();

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |name: &'static str, total_ms: f64| {
        *values.entry(name).or_default() += total_ms / ops;
    };
    put(
        "serve.server.client_overhead_ms",
        (client_ms - sums.total_ms).max(0.0),
    );
    put("serve.server.queue_wait_ms", sums.phase("req_queue_wait"));
    put("serve.server.parse_ms", sums.phase("req_parse"));
    put("serve.server.serialize_ms", sums.phase("req_serialize"));
    put("serve.server.compute_ms", compute - paging - alignment);
    put("serve.registry.self_ms", lookup - generate - fingerprint);
    put("corpus.generate_ms", generate);
    put("core.snapshot.fingerprint_ms", fingerprint);
    put("core.snapshot.map_open_ms", sums.phase("snapshot_map"));
    put(
        "core.snapshot.decode_mapped_ms",
        sums.phase("snapshot_decode_mapped"),
    );
    put("core.snapshot.page_in_ms", paging);
    put("core.alignment.run_ms", alignment);
    let mut metrics = layers::layer_metrics(&values);
    let delta = |f: fn(&wiki_serve::registry::CorpusStats) -> u64| -> f64 {
        let sum = |s: &wiki_serve::RegistryStats| s.corpora.iter().map(f).sum::<u64>();
        (sum(&stats1) - sum(&stats0)) as f64
    };
    let (hits, misses) = (delta(|c| c.hits), delta(|c| c.misses));
    metrics.extend([
        metric("core.alignment.candidates", candidates as f64, "count"),
        metric("core.alignment.accepted", accepted as f64, "count"),
        metric(
            "core.alignment.accept_ratio",
            accepted as f64 / candidates.max(1) as f64,
            "ratio",
        ),
        metric("core.snapshot.page_ins", page_ins as f64, "count"),
        metric("core.snapshot.v4_mb", v4_mb, "MB"),
        metric(
            "serve.registry.cold_ms",
            (lookup + sums.phase("snapshot_map") + sums.phase("snapshot_decode_mapped"))
                / n.max(1.0),
            "ms",
        ),
        metric(
            "serve.registry.hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        ),
        metric(
            "serve.registry.evictions",
            delta(|c| c.evictions) / ops,
            "count",
        ),
        metric(
            "serve.server.failed",
            samples.iter().filter(|s| !s.ok).count() as f64,
            "count",
        ),
    ]);
    let plain = plain.samples;
    let plain_op_ms = plain.iter().map(|s| s.ms).sum::<f64>() / plain.len().max(1) as f64;
    metrics.extend(layers::trace_metrics(
        client_ms / ops,
        plain_op_ms,
        client_ms / ops,
        sums.unphased_ms() / ops,
        cpu,
    ));
    eprintln!(
        "coldstart traced: {} ops, {} logged; map-open direct {map_open_ms:.2} ms",
        samples.len(),
        sums.requests
    );
    Ok(Outcome {
        attempted: (samples.len() + plain.len()) as u64,
        failed: samples.iter().chain(&plain).filter(|s| !s.ok).count() as u64,
        metrics: layers::complete(metrics),
        samples: vec![("traced_ops", samples.len()), ("untraced_ops", plain.len())],
        detail: Vec::new(),
        cpu,
        host_factor: calibration.host_factor(),
        setup: SetupTimes::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_never_repeats_a_corpus_back_to_back() {
        let ops = schedule(9, 1000);
        assert_ne!(ops[0], 0, "set-up leaves corpus 0 resident");
        assert!(ops.windows(2).all(|w| w[0] != w[1]));
        assert_eq!(ops, schedule(9, 1000));
        assert_ne!(ops, schedule(10, 1000));
    }

    #[test]
    fn the_four_corpora_share_one_generator_seed() {
        let specs = specs();
        assert!(specs.iter().all(|s| s.config.seed == specs[0].config.seed));
    }
}
