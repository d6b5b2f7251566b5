//! `batch`: the paper's offline use. A closed loop on one thread; each op
//! builds fresh `MatchEngine`s over `pt-medium` and `vi-medium`, runs
//! `align_all` on both and scores pooled macro F against ground truth.
//! Schema, similarity, LSI and alignment do all the work; serving,
//! snapshots and corpus generation do none.
//!
//! The corpora are the canonical `pt-medium` and `vi-medium` tiers, so
//! `macro_f` is exact and identical in every run; the seed orders the two
//! pairs within each op. An op only reads its corpora, so `read_ms_p50` is
//! the median op. The timed region lasts `--seconds` and runs on, if need
//! be, until it holds the ops that median needs.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;
use wiki_corpus::{Dataset, Language};
use wiki_eval::MacroAggregator;
use wiki_serve::CorpusSpec;
use wikimatch::{corpus_fingerprint, AttributeAlignment, MatchEngine, PreparedType};

use crate::calib::{Calibration, Region, SetupTimes};
use crate::host::{self, CpuWindow};
use crate::layers::integrations;
use crate::rng::Rng;
use crate::served::{direct, Until, DIRECT_OP};
use crate::stats::{ops_per_s, percentile, MIN_SAMPLES};
use crate::trace::{maybe_span, phase_delta_ms, phase_seconds, self_ms, Tracer};
use crate::{metric, out_dir, Args, Outcome, SETUP_REPEATS};

/// The two language pairs every op aligns.
fn datasets() -> Vec<Arc<Dataset>> {
    [Language::Pt, Language::Vn]
        .into_iter()
        .map(|language| {
            let spec = CorpusSpec::tier(language, "medium").expect("the medium tier exists");
            Arc::new(spec.dataset())
        })
        .collect()
}

/// The op schedule: which pair each op aligns first.
pub fn schedule(seed: u64, ops: usize) -> Vec<[usize; 2]> {
    let mut rng = Rng::new(seed, 1);
    (0..ops)
        .map(|_| if rng.below(2) == 0 { [0, 1] } else { [1, 0] })
        .collect()
}

fn score(
    agg: &mut MacroAggregator,
    dataset: &Dataset,
    type_id: &str,
    derived: &[(String, String)],
) {
    let gold = dataset
        .ground_truth
        .for_type(type_id)
        .cloned()
        .unwrap_or_default();
    agg.add_type(derived, &gold, dataset.other_language(), &Language::En);
}

/// One op through the public engine API; returns pooled macro F. Each
/// pair's engine goes to `done` once the pair is scored. With a tracer, the
/// op, and within it each engine build, `align_all` and scoring, run in
/// spans of op id `id`.
fn op(
    datasets: &[Arc<Dataset>],
    order: [usize; 2],
    tracer: Option<&Tracer>,
    id: u64,
    mut done: impl FnMut(MatchEngine),
) -> f64 {
    maybe_span(tracer, id, None, "op", |root| {
        let mut agg = MacroAggregator::new();
        for &i in &order {
            let dataset = &datasets[i];
            let engine = maybe_span(tracer, id, root, "engine.build", |_| {
                MatchEngine::builder(Arc::clone(dataset)).build()
            });
            let alignments =
                maybe_span(tracer, id, root, "engine.align_all", |_| engine.align_all());
            maybe_span(tracer, id, root, "eval.score", |_| {
                for alignment in &alignments {
                    score(
                        &mut agg,
                        dataset,
                        &alignment.type_id,
                        &alignment.cross_pairs(),
                    );
                }
            });
            drop(alignments);
            done(engine);
        }
        agg.scores().f1
    })
}

/// Set-up: generate both pairs and run one untimed warm-up op, whose macro
/// F every later op must reproduce bit for bit.
fn setup() -> (Vec<Arc<Dataset>>, f64, f64) {
    let started = Instant::now();
    let datasets = datasets();
    let expected = op(&datasets, [0, 1], None, 0, drop);
    (datasets, expected, started.elapsed().as_secs_f64())
}

/// The timed closed loop: ops start until `until` is done. An op that ends
/// after the run, when the loop already holds the ops it needs, is cut off
/// and not counted. The loop's clocks leave out the calibration samples
/// taken between ops.
struct Loop {
    /// Seconds from the start of the loop to each counted op's end.
    op_ends: Vec<f64>,
    /// Milliseconds each counted op took.
    op_ms: Vec<f64>,
    /// Process CPU seconds from the start of the loop to the last counted
    /// op's end.
    cpu_s: f64,
    /// The median window's peak resident set ([`Region::peak_rss_mb`]).
    peak_rss_mb: f64,
    cut_off: u64,
    failed: u64,
}

fn closed_loop(
    until: Until,
    calibration: &mut Calibration,
    mut op: impl FnMut(usize) -> bool,
) -> Loop {
    let mut region = Region::start();
    let mut out = Loop {
        op_ends: Vec::new(),
        op_ms: Vec::new(),
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        cut_off: 0,
        failed: 0,
    };
    let mut i = 0;
    while !until.done(region.elapsed(), out.op_ends.len(), 0) {
        region.calibrate(calibration);
        let began = region.elapsed();
        let ok = op(i);
        i += 1;
        let end = region.elapsed();
        if end > until.run && out.op_ends.len() >= until.reads {
            out.cut_off += 1;
        } else {
            out.op_ends.push(end.as_secs_f64());
            out.op_ms.push((end - began).as_secs_f64() * 1e3);
            out.cpu_s = region.cpu_s();
            out.failed += u64::from(!ok);
        }
    }
    out.peak_rss_mb = region.peak_rss_mb();
    out
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut calibration = Calibration::new();
    let mut setups = SetupTimes::default();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut state = None;
    for _ in 0..repeats {
        drop(state.take());
        state = Some(setups.time(&mut calibration, || {
            let (datasets, expected, seconds) = setup();
            Ok(((datasets, expected), seconds))
        })?);
    }
    let (datasets, expected) = state.expect("set up at least once");
    let order = schedule(args.seed, 10_000);

    if args.trace {
        return traced(args, &datasets, expected, &order, calibration);
    }

    let window = CpuWindow::start();
    let until = Until {
        run: args.run,
        reads: MIN_SAMPLES,
        writes: 0,
    };
    let timed = closed_loop(until, &mut calibration, |i| {
        op(&datasets, order[i], None, 0, drop).to_bits() == expected.to_bits()
    });
    let cpu = window.finish();
    let ops = timed.op_ends.len();
    // The region ends with the run, or with the op that made the loop hold
    // the ops it needs.
    let end_s = timed
        .op_ends
        .last()
        .copied()
        .unwrap_or(0.0)
        .max(args.run.as_secs_f64());
    let throughput = ops_per_s(&timed.op_ends, end_s).ok_or("no op completed inside the run")?;
    eprintln!(
        "batch: {ops} ops, {} cut off, {} failed, steal {:.1}%",
        timed.cut_off, timed.failed, cpu.steal_pct
    );
    Ok(Outcome {
        attempted: ops as u64,
        failed: timed.failed,
        metrics: vec![
            metric("ops_per_s", throughput, "1/s"),
            metric("cpu_ms_per_op", timed.cpu_s * 1e3 / ops as f64, "ms"),
            metric("read_ms_p50", percentile(&timed.op_ms, 50.0)?, "ms"),
            metric("macro_f", expected, "F1"),
            metric("peak_rss_mb", timed.peak_rss_mb, "MB"),
        ],
        samples: vec![("ops", ops), ("calibration", calibration.samples())],
        detail: Vec::new(),
        cpu,
        host_factor: calibration.host_factor(),
        setup: setups,
    })
}

/// Thread milliseconds of `AttributeAlignment::run` over every type of
/// `engines`, on their cached artifacts, each call in a span; and the
/// integrations accepted. `paired` runs the calls through the rayon shim's
/// static chunks, as `align_all` does, so two run at once; otherwise they
/// run one after another.
fn alignment_direct(tracer: &Tracer, engines: &[MatchEngine], paired: bool) -> (f64, usize) {
    let align = |config, prepared: &PreparedType| {
        let start = Instant::now();
        let matches = tracer.span(DIRECT_OP, None, "core.alignment", |_| {
            AttributeAlignment::new(&prepared.schema, &prepared.table, config).run()
        });
        (start.elapsed().as_secs_f64() * 1e3, integrations(&matches))
    };
    let mut runs: Vec<(f64, usize)> = Vec::new();
    for engine in engines {
        let config = *engine.config();
        let artifacts = engine.cached_artifacts();
        if paired {
            runs.extend(
                artifacts
                    .par_iter()
                    .map(|(_, prepared)| align(config, prepared))
                    .collect::<Vec<_>>(),
            );
        } else {
            runs.extend(
                artifacts
                    .iter()
                    .map(|(_, prepared)| align(config, prepared)),
            );
        }
    }
    (
        runs.iter().map(|(ms, _)| ms).sum(),
        runs.iter().map(|(_, n)| n).sum(),
    )
}

/// The traced run: an untraced half for reference, then a traced half that
/// runs the same op in spans and reads the program's `wm_phase_seconds`
/// deltas and process CPU around each op. Alignment and the corpus
/// fingerprint record no phase; they are timed by calling
/// `AttributeAlignment::run` directly on each traced op's engines after
/// the op, and `corpus_fingerprint` on the corpora after the traced half.
/// Counts come from `EngineStats` and the engines' cached artifacts.
fn traced(
    args: &Args,
    datasets: &[Arc<Dataset>],
    expected: f64,
    order: &[[usize; 2]],
    mut calibration: Calibration,
) -> Result<Outcome, String> {
    let half = args.run / 2;
    let plain = closed_loop(Until::time(half), &mut calibration, |i| {
        op(datasets, order[i], None, 0, drop).to_bits() == expected.to_bits()
    });

    let tracer = Tracer::default();
    let window = CpuWindow::start();
    // Per op: phase deltas, process CPU seconds, and the op's alignments
    // timed directly after it, alone and paired. In the op the other
    // fan-out thread is aligning about half the time, so an alignment's
    // time there lies between the two; the mean of the two is taken.
    let mut readings: Vec<(BTreeMap<String, f64>, f64, f64)> = Vec::new();
    let mut last: Vec<MatchEngine> = Vec::new();
    let mut accepted = 0;
    let traced_loop = closed_loop(Until::time(half), &mut calibration, |i| {
        let before = phase_seconds();
        let cpu = host::process_cpu_s();
        let mut engines = Vec::new();
        let f = op(datasets, order[i], Some(&tracer), i as u64, |e| {
            engines.push(e)
        });
        let cpu = host::process_cpu_s() - cpu;
        let phases = phase_delta_ms(&before, &phase_seconds());
        let (alone_ms, n) = alignment_direct(&tracer, &engines, false);
        let (paired_ms, _) = alignment_direct(&tracer, &engines, true);
        readings.push((phases, cpu, (alone_ms + paired_ms) / 2.0));
        accepted = n;
        last = engines;
        f.to_bits() == expected.to_bits()
    });
    let cpu = window.finish();

    // An op cut off by the end of the half counts in neither half.
    let ops = traced_loop.op_ends.len();
    readings.truncate(ops);
    let per_op = |ms: f64| ms / ops.max(1) as f64;
    let mut phases: BTreeMap<String, f64> = BTreeMap::new();
    for (delta, _, _) in &readings {
        for (phase, ms) in delta {
            *phases.entry(phase.clone()).or_default() += ms;
        }
    }
    let phase_ms = |name: &str| per_op(phases.get(name).copied().unwrap_or(0.0));
    let similarity_ms: f64 = phases
        .iter()
        .filter(|(name, _)| name.starts_with("similarity_"))
        .map(|(_, ms)| per_op(*ms))
        .sum();
    let spans: Vec<_> = tracer
        .records()
        .into_iter()
        .filter(|s| (s.op as usize) < ops)
        .collect();
    let wall_ms = |name: &str| -> f64 {
        per_op(
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .sum(),
        )
    };
    let op_ms = wall_ms("op");
    let fanout_ms = wall_ms("engine.align_all");
    let score_ms = per_op(self_ms(&spans).get("eval.score").copied().unwrap_or(0.0));
    // The op's thread time: process CPU over the op, over one minus the
    // share the host stole, as phase times include steal.
    let thread_ms =
        per_op(readings.iter().map(|(_, cpu, _)| cpu * 1e3).sum()) / (1.0 - cpu.steal_pct / 100.0);
    let align_ms = per_op(readings.iter().map(|(_, _, ms)| ms).sum());
    let fingerprint_ms: f64 = datasets
        .iter()
        .map(|d| {
            direct(&tracer, "core.snapshot.fingerprint", 3, || {
                corpus_fingerprint(d)
            })
            .0
        })
        .sum();
    let (mut attributes, mut stored, mut candidates, mut scored, mut pruned) = (0, 0, 0, 0, 0);
    for engine in &last {
        let stats = engine.stats();
        scored += stats.pairs_scored;
        pruned += stats.pairs_pruned;
        let t_lsi = engine.config().t_lsi;
        for (_, prepared) in engine.cached_artifacts() {
            attributes += prepared.schema.len();
            stored += prepared.table.pairs().len();
            candidates += prepared.table.above_lsi(t_lsi).len();
        }
    }
    let _ = tracer.write_jsonl(&out_dir().join(format!("batch-seed{}.trace.jsonl", args.seed)));

    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    layers.insert("translate.dictionary_ms", phase_ms("dictionary_build"));
    layers.insert("core.snapshot.fingerprint_ms", fingerprint_ms);
    layers.insert(
        "text.intern_ms",
        phase_ms("arena_intern") + phase_ms("arena_freeze"),
    );
    layers.insert("core.schema.build_ms", phase_ms("schema_build"));
    layers.insert("core.schema.index_ms", phase_ms("candidate_index"));
    layers.insert("core.similarity.table_ms", similarity_ms);
    layers.insert("linalg.lsi_fit_ms", phase_ms("lsi_fit"));
    layers.insert("core.alignment.run_ms", align_ms);
    layers.insert("eval.score_ms", score_ms);
    let attributed: f64 = layers.values().sum();
    // The fan-out's idle threads: `align_all`'s wall time on every thread
    // the shim starts, minus the thread time spent in it (the op's thread
    // time less its single-threaded part).
    let threads = host::cores().min(datasets[0].types.len()) as f64;
    let fanout_thread_ms = thread_ms - (op_ms - fanout_ms);
    layers.insert(
        "rayon.fanout_ms",
        (fanout_ms * threads - fanout_thread_ms).max(0.0),
    );
    let mut metrics = crate::layers::layer_metrics(&layers);
    metrics.extend([
        metric("core.schema.attributes", attributes as f64, "count"),
        metric("core.similarity.pairs_scored", scored as f64, "count"),
        metric("core.similarity.pairs_pruned", pruned as f64, "count"),
        metric("core.similarity.stored_pairs", stored as f64, "count"),
        metric("core.alignment.candidates", candidates as f64, "count"),
        metric("core.alignment.accepted", accepted as f64, "count"),
        metric(
            "core.alignment.accept_ratio",
            accepted as f64 / candidates.max(1) as f64,
            "ratio",
        ),
    ]);
    let plain_op_ms =
        plain.op_ends.last().copied().unwrap_or(0.0) * 1e3 / plain.op_ends.len().max(1) as f64;
    metrics.extend(crate::layers::trace_metrics(
        op_ms,
        plain_op_ms,
        thread_ms,
        (thread_ms - attributed).max(0.0),
        cpu,
    ));
    Ok(Outcome {
        attempted: (ops + plain.op_ends.len()) as u64,
        failed: traced_loop.failed + plain.failed,
        metrics: crate::layers::complete(metrics),
        samples: vec![("traced_ops", ops), ("untraced_ops", plain.op_ends.len())],
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
    fn schedule_repeats_per_seed_and_changes_across_seeds() {
        assert_eq!(schedule(1, 64), schedule(1, 64));
        assert_ne!(schedule(1, 64), schedule(2, 64));
    }
}
