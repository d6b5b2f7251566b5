//! `serve-rw`: writes beside reads on one corpus. An in-process
//! `MatchServer` with 2 workers and a snapshot directory (so writes are
//! journaled) serves `pt-medium`; two keep-alive connections each run a
//! seeded schedule of `POST /align` reads of [`HOT_TYPE`] with one
//! single-entity film upsert per [`READS_PER_WRITE`] reads. Each connection
//! writes only its own probe articles, inserted in set-up.
//!
//! One client thread sends the two schedules' ops in turn, one request in
//! flight at a time, so the server sees the same sequence of reads and
//! writes in every run of a seed. With the two connections in flight at
//! once, every op on two vCPUs queued behind the other connection's, and
//! host steal of a few percent swung write p50 and read p99 by 30 %
//! between runs.
//!
//! A write drops every cached response of the corpus, so a cached read is
//! pure request path and the first read after a write re-runs alignment:
//! one read in [`READS_PER_WRITE`] recomputes, which puts the read median
//! on cached responses and the read p99 on recomputes. A write is a delta
//! patch, a dictionary rebuild and a journal append; one write in seven
//! also compacts, which regenerates the pristine corpus and spills a
//! compact snapshot, and that puts the write p90 on compactions. Only the
//! hot type and `film` are materialized, as lazy serving leaves them, so a
//! write patches and a compaction spills those two types.
//!
//! The timed region lasts `--seconds` and runs on, if need be, until it
//! holds the reads `read_ms_p50` needs. `macro_f` scores the served pairs
//! of every type, read in the final output check, against ground truth.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use wiki_corpus::{Article, Dataset, Language};
use wiki_eval::MacroAggregator;
use wiki_serve::protocol::{AlignRequest, AlignResponse, MutateRequest, MutateResponse};
use wiki_serve::{CorpusSpec, Registry};
use wikimatch::{AttributeAlignment, ComputeMode, CorpusDelta, DeltaOp, MatchEngine};

use crate::calib::{Calibration, Region, SetupTimes};
use crate::host::CpuWindow;
use crate::layers::{self, integrations};
use crate::rng::Rng;
use crate::served::{body, direct, post_ok, timed, Driven, OpSample, Served, ServerSums, Until};
use crate::stats::{median, percentile, MIN_SAMPLES};
use crate::trace::{maybe_span, phase_delta_ms, phase_seconds, Tracer};
use crate::{metric, out_dir, Args, Outcome, SETUP_REPEATS};

const CORPUS: &str = "pt-medium";
const ENTITIES: &str = "/corpora/pt-medium/entities";
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
/// The type reads go to. One type keeps the read p99 one population of
/// recomputes and recomputes per write at one.
pub const HOT_TYPE: &str = "channel";
/// The type the probes belong to.
const PROBE_TYPE: &str = "film";
/// Reads per write on each connection: one read in nine recomputes.
pub const READS_PER_WRITE: usize = 9;
/// Schedule length per connection; far more than a run can use.
const SCHEDULE_OPS: usize = 20_000;

/// The served corpus: the canonical `pt-medium` tier. Its work per op
/// depends on its generator seed by about 10 %, so the seed varies the
/// schedule and the probes instead of the corpus.
pub fn spec() -> CorpusSpec {
    CorpusSpec::tier(Language::Pt, "medium").expect("the medium tier exists")
}

/// One op of a connection's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /align` of [`HOT_TYPE`].
    Read,
    /// The connection's `n`-th probe upsert.
    Write(u64),
}

/// Connection `connection`'s schedule: blocks of [`READS_PER_WRITE`] reads
/// with one write at a seeded position.
pub fn schedule(seed: u64, connection: usize, ops: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 100 + connection as u64);
    let mut out = Vec::with_capacity(ops + READS_PER_WRITE);
    let mut writes = 0;
    while out.len() < ops {
        let at = rng.below(READS_PER_WRITE + 1);
        for slot in 0..=READS_PER_WRITE {
            if slot == at {
                out.push(Op::Write(writes));
                writes += 1;
            } else {
                out.push(Op::Read);
            }
        }
    }
    out.truncate(ops);
    out
}

/// The articles one connection writes: a Portuguese film and its English
/// counterpart, copied from the connection's template film under seeded
/// titles of its own and linked to each other. Every seed edits the same
/// templates, so a write recomputes the same rows whatever the seed.
#[derive(Debug, Clone)]
pub struct Probe {
    pub pt: Article,
    pub en: Article,
    salt: u64,
}

impl Probe {
    /// The `step`-th edit: the first infobox value gets a new suffix, so
    /// every write changes the corpus and dirties the film rows.
    pub fn edited(&self, step: u64) -> Article {
        let mut article = self.pt.clone();
        if let Some(attr) = article.infobox.attributes.first_mut() {
            attr.value = format!("{} (edição {step}.{})", attr.value, self.salt);
        }
        article
    }
}

pub fn probes(dataset: &Dataset, seed: u64) -> Vec<Probe> {
    let en = Language::En;
    let mut templates: Vec<&Article> = dataset
        .corpus
        .articles_in(&Language::Pt)
        .filter(|a| {
            a.entity_type == "Filme"
                && !a.infobox.attributes.is_empty()
                && a.cross_link_to(&en)
                    .is_some_and(|t| dataset.corpus.get_by_title(&en, t).is_some())
        })
        .collect();
    templates.sort_by(|a, b| a.title.cmp(&b.title));
    let mut rng = Rng::new(seed, 200);
    let tag = rng.next_u64() % 1_000_000;
    (0..CONNECTIONS)
        .map(|c| {
            let template = templates[c];
            let en_title = template.cross_link_to(&en).expect("filtered on the link");
            let en_template = dataset
                .corpus
                .get_by_title(&en, en_title)
                .expect("filtered on the target");
            let (pt_title, en_title) = (format!("Sonda {c}-{tag}"), format!("Probe {c}-{tag}"));
            let mut pt = template.clone();
            pt.title = pt_title.clone();
            pt.cross_links = vec![(en.clone(), en_title.clone())];
            let mut en_article = en_template.clone();
            en_article.title = en_title;
            en_article.cross_links = vec![(Language::Pt, pt_title)];
            Probe {
                pt,
                en: en_article,
                salt: rng.next_u64() % 1_000,
            }
        })
        .collect()
}

/// A set-up server, ready for the timed region.
struct Setup {
    served: Served,
    probes: Vec<Probe>,
    /// Request body of a read, and the response set-up got for it. Writes
    /// only change film values, so every read of the run must get it too.
    read: (String, String),
    seconds: f64,
}

fn upsert_body(articles: Vec<Article>) -> String {
    body(&MutateRequest { entities: articles })
}

fn align_body(type_id: &str) -> String {
    body(&AlignRequest {
        corpus: CORPUS.to_string(),
        type_id: Some(type_id.to_string()),
    })
}

/// Set-up: start the server, insert the probes, then read the probe type
/// and the hot type once, which materializes them.
fn setup(seed: u64, index: usize, traced: bool) -> Result<Setup, String> {
    let started = Instant::now();
    let dir = Served::snapshot_dir("serve-rw", index);
    let registry = Registry::new(2, ComputeMode::default()).with_snapshot_dir(&dir);
    registry.register(spec());
    let served = Served::start(registry, dir, WORKERS, traced)?;
    let mut client = served.client();
    let dataset = served
        .registry
        .engine(CORPUS)
        .map_err(|e| e.to_string())?
        .dataset();
    let probes = probes(&dataset, seed);
    for probe in &probes {
        post_ok(
            &mut client,
            ENTITIES,
            &upsert_body(vec![probe.pt.clone(), probe.en.clone()]),
        )?;
    }
    post_ok(&mut client, "/align", &align_body(PROBE_TYPE))?;
    let request = align_body(HOT_TYPE);
    let expected = post_ok(&mut client, "/align", &request)?;
    Ok(Setup {
        served,
        probes,
        read: (request, expected),
        seconds: started.elapsed().as_secs_f64(),
    })
}

/// What a write ack reported.
#[derive(Debug, Clone, Copy, Default)]
struct WriteAck {
    rows: u64,
    types: u64,
}

fn write_ack(body: &str) -> Option<WriteAck> {
    let ack: MutateResponse = serde_json::from_str(body).ok()?;
    (ack.updated == 1 && ack.inserted == 0 && ack.removed == 0).then_some(WriteAck {
        rows: ack.rows_recomputed,
        types: ack.types_patched as u64,
    })
}

/// Runs both connections' schedules until `until`, taking their ops in turn
/// and sampling the host between them; the region's clocks leave the
/// samples out.
fn drive(
    setup: &Setup,
    seed: u64,
    until: Until,
    calibration: &mut Calibration,
    tracer: Option<&Tracer>,
) -> (Driven, Vec<WriteAck>) {
    let mut clients: Vec<_> = (0..CONNECTIONS).map(|_| setup.served.client()).collect();
    let mut schedules: Vec<_> = (0..CONNECTIONS)
        .map(|c| schedule(seed, c, SCHEDULE_OPS).into_iter())
        .collect();
    let mut samples = Vec::new();
    let mut acks = Vec::new();
    let (mut reads, mut writes) = (0, 0);
    let mut region = Region::start();
    for (n, c) in (0..CONNECTIONS).cycle().enumerate() {
        region.calibrate(calibration);
        if until.done(region.elapsed(), reads, writes) {
            break;
        }
        let Some(op) = schedules[c].next() else {
            break;
        };
        let client = &mut clients[c];
        let (path, request) = match op {
            Op::Read => ("/align", setup.read.0.clone()),
            Op::Write(step) => (ENTITIES, upsert_body(vec![setup.probes[c].edited(step)])),
        };
        let (ms, response) = maybe_span(tracer, n as u64, None, "op", |_| {
            timed(client, path, &request)
        });
        let ok = match (op, response) {
            (Op::Read, Some(r)) => r.status == 200 && r.body == setup.read.1,
            (Op::Write(_), Some(r)) if r.status == 200 => match write_ack(&r.body) {
                Some(ack) => {
                    acks.push(ack);
                    true
                }
                None => false,
            },
            _ => false,
        };
        let write = op != Op::Read;
        reads += usize::from(!write);
        writes += usize::from(write);
        samples.push(OpSample { write, ms, ok });
    }
    (Driven::new(samples, region), acks)
}

/// The output check: reset the probes to their set-up content, then compare
/// every type's served pairs, and the corpus fingerprint, with a fresh
/// in-process engine over the same final corpus. Returns (checks, failed,
/// macro F of the served pairs).
fn final_check(setup: &Setup) -> (u64, u64, f64) {
    let mut client = setup.served.client();
    let mut checks = 0;
    let mut failed = 0;
    for probe in &setup.probes {
        checks += 1;
        let reset = post_ok(&mut client, ENTITIES, &upsert_body(vec![probe.pt.clone()]));
        failed += u64::from(reset.is_err());
    }
    let mut dataset = spec().dataset();
    let mut delta = CorpusDelta::new();
    for probe in &setup.probes {
        delta.push(DeltaOp::Upsert(probe.pt.clone()));
        delta.push(DeltaOp::Upsert(probe.en.clone()));
    }
    delta.apply_to(&mut dataset.corpus);
    let dataset = Arc::new(dataset);
    let reference = MatchEngine::builder(Arc::clone(&dataset)).build();
    let mut agg = MacroAggregator::new();
    for alignment in reference.align_all() {
        checks += 1;
        let served: Option<AlignResponse> =
            post_ok(&mut client, "/align", &align_body(&alignment.type_id))
                .ok()
                .and_then(|b| serde_json::from_str(&b).ok());
        let pairs = served
            .and_then(|mut r| (r.alignments.len() == 1).then(|| r.alignments.remove(0).pairs));
        if let Some(pairs) = &pairs {
            let gold = dataset
                .ground_truth
                .for_type(&alignment.type_id)
                .cloned()
                .unwrap_or_default();
            agg.add_type(pairs, &gold, dataset.other_language(), &Language::En);
        }
        if pairs != Some(alignment.cross_pairs()) {
            eprintln!(
                "serve-rw: served pairs of {} differ from a fresh engine",
                alignment.type_id
            );
            failed += 1;
        }
    }
    checks += 1;
    let live = setup
        .served
        .registry
        .engine(CORPUS)
        .map(|e| e.fingerprint());
    if live != Ok(reference.fingerprint()) {
        eprintln!("serve-rw: served corpus fingerprint differs from the reference");
        failed += 1;
    }
    (checks, failed, agg.scores().f1)
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
            let setup = setup(args.seed, index, false)?;
            let seconds = setup.seconds;
            Ok((setup, seconds))
        })?);
    }
    let setup = current.expect("set up at least once");
    let engine = setup
        .served
        .registry
        .engine(CORPUS)
        .map_err(|e| e.to_string())?;
    let alignments_before = engine.stats().alignments;

    let window = CpuWindow::start();
    let until = Until {
        run: args.run,
        reads: MIN_SAMPLES,
        writes: 0,
    };
    let (driven, acks) = drive(&setup, args.seed, until, &mut calibration, None);
    let cpu = window.finish();
    let misses = engine.stats().alignments - alignments_before;
    let (checks, check_failures, macro_f) = final_check(&setup);
    let compactions = setup.served.registry.stats().corpora[0].compactions;
    setup.served.shutdown();

    let (reads, writes) = (driven.ms(false), driven.ms(true));
    let failed = driven.failed() + check_failures;
    eprintln!(
        "serve-rw: {} reads ({misses} recomputed), {} writes ({} acked, {compactions} compactions), {} failed, steal {:.1}%",
        reads.len(),
        writes.len(),
        acks.len(),
        failed,
        cpu.steal_pct
    );
    let mut metrics = driven.metrics()?;
    metrics.push(metric("macro_f", macro_f, "F1"));
    // Each population's own percentiles, where the run holds enough samples
    // for them.
    let detail = [
        ("read_ms_p99", &reads, 99.0),
        ("write_ms_p50", &writes, 50.0),
        ("write_ms_p90", &writes, 90.0),
    ]
    .into_iter()
    .filter_map(|(name, ms, p)| Some((name, percentile(ms, p).ok()?)))
    .collect();
    Ok(Outcome {
        attempted: driven.samples.len() as u64 + checks,
        failed,
        metrics,
        samples: vec![
            ("reads", reads.len()),
            ("writes", writes.len()),
            ("read_recomputes", misses as usize),
            ("calibration", calibration.samples()),
        ],
        detail,
        cpu,
        host_factor: calibration.host_factor(),
        setup: setups,
    })
}

/// The traced run: an untraced half on one server, then a traced half on a
/// second server that logs every request's phase segments. Work the server
/// does inside `req_compute` without a phase of its own is split by calling
/// the same public functions directly on the same inputs afterwards.
fn traced(args: &Args) -> Result<Outcome, String> {
    let half = args.run / 2;
    let plain_setup = setup(args.seed, 0, false)?;
    let mut calibration = Calibration::new();
    let (plain, _) = drive(
        &plain_setup,
        args.seed,
        Until::time(half),
        &mut calibration,
        None,
    );
    plain_setup.served.shutdown();

    let setup = setup(args.seed, 1, true)?;
    let registry = Arc::clone(&setup.served.registry);
    let engine = registry.engine(CORPUS).map_err(|e| e.to_string())?;
    let (stats0, engine0) = (registry.stats().corpora[0].clone(), engine.stats());
    let logged0 = setup.served.logged().len();
    let tracer = Tracer::default();
    let window = CpuWindow::start();
    let (driven, acks) = drive(
        &setup,
        args.seed,
        Until::time(half),
        &mut calibration,
        Some(&tracer),
    );
    let samples = driven.samples;
    let cpu = window.finish();
    let (stats1, engine1) = (registry.stats().corpora[0].clone(), engine.stats());
    let lines: Vec<String> = setup.served.logged().split_off(logged0);
    let reads = ServerSums::of(&lines, "align");
    let writes = ServerSums::of(&lines, "entities");

    // Direct calls on the same inputs, after the traced stretch.
    let config = *engine.config();
    let prepared = engine.prepared(HOT_TYPE).ok_or("hot type missing")?;
    let (align_ms, matches) = direct(&tracer, "core.alignment", 3, || {
        AttributeAlignment::new(&prepared.schema, &prepared.table, config).run()
    });
    let candidates = prepared.table.above_lsi(config.t_lsi).len() as f64;
    let accepted = integrations(&matches) as f64;
    let (generate_ms, _) = direct(&tracer, "corpus.generate", 3, || spec().dataset());
    // `apply_delta` on a shadow engine over the final corpus, with the
    // served engine's types materialized: its time minus its own phases is
    // the part the server's write segments fold into `req_compute`
    // (dataset copy, delta application, fingerprint).
    let shadow = MatchEngine::builder(engine.dataset()).build();
    for type_id in [HOT_TYPE, PROBE_TYPE] {
        shadow.prepared(type_id);
    }
    let mut unphased = Vec::new();
    for step in 0..3 {
        let delta = CorpusDelta::upsert(setup.probes[0].edited(1_000_000 + step));
        let before = phase_seconds();
        let (ms, _) = direct(&tracer, "core.delta", 1, || shadow.apply_delta(&delta));
        let phases = phase_delta_ms(&before, &phase_seconds());
        let own: f64 = ["dictionary_build", "delta_patch"]
            .iter()
            .map(|p| phases.get(*p).copied().unwrap_or(0.0))
            .sum();
        unphased.push((ms - own).max(0.0));
    }
    let delta_unphased_ms = median(&unphased);
    let v3_bytes =
        std::fs::metadata(setup.served.dir.join(format!("{CORPUS}.snap"))).map_or(0, |m| m.len());
    let _ = tracer.write_jsonl(&out_dir().join(format!("serve-rw-seed{}.trace.jsonl", args.seed)));
    setup.served.shutdown();

    let ops = samples.len().max(1) as f64;
    let write_ops = samples.iter().filter(|s| s.write).count() as f64;
    let misses = (engine1.alignments - engine0.alignments) as f64;
    let compactions = (stats1.compactions - stats0.compactions) as f64;
    let client_ms: f64 = samples.iter().map(|s| s.ms).sum();
    let server_ms = reads.total_ms + writes.total_ms;
    let phase = |name: &str| reads.phase(name) + writes.phase(name);

    let read_compute = reads.phase("req_compute");
    let alignment = (misses * align_ms).min(read_compute);
    let write_compute = writes.phase("req_compute");
    let generate = (compactions * generate_ms).min(write_compute);
    let delta_rest = (write_ops * delta_unphased_ms).min(write_compute - generate);
    let mutate_ms: f64 = writes
        .phases
        .iter()
        .filter(|(p, _)| {
            !["req_queue_wait", "req_parse", "req_lookup", "req_serialize"].contains(&p.as_str())
        })
        .map(|(_, ms)| ms)
        .sum();

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |name: &'static str, total_ms: f64| {
        *values.entry(name).or_default() += total_ms / ops;
    };
    put(
        "serve.server.client_overhead_ms",
        (client_ms - server_ms).max(0.0),
    );
    put("serve.server.queue_wait_ms", phase("req_queue_wait"));
    put("serve.server.parse_ms", phase("req_parse"));
    put("serve.server.serialize_ms", phase("req_serialize"));
    put("serve.server.compute_ms", read_compute - alignment);
    put(
        "serve.registry.self_ms",
        phase("req_lookup") + write_compute - generate - delta_rest,
    );
    put("core.alignment.run_ms", alignment);
    put("corpus.generate_ms", generate);
    put("core.delta.apply_ms", phase("delta_patch") + delta_rest);
    put("translate.dictionary_ms", phase("dictionary_build"));
    put("core.snapshot.encode_ms", phase("snapshot_encode"));
    put("core.snapshot.save_ms", phase("snapshot_save"));
    let mut metrics = layers::layer_metrics(&values);
    let rows: u64 = acks.iter().map(|a| a.rows).sum();
    let types: u64 = acks.iter().map(|a| a.types).sum();
    let accesses = (stats1.hits + stats1.misses - stats0.hits - stats0.misses).max(1) as f64;
    metrics.extend([
        metric(
            "core.alignment.candidates",
            candidates * misses / ops,
            "count",
        ),
        metric("core.alignment.accepted", accepted * misses / ops, "count"),
        metric(
            "core.alignment.accept_ratio",
            accepted / candidates.max(1.0),
            "ratio",
        ),
        metric("core.delta.rows_recomputed", rows as f64 / ops, "count"),
        metric("core.delta.types_patched", types as f64 / ops, "count"),
        metric("core.snapshot.v3_mb", v3_bytes as f64 / 1e6, "MB"),
        metric(
            "serve.registry.mutate_ms",
            mutate_ms / write_ops.max(1.0),
            "ms",
        ),
        metric(
            "serve.registry.hit_ratio",
            (stats1.hits - stats0.hits) as f64 / accesses,
            "ratio",
        ),
        metric(
            "serve.registry.evictions",
            (stats1.evictions - stats0.evictions) as f64 / ops,
            "count",
        ),
        metric("serve.registry.compactions", compactions / ops, "count"),
        metric(
            "serve.registry.journal_bytes_per_write",
            stats1.journal_bytes as f64 / stats1.journal_records.max(1) as f64,
            "B",
        ),
        metric(
            "serve.server.failed",
            samples.iter().filter(|s| !s.ok).count() as f64,
            "count",
        ),
    ]);
    let unattributed = reads.unphased_ms() + writes.unphased_ms();
    let plain = plain.samples;
    let plain_op_ms = plain.iter().map(|s| s.ms).sum::<f64>() / plain.len().max(1) as f64;
    metrics.extend(layers::trace_metrics(
        client_ms / ops,
        plain_op_ms,
        client_ms / ops,
        unattributed / ops,
        cpu,
    ));
    eprintln!(
        "serve-rw traced: {} ops ({} writes, {misses} recomputes, {compactions} compactions); {} logged requests",
        samples.len(),
        write_ops,
        reads.requests + writes.requests
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
    fn schedule_repeats_per_seed_and_changes_across_seeds() {
        assert_eq!(schedule(3, 0, 500), schedule(3, 0, 500));
        assert_ne!(schedule(3, 0, 500), schedule(4, 0, 500));
        assert_ne!(
            schedule(3, 0, 500),
            schedule(3, 1, 500),
            "connections differ"
        );
        let block = READS_PER_WRITE + 1;
        let writes = schedule(3, 0, block * 40)
            .iter()
            .filter(|op| matches!(op, Op::Write(_)))
            .count();
        assert_eq!(writes, 40, "one write per block of {READS_PER_WRITE} reads");
    }

    /// The corpus a seed serves: the tier (tiny here, for speed) plus the
    /// seed's probes, as set-up inserts them.
    fn fingerprint(seed: u64) -> u64 {
        let mut dataset = CorpusSpec::tier(Language::Pt, "tiny")
            .expect("tiny tier")
            .dataset();
        let mut delta = CorpusDelta::new();
        for probe in probes(&dataset, seed) {
            delta.push(DeltaOp::Upsert(probe.pt));
            delta.push(DeltaOp::Upsert(probe.en));
        }
        delta.apply_to(&mut dataset.corpus);
        wikimatch::corpus_fingerprint(&dataset)
    }

    #[test]
    fn corpus_fingerprint_repeats_per_seed_and_changes_across_seeds() {
        assert_eq!(fingerprint(5), fingerprint(5));
        assert_ne!(fingerprint(5), fingerprint(6));
    }
}
