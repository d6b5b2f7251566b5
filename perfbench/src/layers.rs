//! The per-layer metrics a traced run prints. Every traced run prints all
//! of them; a layer a workload never enters reads 0. Time metrics are self
//! time in milliseconds per op (summed over threads, so in a parallel op
//! they add up to more than its wall time); see `METRICS.md`.

use std::collections::BTreeMap;

use wikimatch::MatchSet;

use crate::host::CpuUse;
use crate::{metric, Metric};

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.generate_ms", "ms"),
    ("translate.dictionary_ms", "ms"),
    ("text.intern_ms", "ms"),
    ("core.schema.build_ms", "ms"),
    ("core.schema.index_ms", "ms"),
    ("core.schema.attributes", "count"),
    ("core.similarity.table_ms", "ms"),
    ("core.similarity.pairs_scored", "count"),
    ("core.similarity.pairs_pruned", "count"),
    ("core.similarity.stored_pairs", "count"),
    ("linalg.lsi_fit_ms", "ms"),
    ("core.alignment.run_ms", "ms"),
    ("core.alignment.candidates", "count"),
    ("core.alignment.accepted", "count"),
    ("core.alignment.accept_ratio", "ratio"),
    ("core.delta.apply_ms", "ms"),
    ("core.delta.rows_recomputed", "count"),
    ("core.delta.types_patched", "count"),
    ("core.snapshot.fingerprint_ms", "ms"),
    ("core.snapshot.encode_ms", "ms"),
    ("core.snapshot.save_ms", "ms"),
    ("core.snapshot.map_open_ms", "ms"),
    ("core.snapshot.decode_mapped_ms", "ms"),
    ("core.snapshot.page_in_ms", "ms"),
    ("core.snapshot.page_ins", "count"),
    ("core.snapshot.v3_mb", "MB"),
    ("core.snapshot.v4_mb", "MB"),
    ("serve.registry.self_ms", "ms"),
    ("serve.registry.cold_ms", "ms"),
    ("serve.registry.mutate_ms", "ms"),
    ("serve.registry.hit_ratio", "ratio"),
    ("serve.registry.evictions", "count"),
    ("serve.registry.compactions", "count"),
    ("serve.registry.journal_bytes_per_write", "B"),
    ("serve.server.queue_wait_ms", "ms"),
    ("serve.server.parse_ms", "ms"),
    ("serve.server.compute_ms", "ms"),
    ("serve.server.serialize_ms", "ms"),
    ("serve.server.client_overhead_ms", "ms"),
    ("serve.server.failed", "count"),
    ("eval.score_ms", "ms"),
    ("rayon.fanout_ms", "ms"),
    ("rayon.cpu_util", "ratio"),
    ("host.steal_pct", "%"),
    ("trace.op_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.attributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Integrations an alignment accepted (`core.alignment.accepted`): each
/// seeds a cluster of two or adds one member to a cluster.
pub fn integrations(matches: &MatchSet) -> usize {
    matches.clusters().iter().map(|c| c.len() - 1).sum()
}

/// Layer values by name, as metrics with their units.
pub fn layer_metrics(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    values
        .iter()
        .map(|(name, value)| {
            let (_, unit) = PER_LAYER
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
            metric(name, *value, unit)
        })
        .collect()
}

/// The attribution and overhead of a traced run, per op: `op_ms` is the
/// traced ops' wall time and `untraced_op_ms` that of the untraced half
/// before them; `unattributed_ms` is the part of `attributed_of_ms` no
/// layer covers. For the serving workloads `attributed_of_ms` is `op_ms`;
/// for `batch`, whose layer times add up over the fan-out's threads, it is
/// the op's thread time.
pub fn trace_metrics(
    op_ms: f64,
    untraced_op_ms: f64,
    attributed_of_ms: f64,
    unattributed_ms: f64,
    cpu: CpuUse,
) -> Vec<Metric> {
    vec![
        metric("trace.op_ms", op_ms, "ms"),
        metric("trace.unattributed_ms", unattributed_ms, "ms"),
        metric(
            "trace.attributed_pct",
            100.0 * (1.0 - unattributed_ms / attributed_of_ms.max(1e-9)),
            "%",
        ),
        metric(
            "trace.overhead_pct",
            100.0 * (op_ms - untraced_op_ms) / untraced_op_ms.max(1e-9),
            "%",
        ),
        metric("rayon.cpu_util", cpu.cpu_util(), "ratio"),
        metric("host.steal_pct", cpu.steal_pct, "%"),
    ]
}

/// Orders `metrics` as [`PER_LAYER`] does and adds every layer the run did
/// not enter, at 0.
pub fn complete(metrics: Vec<Metric>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            metrics
                .iter()
                .find(|m| m.name == *name)
                .cloned()
                .unwrap_or_else(|| metric(name, 0.0, unit))
        })
        .collect()
}
