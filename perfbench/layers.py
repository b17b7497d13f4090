"""Per-layer metrics of a traced run.

Each metric is named ``<layer>.<quantity>`` after the repository module
it measures (see README.md for the layer → end-to-end prediction
table).  "Per example" means per evaluated example on the batch
workloads and per request on serve-mixed.  Times are self times
(span duration minus child spans on the same thread) unless the name
says otherwise.  A metric whose layer does not run on a workload reads
0, so every workload reports the same set.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.obs.metrics import M_REPAIR_ROUNDS, M_SEMANTIC_DEDUP, MetricsRegistry

from .tracing import ATTR, END, NAME, START, LayerTotals, TraceData

#: Cache stages whose hit rates are reported.
CACHE_STAGES = ("select", "generate", "analyze", "execute", "gold")

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "select.wall_ms_per_example": "ms",
    "select.cpu_ms_per_example": "ms",
    "select.similarity_calls_per_example": "count",
    "build.wall_ms_per_example": "ms",
    "tokenizer.hit_rate": "ratio",
    "generate.calls_per_example": "count",
    "generate.ms_per_call": "ms",
    "extract.ms_per_example": "ms",
    "sql.parses_per_example": "count",
    "sql.parse_ms_per_example": "ms",
    "sql.canonical_per_example": "count",
    "analyze.calls_per_example": "count",
    "analyze.ms_per_call": "ms",
    "analyze.fatal_share": "ratio",
    "execute.calls_per_example": "count",
    "execute.wall_ms_per_example": "ms",
    "execute.cpu_ms_per_example": "ms",
    "execute.wait_ratio": "ratio",
    "dedup.saved_share": "ratio",
    "score.ms_per_example": "ms",
    "repair.rounds_per_example": "count",
    "repair.recovered_share": "ratio",
    "engine.unattributed_ms_per_example": "ms",
    "engine.utilization": "ratio",
    **{f"cache.hit_rate.{stage}": "ratio" for stage in CACHE_STAGES},
    "cache.entries": "count",
    "serve.service_ms.generate": "ms",
    "serve.service_ms.lint": "ms",
    "serve.service_ms.execute": "ms",
    "serve.http_ms_per_request": "ms",
    "coalesce.wait_ms_per_generate": "ms",
    "coalesce.batch_size": "count",
    "ratelimit.acquire_ms": "ms",
    "generator.lateness_p99_ms": "ms",
    "trace.overhead_share": "ratio",
}

#: Metrics that count work (or are ratios of counts).  On batch-vote
#: they come from serial traced passes, where they repeat exactly.
COUNT_METRICS = (
    "select.similarity_calls_per_example",
    "generate.calls_per_example",
    "sql.parses_per_example",
    "sql.canonical_per_example",
    "analyze.calls_per_example",
    "analyze.fatal_share",
    "execute.calls_per_example",
    "dedup.saved_share",
    "repair.rounds_per_example",
    "repair.recovered_share",
)

_NONE = LayerTotals()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def registry_counts(registry: MetricsRegistry) -> Dict[str, float]:
    """Dedup saves and repair-loop events from a run's metrics registry."""
    rounds = {
        labels.get("outcome", ""): value
        for labels, value in registry.counter_series(M_REPAIR_ROUNDS)
    }
    return {
        "dedup.saves": registry.counter_value(M_SEMANTIC_DEDUP),
        "repair.rounds": rounds.get("recovered", 0) + rounds.get("failed", 0),
        "repair.recovered": rounds.get("recovered", 0),
        "repair.exhausted": rounds.get("exhausted", 0),
    }


def cache_hit_rates(stats: Mapping[str, Mapping[str, int]]) -> Dict[str, float]:
    """``cache.hit_rate.<stage>`` from :meth:`ArtifactCache.stats` counters."""
    out = {}
    for stage in CACHE_STAGES:
        entry = stats.get(stage, {})
        hits, misses = entry.get("hits", 0), entry.get("misses", 0)
        out[f"cache.hit_rate.{stage}"] = _ratio(hits, hits + misses)
    return out


def exact_counts(trace: TraceData, counts: Mapping[str, float],
                 examples: int) -> Dict[str, float]:
    """The counts a later change may claim on, for one traced pass: per
    example parses, canonical fingerprints, executions and generate
    calls, plus dedup saves and repair rounds.  They must repeat exactly."""
    totals = trace.totals()
    return {
        "sql.parses_per_example":
            totals.get("parse", _NONE).calls / examples,
        "sql.canonical_per_example":
            totals.get("canonical", _NONE).calls / examples,
        "execute.calls_per_example":
            totals.get("execute", _NONE).calls / examples,
        "generate.calls_per_example":
            totals.get("generate", _NONE).calls / examples,
        "dedup.saves": counts["dedup.saves"],
        "repair.rounds": counts["repair.rounds"],
    }


def layer_metrics(
    trace: TraceData,
    examples: int,
    counts: Mapping[str, float],
    extra: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER_UNITS` metric.

    ``trace`` holds the traced passes or phases, ``examples`` the
    examples (or requests) they processed, ``counts`` the summed
    :func:`registry_counts`, and ``extra`` the metrics measured outside
    the spans (engine accounting, cache statistics, client-side serve
    timings, generator lateness, tracing overhead).
    """
    totals = trace.totals()
    per = max(examples, 1)

    def t(name: str) -> LayerTotals:
        return totals.get(name, _NONE)

    select, generate, analyze, execute = (
        t("select"), t("generate"), t("analyze"), t("execute")
    )
    score_s = sum(
        t(name).self_wall_s
        for name in ("score.exact_match", "score.semantic_match",
                     "score.results_match")
    )
    lookups = trace.counts.get("tokenizer.lookups", 0)
    misses = trace.counts.get("tokenizer.misses", 0)
    extracted = t("extract").calls
    coalesced = t("coalesce.generate")
    batches = t("generate_batch")
    batch_member_s = sum(
        (span[END] - span[START]) * span[ATTR]
        for spans in trace.threads
        for span in spans
        if span[NAME] == "generate_batch"
    )
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    metrics.update({
        "select.wall_ms_per_example": select.self_wall_s * 1e3 / per,
        "select.cpu_ms_per_example": select.self_cpu_s * 1e3 / per,
        "select.similarity_calls_per_example":
            trace.counts.get("select.similarity", 0) / per,
        "build.wall_ms_per_example": t("build").self_wall_s * 1e3 / per,
        "tokenizer.hit_rate": _ratio(lookups - misses, lookups),
        "generate.calls_per_example": generate.calls / per,
        "generate.ms_per_call":
            _ratio(generate.self_wall_s * 1e3, generate.calls),
        "extract.ms_per_example": t("extract").self_wall_s * 1e3 / per,
        "sql.parses_per_example": t("parse").calls / per,
        "sql.parse_ms_per_example": t("parse").self_wall_s * 1e3 / per,
        "sql.canonical_per_example": t("canonical").calls / per,
        "analyze.calls_per_example": analyze.calls / per,
        "analyze.ms_per_call": _ratio(analyze.self_wall_s * 1e3, analyze.calls),
        "analyze.fatal_share": _ratio(sum(analyze.attrs), analyze.calls),
        "execute.calls_per_example": execute.calls / per,
        "execute.wall_ms_per_example": execute.self_wall_s * 1e3 / per,
        "execute.cpu_ms_per_example": execute.self_cpu_s * 1e3 / per,
        "execute.wait_ratio": _ratio(execute.self_wall_s, execute.self_cpu_s),
        "dedup.saved_share": _ratio(counts.get("dedup.saves", 0), extracted),
        "score.ms_per_example": score_s * 1e3 / per,
        "repair.rounds_per_example": counts.get("repair.rounds", 0) / per,
        "repair.recovered_share": _ratio(
            counts.get("repair.recovered", 0),
            counts.get("repair.recovered", 0) + counts.get("repair.exhausted", 0),
        ),
        "serve.service_ms.generate": _ratio(
            t("serve.generate").incl_wall_s * 1e3, t("serve.generate").calls),
        "serve.service_ms.lint": _ratio(
            t("serve.lint").incl_wall_s * 1e3, t("serve.lint").calls),
        "serve.service_ms.execute": _ratio(
            t("serve.execute").incl_wall_s * 1e3, t("serve.execute").calls),
        "coalesce.wait_ms_per_generate": _ratio(
            (coalesced.incl_wall_s - batch_member_s) * 1e3, coalesced.calls),
        "coalesce.batch_size": _ratio(sum(batches.attrs), batches.calls),
        "ratelimit.acquire_ms": _ratio(
            t("ratelimit.acquire").incl_wall_s * 1e3,
            t("ratelimit.acquire").calls),
    })
    metrics.update(extra or {})
    return metrics
