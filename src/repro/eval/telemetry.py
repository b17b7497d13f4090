"""Run telemetry: stage timings, worker utilization, cache hit rates.

The evaluation engine instruments every example it evaluates through a
:class:`TelemetryCollector` — a thread-safe accumulator shared by all
workers of one run.  Since the observability layer landed the collector
is a thin façade over a :class:`~repro.obs.metrics.MetricsRegistry`
(counters/histograms, Prometheus-exportable) and, when a tracer is
attached, also emits per-example and per-stage spans to the run's trace
file.  When the run finishes the collector is frozen into a
:class:`RunTelemetry` attached to the
:class:`~repro.eval.metrics.EvalReport`, so sweep cost is a first-class,
persisted artifact: where the wall-clock went (select / build / generate /
extract / execute / score), how busy the workers were, and how well each
stage of the unified artifact cache amortised (``select``,
``preliminary``, ``generate``, ``gold``, ``execute`` counters all flow
through the same :meth:`TelemetryCollector.record_cache` hook).

Stage timing is *exclusive*: a stage timer nested inside another (the
self-consistency loop re-enters ``generate``/``execute``) attributes its
elapsed time to itself and subtracts it from the enclosing stage, so
``sum(stage_s.values())`` never double-counts and reconciles with the
trace file's per-stage totals.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..obs import context as obs_context
from ..obs.cost import CostMeter
from ..obs.metrics import (
    LATENCY_BUCKETS,
    M_BUSY_SECONDS,
    M_CACHE_REQUESTS,
    M_ERRORS,
    M_EXAMPLES,
    M_LINT_DIAGNOSTICS,
    M_LINT_SHORT_CIRCUIT,
    M_LLM_COST,
    M_LLM_TOKENS,
    M_REPAIR_RECOVERED,
    M_REPAIR_ROUNDS,
    M_SEMANTIC_DEDUP,
    M_STAGE_LATENCY,
    M_STAGE_SECONDS,
    CounterSeries,
    HistogramSeries,
    MetricsRegistry,
)
from ..obs.trace import NULL_TRACER

logger = logging.getLogger(__name__)

#: Pipeline stages timed per example, in pipeline order.  ``repair``
#: wraps each execution-feedback round; its exclusive time is loop
#: overhead only — the nested generate/analyze/execute re-entries bill
#: to their own stage names.
STAGES = (
    "select", "build", "generate", "extract",
    "analyze", "execute", "repair", "score",
)

#: Slack before busy-time accounting is flagged as inconsistent: timer
#: granularity can push ``busy_s`` epsilon past capacity legitimately.
_ACCOUNTING_TOLERANCE = 1e-6


@dataclass
class RunTelemetry:
    """Frozen timing/throughput profile of one evaluation run.

    Attributes:
        workers: worker threads the run was scheduled across.
        wall_clock_s: end-to-end wall-clock of the run.
        busy_s: summed per-example evaluation time across all workers
            (exclusive — each example is timed exactly once, in the one
            worker that evaluated it).
        stage_s: per-stage totals (:data:`STAGES`), summed across
            examples; exclusive, so nested stage timers never
            double-count.
        examples: evaluated example count (including errored ones).
        errors: examples that raised and were isolated.
        cache_hits / cache_misses: per-artifact counters (``select``,
            ``preliminary``, ``generate``, ``gold``, ``execute``), fed
            uniformly by the artifact cache.
        trace_file: path of the JSONL trace this run streamed spans to
            ("" when tracing was off); persisted with the report so
            ``dail-sql trace`` can find the run's trace later.
        journal_skipped: examples replayed from a resume journal instead
            of being recomputed (0 outside ``--resume`` runs).
        deadline_exceeded: deadline overruns observed for this cell —
            examples exceeding the per-example budget plus units skipped
            because the run budget expired.
        prompt_tokens / completion_tokens: tokens actually sent
            to / received from the LLM for this cell (cache hits cost
            nothing, so these undercut the per-record sums exactly when
            the artifact cache was warm).
        cost_usd: simulated dollar cost of those tokens under the
            paper's price sheet (0.0 for unpriced models).
        semantic_dedup: database round-trips skipped because a
            candidate statement fell into an equivalence class the
            pipeline had already executed (voting + repair contexts
            summed).
    """

    workers: int = 1
    wall_clock_s: float = 0.0
    busy_s: float = 0.0
    stage_s: Dict[str, float] = field(default_factory=dict)
    examples: int = 0
    errors: int = 0
    cache_hits: Dict[str, int] = field(default_factory=dict)
    cache_misses: Dict[str, int] = field(default_factory=dict)
    trace_file: str = ""
    journal_skipped: int = 0
    deadline_exceeded: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost_usd: float = 0.0
    semantic_dedup: int = 0

    @property
    def utilization(self) -> float:
        """Busy time over worker capacity — 1.0 means no worker idled.

        Deliberately *not* clamped: a value above 1.0 means busy-time
        accounting double-counted somewhere (a bug worth seeing, not
        hiding).  :meth:`TelemetryCollector.freeze` logs a warning when
        that happens.
        """
        capacity = self.workers * self.wall_clock_s
        if capacity <= 0:
            return 0.0
        return self.busy_s / capacity

    def cache_hit_rate(self, name: str) -> float:
        """Hit rate of one cache (0.0 when the cache was never consulted)."""
        hits = self.cache_hits.get(name, 0)
        total = hits + self.cache_misses.get(name, 0)
        if total == 0:
            return 0.0
        return hits / total

    @property
    def examples_per_second(self) -> float:
        if self.wall_clock_s <= 0:
            return 0.0
        return self.examples / self.wall_clock_s

    def summary(self) -> Dict[str, object]:
        """Flat dict for tabulation/logging."""
        out: Dict[str, object] = {
            "workers": self.workers,
            "wall_clock_s": round(self.wall_clock_s, 4),
            "examples": self.examples,
            "errors": self.errors,
            "examples_per_s": round(self.examples_per_second, 2),
            "utilization": round(self.utilization, 3),
        }
        for stage in STAGES:
            out[f"{stage}_s"] = round(self.stage_s.get(stage, 0.0), 4)
        for name in sorted(set(self.cache_hits) | set(self.cache_misses)):
            out[f"{name}_cache_hit_rate"] = round(self.cache_hit_rate(name), 3)
        if self.prompt_tokens or self.completion_tokens:
            out["prompt_tokens"] = self.prompt_tokens
            out["completion_tokens"] = self.completion_tokens
            out["cost_usd"] = round(self.cost_usd, 6)
        if self.semantic_dedup:
            out["semantic_dedup"] = self.semantic_dedup
        return out


@dataclass(frozen=True)
class ProgressEvent:
    """One progress tick, emitted after each example completes.

    Attributes:
        done: examples finished so far (across the whole run/sweep).
        total: total examples scheduled.
        label: label of the config the example belongs to.
        example_id: the example just finished.
        error: the record's error string ("" on success).
    """

    done: int
    total: int
    label: str
    example_id: str
    error: str = ""


class _StageTimer:
    """One stage timing: the context manager :meth:`TelemetryCollector.stage`
    returns, and while open the frame on its thread's stage stack.

    Untraced, entering and leaving costs two clock reads, two stack
    pushes and pops, and one sample on each of two series bound once
    per stage name — no generator, no label dict, no label sort.
    """

    __slots__ = (
        "_collector", "_name", "_bound", "_stack", "_context", "_start",
        "_span_cm", "span", "child_s",
    )

    def __init__(self, collector: "TelemetryCollector", name: str) -> None:
        self._collector = collector
        self._name = name
        self._bound = collector._stage_bound(name)
        self._span_cm = None
        self.span = None
        self.child_s = 0.0

    def __enter__(self) -> None:
        collector = self._collector
        if collector.tracer.enabled:
            self._span_cm = collector._stage_span(self._name)
            self.span = self._span_cm.__enter__()
        self._stack = collector._stack()
        self._stack.append(self)
        # Bind the stage into the ambient context so token/cost samples
        # recorded while it is open carry a ``stage`` label.
        self._context = obs_context.frames()
        self._context.append(self._bound[0])
        self._start = time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        self._context.pop()
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1].child_s += elapsed
        exclusive = max(elapsed - self.child_s, 0.0)
        _, seconds, latency = self._bound
        seconds.add(exclusive)
        latency.observe(elapsed)
        if self._span_cm is not None:
            self.span.set("excl_s", exclusive)
            self._span_cm.__exit__(None, None, None)


class TelemetryCollector:
    """Thread-safe accumulator behind one run's :class:`RunTelemetry`.

    Workers call :meth:`stage` around pipeline phases and
    :meth:`record_cache` from the harness caches; the engine calls
    :meth:`example` around each evaluation (trace span + error-class
    attribution), :meth:`example_done` once per finished example and
    :meth:`freeze` at the end of the run.

    The collector owns no counters of its own: every sample lands in a
    :class:`~repro.obs.metrics.MetricsRegistry` under this collector's
    ``labels`` (the engine labels each config cell), and :meth:`freeze`
    reads the registry back.  Several collectors can therefore share one
    run-level registry — the Prometheus export and the live progress
    line see the whole run while each cell's telemetry stays separable.

    Args:
        registry: the metrics registry samples land in (private one
            when omitted — the drop-in behaviour of the old collector).
        labels: labels stamped on every sample (e.g. ``{"cell": ...}``).
        tracer: span sink; the default :data:`~repro.obs.trace.NULL_TRACER`
            makes every trace call a no-op attribute check.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Dict[str, str]] = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.labels = dict(labels or {})
        self.tracer = tracer
        self.cost_meter = CostMeter(self.registry)
        self._local = threading.local()
        #: Series bound on first use, so a hot-path sample never merges
        #: or sorts labels: per stage name its context frame and two
        #: timing series; per (metric, extra label pairs) one counter.
        self._stages: Dict[
            str, Tuple[Dict[str, str], CounterSeries, HistogramSeries]
        ] = {}
        self._counters: Dict[
            Tuple[str, Tuple[Tuple[str, str], ...]], CounterSeries
        ] = {}

    # -- per-thread state ------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _example_id(self) -> str:
        return getattr(self._local, "example_id", "")

    # -- bound series ----------------------------------------------------------

    def _stage_bound(
        self, name: str
    ) -> Tuple[Dict[str, str], CounterSeries, HistogramSeries]:
        bound = self._stages.get(name)
        if bound is None:
            bound = self._stages[name] = (
                {"stage": str(name)} if name else {},  # as bind(stage=name)
                self.registry.bind_counter(
                    M_STAGE_SECONDS, {**self.labels, "stage": name}
                ),
                self.registry.bind_histogram(
                    M_STAGE_LATENCY, {"stage": name}, buckets=LATENCY_BUCKETS
                ),
            )
        return bound

    def _counter(self, name: str, *pairs: Tuple[str, str]) -> CounterSeries:
        """The counter ``name`` under this collector's labels plus ``pairs``."""
        series = self._counters.get((name, pairs))
        if series is None:
            series = self._counters[(name, pairs)] = self.registry.bind_counter(
                name, {**self.labels, **dict(pairs)}
            )
        return series

    def _stage_span(self, name: str):
        """The (unentered) ``stage`` span context of a traced timing."""
        attrs = dict(self.labels)
        example_id = self._example_id()
        if example_id:
            attrs["example"] = example_id
        request_id = obs_context.current_request_id()
        if request_id:
            attrs["request"] = request_id
        return self.tracer.span("stage", name, **attrs)

    # -- instrumentation hooks -------------------------------------------------

    @contextmanager
    def example(self, example_id: str, parent_id: Optional[str] = None, **attrs):
        """Trace span around one example's evaluation (engine-called).

        Yields the span handle so the caller can attach post-hoc
        attributes (prompt tokens, error class).  With tracing off this
        is a single attribute check.
        """
        if not self.tracer.enabled:
            yield _NULL_EXAMPLE_SPAN
            return
        self._local.example_id = example_id
        try:
            with self.tracer.span(
                "example", example_id, parent_id=parent_id,
                **{**self.labels, **attrs},
            ) as span:
                yield span
        finally:
            self._local.example_id = ""

    def stage(self, name: str) -> _StageTimer:
        """Time one pipeline stage; nestable and reentrant across threads.

        Nested timers attribute exclusively: the inner stage's elapsed
        time is subtracted from the enclosing stage's total.  With a
        tracer attached, each timing also becomes a ``stage`` span
        carrying the cell labels, the current example id, the exclusive
        time and any cache hit/miss counts recorded while it was open.
        """
        return _StageTimer(self, name)

    def record_cache(self, name: str, hit: bool) -> None:
        result = "hit" if hit else "miss"
        self._counter(
            M_CACHE_REQUESTS, ("stage", name), ("result", result)
        ).add(1)
        stack = self._stack()
        if stack and stack[-1].span is not None:
            stack[-1].span.inc(f"cache_{name}_{result}")

    def record_tokens(
        self, model_id: str, prompt_tokens: int, completion_tokens: int
    ) -> None:
        """Meter one *actual* LLM call's tokens and simulated cost.

        The pipeline calls this exactly where a generate artifact missed
        its cache and the client really ran — warm hits stay free, so
        the counters reflect spend, not corpus size.  Labels: this
        collector's cell labels plus whatever attribution (tenant,
        backend, stage) is bound in the calling thread's context.
        """
        labels = obs_context.snapshot()  # a fresh dict: the cell labels win
        labels.update(self.labels)
        self.cost_meter.record(
            model_id, prompt_tokens, completion_tokens, labels=labels
        )

    def record_lint(self, rule: str, severity: str) -> None:
        """Count one analyzer diagnostic (``repro_lint_diagnostics_total``)."""
        self._counter(
            M_LINT_DIAGNOSTICS, ("rule", rule), ("severity", severity)
        ).add(1)

    def record_short_circuit(self) -> None:
        """Count one execution skipped by a fatal lint diagnostic."""
        self._counter(M_LINT_SHORT_CIRCUIT).add(1)

    def record_repair_round(self, outcome: str) -> None:
        """Count one feedback-repair round event
        (``repro_repair_rounds_total``).  Outcomes: ``recovered``
        (round produced an executing candidate), ``failed`` (round
        consumed, candidate still dead), ``transient`` (infrastructure
        fault — no round consumed), ``exhausted`` (one per example
        whose loop ended without recovery)."""
        self._counter(M_REPAIR_ROUNDS, ("outcome", outcome)).add(1)

    def record_repair_recovered(self, error_class: str) -> None:
        """Count one repair-loop recovery, labelled by the error class
        that triggered the loop (``repro_repair_recovered_total``)."""
        self._counter(
            M_REPAIR_RECOVERED, ("error_class", error_class or "unknown")
        ).add(1)

    def record_semantic_dedup(self, context: str) -> None:
        """Count one execution skipped by equivalence-class dedup
        (``repro_semantic_dedup_total``).  Contexts: ``voting``
        (self-consistency sample shared a class with an earlier
        sample), ``repair`` (feedback regeneration canonicalized to a
        statement the loop already executed)."""
        self._counter(M_SEMANTIC_DEDUP, ("context", context)).add(1)

    def example_done(self, elapsed_s: float, error: bool = False) -> None:
        self._counter(M_BUSY_SECONDS).add(elapsed_s)
        self._counter(M_EXAMPLES).add(1)
        if error:
            self._counter(M_ERRORS).add(1)

    # -- freezing --------------------------------------------------------------

    def freeze(
        self,
        workers: int,
        wall_clock_s: float,
        trace_file: str = "",
    ) -> RunTelemetry:
        """Snapshot this collector's registry slice into an immutable
        telemetry record, and assert-log (never clamp) busy-time
        accounting: ``busy_s`` beyond ``workers * wall_clock_s`` means
        some example was double-counted."""
        # Every declared stage gets a key, even when it never ran
        # ("repair" with the loop off): summaries and diffs stay
        # shape-stable across configurations.
        stage_s: Dict[str, float] = {stage: 0.0 for stage in STAGES}
        for labels, value in self.registry.counter_series(
            M_STAGE_SECONDS, self.labels
        ):
            stage = labels.get("stage", "")
            stage_s[stage] = stage_s.get(stage, 0.0) + value
        cache_hits: Dict[str, int] = {}
        cache_misses: Dict[str, int] = {}
        for labels, value in self.registry.counter_series(
            M_CACHE_REQUESTS, self.labels
        ):
            target = cache_hits if labels.get("result") == "hit" else cache_misses
            stage = labels.get("stage", "")
            target[stage] = target.get(stage, 0) + int(value)
        busy_s = self.registry.counter_value(M_BUSY_SECONDS, self.labels)
        capacity = workers * wall_clock_s
        if capacity > 0 and busy_s > capacity + _ACCOUNTING_TOLERANCE:
            logger.warning(
                "telemetry accounting inconsistency: busy_s=%.6f exceeds "
                "workers*wall_clock=%.6f (%d x %.6f) — per-example timings "
                "are double-counting",
                busy_s, capacity, workers, wall_clock_s,
            )
        from ..obs.metrics import M_DEADLINE_EXCEEDED, M_JOURNAL_SKIPPED

        journal_skipped = 0
        for _, value in self.registry.counter_series(
            M_JOURNAL_SKIPPED, self.labels
        ):
            journal_skipped += int(value)
        deadline_exceeded = 0
        for _, value in self.registry.counter_series(
            M_DEADLINE_EXCEEDED, self.labels
        ):
            deadline_exceeded += int(value)
        prompt_tokens = 0
        completion_tokens = 0
        for labels, value in self.registry.counter_series(
            M_LLM_TOKENS, self.labels
        ):
            if labels.get("kind") == "prompt":
                prompt_tokens += int(value)
            elif labels.get("kind") == "completion":
                completion_tokens += int(value)
        cost_usd = self.registry.counter_value(M_LLM_COST, self.labels)
        semantic_dedup = 0
        for _, value in self.registry.counter_series(
            M_SEMANTIC_DEDUP, self.labels
        ):
            semantic_dedup += int(value)
        return RunTelemetry(
            workers=workers,
            wall_clock_s=wall_clock_s,
            busy_s=busy_s,
            stage_s=stage_s,
            examples=int(self.registry.counter_value(M_EXAMPLES, self.labels)),
            errors=int(self.registry.counter_value(M_ERRORS, self.labels)),
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            trace_file=trace_file,
            journal_skipped=journal_skipped,
            deadline_exceeded=deadline_exceeded,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            cost_usd=cost_usd,
            semantic_dedup=semantic_dedup,
        )


class _NullExampleSpan:
    """No-op stand-in yielded by :meth:`TelemetryCollector.example`
    when tracing is off (mirrors :data:`repro.obs.trace.NULL_SPAN`
    without importing it into the hot path)."""

    __slots__ = ()
    span_id = ""

    def set(self, key, value) -> None:
        pass

    def inc(self, key, delta: int = 1) -> None:
        pass


_NULL_EXAMPLE_SPAN = _NullExampleSpan()


class NullCollector(TelemetryCollector):
    """No-op collector for uninstrumented call sites (zero overhead)."""

    @contextmanager
    def example(self, example_id: str, parent_id: Optional[str] = None, **attrs):
        yield _NULL_EXAMPLE_SPAN

    def stage(self, name: str):
        return _NULL_STAGE

    def record_cache(self, name: str, hit: bool) -> None:
        pass

    def record_tokens(
        self, model_id: str, prompt_tokens: int, completion_tokens: int
    ) -> None:
        pass

    def record_lint(self, rule: str, severity: str) -> None:
        pass

    def record_short_circuit(self) -> None:
        pass

    def record_repair_round(self, outcome: str) -> None:
        pass

    def record_repair_recovered(self, error_class: str) -> None:
        pass

    def record_semantic_dedup(self, context: str) -> None:
        pass

    def example_done(self, elapsed_s: float, error: bool = False) -> None:
        pass


#: Stateless, so one instance serves every untimed stage on any thread.
_NULL_STAGE = nullcontext()

#: Shared no-op instance; safe to use from any thread.
NULL_COLLECTOR = NullCollector()
