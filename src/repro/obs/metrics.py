"""The metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` holds every metric of one evaluation run.
Metrics are identified by ``(name, labels)`` — the Prometheus data model
— and are fed by the telemetry collectors, the evaluation engine, the
LLM clients and the database pool.  Two export formats:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text
  exposition format (suitable for a node-exporter textfile collector).
* :meth:`MetricsRegistry.snapshot` — a JSON-ready dict, written next to
  run artifacts and consumed by the live progress reporter.

Everything is thread-safe behind one lock.  A sample recorded through
:meth:`MetricsRegistry.counter_add` / :meth:`MetricsRegistry.observe`
first canonicalises its label mapping (sorts the keys, stringifies the
values) and then updates the series under that lock.  Hot paths skip the
canonicalisation: :meth:`MetricsRegistry.bind_counter` and
:meth:`MetricsRegistry.bind_histogram` return a series handle whose label
key is computed once (the ``.labels()`` child of prometheus_client), so
each later sample costs one lock hold and a dict update.  Every sample
still lands in the registry the moment it is recorded; nothing is
buffered, so a live scrape sees it.  The registry imports only the
standard library (like ``repro.cache`` it sits below every other layer).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Canonical metric names recorded across the evaluation stack.  Keeping
#: them here (rather than scattered string literals) makes the exported
#: namespace greppable and documented in one place.
M_STAGE_SECONDS = "repro_stage_seconds_total"
M_STAGE_LATENCY = "repro_stage_latency_seconds"
M_CACHE_REQUESTS = "repro_cache_requests_total"
M_CACHE_TIER = "repro_cache_tier_events_total"
M_EXAMPLES = "repro_examples_total"
M_ERRORS = "repro_errors_total"
M_BUSY_SECONDS = "repro_busy_seconds_total"
M_INFLIGHT = "repro_inflight_examples"
M_LLM_REQUEST = "repro_llm_request_seconds"
M_LLM_RETRIES = "repro_llm_retries_total"
M_LLM_PROMPT_TOKENS = "repro_llm_prompt_tokens"
M_LLM_COMPLETION_TOKENS = "repro_llm_completion_tokens"
M_DB_EXECUTE = "repro_db_execute_seconds"
M_DB_CONNECTIONS = "repro_db_connections"
M_LLM_CIRCUIT = "repro_llm_circuit_state"
M_FAULTS_INJECTED = "repro_faults_injected_total"
M_JOURNAL_SKIPPED = "repro_journal_skipped_total"
M_CACHE_CORRUPT = "repro_cache_corrupt_total"
M_DEADLINE_EXCEEDED = "repro_deadline_exceeded_total"
M_INTERRUPTIONS = "repro_interruptions_total"
M_LINT_DIAGNOSTICS = "repro_lint_diagnostics_total"
M_LINT_SHORT_CIRCUIT = "repro_lint_short_circuit_total"
M_HTTP_REQUESTS = "repro_http_requests_total"
M_HTTP_LATENCY = "repro_http_request_seconds"
M_SERVE_RATE_LIMITED = "repro_serve_rate_limited_total"
M_SERVE_INFLIGHT = "repro_serve_inflight_requests"
M_SQL_TRANSPILE = "repro_sql_transpile_seconds_total"
M_LLM_TOKENS = "repro_llm_tokens_total"
M_LLM_COST = "repro_llm_cost_usd_total"
M_REPAIR_ROUNDS = "repro_repair_rounds_total"
M_REPAIR_RECOVERED = "repro_repair_recovered_total"
M_SEMANTIC_DEDUP = "repro_semantic_dedup_total"
M_BUILD_INFO = "repro_build_info"

#: Fixed latency buckets (seconds): sub-millisecond pipeline stages up
#: to multi-second remote API calls.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Fixed token-count buckets for prompt/completion size histograms.
TOKEN_BUCKETS = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

#: Canonical label-set encoding: sorted (key, value) string pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def labels_key(labels: Optional[Mapping[str, object]]) -> LabelKey:
    """The hashable canonical form of a label mapping."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _matches(series_labels: LabelKey, subset: LabelKey) -> bool:
    """True when every (key, value) of ``subset`` appears in the series."""
    return set(subset) <= set(series_labels)


class _Histogram:
    """One histogram series: fixed bucket bounds, counts, sum."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]):
        self.bounds = tuple(bounds)
        # counts[i] observations with value <= bounds[i]; counts[-1] = +Inf.
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "_Histogram") -> None:
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.sum += other.sum
        self.count += other.count

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (0.0 with no samples).

        Uses the Prometheus convention: find the bucket the target rank
        falls into and interpolate linearly inside it; ranks in the
        overflow bucket report the highest finite bound.
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, count in enumerate(self.counts):
            previous = cumulative
            cumulative += count
            if cumulative >= target:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                if count == 0:
                    return upper
                return lower + (upper - lower) * ((target - previous) / count)
        return self.bounds[-1]


class MetricsRegistry:
    """Thread-safe registry of counters, gauges and histograms.

    All record methods take an optional ``labels`` mapping; a metric
    name therefore holds a family of series, one per distinct label set
    (the Prometheus data model).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[LabelKey, _Histogram]] = {}
        self._histogram_bounds: Dict[str, Tuple[float, ...]] = {}

    # -- recording -----------------------------------------------------------

    def counter_add(
        self,
        name: str,
        value: float = 1.0,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.bind_counter(name, labels).add(value)

    def gauge_set(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        with self._lock:
            self._gauges.setdefault(name, {})[labels_key(labels)] = value

    def gauge_add(
        self,
        name: str,
        delta: float,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.bind_gauge(name, labels).add(delta)

    def observe(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, object]] = None,
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        """Record one histogram sample (first call fixes the buckets)."""
        self.bind_histogram(name, labels, buckets).observe(value)

    # -- bound series --------------------------------------------------------

    def bind_counter(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
    ) -> "CounterSeries":
        """A handle on one counter series, its labels canonicalised once.

        ``series.add(v)`` records exactly what ``counter_add(name, v,
        labels)`` would.  Binding records nothing: a series never added
        to leaves no family in either export.
        """
        return CounterSeries(self, name, labels_key(labels))

    def bind_gauge(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
    ) -> "GaugeSeries":
        """A handle on one gauge series (see :meth:`bind_counter`).

        ``series.add(delta)`` records exactly what ``gauge_add(name,
        delta, labels)`` would.
        """
        return GaugeSeries(self, name, labels_key(labels))

    def bind_histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> "HistogramSeries":
        """A handle on one histogram series (see :meth:`bind_counter`).

        ``series.observe(v)`` records exactly what ``observe(name, v,
        labels, buckets)`` would — including the first sample of
        ``name`` fixing its buckets for every series of the family.
        """
        return HistogramSeries(self, name, labels_key(labels), tuple(buckets))

    # -- reading -------------------------------------------------------------

    def counter_value(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
    ) -> float:
        """Sum of every series of ``name`` whose labels include ``labels``."""
        subset = labels_key(labels)
        with self._lock:
            return sum(
                value
                for key, value in self._counters.get(name, {}).items()
                if _matches(key, subset)
            )

    def counter_series(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
    ) -> List[Tuple[Dict[str, str], float]]:
        """Every series of one counter matching the label subset."""
        subset = labels_key(labels)
        with self._lock:
            return [
                (dict(key), value)
                for key, value in self._counters.get(name, {}).items()
                if _matches(key, subset)
            ]

    def gauge_value(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
    ) -> float:
        subset = labels_key(labels)
        with self._lock:
            return sum(
                value
                for key, value in self._gauges.get(name, {}).items()
                if _matches(key, subset)
            )

    def histogram_quantile(
        self,
        name: str,
        q: float,
        labels: Optional[Mapping[str, object]] = None,
    ) -> float:
        """Quantile estimate over every matching series, merged."""
        subset = labels_key(labels)
        with self._lock:
            bounds = self._histogram_bounds.get(name)
            if bounds is None:
                return 0.0
            merged = _Histogram(bounds)
            for key, histogram in self._histograms.get(name, {}).items():
                if _matches(key, subset):
                    merged.merge(histogram)
        return merged.quantile(q)

    def histogram_count(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
    ) -> int:
        subset = labels_key(labels)
        with self._lock:
            return sum(
                h.count
                for key, h in self._histograms.get(name, {}).items()
                if _matches(key, subset)
            )

    # -- export --------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready dump of every metric (stable ordering).

        The whole dump is assembled under the registry lock, so a
        snapshot is an atomic, internally consistent view: a histogram's
        bucket counts always sum to its ``count``, and no series is seen
        mid-update.
        """
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> Dict[str, object]:
        out: Dict[str, object] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._counters):
            out["counters"][name] = [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._counters[name].items())
            ]
        for name in sorted(self._gauges):
            out["gauges"][name] = [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._gauges[name].items())
            ]
        for name in sorted(self._histograms):
            out["histograms"][name] = [
                {
                    "labels": dict(key),
                    "buckets": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for key, h in sorted(self._histograms[name].items())
            ]
        return out

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (textfile-collector ready).

        Like :meth:`snapshot`, the entire export is built under the
        registry lock: a scrape racing live counter updates still sees
        an atomic, parseable view — no histogram whose bucket counts
        disagree with its ``_count`` line, no half-applied increment.
        """
        with self._lock:
            return self._to_prometheus_locked()

    def _to_prometheus_locked(self) -> str:
        lines: List[str] = []
        for name in sorted(self._counters):
            lines.append(f"# TYPE {name} counter")
            for key, value in sorted(self._counters[name].items()):
                lines.append(f"{name}{_format_labels(key)} {_format_value(value)}")
        for name in sorted(self._gauges):
            lines.append(f"# TYPE {name} gauge")
            for key, value in sorted(self._gauges[name].items()):
                lines.append(f"{name}{_format_labels(key)} {_format_value(value)}")
        for name in sorted(self._histograms):
            lines.append(f"# TYPE {name} histogram")
            for key, h in sorted(self._histograms[name].items()):
                cumulative = 0
                for bound, count in zip(h.bounds, h.counts):
                    cumulative += count
                    le = _format_labels(key, extra=("le", _format_value(bound)))
                    lines.append(f"{name}_bucket{le} {cumulative}")
                cumulative += h.counts[-1]
                le = _format_labels(key, extra=("le", "+Inf"))
                lines.append(f"{name}_bucket{le} {cumulative}")
                lines.append(f"{name}_sum{_format_labels(key)} {_format_value(h.sum)}")
                lines.append(f"{name}_count{_format_labels(key)} {h.count}")
        return "\n".join(lines) + "\n"

    def scrape(self) -> Tuple[str, Dict[str, object]]:
        """Both export formats from **one** lock acquisition.

        A ``/metrics`` scrape that wants the Prometheus text *and* the
        JSON snapshot (or a trace export writing both artifacts) must
        not call :meth:`to_prometheus` and :meth:`snapshot` back to
        back — counters advance between the two calls and the pair
        disagrees.  ``scrape()`` builds both views under a single lock
        hold, so they describe exactly the same instant.
        """
        with self._lock:
            return self._to_prometheus_locked(), self._snapshot_locked()


class CounterSeries:
    """One counter series of a registry (:meth:`MetricsRegistry.bind_counter`).

    The family dict is looked up on the first :meth:`add` and kept:
    the registry never drops or replaces a family once created.
    """

    __slots__ = ("_registry", "_lock", "_family", "name", "key")

    #: The registry table holding this kind's families.
    _table = "_counters"

    def __init__(self, registry: MetricsRegistry, name: str, key: LabelKey):
        self._registry = registry
        self._lock = registry._lock
        self._family: Optional[Dict[LabelKey, float]] = None
        self.name = name
        self.key = key

    def add(self, value: float = 1.0) -> None:
        with self._lock:
            family = self._family
            if family is None:
                family = self._family = getattr(
                    self._registry, self._table
                ).setdefault(self.name, {})
            family[self.key] = family.get(self.key, 0.0) + value


class GaugeSeries(CounterSeries):
    """One gauge series of a registry (:meth:`MetricsRegistry.bind_gauge`);
    :meth:`add` moves it by a delta of either sign."""

    __slots__ = ()
    _table = "_gauges"


class HistogramSeries:
    """One histogram series of a registry (:meth:`MetricsRegistry.bind_histogram`).

    The series' histogram is created (or found) on the first
    :meth:`observe` and kept, like :class:`CounterSeries`' family.
    """

    __slots__ = ("_registry", "_lock", "_histogram", "name", "key", "buckets")

    def __init__(
        self,
        registry: MetricsRegistry,
        name: str,
        key: LabelKey,
        buckets: Tuple[float, ...],
    ):
        self._registry = registry
        self._lock = registry._lock
        self._histogram: Optional[_Histogram] = None
        self.name = name
        self.key = key
        self.buckets = buckets

    def observe(self, value: float) -> None:
        with self._lock:
            histogram = self._histogram
            if histogram is None:
                registry = self._registry
                family = registry._histograms.setdefault(self.name, {})
                histogram = family.get(self.key)
                if histogram is None:
                    bounds = registry._histogram_bounds.setdefault(
                        self.name, self.buckets
                    )
                    histogram = family[self.key] = _Histogram(bounds)
                self._histogram = histogram
            histogram.observe(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def parse_prometheus(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse exposition text back into (name, labels, value) samples.

    A deliberately strict reader used by the CI gate ("the Prometheus
    export parses cleanly") and the trace CLI tests.

    Raises:
        ValueError: on any malformed line.
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"line {lineno}: no sample value in {line!r}")
        labels: Dict[str, str] = {}
        name = name_part
        if "{" in name_part:
            if not name_part.endswith("}"):
                raise ValueError(f"line {lineno}: unterminated labels in {line!r}")
            name, _, label_blob = name_part[:-1].partition("{")
            for pair in _split_label_pairs(label_blob):
                key, eq, raw = pair.partition("=")
                if not eq or not (raw.startswith('"') and raw.endswith('"')):
                    raise ValueError(f"line {lineno}: bad label {pair!r}")
                labels[key] = _unescape_label(raw[1:-1])
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"line {lineno}: bad metric name {name!r}")
        if value_part == "+Inf":
            value = float("inf")
        else:
            value = float(value_part)
        samples.append((name, labels, value))
    return samples


def _unescape_label(value: str) -> str:
    """Invert :func:`_escape_label` (``\\n``, ``\\"``, ``\\\\``)."""
    out: List[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            if nxt == "n":
                out.append("\n")
                index += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                index += 2
                continue
        out.append(char)
        index += 1
    return "".join(out)


def _split_label_pairs(blob: str) -> List[str]:
    """Split ``k1="v1",k2="v2"`` respecting quotes and escapes."""
    pairs: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in blob:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\" and in_quotes:
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        pairs.append("".join(current))
    return pairs
