"""Read and analyse trace files: where did the wall-clock go?

The ``dail-sql trace`` subcommand is a thin shell over these functions.
A trace path may be one ``.jsonl`` file or a directory of them (every
``trace-*.jsonl`` a run dropped there); spans are the dicts written by
:class:`~repro.obs.trace.Tracer` (see that module for the schema).

Percentiles here are *exact* (computed from raw span durations), unlike
the bucketed estimates the live progress line shows.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ..errors import ReproError
from .metrics import (
    LATENCY_BUCKETS,
    M_ERRORS,
    M_EXAMPLES,
    M_STAGE_LATENCY,
    M_STAGE_SECONDS,
    MetricsRegistry,
)
from .trace import TRACE_SCHEMA_VERSION

Span = Dict[str, object]


def _open_trace(path: Path):
    """Open a trace file for text reading, gunzipping ``.gz`` segments."""
    if path.name.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def load_spans(path: Union[str, Path]) -> List[Span]:
    """Every span of a trace file, or of every ``*.jsonl`` /
    ``*.jsonl.gz`` in a directory (rotated segments included).

    Unreadable lines and unknown schema versions are skipped (a trace
    from a crashed run may end mid-line); missing paths raise.

    Raises:
        ReproError: when the path does not exist or holds no spans.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.jsonl")) + sorted(path.glob("*.jsonl.gz"))
        if not files:
            raise ReproError(f"no *.jsonl trace files in {path}")
    elif path.exists():
        files = [path]
    else:
        raise ReproError(f"no such trace file or directory: {path}")
    spans: List[Span] = []
    for file in files:
        with _open_trace(file) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if record.get("v") != TRACE_SCHEMA_VERSION:
                    continue
                spans.append(record)
    if not spans:
        raise ReproError(f"no spans found under {path}")
    return spans


def percentile(values: List[float], q: float) -> float:
    """Exact linear-interpolated percentile (0.0 on empty input)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def _attr(span: Span, key: str, default=""):
    attrs = span.get("attrs")
    if isinstance(attrs, dict):
        return attrs.get(key, default)
    return default


def _duration(span: Span) -> float:
    return float(span.get("dur_s", 0.0))


def _exclusive(span: Span) -> float:
    """Exclusive stage time (child stages subtracted), falling back to
    the inclusive duration for spans without the attribute."""
    excl = _attr(span, "excl_s", None)
    if excl is None:
        return _duration(span)
    return float(excl)


def spans_of_kind(spans: Iterable[Span], kind: str) -> List[Span]:
    return [span for span in spans if span.get("kind") == kind]


# -- aggregations ------------------------------------------------------------

def stage_summary(spans: Iterable[Span]) -> List[Dict[str, object]]:
    """Per-stage rows: count, total (exclusive) seconds, p50/p95, share."""
    groups: Dict[str, List[Span]] = {}
    for span in spans_of_kind(spans, "stage"):
        groups.setdefault(str(span.get("name")), []).append(span)
    total_s = sum(_exclusive(s) for group in groups.values() for s in group)
    rows = []
    for name, group in groups.items():
        durations = [_duration(s) for s in group]
        stage_total = sum(_exclusive(s) for s in group)
        rows.append({
            "stage": name,
            "count": len(group),
            "total_s": stage_total,
            "share": stage_total / total_s if total_s else 0.0,
            "p50_s": percentile(durations, 0.5),
            "p95_s": percentile(durations, 0.95),
        })
    rows.sort(key=lambda row: -row["total_s"])
    return rows


def hardness_summary(spans: Iterable[Span]) -> List[Dict[str, object]]:
    """Per-hardness rows over example spans: count, time, errors."""
    groups: Dict[str, List[Span]] = {}
    for span in spans_of_kind(spans, "example"):
        groups.setdefault(str(_attr(span, "hardness", "unknown")), []).append(span)
    rows = []
    for hardness in ("easy", "medium", "hard", "extra"):
        group = groups.pop(hardness, [])
        if group:
            rows.append(_example_group_row(hardness, group, key="hardness"))
    for hardness in sorted(groups):
        rows.append(_example_group_row(hardness, groups[hardness], key="hardness"))
    return rows


def cell_summary(spans: Iterable[Span]) -> List[Dict[str, object]]:
    """Per-config-cell rows over example spans."""
    groups: Dict[str, List[Span]] = {}
    for span in spans_of_kind(spans, "example"):
        groups.setdefault(str(_attr(span, "cell", "?")), []).append(span)
    return [
        _example_group_row(cell, groups[cell], key="cell")
        for cell in sorted(groups)
    ]


def _example_group_row(name: str, group: List[Span], key: str) -> Dict[str, object]:
    durations = [_duration(s) for s in group]
    return {
        key: name,
        "count": len(group),
        "total_s": sum(durations),
        "p50_s": percentile(durations, 0.5),
        "p95_s": percentile(durations, 0.95),
        "errors": sum(1 for s in group if _attr(s, "error_class")),
    }


def slowest(spans: Iterable[Span], kind: str = "example",
            top: int = 10) -> List[Span]:
    """The ``top`` slowest spans of one kind, slowest first."""
    ranked = sorted(spans_of_kind(spans, kind), key=_duration, reverse=True)
    return ranked[:top]


def error_groups(spans: Iterable[Span]) -> List[Dict[str, object]]:
    """Isolated per-example failures grouped by error class."""
    groups: Dict[str, List[Span]] = {}
    for span in spans_of_kind(spans, "example"):
        error_class = str(_attr(span, "error_class", ""))
        if error_class:
            groups.setdefault(error_class, []).append(span)
    rows = []
    for error_class in sorted(groups, key=lambda c: -len(groups[c])):
        group = groups[error_class]
        rows.append({
            "error_class": error_class,
            "count": len(group),
            "examples": [str(s.get("name")) for s in group],
            "messages": sorted({str(_attr(s, "error", ""))[:120] for s in group}),
        })
    return rows


def run_info(spans: Iterable[Span]) -> Optional[Dict[str, object]]:
    """The run span's headline facts, if the trace holds one."""
    runs = spans_of_kind(spans, "run")
    if not runs:
        return None
    run = runs[0]
    return {
        "duration_s": _duration(run),
        "configs": _attr(run, "configs", 0),
        "examples": _attr(run, "examples", 0),
        "workers": _attr(run, "workers", 1),
        "backend": _attr(run, "backend", ""),
    }


def stage_totals(spans: Iterable[Span],
                 cell: Optional[str] = None) -> Dict[str, float]:
    """Exclusive per-stage second totals (optionally for one cell) —
    the quantity that must reconcile with ``RunTelemetry.stage_s``."""
    totals: Dict[str, float] = {}
    for span in spans_of_kind(spans, "stage"):
        if cell is not None and _attr(span, "cell") != cell:
            continue
        name = str(span.get("name"))
        totals[name] = totals.get(name, 0.0) + _exclusive(span)
    return totals


# -- request correlation ------------------------------------------------------

def request_ids(spans: Iterable[Span]) -> List[str]:
    """Distinct serving request ids present in a trace, in first-seen
    order (the names of ``request``-kind spans)."""
    seen: Dict[str, None] = {}
    for span in spans_of_kind(spans, "request"):
        seen.setdefault(str(span.get("name")), None)
    return list(seen)


def correlate(spans: Iterable[Span], request_id: str) -> Dict[str, object]:
    """One request's full span tree, rooted at its ``request`` span.

    Children are linked by parent span id, which also follows a span
    recorded on another thread when it names its parent explicitly
    (``Tracer.span(..., parent_id=...)``).  Spans stamped with a
    matching ``request`` attribute whose parent chain was lost (e.g. a
    rotated segment) are adopted under the root, so the tree stays
    single-rooted.

    Returns a nested node dict: ``{"span": <span>, "children": [node…]}``
    with children ordered by start time.

    Raises:
        ReproError: when the trace holds no such request (the message
            lists the ids it does hold).
    """
    spans = list(spans)
    roots = [
        span for span in spans_of_kind(spans, "request")
        if str(span.get("name")) == request_id
    ]
    if not roots:
        known = request_ids(spans)
        listing = ", ".join(known[:20]) if known else "none"
        raise ReproError(
            f"no request {request_id!r} in trace (request ids: {listing})"
        )
    root = max(roots, key=lambda span: float(span.get("t0", 0.0)))
    children: Dict[str, List[Span]] = {}
    for span in spans:
        children.setdefault(str(span.get("parent", "")), []).append(span)

    reached = set()

    def build(span: Span) -> Dict[str, object]:
        reached.add(str(span.get("span")))
        kids = sorted(
            children.get(str(span.get("span")), []),
            key=lambda child: float(child.get("t0", 0.0)),
        )
        return {"span": span, "children": [build(kid) for kid in kids]}

    tree = build(root)
    orphans = [
        span for span in spans
        if str(_attr(span, "request", "")) == request_id
        and str(span.get("span")) not in reached
    ]
    for orphan in sorted(orphans, key=lambda span: float(span.get("t0", 0.0))):
        tree["children"].append(build(orphan))
    return tree


def format_span_tree(tree: Dict[str, object]) -> str:
    """Render a :func:`correlate` tree as indented text lines."""
    lines: List[str] = []

    def emit(node: Dict[str, object], depth: int) -> None:
        span = node["span"]
        attrs = span.get("attrs") or {}
        decorations = " ".join(
            f"{key}={_format_attr(value)}"
            for key, value in sorted(attrs.items())
        )
        lines.append(
            "  " * depth
            + f"{span.get('kind')} {span.get('name')} "
            + f"[{_duration(span) * 1000:.1f}ms]"
            + (f" {decorations}" if decorations else "")
        )
        for child in node["children"]:
            emit(child, depth + 1)

    emit(tree, 0)
    return "\n".join(lines)


def _format_attr(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


# -- exporters ---------------------------------------------------------------

def to_registry(spans: Iterable[Span]) -> MetricsRegistry:
    """Rebuild a metrics registry from a trace (for offline export).

    Stage spans feed the stage counters and latency histograms; example
    spans feed example/error counters per cell — the same metric names
    a live run records, so dashboards can consume either source.
    """
    registry = MetricsRegistry()
    for span in spans:
        kind = span.get("kind")
        if kind == "stage":
            labels = {"stage": str(span.get("name"))}
            cell = _attr(span, "cell")
            registry.counter_add(
                M_STAGE_SECONDS, _exclusive(span),
                {**labels, **({"cell": cell} if cell else {})},
            )
            registry.observe(M_STAGE_LATENCY, _duration(span), labels,
                             buckets=LATENCY_BUCKETS)
        elif kind == "example":
            cell = _attr(span, "cell")
            labels = {"cell": cell} if cell else {}
            registry.counter_add(M_EXAMPLES, 1, labels)
            if _attr(span, "error_class"):
                registry.counter_add(M_ERRORS, 1, labels)
    return registry


def to_prometheus(spans: Iterable[Span]) -> str:
    """Prometheus text exposition of a trace's aggregate metrics."""
    return to_registry(spans).to_prometheus()
