"""The traced run: spans around the public functions of each layer.

Timed runs never load this module's wrappers.  A traced run installs
them with :meth:`Recorder.install`, which replaces each public function
or method by a wrapper that records one span per call: name, start and
end (``perf_counter``), thread-CPU time (``thread_time``), the span
that was open on the same thread when it started (its parent), and
the example or request id it works for.  Spans stay in per-thread
lists in memory and are written out, as gzip-compressed JSON lines,
when the run ends.

A function imported with ``from x import f`` is a separate binding in
every importing module, so :meth:`Recorder.install` rebinds it in every
``repro`` module that holds the original object.  It reports how many
bindings it replaced; a function with none fails the run.

Self time is a span's duration minus the time its child spans on the
same thread cover.  Work a span waits for on another thread (the
coalescer's dispatcher) is therefore self time of the waiting span,
which is what a request thread experiences.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# Span record layout (a list, mutated in place while the span is open).
NAME, KEY, PARENT, START, END, CPU_START, CPU_END, ATTR = range(8)


class _ThreadLog:
    """One thread's spans and open-span stack."""

    __slots__ = ("spans", "stack", "counts", "in_token_count")

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.in_token_count = 0


@dataclass
class LayerTotals:
    """Totals of one span name over a set of spans."""

    calls: int = 0
    incl_wall_s: float = 0.0
    self_wall_s: float = 0.0
    self_cpu_s: float = 0.0
    attrs: List[object] = field(default_factory=list)


KeyOf = Optional[Callable[[tuple, dict], str]]
AttrOf = Optional[Callable[[tuple, object], object]]


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- per-thread state ----------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    # -- wrappers --------------------------------------------------------------

    def span_wrapper(self, name: str, fn: Callable, key_of: KeyOf = None,
                     attr_of: AttrOf = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = recorder._log()
            stack = log.stack
            parent = stack[-1] if stack else -1
            if key_of is not None:
                key = key_of(args, kwargs)
            else:
                key = log.spans[parent][KEY] if parent >= 0 else ""
            span = [name, key, parent, 0.0, 0.0, 0.0, 0.0, None]
            stack.append(len(log.spans))
            log.spans.append(span)
            span[CPU_START] = time.thread_time()
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[CPU_END] = time.thread_time()
                stack.pop()
            if attr_of is not None:
                span[ATTR] = attr_of(args, result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        """Counts calls without a span (for calls made hundreds of times
        per example, such as similarity scores)."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder._log().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def token_lookup_wrapper(self, fn: Callable) -> Callable:
        """``TokenCounter.count``: counts lookups and marks the thread so
        the nested ``count_tokens`` call of a memo miss is counted."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = recorder._log()
            log.counts["tokenizer.lookups"] += 1
            log.in_token_count += 1
            try:
                return fn(*args, **kwargs)
            finally:
                log.in_token_count -= 1

        return wrapper

    def token_compute_wrapper(self, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = recorder._log()
            if log.in_token_count:
                log.counts["tokenizer.misses"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ------------------------------------------------------------

    def patch_method(self, cls: type, attr: str, make: Callable) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._patches.append((cls, attr, original))

    def patch_function(self, module_name: str, attr: str,
                       make: Callable) -> int:
        """Rebind ``module.attr`` in every ``repro`` module that holds
        the same object; returns the number of bindings replaced."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = make(original)
        bound = 0
        for module in list(sys.modules.values()):
            module_name_ = getattr(module, "__name__", "") or ""
            if not module_name_.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))
                    bound += 1
        return bound

    def install(self, llm_class: type, serve: bool) -> Dict[str, int]:
        """Wrap every layer's public entry points; returns bindings per
        wrapped function name (callers fail the run on a zero)."""
        from repro.db.sqlite_backend import Database
        from repro.eval.pipeline import EvalPipeline
        from repro.prompt.builder import PromptBuilder
        from repro.tokenizer.counter import TokenCounter

        span = self.span_wrapper
        example_key = lambda args, kwargs: args[1].example_id  # noqa: E731
        bindings: Dict[str, int] = {}
        methods = [
            (EvalPipeline, "run", "pipeline.run", example_key, None),
            (EvalPipeline, "selection_blocks", "select", None, None),
            (EvalPipeline, "semantic_match", "score.semantic_match", None, None),
            (PromptBuilder, "build", "build", None, None),
            (llm_class, "generate", "generate", None, None),
            (llm_class, "generate_batch", "generate_batch", None,
             lambda args, result: len(args[1])),
            (Database, "execute", "execute", None, None),
        ]
        if serve:
            from repro.serve.coalesce import GenerateCoalescer
            from repro.serve.ratelimit import RateLimiter
            from repro.serve.service import SqlService

            def request_key(args, kwargs):
                return kwargs.get("request_id") or (
                    args[2] if len(args) > 2 else ""
                )

            methods += [
                (SqlService, op, f"serve.{op}", request_key, None)
                for op in ("generate", "lint", "execute")
            ]
            methods += [
                (GenerateCoalescer, "generate", "coalesce.generate", None, None),
                (RateLimiter, "acquire", "ratelimit.acquire", None, None),
            ]
        for cls, attr, name, key_of, attr_of in methods:
            self.patch_method(
                cls, attr,
                lambda fn, n=name, k=key_of, a=attr_of: span(n, fn, k, a),
            )
            bindings[name] = 1
        functions = [
            ("repro.llm.extract", "extract_sql", "extract", None),
            ("repro.analysis.analyzer", "analyze", "analyze",
             lambda args, result: bool(result.fatal)),
            ("repro.sql.parser", "parse", "parse", None),
            ("repro.sql.canonical", "canonical_fingerprint", "canonical", None),
            ("repro.eval.exact_match", "exact_match", "score.exact_match", None),
            ("repro.db.execution", "results_match", "score.results_match", None),
            ("repro.repair.feedback", "feedback_prompt",
             "repair.feedback_prompt", None),
        ]
        for module_name, attr, name, attr_of in functions:
            bindings[name] = self.patch_function(
                module_name, attr,
                lambda fn, n=name, a=attr_of: span(n, fn, None, a),
            )
        for module_name, attr in (("repro.embed.tfidf", "cosine"),
                                  ("repro.sql.skeleton", "skeleton_similarity")):
            bindings[f"select.similarity:{attr}"] = self.patch_function(
                module_name, attr,
                lambda fn: self.count_wrapper("select.similarity", fn),
            )
        self.patch_method(TokenCounter, "count", self.token_lookup_wrapper)
        counter_module = importlib.import_module("repro.tokenizer.counter")
        original = counter_module.count_tokens
        counter_module.count_tokens = self.token_compute_wrapper(original)
        self._patches.append((counter_module, "count_tokens", original))
        return bindings

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- harvesting ------------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counts (between passes, while no
        traced work runs)."""
        with self._lock:
            for log in self._logs:
                log.spans = []
                log.counts = Counter()

    def take(self) -> "TraceData":
        """The spans and counts recorded since the last reset."""
        with self._lock:
            logs = [(log.spans, Counter(log.counts)) for log in self._logs]
        counts: Counter = Counter()
        for _, thread_counts in logs:
            counts.update(thread_counts)
        return TraceData(
            threads=[spans for spans, _ in logs if spans],
            counts=counts,
            origin=self._origin,
        )


@dataclass
class TraceData:
    """Spans per thread plus call counters."""

    threads: List[List[list]]
    counts: Counter
    origin: float

    def totals(self) -> Dict[str, LayerTotals]:
        """Calls, inclusive wall, and self wall/CPU time per span name."""
        out: Dict[str, LayerTotals] = {}
        for spans in self.threads:
            child_wall = [0.0] * len(spans)
            child_cpu = [0.0] * len(spans)
            for span in spans:
                parent = span[PARENT]
                if parent >= 0:
                    child_wall[parent] += span[END] - span[START]
                    child_cpu[parent] += span[CPU_END] - span[CPU_START]
            for index, span in enumerate(spans):
                totals = out.setdefault(span[NAME], LayerTotals())
                wall = span[END] - span[START]
                totals.calls += 1
                totals.incl_wall_s += wall
                totals.self_wall_s += wall - child_wall[index]
                totals.self_cpu_s += (
                    span[CPU_END] - span[CPU_START] - child_cpu[index]
                )
                if span[ATTR] is not None:
                    totals.attrs.append(span[ATTR])
        return out

    def lines(self) -> Iterable[str]:
        """JSON lines, one per span (times in ms from the run's start)."""
        for thread, spans in enumerate(self.threads):
            for index, span in enumerate(spans):
                yield json.dumps({
                    "name": span[NAME],
                    "key": span[KEY],
                    "thread": thread,
                    "id": index,
                    "parent": span[PARENT],
                    "start_ms": round((span[START] - self.origin) * 1e3, 4),
                    "end_ms": round((span[END] - self.origin) * 1e3, 4),
                    "cpu_ms": round((span[CPU_END] - span[CPU_START]) * 1e3, 4),
                    "attr": span[ATTR],
                })


def self_time_table(totals: Dict[str, LayerTotals], per: int) -> str:
    """Human-readable self-time table (ms per example or request)."""
    rows = ["span                      calls/op  self wall ms/op  "
            "self cpu ms/op  incl wall ms/op"]
    for name in sorted(totals, key=lambda n: -totals[n].self_wall_s):
        t = totals[name]
        rows.append(
            f"{name:<25} {t.calls / per:>9.3f} {t.self_wall_s * 1e3 / per:>16.4f}"
            f" {t.self_cpu_s * 1e3 / per:>15.4f} {t.incl_wall_s * 1e3 / per:>16.4f}"
        )
    return "\n".join(rows)


def write_trace(path: Path, traces: List[TraceData], table: str) -> None:
    """Write every recorded span, then the self-time table as a final
    ``{"self_time_table": ...}`` line, gzip-compressed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as handle:
        for trace in traces:
            for line in trace.lines():
                handle.write(line + "\n")
        handle.write(json.dumps({"self_time_table": table}) + "\n")
