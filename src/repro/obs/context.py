"""Thread-local observability context: labels that follow a request.

A serving request runs on one HTTP thread, and a sweep evaluates
examples on arbitrary pool workers — yet token counts, journal entries
and spans all need to say *which* cell/tenant/request produced them.  This module
carries that attribution as a small thread-local stack of label dicts:

* :func:`bind` pushes labels for the duration of a ``with`` block
  (entries shadow outer bindings key-by-key);
* :func:`snapshot` returns the merged view — a plain dict that can be
  captured on one thread and carried to another;
* :func:`current_request_id` is the common special case.

Only short, low-cardinality strings belong here (``cell``, ``tenant``,
``backend``, ``stage``, ``request_id``).  The request id is *never*
used as a metric label — it would explode series cardinality — it only
flows into spans, journal entries and the access log.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List

#: Context keys the :class:`~repro.obs.cost.CostMeter` copies onto
#: token/cost metric labels (deliberately excludes ``request_id``).
METRIC_LABEL_KEYS = ("cell", "tenant", "backend", "stage")

_local = threading.local()


def _stack() -> List[Dict[str, str]]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


@contextmanager
def bind(**labels: str) -> Iterator[None]:
    """Push labels onto the calling thread's context for the block.

    Empty values are dropped (so call sites can pass them through
    unconditionally); inner bindings shadow outer ones per key.
    """
    frame = {key: str(value) for key, value in labels.items() if value}
    stack = _stack()
    stack.append(frame)
    try:
        yield
    finally:
        stack.pop()


def frames() -> List[Dict[str, str]]:
    """The calling thread's binding stack itself (not a copy).

    For hot paths that push one prebuilt frame around a block without
    :func:`bind`'s generator (the stage timer): the caller appends a
    frame it never mutates and pops it when the block ends, innermost
    first, exactly as ``bind`` does.
    """
    return _stack()


def snapshot() -> Dict[str, str]:
    """The merged label view of the calling thread (innermost wins).

    The returned dict is a copy — safe to store and read from another
    thread.
    """
    merged: Dict[str, str] = {}
    for frame in _stack():
        merged.update(frame)
    return merged


def get(key: str, default: str = "") -> str:
    """One context value, innermost binding first."""
    for frame in reversed(_stack()):
        if key in frame:
            return frame[key]
    return default


def current_request_id() -> str:
    """The serving request id bound on this thread ("" outside serve)."""
    return get("request_id")
