"""The serving layer: a long-lived HTTP/JSON text-to-SQL service.

Built entirely on the existing substrate — the
:class:`~repro.eval.pipeline.EvalPipeline` question path, the content-addressed
:class:`~repro.cache.store.ArtifactCache`, the
:class:`~repro.obs.metrics.MetricsRegistry` and the
:class:`~repro.resilience.breaker.CircuitBreaker` — plus three serving
concerns of its own: a breaker- and deadline-guarded model call on the
request's own thread (:mod:`.coalesce`), per-tenant token-bucket rate
limiting (:mod:`.ratelimit`) and per-request deadline budgets
(:mod:`.service`).

Observability v2 threads a correlation id through the whole stack:
the HTTP layer accepts/mints ``X-Request-Id`` (:mod:`.http`), the
service binds it into the ambient context and opens the root
``request`` span (:mod:`.service`) under which every stage of the
request, its model calls included, runs on the same thread, and the
optional structured access log records it per request
(:mod:`.access_log`).

Entry points: ``dail-sql serve`` on the command line,
:func:`~repro.serve.http.build_server` in code, or drive
:class:`~repro.serve.service.SqlService` directly (no HTTP) in tests.
"""

from .access_log import AccessLog, load_access_log
from .http import SqlServer, build_server, sanitize_request_id
from .ratelimit import RateLimiter, TokenBucket
from .service import SqlService

__all__ = [
    "AccessLog",
    "RateLimiter",
    "SqlServer",
    "SqlService",
    "TokenBucket",
    "build_server",
    "load_access_log",
    "sanitize_request_id",
]
