"""The HTTP/JSON transport over :class:`~repro.serve.service.SqlService`.

Stdlib only (:mod:`http.server`): a
:class:`~http.server.ThreadingHTTPServer` whose handler parses JSON
bodies into the versioned wire dataclasses, calls the service, and maps
the typed error hierarchy onto status codes::

    WireFormatError       400   malformed body / wrong schema version
    DatasetError          404   unknown db_id
    UnsafeSqlError        422   safety gate refused execution
    RateLimitedError      429   tenant over budget (Retry-After set)
    CircuitOpenError      503   LLM backend circuit open
    DeadlineExceededError 504   request budget expired
    ReproError            500   anything else from the library

Endpoints::

    POST /v1/generate   question → SQL (full pipeline)
    POST /v1/lint       static analysis / repair
    POST /v1/execute    safety-gated execution
    POST /v1/explain    show the prompt, don't generate
    GET  /healthz       liveness + served model
    GET  /metrics       Prometheus text (atomic registry scrape)

Every request lands in the shared
:class:`~repro.obs.metrics.MetricsRegistry`:
``repro_http_requests_total{path,status}``,
``repro_http_request_seconds{path}`` and the
``repro_serve_inflight_requests`` gauge — the same registry the
pipeline telemetry writes to, so one ``/metrics`` scrape
tells the whole story.

Every request also carries a correlation id: the server honours an
inbound ``X-Request-Id`` header (sanitised) or mints a deterministic
``req-<n>``, echoes it in the ``X-Request-Id`` response header (errors
included), stamps it into every v3 wire response body, and binds it
into the ambient observability context so trace spans, cost samples,
journal entries and access-log lines all join on it.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from typing import Callable, Optional, Tuple

from ..api.wire import (
    ErrorResponse,
    ExecuteRequest,
    ExplainRequest,
    GenerateRequest,
    LintRequest,
    WIRE_SCHEMA_VERSION,
)
from ..errors import (
    CircuitOpenError,
    DatasetError,
    DeadlineExceededError,
    RateLimitedError,
    ReproError,
    UnsafeSqlError,
    WireFormatError,
)
from ..obs.build import record_build_info
from ..obs.metrics import (
    M_HTTP_LATENCY,
    M_HTTP_REQUESTS,
    M_SERVE_INFLIGHT,
    MetricsRegistry,
)
from .access_log import AccessLog
from .service import SqlService

#: Largest accepted request body (bytes) — a crude but effective guard.
MAX_BODY_BYTES = 1 << 20

#: Correlation ids: client-supplied ids are reduced to this alphabet
#: and capped, so they are safe as header echoes, JSON values, span
#: names and log fields alike.
_REQUEST_ID_CHARS = re.compile(r"[^A-Za-z0-9._-]+")
MAX_REQUEST_ID_LEN = 64


def sanitize_request_id(raw: str) -> str:
    """A client-supplied ``X-Request-Id`` reduced to the safe alphabet
    (``[A-Za-z0-9._-]``, at most :data:`MAX_REQUEST_ID_LEN` chars);
    "" when nothing safe survives — the server then mints its own."""
    return _REQUEST_ID_CHARS.sub("", raw or "")[:MAX_REQUEST_ID_LEN]

#: POST route → (request parser, service method name).
_ROUTES = {
    "/v1/generate": (GenerateRequest.from_json, "generate"),
    "/v1/lint": (LintRequest.from_json, "lint"),
    "/v1/execute": (ExecuteRequest.from_json, "execute"),
    "/v1/explain": (ExplainRequest.from_json, "explain"),
}


def _status_for(error: ReproError) -> Tuple[int, str]:
    """(HTTP status, wire error type) for one library error."""
    if isinstance(error, WireFormatError):
        return 400, "wire_format"
    if isinstance(error, DatasetError):
        return 404, "unknown_database"
    if isinstance(error, UnsafeSqlError):
        return 422, "unsafe_sql"
    if isinstance(error, RateLimitedError):
        return 429, "rate_limited"
    if isinstance(error, CircuitOpenError):
        return 503, "circuit_open"
    if isinstance(error, DeadlineExceededError):
        return 504, "deadline_exceeded"
    return 500, "internal"


class _Handler(BaseHTTPRequestHandler):
    """One request.  The server instance carries the service/registry."""

    server: "SqlServer"
    protocol_version = "HTTP/1.1"
    # Headers and body are separate writes; with Nagle's algorithm on,
    # the body waits for the client's delayed ACK (~40 ms per response).
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # metrics carry the signal; stderr stays quiet

    def _begin(self) -> str:
        """Assign this request its correlation id: the sanitised
        inbound ``X-Request-Id`` or a freshly minted ``req-<n>``."""
        rid = sanitize_request_id(self.headers.get("X-Request-Id", ""))
        if not rid:
            rid = self.server.next_request_id()
        self._request_id = rid
        self._tenant = ""
        self._prompt_tokens = 0
        self._completion_tokens = 0
        return rid

    def _send_json(self, status: int, payload: dict,
                   extra_headers: Optional[dict] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        rid = getattr(self, "_request_id", "")
        if rid:
            self.send_header("X-Request-Id", rid)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error_reply(self, error: ReproError) -> Tuple[int, dict, dict]:
        status, kind = _status_for(error)
        headers = {}
        if isinstance(error, RateLimitedError):
            headers["Retry-After"] = f"{max(error.retry_after_s, 0.0):.3f}"
        detail = (
            error.diagnostics if isinstance(error, UnsafeSqlError) else []
        )
        payload = ErrorResponse(
            error=kind, message=str(error), detail=detail,
            request_id=getattr(self, "_request_id", ""),
        ).to_json()
        return status, payload, headers

    def _record(self, path: str, status: int, started: float,
                method: str = "POST") -> None:
        """Count the request in the registry and the access log.

        Always called *before* the response bytes flush to the client:
        a client that has read its reply must find the request already
        counted on a follow-up ``/metrics`` scrape, even when the
        handler thread is still unwinding.
        """
        registry = self.server.metrics
        registry.counter_add(
            M_HTTP_REQUESTS, 1, {"path": path, "status": str(status)}
        )
        registry.observe(
            M_HTTP_LATENCY, time.monotonic() - started, {"path": path}
        )
        log = self.server.access_log
        if log is not None:
            log.record(
                ts=time.time(),
                request_id=getattr(self, "_request_id", ""),
                tenant=getattr(self, "_tenant", ""),
                method=method,
                path=path,
                status=status,
                latency_s=time.monotonic() - started,
                prompt_tokens=getattr(self, "_prompt_tokens", 0),
                completion_tokens=getattr(self, "_completion_tokens", 0),
            )

    # -- GET -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        started = time.monotonic()
        self._begin()
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._record(path, 200, started, method="GET")
            self._send_json(200, {
                "status": "ok",
                "version": WIRE_SCHEMA_VERSION,
                "model": self.server.service.plan.config.model,
                "uptime_s": round(time.monotonic() - self.server.started, 3),
            })
            return
        if path == "/metrics":
            self._record(path, 200, started, method="GET")
            text, _ = self.server.metrics.scrape()
            body = text.encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Request-Id", self._request_id)
            self.end_headers()
            self.wfile.write(body)
            return
        self._record(path, 404, started, method="GET")
        self._send_json(404, ErrorResponse(
            error="not_found", message=f"no such endpoint: {path}",
            request_id=self._request_id,
        ).to_json())

    # -- POST ----------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        started = time.monotonic()
        self._begin()
        path = self.path.split("?", 1)[0]
        route = _ROUTES.get(path)
        if route is None:
            self._record(path, 404, started)
            self._send_json(404, ErrorResponse(
                error="not_found", message=f"no such endpoint: {path}",
                request_id=self._request_id,
            ).to_json())
            return
        registry = self.server.metrics
        registry.gauge_add(M_SERVE_INFLIGHT, 1)
        try:
            status, payload, headers = self._handle_post(route)
        finally:
            registry.gauge_add(M_SERVE_INFLIGHT, -1)
        self._record(path, status, started)
        self._send_json(status, payload, headers)

    def _handle_post(self, route) -> Tuple[int, dict, dict]:
        parse, method = route
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length > MAX_BODY_BYTES:
                raise WireFormatError(
                    f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
                )
            raw = self.rfile.read(length) if length else b""
            try:
                payload = json.loads(raw.decode("utf-8") or "null")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise WireFormatError(f"body is not valid JSON: {exc}") from exc
            request = parse(payload)
            self._tenant = getattr(request, "tenant", "")
            response = getattr(self.server.service, method)(
                request, request_id=self._request_id
            )
        except ReproError as error:
            return self._error_reply(error)
        except Exception as exc:  # noqa: BLE001 — surfaced as a 500 body
            return 500, ErrorResponse(
                error="internal", message=f"{type(exc).__name__}: {exc}",
                request_id=self._request_id,
            ).to_json(), {}
        self._prompt_tokens = int(getattr(response, "prompt_tokens", 0))
        self._completion_tokens = int(getattr(response, "completion_tokens", 0))
        return 200, response.to_json(), {}


class SqlServer:
    """A serving endpoint: HTTP transport + service + shared registry.

    Args:
        service: the serving core (owns plan, breaker, limiter).
        host / port: bind address; port 0 picks a free port (tests).
        threaded: ``True`` uses :class:`ThreadingHTTPServer` (one thread
            per connection); ``False`` a serial :class:`HTTPServer` —
            the determinism tests assert both produce identical bodies.
        access_log: structured JSONL access log (``None`` — the
            default — logs nothing); owned and closed by :meth:`close`.
    """

    def __init__(
        self,
        service: SqlService,
        host: str = "127.0.0.1",
        port: int = 8765,
        threaded: bool = True,
        access_log: Optional[AccessLog] = None,
    ):
        self.service = service
        self.metrics = service.metrics
        self.started = time.monotonic()
        self.access_log = access_log
        # Minted ids are a plain counter, so sequential traffic gets the
        # same ids from a threaded and a serial server — the determinism
        # tests stay byte-for-byte.
        self._rid_lock = threading.Lock()
        self._rid = 0
        record_build_info(
            self.metrics,
            backend=getattr(service.runner, "backend_name", ""),
        )
        server_cls = ThreadingHTTPServer if threaded else HTTPServer
        self._httpd = server_cls((host, port), _Handler)
        self._httpd.daemon_threads = True  # type: ignore[attr-defined]
        # The handler reaches collaborators through its ``server``.
        self._httpd.service = service  # type: ignore[attr-defined]
        self._httpd.metrics = self.metrics  # type: ignore[attr-defined]
        self._httpd.started = self.started  # type: ignore[attr-defined]
        self._httpd.access_log = access_log  # type: ignore[attr-defined]
        self._httpd.next_request_id = (  # type: ignore[attr-defined]
            self.next_request_id
        )
        self._thread: Optional[threading.Thread] = None

    def next_request_id(self) -> str:
        """Mint the next server-assigned correlation id (``req-<n>``)."""
        with self._rid_lock:
            self._rid += 1
            return f"req-{self._rid}"

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — resolves port 0 to the real port."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`close` (CLI entry)."""
        self._httpd.serve_forever(poll_interval=0.1)

    def start_background(self) -> "SqlServer":
        """Serve on a daemon thread (tests and the load generator)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="serve-http", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, drain, and shut the service down."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.service.close()
        if self.access_log is not None:
            self.access_log.close()

    def __enter__(self) -> "SqlServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build_server(
    fast: bool = True,
    host: str = "127.0.0.1",
    port: int = 8765,
    threaded: bool = True,
    config=None,
    metrics: Optional[MetricsRegistry] = None,
    service_factory: Callable[..., SqlService] = SqlService,
    access_log_path=None,
) -> SqlServer:
    """Convenience constructor: shared experiment context → server.

    Uses :func:`~repro.experiments.context.get_context`'s corpus and
    runner, so the server's artifact cache is the same one batch
    sweeps in this process warm up.  ``access_log_path`` switches the
    structured JSONL access log on (off by default).
    """
    from ..experiments.context import get_context

    context = get_context(fast)
    service = service_factory(
        context.runner, config, metrics=metrics or MetricsRegistry()
    )
    access_log = (
        AccessLog(access_log_path) if access_log_path is not None else None
    )
    return SqlServer(
        service, host=host, port=port, threaded=threaded,
        access_log=access_log,
    )
