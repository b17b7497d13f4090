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
    body read timeout     408   body shorter than its Content-Length
    Transfer-Encoding     501   only Content-Length bodies are read

The handler reads request heads itself: stdlib's request-line rules,
then the header lines into a small case-insensitive :class:`_Headers`
(stdlib's ``http.client.parse_headers`` runs the whole :mod:`email`
parser for a handful of lines, which was over half of a warm request's
server CPU).  It keeps stdlib's limits and outcomes — 431 for a line
over 65,536 bytes or more than 100 lines, 400 for a bad request or
header line, 505 for HTTP/2 and later, ``Connection``, HTTP/1.0 and
``Expect: 100-continue`` as stdlib handles them.  A request body, GET
or POST and whatever its path, is read only when one ``Content-Length``
frames it (a GET's is read and discarded): a bad, negative,
conflicting or oversized length (400) or a ``Transfer-Encoding`` (501)
closes the connection after the reply, so unread body bytes are never
taken for the next request.  The body's bytes must arrive within
:data:`BODY_READ_TIMEOUT_S` of the head; a client that sends fewer
gets a 408 and the connection closes, rather than hold its handler
thread until it hangs up.  A kept-alive connection idle between
requests has no timeout.  Each response — status line, headers and
body — leaves in one write.  The listening socket queues 128 pending
connections, not socketserver's 5.

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
tells the whole story.  The server binds each series once
(:class:`_RequestSeries`), so a request's samples skip the label
canonicalisation.

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
import socket
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ThreadingMixIn
from typing import Callable, Dict, List, Optional, Tuple

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
    CounterSeries,
    HistogramSeries,
    MetricsRegistry,
)
from .access_log import AccessLog
from .service import SqlService

#: Largest accepted request body (bytes) — a crude but effective guard.
MAX_BODY_BYTES = 1 << 20

#: Longest wait (seconds) for a request body, from the end of its head
#: to its last byte; a body still short then is answered 408.
BODY_READ_TIMEOUT_S = 5.0

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


#: stdlib's limits on a request head (``http.client``): the longest
#: line, and the most lines, the blank line that ends the head included.
_MAX_LINE = 65536
_MAX_HEAD_LINES = 100

#: One header line: a token name, a colon, the value (RFC 9112 §5).  A
#: line it does not match — no colon, whitespace before the colon, an
#: obs-fold continuation — is a 400.  Greedy and anchored, so a long
#: line costs linear time.
_HEADER_LINE = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+):(.*)\n")


class _Headers:
    """A request's header fields by case-insensitive name.

    :meth:`get` answers the first value of a repeated name, as
    :class:`email.message.Message` does; :meth:`get_all` answers all.
    """

    __slots__ = ("_fields",)

    def __init__(self) -> None:
        self._fields: Dict[str, List[str]] = {}

    def add(self, name: str, value: str) -> None:
        self._fields.setdefault(name.lower(), []).append(value)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        values = self._fields.get(name.lower())
        return values[0] if values else default

    def get_all(self, name: str) -> Tuple[str, ...]:
        return tuple(self._fields.get(name.lower(), ()))

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._fields


def _http_version(word: str) -> Optional[Tuple[int, int]]:
    """``HTTP/<major>.<minor>`` as two ints, or ``None`` when malformed
    (stdlib's rule: ASCII digits only, at most ten of each)."""
    if not word.startswith("HTTP/"):
        return None
    parts = word[5:].split(".")
    if len(parts) != 2 or not all(
        part.isascii() and part.isdigit() and len(part) <= 10
        for part in parts
    ):
        return None
    return int(parts[0]), int(parts[1])


class _RequestSeries:
    """The transport's metric series, bound once per server.

    A ``{path, status}`` pair is bound on its first request and kept, so
    later requests record without canonicalising labels.  The registry
    already holds one series per distinct path, so the memo grows with
    it and no faster.
    """

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self.inflight = registry.bind_gauge(M_SERVE_INFLIGHT)
        self._requests: Dict[Tuple[str, int], CounterSeries] = {}
        self._latency: Dict[str, HistogramSeries] = {}

    def requests(self, path: str, status: int) -> CounterSeries:
        series = self._requests.get((path, status))
        if series is None:
            series = self._requests.setdefault(
                (path, status),
                self._registry.bind_counter(
                    M_HTTP_REQUESTS, {"path": path, "status": str(status)}
                ),
            )
        return series

    def latency(self, path: str) -> HistogramSeries:
        series = self._latency.get(path)
        if series is None:
            series = self._latency.setdefault(
                path,
                self._registry.bind_histogram(M_HTTP_LATENCY, {"path": path}),
            )
        return series


class _Refused(Exception):
    """A request body the server will not or could not read: the
    reply's status, wire error type and message."""

    def __init__(self, status: int, kind: str, message: str):
        super().__init__(message)
        self.status = status
        self.kind = kind


class _Handler(BaseHTTPRequestHandler):
    """One request.  The server instance carries the service/registry."""

    server: "SqlServer"
    protocol_version = "HTTP/1.1"
    # A response is one write, but the 100-continue interim reply is a
    # write of its own; with Nagle's algorithm on, a write that follows
    # an unacknowledged one waits for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # metrics carry the signal; stderr stays quiet

    def parse_request(self) -> bool:
        """Parse the request line (stdlib's rules) and the header lines.

        Sets ``command``, ``path``, ``request_version``, ``headers`` and
        ``close_connection`` as stdlib's ``parse_request`` does; on a
        malformed head sends the error reply and returns ``False``.
        Unlike stdlib, a bad or unsupported version on a three-word
        request line is answered with a status line.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            # Set first, so an error reply carries a status line (stdlib
            # sends a bare HTML body, as to an HTTP/0.9 client).
            self.request_version = words[-1]
            version = _http_version(words[-1])
            if version is None:
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad request version ({words[-1]!r})",
                )
                return False
            if version >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({words[-1][5:]})",
                )
                return False
            self.close_connection = version < (1, 1)
        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST,
                f"Bad request syntax ({self.requestline!r})",
            )
            return False
        self.command, self.path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if self.command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad HTTP/0.9 request type ({self.command!r})",
                )
                return False
        if self.path.startswith("//"):  # gh-87389, as stdlib
            self.path = "/" + self.path.lstrip("/")
        headers = self._read_headers()
        if headers is None:
            return False
        self.headers = headers
        connection = headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (headers.get("Expect", "").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def _read_headers(self) -> Optional[_Headers]:
        """The header lines up to the blank line, or ``None`` once a
        431 or 400 reply is sent."""
        headers = _Headers()
        readline = self.rfile.readline
        for _ in range(_MAX_HEAD_LINES):
            line = readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {_MAX_LINE} bytes when reading header line",
                )
                return None
            if line in (b"\r\n", b"\n", b""):
                return headers
            match = _HEADER_LINE.fullmatch(line)
            if match is None:
                self.send_error(
                    HTTPStatus.BAD_REQUEST, "Bad header line", repr(line[:64]),
                )
                return None
            name, value = match.groups()
            headers.add(
                name.decode("ascii"),
                value.strip(b" \t\r").decode("iso-8859-1"),
            )
        self.send_error(
            HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
            "Too many headers", f"got more than {_MAX_HEAD_LINES} headers",
        )
        return None

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

    def _send(self, status: int, content_type: str, body: bytes,
              extra_headers: Optional[dict] = None) -> None:
        """Write the whole response — status line, headers, body — in
        one ``wfile.write``, so it leaves in one ``sendall``."""
        if self.request_version == "HTTP/0.9":  # no head, as stdlib
            self.wfile.write(body)
            return
        lines = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        rid = getattr(self, "_request_id", "")
        if rid:
            lines.append(f"X-Request-Id: {rid}")
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        lines.append("\r\n")
        self.wfile.write("\r\n".join(lines).encode("latin-1") + body)

    def _send_json(self, status: int, payload: dict,
                   extra_headers: Optional[dict] = None) -> None:
        self._send(status, "application/json",
                   json.dumps(payload).encode("utf-8"), extra_headers)

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
        latency_s = time.monotonic() - started
        series = self.server.series
        series.requests(path, status).add()
        series.latency(path).observe(latency_s)
        log = self.server.access_log
        if log is not None:
            log.record(
                ts=time.time(),
                request_id=getattr(self, "_request_id", ""),
                tenant=getattr(self, "_tenant", ""),
                method=method,
                path=path,
                status=status,
                latency_s=latency_s,
                prompt_tokens=getattr(self, "_prompt_tokens", 0),
                completion_tokens=getattr(self, "_completion_tokens", 0),
            )

    # -- GET -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        started = time.monotonic()
        self._begin()
        path = self.path.split("?", 1)[0]
        try:
            # A GET's body means nothing here, but the next request
            # starts after it.
            self._read_body()
        except _Refused as refused:
            status, payload, headers = self._unframed(refused)
            self._record(path, status, started, method="GET")
            self._send_json(status, payload, headers)
            return
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
            self._send(
                200, "text/plain; version=0.0.4; charset=utf-8",
                text.encode("utf-8"),
            )
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
        inflight = self.server.series.inflight
        inflight.add(1)
        try:
            status, payload, headers = self._handle_post(path)
        finally:
            inflight.add(-1)
        self._record(path, status, started)
        self._send_json(status, payload, headers)

    def _content_length(self) -> int:
        """The body's length, from its one ``Content-Length``."""
        values = set(self.headers.get_all("Content-Length")) or {"0"}
        if len(values) > 1:
            raise WireFormatError(
                f"conflicting Content-Length values: {sorted(values)}"
            )
        (value,) = values
        if not (value.isascii() and value.isdigit()):
            raise WireFormatError(f"bad Content-Length: {value!r}")
        length = int(value)
        if length > MAX_BODY_BYTES:
            raise WireFormatError(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
            )
        return length

    def _read_body(self) -> bytes:
        """The body its one ``Content-Length`` frames.

        Raises:
            _Refused: a ``Transfer-Encoding`` (501), a bad length (400),
                or a body still short after :data:`BODY_READ_TIMEOUT_S`
                (408).
        """
        if "Transfer-Encoding" in self.headers:
            raise _Refused(
                501, "not_implemented",
                "Transfer-Encoding is not supported; send the body with "
                "a Content-Length",
            )
        try:
            length = self._content_length()
        except WireFormatError as error:
            raise _Refused(400, "wire_format", str(error)) from None
        if not length:
            return b""
        # Only the body read is bounded: the socket has no timeout while
        # a kept-alive connection waits for its next request.
        deadline = time.monotonic() + BODY_READ_TIMEOUT_S
        chunks = []
        try:
            while length:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise socket.timeout()
                self.connection.settimeout(left)
                chunk = self.rfile.read1(length)
                if not chunk:
                    break  # the client hung up; the short body fails later
                chunks.append(chunk)
                length -= len(chunk)
        except socket.timeout:
            raise _Refused(
                408, "request_timeout",
                f"request body incomplete after {BODY_READ_TIMEOUT_S:g} s",
            ) from None
        finally:
            self.connection.settimeout(None)
        return b"".join(chunks)

    def _unframed(self, refused: _Refused) -> Tuple[int, dict, dict]:
        """The reply to a body the server did not read in full.  What is
        left of it stays on the socket, so the connection closes after
        the reply rather than take it for the next request."""
        self.close_connection = True
        return refused.status, ErrorResponse(
            error=refused.kind, message=str(refused),
            request_id=self._request_id,
        ).to_json(), {"Connection": "close"}

    def _handle_post(self, path: str) -> Tuple[int, dict, dict]:
        try:
            # Read before routing: the next request starts after the body.
            raw = self._read_body()
        except _Refused as refused:
            return self._unframed(refused)
        route = _ROUTES.get(path)
        try:
            if route is None:
                return 404, ErrorResponse(
                    error="not_found", message=f"no such endpoint: {path}",
                    request_id=self._request_id,
                ).to_json(), {}
            parse, method = route
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


class _HTTPServer(HTTPServer):
    """stdlib's serial server with a deeper listen backlog.

    socketserver listens with a backlog of 5.  A few clients connecting
    at once overflow it, and the kernel retries a dropped connection
    only after a second, which became the serve load gate's warm p99.
    """

    request_queue_size = 128


class _ThreadingHTTPServer(ThreadingMixIn, _HTTPServer):
    """One thread per connection, as :class:`~http.server.ThreadingHTTPServer`."""

    daemon_threads = True


class SqlServer:
    """A serving endpoint: HTTP transport + service + shared registry.

    Args:
        service: the serving core (owns plan, breaker, limiter).
        host / port: bind address; port 0 picks a free port (tests).
        threaded: ``True`` serves one thread per connection (as
            :class:`~http.server.ThreadingHTTPServer`); ``False`` a
            serial :class:`~http.server.HTTPServer` —
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
        server_cls = _ThreadingHTTPServer if threaded else _HTTPServer
        self._httpd = server_cls((host, port), _Handler)
        # The handler reaches collaborators through its ``server``.
        self._httpd.service = service  # type: ignore[attr-defined]
        self._httpd.metrics = self.metrics  # type: ignore[attr-defined]
        self._httpd.series = _RequestSeries(  # type: ignore[attr-defined]
            self.metrics
        )
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
