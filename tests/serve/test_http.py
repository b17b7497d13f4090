"""The HTTP transport: endpoints, status mapping, determinism, load."""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.eval.harness import BenchmarkRunner
from repro.obs.metrics import MetricsRegistry, parse_prometheus
from repro.serve import SqlServer, SqlService
from repro.serve import http as http_module
from repro.serve.http import MAX_BODY_BYTES, _Handler
from repro.serve.ratelimit import RateLimiter
from repro.resilience.breaker import CircuitBreaker

GOLDEN_DIR = Path(__file__).parent / "goldens"
ENDPOINTS = ("generate", "lint", "execute", "explain")


def post(base: str, path: str, body, headers: dict = None) -> tuple:
    """POST JSON; returns (status, payload, headers) without raising."""
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        with error:  # the error is the response: close its socket
            return error.code, json.loads(error.read()), error.headers


def get(base: str, path: str) -> tuple:
    try:
        with urllib.request.urlopen(base + path, timeout=30) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        with error:
            return error.code, error.read().decode("utf-8")


def fresh_server(corpus, *, threaded: bool = True, **service_kwargs) -> SqlServer:
    runner = BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(), seed=3)
    service = SqlService(runner, metrics=MetricsRegistry(), **service_kwargs)
    return SqlServer(service, port=0, threaded=threaded).start_background()


@pytest.fixture(scope="module")
def server(corpus):
    instance = fresh_server(corpus)
    yield instance
    instance.close()


@pytest.fixture(scope="module")
def base(server):
    return server.url


class TestEndpoints:
    def test_healthz_reports_ok_and_model(self, base):
        status, body = get(base, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model"] == "gpt-4"

    def test_golden_round_trip_every_endpoint(self, corpus):
        # A cold server: the goldens pin exact bodies incl. cached=False.
        # Explicit X-Request-Id headers make the pinned request_id echo
        # independent of request ordering.
        with fresh_server(corpus) as instance:
            for endpoint in ENDPOINTS:
                request = json.loads(
                    (GOLDEN_DIR / f"{endpoint}_request.json").read_text()
                )
                expected = json.loads(
                    (GOLDEN_DIR / f"{endpoint}_response.json").read_text()
                )
                status, payload, headers = post(
                    instance.url, f"/v1/{endpoint}", request,
                    headers={"X-Request-Id": f"golden-{endpoint}"},
                )
                assert status == 200, (endpoint, payload)
                assert payload == expected, endpoint
                assert headers["X-Request-Id"] == f"golden-{endpoint}"

    def test_metrics_exposes_request_latency_counters(
        self, base, dev_example
    ):
        post(base, "/v1/generate", {
            "question": dev_example.question, "db_id": dev_example.db_id,
        })
        status, text = get(base, "/metrics")
        assert status == 200
        samples = parse_prometheus(text)  # strict: must parse cleanly
        names = {name for name, _, _ in samples}
        assert "repro_http_requests_total" in names
        assert "repro_http_request_seconds_count" in names


class TestStatusMapping:
    def test_malformed_bodies_are_400(self, base):
        cases = [
            {},                                        # missing fields
            {"question": "q"},                         # missing db_id
            {"question": "q", "db_id": "d", "x": 1},   # unknown field
            {"question": "q", "db_id": "d", "version": 99},
            [1, 2, 3],                                 # not an object
        ]
        for body in cases:
            status, payload, _ = post(base, "/v1/generate", body)
            assert status == 400, body
            assert payload["error"] == "wire_format"

    def test_invalid_json_is_400(self, base):
        request = urllib.request.Request(
            base + "/v1/generate", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        with excinfo.value as error:
            assert error.code == 400

    def test_unknown_database_is_404(self, base):
        status, payload, _ = post(base, "/v1/generate", {
            "question": "q", "db_id": "no_such_db",
        })
        assert status == 404
        assert payload["error"] == "unknown_database"

    def test_unknown_endpoint_is_404(self, base):
        status, payload, _ = post(base, "/v1/nope", {})
        assert status == 404
        assert get(base, "/nope")[0] == 404

    def test_semantic_rules_flow_through_lint_endpoint(self, base):
        # A contradictory WHERE reaches the wire as a sem:* warning:
        # non-fatal (the statement executes, returning no rows), with
        # the analyzer's span/fix structure intact.
        status, payload, _ = post(base, "/v1/lint", {
            "db_id": "concert_singer",
            "sql": "SELECT name FROM singer WHERE age > 5 AND age < 3",
        })
        assert status == 200
        assert payload["fatal"] is False
        rules = [d["rule"] for d in payload["diagnostics"]]
        assert "sem:always-empty" in rules
        finding = next(
            d for d in payload["diagnostics"]
            if d["rule"] == "sem:always-empty"
        )
        assert finding["severity"] == "warning"
        assert "never" in finding["message"]

    def test_unsafe_sql_is_422_with_diagnostics(self, base, dev_example):
        status, payload, _ = post(base, "/v1/execute", {
            "db_id": dev_example.db_id, "sql": "DROP TABLE singer",
        })
        assert status == 422
        assert payload["error"] == "unsafe_sql"
        assert payload["detail"]

    def test_expired_deadline_is_504(self, base, dev_example):
        status, payload, _ = post(base, "/v1/generate", {
            "question": dev_example.question, "db_id": dev_example.db_id,
            "deadline_s": 1e-9,
        })
        assert status == 504
        assert payload["error"] == "deadline_exceeded"

    def test_rate_limited_is_429_with_retry_after(self, corpus, dev_example):
        with fresh_server(
            corpus, limiter=RateLimiter(rate=0.001, capacity=1)
        ) as instance:
            body = {"db_id": dev_example.db_id, "sql": dev_example.query}
            assert post(instance.url, "/v1/lint", body)[0] == 200
            status, payload, headers = post(instance.url, "/v1/lint", body)
            assert status == 429
            assert payload["error"] == "rate_limited"
            assert float(headers["Retry-After"]) > 0

    def test_open_circuit_is_503(self, corpus, dev_example):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=3600.0)
        with fresh_server(corpus, breaker=breaker) as instance:
            breaker.record_failure()  # trip it open
            status, payload, _ = post(instance.url, "/v1/generate", {
                "question": dev_example.question, "db_id": dev_example.db_id,
            })
            assert status == 503
            assert payload["error"] == "circuit_open"


class TestSocket:
    """Each response leaves as soon as it is written.  A response is one
    write, but the ``Expect: 100-continue`` interim reply is a write of
    its own, and with Nagle's algorithm on the write after it would wait
    for the client's delayed ACK (~40 ms on Linux)."""

    PATHS = ("/healthz", "/metrics")

    def test_accepted_sockets_set_tcp_nodelay(self, base, monkeypatch):
        seen = []
        setup = _Handler.setup

        def spy(handler):
            setup(handler)
            seen.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ))

        monkeypatch.setattr(_Handler, "setup", spy)
        for path in self.PATHS:
            assert get(base, path)[0] == 200
        assert len(seen) == len(self.PATHS) and all(seen)

    def test_kept_alive_requests_do_not_stall(self, server):
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        elapsed = []
        try:
            for index in range(20):
                started = time.perf_counter()
                connection.request("GET", self.PATHS[index % 2])
                response = connection.getresponse()
                response.read()
                elapsed.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(elapsed) < 0.02, elapsed


def raw_exchange(address, data: bytes, timeout: float = 5.0) -> bytes:
    """Send raw bytes and read until the server closes the connection.

    The socket timeout makes a server that hangs, or keeps a connection
    open that it should close, fail the test within ``timeout``."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def status_of(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


LINT_BODY = json.dumps({"db_id": "concert_singer",
                        "sql": "SELECT count(*) FROM singer"}).encode()


def lint_request(*header_lines: bytes, body: bytes = LINT_BODY) -> bytes:
    return (b"POST /v1/lint HTTP/1.1\r\nHost: t\r\n"
            + b"".join(line + b"\r\n" for line in header_lines)
            + b"\r\n" + body)


LENGTH = b"Content-Length: %d" % len(LINT_BODY)

#: (id, raw request, expected status, expected wire error or None).
#: Every request here must end with the server closing the connection.
RAW_CASES = [
    ("header-line-too-long",
     b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
     431, None),
    ("101-headers",
     b"GET /healthz HTTP/1.1\r\n"
     + b"".join(b"X-H%d: v\r\n" % i for i in range(101)) + b"\r\n",
     431, None),
    ("header-without-colon",
     b"GET /healthz HTTP/1.1\r\nNo colon here\r\n\r\n", 400, None),
    ("space-before-colon",
     b"GET /healthz HTTP/1.1\r\nHost : t\r\n\r\n", 400, None),
    ("obs-fold-continuation",
     b"GET /healthz HTTP/1.1\r\nX-A: one\r\n  two\r\n\r\n", 400, None),
    ("http-2", b"GET /healthz HTTP/2.0\r\n\r\n", 505, None),
    ("bad-request-line", b"GET /healthz HTTP/1.1 extra\r\n\r\n", 400, None),
    ("http-1.0-closes", b"GET /healthz HTTP/1.0\r\n\r\n", 200, None),
    ("connection-close-honoured",
     b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 200, None),
    ("mixed-case-names",
     lint_request(b"cOnNeCtIoN: CLOSE", b"content-LENGTH: %d" % len(LINT_BODY)),
     200, None),
    ("negative-content-length",
     lint_request(b"Content-Length: -1"), 400, "wire_format"),
    ("non-numeric-content-length",
     lint_request(b"Content-Length: abc"), 400, "wire_format"),
    ("conflicting-content-lengths",
     lint_request(b"Content-Length: 5", LENGTH), 400, "wire_format"),
    ("oversized-content-length",
     lint_request(b"Content-Length: %d" % (MAX_BODY_BYTES + 1)),
     400, "wire_format"),
    ("chunked-transfer-encoding",
     lint_request(b"Transfer-Encoding: chunked",
                  body=b"%x\r\n" % len(LINT_BODY) + LINT_BODY + b"\r\n0\r\n\r\n"),
     501, "not_implemented"),
    # A GET's body is framed as a POST's is.
    ("get-chunked-transfer-encoding",
     b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
     501, "not_implemented"),
    ("get-negative-content-length",
     b"GET /healthz HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400, "wire_format"),
    ("get-conflicting-content-lengths",
     b"GET /metrics HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2"
     b"\r\n\r\nab", 400, "wire_format"),
    ("get-oversized-content-length",
     b"GET /healthz HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
     % (MAX_BODY_BYTES + 1), 400, "wire_format"),
]


class TestRawRequests:
    """Request heads and body framing over a raw socket."""

    @pytest.mark.parametrize(
        "data, status, error", [case[1:] for case in RAW_CASES],
        ids=[case[0] for case in RAW_CASES],
    )
    def test_status_and_close(self, server, data, status, error):
        response = raw_exchange(server.address, data)
        assert status_of(response) == status, response[:200]
        if error is not None:
            head, _, body = response.partition(b"\r\n\r\n")
            assert b"\r\nConnection: close" in head
            assert json.loads(body)["error"] == error

    def test_expect_100_continue_is_answered(self, server):
        response = raw_exchange(server.address, lint_request(
            b"Expect: 100-continue", LENGTH, b"Connection: close",
        ))
        interim, _, final = response.partition(b"\r\n\r\n")
        assert interim == b"HTTP/1.1 100 Continue"
        assert status_of(final) == 200

    def test_repeated_name_keeps_first_value(self, server):
        response = raw_exchange(server.address, lint_request(
            LENGTH, b"X-Request-Id: first", b"x-request-id: second",
            b"Connection: close",
        ))
        assert b"\r\nX-Request-Id: first\r\n" in response

    def test_refused_body_is_never_read_as_a_request(self, server):
        """After an unframed body is refused, the connection closes, so
        its bytes are never read as a request; a new one is answered."""
        response = raw_exchange(server.address, lint_request(
            b"Transfer-Encoding: chunked",
            body=b"GET /nope HTTP/1.1\r\n\r\n",
        ))
        assert response.count(b"HTTP/1.1 ") == 1
        assert status_of(raw_exchange(server.address, lint_request(
            LENGTH, b"Connection: close",
        ))) == 200


    def test_get_body_is_read_and_discarded(self, server):
        """A GET's body is never taken for the next request: a body that
        reads as a request to a missing path gets no 404."""
        smuggled = b"GET /nope HTTP/1.1\r\n\r\n"
        response = raw_exchange(
            server.address,
            b"GET /healthz HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % len(smuggled) + smuggled
            + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        statuses = [status_of(b"HTTP/1.1 " + part)
                    for part in response.split(b"HTTP/1.1 ")[1:]]
        assert statuses == [200, 200], response[:400]

    def test_short_body_gets_408_within_the_bound(self, server, monkeypatch):
        """A body shorter than its Content-Length no longer holds the
        handler until the client hangs up."""
        monkeypatch.setattr(http_module, "BODY_READ_TIMEOUT_S", 0.5)
        started = time.monotonic()
        response = raw_exchange(server.address, lint_request(
            b"Content-Length: 100", body=b'{"db_id"',
        ), timeout=5.0)
        elapsed = time.monotonic() - started
        assert status_of(response) == 408, response[:200]
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["error"] == "request_timeout"
        assert 0.5 <= elapsed < 3.0

    def test_idle_kept_alive_connection_has_no_timeout(self, server,
                                                       monkeypatch):
        """Only the body read is bounded: a connection idle between
        requests for longer than the bound is still served."""
        monkeypatch.setattr(http_module, "BODY_READ_TIMEOUT_S", 0.2)
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            for pause in (0.0, 0.6):
                time.sleep(pause)
                connection.request("POST", "/v1/lint", body=LINT_BODY)
                response = connection.getresponse()
                response.read()
                assert response.status == 200
        finally:
            connection.close()

    def test_unknown_post_path_reads_its_body(self, server):
        """A 404 POST consumes its body, so the kept-alive connection
        stays in step for the next request."""
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            connection.request("POST", "/nope", body=b'{"a": 1}')
            response = connection.getresponse()
            response.read()
            assert response.status == 404
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            assert response.status == 200
        finally:
            connection.close()


class TestResponseWrites:
    def test_each_response_is_one_sendall(self, server, monkeypatch):
        sends = []
        setup = _Handler.setup

        class Spy:
            def __init__(self, sock):
                self._sock = sock

            def sendall(self, data):
                sends.append(bytes(data))
                return self._sock.sendall(data)

            def __getattr__(self, name):
                return getattr(self._sock, name)

        def spy(handler):
            setup(handler)
            handler.wfile._sock = Spy(handler.wfile._sock)

        monkeypatch.setattr(_Handler, "setup", spy)
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        requests = [
            ("GET", "/healthz", None), ("GET", "/metrics", None),
            ("GET", "/nope", None), ("POST", "/v1/lint", LINT_BODY),
            ("POST", "/v1/lint", b"{not json"), ("POST", "/nope", b"{}"),
        ]
        try:
            for method, path, body in requests:
                connection.request(method, path, body=body)
                response = connection.getresponse()
                payload = response.read()
                assert sends[-1].endswith(payload) and payload
        finally:
            connection.close()
        assert len(sends) == len(requests)
        assert all(data.startswith(b"HTTP/1.1 ") for data in sends)


class TestRequestMetrics:
    def test_counts_are_exact_per_path_and_status(self, corpus):
        with fresh_server(corpus) as instance:
            for _ in range(3):
                assert get(instance.url, "/healthz")[0] == 200
            for _ in range(2):
                assert get(instance.url, "/nope")[0] == 404
            body = json.loads(LINT_BODY)
            for _ in range(4):
                assert post(instance.url, "/v1/lint", body)[0] == 200
            assert post(instance.url, "/v1/lint", {})[0] == 400
            assert status_of(raw_exchange(
                instance.address, lint_request(b"Content-Length: -1"),
            )) == 400
            status, text = get(instance.url, "/metrics")
        assert status == 200
        counts = {
            (labels["path"], labels["status"]): value
            for name, labels, value in parse_prometheus(text)
            if name == "repro_http_requests_total"
        }
        assert counts == {
            ("/healthz", "200"): 3, ("/nope", "404"): 2,
            ("/v1/lint", "200"): 4, ("/v1/lint", "400"): 2,
            ("/metrics", "200"): 1,
        }
        latency = {
            labels["path"]: value
            for name, labels, value in parse_prometheus(text)
            if name == "repro_http_request_seconds_count"
        }
        assert latency == {
            "/healthz": 3, "/nope": 2, "/v1/lint": 6, "/metrics": 1,
        }
        inflight = [
            value for name, _, value in parse_prometheus(text)
            if name == "repro_serve_inflight_requests"
        ]
        assert inflight == [0]


class TestListenBacklog:
    def test_burst_of_connections_waits_in_the_backlog(self, corpus):
        """Connections that arrive before the server accepts them queue
        in the listen backlog.  socketserver's default of 5 drops the
        rest, and the client retries a dropped one only after a second
        (the serve load gate's warm p99 read about 1,000 ms)."""
        runner = BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(), seed=3)
        instance = SqlServer(SqlService(runner, metrics=MetricsRegistry()), port=0)
        sockets = []
        try:
            for _ in range(32):  # nothing accepts yet: all must queue
                sockets.append(
                    socket.create_connection(instance.address, timeout=0.5)
                )
        finally:
            for sock in sockets:
                sock.close()
            with instance.start_background():  # close() joins the serve loop
                pass
        assert len(sockets) == 32


class TestDeterminism:
    def test_serial_and_threaded_servers_agree_byte_for_byte(self, corpus):
        requests = [
            {"question": example.question, "db_id": example.db_id}
            for example in corpus.dev.examples[:6]
        ]
        with fresh_server(corpus, threaded=True) as threaded:
            threaded_bodies = [
                post(threaded.url, "/v1/generate", body)[1]
                for body in requests
            ]
        with fresh_server(corpus, threaded=False) as serial:
            serial_bodies = [
                post(serial.url, "/v1/generate", body)[1]
                for body in requests
            ]
        assert threaded_bodies == serial_bodies


class TestConcurrency:
    def test_eight_concurrent_clients_zero_dropped(self, corpus):
        examples = corpus.dev.examples[:8]
        with fresh_server(corpus) as instance:
            statuses = []
            lock = threading.Lock()

            def client(example) -> None:
                status, payload, _ = post(instance.url, "/v1/generate", {
                    "question": example.question, "db_id": example.db_id,
                })
                with lock:
                    statuses.append((status, payload.get("sql")))

            threads = [
                threading.Thread(target=client, args=(example,))
                for example in examples
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(statuses) == 8
            assert all(status == 200 for status, _ in statuses)
            assert all(sql for _, sql in statuses)
            # the registry saw every request
            _, text = get(instance.url, "/metrics")
            total = sum(
                value for name, labels, value in parse_prometheus(text)
                if name == "repro_http_requests_total"
                and labels.get("path") == "/v1/generate"
            )
            assert total == 8
