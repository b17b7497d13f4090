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
from repro.serve.http import _Handler
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
    """Each response leaves as soon as it is written: headers and body
    are separate writes, and with Nagle's algorithm on the body waits
    for the client's delayed ACK of the headers (~40 ms on Linux)."""

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
