"""Observability v2 over HTTP: correlation ids, access log, build info.

Covers the request-id lifecycle (accept / sanitise / mint / echo), the
structured access log, the self-describing ``repro_build_info`` gauge,
and the acceptance property of the whole correlation plane: one
request's span tree reconstructs identically whether it ran alone
(serial server) or next to other requests (threaded server under
concurrent load).
"""

from __future__ import annotations

import threading

from repro.eval.harness import BenchmarkRunner
from repro.obs import tracefile
from repro.obs.metrics import MetricsRegistry, parse_prometheus
from repro.obs.trace import Tracer
from repro.serve import (
    SqlServer,
    SqlService,
    load_access_log,
    sanitize_request_id,
)
from repro.serve.access_log import AccessLog

from .test_http import fresh_server, get, post


class TestSanitize:
    def test_passthrough_for_clean_ids(self):
        assert sanitize_request_id("req-1.a_B") == "req-1.a_B"

    def test_strips_header_hostile_characters(self):
        assert sanitize_request_id("a b\r\nX-Evil: 1é") == "abX-Evil1"

    def test_truncates_to_64(self):
        assert len(sanitize_request_id("x" * 200)) == 64

    def test_empty_and_none_are_empty(self):
        assert sanitize_request_id("") == ""
        assert sanitize_request_id(None) == ""


class TestHttpRequestIds:
    def test_client_id_echoed_in_header_and_body(self, corpus, dev_example):
        with fresh_server(corpus) as instance:
            status, payload, headers = post(
                instance.url, "/v1/generate",
                {"question": dev_example.question,
                 "db_id": dev_example.db_id},
                headers={"X-Request-Id": "client-abc"},
            )
            assert status == 200
            assert headers["X-Request-Id"] == "client-abc"
            assert payload["request_id"] == "client-abc"

    def test_minted_ids_are_sequential(self, corpus, dev_example):
        with fresh_server(corpus) as instance:
            body = {"question": dev_example.question,
                    "db_id": dev_example.db_id}
            ids = [post(instance.url, "/v1/generate", body)[1]["request_id"]
                   for _ in range(3)]
            assert ids == ["req-1", "req-2", "req-3"]

    def test_hostile_inbound_id_is_sanitised(self, corpus, dev_example):
        with fresh_server(corpus) as instance:
            _, payload, headers = post(
                instance.url, "/v1/generate",
                {"question": dev_example.question,
                 "db_id": dev_example.db_id},
                headers={"X-Request-Id": "ok chars only!!"},
            )
            assert payload["request_id"] == "okcharsonly"
            assert headers["X-Request-Id"] == "okcharsonly"

    def test_error_responses_carry_the_id(self, corpus):
        with fresh_server(corpus) as instance:
            status, payload, headers = post(
                instance.url, "/v1/generate",
                {"question": "q", "db_id": "no_such_db"},
                headers={"X-Request-Id": "err-1"},
            )
            assert status == 404
            assert payload["request_id"] == "err-1"
            assert headers["X-Request-Id"] == "err-1"


class TestAccessLog:
    def test_one_line_per_request_with_attribution(self, corpus,
                                                   dev_example, tmp_path):
        log_path = tmp_path / "access.jsonl"
        runner = BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(),
                                 seed=3)
        service = SqlService(runner, metrics=MetricsRegistry())
        server = SqlServer(service, port=0,
                           access_log=AccessLog(log_path)).start_background()
        with server:
            post(server.url, "/v1/generate",
                 {"question": dev_example.question,
                  "db_id": dev_example.db_id},
                 headers={"X-Request-Id": "log-1"})
            post(server.url, "/v1/generate",
                 {"question": "q", "db_id": "no_such_db"})
        entries = load_access_log(log_path)
        assert len(entries) == 2
        ok, bad = entries
        assert ok["request_id"] == "log-1"
        assert ok["path"] == "/v1/generate" and ok["status"] == 200
        assert ok["method"] == "POST"
        assert ok["tenant"] == "default"
        assert ok["prompt_tokens"] > 0
        assert ok["latency_s"] > 0
        assert bad["status"] == 404 and bad["request_id"] == "req-1"

    def test_load_skips_torn_lines(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path)
        log.record(ts=1.0, request_id="a", tenant="t", method="POST",
                   path="/v1/lint", status=200, latency_s=0.01)
        log.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "request_id": "torn')
        entries = load_access_log(path)
        assert [e["request_id"] for e in entries] == ["a"]


class TestBuildInfo:
    def test_metrics_scrape_is_self_describing(self, corpus):
        from repro import __version__
        from repro.api.wire import WIRE_SCHEMA_VERSION
        from repro.eval.persistence import FORMAT_VERSION

        with fresh_server(corpus) as instance:
            _, text = get(instance.url, "/metrics")
        samples = [s for s in parse_prometheus(text)
                   if s[0] == "repro_build_info"]
        assert len(samples) == 1
        _, labels, value = samples[0]
        assert value == 1.0
        assert labels["version"] == __version__
        assert labels["wire"] == str(WIRE_SCHEMA_VERSION)
        assert labels["report_format"] == str(FORMAT_VERSION)
        assert labels["backend"] == "sqlite"


def traced_server(corpus, trace_path, threaded):
    runner = BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(), seed=3)
    tracer = Tracer(trace_path)
    service = SqlService(runner, metrics=MetricsRegistry(), tracer=tracer)
    return SqlServer(service, port=0, threaded=threaded).start_background(), \
        tracer


def tree_shape(node):
    """The timing-free skeleton of a correlated span tree."""
    span = node["span"]
    return (
        span["kind"],
        span["name"] if span["kind"] == "stage" else span["kind"],
        tuple(tree_shape(child) for child in node["children"]),
    )


class TestCorrelationUnderCoalescing:
    def test_serial_and_concurrent_span_trees_agree(self, corpus, tmp_path):
        examples = corpus.dev.examples[:4]
        bodies = {
            f"r{i}": {"question": example.question, "db_id": example.db_id}
            for i, example in enumerate(examples)
        }

        serial_server, serial_tracer = traced_server(
            corpus, tmp_path / "serial.jsonl", threaded=False
        )
        with serial_server:
            for rid, body in bodies.items():
                status, _, _ = post(serial_server.url, "/v1/generate", body,
                                    headers={"X-Request-Id": rid})
                assert status == 200
        serial_tracer.close()

        threaded_server, threaded_tracer = traced_server(
            corpus, tmp_path / "threaded.jsonl", threaded=True
        )
        with threaded_server:
            threads = [
                threading.Thread(
                    target=post,
                    args=(threaded_server.url, "/v1/generate", body),
                    kwargs={"headers": {"X-Request-Id": rid}},
                )
                for rid, body in bodies.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        threaded_tracer.close()

        serial_spans = tracefile.load_spans(tmp_path / "serial.jsonl")
        threaded_spans = tracefile.load_spans(tmp_path / "threaded.jsonl")
        assert tracefile.request_ids(serial_spans) == list(bodies)
        assert set(tracefile.request_ids(threaded_spans)) == set(bodies)

        for rid in bodies:
            serial_tree = tracefile.correlate(serial_spans, rid)
            threaded_tree = tracefile.correlate(threaded_spans, rid)
            # identical skeletons: one request root, the same stages in
            # the same order — whether or not other requests ran
            # alongside.
            assert tree_shape(serial_tree) == tree_shape(threaded_tree), rid
            for node in serial_tree["children"]:
                attrs = node["span"]["attrs"]
                assert attrs.get("request") == rid

    def test_every_span_in_a_tree_is_stamped(self, corpus, tmp_path):
        example = corpus.dev.examples[0]
        server, tracer = traced_server(
            corpus, tmp_path / "one.jsonl", threaded=True
        )
        with server:
            post(server.url, "/v1/generate",
                 {"question": example.question, "db_id": example.db_id},
                 headers={"X-Request-Id": "solo-1"})
        tracer.close()
        tree = tracefile.correlate(
            tracefile.load_spans(tmp_path / "one.jsonl"), "solo-1"
        )

        def walk(node):
            yield node["span"]
            for child in node["children"]:
                yield from walk(child)

        spans = list(walk(tree))
        stage_names = [s["name"] for s in spans if s["kind"] == "stage"]
        assert "generate" in stage_names and "analyze" in stage_names
        assert all(
            span["attrs"].get("request", "solo-1") == "solo-1"
            for span in spans
        )
