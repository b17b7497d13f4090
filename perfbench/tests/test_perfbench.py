"""Tests of the benchmark itself: hermetic inputs, strict response
decoding and the traced run's wrapping.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json

import pytest

from repro.api import GenerateResponse
from repro.dataset.generator.corpus import CorpusConfig

from perfbench import batch, serve
from perfbench.common import CheckFailures, SetupClock
from perfbench.tracing import Recorder

#: A small corpus keeps these tests to a few seconds.
SMALL = CorpusConfig(seed=5, train_per_db=6, dev_per_db=4)


def _vote_pass():
    bench = batch.BatchBench(batch.workloads()["batch-vote"], 5, SMALL)
    bench.setup(SetupClock())
    try:
        return bench.run_pass()
    finally:
        bench.close()


def test_calibrated_pass_keeps_records_and_leaves_out_sampling():
    bench = batch.BatchBench(batch.workloads()["batch-dail"], 5, SMALL)
    bench.setup(SetupClock())
    try:
        plain = bench.run_pass()
        calibrated = bench.run_pass(calibrate=True)
    finally:
        bench.close()
    assert calibrated.report.records == plain.report.records
    assert plain.scale == 1.0 and calibrated.scale > 0
    completions = calibrated.completions
    assert len(completions) == calibrated.examples
    assert completions == sorted(completions)
    # The engine's own wall clock includes the sampling; the pass's not.
    assert completions[-1] <= calibrated.wall_s
    assert calibrated.wall_s < calibrated.report.telemetry.wall_clock_s


def _point_environment_at(tmp_path, monkeypatch) -> dict:
    """Set every environment variable the library reads, into tmp_path."""
    dirs = {"cache": tmp_path / "cache", "trace": tmp_path / "trace"}
    monkeypatch.setenv("REPRO_CACHE_DIR", str(dirs["cache"]))
    monkeypatch.setenv("REPRO_TRACE_DIR", str(dirs["trace"]))
    monkeypatch.setenv("REPRO_WORKERS", "4")
    return dirs


def test_batch_ignores_repro_environment(monkeypatch, tmp_path):
    plain = _vote_pass()
    dirs = _point_environment_at(tmp_path, monkeypatch)
    hermetic = _vote_pass()
    assert hermetic.report.records == plain.report.records
    assert hermetic.report.telemetry.workers == 2
    assert hermetic.report.telemetry.trace_file == ""
    assert not any(path.exists() for path in dirs.values())


def test_serve_ignores_repro_environment_and_passes_checks(monkeypatch,
                                                          tmp_path):
    dirs = _point_environment_at(tmp_path, monkeypatch)
    bench = serve.ServeBench(5, SMALL)
    bench.setup(SetupClock())
    try:
        assert not bench.server.service.tracer.enabled
        chunk = bench.run_chunk("test", serve.HIGH_RATE, 1)
        checks = CheckFailures()
        scores = bench.check_and_score([chunk], checks)
    finally:
        bench.close()
    assert checks.messages == []
    assert all(o is not None and o.status == 200 for o in chunk.outcomes)
    assert 0 < scores["prompt_tokens_per_example"]
    assert not any(path.exists() for path in dirs.values())


def test_request_stream_depends_only_on_seed_and_chunk():
    from repro.dataset.generator.corpus import build_corpus

    corpus = build_corpus(SMALL)
    try:
        first, again, other = (
            serve.plan_chunk(seed, "low0", corpus, serve.LOW_RATE, 2,
                             serve.fresh_questions(seed, corpus))
            for seed in (5, 5, 6)
        )
    finally:
        corpus.close()
    assert first == again
    assert first != other
    kinds = [planned.kind for planned in first]
    assert sorted(kinds) == sorted(serve.BLOCK * 2)


def test_scaled_latency_keeps_the_transport_wait():
    served = serve.Outcome(due=0.0, sent=0.0, headers=0.010, done=0.050,
                           status=200, request_id="r", body=b"")
    failed = serve.Outcome(due=0.0, sent=0.0, headers=0.001, done=0.001,
                           status=0, request_id="r", body=b"")
    chunk = serve.Chunk(rate=1.0, planned=[], outcomes=[served, failed, None],
                        cpu_s=0.0, aborted=False, cache_stats={},
                        cache_entries=0, scale=0.5)
    assert chunk.latencies_ms()[0] == pytest.approx(50.0)
    # 10 ms until the headers at half speed, then 40 ms for the body.
    assert chunk.scaled_latencies_ms() == [pytest.approx(45.0),
                                           float("inf"), float("inf")]


def _generate_body() -> dict:
    return GenerateResponse(
        sql="SELECT a FROM t", db_id="d", statement_kind="select",
        error_class="", fatal=False, prompt_tokens=3, completion_tokens=1,
        n_examples=0, cached=False, request_id="r-1",
    ).to_json()


def test_decode_response_accepts_a_wire_body():
    body = _generate_body()
    decoded = serve.decode_response(GenerateResponse, json.dumps(body).encode())
    assert decoded.sql == "SELECT a FROM t" and decoded.request_id == "r-1"


@pytest.mark.parametrize("change", [
    lambda body: {**body, "extra": 1},
    lambda body: {k: v for k, v in body.items() if k != "sql"},
    lambda body: {**body, "fatal": 0},
    lambda body: {**body, "prompt_tokens": "3"},
    lambda body: {**body, "version": body["version"] - 1},
])
def test_decode_response_rejects_off_schema_bodies(change):
    with pytest.raises(ValueError):
        serve.decode_response(
            GenerateResponse, json.dumps(change(_generate_body())).encode())


def test_recorder_wraps_every_binding_and_restores_them():
    import repro.sql.canonical as canonical
    import repro.sql.parser as parser
    from repro.llm.simulated import SimulatedLLM

    original = parser.parse
    recorder = Recorder()
    bindings = recorder.install(SimulatedLLM, serve=True)
    try:
        assert all(count > 0 for count in bindings.values()), bindings
        assert canonical.parse is parser.parse is not original
        parser.try_parse("SELECT a FROM t")
    finally:
        recorder.uninstall()
    assert parser.parse is original and canonical.parse is original
    assert recorder.take().totals()["parse"].calls == 1
