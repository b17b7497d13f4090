"""Observability integration tests over the evaluation engine.

The load-bearing guarantees:

* instrumentation never changes results — a fully traced run produces
  records byte-identical to a ``NULL_TRACER`` run;
* parallel and serial runs produce the same spans, metrics totals and
  telemetry (ordering aside);
* the trace file reconciles with ``RunTelemetry.stage_s``.
"""

import sys
from collections import Counter
from dataclasses import asdict

import pytest

from repro.eval.engine import EvalEngine, GridRunner
from repro.eval.harness import BenchmarkRunner, RunConfig
from repro.obs import tracefile
from repro.obs.metrics import (
    M_BUSY_SECONDS,
    M_CACHE_REQUESTS,
    M_CACHE_TIER,
    M_DB_EXECUTE,
    M_ERRORS,
    M_EXAMPLES,
    M_INFLIGHT,
    M_LLM_REQUEST,
    M_LLM_TOKENS,
    M_STAGE_SECONDS,
    MetricsRegistry,
)
from repro.obs.trace import NULL_TRACER, Tracer

CONFIG = RunConfig(model="gpt-4", representation="CR_P")
GRID = [
    CONFIG,
    RunConfig(model="gpt-4", representation="CR_P",
              selection="DAIL_S", organization="DAIL_O", k=3),
]


def fresh_runner(corpus, **kwargs):
    return BenchmarkRunner(
        corpus.dev, corpus.train, corpus.pool(), seed=3, **kwargs
    )


def record_dicts(report):
    return [asdict(record) for record in report.records]


def traced_run(corpus, tmp_path, workers, name, configs=GRID, limit=6,
               poison=None):
    runner = fresh_runner(corpus)
    if poison is not None:
        poison(runner)
    registry = MetricsRegistry()
    tracer = Tracer(tmp_path / f"{name}.jsonl")
    try:
        grid = GridRunner(runner, workers=workers, tracer=tracer,
                          registry=registry).sweep(configs, limit=limit)
    finally:
        tracer.close()
    return grid, registry, tracefile.load_spans(tracer.path)


class TestInstrumentationIsInert:
    def test_traced_records_match_null_tracer_records(self, corpus, tmp_path):
        plain = GridRunner(fresh_runner(corpus), workers=1,
                           tracer=NULL_TRACER).sweep(GRID, limit=6)
        traced, _, _ = traced_run(corpus, tmp_path, workers=1, name="t")
        for a, b in zip(plain, traced):
            assert record_dicts(a) == record_dicts(b)
            assert a.execution_accuracy == b.execution_accuracy

    def test_null_tracer_leaves_no_trace_file(self, corpus):
        report = EvalEngine(fresh_runner(corpus), workers=1).run(
            CONFIG, limit=3
        )
        assert report.telemetry.trace_file == ""

    def test_traced_report_points_at_trace_file(self, corpus, tmp_path):
        grid, _, _ = traced_run(corpus, tmp_path, workers=1, name="ptr")
        for report in grid:
            assert report.telemetry.trace_file.endswith("ptr.jsonl")


class TestParallelEquivalence:
    def test_span_multiset_is_worker_count_independent(self, corpus, tmp_path):
        _, _, serial = traced_run(corpus, tmp_path, workers=1, name="s")
        _, _, parallel = traced_run(corpus, tmp_path, workers=4, name="p")

        def key(spans):
            return sorted(
                (s["kind"], s["name"], s.get("attrs", {}).get("cell", ""))
                for s in spans
            )

        assert key(serial) == key(parallel)

    def test_metric_totals_are_worker_count_independent(self, corpus,
                                                        tmp_path):
        _, reg_s, _ = traced_run(corpus, tmp_path, workers=1, name="ms")
        _, reg_p, _ = traced_run(corpus, tmp_path, workers=4, name="mp")
        for registry in (reg_s, reg_p):
            assert registry.counter_value(M_EXAMPLES) == 12
            assert registry.counter_value(M_ERRORS) == 0
            assert registry.gauge_value(M_INFLIGHT) == 0
            # >= examples: the DAIL_S config also generates preliminary
            # SQL, and shared-artifact cache races may add a few more in
            # parallel — exact counts are asserted on single-config runs
            assert registry.histogram_count(M_LLM_REQUEST) >= 12
            assert registry.histogram_count(M_DB_EXECUTE) > 0
            # the artifact cache reports tier-level events into the same
            # registry (engine attaches it via runner.cache.set_metrics)
            assert registry.counter_value(
                M_CACHE_TIER, {"event": "memory_hit"}
            ) > 0
            assert registry.counter_value(M_CACHE_TIER, {"event": "miss"}) > 0

    def test_telemetry_is_worker_count_independent(self, corpus, tmp_path):
        serial, _, _ = traced_run(corpus, tmp_path, workers=1, name="ts")
        parallel, _, _ = traced_run(corpus, tmp_path, workers=4, name="tp")
        for a, b in zip(serial, parallel):
            ta, tb = a.telemetry, b.telemetry
            assert ta.examples == tb.examples
            assert ta.errors == tb.errors
            assert sorted(ta.stage_s) == sorted(tb.stage_s)
            # single-config-artifact caches race across configs, but the
            # per-cell example counters must agree exactly
            assert ta.workers == 1 and tb.workers == 4

    def test_cache_counters_deterministic_for_single_config(self, corpus,
                                                            tmp_path):
        serial, _, _ = traced_run(corpus, tmp_path, workers=1, name="cs",
                                  configs=[CONFIG])
        parallel, _, _ = traced_run(corpus, tmp_path, workers=4, name="cp",
                                    configs=[CONFIG])
        assert serial[0].telemetry.cache_hits == parallel[0].telemetry.cache_hits
        assert (serial[0].telemetry.cache_misses
                == parallel[0].telemetry.cache_misses)


class TestReconciliation:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_trace_stage_totals_match_telemetry(self, corpus, tmp_path,
                                                workers):
        grid, registry, spans = traced_run(
            corpus, tmp_path, workers=workers, name=f"rec{workers}"
        )
        for report in grid:
            cell_totals = tracefile.stage_totals(spans, cell=report.label)
            # Telemetry is shape-stable (every declared stage, zero when
            # it never ran — e.g. "repair" with the loop off); the trace
            # only holds spans for stages that actually ran.
            assert set(cell_totals) <= set(report.telemetry.stage_s)
            for stage, stage_seconds in report.telemetry.stage_s.items():
                assert cell_totals.get(stage, 0.0) == pytest.approx(
                    stage_seconds, abs=1e-9
                )
        # whole-run registry totals also reconcile with the trace
        for stage, total in tracefile.stage_totals(spans).items():
            assert total == pytest.approx(
                registry.counter_value(M_STAGE_SECONDS, {"stage": stage}),
                abs=1e-9,
            )

    def test_busy_seconds_match_telemetry(self, corpus, tmp_path):
        grid, registry, _ = traced_run(corpus, tmp_path, workers=4,
                                       name="busy")
        total_busy = sum(r.telemetry.busy_s for r in grid)
        assert total_busy == pytest.approx(
            registry.counter_value(M_BUSY_SECONDS), abs=1e-9
        )

    def test_utilization_not_clamped_but_consistent(self, corpus):
        report = EvalEngine(fresh_runner(corpus), workers=4).run(
            CONFIG, limit=6
        )
        telemetry = report.telemetry
        # exclusive per-example accounting keeps busy time within capacity
        assert 0.0 < telemetry.utilization <= 1.0
        assert telemetry.busy_s <= (
            telemetry.workers * telemetry.wall_clock_s + 1e-6
        )

    def test_freeze_warns_on_inconsistent_accounting(self, caplog):
        import logging

        from repro.eval.telemetry import TelemetryCollector

        collector = TelemetryCollector()
        collector.example_done(10.0)
        with caplog.at_level(logging.WARNING, logger="repro.eval.telemetry"):
            telemetry = collector.freeze(workers=1, wall_clock_s=1.0)
        assert telemetry.busy_s == pytest.approx(10.0)
        assert telemetry.utilization == pytest.approx(10.0)  # not clamped
        assert any("accounting" in r.message for r in caplog.records)


class TestErrorSurfacing:
    @staticmethod
    def poison(runner, example_id):
        real = runner.evaluate_example

        def poisoned(example, plan, collector):
            if example.example_id == example_id:
                raise RuntimeError("poisoned example")
            return real(example, plan, collector)

        runner.evaluate_example = poisoned

    def test_error_class_lands_in_trace_and_groups(self, corpus, tmp_path):
        victim = corpus.dev.examples[1].example_id
        grid, registry, spans = traced_run(
            corpus, tmp_path, workers=4, name="err", configs=[CONFIG],
            poison=lambda r: self.poison(r, victim),
        )
        assert grid[0].error_count == 1
        assert registry.counter_value(M_ERRORS) == 1
        (group,) = tracefile.error_groups(spans)
        assert group["error_class"] == "RuntimeError"
        assert group["examples"] == [victim]
        assert "poisoned example" in group["messages"][0]

    def test_progress_reporter_counts_errors_live(self, corpus):
        import io

        from repro.obs.progress import ProgressReporter

        runner = fresh_runner(corpus)
        victim = corpus.dev.examples[0].example_id
        self.poison(runner, victim)
        stream = io.StringIO()
        with ProgressReporter(stream=stream, workers=4,
                              min_interval_s=0.0) as reporter:
            EvalEngine(runner, workers=4, progress=reporter).run(
                CONFIG, limit=4
            )
        assert "err 1" in stream.getvalue().split("\r")[-1]


class TestHotPathsBindOnce:
    """Stage timers, cache lookups, token metering, query timings and the
    in-flight gauge record through series bound once: after a series'
    first sample, a batch pass canonicalises none of their labels again,
    and no label set is canonicalised per example."""

    #: Modules of the per-sample hot paths (stage timers and cache
    #: hooks, token/cost metering, cache tier events, LLM histograms,
    #: query timings, the engine's in-flight gauge).
    HOT_MODULES = ("repro.eval.telemetry", "repro.obs.cost",
                   "repro.cache.store", "repro.llm.simulated",
                   "repro.db.sqlite_backend", "repro.eval.engine")

    @staticmethod
    def _vote_pass(corpus, limit=None):
        """A serial n=5, 3-round pass over a pool of its own, so each
        database has one connection (the shared pool has one per thread
        any earlier test ran on, each binding its own series)."""
        from repro.cache.store import ArtifactCache
        from repro.db.sqlite_backend import DatabasePool

        with DatabasePool() as pool:
            for db_id in corpus.dev.db_ids():
                pool.add(corpus.dev.schema(db_id), corpus.rows[db_id])
            runner = BenchmarkRunner(
                corpus.dev, corpus.train, pool, seed=3,
                cache=ArtifactCache(), feedback_rounds=3,
            )
            return EvalEngine(
                runner, workers=1, registry=MetricsRegistry()
            ).run(
                RunConfig(model="gpt-3.5-turbo", representation="CR_P"),
                n_samples=5, limit=limit,
            )

    def test_each_hot_series_canonicalised_once(self, corpus, monkeypatch):
        from repro.obs import metrics

        canonicalised = Counter()
        original = metrics.labels_key

        def counting(labels):
            # Every recording canonicalises in a bind_* method
            # (counter_add, gauge_add and observe bind a throwaway
            # series); the site is the first caller outside the
            # registry module.
            method = sys._getframe(1)
            site = method.f_back
            while site.f_globals.get("__name__") == metrics.__name__:
                site = site.f_back
            if method.f_code.co_name.startswith("bind_") and (
                site.f_globals.get("__name__") in self.HOT_MODULES
            ):
                name = method.f_locals.get("name")
                canonicalised[(name, original(labels))] += 1
            return original(labels)

        monkeypatch.setattr(metrics, "labels_key", counting)
        report = self._vote_pass(corpus)
        assert report.telemetry.examples == len(corpus.dev.examples) > 1
        names = {name for name, _ in canonicalised}
        assert {M_STAGE_SECONDS, M_CACHE_REQUESTS, M_CACHE_TIER,
                M_LLM_TOKENS, M_LLM_REQUEST, M_DB_EXECUTE,
                M_INFLIGHT} <= names
        repeated = {key: n for key, n in canonicalised.items() if n > 1}
        assert repeated == {}

    def test_no_label_set_per_example(self, corpus, monkeypatch):
        """Counting every canonicalisation, from any module, a pass over
        the whole split makes fewer extra ones than it has extra
        examples over a 6-example pass."""
        from repro.obs import metrics

        calls = {"n": 0}
        original = metrics.labels_key

        def counting(labels):
            calls["n"] += 1
            return original(labels)

        monkeypatch.setattr(metrics, "labels_key", counting)
        passes = []
        for limit in (6, None):
            calls["n"] = 0
            examples = self._vote_pass(corpus, limit=limit).telemetry.examples
            passes.append((examples, calls["n"]))
        (few, few_calls), (every, every_calls) = passes
        assert every - few >= 24
        assert every_calls - few_calls < every - few
