"""Analyze-stage integration tests: gating, caching, records, metrics."""

from dataclasses import asdict, replace

from repro.cache.store import ArtifactCache
from repro.eval.engine import EvalEngine, GridRunner
from repro.eval.harness import BenchmarkRunner, RunConfig
from repro.eval.pipeline import EvalPipeline
from repro.eval.telemetry import NULL_COLLECTOR
from repro.llm.interface import GenerationResult
from repro.obs.metrics import (
    M_LINT_DIAGNOSTICS,
    M_LINT_SHORT_CIRCUIT,
    MetricsRegistry,
)

ZERO_SHOT = RunConfig(model="gpt-4", representation="CR_P")
WEAK = RunConfig(model="llama-13b", representation="CR_P")


def fresh_runner(corpus, **kwargs):
    return BenchmarkRunner(
        corpus.dev, corpus.train, corpus.pool(), seed=3, **kwargs
    )


class TestAnalysisArtifact:
    def test_clean_sql_payload(self, runner, corpus):
        db_id = corpus.dev.examples[0].db_id
        schema = corpus.dev.schema(db_id)
        table = schema.tables[0]
        sql = f"SELECT {table.columns[0].name} FROM {table.name}"
        payload = runner.pipeline.analysis(db_id, sql, NULL_COLLECTOR)
        assert payload["fatal"] is False
        assert payload["error_class"] == ""
        assert payload["final_sql"] == sql
        assert payload["repaired_sql"] == ""
        assert payload["statement_kind"] == "select"

    def test_fatal_sql_payload(self, runner, corpus):
        db_id = corpus.dev.examples[0].db_id
        payload = runner.pipeline.analysis(
            db_id, "SELECT x FROM no_such_table", NULL_COLLECTOR
        )
        assert payload["fatal"] is True
        assert payload["error_class"].startswith("lint:")
        assert payload["diagnostics"]

    def test_artifact_cached(self, corpus):
        runner = fresh_runner(corpus)
        db_id = corpus.dev.examples[0].db_id
        sql = "SELECT x FROM no_such_table"
        first = runner.pipeline.analysis(db_id, sql, NULL_COLLECTOR)
        second = runner.pipeline.analysis(db_id, sql, NULL_COLLECTOR)
        assert first == second
        stats = runner.cache.stats()["analyze"]
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_repair_flag_changes_cache_key(self, corpus):
        cache = ArtifactCache()
        pool = corpus.pool()
        plain = EvalPipeline(corpus.dev, corpus.train, pool, cache)
        repairing = EvalPipeline(
            corpus.dev, corpus.train, pool, cache, repair=True
        )
        db_id = corpus.dev.examples[0].db_id
        schema = corpus.dev.schema(db_id)
        table = schema.tables[0]
        broken = (
            f"SELECT {table.columns[0].name} FROM {table.name} "
            "Hope this helps!"
        )
        gated = plain.analysis(db_id, broken, NULL_COLLECTOR)
        repaired = repairing.analysis(db_id, broken, NULL_COLLECTOR)
        assert gated["fatal"] is True
        assert repaired["fatal"] is False
        assert repaired["repaired_sql"]
        assert repaired["final_sql"] == repaired["repaired_sql"]
        assert "original_diagnostics" in repaired
        # Two different artifacts — the repair flag is part of the key.
        assert cache.stats()["analyze"]["misses"] == 2


class DropTableLLM:
    """Answers every prompt with a destructive statement."""

    model_id = "drop-table"

    def generate(self, prompt, sample_tag=""):
        return GenerationResult(
            "DROP TABLE students", prompt.token_count, 4, self.model_id
        )


class TestPipelineGate:
    def test_fatal_prediction_skips_execution(self, corpus, dev_example):
        runner = fresh_runner(corpus)
        # AS_P has no "SELECT" lead-in for extraction to prepend.
        config = RunConfig(model="gpt-4", representation="AS_P")
        plan = replace(runner.prepare(config), llm=DropTableLLM())
        record = runner.pipeline.run(dev_example, plan)
        assert record.predicted_sql == "DROP TABLE students"
        assert record.exec_match is False
        assert record.error_class == "lint:safety.non-select"
        # The fatal winner never ran, so scoring it read no gold either.
        stats = runner.cache.stats()
        assert "gold" not in stats and "execute" not in stats

    def test_statement_answer_under_select_lead_in_is_gated(
        self, corpus, dev_example
    ):
        """CR_P's prompt ends with "SELECT"; extraction must not turn a
        DROP answer into ``SELECT DROP ...`` (a parse error)."""
        runner = fresh_runner(corpus)
        plan = replace(runner.prepare(ZERO_SHOT), llm=DropTableLLM())
        assert plan.config.representation == "CR_P"
        record = runner.pipeline.run(dev_example, plan)
        assert record.predicted_sql == "DROP TABLE students"
        assert record.error_class == "lint:safety.non-select"
        stats = runner.cache.stats()
        assert "gold" not in stats and "execute" not in stats

    def test_weak_model_records_carry_lint_gate(self, corpus):
        """Every lint-gated record scores as a miss with an empty
        ``error`` (nothing raised) and a ``lint:`` error class."""
        report = EvalEngine(fresh_runner(corpus)).run(WEAK, limit=30)
        gated = [r for r in report.records
                 if r.error_class.startswith("lint:")]
        assert gated, "weak model should trip at least one fatal rule"
        for record in gated:
            assert record.exec_match is False
            assert record.error == ""
            assert record.diagnostics

    def test_statement_kind_recorded(self, corpus):
        report = EvalEngine(fresh_runner(corpus)).run(ZERO_SHOT, limit=4)
        assert all(r.statement_kind == "select" for r in report.records)

    def test_self_consistency_gates_samples(self, corpus):
        report = EvalEngine(fresh_runner(corpus)).run(
            WEAK, limit=10, n_samples=3
        )
        assert len(report.records) == 10
        for record in report.records:
            if record.error_class.startswith("lint:"):
                assert record.exec_match is False


class TestMetrics:
    def test_lint_counters_and_short_circuit_consistency(self, corpus):
        registry = MetricsRegistry()
        runner = fresh_runner(corpus)
        report = GridRunner(runner, registry=registry).sweep(
            [WEAK], limit=30
        )[0]
        gated = sum(1 for r in report.records
                    if r.error_class.startswith("lint:"))
        fired = sum(len(r.diagnostics) for r in report.records)
        assert registry.counter_value(M_LINT_SHORT_CIRCUIT) == gated
        assert registry.counter_value(M_LINT_DIAGNOSTICS) == fired
        # Per-rule series carry rule + severity labels.
        for labels, value in registry.counter_series(M_LINT_DIAGNOSTICS):
            assert labels["rule"]
            assert labels["severity"] in ("error", "warning", "info")
            assert value > 0

    def test_warm_rerun_still_counts_diagnostics(self, corpus, tmp_path):
        """Cache hits must not silence the lint counters: the stage
        counts from the (possibly cached) payload."""
        def sweep():
            registry = MetricsRegistry()
            runner = fresh_runner(
                corpus, cache=ArtifactCache(disk_dir=tmp_path)
            )
            report = GridRunner(runner, registry=registry).sweep(
                [WEAK], limit=20
            )[0]
            return registry.counter_value(M_LINT_DIAGNOSTICS), report
        cold_count, cold = sweep()
        warm_count, warm = sweep()
        assert warm_count == cold_count
        assert [asdict(r) for r in cold.records] == \
            [asdict(r) for r in warm.records]


class TestDeterminism:
    def test_serial_parallel_identical_with_analyzer(self, corpus, tmp_path):
        def sweep(workers):
            runner = fresh_runner(
                corpus, cache=ArtifactCache(disk_dir=tmp_path)
            )
            return GridRunner(runner, workers=workers).sweep(
                [WEAK], limit=12
            )[0]
        serial = sweep(1)
        parallel = sweep(4)
        assert [asdict(r) for r in serial.records] == \
            [asdict(r) for r in parallel.records]

    def test_warm_rerun_hits_analyze_cache(self, corpus, tmp_path):
        def run():
            runner = fresh_runner(
                corpus, cache=ArtifactCache(disk_dir=tmp_path)
            )
            EvalEngine(runner).run(ZERO_SHOT, limit=5)
            return runner.cache.stats()["analyze"]
        run()
        warm = run()
        assert warm["misses"] == 0
        assert warm["disk_hits"] > 0
