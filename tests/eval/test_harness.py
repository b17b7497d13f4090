"""Benchmark runner tests."""

import pytest

from repro.errors import EvaluationError
from repro.eval.harness import BenchmarkRunner, RunConfig


class TestRunConfig:
    def test_default_label(self):
        config = RunConfig(model="gpt-4", representation="OD_P")
        assert "gpt-4" in config.resolved_label()
        assert "0-shot" in config.resolved_label()

    def test_fewshot_label(self):
        config = RunConfig(model="gpt-4", selection="DAIL_S", k=5,
                           organization="DAIL_O")
        assert "DAIL_S+DAIL_O@5" in config.resolved_label()

    def test_explicit_label_wins(self):
        config = RunConfig(model="gpt-4", label="custom")
        assert config.resolved_label() == "custom"


class TestRun:
    def test_zero_shot_run(self, runner, corpus):
        report = runner.run(RunConfig(model="gpt-4", representation="OD_P"))
        assert len(report) == len(corpus.dev)
        assert 0 < report.execution_accuracy <= 1

    def test_limit(self, runner):
        report = runner.run(RunConfig(model="gpt-4"), limit=5)
        assert len(report) == 5

    def test_fewshot_uses_examples(self, runner):
        report = runner.run(
            RunConfig(model="gpt-4", selection="RD_S", k=3), limit=5
        )
        assert all(r.n_examples == 3 for r in report.records)

    def test_zero_k_ignores_selection(self, runner):
        report = runner.run(
            RunConfig(model="gpt-4", selection="RD_S", k=0), limit=3
        )
        assert all(r.n_examples == 0 for r in report.records)

    def test_records_complete(self, runner):
        report = runner.run(RunConfig(model="gpt-4"), limit=3)
        for record in report.records:
            assert record.gold_sql
            assert record.predicted_sql
            assert record.hardness in ("easy", "medium", "hard", "extra")
            assert record.prompt_tokens > 0

    def test_deterministic(self, runner):
        config = RunConfig(model="text-davinci-003", representation="CR_P")
        a = runner.run(config, limit=10)
        b = runner.run(config, limit=10)
        assert [r.predicted_sql for r in a.records] == \
            [r.predicted_sql for r in b.records]

    def test_fewshot_without_candidates_raises(self, corpus):
        bare = BenchmarkRunner(corpus.dev, None, corpus.pool())
        with pytest.raises(EvaluationError):
            bare.run(RunConfig(model="gpt-4", selection="RD_S", k=3), limit=2)

    def test_self_consistency_runs(self, runner):
        config = RunConfig(model="gpt-4", representation="CR_P")
        report = runner.run(config, limit=5, n_samples=3)
        assert len(report) == 5

    def test_self_consistency_not_worse(self, runner):
        config = RunConfig(model="gpt-4", representation="CR_P",
                           organization="DAIL_O", selection="DAIL_S", k=3)
        single = runner.run(config)
        voted = runner.run(config, n_samples=5)
        assert voted.execution_accuracy >= single.execution_accuracy - 0.02

    def test_dail_selection_uses_preliminary(self, runner):
        # DAIL_S should run end-to-end (its preliminary pass is cached).
        report = runner.run(
            RunConfig(model="gpt-4", selection="DAIL_S", k=3), limit=4
        )
        assert len(report) == 4
        assert runner.cache.stage_entries("preliminary")  # cache populated
