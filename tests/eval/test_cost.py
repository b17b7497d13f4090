"""Cost model tests."""

import pytest

from repro.core.baselines import leaderboard_entries
from repro.errors import EvaluationError
from repro.eval.cost import (
    accuracy_per_dollar,
    cost_per_question_usd,
    report_cost_usd,
)
from repro.eval.engine import EvalEngine
from repro.eval.harness import BenchmarkRunner
from repro.eval.metrics import EvalReport, PredictionRecord
from repro.experiments.context import get_context
from repro.experiments.exp_extras import run_cost
from repro.llm.simulated import SimulatedLLM
from repro.obs.cost import PRICES, price_sheet


def report(n=4, prompt_tokens=1000, completion_tokens=50, correct=True):
    records = [
        PredictionRecord(
            example_id=f"e{i}", db_id="d", question="q", gold_sql="SELECT 1",
            raw_output="SELECT 1", predicted_sql="SELECT 1",
            exec_match=correct, exact_match=correct, hardness="easy",
            prompt_tokens=prompt_tokens, completion_tokens=completion_tokens,
            n_examples=0,
        )
        for i in range(n)
    ]
    return EvalReport(records)


class TestPriceSheet:
    def test_all_models_priced(self):
        from repro.llm.profiles import ALL_MODELS

        for model in ALL_MODELS:
            assert price_sheet(model).prompt_per_1k > 0

    def test_finetuned_id_maps_to_base(self):
        assert price_sheet("llama-7b+sft[TR_P]") == PRICES["llama-7b"]

    def test_unknown_model(self):
        with pytest.raises(EvaluationError):
            price_sheet("gpt-99")

    def test_gpt4_most_expensive(self):
        assert PRICES["gpt-4"].prompt_per_1k > PRICES["gpt-3.5-turbo"].prompt_per_1k


class TestCosts:
    def test_report_cost(self):
        # 4 questions x 1000 prompt tokens at $0.03/1k + 4 x 50 completion
        # tokens at $0.06/1k.
        expected = 4 * 1.0 * 0.03 + 4 * 0.05 * 0.06
        assert report_cost_usd(report(), "gpt-4") == pytest.approx(expected)

    def test_per_question(self):
        assert cost_per_question_usd(report(), "gpt-4") == pytest.approx(
            report_cost_usd(report(), "gpt-4") / 4
        )

    def test_per_question_empty_raises(self):
        with pytest.raises(EvaluationError):
            cost_per_question_usd(EvalReport(), "gpt-4")

    def test_accuracy_per_dollar(self):
        cheap = accuracy_per_dollar(report(), "gpt-3.5-turbo")
        pricey = accuracy_per_dollar(report(), "gpt-4")
        assert cheap > pricey

    def test_open_source_cheapest(self):
        assert cost_per_question_usd(report(), "llama-7b") < \
            cost_per_question_usd(report(), "gpt-3.5-turbo")


def priced_once(records, model_id):
    sheet = price_sheet(model_id)
    return (sum(r.prompt_tokens for r in records) / 1000.0 * sheet.prompt_per_1k
            + sum(r.completion_tokens for r in records) / 1000.0
            * sheet.completion_per_1k)


class TestSelfConsistencyCost:
    """A vote's record already sums its samples' completion tokens, so
    the analytic cost prices the record totals once."""

    def test_records_sum_every_sample(self, corpus, monkeypatch):
        entry = next(e for e in leaderboard_entries() if e.n_samples == 5)
        runner = BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(), seed=3)
        runner.prepare(entry.config, n_samples=5)
        drawn = []
        generate = SimulatedLLM.generate

        def spy(self, prompt, *args, **kwargs):
            result = generate(self, prompt, *args, **kwargs)
            if prompt.examples:  # not DAIL_S's zero-shot preliminary pass
                drawn.append(result.completion_tokens)
            return result

        monkeypatch.setattr(SimulatedLLM, "generate", spy)
        report = EvalEngine(runner).run(entry.config, limit=4, n_samples=5)
        assert len(drawn) == 5 * len(report)
        assert sum(r.completion_tokens for r in report.records) == sum(drawn)
        model = entry.config.model
        assert report_cost_usd(report, model) == \
            pytest.approx(priced_once(report.records, model))

    def test_cost_experiment_prices_records_once(self):
        result = run_cost(fast=True, limit=8)
        entries = leaderboard_entries()
        grid = get_context(True).sweep(
            [entry.config for entry in entries], limit=8,
            n_samples=[entry.n_samples for entry in entries],
        )
        assert any(entry.n_samples > 1 for entry in entries)
        for entry, report, row in zip(entries, grid, result.rows):
            once = priced_once(report.records, entry.config.model)
            assert row["USD/question"] == round(once / len(report), 5), entry.name
