"""Cost model tests."""

import pytest

from repro.errors import EvaluationError
from repro.eval.cost import (
    accuracy_per_dollar,
    cost_per_question_usd,
    report_cost_usd,
)
from repro.eval.metrics import EvalReport, PredictionRecord
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

    def test_samples_multiply_completion_only(self):
        single = report_cost_usd(report(), "gpt-4", n_samples=1)
        multi = report_cost_usd(report(), "gpt-4", n_samples=5)
        assert multi > single
        # Prompt part is unchanged: difference is 4x completion cost.
        assert multi - single == pytest.approx(4 * 4 * 0.05 * 0.06)

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
