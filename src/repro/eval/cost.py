"""Monetary cost accounting for LLM calls.

The paper's efficiency argument is ultimately about money: OpenAI API
calls are priced per 1k tokens, so a strategy that matches FI_O accuracy
at a third of the tokens is three times cheaper per question.  This module
prices an :class:`~repro.eval.metrics.EvalReport` with the public
mid-2023 price sheet the paper's experiments paid (open-source models cost
only amortised compute, approximated per 1k tokens).

The price table itself lives in :mod:`repro.obs.cost`, so the serving
layer's :class:`~repro.obs.cost.CostMeter` prices live calls without
importing the evaluation stack.
"""

from __future__ import annotations

from ..errors import EvaluationError
from ..obs.cost import price_sheet
from .metrics import EvalReport

__all__ = ["report_cost_usd", "cost_per_question_usd", "accuracy_per_dollar"]


def report_cost_usd(report: EvalReport, model_id: str) -> float:
    """Total USD cost of the report's API calls.

    A record's ``completion_tokens`` already sum every sample of its
    self-consistency vote and every feedback round, so the totals are
    priced once.  Its ``prompt_tokens`` count the prompt once: resamples
    share it when the API supports n>1 sampling (the OpenAI billing
    model).
    """
    sheet = price_sheet(model_id)
    prompt_tokens = sum(r.prompt_tokens for r in report.records)
    completion_tokens = sum(r.completion_tokens for r in report.records)
    return (
        prompt_tokens / 1000.0 * sheet.prompt_per_1k
        + completion_tokens / 1000.0 * sheet.completion_per_1k
    )


def cost_per_question_usd(report: EvalReport, model_id: str) -> float:
    """Average USD per evaluated question."""
    if len(report) == 0:
        raise EvaluationError("report has no records")
    return report_cost_usd(report, model_id) / len(report)


def accuracy_per_dollar(report: EvalReport, model_id: str) -> float:
    """Execution-accuracy points bought per dollar of spend (the paper's
    economic-efficiency framing)."""
    cost = report_cost_usd(report, model_id)
    if cost <= 0:
        return float("inf")
    return report.execution_accuracy * len(report) / cost
