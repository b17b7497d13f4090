"""Token and simulated-dollar cost accounting.

The paper's headline analysis is *token efficiency* — execution accuracy
per prompt token (Figures 4–5) — priced with the public mid-2023 API
price sheet its experiments paid.  This module owns both halves:

* the :class:`PriceSheet` table (moved here from ``repro.eval.cost``,
  which re-exports it, so the serving layer can price calls without
  importing the evaluation stack);
* the :class:`CostMeter`, the single funnel through which every LLM
  call's prompt/completion token counts become metrics —
  ``repro_llm_tokens_total{kind,model,…}`` and
  ``repro_llm_cost_usd_total{model,…}`` — stamped with whatever
  attribution labels (cell, tenant, backend, stage) are bound in the
  calling thread's :mod:`~repro.obs.context`.

:meth:`~repro.eval.telemetry.TelemetryCollector.freeze` reads the same
counters back into :class:`~repro.eval.telemetry.RunTelemetry`, so the
per-report token/cost fields reconcile with a ``/metrics`` scrape by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..errors import EvaluationError
from . import context
from .metrics import M_LLM_COST, M_LLM_TOKENS, CounterSeries, MetricsRegistry


@dataclass(frozen=True)
class PriceSheet:
    """USD per 1k tokens, split prompt/completion (OpenAI convention)."""

    prompt_per_1k: float
    completion_per_1k: float


#: Mid-2023 public API prices (USD / 1k tokens); open-source entries
#: approximate amortised GPU cost for self-hosting.
PRICES: Dict[str, PriceSheet] = {
    "gpt-4": PriceSheet(0.03, 0.06),
    "gpt-3.5-turbo": PriceSheet(0.0015, 0.002),
    "text-davinci-003": PriceSheet(0.02, 0.02),
    "llama-7b": PriceSheet(0.0002, 0.0002),
    "llama-13b": PriceSheet(0.0004, 0.0004),
    "llama-33b": PriceSheet(0.0009, 0.0009),
    "falcon-40b": PriceSheet(0.0011, 0.0011),
    "vicuna-7b": PriceSheet(0.0002, 0.0002),
    "vicuna-13b": PriceSheet(0.0004, 0.0004),
    "vicuna-33b": PriceSheet(0.0009, 0.0009),
}


def price_sheet(model_id: str) -> PriceSheet:
    """Price sheet for a model (fine-tuned ids map to their base model).

    Raises:
        EvaluationError: for unknown models.
    """
    base = model_id.split("+", 1)[0]
    try:
        return PRICES[base]
    except KeyError as exc:
        raise EvaluationError(f"no price sheet for model {model_id!r}") from exc


def tokens_cost_usd(
    model_id: str, prompt_tokens: int, completion_tokens: int
) -> Optional[float]:
    """USD cost of one call, or ``None`` for unpriced models.

    Metering must never fail an evaluation over a missing price row, so
    unknown models degrade to token-only accounting rather than raising.
    """
    try:
        sheet = price_sheet(model_id)
    except EvaluationError:
        return None
    return (
        prompt_tokens / 1000.0 * sheet.prompt_per_1k
        + completion_tokens / 1000.0 * sheet.completion_per_1k
    )


class CostMeter:
    """Records per-call token counts and simulated dollar cost.

    One meter per metrics registry; every recording site (the pipeline's
    generate artifact, batch and served alike) funnels through
    :meth:`record`, which stamps the attribution labels bound in the
    calling thread's :mod:`~repro.obs.context` — or an explicitly
    captured snapshot, for calls completed on another thread.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        #: (prompt, completion, cost) series bound per attribution — the
        #: model id plus each :data:`~repro.obs.context.METRIC_LABEL_KEYS`
        #: value (``None`` when unset) — so a call sorts no labels.
        self._series: Dict[
            Tuple[Optional[str], ...],
            Tuple[CounterSeries, CounterSeries, CounterSeries],
        ] = {}

    def record(
        self,
        model_id: str,
        prompt_tokens: int,
        completion_tokens: int,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Count one LLM call's tokens and price them.

        ``labels`` overrides the ambient context (both are filtered to
        :data:`~repro.obs.context.METRIC_LABEL_KEYS` — the request id
        never becomes a metric label).  Zero-token calls record nothing,
        so cache hits stay free.
        """
        if prompt_tokens <= 0 and completion_tokens <= 0:
            return
        source = labels if labels is not None else context.snapshot()
        attribution = (model_id,) + tuple(
            str(source[key]) if source.get(key) else None
            for key in context.METRIC_LABEL_KEYS
        )
        series = self._series.get(attribution)
        if series is None:
            series = self._series[attribution] = self._bind(attribution)
        prompt, completion, cost_usd = series
        if prompt_tokens > 0:
            prompt.add(prompt_tokens)
        if completion_tokens > 0:
            completion.add(completion_tokens)
        cost = tokens_cost_usd(model_id, prompt_tokens, completion_tokens)
        if cost is not None and cost > 0:
            cost_usd.add(cost)

    def _bind(
        self, attribution: Tuple[Optional[str], ...]
    ) -> Tuple[CounterSeries, CounterSeries, CounterSeries]:
        model_id, *values = attribution
        stamped = {
            key: value
            for key, value in zip(context.METRIC_LABEL_KEYS, values)
            if value is not None
        }
        stamped["model"] = model_id
        bind = self.registry.bind_counter
        return (
            bind(M_LLM_TOKENS, {**stamped, "kind": "prompt"}),
            bind(M_LLM_TOKENS, {**stamped, "kind": "completion"}),
            bind(M_LLM_COST, stamped),
        )
