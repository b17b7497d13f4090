"""CostMeter: token/cost metering with context-stamped labels."""

import pytest

from repro.errors import EvaluationError
from repro.obs import context
from repro.obs.cost import (
    PRICES,
    CostMeter,
    price_sheet,
    tokens_cost_usd,
)
from repro.obs.metrics import M_LLM_COST, M_LLM_TOKENS, MetricsRegistry


@pytest.fixture()
def registry():
    return MetricsRegistry()


@pytest.fixture()
def meter(registry):
    return CostMeter(registry)


class TestPricing:
    def test_known_model_cost(self):
        sheet = price_sheet("gpt-4")
        expected = 1000 / 1000 * sheet.prompt_per_1k + \
            500 / 1000 * sheet.completion_per_1k
        assert tokens_cost_usd("gpt-4", 1000, 500) == pytest.approx(expected)

    def test_finetuned_id_uses_base_price(self):
        assert price_sheet("llama-7b+sft") == PRICES["llama-7b"]

    def test_unknown_model_prices_to_none(self):
        assert tokens_cost_usd("mystery-9000", 100, 10) is None
        with pytest.raises(EvaluationError):
            price_sheet("mystery-9000")


class TestMeter:
    def test_records_tokens_by_kind_and_model(self, meter, registry):
        meter.record("gpt-4", 120, 30)
        assert registry.counter_value(
            M_LLM_TOKENS, {"kind": "prompt", "model": "gpt-4"}
        ) == 120
        assert registry.counter_value(
            M_LLM_TOKENS, {"kind": "completion", "model": "gpt-4"}
        ) == 30

    def test_cost_matches_price_sheet(self, meter, registry):
        meter.record("gpt-4", 1000, 1000)
        assert registry.counter_value(M_LLM_COST) == pytest.approx(
            tokens_cost_usd("gpt-4", 1000, 1000)
        )

    def test_zero_token_calls_record_nothing(self, meter, registry):
        meter.record("gpt-4", 0, 0)
        assert registry.counter_value(M_LLM_TOKENS) == 0
        assert registry.counter_value(M_LLM_COST) == 0

    def test_unpriced_model_still_counts_tokens(self, meter, registry):
        meter.record("mystery-9000", 50, 5)
        assert registry.counter_value(
            M_LLM_TOKENS, {"model": "mystery-9000"}
        ) == 55
        assert registry.counter_value(M_LLM_COST) == 0

    def test_ambient_context_stamped_as_labels(self, meter, registry):
        with context.bind(cell="DAIL-SQL", tenant="acme",
                          request_id="req-9"):
            meter.record("gpt-4", 10, 1)
        ((labels, value),) = registry.counter_series(
            M_LLM_TOKENS, {"kind": "prompt"}
        )
        assert value == 10
        assert labels["cell"] == "DAIL-SQL"
        assert labels["tenant"] == "acme"
        # request ids never become metric labels: unbounded cardinality.
        assert "request_id" not in labels

    def test_explicit_labels_override_context(self, meter, registry):
        with context.bind(cell="outer"):
            meter.record("gpt-4", 10, 0, labels={"cell": "explicit"})
        ((labels, _),) = registry.counter_series(M_LLM_TOKENS)
        assert labels["cell"] == "explicit"


class TestContext:
    def test_bind_nests_and_restores(self):
        with context.bind(tenant="a"):
            with context.bind(tenant="b", stage="generate"):
                assert context.snapshot() == {
                    "tenant": "b", "stage": "generate",
                }
            assert context.get("tenant") == "a"
            assert context.get("stage") == ""
        assert context.snapshot() == {}

    def test_empty_values_dropped(self):
        with context.bind(tenant="", cell="c"):
            assert context.snapshot() == {"cell": "c"}

    def test_current_request_id(self):
        assert context.current_request_id() == ""
        with context.bind(request_id="req-1"):
            assert context.current_request_id() == "req-1"

    def test_snapshot_crosses_threads(self):
        import threading

        with context.bind(cell="c", request_id="req-2"):
            captured = context.snapshot()
        seen = {}

        def worker():
            seen["before"] = context.snapshot()
            with context.bind(**captured):
                seen["bound"] = context.snapshot()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["before"] == {}
        assert seen["bound"] == {"cell": "c", "request_id": "req-2"}
