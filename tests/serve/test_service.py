"""The serving core, driven directly (no HTTP)."""

from __future__ import annotations

import time

import pytest

from repro.api.wire import (
    ExecuteRequest,
    ExplainRequest,
    GenerateRequest,
    LintRequest,
)
from repro.errors import (
    CircuitOpenError,
    DatasetError,
    DeadlineExceededError,
    RateLimitedError,
    UnsafeSqlError,
)
from repro.eval.harness import BenchmarkRunner, RunConfig
from repro.obs.metrics import (
    M_CACHE_REQUESTS,
    M_SEMANTIC_DEDUP,
    MetricsRegistry,
)
from repro.serve import SqlService
from repro.serve.ratelimit import RateLimiter


class TestGenerate:
    def test_returns_executable_sql(self, shared_service, dev_example):
        response = shared_service.generate(GenerateRequest(
            question=dev_example.question, db_id=dev_example.db_id,
        ))
        assert response.sql
        assert response.db_id == dev_example.db_id
        assert response.statement_kind == "select"
        assert not response.fatal
        assert response.prompt_tokens > 0
        assert response.completion_tokens > 0

    def test_second_identical_request_is_a_cache_hit(
        self, fresh_service, dev_example
    ):
        request = GenerateRequest(
            question=dev_example.question, db_id=dev_example.db_id,
        )
        cold = fresh_service.generate(request)
        warm = fresh_service.generate(request)
        assert cold.cached is False
        assert warm.cached is True
        assert warm.sql == cold.sql

    def test_unknown_db_raises_dataset_error(self, shared_service):
        with pytest.raises(DatasetError):
            shared_service.generate(GenerateRequest(
                question="how many", db_id="no_such_db",
            ))

    def test_self_consistency_votes_over_samples(
        self, shared_service, dev_example
    ):
        single = shared_service.generate(GenerateRequest(
            question=dev_example.question, db_id=dev_example.db_id,
        ))
        voted = shared_service.generate(GenerateRequest(
            question=dev_example.question, db_id=dev_example.db_id,
            n_samples=3,
        ))
        assert voted.sql  # a winner was chosen
        assert voted.completion_tokens >= single.completion_tokens

    def test_expired_deadline_raises_before_any_work(
        self, shared_service, dev_example
    ):
        with pytest.raises(DeadlineExceededError):
            shared_service.generate(GenerateRequest(
                question=dev_example.question, db_id=dev_example.db_id,
                deadline_s=0.0,
            ))

    def test_overrunning_model_call_raises_and_caches_nothing(
        self, fresh_runner, dev_example
    ):
        skew = [0.0]
        request = GenerateRequest(
            question=dev_example.question, db_id=dev_example.db_id,
        )
        with SqlService(
            fresh_runner, metrics=MetricsRegistry(),
            clock=lambda: time.monotonic() + skew[0],
        ) as service:
            inner = service.coalescer.llm

            class Stalling:
                model_id = inner.model_id

                def fingerprint(self):
                    return inner.fingerprint()

                def generate_batch(self, prompts, sample_tag=""):
                    skew[0] += 3600.0  # the call outlives any budget
                    return inner.generate_batch(prompts, sample_tag)

            service.coalescer.llm = Stalling()
            with pytest.raises(DeadlineExceededError):
                service.generate(request)
            assert not fresh_runner.cache.stage_entries("generate")

            service.coalescer.llm = inner
            response = service.generate(request)
        assert response.cached is False
        assert fresh_runner.cache.stage_entries("generate")

    def test_generation_lands_in_shared_metrics(
        self, fresh_service, dev_example
    ):
        fresh_service.generate(GenerateRequest(
            question=dev_example.question, db_id=dev_example.db_id,
        ))
        registry = fresh_service.metrics
        assert registry.counter_value(
            M_CACHE_REQUESTS, {"stage": "generate"}
        ) >= 1


#: A weak model: dead first candidates and duplicate samples are common.
WEAK = RunConfig(model="llama-13b", representation="CR_P")


def weak_service(corpus, **kwargs):
    runner = BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(), seed=3)
    return SqlService(runner, WEAK, metrics=MetricsRegistry(), **kwargs)


def dead_example(corpus):
    """A dev question whose first candidate fails lint or execution."""
    runner = BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(), seed=3)
    report = runner.run(WEAK)
    record = next(r for r in report.records if r.error_class)
    return record


class _FeedbackHook:
    """LLM facade calling ``hook(tag)`` on every feedback-round batch."""

    def __init__(self, inner, hook):
        self.inner = inner
        self.hook = hook
        self.model_id = inner.model_id

    def fingerprint(self):
        return self.inner.fingerprint()

    def generate_batch(self, prompts, sample_tag=""):
        results = self.inner.generate_batch(prompts, sample_tag=sample_tag)
        if sample_tag.startswith("fb-"):
            self.hook(sample_tag)
        return results


class TestGenerateSearch:
    """``/v1/generate`` runs the batch candidate search: repair on
    execution failures, the ModelError-keeps-best rule, deadline checks
    between rounds and semantic dedup of voted samples."""

    def test_circuit_open_on_feedback_round_keeps_best(self, corpus):
        dead = dead_example(corpus)
        request = GenerateRequest(question=dead.question, db_id=dead.db_id,
                                  feedback_rounds=2)

        refused = []

        def refuse(tag):
            refused.append(tag)
            raise CircuitOpenError("llm circuit is open")

        with weak_service(corpus) as service:
            service.coalescer.llm = _FeedbackHook(service.coalescer.llm,
                                                  refuse)
            response = service.generate(request)
        assert refused == ["fb-1"]
        assert response.sql == dead.predicted_sql

    def test_deadline_expiring_between_rounds_raises(self, corpus):
        dead = dead_example(corpus)
        skew = [0.0]

        def expire(tag):
            skew[0] = 3600.0

        with weak_service(
            corpus, clock=lambda: time.monotonic() + skew[0]
        ) as service:
            service.coalescer.llm = _FeedbackHook(service.coalescer.llm,
                                                  expire)
            with pytest.raises(DeadlineExceededError):
                service.generate(GenerateRequest(
                    question=dead.question, db_id=dead.db_id,
                    feedback_rounds=2,
                ))

    def test_served_votes_dedup_like_batch(self, corpus):
        examples = corpus.dev.examples[:16]
        batch = BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(),
                                seed=3)
        batch.run(WEAK, limit=len(examples), n_samples=5)
        with weak_service(corpus) as service:
            for example in examples:
                service.generate(GenerateRequest(
                    question=example.question, db_id=example.db_id,
                    n_samples=5,
                ))
            assert service.metrics.counter_value(M_SEMANTIC_DEDUP) > 0
            served = service.runner.cache.stats()["execute"]["misses"]
        assert served <= batch.cache.stats()["execute"]["misses"]


class TestLint:
    def test_clean_select_has_no_fatal(self, shared_service, dev_example):
        response = shared_service.lint(LintRequest(
            db_id=dev_example.db_id, sql=dev_example.query,
        ))
        assert response.fatal is False
        assert response.final_sql == dev_example.query

    def test_unknown_table_is_fatal_with_diagnostics(
        self, shared_service, dev_example
    ):
        response = shared_service.lint(LintRequest(
            db_id=dev_example.db_id,
            sql="SELECT x FROM table_that_does_not_exist",
        ))
        assert response.fatal is True
        assert response.error_class.startswith("lint:")
        assert response.diagnostics

    def test_repair_flag_is_honoured_per_request(
        self, shared_service, dev_example
    ):
        # Same SQL, opposite repair settings: distinct analyze artifacts
        # (the flag is part of the cache key), both well-formed.
        sql = "SELECT x FROM table_that_does_not_exist"
        plain = shared_service.lint(LintRequest(
            db_id=dev_example.db_id, sql=sql, repair=False,
        ))
        repaired = shared_service.lint(LintRequest(
            db_id=dev_example.db_id, sql=sql, repair=True,
        ))
        assert plain.repaired_sql == ""
        assert repaired.final_sql  # repair ran (whether or not it changed)


class TestExecute:
    def test_executes_gold_query(self, shared_service, dev_example):
        response = shared_service.execute(ExecuteRequest(
            db_id=dev_example.db_id, sql=dev_example.query,
        ))
        assert response.row_count == len(response.rows)
        expected = shared_service.pipeline.pool.get(
            dev_example.db_id
        ).execute(dev_example.query)
        assert [tuple(row) for row in response.rows] == [
            tuple(row) for row in expected
        ]

    def test_safety_gate_refuses_writes(self, shared_service, dev_example):
        with pytest.raises(UnsafeSqlError) as excinfo:
            shared_service.execute(ExecuteRequest(
                db_id=dev_example.db_id, sql="DROP TABLE singer",
            ))
        assert excinfo.value.diagnostics

    def test_safety_gate_refuses_unknown_tables(
        self, shared_service, dev_example
    ):
        with pytest.raises(UnsafeSqlError):
            shared_service.execute(ExecuteRequest(
                db_id=dev_example.db_id, sql="SELECT x FROM nope",
            ))


class TestExplain:
    def test_prompt_contains_the_question(self, shared_service, dev_example):
        response = shared_service.explain(ExplainRequest(
            question=dev_example.question, db_id=dev_example.db_id,
        ))
        assert dev_example.question in response.prompt_text
        assert response.prompt_tokens > 0
        assert response.n_examples == len(response.example_blocks)

    def test_explain_matches_generate_prompt_accounting(
        self, shared_service, dev_example
    ):
        explain = shared_service.explain(ExplainRequest(
            question=dev_example.question, db_id=dev_example.db_id,
        ))
        generate = shared_service.generate(GenerateRequest(
            question=dev_example.question, db_id=dev_example.db_id,
        ))
        assert explain.prompt_tokens == generate.prompt_tokens
        assert explain.n_examples == generate.n_examples


class TestRateLimiting:
    def test_over_budget_tenant_is_rejected(self, corpus, dev_example):
        from repro.eval.harness import BenchmarkRunner

        runner = BenchmarkRunner(
            corpus.dev, corpus.train, corpus.pool(), seed=3
        )
        with SqlService(
            runner,
            metrics=MetricsRegistry(),
            limiter=RateLimiter(rate=0.001, capacity=1),
        ) as service:
            service.lint(LintRequest(
                db_id=dev_example.db_id, sql=dev_example.query,
            ))
            with pytest.raises(RateLimitedError) as excinfo:
                service.lint(LintRequest(
                    db_id=dev_example.db_id, sql=dev_example.query,
                ))
            assert excinfo.value.retry_after_s > 0
            # a different tenant still gets through
            service.lint(LintRequest(
                db_id=dev_example.db_id, sql=dev_example.query,
                tenant="other",
            ))
