"""serve == batch == ask: every surface returns the SQL a sweep records.

For every dev question, a service over its own runner and cache must
return exactly the sweep record's ``predicted_sql``, prompt size and
example count under the same config, ``n_samples`` and
``feedback_rounds``, and ``DailSQL`` (what ``dail-sql ask`` runs) must
match a DAIL sweep's SQL and prompt size — all three surfaces build
their prompt with ``EvalPipeline.prompt`` and run the one candidate
search (:mod:`repro.eval.candidates`).
"""

from __future__ import annotations

import pytest

from repro.api.wire import GenerateRequest
from repro.core.baselines import leaderboard_entries
from repro.core.dail_sql import DailSQL
from repro.eval.engine import EvalEngine
from repro.eval.harness import BenchmarkRunner, RunConfig
from repro.llm.oracle import GoldOracle
from repro.llm.simulated import make_llm
from repro.obs.metrics import MetricsRegistry
from repro.serve import SqlService
from repro.serve.ratelimit import RateLimiter

CONFIGS = {
    "llama-13b": RunConfig(model="llama-13b", representation="CR_P"),
    "gpt-4": RunConfig(model="gpt-4", representation="CR_P"),
    "dail": next(entry.config for entry in leaderboard_entries()
                 if entry.name == "DAIL-SQL (GPT-4)"),
}

#: (n_samples, feedback_rounds): plain, voting + repair, repair alone.
SETTINGS = ((1, 0), (5, 2), (1, 2))


def runner_for(corpus, rounds):
    return BenchmarkRunner(
        corpus.dev, corpus.train, corpus.pool(), seed=3,
        feedback_rounds=rounds,
    )


@pytest.mark.parametrize("samples,rounds", SETTINGS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_served_sql_equals_sweep_sql(corpus, name, samples, rounds):
    config = CONFIGS[name]
    report = EvalEngine(runner_for(corpus, rounds)).run(
        config, n_samples=samples
    )
    with SqlService(
        runner_for(corpus, rounds), config,
        metrics=MetricsRegistry(),
        limiter=RateLimiter(rate=1e6, capacity=1e6),
        feedback_rounds=rounds,
    ) as service:
        mismatches = []
        for record in report.records:
            served = service.generate(GenerateRequest(
                question=record.question, db_id=record.db_id,
                n_samples=samples, feedback_rounds=rounds,
            ))
            got = (served.sql, served.prompt_tokens, served.n_examples)
            want = (record.predicted_sql, record.prompt_tokens,
                    record.n_examples)
            if got != want:
                mismatches.append((record.example_id, got, want))
    assert len(report.records) == len(corpus.dev.examples)
    assert not mismatches, (
        f"{len(mismatches)}/{len(report.records)} served != batch: "
        f"{mismatches[:3]}"
    )


@pytest.mark.parametrize("samples", (1, 5))
def test_asked_sql_equals_sweep_sql(corpus, samples):
    config = CONFIGS["dail"]
    pool = corpus.pool()
    report = EvalEngine(runner_for(corpus, 0)).run(config, n_samples=samples)
    ask = DailSQL(
        make_llm(config.model, GoldOracle(corpus.dev, corpus.train)),
        corpus.train, k=config.k, max_tokens=config.max_tokens,
        n_samples=samples,
    )
    mismatches = []
    for record in report.records:
        asked = ask.generate_sql(
            corpus.dev.schema(record.db_id), record.question,
            database=pool.get(record.db_id),
        )
        if (asked.sql, asked.prompt_tokens) != (
            record.predicted_sql, record.prompt_tokens
        ):
            mismatches.append((
                record.example_id, asked.sql, record.predicted_sql,
                asked.prompt_tokens, record.prompt_tokens,
            ))
    assert len(report.records) == len(corpus.dev.examples)
    assert not mismatches, (
        f"{len(mismatches)}/{len(report.records)} asked != batch: "
        f"{mismatches[:3]}"
    )
