"""serve == batch: ``/v1/generate`` returns the SQL a sweep records.

For every dev question, a service over its own runner and cache must
return exactly the sweep record's ``predicted_sql`` under the same
config, ``n_samples`` and ``feedback_rounds`` — both surfaces run the
one candidate search (:mod:`repro.eval.candidates`).
"""

from __future__ import annotations

import pytest

from repro.api.wire import GenerateRequest
from repro.core.baselines import leaderboard_entries
from repro.eval.engine import EvalEngine
from repro.eval.harness import BenchmarkRunner, RunConfig
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
        metrics=MetricsRegistry(), max_wait_s=0.001,
        limiter=RateLimiter(rate=1e6, capacity=1e6),
        feedback_rounds=rounds,
    ) as service:
        mismatches = []
        for record in report.records:
            served = service.generate(GenerateRequest(
                question=record.question, db_id=record.db_id,
                n_samples=samples, feedback_rounds=rounds,
            ))
            if served.sql != record.predicted_sql:
                mismatches.append(
                    (record.example_id, served.sql, record.predicted_sql)
                )
    assert len(report.records) == len(corpus.dev.examples)
    assert not mismatches, (
        f"{len(mismatches)}/{len(report.records)} served != batch: "
        f"{mismatches[:3]}"
    )
