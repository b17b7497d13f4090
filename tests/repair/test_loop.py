"""Repair-loop semantics: monotone uplift, provenance, determinism.

The structural guarantee under test everywhere: the loop only ever
replaces a *dead* candidate (fatal lint or execution failure) with a
strictly better one, so enabling feedback can never lose accuracy, and
every expensive step rides the artifact cache, so warm reruns are
byte-identical and generation-free.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.api.wire import GenerateRequest
from repro.eval.engine import GridRunner
from repro.eval.harness import BenchmarkRunner, RunConfig
from repro.obs.metrics import M_REPAIR_ROUNDS, MetricsRegistry
from repro.repair import REPAIR_EXHAUSTED
from repro.serve import SqlService

#: A weak model fails often enough to exercise every loop outcome.
CONFIG = RunConfig(model="llama-13b", representation="CR_P")
ROUNDS = 2
LIMIT = 24


def fb_runner(corpus, rounds=ROUNDS, cache=None):
    return BenchmarkRunner(
        corpus.dev, corpus.train, corpus.pool(), seed=3,
        feedback_rounds=rounds, cache=cache,
    )


def records_of(report):
    return [asdict(r) for r in report.records]


@pytest.fixture(scope="module")
def baseline(corpus):
    return fb_runner(corpus, rounds=0).run(CONFIG, limit=LIMIT)


@pytest.fixture(scope="module")
def repaired(corpus):
    return fb_runner(corpus).run(CONFIG, limit=LIMIT)


class TestUplift:
    def test_ex_non_decreasing(self, baseline, repaired):
        assert repaired.execution_accuracy >= baseline.execution_accuracy

    def test_per_record_monotone(self, baseline, repaired):
        # An executing candidate never enters the loop, so no record can
        # flip from correct to wrong.
        for before, after in zip(baseline.records, repaired.records):
            assert after.example_id == before.example_id
            if before.exec_match:
                assert after.exec_match

    def test_some_candidate_recovered(self, repaired):
        recovered = [r for r in repaired.records
                     if r.repair_won_round > 0 and not r.error_class]
        assert recovered, "no dead candidate recovered — loop inert?"

    def test_zero_rounds_has_no_repair_provenance(self, baseline):
        assert all(r.repair_rounds == 0 and r.repair_won_round == 0
                   and r.repair_round_classes == []
                   for r in baseline.records)


class TestServedRepair:
    def test_serve_repairs_execution_failures_like_batch(self, corpus):
        # First candidates that passed lint but failed to execute: the
        # served loop repairs them exactly as the sweep did.
        before_all = fb_runner(corpus, rounds=0).run(CONFIG)
        after = {r.example_id: r for r in fb_runner(corpus).run(CONFIG).records}
        targets = [r for r in before_all.records
                   if r.error_class.startswith("exec:")
                   and after[r.example_id].repair_won_round > 0]
        assert targets, "no execution failure recovered by the sweep"
        with SqlService(fb_runner(corpus), CONFIG,
                        metrics=MetricsRegistry()) as service:
            for before in targets:
                served = service.generate(GenerateRequest(
                    question=before.question, db_id=before.db_id,
                ))
                assert served.sql == after[before.example_id].predicted_sql
                assert served.sql != before.predicted_sql
                assert served.error_class == ""


class TestProvenance:
    def test_round_classes_track_rounds(self, repaired):
        for record in repaired.records:
            assert len(record.repair_round_classes) == record.repair_rounds
            assert 0 <= record.repair_won_round <= record.repair_rounds

    def test_recovered_round_class_is_clean(self, repaired):
        for record in repaired.records:
            if record.repair_won_round > 0 and not record.error_class:
                # The winning round's candidate executed — its class is "".
                assert record.repair_round_classes[
                    record.repair_won_round - 1
                ] == ""

    def test_exhausted_records_keep_per_round_classes(self, repaired):
        exhausted = [r for r in repaired.records
                     if r.error_class == REPAIR_EXHAUSTED]
        assert exhausted, "no exhausted budget in a weak-model run?"
        for record in exhausted:
            assert record.repair_rounds >= 1
            assert all(record.repair_round_classes)  # every round failed

    def test_metrics_reconcile_with_records(self, corpus):
        registry = MetricsRegistry()
        grid = GridRunner(fb_runner(corpus), workers=1,
                          registry=registry).sweep([CONFIG], limit=LIMIT)
        charged = registry.counter_value(
            M_REPAIR_ROUNDS, {"outcome": "recovered"}
        ) + registry.counter_value(M_REPAIR_ROUNDS, {"outcome": "failed"})
        assert charged == sum(r.repair_rounds for r in grid[0].records)


class TestDeterminism:
    def test_serial_equals_parallel(self, corpus):
        serial = GridRunner(fb_runner(corpus), workers=1).sweep(
            [CONFIG], limit=LIMIT
        )
        parallel = GridRunner(fb_runner(corpus), workers=4).sweep(
            [CONFIG], limit=LIMIT
        )
        assert records_of(serial[0]) == records_of(parallel[0])

    def test_rerun_is_byte_identical_and_generation_free(self, corpus):
        first_runner = fb_runner(corpus)
        first = first_runner.run(CONFIG, limit=LIMIT)
        cold_stats = first_runner.cache.stats().get("generate", {})
        assert cold_stats.get("misses", 0) > 0

        # A fresh runner sharing the warm cache replays the whole loop —
        # feedback rounds included — without one new generation.
        second = fb_runner(corpus, cache=first_runner.cache).run(
            CONFIG, limit=LIMIT
        )
        warm_stats = first_runner.cache.stats().get("generate", {})
        assert records_of(second) == records_of(first)
        assert warm_stats.get("misses", 0) == cold_stats.get("misses", 0)
        assert warm_stats.get("hits", 0) > cold_stats.get("hits", 0)

    def test_round_budget_is_part_of_repair_artifacts_not_round0(self, corpus):
        # N=1 and N=2 share every round-0 and round-1 artifact; only the
        # extra round generates anew.  (Feedback prompts embed their
        # round index, so cross-budget reuse is safe.)
        shared = fb_runner(corpus, rounds=1)
        shared.run(CONFIG, limit=LIMIT)
        before = shared.cache.stats().get("generate", {}).get("misses", 0)
        deeper = fb_runner(corpus, rounds=2, cache=shared.cache)
        report = deeper.run(CONFIG, limit=LIMIT)
        after = shared.cache.stats().get("generate", {}).get("misses", 0)
        second_rounds = sum(1 for r in report.records if r.repair_rounds == 2)
        assert after - before == second_rounds
