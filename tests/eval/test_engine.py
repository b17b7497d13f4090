"""Parallel evaluation engine tests.

The load-bearing guarantee: a ``workers=4`` run is byte-identical to a
``workers=1`` run, because every pipeline stage is a pure function of
stable hashes and results land in input order.
"""

from dataclasses import asdict

import pytest

from repro.errors import EvaluationError
from repro.eval.engine import EvalEngine, GridResult, GridRunner
from repro.eval.harness import BenchmarkRunner, RunConfig


def fresh_runner(corpus, **kwargs):
    """A cold-cache runner so serial/parallel comparisons are fair."""
    return BenchmarkRunner(
        corpus.dev, corpus.train, corpus.pool(), seed=3, **kwargs
    )


def record_dicts(report):
    return [asdict(record) for record in report.records]


ZERO_SHOT = RunConfig(model="gpt-4", representation="CR_P")
FEW_SHOT = RunConfig(model="gpt-4", representation="CR_P",
                     selection="DAIL_S", organization="DAIL_O", k=3)


class TestEquivalence:
    def test_zero_shot_parallel_matches_serial(self, corpus):
        serial = EvalEngine(fresh_runner(corpus), workers=1).run(ZERO_SHOT)
        parallel = EvalEngine(fresh_runner(corpus), workers=4).run(ZERO_SHOT)
        assert record_dicts(serial) == record_dicts(parallel)
        assert serial.execution_accuracy == parallel.execution_accuracy

    def test_fewshot_parallel_matches_serial(self, corpus):
        serial = EvalEngine(fresh_runner(corpus), workers=1).run(FEW_SHOT)
        parallel = EvalEngine(fresh_runner(corpus), workers=4).run(FEW_SHOT)
        assert record_dicts(serial) == record_dicts(parallel)

    def test_self_consistency_parallel_matches_serial(self, corpus):
        serial = EvalEngine(fresh_runner(corpus), workers=1).run(
            ZERO_SHOT, limit=6, n_samples=3
        )
        parallel = EvalEngine(fresh_runner(corpus), workers=4).run(
            ZERO_SHOT, limit=6, n_samples=3
        )
        assert record_dicts(serial) == record_dicts(parallel)

    def test_grid_parallel_matches_serial(self, corpus):
        configs = [
            RunConfig(model="gpt-4", representation="OD_P"),
            RunConfig(model="gpt-4", representation="BS_P"),
            FEW_SHOT,
        ]
        serial = GridRunner(fresh_runner(corpus), workers=1).sweep(
            configs, limit=5
        )
        parallel = GridRunner(fresh_runner(corpus), workers=4).sweep(
            configs, limit=5
        )
        for a, b in zip(serial, parallel):
            assert record_dicts(a) == record_dicts(b)

    def test_runner_run_workers_kwarg(self, corpus):
        runner = fresh_runner(corpus)
        serial = runner.run(ZERO_SHOT, limit=5)
        parallel = runner.run(ZERO_SHOT, limit=5, workers=4)
        assert record_dicts(serial) == record_dicts(parallel)


class TestFaultIsolation:
    def poison(self, runner, example_id, exc=None):
        real = runner.evaluate_example

        def poisoned(example, plan, collector):
            if example.example_id == example_id:
                raise exc or RuntimeError("poisoned example")
            return real(example, plan, collector)

        runner.evaluate_example = poisoned

    def test_error_becomes_record_not_abort(self, corpus):
        runner = fresh_runner(corpus)
        victim = runner.eval_dataset.examples[2].example_id
        self.poison(runner, victim)
        report = EvalEngine(runner, workers=4).run(ZERO_SHOT, limit=6)
        assert len(report) == 6
        assert report.error_count == 1
        (bad,) = report.errors()
        assert bad.example_id == victim
        assert bad.error.startswith("RuntimeError")
        assert not bad.exec_match                   # scored as wrong
        clean = [r for r in report.records if not r.error]
        assert len(clean) == 5 and all(r.predicted_sql for r in clean)

    def test_errors_counted_in_summary_and_telemetry(self, corpus):
        runner = fresh_runner(corpus)
        self.poison(runner, runner.eval_dataset.examples[0].example_id)
        report = EvalEngine(runner).run(ZERO_SHOT, limit=4)
        assert report.summary()["errors"] == 1
        assert report.telemetry.errors == 1

    def test_sweep_survives_poisoned_example(self, corpus):
        runner = fresh_runner(corpus)
        self.poison(runner, runner.eval_dataset.examples[1].example_id)
        grid = GridRunner(runner, workers=4).sweep(
            [ZERO_SHOT, FEW_SHOT], limit=4
        )
        assert [report.error_count for report in grid] == [1, 1]

    def test_config_level_misconfiguration_still_raises(self, corpus):
        bare = BenchmarkRunner(corpus.dev, None, corpus.pool())
        with pytest.raises(EvaluationError):
            EvalEngine(bare, workers=4).run(FEW_SHOT, limit=2)

    def test_workers_below_one_rejected(self, runner):
        with pytest.raises(EvaluationError):
            EvalEngine(runner, workers=0)


class TestTelemetry:
    def test_report_carries_telemetry(self, corpus):
        report = EvalEngine(fresh_runner(corpus), workers=2).run(
            FEW_SHOT, limit=5
        )
        telemetry = report.telemetry
        assert telemetry.workers == 2
        assert telemetry.examples == 5
        assert telemetry.wall_clock_s > 0
        assert set(telemetry.stage_s) >= {"select", "build", "generate", "execute"}
        assert all(v >= 0 for v in telemetry.stage_s.values())
        assert 0 < telemetry.utilization <= 1.0
        assert 0 <= telemetry.cache_hit_rate("gold") <= 1.0

    def test_gold_cache_warm_on_second_config(self, corpus):
        runner = fresh_runner(corpus)
        engine = EvalEngine(runner)
        engine.run(ZERO_SHOT, limit=5)
        warm = engine.run(RunConfig(model="gpt-4", representation="OD_P"),
                          limit=5)
        assert warm.telemetry.cache_hit_rate("gold") == 1.0

    def test_progress_callback_covers_every_unit(self, corpus):
        events = []
        engine = EvalEngine(fresh_runner(corpus), workers=4,
                            progress=events.append)
        engine.run_many([ZERO_SHOT, FEW_SHOT], limit=4)
        assert len(events) == 8
        assert sorted(e.done for e in events) == list(range(1, 9))
        assert all(e.total == 8 for e in events)
        assert {e.label for e in events} == {
            ZERO_SHOT.resolved_label(), FEW_SHOT.resolved_label()
        }


class TestGridResult:
    def test_label_and_index_access(self, corpus):
        configs = [
            RunConfig(model="gpt-4", representation="CR_P", label="a"),
            RunConfig(model="gpt-4", representation="OD_P", label="b"),
        ]
        grid = GridRunner(fresh_runner(corpus)).sweep(configs, limit=3)
        assert grid["a"] is grid[0]
        assert grid["b"] is grid[1]
        assert grid.get("a") is grid[0]
        assert grid.get("missing") is None
        assert grid.labels() == ["a", "b"]
        assert len(grid) == 2

    def test_unknown_label_lists_available(self, corpus):
        grid = GridRunner(fresh_runner(corpus)).sweep(
            [RunConfig(model="gpt-4", label="only")], limit=2
        )
        with pytest.raises(KeyError, match="only"):
            grid["nope"]

    def test_to_rows(self, corpus):
        grid = GridRunner(fresh_runner(corpus)).sweep(
            [RunConfig(model="gpt-4", label="row")], limit=3
        )
        (row,) = grid.to_rows()
        assert row["label"] == "row"
        assert "ex" in row and "errors" in row

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(EvaluationError):
            GridResult([RunConfig(model="gpt-4")], [])

    def test_per_config_samples_length_checked(self, runner):
        with pytest.raises(EvaluationError, match="n_samples"):
            EvalEngine(runner).run_many(
                [ZERO_SHOT, FEW_SHOT], limit=2, n_samples=[3]
            )
