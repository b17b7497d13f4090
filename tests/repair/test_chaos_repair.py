"""Repair loop under fault injection, interruption, and resume.

Three properties: infrastructure faults never consume feedback rounds;
the loop's artifacts journal and resume byte-identically mid-cycle; a
SIGINT-style stop checkpoints whatever the loop had produced so far.
"""

from __future__ import annotations

from dataclasses import asdict, replace

from repro.errors import ModelError
from repro.eval.engine import GridRunner
from repro.eval.harness import BenchmarkRunner, RunConfig
from repro.obs.metrics import (
    M_FAULTS_INJECTED,
    M_REPAIR_ROUNDS,
    MetricsRegistry,
)
from repro.repair import REPAIR_EXHAUSTED, TRANSIENT_CLASS
from repro.resilience import ChaosPolicy, InterruptController

CONFIG = RunConfig(model="llama-13b", representation="CR_P")
ROUNDS = 2
LIMIT = 24
CHAOS_SEED = 11


def fb_runner(corpus, chaos=None, rounds=ROUNDS):
    return BenchmarkRunner(
        corpus.dev, corpus.train, corpus.pool(), seed=3,
        chaos=chaos, feedback_rounds=rounds,
    )


def records_of(grid):
    return [[asdict(r) for r in report.records] for report in grid]


class FeedbackFaultLLM:
    """Delegates round-0 generations, dies on every feedback turn —
    the shape of an API fault that survives the client's own retries."""

    def __init__(self, inner):
        self.inner = inner
        self.model_id = inner.model_id
        self.feedback_calls = 0

    def fingerprint(self):
        return f"feedback-fault({self.inner.fingerprint()})"

    def generate(self, prompt, sample_tag=""):
        if sample_tag.startswith("fb-"):
            self.feedback_calls += 1
            raise ModelError("chaos: API call failed")
        return self.inner.generate(prompt, sample_tag)


class TestModelFaultsMidRound:
    def test_api_fault_does_not_consume_rounds(self, corpus):
        runner = fb_runner(corpus)
        plan = runner.prepare(CONFIG)
        baseline = fb_runner(corpus, rounds=0).run(CONFIG, limit=LIMIT)
        dead = [r for r in baseline.records
                if r.error_class.startswith(("lint:", "exec:"))]
        assert dead, "no dead candidates to trigger the loop"
        by_id = {e.example_id: e for e in corpus.dev.examples}

        faulty = FeedbackFaultLLM(plan.llm)
        for before in dead:
            record = runner.pipeline.run(
                by_id[before.example_id], replace(plan, llm=faulty)
            )
            # The fault aborted the loop: no round charged, no
            # repair:exhausted verdict, the original class preserved.
            assert record.repair_rounds == 0
            assert record.repair_won_round == 0
            assert record.error_class == before.error_class
            assert record.error_class != REPAIR_EXHAUSTED
        assert faulty.feedback_calls == len(dead)

    def test_fault_outcome_counted_as_transient(self, corpus):
        runner = fb_runner(corpus)
        plan = runner.prepare(CONFIG)
        baseline = fb_runner(corpus, rounds=0).run(CONFIG, limit=LIMIT)
        dead = next(r for r in baseline.records
                    if r.error_class.startswith(("lint:", "exec:")))
        example = next(e for e in corpus.dev.examples
                       if e.example_id == dead.example_id)
        from repro.eval.telemetry import TelemetryCollector

        registry = MetricsRegistry()
        telemetry = TelemetryCollector(registry=registry)
        runner.pipeline.run(example, replace(plan, llm=FeedbackFaultLLM(plan.llm)),
                            telemetry)
        assert registry.counter_value(
            M_REPAIR_ROUNDS, {"outcome": "transient"}
        ) == 1
        # A transient abort still exhausts without recovery.
        assert registry.counter_value(
            M_REPAIR_ROUNDS, {"outcome": "exhausted"}
        ) == 1


class TestDatabaseFaults:
    def test_transient_class_never_charged_a_round(self, corpus):
        registry = MetricsRegistry()
        grid = GridRunner(
            fb_runner(corpus,
                      chaos=ChaosPolicy(seed=CHAOS_SEED, db_rate=0.3)),
            workers=1, registry=registry,
        ).sweep([CONFIG], limit=LIMIT)
        locked = [r for r in grid[0].records
                  if r.error_class == TRANSIENT_CLASS]
        assert locked, "0.3 db fault rate produced no transient records"
        # Chaos db faults are content-keyed (same SQL ⇒ same fault), so
        # the in-place retry cannot clear them — but the loop must still
        # abort without spending generation rounds on them.
        assert all(r.repair_rounds == 0 for r in locked)
        assert registry.counter_value(M_FAULTS_INJECTED) > 0
        assert registry.counter_value(
            M_REPAIR_ROUNDS, {"outcome": "transient"}
        ) >= len(locked)

    def test_chaos_grid_serial_equals_parallel(self, corpus):
        policy = ChaosPolicy.uniform(0.2, seed=CHAOS_SEED)
        serial = GridRunner(
            fb_runner(corpus, chaos=policy), workers=1
        ).sweep([CONFIG], limit=LIMIT)
        parallel = GridRunner(
            fb_runner(corpus, chaos=policy), workers=4
        ).sweep([CONFIG], limit=LIMIT)
        assert records_of(serial) == records_of(parallel)


class TestInterruptAndResume:
    def test_sigint_mid_loop_checkpoints_and_resumes(self, corpus, tmp_path):
        baseline = GridRunner(fb_runner(corpus), workers=1).sweep(
            [CONFIG], limit=LIMIT
        )

        journal_path = tmp_path / "run.jsonl"
        controller = InterruptController()
        ticks = {"n": 0}

        def kill_at_five(event):
            ticks["n"] += 1
            if ticks["n"] == 5:
                controller.request_stop()

        interrupted = GridRunner(
            fb_runner(corpus), workers=1,
            progress=kill_at_five, interrupt=controller,
        ).sweep([CONFIG], limit=LIMIT, journal_path=str(journal_path))
        assert any(report.partial for report in interrupted)
        # Whatever completed before the stop carries its repair verdict:
        # checkpointed records are final, not half-looped.
        for record in interrupted[0].records:
            assert len(record.repair_round_classes) == record.repair_rounds

        resumed = GridRunner(fb_runner(corpus), workers=1).sweep(
            [CONFIG], limit=LIMIT, resume_from=str(journal_path)
        )
        assert records_of(resumed) == records_of(baseline)

    def test_feedback_budget_changes_journal_cell(self, corpus):
        from repro.resilience import journal_cell_key

        plain = fb_runner(corpus, rounds=0)
        repaired = fb_runner(corpus)
        assert journal_cell_key(
            plain.prepare(CONFIG), plain
        ) != journal_cell_key(repaired.prepare(CONFIG), repaired)

    def test_zero_rounds_cell_key_is_legacy_stable(self, corpus):
        # N=0 runners must produce the same cell key as pre-feedback
        # builds, so existing journals stay resumable.
        from repro.resilience import journal_cell_key

        plain = fb_runner(corpus, rounds=0)
        plan = plain.prepare(CONFIG)
        key = journal_cell_key(plan, plain)
        del plain.feedback_rounds  # a pre-feedback build's runner shape
        assert journal_cell_key(plan, plain) == key
