"""Pipeline tests: the question path, artifact sharing, incremental
(cold-vs-warm) sweeps, and fingerprint-driven invalidation."""

from dataclasses import asdict, replace

from repro.cache.store import ArtifactCache
from repro.eval.engine import EvalEngine, GridRunner
from repro.eval.harness import BenchmarkRunner, RunConfig
from repro.eval.telemetry import STAGES

ZERO_SHOT = RunConfig(model="gpt-4", representation="CR_P")
DAIL = RunConfig(model="gpt-4", representation="CR_P",
                 selection="DAIL_S", organization="DAIL_O", k=3)


def fresh_runner(corpus, **kwargs):
    return BenchmarkRunner(
        corpus.dev, corpus.train, corpus.pool(), seed=3, **kwargs
    )


def record_dicts(report):
    return [asdict(record) for record in report.records]


class TestStageContracts:
    def test_pipeline_run_produces_scored_record(self, runner, dev_example):
        plan = runner.prepare(ZERO_SHOT)
        record = runner.pipeline.run(dev_example, plan)
        assert record.example_id == dev_example.example_id
        assert record.predicted_sql
        assert record.prompt_tokens > 0

    def test_all_stage_timers_populate(self, corpus):
        report = EvalEngine(fresh_runner(corpus)).run(DAIL, limit=3)
        assert set(report.telemetry.stage_s) == set(STAGES)

    def test_one_analyze_lookup_per_example(self, corpus):
        """The winner carries its analysis out of the search, so a
        1-sample pass looks each example's SQL up once, not twice."""
        runner = fresh_runner(corpus)
        EvalEngine(runner).run(ZERO_SHOT, limit=6)
        stats = runner.cache.stats()["analyze"]
        assert stats["hits"] + stats["misses"] == 6


class TestArtifactSharing:
    def test_preliminary_shared_across_configs(self, corpus):
        """DAIL's preliminary pass runs once per example, not once per
        grid cell: the second DAIL config (different organization) reuses
        the artifacts keyed by (LLM fingerprint, prompt text)."""
        runner = fresh_runner(corpus)
        other = RunConfig(model="gpt-4", representation="CR_P",
                          selection="DAIL_S", organization="FI_O", k=3)
        GridRunner(runner).sweep([DAIL, other], limit=4)
        stats = runner.cache.stats()["preliminary"]
        assert stats["misses"] == 4
        assert stats["hits"] == 4

    def test_generations_shared_between_identical_prompts(self, corpus):
        """Two sweeps of the same config on one runner: the second is a
        pure cache replay, even without a disk tier."""
        runner = fresh_runner(corpus)
        engine = EvalEngine(runner)
        first = engine.run(ZERO_SHOT, limit=4)
        second = engine.run(ZERO_SHOT, limit=4)
        assert record_dicts(first) == record_dicts(second)
        assert second.telemetry.cache_hit_rate("generate") == 1.0
        assert second.telemetry.cache_hit_rate("gold") == 1.0

    def test_preliminary_compat_view(self, corpus):
        runner = fresh_runner(corpus)
        runner.run(DAIL, limit=3)
        assert runner.cache.stage_entries("preliminary")

    def test_self_consistency_samples_cached_individually(self, corpus):
        runner = fresh_runner(corpus)
        engine = EvalEngine(runner)
        engine.run(ZERO_SHOT, limit=2, n_samples=3)
        warm = engine.run(ZERO_SHOT, limit=2, n_samples=3)
        assert warm.telemetry.cache_hit_rate("generate") == 1.0


class TestIncrementalSweeps:
    """The disk tier makes sweeps resumable across cache instances
    (standing in for processes — true cross-process stability is covered
    by the key-digest subprocess test)."""

    def grid(self, corpus, cache_dir, configs, **kwargs):
        runner = fresh_runner(
            corpus, cache=ArtifactCache(disk_dir=cache_dir)
        )
        reports = GridRunner(runner, **kwargs).sweep(configs, limit=5)
        return runner, reports

    def test_warm_rerun_is_byte_identical_and_generation_free(
        self, corpus, tmp_path
    ):
        configs = [ZERO_SHOT, DAIL]
        _, cold = self.grid(corpus, tmp_path, configs)
        warm_runner, warm = self.grid(corpus, tmp_path, configs)
        for a, b in zip(cold, warm):
            assert record_dicts(a) == record_dicts(b)
        stats = warm_runner.cache.stats()
        for stage in ("generate", "gold", "select", "preliminary"):
            assert stats[stage]["misses"] == 0, stage
            assert stats[stage]["disk_hits"] > 0, stage

    def test_warm_parallel_matches_cold_serial(self, corpus, tmp_path):
        _, cold = self.grid(corpus, tmp_path, [DAIL], workers=1)
        _, warm = self.grid(corpus, tmp_path, [DAIL], workers=4)
        assert record_dicts(cold[0]) == record_dicts(warm[0])

    def test_changed_model_invalidates_generation(self, corpus, tmp_path):
        self.grid(corpus, tmp_path, [ZERO_SHOT])
        changed = replace(ZERO_SHOT, model="gpt-3.5-turbo")
        runner, _ = self.grid(corpus, tmp_path, [changed])
        # Different LLM fingerprint → no generation artifact matches...
        assert runner.cache.stats()["generate"]["misses"] > 0
        # ...while gold rows (model-independent) replay from disk.
        assert runner.cache.stats()["gold"]["misses"] == 0

    def test_changed_representation_invalidates_prompt_stages(
        self, corpus, tmp_path
    ):
        self.grid(corpus, tmp_path, [ZERO_SHOT])
        changed = replace(ZERO_SHOT, representation="OD_P")
        runner, _ = self.grid(corpus, tmp_path, [changed])
        assert runner.cache.stats()["generate"]["misses"] > 0


class TestFingerprints:
    def test_llm_fingerprint_ignores_latency(self, corpus):
        fast = fresh_runner(corpus, llm_latency_s=0.0)
        slow = fresh_runner(corpus, llm_latency_s=0.05)
        from repro.llm.interface import client_fingerprint

        fp_fast = client_fingerprint(fast.prepare(ZERO_SHOT).llm)
        fp_slow = client_fingerprint(slow.prepare(ZERO_SHOT).llm)
        assert fp_fast == fp_slow  # latency affects timing, not content

    def test_llm_fingerprint_changes_with_model(self, runner):
        from repro.llm.interface import client_fingerprint

        a = client_fingerprint(runner.prepare(ZERO_SHOT).llm)
        b = client_fingerprint(
            runner.prepare(
                RunConfig(model="gpt-3.5-turbo", representation="CR_P")
            ).llm
        )
        assert a != b

    def test_strategy_fingerprint_sensitive_to_threshold(self, corpus):
        from repro.selection.strategies import DailSelection

        a = DailSelection(corpus.train, skeleton_threshold=0.35)
        b = DailSelection(corpus.train, skeleton_threshold=0.5)
        a.set_target_dataset(corpus.dev)
        b.set_target_dataset(corpus.dev)
        assert a.fingerprint() != b.fingerprint()

    def test_config_fingerprint_ignores_label(self):
        assert ZERO_SHOT.fingerprint() == RunConfig(
            model="gpt-4", representation="CR_P", label="renamed"
        ).fingerprint()
        assert ZERO_SHOT.fingerprint() != RunConfig(
            model="gpt-4", representation="CR_P", rule_implication=True
        ).fingerprint()

    def test_database_fingerprint_stable_and_distinct(self, corpus):
        pool = corpus.pool()
        ids = corpus.dev.db_ids()[:2]
        assert pool.fingerprint(ids[0]) == pool.fingerprint(ids[0])
        assert pool.fingerprint(ids[0]) != pool.fingerprint(ids[1])

    def test_dataset_fingerprint_distinguishes_splits(self, corpus):
        assert corpus.dev.fingerprint() != corpus.train.fingerprint()
