"""The two-tier artifact cache: memory, disk, counters, lifecycle."""

import json

import pytest

from repro.cache.keys import CACHE_SCHEMA_VERSION
from repro.cache.store import (
    ArtifactCache,
    DiskTier,
    build_cache,
    configure_cache_dir,
    resolved_cache_dir,
)


class RecordingCollector:
    def __init__(self):
        self.events = []

    def record_cache(self, name, hit):
        self.events.append((name, hit))


class TestMemoryTier:
    def test_compute_once_then_hit(self):
        cache = ArtifactCache()
        calls = []
        collector = RecordingCollector()

        def compute():
            calls.append(1)
            return {"sql": "SELECT 1"}

        first = cache.get_or_compute("generate", ("fp", "prompt"), compute,
                                     collector=collector)
        second = cache.get_or_compute("generate", ("fp", "prompt"), compute,
                                      collector=collector)
        assert first == second == {"sql": "SELECT 1"}
        assert calls == [1]
        assert collector.events == [("generate", False), ("generate", True)]

    def test_different_keys_do_not_collide(self):
        cache = ArtifactCache()
        a = cache.get_or_compute("s", ("a",), lambda: 1)
        b = cache.get_or_compute("s", ("b",), lambda: 2)
        assert (a, b) == (1, 2)

    def test_same_key_different_stage(self):
        cache = ArtifactCache()
        assert cache.get_or_compute("x", ("k",), lambda: 1) == 1
        assert cache.get_or_compute("y", ("k",), lambda: 2) == 2

    def test_stage_entries_and_stats(self):
        cache = ArtifactCache()
        cache.get_or_compute("gold", ("k1",), lambda: [1])
        cache.get_or_compute("gold", ("k1",), lambda: [1])
        cache.get_or_compute("gold", ("k2",), lambda: [2])
        assert sorted(cache.stage_entries("gold").values()) == [[1], [2]]
        assert cache.stats()["gold"] == {
            "hits": 1, "misses": 2, "disk_hits": 0,
        }
        assert cache.hit_rate("gold") == pytest.approx(1 / 3)
        assert cache.hit_rate("never-used") == 0.0


#: One key per stage shape the evaluation pipeline uses, with the hex
#: digest :meth:`ArtifactCache.key` gave for it before keys were
#: prefix-hashed.  On-disk caches and run journals are keyed by these.
_LLM = "9f" * 32
_POOL = "3c" * 32
_PROMPT = (
    "/* Given the following database schema: */\nCREATE TABLE singer (\n"
    "  singer_id int,\n  name text\n)\n/* Answer the following: How many "
    "singers are there? */\nSELECT"
)
_SQL = "SELECT count(*) FROM singer WHERE age > 30"
#: stage → (fixed leading parts, remaining parts, golden digest).
GOLDEN_KEYS = {
    "generate": ((_LLM, _PROMPT), ("sc-3",),
                 "0c8292a110284745e7bb1237b172626f432e3c5350eea8ef2332bc024bfca1b4"),
    "preliminary": ((_LLM,), (_PROMPT,),
                    "2fcf609606bea9db59eaf61b678d76f27679087e6ac330039374d97e102f33ed"),
    "select": (("dail_s:" + "a1" * 16,),
               ("How many singers are there?", "concert_singer", 5, _SQL),
               "4062790a0ad3752019b44240089abbcb666fbe9e761a4808333669272086d2a8"),
    "analyze": (("3", _POOL), (_SQL, "plain", "sqlite"),
                "46c854cc07afef82cb28795b99da415b5863a7262f4f16b3b4e247e2219f4a4d"),
    "execute": ((_POOL,), (_SQL,),
                "c6e2244aeeb919fa3224884f172dc6558ffc794b5f501b70a8fa270e0ea59c17"),
    "gold": ((_POOL,), (_SQL,),
             "f919eded61eec256d7ed5843fde213761b8c89bbd8e435f8b1cb5d64cf2ad209"),
}


class TestKeyPrefixes:
    @pytest.mark.parametrize("stage", sorted(GOLDEN_KEYS))
    def test_golden_digest_whole_and_prefixed(self, stage):
        fixed, rest, golden = GOLDEN_KEYS[stage]
        cache = ArtifactCache()
        assert cache.key(stage, fixed + rest) == golden
        assert cache.key(stage, rest, cache.prefix(stage, *fixed)) == golden
        # A prefix extended by per-example text (the generate stage's
        # prompt) keys the same as the prefix of all of it.
        first, *others = fixed
        extended = cache.prefix(stage, first).extend(*others)
        assert cache.key(stage, rest, extended) == golden

    def test_prefix_is_kept_per_stage_and_parts(self):
        cache = ArtifactCache()
        assert cache.prefix("execute", _POOL) is cache.prefix("execute", _POOL)
        assert cache.prefix("gold", _POOL) is not cache.prefix("execute", _POOL)

    def test_prefixed_lookup_finds_a_whole_key_disk_entry(self, tmp_path):
        fixed, rest, _ = GOLDEN_KEYS["execute"]
        writer = ArtifactCache(disk_dir=tmp_path)
        writer.get_or_compute("execute", fixed + rest, lambda: {"ok": True})
        reader = ArtifactCache(disk_dir=tmp_path)
        value = reader.get_or_compute(
            "execute", rest, lambda: pytest.fail("recomputed"),
            prefix=reader.prefix("execute", *fixed),
        )
        assert value == {"ok": True}
        assert reader.stats()["execute"]["disk_hits"] == 1


class TestTierMetrics:
    @staticmethod
    def events(registry):
        from repro.obs.metrics import M_CACHE_TIER

        return {
            labels["event"]: value
            for labels, value in registry.counter_series(M_CACHE_TIER)
        }

    def test_memory_events(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cache = ArtifactCache(max_memory_entries=1)
        cache.set_metrics(registry)
        cache.get_or_compute("s", ("a",), lambda: 1)   # miss
        cache.get_or_compute("s", ("a",), lambda: 1)   # memory hit
        cache.get_or_compute("s", ("b",), lambda: 2)   # miss + evicts "a"
        assert self.events(registry) == {
            "miss": 2.0, "memory_hit": 1.0, "evict": 1.0,
        }

    def test_disk_events(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        warm = ArtifactCache(disk_dir=tmp_path)
        warm.get_or_compute("generate", ("k",), lambda: "v")

        registry = MetricsRegistry()
        cold = ArtifactCache(disk_dir=tmp_path)
        cold.set_metrics(registry)
        cold.get_or_compute("generate", ("k",), lambda: pytest.fail("miss"))
        cold.get_or_compute("generate", ("k2",), lambda: "w")
        assert self.events(registry) == {
            "disk_hit": 1.0, "miss": 1.0, "disk_write": 1.0,
        }

    def test_no_registry_is_silent(self):
        cache = ArtifactCache()
        assert cache.get_or_compute("s", ("a",), lambda: 1) == 1


class TestDiskTier:
    def test_roundtrip_across_instances(self, tmp_path):
        first = ArtifactCache(disk_dir=tmp_path)
        first.get_or_compute("generate", ("k",), lambda: {"text": "SELECT 1"})

        second = ArtifactCache(disk_dir=tmp_path)
        value = second.get_or_compute(
            "generate", ("k",),
            lambda: pytest.fail("should have come from disk"),
        )
        assert value == {"text": "SELECT 1"}
        assert second.stats()["generate"]["disk_hits"] == 1

    def test_encode_decode_roundtrip(self, tmp_path):
        rows = [(1, "a"), (2, "b")]
        first = ArtifactCache(disk_dir=tmp_path)
        first.get_or_compute(
            "gold", ("k",), lambda: rows,
            encode=lambda value: [list(r) for r in value],
            decode=lambda value: [tuple(r) for r in value],
        )
        second = ArtifactCache(disk_dir=tmp_path)
        back = second.get_or_compute(
            "gold", ("k",), lambda: pytest.fail("disk miss"),
            encode=lambda value: [list(r) for r in value],
            decode=lambda value: [tuple(r) for r in value],
        )
        assert back == rows  # tuples restored, not JSON lists

    def test_persist_false_stays_off_disk(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.get_or_compute("select", ("k",), lambda: "v", persist=False)
        assert DiskTier(tmp_path).stats() == {}

    def test_corrupt_entry_recomputes(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        digest = cache.key("generate", ("k",))
        path = tmp_path / "generate" / digest[:2] / f"{digest}.json"
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        value = cache.get_or_compute("generate", ("k",), lambda: "recomputed")
        assert value == "recomputed"

    def test_schema_mismatch_recomputes(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        digest = cache.key("generate", ("k",))
        path = tmp_path / "generate" / digest[:2] / f"{digest}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(
            {"schema": CACHE_SCHEMA_VERSION + 1, "value": "stale"}
        ))
        assert cache.get_or_compute("generate", ("k",), lambda: "fresh") == "fresh"

    def test_unserialisable_value_degrades_to_memory_only(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        value = cache.get_or_compute("execute", ("k",), lambda: object())
        # still served from memory...
        assert cache.get_or_compute("execute", ("k",), lambda: None) is value
        # ...but nothing landed on disk
        assert DiskTier(tmp_path).stats() == {}

    def test_stats_and_clear(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.get_or_compute("gold", ("a",), lambda: 1)
        cache.get_or_compute("generate", ("b",), lambda: 2)
        sizes = DiskTier(tmp_path).stats()
        assert sizes["gold"]["entries"] == 1
        assert sizes["generate"]["bytes"] > 0
        removed = cache.clear()
        assert removed == 2
        assert DiskTier(tmp_path).stats() == {}
        assert cache.stats() == {}

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        """A corrupt artifact is renamed ``*.corrupt``, counted, and the
        recomputed value overwrites cleanly on the next put."""
        from repro.obs.metrics import M_CACHE_CORRUPT, MetricsRegistry

        cache = ArtifactCache(disk_dir=tmp_path)
        digest = cache.key("generate", ("k",))
        path = tmp_path / "generate" / digest[:2] / f"{digest}.json"
        path.parent.mkdir(parents=True)
        path.write_text('{"schema": 1, "value": "SELECT')  # torn write
        registry = MetricsRegistry()
        cache.set_metrics(registry)

        value = cache.get_or_compute("generate", ("k",), lambda: "recomputed")
        assert value == "recomputed"
        corpse = path.with_suffix(".corrupt")
        assert corpse.exists()
        assert corpse.read_text().startswith('{"schema": 1')
        assert registry.counter_value(
            M_CACHE_CORRUPT, {"stage": "generate"}
        ) == 1
        # The recompute was persisted, so a fresh cache replays it.
        fresh = ArtifactCache(disk_dir=tmp_path)
        assert fresh.get_or_compute(
            "generate", ("k",), lambda: pytest.fail("disk miss")
        ) == "recomputed"

    def test_non_object_payload_is_quarantined(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        digest = cache.key("gold", ("k",))
        path = tmp_path / "gold" / digest[:2] / f"{digest}.json"
        path.parent.mkdir(parents=True)
        path.write_text('["not", "an", "object"]')
        assert cache.get_or_compute("gold", ("k",), lambda: "fresh") == "fresh"
        assert path.with_suffix(".corrupt").exists()

    def test_clear_sweeps_quarantined_files(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        digest = cache.key("generate", ("k",))
        path = tmp_path / "generate" / digest[:2] / f"{digest}.json"
        path.parent.mkdir(parents=True)
        path.write_text("{ torn")
        cache.get_or_compute("generate", ("k",), lambda: "v")
        assert path.with_suffix(".corrupt").exists()
        cache.clear()
        assert not path.with_suffix(".corrupt").exists()

    def test_quarantine_without_registry_is_silent(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        digest = cache.key("generate", ("k",))
        path = tmp_path / "generate" / digest[:2] / f"{digest}.json"
        path.parent.mkdir(parents=True)
        path.write_text("{ torn")
        assert cache.get_or_compute("generate", ("k",), lambda: "v") == "v"

    def test_chaotic_disk_tier_corrupts_then_recovers(self, tmp_path):
        """End-to-end: a chaos-truncated write is quarantined on read
        and the caller recomputes the same value."""
        from repro.resilience import ChaosPolicy, ChaoticDiskTier

        cache = ArtifactCache(disk_dir=tmp_path)
        cache.disk = ChaoticDiskTier(
            tmp_path, ChaosPolicy(seed=1, cache_rate=1.0)
        )
        cache.get_or_compute("generate", ("k",), lambda: {"sql": "SELECT 1"})

        fresh = ArtifactCache(disk_dir=tmp_path)
        assert fresh.get_or_compute(
            "generate", ("k",), lambda: {"sql": "SELECT 1"}
        ) == {"sql": "SELECT 1"}
        digest = fresh.key("generate", ("k",))
        corpse = (tmp_path / "generate" / digest[:2]
                  / f"{digest}.corrupt")
        assert corpse.exists()

    def test_flush_merges_counter_deltas(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.get_or_compute("gold", ("a",), lambda: 1)
        cache.get_or_compute("gold", ("a",), lambda: 1)
        cache.flush()
        cache.flush()  # second flush must not double-count
        counters = DiskTier(tmp_path).read_counters()
        assert counters["gold"] == {"hits": 1, "misses": 1}
        cache.get_or_compute("gold", ("a",), lambda: 1)
        cache.flush()
        assert DiskTier(tmp_path).read_counters()["gold"] == {
            "hits": 2, "misses": 1,
        }


class TestConfiguration:
    def test_configure_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        try:
            assert resolved_cache_dir() == tmp_path / "env"
            configure_cache_dir(tmp_path / "cli")
            assert resolved_cache_dir() == tmp_path / "cli"
            assert build_cache().disk_dir == tmp_path / "cli"
        finally:
            configure_cache_dir(None)
        assert resolved_cache_dir() == tmp_path / "env"

    def test_default_is_memory_only(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        configure_cache_dir(None)
        assert resolved_cache_dir() is None
        assert build_cache().disk is None
