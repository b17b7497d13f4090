"""The artifact cache: a memory LRU tier over an optional disk tier.

``ArtifactCache.get_or_compute(stage, key_parts, compute)`` is the one
entry point every pipeline stage uses.  The key is a stable digest of
``(schema version, stage, *key_parts)``; the value is whatever the stage
computes.  Leading parts shared by many keys (fingerprints) can be
hashed once, as a prefix from :meth:`ArtifactCache.prefix`; the digest
is the same either way.  Lookups try memory, then disk, then
compute — and every lookup reports hit/miss to the run's telemetry
collector under the stage's name, so
:class:`~repro.eval.telemetry.RunTelemetry` cache counters are fed
uniformly by every stage.  With a metrics registry
attached (:meth:`ArtifactCache.set_metrics` — the evaluation engine
does this per run), lookups additionally count per-tier events
(``memory_hit`` / ``disk_hit`` / ``miss`` / ``disk_write`` /
``evict``) into ``repro_cache_tier_events_total``.

The disk tier is content-addressed JSON files under
``<dir>/<stage>/<digest[:2]>/<digest>.json``.  Writes are atomic
(tempfile + rename) and strictly best-effort: a full disk, a corrupt
entry or an unserialisable value degrade to a recompute, never to a
failed evaluation.  Cumulative hit/miss counters are merged into
``<dir>/stats.json`` by :meth:`ArtifactCache.flush` so ``dail-sql cache
stats`` can report hit rates across runs.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from .keys import CACHE_SCHEMA_VERSION, DigestPrefix, stable_digest
from .lru import LRUCache

if TYPE_CHECKING:
    from ..obs.metrics import CounterSeries

#: Environment variable naming the disk-tier directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default capacity of the in-memory tier (artifacts are small — SQL
#: strings, row lists, generation texts — so this stays modest in RAM).
DEFAULT_MEMORY_ENTRIES = 65_536

_MISSING = object()

_STATS_FILE = "stats.json"

#: Most key prefixes an :class:`ArtifactCache` keeps.  Prefixes are
#: keyed by fingerprints (one per client, strategy or database), so a
#: run holds a handful; the bound only stops a pathological caller.
_MAX_PREFIXES = 1024


class DiskTier:
    """Content-addressed JSON store under one root directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        # Optional MetricsRegistry (forwarded by ArtifactCache.set_metrics).
        self._metrics = None

    def set_metrics(self, registry) -> None:
        self._metrics = registry

    def _entry_path(self, stage: str, digest: str) -> Path:
        return self.root / stage / digest[:2] / f"{digest}.json"

    def get(self, stage: str, digest: str):
        """The stored value, or the missing sentinel on any failure.

        Unreadable entries — torn writes, disk corruption — are
        quarantined (renamed to ``*.corrupt``) rather than left in
        place, so the parse is not re-attempted on every later access;
        the caller recomputes once and the fresh write replaces the
        entry.
        """
        path = self._entry_path(stage, digest)
        try:
            text = path.read_text()
        except OSError:
            return _MISSING
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("artifact payload is not a JSON object")
        except ValueError:
            self._quarantine(path, stage)
            return _MISSING
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            return _MISSING
        return payload.get("value")

    def _quarantine(self, path: Path, stage: str) -> None:
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            return
        if self._metrics is not None:
            from ..obs.metrics import M_CACHE_CORRUPT

            self._metrics.counter_add(M_CACHE_CORRUPT, 1, {"stage": stage})

    def put(self, stage: str, digest: str, value) -> bool:
        """Write one entry atomically; returns False on any failure."""
        path = self._entry_path(stage, digest)
        try:
            payload = json.dumps(
                {"schema": CACHE_SCHEMA_VERSION, "stage": stage, "value": value}
            )
        except (TypeError, ValueError):
            return False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            return False
        return True

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage ``{"entries", "bytes"}`` from a directory walk."""
        out: Dict[str, Dict[str, int]] = {}
        if not self.root.exists():
            return out
        for stage_dir in sorted(self.root.iterdir()):
            if not stage_dir.is_dir():
                continue
            entries = 0
            size = 0
            for path in stage_dir.rglob("*.json"):
                entries += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
            out[stage_dir.name] = {"entries": entries, "bytes": size}
        return out

    def clear(self) -> int:
        """Delete every entry (and the stats file); returns entries removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for stage_dir in list(self.root.iterdir()):
            if not stage_dir.is_dir():
                continue
            for path in list(stage_dir.rglob("*.json")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in list(stage_dir.rglob("*.corrupt")):
                try:
                    path.unlink()
                except OSError:
                    pass
            for shard in sorted(stage_dir.rglob("*"), reverse=True):
                if shard.is_dir():
                    try:
                        shard.rmdir()
                    except OSError:
                        pass
            try:
                stage_dir.rmdir()
            except OSError:
                pass
        stats_path = self.root / _STATS_FILE
        if stats_path.exists():
            try:
                stats_path.unlink()
            except OSError:
                pass
        return removed

    def _read_stats_payload(self) -> Dict[str, object]:
        try:
            payload = json.loads((self.root / _STATS_FILE).read_text())
            return payload if isinstance(payload, dict) else {}
        except (OSError, ValueError):
            return {}

    def _write_stats_payload(self, payload: Dict[str, object]) -> None:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=1)
            os.replace(tmp, self.root / _STATS_FILE)
        except OSError:
            pass

    def read_counters(self) -> Dict[str, Dict[str, int]]:
        """Cumulative per-stage hit/miss counters from ``stats.json``."""
        stages = self._read_stats_payload().get("stages", {})
        return stages if isinstance(stages, dict) else {}

    def read_backends(self) -> List[str]:
        """Execution backends that have written through this cache dir
        (recorded by :meth:`merge_backends`) — mixed-dialect cache
        directories are legal (keys are disjoint) but worth surfacing."""
        backends = self._read_stats_payload().get("backends", [])
        if not isinstance(backends, list):
            return []
        return sorted(str(name) for name in backends)

    def merge_counters(self, delta: Dict[str, Dict[str, int]]) -> None:
        """Fold hit/miss deltas into ``stats.json`` (best effort)."""
        if not delta:
            return
        payload = self._read_stats_payload()
        stages = payload.get("stages")
        if not isinstance(stages, dict):
            stages = {}
        for stage, counters in delta.items():
            slot = stages.setdefault(stage, {})
            for name, count in counters.items():
                slot[name] = slot.get(name, 0) + count
        payload["stages"] = stages
        self._write_stats_payload(payload)

    def merge_backends(self, names) -> None:
        """Record backend labels into ``stats.json`` (best effort)."""
        incoming = {str(name) for name in names if name}
        if not incoming:
            return
        payload = self._read_stats_payload()
        existing = payload.get("backends", [])
        if not isinstance(existing, list):
            existing = []
        merged = sorted({str(name) for name in existing} | incoming)
        if merged == sorted(str(name) for name in existing):
            return
        payload["backends"] = merged
        self._write_stats_payload(payload)


class ArtifactCache:
    """Two-tier content-addressed store for pipeline artifacts.

    Args:
        disk_dir: directory for the persistent tier (``None`` disables
            it — the cache is then purely in-memory).
        max_memory_entries: LRU capacity of the memory tier.
    """

    def __init__(
        self,
        disk_dir: Optional[Union[str, Path]] = None,
        max_memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ):
        self._memory = LRUCache(max_entries=max_memory_entries)
        self.disk = DiskTier(disk_dir) if disk_dir is not None else None
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self._disk_hits: Dict[str, int] = {}
        self._flushed_hits: Dict[str, int] = {}
        self._flushed_misses: Dict[str, int] = {}
        #: Backend labels of runners writing through this cache; flushed
        #: to ``stats.json`` so mixed-dialect cache dirs are debuggable.
        self._backends: set = set()
        # Optional MetricsRegistry; the engine attaches the run registry.
        self._metrics = None
        # Its tier-event counters, bound per (stage, event) on first use.
        self._event_series: Dict[Tuple[str, str], "CounterSeries"] = {}
        # Key prefixes per (stage, *leading parts); see prefix().
        self._prefixes: Dict[tuple, DigestPrefix] = {}

    def annotate_backend(self, name: str) -> None:
        """Label this cache with an execution-backend name (flushed to
        the disk tier's ``stats.json`` alongside the counters)."""
        if name:
            with self._lock:
                self._backends.add(str(name))

    def backends(self) -> List[str]:
        """Backend labels seen by this cache instance (sorted)."""
        with self._lock:
            return sorted(self._backends)

    def set_metrics(self, registry) -> None:
        """Attach a metrics registry recording per-tier cache events
        (forwarded to the disk tier for quarantine/fault counters)."""
        self._metrics = registry
        self._event_series = {}
        if self.disk is not None and hasattr(self.disk, "set_metrics"):
            self.disk.set_metrics(registry)

    def _count_event(self, stage: str, event: str, count: int = 1) -> None:
        if self._metrics is None or count == 0:
            return
        series = self._event_series.get((stage, event))
        if series is None:
            from ..obs.metrics import M_CACHE_TIER

            series = self._event_series[(stage, event)] = (
                self._metrics.bind_counter(
                    M_CACHE_TIER, {"stage": stage, "event": event}
                )
            )
        series.add(count)

    @property
    def disk_dir(self) -> Optional[Path]:
        return self.disk.root if self.disk is not None else None

    # -- the one lookup path -------------------------------------------------

    def prefix(self, stage: str, *parts) -> DigestPrefix:
        """The hashed leading parts of ``stage``'s keys, for
        :meth:`key` and :meth:`get_or_compute` of that stage.

        Kept per ``(stage, *parts)``, so pass only parts shared by many
        keys for the life of the cache — fingerprints of a client, a
        strategy or a database — never per-example text (``extend`` the
        returned prefix with that instead).
        """
        key = (stage,) + parts
        prefix = self._prefixes.get(key)
        if prefix is None:
            if len(self._prefixes) >= _MAX_PREFIXES:
                self._prefixes.clear()
            prefix = self._prefixes[key] = DigestPrefix(
                CACHE_SCHEMA_VERSION, stage
            ).extend(*parts)
        return prefix

    def key(self, stage: str, key_parts,
            prefix: Optional[DigestPrefix] = None) -> str:
        """The content digest for a stage artifact.

        With a ``prefix`` of this stage, ``key_parts`` are the parts
        after it; the digest is the one of the whole key either way.
        """
        if prefix is None:
            return stable_digest(CACHE_SCHEMA_VERSION, stage, list(key_parts))
        return prefix.digest(*key_parts)

    def get_or_compute(
        self,
        stage: str,
        key_parts,
        compute: Callable[[], object],
        collector=None,
        persist: bool = True,
        encode: Optional[Callable] = None,
        decode: Optional[Callable] = None,
        prefix: Optional[DigestPrefix] = None,
    ):
        """The artifact for ``(stage, key_parts)``, computing on miss.

        ``collector`` (anything with ``record_cache(name, hit)``) is
        told about the hit/miss under the stage's name.  ``persist``
        gates the disk tier: artifacts holding live objects (schemas,
        connections) are memory-only.  ``encode``/``decode`` convert
        between the runtime value and its JSON form (e.g. row tuples
        ↔ lists); the memory tier always holds the runtime value.
        ``prefix`` (from :meth:`prefix`) stands for the key's leading
        parts; ``key_parts`` then hold the rest (see :meth:`key`).

        ``compute`` must be a pure function of the key parts — that is
        what makes racing duplicate computations, cross-config sharing
        and cross-process reuse all safe.
        """
        digest = self.key(stage, key_parts, prefix)
        value = self._memory.get((stage, digest), _MISSING)
        if value is not _MISSING:
            self._record(stage, collector, hit=True)
            self._count_event(stage, "memory_hit")
            return value

        if persist and self.disk is not None:
            stored = self.disk.get(stage, digest)
            if stored is not _MISSING:
                value = decode(stored) if decode is not None else stored
                evicted = self._memory.put((stage, digest), value)
                self._record(stage, collector, hit=True, disk=True)
                self._count_event(stage, "disk_hit")
                self._count_event(stage, "evict", evicted)
                return value

        self._record(stage, collector, hit=False)
        self._count_event(stage, "miss")
        value = compute()
        evicted = self._memory.put((stage, digest), value)
        self._count_event(stage, "evict", evicted)
        if persist and self.disk is not None:
            if self.disk.put(
                stage, digest, encode(value) if encode is not None else value
            ):
                self._count_event(stage, "disk_write")
        return value

    def _record(self, stage: str, collector, hit: bool, disk: bool = False) -> None:
        with self._lock:
            counters = self._hits if hit else self._misses
            counters[stage] = counters.get(stage, 0) + 1
            if disk:
                self._disk_hits[stage] = self._disk_hits.get(stage, 0) + 1
        if collector is not None:
            collector.record_cache(stage, hit=hit)

    # -- introspection -------------------------------------------------------

    def stage_entries(self, stage: str) -> Dict[str, object]:
        """Memory-tier artifacts of one stage, keyed by digest."""
        return {
            digest: value
            for (entry_stage, digest), value in self._memory.snapshot().items()
            if entry_stage == stage
        }

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage hit/miss/disk-hit counters for this process."""
        with self._lock:
            stages = sorted(set(self._hits) | set(self._misses))
            return {
                stage: {
                    "hits": self._hits.get(stage, 0),
                    "misses": self._misses.get(stage, 0),
                    "disk_hits": self._disk_hits.get(stage, 0),
                }
                for stage in stages
            }

    def hit_rate(self, stage: str) -> float:
        """Hit rate of one stage (0.0 when never consulted)."""
        with self._lock:
            hits = self._hits.get(stage, 0)
            total = hits + self._misses.get(stage, 0)
        return hits / total if total else 0.0

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Merge counter deltas into the disk tier's ``stats.json``."""
        if self.disk is None:
            return
        with self._lock:
            delta: Dict[str, Dict[str, int]] = {}
            for stage in set(self._hits) | set(self._misses):
                hits = self._hits.get(stage, 0) - self._flushed_hits.get(stage, 0)
                misses = (
                    self._misses.get(stage, 0) - self._flushed_misses.get(stage, 0)
                )
                if hits or misses:
                    delta[stage] = {"hits": hits, "misses": misses}
            self._flushed_hits = dict(self._hits)
            self._flushed_misses = dict(self._misses)
            backends = sorted(self._backends)
        self.disk.merge_counters(delta)
        if backends and hasattr(self.disk, "merge_backends"):
            self.disk.merge_backends(backends)

    def clear(self, disk: bool = True) -> int:
        """Drop the memory tier (and, by default, every disk entry)."""
        self._memory.clear()
        removed = 0
        if disk and self.disk is not None:
            removed = self.disk.clear()
        with self._lock:
            self._hits.clear()
            self._misses.clear()
            self._disk_hits.clear()
            self._flushed_hits.clear()
            self._flushed_misses.clear()
        return removed


# -- process-wide configuration ----------------------------------------------

_configured_dir: Optional[Path] = None
_config_lock = threading.Lock()


def configure_cache_dir(path: Optional[Union[str, Path]]) -> None:
    """Set the disk-tier directory for subsequently built caches.

    The CLI's ``--cache-dir`` flag lands here; it takes precedence over
    the ``REPRO_CACHE_DIR`` environment variable.  ``None`` reverts to
    the environment.
    """
    global _configured_dir
    with _config_lock:
        _configured_dir = Path(path) if path is not None else None


def resolved_cache_dir() -> Optional[Path]:
    """The active disk-tier directory, or ``None`` (memory-only)."""
    with _config_lock:
        if _configured_dir is not None:
            return _configured_dir
    env = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(env) if env else None


def build_cache(
    disk_dir: Optional[Union[str, Path]] = None,
    max_memory_entries: int = DEFAULT_MEMORY_ENTRIES,
) -> ArtifactCache:
    """An :class:`ArtifactCache` honouring the configured disk directory.

    ``disk_dir`` overrides; otherwise ``--cache-dir`` /
    ``REPRO_CACHE_DIR`` decide whether a disk tier is attached.
    """
    if disk_dir is None:
        disk_dir = resolved_cache_dir()
    return ArtifactCache(disk_dir=disk_dir, max_memory_entries=max_memory_entries)
