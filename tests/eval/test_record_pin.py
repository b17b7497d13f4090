"""The records of the two batch benchmark configurations, pinned.

sha256 digests of every record of the full seed-0 corpus under the
DAIL-SQL leaderboard entry and under the five-sample, three-round
repair vote, on one and on two workers.  Work that changes how per-
example facts are derived (parses, canonical forms, cache keys) must
leave these bytes alone; a change that means to move a record
re-derives the pins and says why.  The SQLite reference backend runs
whatever backend the rest of the suite is pointed at.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.cache.store import ArtifactCache
from repro.core.baselines import leaderboard_entries
from repro.dataset.generator.corpus import build_corpus
from repro.eval.engine import EvalEngine
from repro.eval.harness import BenchmarkRunner, RunConfig
from repro.experiments.context import FULL_CONFIG

#: name → (digest of the records, the same on 1 and 2 workers).
PINNED = {
    "dail": "e7c3fba82b18f1ec387deaacbb8f5432c7dc5cd21b7236208f6616c43141cbf2",
    "vote": "46f71e7a56cfd47a958c06b23c9c2af5f5e5cb1a8a8cad5761d3e4b1ee5d2d08",
}


def configuration(name):
    """(config, n_samples, feedback_rounds) of one pinned run."""
    if name == "vote":
        return RunConfig(model="gpt-3.5-turbo", representation="CR_P"), 5, 3
    entry = next(e for e in leaderboard_entries()
                 if e.name == "DAIL-SQL (GPT-4)")
    return entry.config, entry.n_samples, 0


@pytest.fixture(scope="module")
def full_corpus():
    corpus = build_corpus(dataclasses.replace(FULL_CONFIG, seed=0))
    yield corpus
    corpus.close()


def records_digest(records) -> str:
    blob = json.dumps([dataclasses.asdict(r) for r in records],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_records_are_pinned(full_corpus, name, workers):
    config, n_samples, feedback_rounds = configuration(name)
    runner = BenchmarkRunner(
        full_corpus.dev, full_corpus.train, full_corpus.pool("sqlite"),
        seed=0, cache=ArtifactCache(), repair=False,
        feedback_rounds=feedback_rounds,
    )
    runner.prepare(config, n_samples=n_samples)
    report = EvalEngine(runner, workers=workers).run(
        config, n_samples=n_samples
    )
    assert len(report.records) == len(full_corpus.dev)
    assert records_digest(report.records) == PINNED[name]
