"""Serve-layer fixtures: fresh runners (isolated caches) and services.

The session ``runner`` fixture is shared across suites; serve tests
that assert on cold/warm cache behaviour need their *own* cache, so
``fresh_runner`` builds a runner over the session corpus with a private
:class:`~repro.cache.store.ArtifactCache`.
"""

from __future__ import annotations

import pytest

from repro.eval.harness import BenchmarkRunner
from repro.obs.metrics import MetricsRegistry
from repro.serve import SqlService


@pytest.fixture()
def fresh_runner(corpus):
    return BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(), seed=3)


@pytest.fixture()
def fresh_service(fresh_runner):
    service = SqlService(fresh_runner, metrics=MetricsRegistry())
    yield service
    service.close()


@pytest.fixture(scope="module")
def shared_service(corpus):
    """One service per test module — for read-style assertions that
    don't care about cache temperature."""
    runner = BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(), seed=3)
    service = SqlService(runner, metrics=MetricsRegistry())
    yield service
    service.close()
