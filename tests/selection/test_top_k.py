"""The top-k selection path against the full ranking.

``SelectionStrategy.select`` takes its ``k`` demonstrations from
``top_k``, which scores the pool in posting order and re-scores exactly
only the candidates at the k-th boundary.  The contract is
``top_k(...) == rank(...)[:k]``: the same candidates in the same order,
so every prompt byte is unchanged.  ``rank`` itself is pinned against
the scalar definitions in ``test_selection_index.py``.
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.dataset.generator.corpus import CorpusConfig, build_corpus
from repro.dataset.spider import SpiderDataset
from repro.embed.tfidf import PostingScores, TfidfIndex
from repro.selection import strategies
from repro.selection.strategies import (
    DailSelection,
    MaskedQuestionSimilaritySelection,
    QuestionSimilaritySelection,
)

UNPARSEABLE = "SELEC name FRM singer WHERE ((("

#: train_per_db giving pools of 600, 2,400 and 6,000 candidates.
POOLS = {600: 30, 2400: 120, 6000: 300}

STRATEGIES = (QuestionSimilaritySelection, MaskedQuestionSimilaritySelection,
              DailSelection)


@contextmanager
def watched():
    """Collect the candidate count of every exact re-score; scoring the
    whole pool exactly (``TfidfIndex.scores``) fails the test."""
    sizes = []
    exact = PostingScores.exact

    def spy(self, candidates):
        sizes.append(len(candidates))
        return exact(self, candidates)

    def whole_pool(self, text):
        raise AssertionError("top_k scored the whole pool exactly")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PostingScores, "exact", spy)
        patch.setattr(TfidfIndex, "scores", whole_pool)
        yield sizes


def _strategy(cls, candidates, targets, **kwargs):
    strategy = cls(candidates, **kwargs)
    if isinstance(strategy, MaskedQuestionSimilaritySelection):
        strategy.set_target_dataset(targets)
    return strategy


def _exact(strategy, question, db_id, predicted):
    """Every candidate's exact (gate, score) pair, as ``rank`` sorts them."""
    scores = strategy._similarities(question, db_id)
    if predicted is None or not isinstance(strategy, DailSelection):
        return np.ones(len(scores), bool), scores
    skeleton = strategy._skeletons.similarities(predicted)
    return skeleton >= strategy.skeleton_threshold, 0.5 * scores + 0.5 * skeleton


def check(strategy, question, db_id, predicted, ks):
    """``top_k == rank()[:k]`` for each ``k``, re-scoring only the
    boundary; returns the full ranking."""
    ranked = strategy.rank(question, db_id, predicted)
    gate, scores = _exact(strategy, question, db_id, predicted)
    for k in ks:
        with watched() as sizes:
            got = strategy.top_k(question, db_id, k, predicted)
        assert got == ranked[:k], (question, predicted, k)
        assert len(sizes) == 1
        if k < len(ranked):
            # At most the candidates ahead of the k-th and those tied
            # with it (within far less than the tolerance) are re-scored.
            kth = ranked[k - 1]
            same_gate = gate == gate[kth]
            ahead = np.count_nonzero(gate & ~gate[kth])
            tied = np.count_nonzero(same_gate & (scores >= scores[kth] - 2e-9))
            assert sizes[0] <= ahead + tied, (sizes, k, ahead, tied)
    return ranked


@pytest.fixture(scope="module", params=[
    (size, seed) for size in POOLS for seed in range(4)
], ids=lambda param: f"pool{param[0]}-seed{param[1]}")
def pool(request):
    size, seed = request.param
    corpus = build_corpus(CorpusConfig(
        seed=seed, train_per_db=POOLS[size], dev_per_db=2
    ))
    assert len(corpus.train) == size
    yield corpus
    corpus.close()


@pytest.mark.parametrize("cls", STRATEGIES)
def test_equals_rank(pool, cls):
    strategy = _strategy(cls, pool.train, pool.dev)
    dev = pool.dev.examples
    ks = (1, 5, len(pool.train))
    for i, example in enumerate(dev):
        predictions = [None]
        if cls is DailSelection:
            predictions += [example.query, dev[(i + 1) % len(dev)].query,
                            UNPARSEABLE]
        for predicted in predictions:
            check(strategy, example.question, example.db_id, predicted, ks)


def test_ties_across_the_boundary(corpus):
    """Copies of a candidate score exactly alike; pool index breaks the
    tie, also when the tie straddles the k-th place."""
    train = corpus.train
    originals = train.examples[:6]
    copies = [replace(e, example_id=f"{e.example_id}-copy{j}")
              for j in range(4) for e in originals]
    middle = len(train) // 2
    pool = SpiderDataset(
        train.examples[:middle] + copies + train.examples[middle:],
        list(train.schemas.values()), name="ties",
    )
    straddled = 0
    for cls in STRATEGIES:
        strategy = _strategy(cls, pool, corpus.dev)
        for example in originals:
            predicted = example.query if cls is DailSelection else None
            ranked = check(strategy, example.question, example.db_id,
                           predicted, ks=range(1, 12))
            gate, scores = _exact(strategy, example.question, example.db_id,
                                  predicted)
            straddled += sum(
                scores[a] == scores[b] and gate[a] == gate[b]
                for a, b in zip(ranked[:11], ranked[1:12])
            )
    assert straddled


@pytest.mark.parametrize("threshold", [0.9, 1.01])
def test_fewer_gated_than_k(corpus, threshold):
    """Fewer than k candidates pass the skeleton gate (0.9), or none do
    (1.01): the gate-failed candidates fill the rest in score order."""
    strategy = _strategy(DailSelection, corpus.train, corpus.dev,
                         skeleton_threshold=threshold)
    dev = corpus.dev.examples
    few = 0
    for i, example in enumerate(dev):
        for predicted in (example.query, dev[(i + 1) % len(dev)].query):
            gate, _ = _exact(strategy, example.question, example.db_id, predicted)
            gated = int(gate.sum())
            if threshold > 1:
                assert gated == 0
            few += 0 < gated < len(gate)
            check(strategy, example.question, example.db_id, predicted,
                  ks=sorted({1, 5, gated or 1, gated + 1, gated + 3}))
    assert threshold > 1 or few


def test_empty_pool(corpus):
    empty = SpiderDataset([], list(corpus.train.schemas.values()), name="empty")
    for cls in STRATEGIES:
        strategy = _strategy(cls, empty, corpus.dev)
        target = corpus.dev.examples[0]
        assert strategy.top_k(target.question, target.db_id, 5, target.query) == []


def test_keys_within_rounding_of_exact():
    """A key one rounding step below its exact score still makes the
    re-score: an exact tie at the k-th place goes to the lower index."""
    exact = np.array([0.5, 0.5, 0.25])
    keys = np.array([np.nextafter(0.5, 0.0), 0.5, 0.25])
    assert strategies._top_k(keys, 1, exact.__getitem__) == [0]
    gate = np.array([True, True, False])
    keys[2] -= 2.0
    assert strategies._top_k(keys, 3, exact.__getitem__, gate) == [0, 1, 2]
