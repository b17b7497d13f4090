"""The class table behind ``top_k``.

QTS_S, MQS_S and DAIL_S rank by keys that depend only on a candidate's
TF-IDF row (its distinct text) and, for DAIL_S, its skeleton column.
``top_k`` scores each class of candidates sharing those facts once and
expands only the classes at the k-th boundary.  These tests pin the
table's shape on the seeded corpus, its sharing between ``for_target``
views, and ``top_k == rank()[:k]`` on pools built so that a class
straddles the gate and the k-th place.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.dataset.generator.corpus import CorpusConfig, build_corpus
from repro.dataset.spider import SpiderDataset
from repro.selection.strategies import (
    DailSelection,
    MaskedQuestionSimilaritySelection,
    QuestionSimilaritySelection,
)
from repro.sql.skeleton import skeleton_similarity

from .test_top_k import STRATEGIES, _exact, _strategy, check, watched


@pytest.fixture(scope="module")
def seed0():
    """The seed-0 corpus with a 600-candidate pool."""
    corpus = build_corpus(CorpusConfig(seed=0, train_per_db=30, dev_per_db=2))
    assert len(corpus.train) == 600
    yield corpus
    corpus.close()


def test_one_row_per_distinct_text(seed0):
    train = seed0.train
    masked = MaskedQuestionSimilaritySelection(train)
    texts = [train.masked_question(e) for e in train]
    assert masked._index.n_rows == len(set(texts)) == 71
    assert len(masked._index) == len(train)
    assert masked._classes.sizes.sum() == len(train)

    dail = DailSelection(train)
    pairs = {(row, column) for row, column in zip(
        dail._index.row_of.tolist(), dail._skeletons.column_of.tolist())}
    assert len(dail._pairs.sizes) == len(pairs)
    assert len(dail._pairs.sizes) < len(train)


def test_all_distinct_pool(seed0):
    """QTS_S's raw questions are all distinct: one class per candidate,
    and ``k`` beyond the pool returns the whole ranking."""
    strategy = _strategy(QuestionSimilaritySelection, seed0.train, seed0.dev)
    assert strategy._index.n_rows == len(seed0.train)
    assert strategy._classes.sizes.tolist() == [1] * len(seed0.train)
    for example in seed0.dev.examples[:8]:
        ranked = check(strategy, example.question, example.db_id, None,
                       ks=(1, 5, len(seed0.train) - 1, len(seed0.train) + 3))
        assert len(ranked) == len(seed0.train)


@pytest.mark.parametrize("cls", STRATEGIES)
def test_k_beyond_the_pool(seed0, cls):
    strategy = _strategy(cls, seed0.train, seed0.dev)
    example = seed0.dev.examples[0]
    predicted = example.query if cls is DailSelection else None
    k = len(seed0.train) + 10
    assert strategy.top_k(example.question, example.db_id, k, predicted) == \
        strategy.rank(example.question, example.db_id, predicted)


def test_for_target_shares_the_table(seed0):
    strategy = DailSelection(seed0.train)
    view = strategy.for_target(seed0.dev)
    assert view is not strategy
    assert view._index is strategy._index
    assert view._skeletons is strategy._skeletons
    assert view._classes is strategy._classes
    assert view._pairs is strategy._pairs


def test_exact_sees_distinct_boundary_texts(seed0):
    """The one ``exact`` call gets row numbers, each once, and only rows
    of classes at or above the k-th key (within rounding)."""
    for cls in STRATEGIES:
        strategy = _strategy(cls, seed0.train, seed0.dev)
        row_of = strategy._index.row_of
        rescored = boundary_members = 0
        for example in seed0.dev.examples:
            predicted = example.query if cls is DailSelection else None
            ranked = strategy.rank(example.question, example.db_id, predicted)
            gate, scores = _exact(strategy, example.question, example.db_id,
                                  predicted)
            for k in (1, 5):
                kth = ranked[k - 1]
                near = (gate & ~gate[kth]) | (
                    (gate == gate[kth]) & (scores >= scores[kth] - 2e-9))
                with watched() as sizes:
                    strategy.top_k(example.question, example.db_id, k, predicted)
                assert sizes[0] <= len(set(row_of[near].tolist()))
                rescored += sizes[0]
                boundary_members += int(near.sum())
        # Duplicate masked texts at the boundary are scored once, not per
        # copy; QTS_S's raw questions have no duplicates.
        if cls is not QuestionSimilaritySelection:
            assert rescored < boundary_members, cls


def _straddling_pool(train):
    """``train`` plus copies of one candidate that keep its question but
    take either its own gold SQL or one whose skeleton fails the DAIL gate
    against it; the copies sit in the middle of the pool."""
    original = train.examples[0]
    other = next(
        e.query for e in train
        if skeleton_similarity(original.query, e.query) < 0.2
    )
    copies = [
        replace(original, example_id=f"{original.example_id}-copy{j}",
                query=original.query if j % 2 else other)
        for j in range(8)
    ]
    middle = len(train) // 2
    pool = SpiderDataset(
        train.examples[:middle] + copies + train.examples[middle:],
        list(train.schemas.values()), name="straddle",
    )
    return pool, original


def test_text_class_straddles_gate_and_kth(seed0):
    """Copies share one masked question (one text class) but split over
    two skeletons, one gated and one not; the gated pair class is cut by
    the k-th place for some k."""
    pool, original = _straddling_pool(seed0.train)
    strategy = _strategy(DailSelection, pool, seed0.dev)
    row_of = strategy._index.row_of
    copies = np.flatnonzero(row_of == row_of[len(seed0.train) // 2])
    gate, _ = _exact(strategy, original.question, original.db_id, original.query)
    assert gate[copies].any() and not gate[copies].all()

    ks = range(1, 16)
    ranked = check(strategy, original.question, original.db_id,
                   original.query, ks)
    pair_of = list(zip(row_of.tolist(), strategy._skeletons.column_of.tolist()))
    cut = [
        k for k in ks
        if pair_of[ranked[k - 1]] == pair_of[ranked[k]]
        and row_of[ranked[k - 1]] == row_of[copies[0]]
    ]
    assert cut
    # MQS_S sees the copies as one class of equal keys.
    masked = _strategy(MaskedQuestionSimilaritySelection, pool, seed0.dev)
    check(masked, original.question, original.db_id, None, ks)


def test_tied_classes_interleave(seed0):
    """Two pair classes of one text whose skeletons score exactly alike
    against the preliminary SQL: their members tie and interleave, so the
    top k follows pool index across the classes, not class order."""
    train = seed0.train
    original = train.examples[0]
    predicted = "SELECT name FROM singer WHERE age > 20"
    tied = ("SELECT name FROM singer WHERE age < 20",
            "SELECT name FROM singer WHERE age >= 20")
    assert skeleton_similarity(predicted, tied[0]) == \
        skeleton_similarity(predicted, tied[1])
    copies = [
        replace(original, example_id=f"{original.example_id}-tie{j}",
                query=tied[j % 2])
        for j in range(8)
    ]
    middle = len(train) // 2
    pool = SpiderDataset(
        train.examples[:middle] + copies + train.examples[middle:],
        list(train.schemas.values()), name="tied",
    )
    strategy = _strategy(DailSelection, pool, seed0.dev)
    ranked = check(strategy, original.question, original.db_id, predicted,
                   ks=range(1, 30))
    placed = [i for i in ranked[:30] if middle <= i < middle + len(copies)]
    assert placed == list(range(middle, middle + len(copies)))
    columns = strategy._skeletons.column_of[placed].tolist()
    assert columns[0] != columns[1] and columns[:2] * 4 == columns
