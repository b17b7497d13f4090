"""The vectorised selection indexes against the scalar definitions.

``TfidfIndex`` and ``SkeletonIndex`` replace per-candidate Python loops in
the selection strategies.  The contract is bit-identical rankings, so the
tests here compare full orders with ``==`` against a reference that ranks
with ``sorted`` over :func:`cosine` and :func:`skeleton_similarity`.
"""

import sys
import threading

import pytest

from repro.dataset.spider import SpiderDataset
from repro.embed.tfidf import TfidfEmbedder, TfidfIndex, cosine
from repro.selection.strategies import (
    SELECTION_IDS,
    DailSelection,
    MaskedQuestionSimilaritySelection,
    QuestionSimilaritySelection,
    get_selection,
)
from repro.sql.skeleton import SkeletonIndex, skeleton_similarity

UNPARSEABLE = "SELEC name FRM singer WHERE ((("


class ScalarReference:
    """The selection rankings as defined before the indexes: one dict
    vector per candidate, one ``cosine``/``skeleton_similarity`` call per
    candidate, ``sorted`` with the strategies' keys."""

    def __init__(self, strategy, texts):
        self.strategy = strategy
        self.embedder = TfidfEmbedder()
        self.vectors = self.embedder.fit_transform(texts)

    def question_scores(self, question, db_id):
        if isinstance(self.strategy, MaskedQuestionSimilaritySelection):
            question = self.strategy.mask_target(question, db_id)
        target = self.embedder.transform(question)
        return [cosine(target, vector) for vector in self.vectors]

    def rank(self, question, db_id, predicted_sql=None):
        scores = self.question_scores(question, db_id)
        indices = range(len(scores))
        if predicted_sql is None or not isinstance(self.strategy, DailSelection):
            return sorted(indices, key=lambda i: (-scores[i], i))
        skeleton = [
            skeleton_similarity(predicted_sql, c.query)
            for c in self.strategy.candidates
        ]
        threshold = self.strategy.skeleton_threshold
        return sorted(
            indices,
            key=lambda i: (
                not skeleton[i] >= threshold,
                -(0.5 * scores[i] + 0.5 * skeleton[i]),
                i,
            ),
        )


def _strategy(cls, corpus, **kwargs):
    strategy = cls(corpus.train, **kwargs)
    if isinstance(strategy, MaskedQuestionSimilaritySelection):
        strategy.set_target_dataset(corpus.dev)
    return strategy


def _reference(strategy):
    candidates = strategy.candidates
    if isinstance(strategy, MaskedQuestionSimilaritySelection):
        texts = [candidates.masked_question(e) for e in candidates]
    else:
        texts = [e.question for e in candidates]
    return ScalarReference(strategy, texts)


def _predictions(corpus):
    """(label, function of the dev position → preliminary SQL)."""
    dev = corpus.dev.examples
    return [
        ("none", lambda i: None),
        ("gold", lambda i: dev[i].query),
        ("other", lambda i: dev[(i + 1) % len(dev)].query),
        ("unparseable", lambda i: UNPARSEABLE),
    ]


class TestRankingParity:
    @pytest.mark.parametrize(
        "cls", [QuestionSimilaritySelection, MaskedQuestionSimilaritySelection]
    )
    def test_question_similarity(self, corpus, cls):
        strategy = _strategy(cls, corpus)
        reference = _reference(strategy)
        for example in corpus.dev:
            assert strategy.rank(example.question, example.db_id) == \
                reference.rank(example.question, example.db_id)

    @pytest.mark.parametrize("threshold", [None, 0.0, 0.9])
    def test_dail(self, corpus, threshold):
        kwargs = {} if threshold is None else {"skeleton_threshold": threshold}
        strategy = _strategy(DailSelection, corpus, **kwargs)
        reference = _reference(strategy)
        for label, predict in _predictions(corpus):
            for i, example in enumerate(corpus.dev):
                predicted = predict(i)
                got = strategy.rank(example.question, example.db_id, predicted)
                want = reference.rank(example.question, example.db_id, predicted)
                assert got == want, (label, example.example_id)


class TestSkeletonIndex:
    POOL = [
        "",
        UNPARSEABLE,
        "SELECT name FROM singer",
        "SELECT name FROM singer WHERE age > 20 ORDER BY age DESC LIMIT 3",
        "SELECT count(*) FROM concert GROUP BY stadium_id HAVING count(*) > 1",
        "SELECT name FROM singer",
    ]

    @pytest.mark.parametrize("sql", ["", UNPARSEABLE, *POOL[2:5],
                                     "SELECT a FROM b EXCEPT SELECT a FROM c"])
    def test_equals_scalar(self, sql):
        index = SkeletonIndex(self.POOL)
        assert index.similarities(sql).tolist() == \
            [skeleton_similarity(sql, c) for c in self.POOL]

    def test_empty_sets(self):
        index = SkeletonIndex(self.POOL)
        scores = index.similarities("").tolist()
        assert scores[0] == 1.0          # both feature sets empty on both sides
        assert scores[2] == 0.0          # one side empty

    def test_corpus_pool(self, corpus):
        pool = [e.query for e in corpus.train]
        index = SkeletonIndex(pool)
        for example in corpus.dev:
            assert index.similarities(example.query).tolist() == \
                [skeleton_similarity(example.query, c) for c in pool]

    def test_empty_pool(self):
        assert SkeletonIndex([]).similarities("SELECT a FROM b").tolist() == []


class TestTfidfIndex:
    TEXTS = [
        "How many singers are there?",
        "How many concerts are there?",
        "List the name of all singers.",
        "What is the average age of singers?",
        "Show the capacity of each stadium.",
        "",
    ]

    @pytest.mark.parametrize("target", [
        "How many singers are there?",
        "Zygote quokka xylophone?",              # out-of-vocabulary n-grams
        "How many quokkas live in each stadium?",  # a mix of both
        "",
    ])
    def test_equals_cosine(self, target):
        index = TfidfIndex(self.TEXTS)
        embedder = TfidfEmbedder()
        vectors = embedder.fit_transform(self.TEXTS)
        want = [cosine(embedder.transform(target), v) for v in vectors]
        got = index.scores(target).tolist()
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12
        assert got == want  # the summation order is reproduced exactly

    def test_corpus_pool(self, corpus):
        texts = [e.question for e in corpus.train]
        index = TfidfIndex(texts)
        embedder = TfidfEmbedder()
        vectors = embedder.fit_transform(texts)
        for example in corpus.dev:
            target = embedder.transform(example.question)
            assert index.scores(example.question).tolist() == \
                [cosine(target, v) for v in vectors]

    def test_empty_pool(self):
        assert TfidfIndex([]).scores("How many singers?").tolist() == []


@pytest.mark.parametrize("sel_id", SELECTION_IDS)
def test_empty_candidate_pool(corpus, sel_id):
    empty = SpiderDataset([], list(corpus.train.schemas.values()), name="empty")
    strategy = get_selection(sel_id, empty)
    target = corpus.dev.examples[0]
    assert strategy.rank(target.question, target.db_id, target.query) == []
    assert strategy.select(target.question, target.db_id, 5, target.query) == []


def test_shared_strategy_across_threads(corpus):
    strategy = _strategy(DailSelection, corpus)
    work = [(e.question, e.db_id, e.query) for e in corpus.dev]
    serial = [strategy.rank(*args) for args in work]
    results = [None] * 4
    barrier = threading.Barrier(len(results))

    def worker(slot):
        barrier.wait()
        results[slot] = [strategy.rank(*args) for args in work]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial] * 4
