"""TF-IDF embedding tests."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embed.tfidf import (
    TfidfEmbedder,
    TfidfIndex,
    _features,
    cosine,
    hash_feature,
    top_k,
)

CORPUS = [
    "How many singers are there?",
    "How many concerts are there?",
    "List the name of all singers.",
    "What is the average age of singers?",
    "Show the capacity of each stadium.",
    "Which stadium has the most concerts?",
]


@pytest.fixture()
def embedder():
    return TfidfEmbedder().fit(CORPUS)


class TestEmbedding:
    def test_normalised(self, embedder):
        vector = embedder.transform("How many singers are there?")
        norm = sum(w * w for w in vector.values()) ** 0.5
        assert norm == pytest.approx(1.0)

    def test_self_similarity_one(self, embedder):
        vector = embedder.transform(CORPUS[0])
        assert cosine(vector, vector) == pytest.approx(1.0)

    def test_similar_questions_closer(self, embedder):
        target = embedder.transform("How many singers are there?")
        close = embedder.transform("How many concerts are there?")
        far = embedder.transform("Show the capacity of each stadium.")
        assert cosine(target, close) > cosine(target, far)

    def test_unseen_words_handled(self, embedder):
        vector = embedder.transform("completely novel zebra question")
        assert vector  # non-empty, hashed onto extension indices

    def test_empty_text(self, embedder):
        assert embedder.transform("") == {}

    def test_fit_transform(self):
        embedder = TfidfEmbedder()
        vectors = embedder.fit_transform(CORPUS)
        assert len(vectors) == len(CORPUS)
        assert embedder.fitted


class TestTopK:
    def test_ranks_by_similarity(self, embedder):
        vectors = [embedder.transform(t) for t in CORPUS]
        query = embedder.transform("How many singers are there?")
        order = top_k(query, vectors, 3)
        assert order[0] == 0  # itself first

    def test_k_larger_than_pool(self, embedder):
        vectors = [embedder.transform(t) for t in CORPUS[:2]]
        query = embedder.transform(CORPUS[0])
        assert len(top_k(query, vectors, 10)) == 2

    def test_deterministic_ties(self, embedder):
        vectors = [embedder.transform("x"), embedder.transform("x")]
        query = embedder.transform("y")
        assert top_k(query, vectors, 2) == top_k(query, vectors, 2)


class TestHashFeature:
    def test_stable(self):
        assert hash_feature("abc") == hash_feature("abc")

    def test_nonnegative(self):
        for text in ("", "a", "xyz", "ünïcode"):
            assert hash_feature(text) >= 0

    @given(st.text(max_size=20))
    @settings(deadline=None)
    def test_in_32bit_range(self, text):
        assert 0 <= hash_feature(text) < 2 ** 32


@given(st.text(max_size=40), st.text(max_size=40))
@settings(deadline=None, max_examples=60)
def test_cosine_bounded(a, b):
    embedder = TfidfEmbedder().fit(CORPUS)
    score = cosine(embedder.transform(a), embedder.transform(b))
    assert -1e-9 <= score <= 1.0 + 1e-9


def _fit_two_passes(texts):
    """An embedder fitted the two-pass way: document frequencies from a
    feature pass over every text, each vector from a second pass."""
    doc_freq = Counter()
    for text in texts:
        doc_freq.update(set(_features(text)))
    embedder = TfidfEmbedder()
    n_docs = max(len(texts), 1)
    embedder._idf = {
        feat: math.log((1 + n_docs) / (1 + df)) + 1.0
        for feat, df in doc_freq.items()
    }
    embedder._index = {feat: i for i, feat in enumerate(sorted(embedder._idf))}
    if embedder._idf:
        values = sorted(embedder._idf.values())
        embedder._default_idf = values[len(values) // 2]
    return embedder, [embedder.transform(text) for text in texts]


class TestOnePassFit:
    """``fit_transform`` and :class:`TfidfIndex` count each distinct
    text's features once; the vocabulary, IDF weights and vectors are
    exactly those of a feature pass to fit and another to embed, over
    every text, copies included."""

    @given(st.lists(st.text(alphabet="ab c?'", max_size=12), max_size=8))
    @settings(deadline=None, max_examples=150)
    def test_fit_transform_equals_two_passes(self, texts):
        embedder = TfidfEmbedder()
        vectors = embedder.fit_transform(texts)
        reference, expected = _fit_two_passes(texts)
        assert embedder._idf == reference._idf
        assert embedder._index == reference._index
        assert embedder._default_idf == reference._default_idf
        # Same entries, same order, same float bits.
        assert [list(v.items()) for v in vectors] == \
            [list(v.items()) for v in expected]
        assert [embedder.transform(text) for text in texts] == expected

    def test_index_holds_the_two_pass_vectors(self):
        texts = CORPUS + ["", "How many singers singers are there there?",
                          CORPUS[0], ""]
        _, expected = _fit_two_passes(texts)
        index = TfidfIndex(texts)
        # One row per distinct text, numbered in order of first appearance.
        assert index.n_rows == len(set(texts)) == len(texts) - 2
        assert index.row_of.tolist()[-2:] == [0, len(CORPUS)]
        for text, vector in enumerate(expected):
            row = index.row_of[text]
            start = index._row_starts[row]
            where = slice(start, start + index._lengths[row])
            assert index._features[where].tolist() == list(vector)
            assert index._weights[where].tolist() == list(vector.values())


def _transform_loop(embedder, text):
    """``transform`` by its definition, one feature at a time."""
    counts = Counter(_features(text))
    vector = {}
    base = len(embedder._index)
    for feat, count in counts.items():
        idf = embedder._idf.get(feat, embedder._default_idf)
        index = embedder._index.get(feat)
        if index is None:
            index = base + (hash_feature(feat) % 4096)
        vector[index] = vector.get(index, 0.0) + (1 + math.log(count)) * idf
    norm = math.sqrt(sum(w * w for w in vector.values()))
    if norm > 0:
        vector = {i: w / norm for i, w in vector.items()}
    return vector


class TestTransformDefinition:
    """``transform`` builds its vector with array operations; entries,
    their order and their float bits equal the per-feature loop."""

    @given(st.lists(st.text(alphabet="ab c?'", max_size=12), max_size=6),
           st.text(alphabet="abcxyz ?'", max_size=80))
    @settings(deadline=None, max_examples=150)
    def test_equals_loop(self, texts, target):
        embedder = TfidfEmbedder().fit(texts)
        assert list(embedder.transform(target).items()) == \
            list(_transform_loop(embedder, target).items())

    def test_colliding_unknown_features_add_up(self):
        seen = {}
        for n in range(26 ** 3):
            word = "".join(chr(97 + (n // 26 ** i) % 26) for i in range(3)) + "q"
            other = seen.setdefault(hash_feature(word) % 4096, word)
            if other != word:
                break
        text = f"{other} {word}"
        embedder = TfidfEmbedder().fit(CORPUS)
        vector = embedder.transform(text)
        assert list(vector.items()) == list(_transform_loop(embedder, text).items())
        assert len(vector) < len(set(_features(text)))


class TestIndexScores:
    """``TfidfIndex`` row-major scores are within rounding of the cosine,
    and ``exact`` equals it bit for bit, for any candidates in any order:
    shorter and longer than the target, with unknown target features."""

    @given(st.lists(st.text(alphabet="abcd efg?'", max_size=30), max_size=8),
           st.text(alphabet="abcdxyz ?'", max_size=40),
           st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=200)
    def test_exact_equals_cosine(self, texts, target, rng):
        index = TfidfIndex(texts)
        embedder = TfidfEmbedder()
        vectors = embedder.fit_transform(texts)
        query = embedder.transform(target)
        want = [cosine(query, vector) for vector in vectors]
        scores = index.posting_scores(target)
        values = scores.values[index.row_of].tolist()
        assert all(abs(v - w) <= 1e-12 for v, w in zip(values, want))
        assert index.scores(target).tolist() == want
        picked = [rng.randrange(len(texts)) for _ in range(len(texts))]
        assert scores.exact(index.row_of[picked]).tolist() == \
            [want[i] for i in picked]
