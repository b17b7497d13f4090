"""TF-IDF text embeddings (the similarity substrate for example selection).

The paper embeds questions with a pretrained sentence encoder; offline we
substitute a deterministic TF-IDF model over word unigrams, bigrams and
character trigrams.  What selection strategies need from the embedder is
only that *similar questions land close in the vector space*, which TF-IDF
n-gram cosine preserves.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..utils.text import char_ngrams, word_tokenize

Vector = Dict[int, float]


def _features(text: str) -> List[str]:
    """Word unigrams + bigrams + char trigrams of a text."""
    words = word_tokenize(text)
    feats = list(words)
    feats.extend(f"{a}_{b}" for a, b in zip(words, words[1:]))
    feats.extend(char_ngrams(text, 3))
    return feats


class TfidfEmbedder:
    """Fit on a corpus, then embed texts as L2-normalised sparse vectors.

    Unseen features at transform time fall back to the median IDF, so
    queries from new domains still embed reasonably.
    """

    def __init__(self):
        self._idf: Dict[str, float] = {}
        self._index: Dict[str, int] = {}
        self._default_idf: float = 1.0
        self._fitted = False

    def fit(self, texts: Sequence[str]) -> "TfidfEmbedder":
        """Learn vocabulary and IDF weights from ``texts``."""
        self._fit_rows(texts)
        return self

    def _fit_rows(self, texts: Sequence[str]) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Fit on ``texts`` and return each text's vector as (vocabulary
        indices, weights) arrays, equal to :meth:`transform` of the text
        entry for entry and in its order, from one feature pass per text.

        Each text's features are counted once, numbered in order of first
        appearance; vocabulary indices and weights follow once every text
        is counted.  Logs and the norm's sum are taken in Python exactly
        as :meth:`transform` takes them, so the weights are bit-identical.
        """
        ids: Dict[str, int] = {}
        rows: List[Tuple[np.ndarray, np.ndarray]] = []
        for text in texts:
            counts = Counter(_features(text))
            rows.append((
                np.array([ids.setdefault(f, len(ids)) for f in counts], np.intp),
                np.fromiter(counts.values(), np.intp, len(counts)),
            ))
        n_docs = max(len(texts), 1)
        doc_freq = np.bincount(
            np.concatenate([np.empty(0, np.intp), *(row for row, _ in rows)]),
            minlength=len(ids),
        )
        features = list(ids)
        idf = [math.log((1 + n_docs) / (1 + df)) + 1.0 for df in doc_freq.tolist()]
        self._idf = dict(zip(features, idf))
        order = sorted(range(len(features)), key=features.__getitem__)
        self._index = {features[fid]: i for i, fid in enumerate(order)}
        to_index = np.empty(len(features), np.intp)
        to_index[order] = np.arange(len(order))
        if idf:
            self._default_idf = sorted(idf)[len(idf) // 2]
        self._fitted = True

        idf_by_id = np.array(idf)
        most = max((int(c.max()) for _, c in rows if len(c)), default=0)
        term = np.array([0.0] + [1 + math.log(c) for c in range(1, most + 1)])
        for position, (fids, counts) in enumerate(rows):
            weights = term[counts] * idf_by_id[fids]
            norm = math.sqrt(sum((weights * weights).tolist()))
            if norm > 0:
                weights /= norm
            rows[position] = (to_index[fids], weights)
        return rows

    def transform(self, text: str) -> Vector:
        """Embed one text. Unknown features hash onto extended indices."""
        counts = Counter(_features(text))
        vector: Vector = {}
        base = len(self._index)
        for feat, count in counts.items():
            idf = self._idf.get(feat, self._default_idf)
            index = self._index.get(feat)
            if index is None:
                index = base + (hash_feature(feat) % 4096)
            weight = (1 + math.log(count)) * idf
            vector[index] = vector.get(index, 0.0) + weight
        norm = math.sqrt(sum(w * w for w in vector.values()))
        if norm > 0:
            vector = {i: w / norm for i, w in vector.items()}
        return vector

    def fit_transform(self, texts: Sequence[str]) -> List[Vector]:
        return [
            dict(zip(features.tolist(), weights.tolist()))
            for features, weights in self._fit_rows(texts)
        ]

    @property
    def fitted(self) -> bool:
        return self._fitted


def hash_feature(feature: str) -> int:
    """Stable non-negative hash of a feature string."""
    value = 2166136261
    for ch in feature.encode("utf-8"):
        value = ((value ^ ch) * 16777619) & 0xFFFFFFFF
    return value


def cosine(a: Vector, b: Vector) -> float:
    """Cosine similarity of two sparse vectors (already normalised → dot).

    The products are summed left to right over the shorter vector in its
    insertion order; :class:`TfidfIndex` reproduces exactly this order.
    The loop is explicit because ``sum`` of floats is compensated from
    Python 3.12 on.
    """
    if len(a) > len(b):
        a, b = b, a
    total = 0.0
    for i, w in a.items():
        total += w * b.get(i, 0.0)
    return total


class TfidfIndex:
    """An embedder fitted on a candidate pool, plus every candidate's vector
    as read-only numpy arrays, so one target is scored against the whole
    pool in a few array operations.

    Each nonzero of the pool is stored twice.  Row-major (CSR-style),
    ``features``/``weights``/``rows`` hold every candidate's nonzeros in
    that vector's own feature order, shortest candidates first, so the
    candidates shorter than any given length are a prefix.  Feature-major
    (an inverted index), ``posting_rows``/``posting_weights`` hold them
    feature by feature, the entries of vocabulary feature ``f`` at
    ``ptr[f]:ptr[f + 1]``.  ``rows`` and ``posting_rows`` name candidates
    by pool index.  No per-candidate dicts are kept.

    :meth:`scores` equals :func:`cosine` bit for bit.  Every weight is
    positive, so only shared features change a sum, and ``np.bincount``
    adds its weights in array order.  :func:`cosine` sums over the shorter
    of its two vectors in that vector's order, so :meth:`scores` sums the
    candidates shorter than the target row by row, and the others over the
    target's postings in the target's feature order.  Products are
    ``candidate weight * target weight`` either way, which is exact to
    swap.
    """

    def __init__(self, texts: Sequence[str]):
        self._embedder = TfidfEmbedder()
        rows = self._embedder._fit_rows(texts)
        self._vocab = len(self._embedder._index)
        self._lengths = np.fromiter(
            (len(row) for row, _ in rows), np.intp, len(rows)
        )
        by_length = np.argsort(self._lengths, kind="stable")
        self._sorted_lengths = self._lengths[by_length]
        self._row_ends = np.concatenate([[0], np.cumsum(self._sorted_lengths)])
        self._features = np.concatenate(
            [np.empty(0, np.intp), *(rows[row][0] for row in by_length)]
        )
        self._weights = np.concatenate(
            [np.empty(0, np.float64), *(rows[row][1] for row in by_length)]
        )
        self._rows = np.repeat(by_length, self._sorted_lengths)
        postings = np.argsort(self._features, kind="stable")
        self._posting_rows = self._rows[postings]
        self._posting_weights = self._weights[postings]
        self._ptr = np.zeros(self._vocab + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(self._features, minlength=self._vocab), out=self._ptr[1:]
        )

    def __len__(self) -> int:
        return len(self._lengths)

    def scores(self, text: str) -> np.ndarray:
        """Cosine of ``text`` against every candidate, in pool order."""
        target = self._embedder.transform(text)
        features = np.fromiter(target, np.intp, len(target))
        weights = np.fromiter(target.values(), np.float64, len(target))
        # Out-of-vocabulary features hash past the vocabulary and match no
        # candidate; they count only towards the target's norm and length.
        known = features < self._vocab
        features, weights = features[known], weights[known]
        return np.where(
            self._lengths < len(target),
            self._row_major_sums(features, weights, len(target)),
            self._posting_sums(features, weights),
        )

    def _row_major_sums(
        self, features: np.ndarray, weights: np.ndarray, shorter_than: int
    ) -> np.ndarray:
        """Dot products of the candidates shorter than ``shorter_than``
        features, each summed in the candidate's own feature order."""
        dense = np.zeros(self._vocab)
        dense[features] = weights
        end = self._row_ends[np.searchsorted(self._sorted_lengths, shorter_than)]
        products = dense[self._features[:end]]
        products *= self._weights[:end]
        return np.bincount(self._rows[:end], products, minlength=len(self))

    def _posting_sums(self, features: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Dot products of every candidate, summed in the order of
        ``features``: their postings, one feature after another."""
        starts = self._ptr[features]
        counts = self._ptr[features + 1] - starts
        postings = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        postings += np.arange(len(postings))
        products = np.repeat(weights, counts)
        products *= self._posting_weights[postings]
        return np.bincount(
            self._posting_rows[postings], products, minlength=len(self)
        )


def top_k(query: Vector, candidates: Sequence[Vector], k: int) -> List[int]:
    """Indices of the ``k`` candidates most similar to ``query`` (desc)."""
    scores = np.array([cosine(query, cand) for cand in candidates])
    order = np.argsort(-scores, kind="stable")
    return [int(i) for i in order[:k]]
