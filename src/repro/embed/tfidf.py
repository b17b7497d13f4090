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
        indices, weights = self._embed(text)
        return dict(zip(indices.tolist(), weights.tolist()))

    def _embed(self, text: str) -> Tuple[np.ndarray, np.ndarray]:
        """One text's vector as (indices, weights) arrays, in order of each
        index's first appearance.

        A feature weighs ``(1 + log(count)) * idf``, the log taken in
        Python.  An unknown feature hashes past the vocabulary with the
        default IDF, and features whose hashes collide add up in order of
        appearance.  The norm's sum is taken in Python in entry order.
        """
        counts = Counter(_features(text))
        weights = np.array([1 + math.log(count) for count in counts.values()])
        weights *= [self._idf.get(feat, self._default_idf) for feat in counts]
        found = [self._index.get(feat, -1) for feat in counts]
        indices = np.array(found, np.intp)
        if -1 in found:
            vector: Vector = {}
            base = len(self._index)
            for feat, index, weight in zip(counts, found, weights.tolist()):
                if index < 0:
                    index = base + (hash_feature(feat) % 4096)
                vector[index] = vector.get(index, 0.0) + weight
            indices = np.fromiter(vector, np.intp, len(vector))
            weights = np.fromiter(vector.values(), np.float64, len(vector))
        norm = math.sqrt(sum((weights * weights).tolist()))
        if norm > 0:
            weights = weights / norm
        return indices, weights

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
    ``features``/``weights`` hold every candidate's nonzeros in that
    vector's own feature order, candidate ``i`` at ``row_starts[i]`` for
    ``lengths[i]`` entries.  Feature-major (an inverted index),
    ``posting_rows``/``posting_weights`` hold them feature by feature, the
    entries of vocabulary feature ``f`` at ``ptr[f]:ptr[f + 1]``, naming
    candidates by pool index.  No per-candidate dicts are kept.

    :meth:`posting_scores` scores every candidate in one pass over the
    target's postings.  Every weight is positive, so only shared features
    change a sum, and ``np.bincount`` adds its weights in array order: a
    posting-order score sums the products in the target's feature order.
    :func:`cosine` sums over the shorter of its two vectors in that
    vector's order, so the posting-order score *is* the cosine for every
    candidate at least as long as the target.  For a shorter candidate it
    may differ from the cosine in the last bits, and
    :meth:`PostingScores.exact` re-sums such candidates row by row, in the
    candidate's own feature order.  Products are ``candidate weight *
    target weight`` either way, which is exact to swap.  :meth:`scores`
    re-sums every shorter candidate and so equals :func:`cosine` bit for
    bit; the selection strategies re-sum only the few that can decide
    their top k.
    """

    def __init__(self, texts: Sequence[str]):
        self._embedder = TfidfEmbedder()
        rows = self._embedder._fit_rows(texts)
        self._vocab = len(self._embedder._index)
        self._lengths = np.fromiter(
            (len(row) for row, _ in rows), np.intp, len(rows)
        )
        self._row_starts = np.cumsum(self._lengths) - self._lengths
        self._features = np.concatenate([np.empty(0, np.intp), *(f for f, _ in rows)])
        self._weights = np.concatenate([np.empty(0, np.float64), *(w for _, w in rows)])
        postings = np.argsort(self._features, kind="stable")
        self._posting_rows = np.repeat(np.arange(len(rows)), self._lengths)[postings]
        self._posting_weights = self._weights[postings]
        self._ptr = np.zeros(self._vocab + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(self._features, minlength=self._vocab), out=self._ptr[1:]
        )

    def __len__(self) -> int:
        return len(self._lengths)

    def scores(self, text: str) -> np.ndarray:
        """Cosine of ``text`` against every candidate, in pool order."""
        return self.posting_scores(text).exact(np.arange(len(self)))

    def posting_scores(self, text: str) -> "PostingScores":
        """``text`` scored against every candidate in posting order."""
        features, weights = self._embedder._embed(text)
        # Out-of-vocabulary features hash past the vocabulary and match no
        # candidate; they count only towards the target's norm and length.
        known = features < self._vocab
        return PostingScores(self, features[known], weights[known], len(features))

    def _posting_sums(self, features: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Dot products of every candidate, summed in the order of
        ``features``: their postings, one feature after another."""
        starts = self._ptr[features]
        counts = self._ptr[features + 1] - starts
        postings = _ranges(starts, counts)
        products = np.repeat(weights, counts)
        products *= self._posting_weights[postings]
        return np.bincount(
            self._posting_rows[postings], products, minlength=len(self)
        )

    def _row_sums(
        self, features: np.ndarray, weights: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Dot products of ``candidates``, each summed in the candidate's
        own feature order."""
        dense = np.zeros(self._vocab)
        dense[features] = weights
        counts = self._lengths[candidates]
        entries = _ranges(self._row_starts[candidates], counts)
        products = dense[self._features[entries]]
        products *= self._weights[entries]
        return np.bincount(
            np.repeat(np.arange(len(candidates)), counts), products,
            minlength=len(candidates),
        )


class PostingScores:
    """One target's posting-order scores against a :class:`TfidfIndex`
    pool (``values``, in pool order), and the exact cosine of any
    candidates on demand."""

    __slots__ = ("values", "_index", "_features", "_weights", "_length")

    def __init__(self, index: TfidfIndex, features: np.ndarray,
                 weights: np.ndarray, length: int):
        self.values = index._posting_sums(features, weights)
        self._index = index
        self._features = features
        self._weights = weights
        self._length = length

    def exact(self, candidates: np.ndarray) -> np.ndarray:
        """:func:`cosine` of the target against each of ``candidates``
        (pool indices), bit for bit: the posting-order score where it is
        exact, and a row-major re-sum for candidates shorter than the
        target."""
        scores = self.values[candidates]
        shorter = self._index._lengths[candidates] < self._length
        if shorter.any():
            scores[shorter] = self._index._row_sums(
                self._features, self._weights, candidates[shorter]
            )
        return scores


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i]:starts[i] + counts[i]`` for every ``i``, concatenated."""
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(len(out))
    return out


def top_k(query: Vector, candidates: Sequence[Vector], k: int) -> List[int]:
    """Indices of the ``k`` candidates most similar to ``query`` (desc)."""
    scores = np.array([cosine(query, cand) for cand in candidates])
    order = np.argsort(-scores, kind="stable")
    return [int(i) for i in order[:k]]
