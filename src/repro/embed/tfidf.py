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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..utils.arrays import ranges
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
        #: :meth:`_idf_table`, built on first use after a fit.
        self._table: Optional[np.ndarray] = None
        self._fitted = False

    def fit(self, texts: Sequence[str]) -> "TfidfEmbedder":
        """Learn vocabulary and IDF weights from ``texts``."""
        self._fit_rows(texts)
        return self

    def _fit_rows(
        self, texts: Sequence[str]
    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """Fit on ``texts``; return one vector per distinct text, in order
        of first appearance, as (vocabulary indices, weights) arrays equal
        to :meth:`transform` of the text entry for entry and in its order,
        and each text's row number among them.

        Each distinct text's features are counted once, numbered in order
        of first appearance; a feature's document frequency adds the
        number of copies of every text holding it, so the IDF weights are
        those of a fit that counts every text.  Vocabulary indices and
        weights follow once every text is counted.  Logs and the norm's
        sum are taken in Python exactly as :meth:`transform` takes them,
        so the weights are bit-identical.
        """
        row_of_text: Dict[str, int] = {}
        row_of = np.fromiter(
            (row_of_text.setdefault(text, len(row_of_text)) for text in texts),
            np.intp, len(texts),
        )
        ids: Dict[str, int] = {}
        rows: List[Tuple[np.ndarray, np.ndarray]] = []
        for text in row_of_text:
            counts = Counter(_features(text))
            rows.append((
                np.array([ids.setdefault(f, len(ids)) for f in counts], np.intp),
                np.fromiter(counts.values(), np.intp, len(counts)),
            ))
        n_docs = max(len(texts), 1)
        copies = np.bincount(row_of, minlength=len(rows))
        # Whole-number float sums, far below 2**53: exact.
        doc_freq = np.bincount(
            np.concatenate([np.empty(0, np.intp), *(row for row, _ in rows)]),
            weights=np.repeat(copies, [len(row) for row, _ in rows]),
            minlength=len(ids),
        ).astype(np.intp)
        features = list(ids)
        idf = [math.log((1 + n_docs) / (1 + df)) + 1.0 for df in doc_freq.tolist()]
        self._idf = dict(zip(features, idf))
        order = sorted(range(len(features)), key=features.__getitem__)
        self._index = {features[fid]: i for i, fid in enumerate(order)}
        to_index = np.empty(len(features), np.intp)
        to_index[order] = np.arange(len(order))
        if idf:
            self._default_idf = sorted(idf)[len(idf) // 2]
        self._table = None
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
        return rows, row_of

    def transform(self, text: str) -> Vector:
        """Embed one text. Unknown features hash onto extended indices."""
        indices, weights = self._embed(text)
        return dict(zip(indices.tolist(), weights.tolist()))

    def _embed(self, text: str) -> Tuple[np.ndarray, np.ndarray]:
        """One text's vector as (indices, weights) arrays, in order of each
        index's first appearance.

        A feature weighs ``(1 + log(count)) * idf``, the log taken in
        Python, its index and IDF from one vocabulary lookup.  An unknown
        feature hashes past the vocabulary with the default IDF, and
        features whose hashes collide add up in order of appearance.  The
        norm's sum is taken in Python in entry order.
        """
        counts = Counter(_features(text))
        found = [self._index.get(feat, -1) for feat in counts]
        indices = np.array(found, np.intp)
        weights = np.array([1 + math.log(count) for count in counts.values()])
        weights *= self._idf_table()[indices]
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

    def _idf_table(self) -> np.ndarray:
        """Each vocabulary index's IDF, then the default IDF (at -1)."""
        if self._table is None:
            table = np.full(len(self._index) + 1, self._default_idf)
            table[list(self._index.values())] = [self._idf[f] for f in self._index]
            self._table = table
        return self._table

    def fit_transform(self, texts: Sequence[str]) -> List[Vector]:
        rows, row_of = self._fit_rows(texts)
        return [
            dict(zip(rows[row][0].tolist(), rows[row][1].tolist()))
            for row in row_of.tolist()
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
    """An embedder fitted on a candidate pool, plus the vector of every
    distinct candidate text as read-only numpy arrays, so one target is
    scored against the whole pool in a few array operations.

    The IDF weights are fitted on every candidate text, copies included,
    but each distinct text is stored once, as one *row*; ``row_of[i]`` is
    candidate ``i``'s row, and rows are numbered in order of first
    appearance.  A pool without duplicate texts has one row per
    candidate.  The rows' nonzeros are stored row-major (CSR-style):
    ``features``/``weights`` hold row ``r``'s nonzeros in its own feature
    order at ``row_starts[r]`` for ``lengths[r]`` entries.

    :meth:`posting_scores` gathers the target's weight at every nonzero
    and sums each row with ``np.add.reduceat``, which adds pairwise, so a
    row's score is within rounding of the cosine.
    :meth:`PostingScores.exact` re-sums rows in :func:`cosine`'s order,
    over the shorter vector: the row's feature order when it is shorter
    than the target, the target's otherwise.  Every weight is positive,
    so only shared features change a sum, and products are ``target
    weight * row weight`` either way, which is exact to swap.
    :meth:`scores` re-sums every row and gathers them per candidate, so
    it equals :func:`cosine` bit for bit; the selection strategies
    re-sum only the few rows that can decide their top k.
    """

    def __init__(self, texts: Sequence[str]):
        self._embedder = TfidfEmbedder()
        rows, self.row_of = self._embedder._fit_rows(texts)
        self._vocab = len(self._embedder._index)
        self._lengths = np.fromiter(
            (len(row) for row, _ in rows), np.intp, len(rows)
        )
        self._row_starts = np.cumsum(self._lengths) - self._lengths
        self._features = np.concatenate([np.empty(0, np.intp), *(f for f, _ in rows)])
        self._weights = np.concatenate([np.empty(0, np.float64), *(w for _, w in rows)])
        # reduceat would give an empty row the next row's first product.
        self._filled = np.flatnonzero(self._lengths)

    def __len__(self) -> int:
        return len(self.row_of)

    @property
    def n_rows(self) -> int:
        """The number of distinct candidate texts."""
        return len(self._lengths)

    def scores(self, text: str) -> np.ndarray:
        """Cosine of ``text`` against every candidate, in pool order."""
        return self._target(text).exact(np.arange(self.n_rows))[self.row_of]

    def posting_scores(self, text: str) -> "PostingScores":
        """``text`` scored row-major against every row."""
        target = self._target(text)
        dense = np.zeros(self._vocab)
        dense[target._features] = target._weights
        products = dense[self._features]
        products *= self._weights
        target.values = np.zeros(self.n_rows)
        if len(self._filled):
            target.values[self._filled] = np.add.reduceat(
                products, self._row_starts[self._filled]
            )
        return target

    def _target(self, text: str) -> "PostingScores":
        """``text`` embedded against this pool, with no row scored yet."""
        features, weights = self._embedder._embed(text)
        # Out-of-vocabulary features hash past the vocabulary and match no
        # row; they count only towards the target's norm and length.
        known = features < self._vocab
        return PostingScores(self, features[known], weights[known], len(features))


class PostingScores:
    """One target's row-major scores against the rows of a
    :class:`TfidfIndex` (``values``, in row order), and the exact cosine
    of any rows on demand."""

    __slots__ = ("values", "_index", "_features", "_weights", "_length")

    def __init__(self, index: TfidfIndex, features: np.ndarray,
                 weights: np.ndarray, length: int):
        self.values: Optional[np.ndarray] = None
        self._index = index
        #: Known target features and weights, in order; unknown ones
        #: count only in ``_length``.
        self._features = features
        self._weights = weights
        self._length = length

    def exact(self, rows: np.ndarray) -> np.ndarray:
        """:func:`cosine` of the target against each of ``rows`` (row
        numbers), bit for bit: each row's products are laid out down one
        column in :func:`cosine`'s order and added left to right by
        ``np.add.accumulate``."""
        index = self._index
        counts = index._lengths[rows]
        starts = index._row_starts[rows]
        entries = ranges(starts, counts)
        # A feature's place in the target; one the target lacks goes
        # after the last (its product is 0, so its place is immaterial).
        place = np.full(index._vocab, len(self._features))
        place[self._features] = np.arange(len(self._features))
        at = place[index._features[entries]]
        products = np.append(self._weights, 0.0)[at] * index._weights[entries]
        # The step of each product in its sum: its offset in the row for
        # a row shorter than the target, its place otherwise.
        step = np.where(np.repeat(counts < self._length, counts),
                        entries - np.repeat(starts, counts), at)
        columns = np.zeros((self._length + 1, len(rows)))
        columns[step, np.repeat(np.arange(len(rows)), counts)] = products
        return np.add.accumulate(columns)[-1]


def top_k(query: Vector, candidates: Sequence[Vector], k: int) -> List[int]:
    """Indices of the ``k`` candidates most similar to ``query`` (desc)."""
    scores = np.array([cosine(query, cand) for cand in candidates])
    order = np.argsort(-scores, kind="stable")
    return [int(i) for i in order[:k]]
