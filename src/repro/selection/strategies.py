"""Example selection strategies (paper Section 3.2 / Table 3).

Given a target question, pick ``k`` in-context examples from a cross-domain
candidate pool:

* ``RD_S`` — Random: seeded uniform sample (the baseline).
* ``QTS_S`` — Question Similarity: nearest neighbours of the *raw*
  question in embedding space.
* ``MQS_S`` — Masked Question Similarity: nearest neighbours after
  domain-specific words are masked out, so matching is on intent.
* ``DAIL_S`` — DAIL Selection: masked-question similarity *and* skeleton
  similarity between each candidate's gold SQL and a preliminary predicted
  SQL for the target — the paper's verified hypothesis that LLMs learn the
  question→SQL-skeleton mapping.

All strategies return examples in **prompt order** (least similar first,
most similar adjacent to the target question).
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..dataset.spider import Example, SpiderDataset
from ..embed.tfidf import PostingScores, TfidfIndex
from ..errors import PromptError
from ..prompt.organization import ExampleBlock
from ..sql.skeleton import SkeletonIndex
from ..utils.arrays import ranges
from ..utils.rng import rng_from

#: Canonical selection ids in paper order.
SELECTION_IDS = ("RD_S", "QTS_S", "MQS_S", "DAIL_S")

#: Skeleton-similarity threshold for DAIL_S's structural pre-filter.
DAIL_SKELETON_THRESHOLD = 0.35

#: How far a row-major score may sit below the k-th best and still be
#: re-scored exactly.  It differs from the exact score only by the order
#: its products (at most 1 each, a few hundred at most) are added in, well
#: under 1e-12, so the bound is far wider than any gap it covers.
_RESCORE_TOLERANCE = 1e-9

#: Subtracted from a gate-failed DAIL_S key, placing it below every gated
#: key: combined scores lie in [0, 1].
_GATE_DROP = 2.0


class SelectionStrategy:
    """Base class; subclasses implement :meth:`rank`."""

    id: str = ""
    name: str = ""

    #: The :meth:`fingerprint`, once computed; anything that changes the
    #: rankings after construction resets it.
    _fingerprint: Optional[str] = None

    def __init__(self, candidates: SpiderDataset, seed: int = 0):
        self.candidates = candidates
        self.seed = seed

    def rank(
        self,
        question: str,
        db_id: str,
        predicted_sql: Optional[str] = None,
    ) -> List[int]:
        """Candidate indices, best match first."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Stable digest of everything that determines this strategy's
        rankings: id, seed, candidate-pool content, plus any subclass
        parameters (:meth:`_fingerprint_extra`).  Selection artifacts in
        the cache are keyed by it, so rankings are shared across grid
        configs — and across processes — exactly when the strategy and
        pool are identical.  Computed once per strategy.
        """
        if self._fingerprint is None:
            from ..cache.keys import stable_digest

            self._fingerprint = stable_digest(
                "selection",
                self.id,
                self.seed,
                self.candidates.fingerprint(),
                list(self._fingerprint_extra()),
            )
        return self._fingerprint

    def _fingerprint_extra(self) -> Sequence[object]:
        """Subclass hook: extra parameters that change rankings."""
        return ()

    def select(
        self,
        question: str,
        db_id: str,
        k: int,
        predicted_sql: Optional[str] = None,
    ) -> List[ExampleBlock]:
        """Top-``k`` examples in prompt order (most similar last)."""
        if k <= 0:
            return []
        order = self.top_k(question, db_id, k, predicted_sql)
        blocks = []
        for index in reversed(order):
            example = self.candidates[index]
            blocks.append(
                ExampleBlock(
                    question=example.question,
                    sql=example.query,
                    schema=self.candidates.schema(example.db_id),
                )
            )
        return blocks

    def top_k(
        self,
        question: str,
        db_id: str,
        k: int,
        predicted_sql: Optional[str] = None,
    ) -> List[int]:
        """``rank(...)[:k]``; the similarity strategies find it without
        ordering the whole pool."""
        return self.rank(question, db_id, predicted_sql)[:k]


class RandomSelection(SelectionStrategy):
    """RD_S — seeded uniform sample, deterministic per target question."""

    id = "RD_S"
    name = "Random"

    def rank(self, question, db_id, predicted_sql=None) -> List[int]:
        rng = rng_from("random-selection", str(self.seed), db_id, question)
        order = list(range(len(self.candidates)))
        rng.shuffle(order)
        return order


def _order(
    scores: np.ndarray,
    gate: Optional[np.ndarray] = None,
    index: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Positions sorted by (gate failed, -score, index), best first; the
    index defaults to the position."""
    keys = (np.arange(len(scores)) if index is None else index, -scores)
    if gate is not None:
        keys += (~gate,)
    return np.lexsort(keys)


class _ClassTable:
    """The candidates of a pool grouped into classes of equal facts.

    A ranking key that is a function of a few per-candidate facts (a
    TF-IDF row, a skeleton column) is equal across every candidate of a
    class, so it is computed once per class.  ``facts[j][c]`` is fact
    ``j`` of class ``c``; the members of class ``c`` are
    ``members[starts[c]:starts[c] + sizes[c]]``, in pool order.  Built
    once with the strategy's indexes and only read afterwards.
    """

    __slots__ = ("facts", "members", "starts", "sizes")

    def __init__(self, *facts: np.ndarray):
        """Group by ``facts``: arrays holding one fact per candidate."""
        table, class_of = np.unique(np.stack(facts), axis=1, return_inverse=True)
        self.facts = tuple(table)
        self.members = np.argsort(class_of, kind="stable")
        self.sizes = np.bincount(class_of, minlength=table.shape[1])
        self.starts = np.cumsum(self.sizes) - self.sizes


def _top_k(
    keys: np.ndarray,
    k: int,
    exact: Callable[[np.ndarray], np.ndarray],
    gate: Optional[np.ndarray] = None,
    classes: Optional[_ClassTable] = None,
) -> List[int]:
    """The first ``k`` candidates of :func:`_order` over exact scores and
    ``gate``, from per-class ``keys`` that are within rounding of the
    exact scores (with gate-failed keys dropped below every gated one).
    Without ``classes`` each key is a class of one candidate, its index.

    ``exact(near)`` returns the exact scores of the classes ``near``.
    The k-th best key counts each class as many times as it has members.
    Only the classes whose key is within :data:`_RESCORE_TOLERANCE` of it
    are re-scored, and only their members are sorted: any other class's
    exact key is below those of at least k candidates, so none of its
    members can be among the first ``k``.  Members of a class are in
    pool order, so no more than the first ``k`` of each are sorted.
    """
    if k <= 0:
        return []
    if classes is None:
        classes = _ClassTable(np.arange(len(keys)))
    sizes = classes.sizes
    if k < len(classes.members):
        # The k best classes hold at least k candidates.
        best = np.arange(len(keys))
        if k < len(keys):
            best = np.argpartition(keys, len(keys) - k)[len(keys) - k:]
        best = best[np.argsort(-keys[best])]
        kth = keys[best[np.searchsorted(np.cumsum(sizes[best]), k)]]
        near = np.flatnonzero(keys >= kth - _RESCORE_TOLERANCE)
    else:
        near = np.arange(len(keys))
    scores = exact(near)
    counts = np.minimum(sizes[near], k)
    members = classes.members[ranges(classes.starts[near], counts)]
    owner = np.repeat(np.arange(len(near)), counts)
    order = _order(scores[owner], None if gate is None else gate[near][owner],
                   members)
    return members[order[:k]].tolist()


class _EmbeddingSelection(SelectionStrategy):
    """Shared machinery: index the candidates once, rank targets by cosine.

    The index is built eagerly and only read afterwards, so one strategy
    can serve many threads.
    """

    masked: bool = False

    def __init__(self, candidates: SpiderDataset, seed: int = 0):
        super().__init__(candidates, seed)
        self._index = TfidfIndex([self._candidate_text(e) for e in candidates])
        #: One class per distinct candidate text; class ``r`` is row ``r``.
        self._classes = _ClassTable(self._index.row_of)

    def _candidate_text(self, example: Example) -> str:
        if self.masked:
            return self.candidates.masked_question(example)
        return example.question

    def _target_text(self, question: str, db_id: str) -> str:
        return question

    def _similarities(self, question: str, db_id: str) -> np.ndarray:
        return self._index.scores(self._target_text(question, db_id))

    def _posting_scores(self, question: str, db_id: str) -> PostingScores:
        return self._index.posting_scores(self._target_text(question, db_id))

    def rank(self, question, db_id, predicted_sql=None) -> List[int]:
        return _order(self._similarities(question, db_id)).tolist()

    def top_k(self, question, db_id, k, predicted_sql=None) -> List[int]:
        scores = self._posting_scores(question, db_id)
        return _top_k(scores.values, k, scores.exact, classes=self._classes)


class QuestionSimilaritySelection(_EmbeddingSelection):
    """QTS_S — nearest neighbours of the raw question."""

    id = "QTS_S"
    name = "Question Similarity"
    masked = False


class MaskedQuestionSimilaritySelection(_EmbeddingSelection):
    """MQS_S — nearest neighbours after masking domain words.

    The target question is masked with *its own* database's linker, the
    candidates with theirs — mirroring the paper's cross-domain masking.
    """

    id = "MQS_S"
    name = "Masked Question Similarity"
    masked = True

    def __init__(self, candidates: SpiderDataset, seed: int = 0):
        super().__init__(candidates, seed)
        self._target_linkers: Dict[str, object] = {}
        self._target_fingerprint = ""

    def mask_target(self, question: str, db_id: str) -> str:
        linker = self._target_linkers.get(db_id)
        if linker is None:
            # The target db is usually not in the candidate pool (Spider is
            # cross-domain); build a linker from the candidate set if it is,
            # otherwise fall back to raw text.
            if db_id in self.candidates.schemas:
                linker = self.candidates.linker(db_id)
            self._target_linkers[db_id] = linker
        if linker is None:
            return question
        return linker.mask_question(question)

    def set_target_dataset(self, dataset: SpiderDataset) -> None:
        """Provide the evaluation dataset so target questions can be masked
        with their own schemas' linkers."""
        for db_id in dataset.schemas:
            self._target_linkers[db_id] = dataset.linker(db_id)
        self._target_fingerprint = dataset.fingerprint()
        self._fingerprint = None

    def for_target(
        self, dataset: SpiderDataset
    ) -> "MaskedQuestionSimilaritySelection":
        """A copy of this strategy targeting ``dataset`` alone.

        The copy shares the read-only candidate indexes and leaves this
        strategy unchanged, so copies for different targets can rank
        side by side on different threads.
        """
        view = copy.copy(self)
        view._target_linkers = {}
        view.set_target_dataset(dataset)
        return view

    def _target_text(self, question: str, db_id: str) -> str:
        return self.mask_target(question, db_id)

    def _fingerprint_extra(self) -> Sequence[object]:
        # Target masking depends on which dataset's linkers were installed.
        return (self._target_fingerprint,)


class DailSelection(MaskedQuestionSimilaritySelection):
    """DAIL_S — masked-question similarity gated by skeleton similarity.

    Candidates whose gold-SQL skeleton is similar (≥ threshold) to the
    preliminary predicted SQL are ranked ahead of the rest, each group by
    ``0.5 * question + 0.5 * skeleton`` similarity, then by pool index.
    Without a predicted SQL this degrades to MQS_S, as in the paper's
    ablation.

    :meth:`rank` orders the whole pool with exact scores.  :meth:`top_k`
    gives its first ``k`` scoring each class of candidates that share a
    masked question and a skeleton once, from row-major question scores
    (see :class:`~repro.embed.tfidf.TfidfIndex`): gate-failed keys are
    dropped below every gated one, the k-th best key is found over the
    classes weighted by size, and only the classes within rounding of it
    are re-scored exactly and their members sorted.
    """

    id = "DAIL_S"
    name = "DAIL Selection"

    def __init__(
        self,
        candidates: SpiderDataset,
        seed: int = 0,
        skeleton_threshold: float = DAIL_SKELETON_THRESHOLD,
    ):
        super().__init__(candidates, seed)
        self.skeleton_threshold = skeleton_threshold
        self._skeletons = SkeletonIndex([e.query for e in candidates])
        #: One class per distinct (text row, skeleton column) pair.
        self._pairs = _ClassTable(self._index.row_of, self._skeletons.column_of)

    def _fingerprint_extra(self) -> Sequence[object]:
        return (self._target_fingerprint, repr(self.skeleton_threshold))

    def rank(self, question, db_id, predicted_sql=None) -> List[int]:
        question_scores = self._similarities(question, db_id)
        if predicted_sql is None:
            return _order(question_scores).tolist()
        skeleton_scores = self._skeletons.similarities(predicted_sql)
        return _order(
            0.5 * question_scores + 0.5 * skeleton_scores,
            gate=skeleton_scores >= self.skeleton_threshold,
        ).tolist()

    def top_k(self, question, db_id, k, predicted_sql=None) -> List[int]:
        if predicted_sql is None:
            return super().top_k(question, db_id, k)
        question_scores = self._posting_scores(question, db_id)
        rows, columns = self._pairs.facts
        skeleton_scores = self._skeletons.column_similarities(predicted_sql)[columns]
        gate = skeleton_scores >= self.skeleton_threshold
        keys = 0.5 * question_scores.values[rows] + 0.5 * skeleton_scores
        keys[~gate] -= _GATE_DROP

        def exact(near: np.ndarray) -> np.ndarray:
            texts, text_of = np.unique(rows[near], return_inverse=True)
            return (0.5 * question_scores.exact(texts)[text_of]
                    + 0.5 * skeleton_scores[near])

        return _top_k(keys, k, exact, gate, self._pairs)


_REGISTRY = {
    cls.id: cls
    for cls in (
        RandomSelection,
        QuestionSimilaritySelection,
        MaskedQuestionSimilaritySelection,
        DailSelection,
    )
}


def get_selection(
    sel_id: str, candidates: SpiderDataset, seed: int = 0
) -> SelectionStrategy:
    """Instantiate a selection strategy by id.

    Raises:
        PromptError: for unknown ids.
    """
    try:
        cls = _REGISTRY[sel_id]
    except KeyError as exc:
        raise PromptError(
            f"unknown selection {sel_id!r}; expected one of {sorted(_REGISTRY)}"
        ) from exc
    return cls(candidates, seed=seed)
