"""SQL skeleton extraction.

The DAIL selection strategy ranks candidate examples by the similarity of
their *SQL skeletons* — the query with all schema identifiers and literal
values masked out, keeping only keywords and structure::

    SELECT name FROM singer WHERE age > 20 ORDER BY age DESC LIMIT 3
    →  SELECT _ FROM _ WHERE _ > _ ORDER BY _ DESC LIMIT _

Two skeletons are produced:

* :func:`sql_skeleton` — token-level mask, robust to unparseable SQL.
* :func:`query_signature` — AST-level structural signature used by the
  simulated LLM to measure example relevance (clause multiset).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple, Union

import numpy as np

from ..cache.lru import memoize

from .ast_nodes import (
    BetweenCondition,
    Comparison,
    Condition,
    ExistsCondition,
    FuncCall,
    InCondition,
    IsNullCondition,
    LikeCondition,
    Query,
    iter_conditions,
    iter_subqueries,
)
from .parser import try_parse
from .tokens import TokenType, tokenize
from .unparse import unparse

_MASK = "_"


def sql_skeleton(sql: Union[str, Query]) -> str:
    """Mask identifiers and literals, keeping keywords and operators.

    Consecutive masked tokens (including ``.`` and ``,`` between them) are
    collapsed into a single ``_``, and ``AS`` aliases are dropped, so column
    lists and qualified names of any length produce identical skeletons.
    """
    text = unparse(sql) if isinstance(sql, Query) else sql
    try:
        tokens = tokenize(text)
    except Exception:
        return text.strip().upper()

    masked: List[str] = []
    skip_next_ident = False
    for token in tokens:
        if token.type is TokenType.EOF:
            break
        if token.type is TokenType.KEYWORD and token.value == "AS":
            skip_next_ident = True
            continue
        if token.type in (TokenType.IDENT, TokenType.NUMBER, TokenType.STRING):
            if skip_next_ident:
                skip_next_ident = False
                continue
            masked.append(_MASK)
        elif token.type is TokenType.PUNCT and token.value in (".", ","):
            masked.append(token.value)
        elif token.type is TokenType.PUNCT and token.value == "*":
            masked.append(_MASK)
        else:
            skip_next_ident = False
            masked.append(token.value)

    collapsed: List[str] = []
    for piece in masked:
        if piece == _MASK and collapsed and collapsed[-1] == _MASK:
            continue
        if piece in (".", ","):
            # Swallow separators between masked slots: "_ . _" and "_ , _"
            # both collapse to "_".
            if collapsed and collapsed[-1] == _MASK:
                continue
        collapsed.append(piece)
    # A separator may now be followed by a mask again ("_ , _" became
    # ["_", "_"] handled above); also drop masks following a swallowed comma.
    result: List[str] = []
    for piece in collapsed:
        if piece == _MASK and result and result[-1] == _MASK:
            continue
        result.append(piece)
    return " ".join(result)


def skeleton_tokens(sql: Union[str, Query]) -> List[str]:
    """The skeleton as a token list (for similarity computations)."""
    return sql_skeleton(sql).split()


def query_signature(query: Union[str, Query]) -> Set[str]:
    """Structural feature set of a query.

    Features include clause presence (``where``, ``group``, ``order:desc``,
    ``limit``…), aggregate usage (``agg:count``…), predicate operators
    (``pred:>``, ``pred:like``…), join arity, set operators and nesting
    depth.  Used to measure how structurally close an in-context example is
    to the target query.
    """
    if isinstance(query, str):
        parsed = try_parse(query)
        if parsed is None:
            return {f"tok:{t}" for t in skeleton_tokens(query)}
        query = parsed

    features: Set[str] = set()
    for op, core in query.flatten_set_ops():
        if op:
            features.add(f"setop:{op.lower()}")
        if core.distinct:
            features.add("distinct")
        features.add(f"select:{len(core.items)}")
        for item in core.items:
            if isinstance(item.expr, FuncCall):
                features.add(f"agg:{item.expr.name.lower()}")
        if core.from_clause is not None:
            n_tables = len(core.from_clause.sources())
            if n_tables > 1:
                features.add(f"join:{n_tables}")
        if core.where is not None:
            features.add("where")
            for leaf in iter_conditions(core.where):
                features.add(f"pred:{_leaf_op(leaf)}")
        if core.group_by:
            features.add("group")
        if core.having is not None:
            features.add("having")
            for leaf in iter_conditions(core.having):
                if isinstance(leaf, Comparison) and isinstance(leaf.left, FuncCall):
                    features.add(f"having-agg:{leaf.left.name.lower()}")
        for order in core.order_by:
            features.add(f"order:{order.direction.lower()}")
            if isinstance(order.expr, FuncCall):
                features.add(f"order-agg:{order.expr.name.lower()}")
        if core.limit is not None:
            features.add("limit")
    nested = list(iter_subqueries(query))
    if nested:
        features.add(f"nested:{min(len(nested), 3)}")
    return features


def _leaf_op(leaf: Condition) -> str:
    if isinstance(leaf, Comparison):
        suffix = ":sub" if isinstance(leaf.right, Query) else ""
        return leaf.op + suffix
    if isinstance(leaf, InCondition):
        return "in:sub" if isinstance(leaf.values, Query) else "in"
    if isinstance(leaf, LikeCondition):
        return "like"
    if isinstance(leaf, BetweenCondition):
        return "between"
    if isinstance(leaf, IsNullCondition):
        return "isnull"
    if isinstance(leaf, ExistsCondition):
        return "exists"
    return "other"


@memoize(max_entries=50_000)
def _features_cached(sql: str) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(signature, skeleton bigrams) of a SQL string, memoised.

    A :class:`SkeletonIndex` reads each candidate through it once, when
    the index is built.  Per example, the simulated LLM (scoring its
    demonstrations against gold) and the DAIL_S preliminary SQL come back
    to the same strings, so each distinct SQL is parsed once.  The memo is
    a bounded, thread-safe LRU (:mod:`repro.cache.lru`) so arbitrarily
    long sweeps over arbitrarily many corpora cannot grow memory without
    limit.
    """
    return frozenset(query_signature(sql)), frozenset(_bigrams(skeleton_tokens(sql)))


def _features(query: Union[str, Query]) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    if isinstance(query, str):
        return _features_cached(query)
    return (
        frozenset(query_signature(query)),
        frozenset(_bigrams(skeleton_tokens(query))),
    )


def skeleton_similarity(a: Union[str, Query], b: Union[str, Query]) -> float:
    """Similarity of two queries' structure in ``[0, 1]``.

    The score blends Jaccard similarity of :func:`query_signature` features
    with Jaccard similarity of skeleton-token bigrams, so both clause
    composition and token order matter.  String inputs are memoised.
    """
    sig_a, bi_a = _features(a)
    sig_b, bi_b = _features(b)
    sig_score = _jaccard(sig_a, sig_b)
    bigram_score = _jaccard(bi_a, bi_b)
    return 0.6 * sig_score + 0.4 * bigram_score


class SkeletonIndex:
    """:func:`skeleton_similarity` of one query against a fixed candidate
    pool, in a few array operations.

    :func:`skeleton_similarity` depends only on a query's two feature
    sets (signature, skeleton bigrams), so the index keeps one *column*
    per distinct pair of them; ``column_of[i]`` is candidate ``i``'s
    column, and columns are numbered in order of first appearance.  Each
    feature kind is a 0/1 incidence matrix, feature × column, over the
    features the pool contains.  A target's Jaccard against every column
    comes from exact integer intersection and union counts, so
    :meth:`similarities` equals the scalar definition bit for bit.
    Read-only once built.
    """

    def __init__(self, candidates: Sequence[Union[str, Query]]):
        columns: Dict[Tuple[FrozenSet[str], FrozenSet[str]], int] = {}
        self.column_of = np.fromiter(
            (columns.setdefault(_features(sql), len(columns)) for sql in candidates),
            np.intp, len(candidates),
        )
        self._signatures = _Incidence([sig for sig, _ in columns])
        self._bigrams = _Incidence([bigrams for _, bigrams in columns])

    def similarities(self, query: Union[str, Query]) -> np.ndarray:
        """``skeleton_similarity(query, c)`` for every candidate ``c``."""
        return self.column_similarities(query)[self.column_of]

    def column_similarities(self, query: Union[str, Query]) -> np.ndarray:
        """``skeleton_similarity(query, c)`` for one candidate ``c`` of
        each column, in column order."""
        sig, bigrams = _features(query)
        return (0.6 * self._signatures.jaccard(sig)
                + 0.4 * self._bigrams.jaccard(bigrams))


class _Incidence:
    """Feature sets as a dense 0/1 matrix, one row per feature and one
    column per set."""

    def __init__(self, sets: Sequence[FrozenSet[str]]):
        self._ids: Dict[str, int] = {
            feature: i for i, feature in enumerate(sorted(set().union(*sets)))
        }
        self._matrix = np.zeros((len(self._ids), len(sets)), dtype=bool)
        for column, features in enumerate(sets):
            self._matrix[[self._ids[f] for f in features], column] = True
        self._sizes = self._matrix.sum(axis=0)

    def jaccard(self, target: FrozenSet[str]) -> np.ndarray:
        """:func:`_jaccard` of ``target`` against every set, in pool order."""
        rows = [self._ids[f] for f in target if f in self._ids]
        inter = self._matrix[rows].sum(axis=0)
        union = self._sizes + len(target) - inter
        # Both sets empty is the only zero union; _jaccard scores it 1.0.
        return np.where(union == 0, 1.0, inter / np.maximum(union, 1))


def _bigrams(tokens: List[str]) -> Set[str]:
    if len(tokens) < 2:
        return set(tokens)
    return {f"{tokens[i]} {tokens[i + 1]}" for i in range(len(tokens) - 1)}


def _jaccard(a: Set[str], b: Set[str]) -> float:
    if not a and not b:
        return 1.0
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)
