"""Semantic reasoning over parsed SQL: equivalence and satisfiability.

Two instruments on top of :mod:`repro.sql.canonical`:

* :func:`equivalent` — a three-valued equivalence check between two
  queries.  ``EQUAL`` means the queries return results comparing equal
  under :func:`repro.db.execution.results_match` on **every** database
  instance of the schema; ``DISTINCT`` means some instance tells them
  apart; ``UNKNOWN`` is the honest default.  The verdict is symmetric
  by construction and ``EQUAL`` is transitive (it is witnessed by a
  shared canonical form or by both queries being provably empty).

* :func:`condition_findings` — a schema-aware satisfiability pass over
  a WHERE/HAVING tree.  Conjunctions are compiled into per-column
  domains (numeric intervals, pinned/excluded values, ``IN`` sets,
  NULL-ness) and interval reasoning surfaces contradictions
  (``always-empty``), complementary disjuncts (``tautology``), and
  implied conjuncts (``redundant-predicate``).  All reasoning is sound
  under three-valued logic: a "contradiction" means no row can make
  the condition evaluate to TRUE (FALSE *or* NULL both filter), and a
  comparison-based "tautology" is only claimed modulo NULL — which is
  why the analyzer reports these as warnings, never as fatal errors.

The satisfiability engine is deliberately partial: any predicate it
does not fully understand (subqueries, LIKE patterns, cross-column
arithmetic) blocks *positive* proofs but still participates in
contradiction detection through the constraints it does expose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from ..schema.model import Column, DatabaseSchema
from ..sql.ast_nodes import (
    AndCondition,
    ColumnRef,
    Comparison,
    Condition,
    FuncCall,
    InCondition,
    IsNullCondition,
    LikeCondition,
    Literal,
    OrCondition,
    Query,
    SelectCore,
    TableRef,
)
from ..sql.canonical import (
    canonical_query,
    canonicalize,
    canonicalize_condition,
)
from ..sql.tokens import AGGREGATES
from ..sql.unparse import condition_text

#: Equivalence verdicts.
EQUAL = "EQUAL"
DISTINCT = "DISTINCT"
UNKNOWN = "UNKNOWN"

#: Resolves a column reference to its schema column (``None`` when the
#: reference is ambiguous, unresolvable, or no schema is available).
Resolver = Callable[[ColumnRef], Optional[Column]]

#: Values the domain engine reasons about.
_Value = Union[int, float, str]


def _null_resolver(ref: ColumnRef) -> Optional[Column]:
    return None


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else str(value)


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------


def equivalent(
    a: Union[str, Query],
    b: Union[str, Query],
    schema: Optional[DatabaseSchema] = None,
) -> str:
    """Three-valued equivalence verdict for two queries.

    ``EQUAL`` and ``DISTINCT`` are proofs; ``UNKNOWN`` is everything
    else (including unparseable input).  Quantification is over all
    database instances of ``schema``, with result equality as defined
    by the execution comparator (multisets without ORDER BY).
    """
    if isinstance(a, str) and isinstance(b, str) and a.strip() == b.strip():
        return EQUAL
    ca = _canonical(a, schema)
    cb = _canonical(b, schema) if ca is not None else None
    if ca is None or cb is None:
        return UNKNOWN
    if ca == cb:
        return EQUAL

    resolver = _schema_resolver(schema)
    empty_a = _always_empty(ca, resolver)
    empty_b = _always_empty(cb, resolver)
    if empty_a and empty_b:
        # Both provably return zero rows on every instance.
        return EQUAL
    if empty_a and _provably_nonempty(cb, resolver):
        return DISTINCT
    if empty_b and _provably_nonempty(ca, resolver):
        return DISTINCT

    if _single_row(ca) and _single_row(cb):
        na, nb = _arity(ca), _arity(cb)
        if na is not None and nb is not None and na != nb:
            # One-row results of different width differ everywhere.
            return DISTINCT
    return UNKNOWN


def _canonical(
    query: Union[str, Query], schema: Optional[DatabaseSchema]
) -> Optional[Query]:
    """The canonical form, ``None`` when unparseable or a rewrite fails
    (text shares the parse scope's canonical form)."""
    if isinstance(query, str):
        return canonical_query(query, schema)
    try:
        return canonicalize(query, schema)
    except Exception:  # defensive: a rewrite bug must not break scoring
        return None


def _schema_resolver(schema: Optional[DatabaseSchema]) -> Resolver:
    if schema is None:
        return _null_resolver

    def resolve(ref: ColumnRef) -> Optional[Column]:
        if ref.column == "*":
            return None
        if ref.table:
            if not schema.has_table(ref.table):
                return None
            table = schema.table(ref.table)
            return table.column(ref.column) if table.has_column(ref.column) else None
        hits = [
            t for t in schema.tables if t.has_column(ref.column)
        ]
        if len(hits) != 1:
            return None
        return hits[0].column(ref.column)

    return resolve


def _is_aggregate_expr(expr: object) -> bool:
    return isinstance(expr, FuncCall) and expr.name.upper() in AGGREGATES


def _has_aggregate(core: SelectCore) -> bool:
    return any(_is_aggregate_expr(item.expr) for item in core.items)


def _single_core(query: Query) -> Optional[SelectCore]:
    if query.set_op is not None:
        return None
    return query.core


def _single_row(query: Query) -> bool:
    """Provably returns exactly one row: aggregate-only, ungrouped."""
    core = _single_core(query)
    if core is None or core.group_by or core.limit == 0:
        return False
    return bool(core.items) and all(
        _is_aggregate_expr(item.expr) for item in core.items
    )


def _arity(query: Query) -> Optional[int]:
    """Result width, or ``None`` when a ``*`` makes it schema-dependent."""
    core = query.core
    for item in core.items:
        if isinstance(item.expr, ColumnRef) and item.expr.column == "*":
            return None
    return len(core.items)


def _always_empty(query: Query, resolver: Resolver) -> bool:
    """Provably returns zero rows on every instance."""
    core = _single_core(query)
    if core is None:
        return False
    if core.limit == 0:
        return True
    if not core.group_by and _has_aggregate(core):
        # Ungrouped aggregates emit one row even over empty input.
        return False
    return core.where is not None and satisfiable(core.where, resolver) is False


def _provably_nonempty(query: Query, resolver: Resolver) -> bool:
    """Some instance makes the query return at least one row.

    Requires a freely-populatable FROM (base tables, bare inner joins)
    and a WHERE the domain engine fully understands as satisfiable —
    then an instance realizing the satisfying assignment exists.
    """
    core = _single_core(query)
    if core is None or core.from_clause is None:
        return False
    if core.limit == 0:
        return False
    if not all(
        isinstance(source, TableRef)
        for source in core.from_clause.sources()
    ):
        return False
    if not all(
        join.kind == "JOIN" and join.condition is None and not join.using
        for join in core.from_clause.joins
    ):
        return False
    if core.having is not None:
        return False
    if core.where is not None and satisfiable(core.where, resolver) is not True:
        return False
    return True


# ---------------------------------------------------------------------------
# Satisfiability: per-column domains under a conjunction
# ---------------------------------------------------------------------------


class _Contradiction(Exception):
    """A conjunction can never evaluate to TRUE."""

    def __init__(self, message: str, column: str) -> None:
        super().__init__(message)
        self.message = message
        self.column = column


@dataclass
class _Domain:
    """Accumulated constraints on one column inside a conjunction."""

    name: str
    column: Optional[Column] = None
    low: Optional[float] = None
    low_strict: bool = False
    high: Optional[float] = None
    high_strict: bool = False
    pinned: bool = False
    eq: Optional[_Value] = None
    neq: Set[_Value] = field(default_factory=set)
    allowed: Optional[Set[_Value]] = None
    null: Optional[bool] = None  # True: IS NULL proven; False: NOT NULL

    def _fail(self, message: str) -> None:
        raise _Contradiction(message, self.name)

    def require_not_null(self, reason: str) -> None:
        if self.null is True:
            self._fail(f"{self.name} cannot be NULL and satisfy {reason}")
        self.null = False

    def add_null(self, negated: bool) -> None:
        wants = not negated
        if self.null is not None and self.null != wants:
            self._fail(
                f"{self.name} cannot be both NULL and NOT NULL"
            )
        if wants and (
            self.pinned
            or self.low is not None
            or self.high is not None
            or self.neq
            or self.allowed is not None
        ):
            self._fail(
                f"{self.name} IS NULL contradicts its other comparisons"
            )
        self.null = wants

    def add_eq(self, value: _Value, text: str) -> None:
        self.require_not_null(text)
        if self.pinned and self.eq != value:
            self._fail(f"{self.name} cannot equal both {self.eq!r} and {value!r}")
        if value in self.neq:
            self._fail(f"{text} contradicts {self.name} != {value!r}")
        if self.allowed is not None and value not in self.allowed:
            self._fail(f"{text} is outside the IN set of {self.name}")
        self._check_bounds(value, text)
        self._check_column_domain(value, text)
        self.pinned = True
        self.eq = value

    def add_neq(self, value: _Value, text: str) -> None:
        self.require_not_null(text)
        if self.pinned and self.eq == value:
            self._fail(f"{text} contradicts {self.name} = {value!r}")
        self.neq.add(value)
        if self.allowed is not None:
            self.allowed = {v for v in self.allowed if v != value}
            if not self.allowed:
                self._fail(f"{text} empties the IN set of {self.name}")

    def add_in(self, values: Set[_Value], text: str) -> None:
        self.require_not_null(text)
        values = {v for v in values if v not in self.neq}
        if self.allowed is None:
            self.allowed = values
        else:
            self.allowed &= values
        if self.pinned and self.eq not in self.allowed:
            self._fail(f"{text} excludes pinned value {self.eq!r}")
        if not self.allowed:
            self._fail(f"{text} leaves no possible value for {self.name}")

    def add_bound(self, op: str, value: float, text: str) -> None:
        self.require_not_null(text)
        if op in (">", ">="):
            strict = op == ">"
            if (
                self.low is None
                or value > self.low
                or (value == self.low and strict and not self.low_strict)
            ):
                self.low, self.low_strict = value, strict
        else:
            strict = op == "<"
            if (
                self.high is None
                or value < self.high
                or (value == self.high and strict and not self.high_strict)
            ):
                self.high, self.high_strict = value, strict
        if self.low is not None and self.high is not None:
            if self.low > self.high or (
                self.low == self.high and (self.low_strict or self.high_strict)
            ):
                self._fail(
                    f"bounds on {self.name} are contradictory "
                    f"({_fmt(self.low)}..{_fmt(self.high)} is empty)"
                )
        if self.pinned and isinstance(self.eq, (int, float)):
            self._check_bounds(self.eq, text)
        if self.allowed is not None:
            self.allowed = {
                v for v in self.allowed
                if not isinstance(v, (int, float)) or self._in_bounds(v)
            }
            if not self.allowed:
                self._fail(f"{text} empties the IN set of {self.name}")

    def _in_bounds(self, value: float) -> bool:
        if self.low is not None and (
            value < self.low or (value == self.low and self.low_strict)
        ):
            return False
        if self.high is not None and (
            value > self.high or (value == self.high and self.high_strict)
        ):
            return False
        return True

    def _check_bounds(self, value: _Value, text: str) -> None:
        if isinstance(value, (int, float)) and not self._in_bounds(value):
            self._fail(f"{text} falls outside the bounds on {self.name}")

    def _check_column_domain(self, value: _Value, text: str) -> None:
        if self.column is None:
            return
        if self.column.ctype == "boolean" and value not in (0, 1):
            self._fail(
                f"{text} is outside the boolean domain of {self.name}"
            )
        if (
            self.column.ctype == "number"
            and self.column.is_integer
            and isinstance(value, float)
            and not value.is_integer()
        ):
            self._fail(
                f"{text} can never match INTEGER column {self.name}"
            )


def _coerce(value: _Value, column: Optional[Column]) -> Optional[_Value]:
    """Apply SQLite affinity: literals coerce toward the column's type.

    Returns ``None`` when the comparison can never be TRUE (a
    non-numeric string against a numeric column).
    """
    if column is None:
        return value
    if column.ctype == "text" or column.ctype == "time":
        return str(value)
    if column.ctype == "number" or column.ctype == "boolean":
        if isinstance(value, str):
            try:
                return float(value) if "." in value else int(value)
            except ValueError:
                return None
        return value
    return value


# ---------------------------------------------------------------------------
# Satisfiability over a condition tree
# ---------------------------------------------------------------------------


def satisfiable(
    condition: Optional[Condition], resolver: Resolver
) -> Optional[bool]:
    """Can any row make ``condition`` evaluate to TRUE?

    ``True``/``False`` are proofs; ``None`` means the engine did not
    fully understand the predicate.  The condition is canonicalized
    first, so callers may pass raw parser output.
    """
    canon = canonicalize_condition(condition)
    if canon is None:
        return True
    return _sat(canon, resolver)


def _sat(condition: Condition, resolver: Resolver) -> Optional[bool]:
    if isinstance(condition, OrCondition):
        verdicts = [_sat(op, resolver) for op in condition.operands]
        if any(v is True for v in verdicts):
            return True
        if all(v is False for v in verdicts):
            return False
        return None
    operands = (
        condition.operands
        if isinstance(condition, AndCondition)
        else (condition,)
    )
    domains: Dict[str, _Domain] = {}
    complete = True
    try:
        for operand in operands:
            if isinstance(operand, (AndCondition, OrCondition)):
                nested = _sat(operand, resolver)
                if nested is False:
                    return False
                # A satisfiable disjunct may still conflict with the
                # sibling constraints; never claim a joint proof.
                complete = False
            elif not _absorb(operand, domains, resolver):
                complete = False
    except _Contradiction:
        return False
    return True if complete else None


def _domain_for(
    ref: ColumnRef, domains: Dict[str, _Domain], resolver: Resolver
) -> _Domain:
    key = ref.key()
    if key not in domains:
        domains[key] = _Domain(name=key, column=resolver(ref))
    return domains[key]


def _absorb(
    leaf: Condition, domains: Dict[str, _Domain], resolver: Resolver
) -> bool:
    """Fold one conjunct into the per-column domains.

    Returns ``True`` when the leaf was fully understood (its constraint
    is completely captured), ``False`` otherwise.  Raises
    :class:`_Contradiction` when the conjunction becomes unsatisfiable.
    """
    text = condition_text(leaf)
    if isinstance(leaf, Comparison):
        left, right = leaf.left, leaf.right
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            if left.key() != right.key():
                return False
            # x OP x: TRUE iff x is not NULL and OP is reflexive.
            domain = _domain_for(left, domains, resolver)
            if leaf.op in ("=", "<=", ">="):
                domain.require_not_null(text)
                return True
            raise _Contradiction(
                f"{text} can never be true", left.key()
            )
        if isinstance(left, Literal) and isinstance(right, Literal):
            verdict = _literal_comparison(left, leaf.op, right)
            if verdict is False:
                raise _Contradiction(f"{text} is always false", "")
            return verdict is True
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return _absorb_comparison(left, leaf.op, right, text, domains, resolver)
        return False
    if isinstance(leaf, InCondition):
        if not isinstance(leaf.expr, ColumnRef) or isinstance(leaf.values, Query):
            return False
        domain = _domain_for(leaf.expr, domains, resolver)
        raw = [v.python_value() for v in leaf.values]
        if leaf.negated:
            if any(v is None for v in raw):
                # NOT IN with a NULL member is never TRUE.
                raise _Contradiction(
                    f"{text} contains NULL and can never be true",
                    leaf.expr.key(),
                )
            for value in raw:
                assert value is not None
                coerced = _coerce(value, domain.column)
                if coerced is not None:
                    domain.add_neq(coerced, text)
            return True
        members: Set[_Value] = set()
        for value in raw:
            if value is None:
                continue  # a NULL member never matches, others still can
            coerced = _coerce(value, domain.column)
            if coerced is not None:
                members.add(coerced)
        if not members:
            raise _Contradiction(
                f"{text} has no matchable values", leaf.expr.key()
            )
        domain.add_in(members, text)
        return True
    if isinstance(leaf, IsNullCondition):
        if not isinstance(leaf.expr, ColumnRef):
            return False
        _domain_for(leaf.expr, domains, resolver).add_null(leaf.negated)
        return True
    if isinstance(leaf, LikeCondition):
        if isinstance(leaf.expr, ColumnRef):
            # LIKE only matches non-NULL values; the pattern itself is
            # beyond the domain engine.
            _domain_for(leaf.expr, domains, resolver).require_not_null(text)
        return False
    # Subqueries, EXISTS, residual NOT: opaque.
    return False


def _absorb_comparison(
    ref: ColumnRef,
    op: str,
    literal: Literal,
    text: str,
    domains: Dict[str, _Domain],
    resolver: Resolver,
) -> bool:
    domain = _domain_for(ref, domains, resolver)
    raw = literal.python_value()
    if raw is None:
        # Comparison against NULL is never TRUE.
        raise _Contradiction(f"{text} compares against NULL", ref.key())
    value = _coerce(raw, domain.column)
    if value is None:
        if op == "=":
            raise _Contradiction(
                f"{text} can never match numeric column {ref.key()}",
                ref.key(),
            )
        return False
    if op == "=":
        domain.add_eq(value, text)
        return True
    if op == "!=":
        domain.add_neq(value, text)
        return True
    if isinstance(value, (int, float)):
        domain.add_bound(op, float(value), text)
        return True
    # Range comparison on text: register NOT NULL, stay incomplete.
    domain.require_not_null(text)
    return False


def _literal_comparison(
    left: Literal, op: str, right: Literal
) -> Optional[bool]:
    lv, rv = left.python_value(), right.python_value()
    if lv is None or rv is None:
        return False  # NULL comparisons are never TRUE
    if isinstance(lv, str) != isinstance(rv, str):
        return None  # mixed-affinity constant comparison: skip
    try:
        if op == "=":
            return bool(lv == rv)
        if op == "!=":
            return bool(lv != rv)
        if op == "<":
            return bool(lv < rv)  # type: ignore[operator]
        if op == "<=":
            return bool(lv <= rv)  # type: ignore[operator]
        if op == ">":
            return bool(lv > rv)  # type: ignore[operator]
        if op == ">=":
            return bool(lv >= rv)  # type: ignore[operator]
    except TypeError:  # pragma: no cover - guarded by the isinstance check
        return None
    return None


# ---------------------------------------------------------------------------
# Findings for the analyzer (sem:* rules)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemanticFinding:
    """One satisfiability insight about a condition tree."""

    kind: str  # "always-empty" | "tautology" | "redundant-predicate"
    message: str
    column: str = ""
    fix: str = ""


def condition_findings(
    condition: Optional[Condition],
    resolver: Optional[Resolver] = None,
) -> List[SemanticFinding]:
    """Contradictions, tautologies, and redundancies in one condition.

    The tree is canonicalized first (De Morgan, BETWEEN expansion, …)
    so findings hold regardless of spelling.  ``resolver`` supplies
    column types for domain checks; omit it for type-blind analysis.
    """
    resolve = resolver if resolver is not None else _null_resolver
    canon = canonicalize_condition(condition)
    if canon is None:
        return []
    findings: List[SemanticFinding] = []
    _walk_findings(canon, resolve, findings)
    return findings


def _walk_findings(
    condition: Condition, resolver: Resolver, findings: List[SemanticFinding]
) -> None:
    if isinstance(condition, OrCondition):
        for operand in condition.operands:
            if isinstance(operand, (AndCondition, OrCondition)):
                _walk_findings(operand, resolver, findings)
        _or_findings(condition, findings)
        return
    operands = (
        condition.operands
        if isinstance(condition, AndCondition)
        else (condition,)
    )
    for operand in operands:
        if isinstance(operand, (AndCondition, OrCondition)):
            _walk_findings(operand, resolver, findings)
    _and_findings(operands, resolver, findings)


def _and_findings(
    operands: Tuple[Condition, ...],
    resolver: Resolver,
    findings: List[SemanticFinding],
) -> None:
    domains: Dict[str, _Domain] = {}
    try:
        for operand in operands:
            if not isinstance(operand, (AndCondition, OrCondition)):
                _absorb(operand, domains, resolver)
    except _Contradiction as contradiction:
        findings.append(
            SemanticFinding(
                kind="always-empty",
                message=f"condition can never be true: {contradiction.message}",
                column=_bare_column(contradiction.column),
            )
        )
        return
    _redundancy_findings(operands, resolver, findings)


def _redundancy_findings(
    operands: Tuple[Condition, ...],
    resolver: Resolver,
    findings: List[SemanticFinding],
) -> None:
    """A conjunct implied by one sibling is dead weight."""
    leaves = [
        op for op in operands
        if not isinstance(op, (AndCondition, OrCondition))
    ]
    if len(leaves) < 2:
        return
    for index, weak in enumerate(leaves):
        for other, strong in enumerate(leaves):
            if index == other:
                continue
            if _implies(strong, weak, resolver):
                findings.append(
                    SemanticFinding(
                        kind="redundant-predicate",
                        message=(
                            f"{condition_text(weak)} is implied by "
                            f"{condition_text(strong)}"
                        ),
                        column=_leaf_column(weak),
                        fix=f"drop {condition_text(weak)}",
                    )
                )
                break


def _implies(strong: Condition, weak: Condition, resolver: Resolver) -> bool:
    """Does ``strong`` TRUE force ``weak`` TRUE?  (Numeric bounds and
    equality-vs-bound on the same column only — deliberately minimal.)"""
    if not isinstance(strong, Comparison) or not isinstance(weak, Comparison):
        return False
    if not (
        isinstance(strong.left, ColumnRef)
        and isinstance(weak.left, ColumnRef)
        and strong.left.key() == weak.left.key()
        and isinstance(strong.right, Literal)
        and isinstance(weak.right, Literal)
    ):
        return False
    sv, wv = strong.right.python_value(), weak.right.python_value()
    if not isinstance(sv, (int, float)) or not isinstance(wv, (int, float)):
        return False
    if strong.op == "=" and weak.op in ("<", "<=", ">", ">=", "!="):
        return _literal_comparison(
            strong.right, weak.op, weak.right
        ) is True
    bounds = {
        (">", ">"): sv >= wv,
        (">", ">="): sv >= wv,
        (">=", ">="): sv >= wv,
        (">=", ">"): sv > wv,
        ("<", "<"): sv <= wv,
        ("<", "<="): sv <= wv,
        ("<=", "<="): sv <= wv,
        ("<=", "<"): sv < wv,
    }
    return bounds.get((strong.op, weak.op), False)


#: Comparison pairs (in sorted-op order) that cover every non-NULL value.
_COMPLEMENTS = {("!=", "="), ("<", ">="), ("<=", ">")}


def _or_findings(
    condition: OrCondition, findings: List[SemanticFinding]
) -> None:
    leaves = [
        op for op in condition.operands
        if not isinstance(op, (AndCondition, OrCondition))
    ]
    comparisons = [
        leaf for leaf in leaves
        if isinstance(leaf, Comparison)
        and isinstance(leaf.left, ColumnRef)
        and isinstance(leaf.right, Literal)
    ]
    for index, a in enumerate(comparisons):
        for b in comparisons[index + 1:]:
            assert isinstance(a.left, ColumnRef)
            assert isinstance(b.left, ColumnRef)
            if a.left.key() != b.left.key():
                continue
            av = a.right.python_value() if isinstance(a.right, Literal) else None
            bv = b.right.python_value() if isinstance(b.right, Literal) else None
            if av is None or bv is None:
                continue
            ordered = tuple(sorted((a.op, b.op)))
            if ordered in _COMPLEMENTS and av == bv:
                findings.append(_tautology(a, b))
                continue
            # Overlapping half-lines: x <= hi OR x >= lo with lo <= hi.
            low_op, high_op = None, None
            if a.op in ("<", "<=") and b.op in (">", ">="):
                low_op, high_op = b, a
            elif b.op in ("<", "<=") and a.op in (">", ">="):
                low_op, high_op = a, b
            if low_op is not None and high_op is not None:
                lov = low_op.right.python_value()
                hiv = high_op.right.python_value()
                if (
                    isinstance(lov, (int, float))
                    and isinstance(hiv, (int, float))
                    and (
                        lov < hiv
                        or (
                            lov == hiv
                            and ("=" in low_op.op or "=" in high_op.op)
                        )
                    )
                ):
                    findings.append(_tautology(low_op, high_op))
    # IS NULL OR IS NOT NULL genuinely covers everything, NULLs included.
    nulls = [leaf for leaf in leaves if isinstance(leaf, IsNullCondition)]
    for index, a in enumerate(nulls):
        for b in nulls[index + 1:]:
            if (
                isinstance(a.expr, ColumnRef)
                and isinstance(b.expr, ColumnRef)
                and a.expr.key() == b.expr.key()
                and a.negated != b.negated
            ):
                findings.append(
                    SemanticFinding(
                        kind="tautology",
                        message=(
                            f"{condition_text(a)} OR {condition_text(b)} "
                            "is always true"
                        ),
                        column=_bare_column(a.expr.key()),
                    )
                )


def _tautology(a: Comparison, b: Comparison) -> SemanticFinding:
    assert isinstance(a.left, ColumnRef)
    return SemanticFinding(
        kind="tautology",
        message=(
            f"{condition_text(a)} OR {condition_text(b)} matches every "
            "non-NULL value"
        ),
        column=_bare_column(a.left.key()),
    )


def _leaf_column(leaf: Condition) -> str:
    expr = getattr(leaf, "left", None) or getattr(leaf, "expr", None)
    if isinstance(expr, ColumnRef):
        return _bare_column(expr.key())
    return ""


def _bare_column(key: str) -> str:
    return key.rsplit(".", 1)[-1] if key else ""
