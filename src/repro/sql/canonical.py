"""Canonical logical form for parsed SQL queries.

Two queries that differ only in *spelling* — alias names, predicate
order, ``NOT`` placement, ``BETWEEN`` vs explicit bounds, folded
arithmetic — denote the same logical query.  :func:`canonicalize`
rewrites a parsed :class:`~repro.sql.ast_nodes.Query` into one
representative of that spelling class so structural equality (and the
unparsed text, via :func:`canonical_fingerprint`) can serve as a cheap
equivalence witness.

The transformations are *sound under SQLite's three-valued logic*: for
every database instance the canonical query returns results that
compare equal under :func:`repro.db.execution.results_match` (multiset
comparison without ORDER BY, sequence comparison with it).  Rewrites
that could change physical row order are therefore gated — FROM
sources are only reordered when the query has no bare ``*``
projection, no ORDER BY, and no LIMIT, and set-operation arms are only
sorted for uniform ``UNION``/``INTERSECT`` chains.

Applied rewrites:

* alias erasure via :func:`resolve_aliases`;
* double negation and De Morgan pushed to the leaves
  (``NOT (a AND b)`` → ``NOT a OR NOT b``, ``NOT x < y`` → ``x >= y``);
* AND/OR flattening, idempotent deduplication, and commutative operand
  ordering (predicates sort by their rendered text);
* comparison orientation (literals move to the right-hand side,
  symmetric operands order by key) and commutative ``+``/``*``
  operand ordering with integer constant folding;
* ``BETWEEN`` expansion into explicit bounds, single-element ``IN``
  into equality, ``IN`` value lists sorted and deduplicated;
* inner-join ``ON`` conditions merged into WHERE (and join sources
  sorted when provably order-insensitive);
* GROUP BY key ordering, unreferenced top-level SELECT aliases
  dropped, function names upper-cased;
* with a schema: strict integer bounds become inclusive
  (``age > 5`` → ``age >= 6`` on INTEGER columns) and ``COUNT(pk)``
  becomes ``COUNT(*)`` over the primary key of a sole-table FROM —
  both assume declared columns hold values of their declared type.

This module is also the home of the *component key* scheme the Spider
exact-match evaluator uses (:func:`expr_key`/:func:`condition_keys`/
:func:`query_key`): exact-match masks literal values, equivalence does
not, and both share one ordering so they can never drift apart.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from ..schema.model import Column, DatabaseSchema
from .ast_nodes import (
    AndCondition,
    BetweenCondition,
    BinaryExpr,
    CaseExpr,
    ColumnRef,
    Comparison,
    Condition,
    ExistsCondition,
    Expr,
    FromClause,
    FuncCall,
    InCondition,
    IsNullCondition,
    Join,
    LikeCondition,
    Literal,
    NotCondition,
    OrCondition,
    OrderItem,
    Query,
    SelectCore,
    SelectItem,
    SubqueryTable,
    TableRef,
    TableSource,
    iter_conditions,
)
from .parser import parse, scope_memo, try_parse
from .unparse import condition_text, unparse

_VALUE_MASK = "value"

_MISSING = object()

#: ``a op b`` ≡ ``b mirror(op) a`` for every comparison operator.
_MIRROR = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}

#: ``NOT (a op b)`` ≡ ``a negate(op) b`` — valid in three-valued logic
#: because both sides evaluate to NULL on NULL operands.
_NEGATE = {"=": "!=", "!=": "=", "<": ">=", ">": "<=", "<=": ">", ">=": "<"}


# ---------------------------------------------------------------------------
# Component keys (shared by exact-match and canonical ordering)
# ---------------------------------------------------------------------------


def expr_key(expr: Union[Expr, Query], mask_values: bool = True) -> str:
    """Canonical string key of an expression.

    With ``mask_values`` (the Spider exact-match convention) every
    literal collapses to ``"value"``; without it literals keep their
    kind-tagged spelling so distinct constants get distinct keys.
    """
    if isinstance(expr, Query):
        return f"({query_key(expr, mask_values)})"
    if isinstance(expr, ColumnRef):
        return expr.key()
    if isinstance(expr, Literal):
        if mask_values:
            return _VALUE_MASK
        return f"{expr.kind}:{expr.value}"
    if isinstance(expr, FuncCall):
        distinct = "distinct " if expr.distinct else ""
        return (
            f"{expr.name.lower()}"
            f"({distinct}{expr_key(expr.arg, mask_values)})"
        )
    if isinstance(expr, BinaryExpr):
        return (
            f"{expr_key(expr.left, mask_values)}{expr.op}"
            f"{expr_key(expr.right, mask_values)}"
        )
    if isinstance(expr, CaseExpr):
        branches = ";".join(
            f"{_leaf_keys_of(cond, mask_values)}:{expr_key(value, mask_values)}"
            for cond, value in expr.whens
        )
        tail = expr_key(expr.else_, mask_values) if expr.else_ is not None else ""
        return f"case({branches})else({tail})"
    raise TypeError(f"not an expression: {expr!r}")


def _leaf_keys_of(condition: Condition, mask_values: bool) -> str:
    return "&".join(sorted(condition_keys(condition, mask_values)))


def condition_keys(
    condition: Optional[Condition], mask_values: bool = True
) -> FrozenSet[str]:
    """Set of leaf-predicate keys (AND/OR structure flattened, Spider-style)."""
    keys = []
    for leaf in iter_conditions(condition):
        keys.append(leaf_key(leaf, mask_values))
    return frozenset(keys)


def leaf_key(leaf: Condition, mask_values: bool = True) -> str:
    """Canonical string key of one condition leaf."""
    if isinstance(leaf, Comparison):
        return (
            f"{expr_key(leaf.left, mask_values)} {leaf.op} "
            f"{expr_key(leaf.right, mask_values)}"
        )
    if isinstance(leaf, InCondition):
        op = "not in" if leaf.negated else "in"
        if isinstance(leaf.values, Query):
            return (
                f"{expr_key(leaf.expr, mask_values)} {op} "
                f"({query_key(leaf.values, mask_values)})"
            )
        if mask_values:
            return f"{expr_key(leaf.expr, mask_values)} {op} {_VALUE_MASK}"
        values = ",".join(sorted(expr_key(v, False) for v in leaf.values))
        return f"{expr_key(leaf.expr, False)} {op} ({values})"
    if isinstance(leaf, LikeCondition):
        op = "not like" if leaf.negated else "like"
        pattern = _VALUE_MASK if mask_values else expr_key(leaf.pattern, False)
        return f"{expr_key(leaf.expr, mask_values)} {op} {pattern}"
    if isinstance(leaf, BetweenCondition):
        op = "not between" if leaf.negated else "between"
        if mask_values:
            return f"{expr_key(leaf.expr, mask_values)} {op}"
        return (
            f"{expr_key(leaf.expr, False)} {op} "
            f"{expr_key(leaf.low, False)} and {expr_key(leaf.high, False)}"
        )
    if isinstance(leaf, IsNullCondition):
        op = "is not null" if leaf.negated else "is null"
        return f"{expr_key(leaf.expr, mask_values)} {op}"
    if isinstance(leaf, ExistsCondition):
        op = "not exists" if leaf.negated else "exists"
        return f"{op} ({query_key(leaf.query, mask_values)})"
    if isinstance(leaf, NotCondition):
        return f"not {leaf_key(leaf.operand, mask_values)}"
    raise TypeError(f"not a condition leaf: {leaf!r}")


def _select_key(
    core: SelectCore, mask_values: bool
) -> FrozenSet[Tuple[str, bool]]:
    return frozenset(
        (expr_key(item.expr, mask_values), core.distinct) for item in core.items
    )


def _from_key(core: SelectCore) -> FrozenSet[str]:
    return frozenset(
        core.from_clause.table_names() if core.from_clause else ()
    )


def _group_key(core: SelectCore, mask_values: bool) -> FrozenSet[str]:
    return frozenset(expr_key(e, mask_values) for e in core.group_by)


def _order_key(
    core: SelectCore, mask_values: bool
) -> Tuple[Tuple[str, str], ...]:
    return tuple(
        (expr_key(o.expr, mask_values), o.direction.lower())
        for o in core.order_by
    )


def core_components(
    core: SelectCore, mask_values: bool = True
) -> Dict[str, object]:
    """Per-clause comparison keys of one SELECT core (Spider components)."""
    return {
        "select": _select_key(core, mask_values),
        "from": _from_key(core),
        "where": condition_keys(core.where, mask_values),
        "group": _group_key(core, mask_values),
        "having": condition_keys(core.having, mask_values),
        "order": _order_key(core, mask_values),
        "limit": core.limit is not None,
        "set_op": None,  # filled at query level
    }


def query_key(query: Query, mask_values: bool = True) -> str:
    """Canonical key of a whole query (used for nested comparison)."""
    parts = []
    for op, core in query.flatten_set_ops():
        parts.append(
            f"{op or ''}|{sorted(_select_key(core, mask_values))}|"
            f"{sorted(_from_key(core))}|"
            f"{sorted(condition_keys(core.where, mask_values))}|"
            f"{sorted(_group_key(core, mask_values))}|"
            f"{sorted(condition_keys(core.having, mask_values))}|"
            f"{_order_key(core, mask_values)}|{core.limit is not None}"
        )
    return "&&".join(parts)


# ---------------------------------------------------------------------------
# Alias resolution (shared by exact-match and canonicalization)
# ---------------------------------------------------------------------------


def _binding_map(clause: Optional[FromClause]) -> Dict[str, str]:
    """Map each binding name (alias or table name, lower) to its base table."""
    bindings: Dict[str, str] = {}
    if clause is None:
        return bindings
    for source in clause.sources():
        if isinstance(source, TableRef):
            bindings[source.binding()] = source.name.lower()
        elif isinstance(source, SubqueryTable) and source.alias:
            bindings[source.alias.lower()] = source.alias.lower()
    return bindings


def resolve_aliases(query: Query) -> Query:
    """Return an equivalent query with table aliases resolved away.

    Column qualifiers that reference an alias are rewritten to the base table
    name and lower-cased; alias declarations on base tables are dropped.
    Aliases of derived tables (subqueries in FROM) are kept, since they are
    the only way to reference those columns.
    """
    return _resolve_query(query)


def _resolve_query(query: Query) -> Query:
    core = _resolve_core(query.core)
    set_query = _resolve_query(query.set_query) if query.set_query else None
    return Query(core=core, set_op=query.set_op, set_query=set_query)


def _resolve_core(core: SelectCore) -> SelectCore:
    bindings = _binding_map(core.from_clause)
    # In a single-table query every qualifier is redundant; dropping it makes
    # "SELECT T1.name FROM singer AS T1" equal to "SELECT name FROM singer".
    sole_table = None
    if core.from_clause is not None:
        sources = core.from_clause.sources()
        if len(sources) == 1 and isinstance(sources[0], TableRef):
            sole_table = sources[0].name.lower()

    def fix_expr(expr: Expr) -> Expr:
        if isinstance(expr, ColumnRef):
            table = expr.table.lower() if expr.table else None
            if table is not None:
                table = bindings.get(table, table)
            if sole_table is not None and table == sole_table:
                table = None
            return ColumnRef(column=expr.column.lower() if expr.column != "*" else "*",
                             table=table)
        if isinstance(expr, FuncCall):
            return FuncCall(name=expr.name, arg=fix_expr(expr.arg),
                            distinct=expr.distinct)
        if isinstance(expr, BinaryExpr):
            return BinaryExpr(op=expr.op, left=fix_expr(expr.left),
                              right=fix_expr(expr.right))
        if isinstance(expr, CaseExpr):
            whens = tuple(
                (fix_condition(cond), fix_expr(value))
                for cond, value in expr.whens
            )
            else_value = fix_expr(expr.else_) if expr.else_ is not None else None
            return CaseExpr(whens=whens, else_=else_value)
        return expr

    def fix_operand(value: Union[Expr, Query]) -> Union[Expr, Query]:
        if isinstance(value, Query):
            return _resolve_query(value)
        return fix_expr(value)

    def fix_condition(cond: Optional[Condition]) -> Optional[Condition]:
        if cond is None:
            return None
        if isinstance(cond, Comparison):
            return Comparison(op=cond.op, left=fix_expr(cond.left),
                              right=fix_operand(cond.right))
        if isinstance(cond, InCondition):
            values = (_resolve_query(cond.values)
                      if isinstance(cond.values, Query) else cond.values)
            return InCondition(expr=fix_expr(cond.expr), values=values,
                               negated=cond.negated)
        if isinstance(cond, LikeCondition):
            return LikeCondition(expr=fix_expr(cond.expr), pattern=cond.pattern,
                                 negated=cond.negated)
        if isinstance(cond, BetweenCondition):
            return BetweenCondition(expr=fix_expr(cond.expr),
                                    low=fix_operand(cond.low),
                                    high=fix_operand(cond.high),
                                    negated=cond.negated)
        if isinstance(cond, IsNullCondition):
            return IsNullCondition(expr=fix_expr(cond.expr), negated=cond.negated)
        if isinstance(cond, ExistsCondition):
            return ExistsCondition(query=_resolve_query(cond.query),
                                   negated=cond.negated)
        if isinstance(cond, NotCondition):
            fixed = fix_condition(cond.operand)
            assert fixed is not None
            return NotCondition(operand=fixed)
        if isinstance(cond, AndCondition):
            return AndCondition(operands=tuple(
                fix_condition(op) for op in cond.operands))  # type: ignore[misc]
        if isinstance(cond, OrCondition):
            return OrCondition(operands=tuple(
                fix_condition(op) for op in cond.operands))  # type: ignore[misc]
        raise TypeError(f"not a condition: {cond!r}")

    from_clause = None
    if core.from_clause is not None:
        def fix_source(source: TableSource) -> TableSource:
            if isinstance(source, TableRef):
                return TableRef(name=source.name.lower(), alias=None)
            return SubqueryTable(query=_resolve_query(source.query),
                                 alias=source.alias.lower() if source.alias else None)

        joins = tuple(
            Join(source=fix_source(j.source), condition=fix_condition(j.condition),
                 kind=j.kind, using=tuple(c.lower() for c in j.using))
            for j in core.from_clause.joins
        )
        from_clause = FromClause(source=fix_source(core.from_clause.source),
                                 joins=joins)

    return SelectCore(
        items=tuple(
            SelectItem(expr=fix_expr(item.expr),
                       alias=item.alias.lower() if item.alias else None)
            for item in core.items
        ),
        from_clause=from_clause,
        where=fix_condition(core.where),
        group_by=tuple(fix_expr(e) for e in core.group_by),
        having=fix_condition(core.having),
        order_by=tuple(
            OrderItem(expr=fix_expr(o.expr), direction=o.direction)
            for o in core.order_by
        ),
        limit=core.limit,
        distinct=core.distinct,
    )


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


class _Context:
    """Schema-resolution context for one SELECT core."""

    def __init__(
        self, schema: Optional[DatabaseSchema], tables: Tuple[str, ...]
    ) -> None:
        self.schema = schema
        self.tables = tables
        self.sole_pk: Optional[str] = None
        if schema is not None and len(tables) == 1 and schema.has_table(tables[0]):
            pk = schema.table(tables[0]).primary_key
            if pk is not None:
                self.sole_pk = pk.lower()

    def column(self, ref: ColumnRef) -> Optional[Column]:
        """Resolve a reference to its schema column, or ``None``."""
        if self.schema is None or ref.column == "*":
            return None
        if ref.table:
            if not self.schema.has_table(ref.table):
                return None
            table = self.schema.table(ref.table)
            if not table.has_column(ref.column):
                return None
            return table.column(ref.column)
        hits = [
            name
            for name in self.tables
            if self.schema.has_table(name)
            and self.schema.table(name).has_column(ref.column)
        ]
        if len(hits) != 1:
            return None
        return self.schema.table(hits[0]).column(ref.column)


_NO_CONTEXT = _Context(None, ())


def canonicalize(
    query: Union[str, Query], schema: Optional[DatabaseSchema] = None
) -> Query:
    """Rewrite ``query`` into its canonical logical form.

    Raises:
        SQLSyntaxError: when ``query`` is a string that does not parse.
    """
    if isinstance(query, str):
        query = parse(query)
    return _canon_query(resolve_aliases(query), schema, drop_aliases=True)


def canonicalize_condition(
    condition: Optional[Condition],
    schema: Optional[DatabaseSchema] = None,
    tables: Tuple[str, ...] = (),
) -> Optional[Condition]:
    """Canonicalize one condition tree outside any query context."""
    return _canon_condition(condition, _Context(schema, tables))


def resolved_query(sql: str) -> Optional[Query]:
    """``resolve_aliases(parse(sql))``, or ``None`` when ``sql`` does
    not parse.

    Inside a :func:`~repro.sql.parser.parse_scope` each string is
    resolved once: exact match and canonicalization share the result.
    """
    memo = scope_memo()
    if memo is not None:
        entry = memo.resolved.get(sql, _MISSING)
        if entry is not _MISSING:
            return entry
    query = try_parse(sql)
    if query is not None:
        query = resolve_aliases(query)
    if memo is not None:
        memo.resolved[sql] = query
    return query


def canonical_query(
    sql: str, schema: Optional[DatabaseSchema] = None
) -> Optional[Query]:
    """``canonicalize(sql, schema)``, or ``None`` when ``sql`` does not
    parse or a rewrite fails.

    Canonicalization is pure AST surgery and must never take an
    evaluation down with it, so any internal failure degrades to
    ``None``.  Inside a :func:`~repro.sql.parser.parse_scope` each
    (text, schema) pair is canonicalized once: dedup fingerprints and
    equivalence verdicts share the result.
    """
    memo = scope_memo()
    # Keyed on the schema's identity; the entry holds the schema, so the
    # id cannot be reused by another object while the scope lives.
    key = (sql, id(schema))
    if memo is not None:
        entry = memo.canonicals.get(key)
        if entry is not None:
            return entry[1]
    try:
        query = resolved_query(sql)
        canon = (
            _canon_query(query, schema, drop_aliases=True)
            if query is not None else None
        )
    except Exception:  # defensive: never break eval on a rewrite bug
        canon = None
    if memo is not None:
        memo.canonicals[key] = (schema, canon)
    return canon


def canonical_fingerprint(
    sql: Union[str, Query], schema: Optional[DatabaseSchema] = None
) -> Optional[str]:
    """Rendered canonical form — equal fingerprints ⇒ equivalent queries.

    Returns ``None`` when the SQL does not parse.  Canonicalization is
    pure AST surgery and must never take an evaluation down with it, so
    any internal failure also degrades to ``None`` (the caller falls
    back to treating the query as its own class).  Inside a
    :func:`~repro.sql.parser.parse_scope`, text inputs are memoised per
    (text, schema) for the rest of the scope, and their canonical form
    is :func:`canonical_query`'s.
    """
    if not isinstance(sql, str):
        try:
            return unparse(canonicalize(sql, schema))
        except Exception:  # defensive: never break eval on a rewrite bug
            return None
    memo = scope_memo()
    if memo is None:
        return _render(canonical_query(sql, schema))
    key = (sql, id(schema))
    entry = memo.fingerprints.get(key)
    if entry is None:
        entry = memo.fingerprints[key] = (
            schema, _render(canonical_query(sql, schema))
        )
    return entry[1]


def _render(canon: Optional[Query]) -> Optional[str]:
    if canon is None:
        return None
    try:
        return unparse(canon)
    except Exception:  # defensive: never break eval on a rewrite bug
        return None


def _canon_query(
    query: Query, schema: Optional[DatabaseSchema], drop_aliases: bool
) -> Query:
    parts = query.flatten_set_ops()
    cores = [_canon_core(core, schema, drop_aliases) for _, core in parts]
    ops = [op for op, _ in parts[1:]]
    sortable = (
        bool(ops)
        and all(op == ops[0] for op in ops)
        and ops[0] in ("UNION", "INTERSECT")
        and not any(c.order_by or c.limit is not None for c in cores)
    )
    if sortable:
        # Set semantics make arm order irrelevant; sort for a stable form.
        cores.sort(key=lambda c: unparse(Query(core=c)))
    node = Query(core=cores[-1])
    for index in range(len(ops) - 1, -1, -1):
        node = Query(core=cores[index], set_op=ops[index], set_query=node)
    return node


def _has_bare_star(core: SelectCore) -> bool:
    return any(
        isinstance(item.expr, ColumnRef)
        and item.expr.column == "*"
        and item.expr.table is None
        for item in core.items
    )


def _source_key(source: TableSource) -> str:
    if isinstance(source, TableRef):
        return f"t:{source.name.lower()}"
    return f"q:{unparse(source.query)}:{source.alias or ''}"


def _canon_source(
    source: TableSource, schema: Optional[DatabaseSchema]
) -> TableSource:
    if isinstance(source, SubqueryTable):
        return SubqueryTable(
            query=_canon_query(source.query, schema, drop_aliases=False),
            alias=source.alias,
        )
    return source


def _canon_core(
    core: SelectCore, schema: Optional[DatabaseSchema], drop_aliases: bool
) -> SelectCore:
    from_clause = core.from_clause
    where = core.where
    if from_clause is not None:
        tables = tuple(name for name in from_clause.table_names())
        ctx = _Context(schema, tables)
        first = _canon_source(from_clause.source, schema)
        collapsible = all(
            join.kind == "JOIN" and not join.using
            for join in from_clause.joins
        )
        joins: List[Join] = []
        extracted: List[Condition] = []
        for join in from_clause.joins:
            source = _canon_source(join.source, schema)
            condition = join.condition
            if collapsible and condition is not None:
                # Inner-join ON predicates filter exactly like WHERE.
                extracted.append(condition)
                condition = None
            else:
                condition = _canon_condition(condition, ctx)
            joins.append(
                Join(
                    source=source,
                    condition=condition,
                    kind=join.kind,
                    using=join.using,
                )
            )
        if extracted:
            base = (where,) if where is not None else ()
            where = AndCondition(operands=base + tuple(extracted))
        if (
            collapsible
            and joins
            and not _has_bare_star(core)
            and not core.order_by
            and core.limit is None
        ):
            # Pure inner joins with no order/limit sensitivity: source
            # order cannot affect the (multiset-compared) result.
            sources = sorted(
                [first] + [join.source for join in joins], key=_source_key
            )
            first = sources[0]
            joins = [Join(source=s) for s in sources[1:]]
        from_clause = FromClause(source=first, joins=tuple(joins))
    else:
        ctx = _Context(schema, ())

    where = _canon_condition(where, ctx)
    having = _canon_condition(core.having, ctx)

    group_by: List[Expr] = []
    for expr in core.group_by:
        canon = _canon_expr(expr, ctx)
        if canon not in group_by:  # grouping keys are a set
            group_by.append(canon)
    group_by.sort(key=lambda e: expr_key(e, False))

    order_by = tuple(
        OrderItem(expr=_canon_expr(o.expr, ctx), direction=o.direction.upper())
        for o in core.order_by
    )

    referenced = _referenced_names(where, having, group_by, order_by)
    items = []
    for item in core.items:
        alias = item.alias
        if (
            drop_aliases
            and alias is not None
            and alias.lower() not in referenced
        ):
            alias = None
        items.append(SelectItem(expr=_canon_expr(item.expr, ctx), alias=alias))

    return SelectCore(
        items=tuple(items),
        from_clause=from_clause,
        where=where,
        group_by=tuple(group_by),
        having=having,
        order_by=order_by,
        limit=core.limit,
        distinct=core.distinct,
    )


def _referenced_names(
    where: Optional[Condition],
    having: Optional[Condition],
    group_by: List[Expr],
    order_by: Tuple[OrderItem, ...],
) -> FrozenSet[str]:
    """Unqualified column names used outside the projection — a SELECT
    alias matching one of these may be load-bearing and must be kept."""
    names: List[str] = []

    def visit_expr(expr: Union[Expr, Query]) -> None:
        if isinstance(expr, ColumnRef):
            if expr.table is None:
                names.append(expr.column.lower())
        elif isinstance(expr, FuncCall):
            visit_expr(expr.arg)
        elif isinstance(expr, BinaryExpr):
            visit_expr(expr.left)
            visit_expr(expr.right)
        elif isinstance(expr, CaseExpr):
            for cond, value in expr.whens:
                visit_cond(cond)
                visit_expr(value)
            if expr.else_ is not None:
                visit_expr(expr.else_)

    def visit_cond(condition: Optional[Condition]) -> None:
        for leaf in iter_conditions(condition):
            for attr in ("left", "right", "expr", "low", "high", "pattern"):
                value = getattr(leaf, attr, None)
                if value is not None and not isinstance(value, Query):
                    visit_expr(value)

    visit_cond(where)
    visit_cond(having)
    for expr in group_by:
        visit_expr(expr)
    for item in order_by:
        visit_expr(item.expr)
    return frozenset(names)


# -- expressions ------------------------------------------------------------


def _canon_expr(expr: Expr, ctx: _Context) -> Expr:
    if isinstance(expr, (ColumnRef, Literal)):
        return expr
    if isinstance(expr, FuncCall):
        arg = _canon_expr(expr.arg, ctx)
        name = expr.name.upper()
        if (
            name == "COUNT"
            and not expr.distinct
            and ctx.sole_pk is not None
            and isinstance(arg, ColumnRef)
            and arg.table is None
            and arg.column.lower() == ctx.sole_pk
        ):
            # Primary keys are non-NULL, so COUNT(pk) counts every row.
            arg = ColumnRef(column="*")
        return FuncCall(name=name, arg=arg, distinct=expr.distinct)
    if isinstance(expr, BinaryExpr):
        left = _canon_expr(expr.left, ctx)
        right = _canon_expr(expr.right, ctx)
        folded = _fold(expr.op, left, right)
        if folded is not None:
            return folded
        if expr.op in ("+", "*") and expr_key(right, False) < expr_key(left, False):
            left, right = right, left
        return BinaryExpr(op=expr.op, left=left, right=right)
    if isinstance(expr, CaseExpr):
        whens = tuple(
            (_require_condition(_canon_condition(cond, ctx)), _canon_expr(value, ctx))
            for cond, value in expr.whens
        )
        else_ = _canon_expr(expr.else_, ctx) if expr.else_ is not None else None
        return CaseExpr(whens=whens, else_=else_)
    raise TypeError(f"not an expression: {expr!r}")


def _require_condition(condition: Optional[Condition]) -> Condition:
    assert condition is not None  # CASE branches always carry a condition
    return condition


def _is_int_literal(expr: Expr) -> bool:
    return (
        isinstance(expr, Literal)
        and expr.kind == "number"
        and "." not in expr.value
    )


def _fold(op: str, left: Expr, right: Expr) -> Optional[Literal]:
    """Fold integer constant arithmetic (``+ - *`` only — SQLite's
    ``/`` truncates and ``%`` follows C semantics; float formatting is
    not round-trip safe, so neither is folded)."""
    if op not in ("+", "-", "*"):
        return None
    if not (_is_int_literal(left) and _is_int_literal(right)):
        return None
    assert isinstance(left, Literal) and isinstance(right, Literal)
    a, b = int(left.value), int(right.value)
    value = a + b if op == "+" else (a - b if op == "-" else a * b)
    return Literal(value=str(value), kind="number")


# -- conditions -------------------------------------------------------------


def _condition_sort_key(condition: Condition) -> str:
    return condition_text(condition)


def _canon_condition(
    condition: Optional[Condition], ctx: _Context, negate: bool = False
) -> Optional[Condition]:
    if condition is None:
        return None
    if isinstance(condition, NotCondition):
        return _canon_condition(condition.operand, ctx, not negate)
    if isinstance(condition, (AndCondition, OrCondition)):
        # De Morgan: negation swaps the connective and pushes inward.
        make_and = isinstance(condition, AndCondition) != negate
        cls = AndCondition if make_and else OrCondition
        flat: List[Condition] = []
        for operand in condition.operands:
            canon = _canon_condition(operand, ctx, negate)
            assert canon is not None
            if isinstance(canon, cls):
                flat.extend(canon.operands)
            else:
                flat.append(canon)
        unique: List[Condition] = []
        for operand in flat:  # AND/OR are idempotent
            if operand not in unique:
                unique.append(operand)
        unique.sort(key=_condition_sort_key)
        if len(unique) == 1:
            return unique[0]
        return cls(operands=tuple(unique))
    return _canon_leaf(condition, ctx, negate)


def _canon_leaf(leaf: Condition, ctx: _Context, negate: bool) -> Condition:
    if isinstance(leaf, Comparison):
        op = _NEGATE[leaf.op] if negate else leaf.op
        left = _canon_expr(leaf.left, ctx)
        if isinstance(leaf.right, Query):
            return Comparison(
                op=op,
                left=left,
                right=_canon_query(leaf.right, ctx.schema, drop_aliases=True),
            )
        right = _canon_expr(leaf.right, ctx)
        left, op, right = _orient(left, op, right)
        left, op, right = _integer_bounds(left, op, right, ctx)
        return Comparison(op=op, left=left, right=right)
    if isinstance(leaf, InCondition):
        negated = leaf.negated != negate
        expr = _canon_expr(leaf.expr, ctx)
        if isinstance(leaf.values, Query):
            return InCondition(
                expr=expr,
                values=_canon_query(leaf.values, ctx.schema, drop_aliases=True),
                negated=negated,
            )
        values: List[Literal] = []
        for value in leaf.values:
            if value not in values:
                values.append(value)
        values.sort(key=lambda v: (v.kind, v.value))
        if len(values) == 1:
            # x IN (v) ≡ x = v (both NULL out on NULL x).
            op = "!=" if negated else "="
            left, op, right = _orient(expr, op, values[0])
            return Comparison(op=op, left=left, right=right)
        return InCondition(expr=expr, values=tuple(values), negated=negated)
    if isinstance(leaf, LikeCondition):
        return LikeCondition(
            expr=_canon_expr(leaf.expr, ctx),
            pattern=leaf.pattern,
            negated=leaf.negated != negate,
        )
    if isinstance(leaf, BetweenCondition):
        negated = leaf.negated != negate
        if negated:
            built: Condition = OrCondition(
                operands=(
                    Comparison(op="<", left=leaf.expr, right=leaf.low),
                    Comparison(op=">", left=leaf.expr, right=leaf.high),
                )
            )
        else:
            built = AndCondition(
                operands=(
                    Comparison(op=">=", left=leaf.expr, right=leaf.low),
                    Comparison(op="<=", left=leaf.expr, right=leaf.high),
                )
            )
        canon = _canon_condition(built, ctx)
        assert canon is not None
        return canon
    if isinstance(leaf, IsNullCondition):
        return IsNullCondition(
            expr=_canon_expr(leaf.expr, ctx), negated=leaf.negated != negate
        )
    if isinstance(leaf, ExistsCondition):
        return ExistsCondition(
            query=_canon_query(leaf.query, ctx.schema, drop_aliases=True),
            negated=leaf.negated != negate,
        )
    raise TypeError(f"not a condition leaf: {leaf!r}")


def _orient(left: Expr, op: str, right: Expr) -> Tuple[Expr, str, Expr]:
    """Orient a comparison: literal on the right, symmetric operands in
    key order (``5 < age`` and ``age > 5`` meet at ``age > 5``)."""
    if isinstance(left, Literal) and not isinstance(right, Literal):
        return right, _MIRROR[op], left
    if (
        not isinstance(left, Literal)
        and not isinstance(right, Literal)
        and expr_key(right, False) < expr_key(left, False)
    ):
        return right, _MIRROR[op], left
    return left, op, right


def _integer_bounds(
    left: Expr, op: str, right: Expr, ctx: _Context
) -> Tuple[Expr, str, Expr]:
    """Make strict integer bounds inclusive: ``x > 5`` ≡ ``x >= 6`` when
    ``x`` is an INTEGER column (declared types hold by construction in
    the synthetic corpora)."""
    if op not in ("<", ">") or not isinstance(left, ColumnRef):
        return left, op, right
    if not _is_int_literal(right):
        return left, op, right
    column = ctx.column(left)
    if column is None or column.ctype != "number" or not column.is_integer:
        return left, op, right
    assert isinstance(right, Literal)
    value = int(right.value)
    if op == ">":
        return left, ">=", Literal(value=str(value + 1), kind="number")
    return left, "<=", Literal(value=str(value - 1), kind="number")
