"""Recursive-descent parser for the Spider SQL subset.

The accepted grammar (roughly)::

    query        := select_core (set_op query)?
    set_op       := UNION [ALL] | INTERSECT | EXCEPT
    select_core  := SELECT [DISTINCT] select_item ("," select_item)*
                    [FROM from_clause]
                    [WHERE condition]
                    [GROUP BY expr ("," expr)*]
                    [HAVING condition]
                    [ORDER BY order_item ("," order_item)*]
                    [LIMIT number]
    from_clause  := source (join_step | "," source)*
    join_step    := [INNER | LEFT [OUTER]] JOIN source [ON condition]
    source       := table [AS? alias] | "(" query ")" [AS? alias]
    condition    := or_cond
    or_cond      := and_cond (OR and_cond)*
    and_cond     := not_cond (AND not_cond)*
    not_cond     := NOT not_cond | predicate
    predicate    := EXISTS "(" query ")"
                  | expr comparison
                  | "(" condition ")"
    comparison   := (= | != | < | > | <= | >=) (expr | "(" query ")")
                  | [NOT] IN "(" (query | literal_list) ")"
                  | [NOT] LIKE string
                  | [NOT] BETWEEN operand AND operand
                  | IS [NOT] NULL
    expr         := term (("+" | "-" | "||") term)*
    term         := factor (("*" | "/" | "%") factor)*
    factor       := literal | func "(" [DISTINCT] expr ")" | column
                  | "(" expr ")" | case_expr
    case_expr    := CASE (WHEN condition THEN expr)+ [ELSE expr] END
    column       := [table "."] (name | "*")

Comma-separated FROM sources are normalised into explicit joins with no ON
condition, matching how Spider corpora mix both styles.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..errors import SQLSyntaxError
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
)
from .tokens import AGGREGATES, SCALAR_FUNCTIONS, Token, TokenType, tokenize

_COMPARISON_OPS = frozenset({"=", "!=", "<", ">", "<=", ">="})
_SET_OPS = frozenset({"UNION", "INTERSECT", "EXCEPT"})


class _Parser:
    """Stateful cursor over a token list."""

    def __init__(self, tokens: List[Token], sql: str) -> None:
        self._tokens = tokens
        self._sql = sql
        self._index = 0

    # -- cursor primitives -------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._index]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _error(self, message: str) -> SQLSyntaxError:
        token = self.current
        return SQLSyntaxError(
            f"{message} (got {token.type.value} {token.value!r} at index {self._index})",
            sql=self._sql,
            position=self._index,
        )

    def _accept_keyword(self, *names: str) -> bool:
        if self.current.is_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_keyword(self, name: str) -> None:
        if not self._accept_keyword(name):
            raise self._error(f"expected keyword {name}")

    def _accept_punct(self, value: str) -> bool:
        token = self.current
        if token.type is TokenType.PUNCT and token.value == value:
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        if not self._accept_punct(value):
            raise self._error(f"expected {value!r}")

    def _expect_ident(self) -> str:
        token = self.current
        if token.type is TokenType.IDENT:
            self._advance()
            return token.value
        raise self._error("expected identifier")

    # -- grammar -----------------------------------------------------------

    def parse_query(self) -> Query:
        core = self.parse_select_core()
        if self.current.is_keyword(*_SET_OPS):
            op = self._advance().value
            if op == "UNION" and self._accept_keyword("ALL"):
                op = "UNION ALL"
            rest = self.parse_query()
            return Query(core=core, set_op=op, set_query=rest)
        return Query(core=core)

    def parse_select_core(self) -> SelectCore:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())

        from_clause = None
        if self._accept_keyword("FROM"):
            from_clause = self._parse_from()

        where = self._parse_condition() if self._accept_keyword("WHERE") else None

        group_by: Tuple[Expr, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            exprs = [self.parse_expr()]
            while self._accept_punct(","):
                exprs.append(self.parse_expr())
            group_by = tuple(exprs)

        having = self._parse_condition() if self._accept_keyword("HAVING") else None

        order_by: Tuple[OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            orders = [self._parse_order_item()]
            while self._accept_punct(","):
                orders.append(self._parse_order_item())
            order_by = tuple(orders)

        limit: Optional[int] = None
        if self._accept_keyword("LIMIT"):
            token = self.current
            if token.type is not TokenType.NUMBER:
                raise self._error("expected number after LIMIT")
            self._advance()
            limit = int(float(token.value))

        return SelectCore(
            items=tuple(items),
            from_clause=from_clause,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_item(self) -> SelectItem:
        expr = self.parse_expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self.current.type is TokenType.IDENT and not self._starts_clause():
            alias = self._advance().value
        return SelectItem(expr=expr, alias=alias)

    def _starts_clause(self) -> bool:
        # Identifiers never start a clause; this hook exists for symmetry and
        # future keywords that are lexed as identifiers.
        return False

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        direction = "ASC"
        if self._accept_keyword("ASC"):
            direction = "ASC"
        elif self._accept_keyword("DESC"):
            direction = "DESC"
        return OrderItem(expr=expr, direction=direction)

    # -- FROM --------------------------------------------------------------

    def _parse_from(self) -> FromClause:
        source = self._parse_table_source()
        joins: List[Join] = []
        while True:
            if self._accept_punct(","):
                joins.append(Join(source=self._parse_table_source(), condition=None))
                continue
            kind = self._parse_join_kind()
            if kind is None:
                break
            join_source = self._parse_table_source()
            condition = None
            using: Tuple[str, ...] = ()
            if self._accept_keyword("ON"):
                condition = self._parse_condition()
            elif self._accept_keyword("USING"):
                self._expect_punct("(")
                columns = [self._expect_ident()]
                while self._accept_punct(","):
                    columns.append(self._expect_ident())
                self._expect_punct(")")
                using = tuple(columns)
            joins.append(
                Join(source=join_source, condition=condition, kind=kind,
                     using=using)
            )
        return FromClause(source=source, joins=tuple(joins))

    def _parse_join_kind(self) -> Optional[str]:
        if self._accept_keyword("JOIN"):
            return "JOIN"
        if self._accept_keyword("INNER"):
            self._expect_keyword("JOIN")
            return "JOIN"
        if self._accept_keyword("LEFT") or self._accept_keyword("RIGHT"):
            self._accept_keyword("OUTER")
            self._expect_keyword("JOIN")
            return "LEFT JOIN"
        return None

    def _parse_table_source(self) -> Union[TableRef, SubqueryTable]:
        if self._accept_punct("("):
            query = self.parse_query()
            self._expect_punct(")")
            alias = None
            if self._accept_keyword("AS"):
                alias = self._expect_ident()
            elif self.current.type is TokenType.IDENT:
                alias = self._advance().value
            return SubqueryTable(query=query, alias=alias)
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self.current.type is TokenType.IDENT:
            alias = self._advance().value
        return TableRef(name=name, alias=alias)

    # -- conditions ----------------------------------------------------------

    def _parse_condition(self) -> Condition:
        return self._parse_or()

    def _parse_or(self) -> Condition:
        operands = [self._parse_and()]
        while self._accept_keyword("OR"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return OrCondition(operands=tuple(operands))

    def _parse_and(self) -> Condition:
        operands = [self._parse_not()]
        while self._accept_keyword("AND"):
            operands.append(self._parse_not())
        if len(operands) == 1:
            return operands[0]
        return AndCondition(operands=tuple(operands))

    def _parse_not(self) -> Condition:
        if self.current.is_keyword("NOT") and not self._peek().is_keyword(
            "IN", "LIKE", "BETWEEN", "EXISTS", "NULL"
        ):
            self._advance()
            return NotCondition(operand=self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Condition:
        if self.current.is_keyword("NOT") and self._peek().is_keyword("EXISTS"):
            self._advance()
            self._advance()
            self._expect_punct("(")
            query = self.parse_query()
            self._expect_punct(")")
            return ExistsCondition(query=query, negated=True)
        if self._accept_keyword("EXISTS"):
            self._expect_punct("(")
            query = self.parse_query()
            self._expect_punct(")")
            return ExistsCondition(query=query)
        if self.current.type is TokenType.PUNCT and self.current.value == "(":
            # Could be a parenthesised condition or a parenthesised
            # expression starting a comparison; try condition first.
            saved = self._index
            try:
                self._advance()
                condition = self._parse_condition()
                self._expect_punct(")")
                return condition
            except SQLSyntaxError:
                self._index = saved
        left = self.parse_expr()
        return self._parse_comparison_tail(left)

    def _parse_comparison_tail(self, left: Expr) -> Condition:
        token = self.current
        if token.type is TokenType.OP and token.value in _COMPARISON_OPS:
            op = self._advance().value
            right = self._parse_operand()
            return Comparison(op=op, left=left, right=right)

        negated = False
        if token.is_keyword("NOT"):
            negated = True
            self._advance()
            token = self.current

        if token.is_keyword("IN"):
            self._advance()
            self._expect_punct("(")
            if self.current.is_keyword("SELECT"):
                values: Union[Tuple[Literal, ...], Query] = self.parse_query()
            else:
                literals = [self._parse_literal()]
                while self._accept_punct(","):
                    literals.append(self._parse_literal())
                values = tuple(literals)
            self._expect_punct(")")
            return InCondition(expr=left, values=values, negated=negated)

        if token.is_keyword("LIKE"):
            self._advance()
            pattern = self._parse_literal()
            return LikeCondition(expr=left, pattern=pattern, negated=negated)

        if token.is_keyword("BETWEEN"):
            self._advance()
            low = self._parse_operand()
            self._expect_keyword("AND")
            high = self._parse_operand()
            return BetweenCondition(expr=left, low=low, high=high, negated=negated)

        if token.is_keyword("IS"):
            if negated:
                raise self._error("NOT before IS is not supported; use IS NOT NULL")
            self._advance()
            is_negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return IsNullCondition(expr=left, negated=is_negated)

        raise self._error("expected comparison operator")

    def _parse_operand(self) -> Union[Expr, Query]:
        """Right-hand side of a comparison: expression or scalar subquery."""
        if (
            self.current.type is TokenType.PUNCT
            and self.current.value == "("
            and self._peek().is_keyword("SELECT")
        ):
            self._advance()
            query = self.parse_query()
            self._expect_punct(")")
            return query
        return self.parse_expr()

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        left = self._parse_term()
        while self.current.type is TokenType.OP and self.current.value in (
            "+", "-", "||",
        ):
            op = self._advance().value
            right = self._parse_term()
            left = BinaryExpr(op=op, left=left, right=right)
        return left

    def _parse_term(self) -> Expr:
        left = self._parse_factor()
        while (
            self.current.type is TokenType.OP and self.current.value in ("/", "%")
        ) or (
            self.current.type is TokenType.PUNCT
            and self.current.value == "*"
            and self._multiplication_follows()
        ):
            op = self._advance().value
            right = self._parse_factor()
            left = BinaryExpr(op=op, left=left, right=right)
        return left

    def _multiplication_follows(self) -> bool:
        """Disambiguate ``a * b`` from a trailing wildcard.

        ``*`` is multiplication only if the next token can start a factor.
        """
        nxt = self._peek()
        if nxt.type in (TokenType.IDENT, TokenType.NUMBER, TokenType.STRING):
            return True
        if nxt.type is TokenType.PUNCT and nxt.value == "(":
            return True
        if nxt.type is TokenType.KEYWORD and nxt.value in AGGREGATES | SCALAR_FUNCTIONS:
            return True
        return False

    def _parse_factor(self) -> Expr:
        token = self.current

        if token.type is TokenType.PUNCT and token.value == "*":
            self._advance()
            return ColumnRef(column="*")

        if token.type in (TokenType.NUMBER, TokenType.STRING):
            return self._parse_literal()

        if token.type is TokenType.OP and token.value == "-":
            self._advance()
            inner = self._parse_factor()
            if isinstance(inner, Literal) and inner.kind == "number":
                return Literal(value=f"-{inner.value}", kind="number")
            return BinaryExpr(op="-", left=Literal("0", "number"), right=inner)

        if token.is_keyword("NULL"):
            self._advance()
            return Literal(value="NULL", kind="null")

        if token.is_keyword("CASE"):
            return self._parse_case()

        if token.type is TokenType.KEYWORD and token.value in AGGREGATES | SCALAR_FUNCTIONS:
            name = self._advance().value
            self._expect_punct("(")
            distinct = self._accept_keyword("DISTINCT")
            arg = self.parse_expr()
            self._expect_punct(")")
            return FuncCall(name=name, arg=arg, distinct=distinct)

        if token.type is TokenType.PUNCT and token.value == "(":
            self._advance()
            expr = self.parse_expr()
            self._expect_punct(")")
            return expr

        if token.type is TokenType.IDENT:
            first = self._advance().value
            if self._accept_punct("."):
                if self.current.type is TokenType.PUNCT and self.current.value == "*":
                    self._advance()
                    return ColumnRef(column="*", table=first)
                column = self._expect_ident()
                return ColumnRef(column=column, table=first)
            return ColumnRef(column=first)

        raise self._error("expected expression")

    def _parse_case(self) -> CaseExpr:
        """``CASE WHEN cond THEN expr [...] [ELSE expr] END``."""
        self._expect_keyword("CASE")
        whens = []
        while self._accept_keyword("WHEN"):
            condition = self._parse_condition()
            self._expect_keyword("THEN")
            value = self.parse_expr()
            whens.append((condition, value))
        if not whens:
            raise self._error("CASE requires at least one WHEN branch")
        else_value = None
        if self._accept_keyword("ELSE"):
            else_value = self.parse_expr()
        self._expect_keyword("END")
        return CaseExpr(whens=tuple(whens), else_=else_value)

    def _parse_literal(self) -> Literal:
        token = self.current
        if token.type is TokenType.NUMBER:
            self._advance()
            return Literal(value=token.value, kind="number")
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(value=token.value, kind="string")
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(value="NULL", kind="null")
        if token.type is TokenType.OP and token.value == "-":
            self._advance()
            inner = self._parse_literal()
            if inner.kind != "number":
                raise self._error("expected number after unary minus")
            return Literal(value=f"-{inner.value}", kind="number")
        raise self._error("expected literal")


class _Failure:
    """A memoised syntax error: enough to raise an equal one again,
    without keeping the original exception's traceback frames alive."""

    __slots__ = ("message", "sql", "position")

    def __init__(self, error: SQLSyntaxError):
        self.message = str(error)
        self.sql = error.sql
        self.position = error.position


class ScopeMemo:
    """One parse scope's results: ASTs (or failures) per SQL string,
    alias-resolved ASTs per SQL string, canonical ASTs and fingerprints
    per (SQL string, schema identity), and schema linkings per
    (question, schema identity).  ``None`` in ``resolved`` and
    ``canonicals`` stands for text that does not parse (or, for a
    canonical form, a rewrite that failed)."""

    __slots__ = ("parses", "resolved", "canonicals", "fingerprints",
                 "linkings")

    def __init__(self) -> None:
        self.parses: Dict[str, Union[Query, _Failure]] = {}
        self.resolved: Dict[str, Optional[Query]] = {}
        self.canonicals: Dict[Tuple[str, int], Tuple[object, Optional[Query]]] = {}
        self.fingerprints: Dict[Tuple[str, int], Tuple[object, Optional[str]]] = {}
        self.linkings: Dict[Tuple[str, int], Tuple[object, object]] = {}


class _ScopeLocal(threading.local):
    memo: Optional[ScopeMemo] = None


_scope = _ScopeLocal()


@contextmanager
def parse_scope() -> Iterator[None]:
    """Memoise parses on this thread until the block exits.

    Inside the scope :func:`parse` parses each distinct string once and
    returns the same (frozen) AST to every later caller; a string that
    failed to parse raises a fresh, equal :class:`SQLSyntaxError` on each
    later call.  :func:`~repro.sql.canonical.canonical_fingerprint` and
    :meth:`~repro.schema.linker.SchemaLinker.link` keep their results in
    the same memo, and so do the alias-resolved and canonical forms
    that exact match, equivalence and dedup read
    (:mod:`repro.sql.canonical`).  The memo is dropped when the outermost
    scope exits — a nested scope joins the enclosing one — so no result
    outlives the example or request that opened the scope.  Outside any
    scope nothing is memoised.
    """
    if _scope.memo is not None:
        yield
        return
    _scope.memo = ScopeMemo()
    try:
        yield
    finally:
        _scope.memo = None


def scope_memo() -> Optional[ScopeMemo]:
    """The open parse scope's memo on this thread, or ``None``."""
    return _scope.memo


def seed_parse(sql: str, query: Optional[Query]) -> None:
    """Inside a parse scope, let :func:`parse` return ``query`` for
    ``sql`` without tokenizing it.

    For a parse already in hand — a corpus example's gold AST — whose
    text is ``unparse(query)`` or was parsed into ``query``, so that
    ``parse(sql) == query`` holds exactly.  An entry already in the
    scope is kept.  Outside a scope, or with no ``query``, nothing
    happens.
    """
    memo = _scope.memo
    if memo is not None and query is not None:
        memo.parses.setdefault(sql, query)


def parse(sql: str) -> Query:
    """Parse SQL text into a :class:`~repro.sql.ast_nodes.Query`.

    Inside a :func:`parse_scope` the result (or the syntax error) is
    memoised per string for the rest of the scope.

    Raises:
        SQLSyntaxError: if the text is not a single valid query in the
            Spider SQL subset (trailing tokens beyond an optional ``;`` are
            rejected).
    """
    memo = _scope.memo
    if memo is None:
        return _parse(sql)
    entry = memo.parses.get(sql)
    if entry is None:
        try:
            entry = memo.parses[sql] = _parse(sql)
        except SQLSyntaxError as error:
            memo.parses[sql] = _Failure(error)
            raise
    if isinstance(entry, _Failure):
        raise SQLSyntaxError(entry.message, sql=entry.sql,
                             position=entry.position)
    return entry


def _parse(sql: str) -> Query:
    tokens = tokenize(sql)
    parser = _Parser(tokens, sql)
    query = parser.parse_query()
    parser._accept_punct(";")
    if parser.current.type is not TokenType.EOF:
        raise parser._error("unexpected trailing tokens")
    return query


def try_parse(sql: str) -> Optional[Query]:
    """Parse SQL, returning ``None`` instead of raising on syntax errors."""
    try:
        return parse(sql)
    except SQLSyntaxError:
        return None
