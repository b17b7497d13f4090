"""Parser unit tests: structure of parsed ASTs and error behaviour."""

import pytest

from repro.errors import SQLSyntaxError
from repro.sql.ast_nodes import (
    AndCondition,
    BetweenCondition,
    BinaryExpr,
    ColumnRef,
    Comparison,
    ExistsCondition,
    FuncCall,
    InCondition,
    IsNullCondition,
    LikeCondition,
    Literal,
    NotCondition,
    OrCondition,
    Query,
    SubqueryTable,
    TableRef,
)
from repro.sql.parser import parse, try_parse


class TestSelectCore:
    def test_single_column(self):
        query = parse("SELECT name FROM singer")
        assert query.core.items[0].expr == ColumnRef(column="name")
        assert query.core.from_clause.source == TableRef(name="singer")

    def test_star(self):
        query = parse("SELECT * FROM t")
        assert query.core.items[0].expr == ColumnRef(column="*")

    def test_qualified_star(self):
        query = parse("SELECT t.* FROM t")
        assert query.core.items[0].expr == ColumnRef(column="*", table="t")

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").core.distinct

    def test_multiple_items(self):
        query = parse("SELECT a, b, c FROM t")
        assert len(query.core.items) == 3

    def test_alias_with_as(self):
        query = parse("SELECT a AS x FROM t")
        assert query.core.items[0].alias == "x"

    def test_alias_without_as(self):
        query = parse("SELECT count(*) n FROM t")
        assert query.core.items[0].alias == "n"

    def test_no_from(self):
        query = parse("SELECT 1")
        assert query.core.from_clause is None

    def test_limit(self):
        assert parse("SELECT a FROM t LIMIT 5").core.limit == 5

    def test_order_directions(self):
        query = parse("SELECT a FROM t ORDER BY a DESC, b ASC, c")
        directions = [o.direction for o in query.core.order_by]
        assert directions == ["DESC", "ASC", "ASC"]

    def test_group_by_multiple(self):
        query = parse("SELECT a FROM t GROUP BY a, b")
        assert len(query.core.group_by) == 2


class TestFromClause:
    def test_table_alias(self):
        query = parse("SELECT T1.a FROM singer AS T1")
        assert query.core.from_clause.source == TableRef(name="singer", alias="T1")

    def test_join_with_on(self):
        query = parse(
            "SELECT a FROM t1 JOIN t2 ON t1.id = t2.id"
        )
        join = query.core.from_clause.joins[0]
        assert join.source == TableRef(name="t2")
        assert isinstance(join.condition, Comparison)

    def test_inner_join_normalised(self):
        query = parse("SELECT a FROM t1 INNER JOIN t2 ON t1.x = t2.x")
        assert query.core.from_clause.joins[0].kind == "JOIN"

    def test_left_join(self):
        query = parse("SELECT a FROM t1 LEFT OUTER JOIN t2 ON t1.x = t2.x")
        assert query.core.from_clause.joins[0].kind == "LEFT JOIN"

    def test_comma_join(self):
        query = parse("SELECT a FROM t1, t2 WHERE t1.x = t2.x")
        assert len(query.core.from_clause.sources()) == 2
        assert query.core.from_clause.joins[0].condition is None

    def test_three_table_join(self):
        query = parse(
            "SELECT a FROM t1 JOIN t2 ON t1.x = t2.x JOIN t3 ON t2.y = t3.y"
        )
        assert len(query.core.from_clause.sources()) == 3

    def test_derived_table(self):
        query = parse("SELECT a.x FROM (SELECT x FROM t) AS a")
        source = query.core.from_clause.source
        assert isinstance(source, SubqueryTable)
        assert source.alias == "a"


class TestConditions:
    def test_and_flattened(self):
        query = parse("SELECT a FROM t WHERE x = 1 AND y = 2 AND z = 3")
        assert isinstance(query.core.where, AndCondition)
        assert len(query.core.where.operands) == 3

    def test_or_precedence(self):
        query = parse("SELECT a FROM t WHERE x = 1 AND y = 2 OR z = 3")
        where = query.core.where
        assert isinstance(where, OrCondition)
        assert isinstance(where.operands[0], AndCondition)

    def test_parenthesised_condition(self):
        query = parse("SELECT a FROM t WHERE (x = 1 OR y = 2) AND z = 3")
        where = query.core.where
        assert isinstance(where, AndCondition)
        assert isinstance(where.operands[0], OrCondition)

    def test_not_condition(self):
        query = parse("SELECT a FROM t WHERE NOT x = 1")
        assert isinstance(query.core.where, NotCondition)

    def test_in_literal_list(self):
        query = parse("SELECT a FROM t WHERE x IN (1, 2, 3)")
        where = query.core.where
        assert isinstance(where, InCondition)
        assert len(where.values) == 3
        assert not where.negated

    def test_not_in_subquery(self):
        query = parse("SELECT a FROM t WHERE x NOT IN (SELECT y FROM u)")
        where = query.core.where
        assert isinstance(where, InCondition)
        assert where.negated
        assert isinstance(where.values, Query)

    def test_like(self):
        query = parse("SELECT a FROM t WHERE name LIKE '%x%'")
        assert isinstance(query.core.where, LikeCondition)
        assert query.core.where.pattern.value == "%x%"

    def test_not_like(self):
        assert parse("SELECT a FROM t WHERE n NOT LIKE 'x'").core.where.negated

    def test_between(self):
        query = parse("SELECT a FROM t WHERE x BETWEEN 1 AND 10")
        where = query.core.where
        assert isinstance(where, BetweenCondition)
        assert where.low == Literal("1", "number")
        assert where.high == Literal("10", "number")

    def test_is_null_and_not_null(self):
        assert isinstance(
            parse("SELECT a FROM t WHERE x IS NULL").core.where, IsNullCondition
        )
        assert parse("SELECT a FROM t WHERE x IS NOT NULL").core.where.negated

    def test_exists(self):
        query = parse("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)")
        assert isinstance(query.core.where, ExistsCondition)

    def test_not_exists(self):
        query = parse("SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u)")
        assert query.core.where.negated

    def test_comparison_to_subquery(self):
        query = parse("SELECT a FROM t WHERE x > (SELECT avg(x) FROM t)")
        assert isinstance(query.core.where.right, Query)

    def test_having_aggregate(self):
        query = parse("SELECT a FROM t GROUP BY a HAVING count(*) > 2")
        having = query.core.having
        assert isinstance(having.left, FuncCall)
        assert having.left.name == "COUNT"


class TestExpressions:
    def test_aggregate_distinct(self):
        query = parse("SELECT count(DISTINCT a) FROM t")
        expr = query.core.items[0].expr
        assert expr.distinct

    def test_arithmetic_precedence(self):
        query = parse("SELECT a + b * c FROM t")
        expr = query.core.items[0].expr
        assert isinstance(expr, BinaryExpr)
        assert expr.op == "+"
        assert isinstance(expr.right, BinaryExpr)

    def test_negative_literal(self):
        query = parse("SELECT a FROM t WHERE x > -5")
        assert query.core.where.right == Literal("-5", "number")

    def test_qualified_column(self):
        query = parse("SELECT t.a FROM t")
        assert query.core.items[0].expr == ColumnRef(column="a", table="t")


class TestSetOperations:
    def test_union(self):
        query = parse("SELECT a FROM t UNION SELECT b FROM u")
        assert query.set_op == "UNION"
        assert query.set_query is not None

    def test_union_all(self):
        assert parse("SELECT a FROM t UNION ALL SELECT b FROM u").set_op == "UNION ALL"

    def test_intersect_except(self):
        assert parse("SELECT a FROM t INTERSECT SELECT a FROM u").set_op == "INTERSECT"
        assert parse("SELECT a FROM t EXCEPT SELECT a FROM u").set_op == "EXCEPT"

    def test_flatten_set_ops(self):
        query = parse(
            "SELECT a FROM t UNION SELECT a FROM u UNION SELECT a FROM v"
        )
        parts = query.flatten_set_ops()
        assert len(parts) == 3
        assert parts[0][0] is None
        assert parts[1][0] == "UNION"


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "",
        "FROM t",
        "SELECT",
        "SELECT a FROM",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t LIMIT x",
        "SELECT a FROM t GROUP a",
        "SELECT a FROM t trailing junk garbage (",
        "SELECT a b c FROM t",   # two bare aliases in a row
    ])
    def test_raises_on_malformed(self, bad):
        with pytest.raises(SQLSyntaxError):
            parse(bad)

    def test_try_parse_returns_none(self):
        assert try_parse("not sql at all ¤") is None

    def test_try_parse_valid(self):
        assert try_parse("SELECT 1") is not None

    def test_trailing_semicolon_ok(self):
        assert parse("SELECT 1;").core.items

    def test_trailing_tokens_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT 1; SELECT 2")


class TestCaseExpressions:
    def test_case_when_parses(self):
        query = parse(
            "SELECT CASE WHEN age > 40 THEN 'old' ELSE 'young' END FROM t"
        )
        from repro.sql.ast_nodes import CaseExpr

        expr = query.core.items[0].expr
        assert isinstance(expr, CaseExpr)
        assert len(expr.whens) == 1
        assert expr.else_ is not None

    def test_multiple_whens(self):
        query = parse(
            "SELECT CASE WHEN a > 2 THEN 'x' WHEN a > 1 THEN 'y' END FROM t"
        )
        expr = query.core.items[0].expr
        assert len(expr.whens) == 2
        assert expr.else_ is None

    def test_case_roundtrip(self):
        from repro.sql.unparse import unparse

        sql = ("SELECT name, CASE WHEN age > 40 THEN 'senior' "
               "WHEN age > 25 THEN 'mid' ELSE 'junior' END FROM singer")
        assert parse(unparse(parse(sql))) == parse(sql)

    def test_case_in_where_comparison(self):
        query = parse(
            "SELECT a FROM t WHERE CASE WHEN b > 1 THEN 1 ELSE 0 END = 1"
        )
        assert query.core.where is not None

    def test_case_without_when_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT CASE ELSE 1 END FROM t")

    def test_case_missing_end_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT CASE WHEN a > 1 THEN 2 FROM t")

    def test_case_exact_match(self):
        from repro.eval.exact_match import exact_match

        sql = "SELECT CASE WHEN age > 40 THEN 'a' ELSE 'b' END FROM t"
        assert exact_match(sql, sql)
        other = "SELECT CASE WHEN age < 40 THEN 'a' ELSE 'b' END FROM t"
        assert not exact_match(sql, other)

    def test_case_executes_on_sqlite(self, toy_schema, toy_rows):
        from repro.db.sqlite_backend import Database

        with Database.build(toy_schema, toy_rows) as db:
            rows = db.execute(
                "SELECT name, CASE WHEN age >= 40 THEN 'senior' "
                "ELSE 'junior' END FROM singer ORDER BY singer_id"
            )
        assert rows[0] == ("Ava Lee", "junior")
        assert rows[1] == ("Ben Cho", "senior")


class TestUsingJoins:
    def test_single_column(self):
        query = parse("SELECT a FROM t JOIN u USING (id)")
        join = query.core.from_clause.joins[0]
        assert join.using == ("id",)
        assert join.condition is None

    def test_multiple_columns(self):
        query = parse("SELECT a FROM t JOIN u USING (id, name)")
        assert query.core.from_clause.joins[0].using == ("id", "name")

    def test_left_join_using(self):
        query = parse("SELECT a FROM t LEFT JOIN u USING (id)")
        join = query.core.from_clause.joins[0]
        assert join.kind == "LEFT JOIN"
        assert join.using == ("id",)

    def test_unparse_roundtrip(self):
        from repro.sql.unparse import unparse

        sql = "SELECT a FROM t JOIN u USING (id, name)"
        assert parse(unparse(parse(sql))) == parse(sql)

    def test_normalize_lowercases_using(self):
        from repro.sql.canonical import resolve_aliases

        query = parse("SELECT a FROM t JOIN u USING (ID)")
        resolved = resolve_aliases(query)
        assert resolved.core.from_clause.joins[0].using == ("id",)

    def test_missing_parenthesis_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT a FROM t JOIN u USING id")

    def test_empty_column_list_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT a FROM t JOIN u USING ()")

    def test_using_executes_on_sqlite(self, toy_schema, toy_rows):
        from repro.db.sqlite_backend import Database

        with Database.build(toy_schema, toy_rows) as db:
            rows = db.execute(
                "SELECT title FROM concert JOIN singer USING (singer_id) "
                "WHERE name = 'Ava Lee' ORDER BY title"
            )
        assert rows == [("Spring Fest",), ("Summer Jam",)]


class TestQualifiedStars:
    def test_alias_qualified_star(self):
        query = parse("SELECT T1.* FROM singer AS T1")
        assert query.core.items[0].expr == ColumnRef(column="*", table="T1")

    def test_star_alongside_columns(self):
        query = parse("SELECT t.*, u.name FROM t JOIN u ON t.id = u.id")
        assert query.core.items[0].expr == ColumnRef(column="*", table="t")
        assert query.core.items[1].expr == ColumnRef(column="name", table="u")

    def test_count_star_argument(self):
        query = parse("SELECT count(*) FROM t")
        func = query.core.items[0].expr
        assert isinstance(func, FuncCall)
        assert func.arg == ColumnRef(column="*")


class TestSetOpArity:
    def test_union_branches_flatten(self):
        query = parse("SELECT a FROM t UNION SELECT b FROM u")
        cores = [core for _, core in query.flatten_set_ops()]
        assert len(cores) == 2
        assert [len(core.items) for core in cores] == [1, 1]

    def test_mismatched_arity_still_parses(self):
        # Arity is the analyzer's business, not the grammar's.
        query = parse("SELECT a, b FROM t UNION SELECT c FROM u")
        cores = [core for _, core in query.flatten_set_ops()]
        assert [len(core.items) for core in cores] == [2, 1]

    def test_chained_set_ops(self):
        query = parse(
            "SELECT a FROM t UNION SELECT b FROM u EXCEPT SELECT c FROM v"
        )
        ops = [op for op, _ in query.flatten_set_ops()]
        assert ops[1:] == ["UNION", "EXCEPT"]

    def test_intersect(self):
        query = parse("SELECT a FROM t INTERSECT SELECT a FROM u")
        assert query.set_op == "INTERSECT"


class TestAliasedSubqueriesInFrom:
    def test_subquery_join_partner(self):
        query = parse(
            "SELECT s.x FROM t JOIN (SELECT x FROM u) AS s ON t.x = s.x"
        )
        join = query.core.from_clause.joins[0]
        assert isinstance(join.source, SubqueryTable)
        assert join.source.alias == "s"

    def test_subquery_alias_without_as(self):
        query = parse("SELECT s.x FROM (SELECT x FROM u) s")
        source = query.core.from_clause.source
        assert isinstance(source, SubqueryTable)
        assert source.alias == "s"

    def test_nested_subquery_source(self):
        query = parse(
            "SELECT a FROM (SELECT a FROM (SELECT a FROM t) AS inner1) AS outer1"
        )
        source = query.core.from_clause.source
        assert isinstance(source, SubqueryTable)
        inner = source.query.core.from_clause.source
        assert isinstance(inner, SubqueryTable)
        assert inner.alias == "inner1"

    def test_set_op_inside_derived_table(self):
        query = parse(
            "SELECT d.a FROM (SELECT a FROM t UNION SELECT a FROM u) AS d"
        )
        source = query.core.from_clause.source
        assert isinstance(source, SubqueryTable)
        assert source.query.set_op == "UNION"
