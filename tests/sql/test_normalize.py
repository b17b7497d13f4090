"""Alias resolution (:func:`repro.sql.canonical.resolve_aliases`) tests."""

from repro.sql.canonical import resolve_aliases
from repro.sql.parser import parse
from repro.sql.unparse import unparse


def resolved(sql):
    return unparse(resolve_aliases(parse(sql)))


def same_query(a, b):
    return resolve_aliases(parse(a)) == resolve_aliases(parse(b))


class TestAliasResolution:
    def test_alias_rewritten_to_table(self):
        sql = "SELECT T1.name FROM singer AS T1 JOIN concert AS T2 ON T1.id = T2.sid"
        out = resolved(sql)
        assert "T1" not in out
        assert "singer.name" in out

    def test_single_table_qualifier_dropped(self):
        assert resolved("SELECT singer.name FROM singer") == \
            resolved("SELECT name FROM singer")

    def test_case_folding(self):
        assert same_query("SELECT NAME FROM SINGER", "select name from singer")

    def test_alias_vs_plain_equal(self):
        assert same_query(
            "SELECT T1.name FROM singer AS T1",
            "SELECT name FROM singer",
        )

    def test_multi_table_qualifiers_kept(self):
        out = resolved(
            "SELECT a.x FROM a JOIN b ON a.id = b.id"
        )
        assert "a.x" in out

    def test_derived_table_alias_kept(self):
        out = resolved("SELECT q.x FROM (SELECT x FROM t) AS q")
        assert "AS q" in out

    def test_subquery_scope_independent(self):
        sql = (
            "SELECT T1.name FROM singer AS T1 WHERE T1.id IN "
            "(SELECT T1.sid FROM concert AS T1)"
        )
        out = resolved(sql)
        # Inner T1 resolves to concert, outer to singer.
        assert "concert" in out.lower()
        assert "T1" not in out

    def test_different_queries_not_equal(self):
        assert not same_query(
            "SELECT name FROM singer", "SELECT age FROM singer"
        )

    def test_limit_differs(self):
        assert not same_query(
            "SELECT a FROM t LIMIT 1", "SELECT a FROM t LIMIT 2"
        )


class TestIdempotence:
    def test_resolve_preserves_semantics_fields(self):
        query = parse("SELECT a FROM t WHERE b = 1 GROUP BY a HAVING count(*) > 2 "
                      "ORDER BY a DESC LIMIT 3")
        out = resolve_aliases(query)
        assert out.core.limit == 3
        assert out.core.order_by[0].direction == "DESC"
        assert out.core.having is not None
