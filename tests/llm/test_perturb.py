"""Perturbation and equivalent-rewrite tests."""

import random


from repro.llm.perturb import (
    FAR_MODES,
    NEAR_MODES,
    equivalent_rewrite,
    perturb_sql,
)
from repro.sql.canonical import resolve_aliases
from repro.sql.parser import parse, try_parse


def rng(seed=0):
    return random.Random(seed)


class TestPerturbSql:
    GOLD = ("SELECT name FROM singer WHERE age > 30 AND country = 'France' "
            "ORDER BY age DESC LIMIT 3")

    def test_output_differs_from_gold(self, toy_schema):
        for seed in range(10):
            out = perturb_sql(self.GOLD, toy_schema, rng(seed), severity=0.5)
            assert (
                resolve_aliases(parse(self.GOLD)) != resolve_aliases(parse(out))
                or out != self.GOLD
            )

    def test_low_severity_output_parses(self, toy_schema):
        for seed in range(10):
            out = perturb_sql(self.GOLD, toy_schema, rng(seed), severity=0.2)
            assert try_parse(out) is not None

    def test_high_severity_sometimes_malformed(self, toy_schema):
        outputs = [
            perturb_sql(self.GOLD, toy_schema, rng(seed), severity=0.95)
            for seed in range(30)
        ]
        assert any(try_parse(o) is None for o in outputs)

    def test_deterministic(self, toy_schema):
        a = perturb_sql(self.GOLD, toy_schema, rng(7), severity=0.5)
        b = perturb_sql(self.GOLD, toy_schema, rng(7), severity=0.5)
        assert a == b

    def test_unparseable_gold_returned_verbatim(self, toy_schema):
        assert perturb_sql("broken ¤ sql", toy_schema, rng(0), 0.5) == "broken ¤ sql"

    def test_most_failures_change_execution(self, toy_schema, toy_rows):
        """The perturbation must usually change the result set."""
        from repro.db.sqlite_backend import Database

        gold = "SELECT name FROM singer WHERE age > 28"
        with Database.build(toy_schema, toy_rows) as db:
            gold_rows = sorted(db.execute(gold))
            same = 0
            total = 40
            for seed in range(total):
                out = perturb_sql(gold, toy_schema, rng(seed), severity=0.5)
                rows = db.try_execute(out)
                if rows is not None and sorted(rows) == gold_rows:
                    same += 1
            assert same <= total // 4


class TestModes:
    def test_wrong_column_changes_projection(self, toy_schema):
        query = parse("SELECT name FROM singer")
        out = FAR_MODES[0](query, toy_schema, rng(1))
        assert out is not None
        assert out.core.items[0].expr.column != "name"

    def test_drop_condition(self, toy_schema):
        query = parse("SELECT name FROM singer WHERE age > 10 AND country = 'x'")
        out = FAR_MODES[1](query, toy_schema, rng(0))
        assert out is not None
        # One conjunct dropped.
        from repro.sql.ast_nodes import AndCondition

        assert not isinstance(out.core.where, AndCondition)

    def test_wrong_aggregate_swaps(self, toy_schema):
        query = parse("SELECT max(age) FROM singer")
        out = FAR_MODES[2](query, toy_schema, rng(0))
        assert out.core.items[0].expr.name == "MIN"

    def test_flip_order(self, toy_schema):
        query = parse("SELECT name FROM singer ORDER BY age DESC")
        out = NEAR_MODES[1](query, toy_schema, rng(0))
        assert out.core.order_by[0].direction == "ASC"

    def test_drop_limit(self, toy_schema):
        query = parse("SELECT name FROM singer LIMIT 3")
        out = NEAR_MODES[2](query, toy_schema, rng(0))
        assert out.core.limit is None

    def test_modes_return_none_when_inapplicable(self, toy_schema):
        query = parse("SELECT name FROM singer")
        assert NEAR_MODES[1](query, toy_schema, rng(0)) is None  # no ORDER BY
        assert NEAR_MODES[2](query, toy_schema, rng(0)) is None  # no LIMIT


class TestEquivalentRewrite:
    def test_count_star_rewrite_preserves_execution(self, toy_schema, toy_rows):
        from repro.db.sqlite_backend import Database

        gold = "SELECT count(*) FROM singer"
        out = equivalent_rewrite(gold, toy_schema, rng(0))
        assert out != gold
        with Database.build(toy_schema, toy_rows) as db:
            assert db.execute(gold) == db.execute(out)

    def test_integer_bound_rewrite_preserves_execution(self, toy_schema, toy_rows):
        from repro.db.sqlite_backend import Database

        gold = "SELECT name FROM singer WHERE age > 29"
        with Database.build(toy_schema, toy_rows) as db:
            for seed in range(5):
                out = equivalent_rewrite(gold, toy_schema, rng(seed))
                assert sorted(db.execute(out)) == sorted(db.execute(gold))

    def test_rewrite_breaks_exact_match(self, toy_schema):
        from repro.eval.exact_match import exact_match

        gold = "SELECT count(*) FROM singer"
        out = equivalent_rewrite(gold, toy_schema, rng(0))
        assert not exact_match(gold, out)

    def test_no_rewrite_possible_returns_gold(self, toy_schema):
        gold = "SELECT name FROM singer"
        assert equivalent_rewrite(gold, toy_schema, rng(0)) == gold


class TestNewModes:
    def test_wrong_join_key(self, toy_schema):
        from repro.llm.perturb import _wrong_join_key

        query = parse(
            "SELECT title FROM concert JOIN singer "
            "ON concert.singer_id = singer.singer_id"
        )
        out = _wrong_join_key(query, toy_schema, rng(0))
        assert out is not None
        condition = out.core.from_clause.joins[0].condition
        assert condition.left.column != "singer_id"

    def test_wrong_join_key_none_without_join(self, toy_schema):
        from repro.llm.perturb import _wrong_join_key

        assert _wrong_join_key(parse("SELECT a FROM singer"),
                               toy_schema, rng(0)) is None

    def test_drop_group_by(self, toy_schema):
        from repro.llm.perturb import _drop_group_by

        query = parse(
            "SELECT country, count(*) FROM singer GROUP BY country "
            "HAVING count(*) > 1"
        )
        out = _drop_group_by(query, toy_schema, rng(0))
        assert out.core.group_by == ()
        assert out.core.having is None

    def test_drop_group_by_none_without_group(self, toy_schema):
        from repro.llm.perturb import _drop_group_by

        assert _drop_group_by(parse("SELECT a FROM singer"),
                              toy_schema, rng(0)) is None


class TestFlipComparisonRewrite:
    def test_flip_preserves_execution(self, toy_schema, toy_rows):
        from repro.db.sqlite_backend import Database
        from repro.llm.perturb import _rewrite_flip_comparison

        gold = parse("SELECT name FROM singer WHERE age > 29")
        flipped = _rewrite_flip_comparison(gold, toy_schema, rng(0))
        assert flipped is not None
        from repro.sql.unparse import unparse

        with Database.build(toy_schema, toy_rows) as db:
            assert sorted(db.execute(unparse(gold))) == \
                sorted(db.execute(unparse(flipped)))

    def test_flip_breaks_exact_match(self, toy_schema):
        from repro.eval.exact_match import exact_match
        from repro.llm.perturb import _rewrite_flip_comparison
        from repro.sql.unparse import unparse

        gold = parse("SELECT name FROM singer WHERE age > 29")
        flipped = _rewrite_flip_comparison(gold, toy_schema, rng(0))
        assert not exact_match(unparse(gold), unparse(flipped))

    def test_flip_direction_correct(self, toy_schema):
        from repro.llm.perturb import _rewrite_flip_comparison

        gold = parse("SELECT a FROM singer WHERE age >= 10")
        flipped = _rewrite_flip_comparison(gold, toy_schema, rng(0))
        where = flipped.core.where
        assert where.op == "<="
        assert where.left.value == "10"

    def test_no_literal_no_flip(self, toy_schema):
        from repro.llm.perturb import _rewrite_flip_comparison

        gold = parse("SELECT a FROM singer WHERE age > singer_id")
        assert _rewrite_flip_comparison(gold, toy_schema, rng(0)) is None
