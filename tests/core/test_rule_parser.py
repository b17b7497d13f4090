"""Rule-based parser tests."""

import pytest

from repro.core.rule_parser import RuleBasedParser
from repro.sql.canonical import resolve_aliases
from repro.sql.parser import parse


def same_query(a, b):
    """Equal after alias resolution and case folding."""
    return resolve_aliases(parse(a)) == resolve_aliases(parse(b))


@pytest.fixture()
def parser(toy_schema):
    return RuleBasedParser(toy_schema)


class TestIntents:
    def test_count(self, parser):
        result = parser.parse("How many singers are there?")
        assert same_query(result.sql, "SELECT count(*) FROM singer")

    def test_count_phrase_variants(self, parser):
        for phrasing in ("Count the singers.", "What is the total number of singers?"):
            result = parser.parse(phrasing)
            assert "COUNT(*)" in result.sql

    def test_average(self, parser):
        result = parser.parse("What is the average age of singers?")
        assert same_query(result.sql, "SELECT avg(age) FROM singer")

    def test_max(self, parser):
        result = parser.parse("What is the highest age among singers?")
        assert same_query(result.sql, "SELECT max(age) FROM singer")

    def test_projection(self, parser):
        result = parser.parse("List the name of all singers.")
        assert same_query(result.sql, "SELECT name FROM singer")

    def test_multi_column_projection(self, parser):
        result = parser.parse("Show the name and country of each singer.")
        parsed = parse(result.sql)
        columns = {item.expr.column for item in parsed.core.items}
        assert columns == {"name", "country"}


class TestFilters:
    def test_numeric_greater(self, parser):
        result = parser.parse("List the name of singers whose age is greater than 30.")
        assert same_query(
            result.sql, "SELECT name FROM singer WHERE age > 30"
        )

    def test_numeric_less(self, parser):
        result = parser.parse("List the name of singers younger than 30.")
        assert "age < 30" in result.sql

    def test_string_equality(self, parser):
        result = parser.parse('Show the name of singers whose country is "France".')
        assert "country = 'France'" in result.sql

    def test_contains(self, parser):
        result = parser.parse(
            'List the name of concerts whose title contains the word "Fest".'
        )
        assert "LIKE '%Fest%'" in result.sql


class TestOrdering:
    def test_top_k(self, parser):
        result = parser.parse("List the name of the 3 singers with the highest age.")
        parsed = parse(result.sql)
        assert parsed.core.limit == 3
        assert parsed.core.order_by[0].direction == "DESC"

    def test_ascending_order(self, parser):
        result = parser.parse("List the age of singers in ascending order of age.")
        parsed = parse(result.sql)
        assert parsed.core.limit is None
        assert parsed.core.order_by[0].direction == "ASC"

    def test_at_least_not_ordering(self, parser):
        result = parser.parse(
            "List the name of singers with age of at least 30."
        )
        parsed = parse(result.sql)
        assert parsed.core.limit is None


class TestJoin:
    def test_join_through_fk(self, parser):
        result = parser.parse(
            'List the title of concerts of the singer whose name is "Ava Lee".'
        )
        assert "JOIN" in result.sql
        assert "'Ava Lee'" in result.sql


class TestRobustness:
    def test_unanchored_question(self, parser):
        result = parser.parse("Tell me a joke please.")
        assert result.query is None
        assert result.confidence == 0.0

    def test_confidence_bounded(self, parser):
        for question in ("How many singers?", "List names.", "age age age"):
            result = parser.parse(question)
            assert 0.0 <= result.confidence <= 1.0

    def test_always_produces_valid_sql_on_corpus(self, corpus):
        """Every parse on the benchmark is either None or valid SQL."""
        from repro.sql.parser import try_parse

        for db_id in corpus.dev.schemas:
            rule_parser = RuleBasedParser(corpus.dev.schema(db_id))
            for example in [e for e in corpus.dev if e.db_id == db_id][:10]:
                result = rule_parser.parse(example.question)
                if result.query is not None:
                    assert try_parse(result.sql) is not None

    def test_nontrivial_accuracy_on_corpus(self, corpus):
        """The baseline clears a floor well above random on execution."""
        from repro.db.execution import results_match

        pool = corpus.pool()
        correct = total = 0
        for example in corpus.dev:
            rule_parser = RuleBasedParser(corpus.dev.schema(example.db_id))
            result = rule_parser.parse(example.question)
            total += 1
            if result.query is None:
                continue
            database = pool.get(example.db_id)
            rows = database.try_execute(result.sql)
            if rows is None:
                continue
            gold = database.execute(example.query)
            if results_match(gold, rows, example.query):
                correct += 1
        assert correct / total > 0.12
