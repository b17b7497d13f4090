"""Safety gate tests: statement classification and splitting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.safety import (
    STATEMENT_KINDS,
    classify_statement,
    split_statements,
    strip_leading_trivia,
)


class TestClassify:
    @pytest.mark.parametrize("sql,kind", [
        ("SELECT 1", "select"),
        ("select name from singer", "select"),
        ("WITH x AS (SELECT 1) SELECT * FROM x", "select"),
        ("VALUES (1, 2)", "select"),
        ("(SELECT 1)", "select"),
        ("((SELECT 1))", "select"),
        ("INSERT INTO t VALUES (1)", "write"),
        ("UPDATE t SET a = 1", "write"),
        ("DELETE FROM t", "write"),
        ("REPLACE INTO t VALUES (1)", "write"),
        ("CREATE TABLE t (a)", "ddl"),
        ("DROP TABLE t", "ddl"),
        ("ALTER TABLE t ADD COLUMN b", "ddl"),
        ("PRAGMA journal_mode", "admin"),
        ("ATTACH DATABASE 'x' AS y", "admin"),
        ("VACUUM", "admin"),
        ("EXPLAIN SELECT 1", "admin"),
        ("BEGIN", "admin"),
        ("", "empty"),
        ("   \n\t ", "empty"),
        ("hello world", "unknown"),
        ("123 SELECT", "unknown"),
    ])
    def test_kinds(self, sql, kind):
        assert classify_statement(sql) == kind
        assert kind in STATEMENT_KINDS

    def test_leading_comment_ignored(self):
        assert classify_statement("-- note\nSELECT 1") == "select"
        assert classify_statement("/* block */ DELETE FROM t") == "write"

    def test_comment_only_is_empty(self):
        assert classify_statement("-- just a comment") == "empty"


class TestStripTrivia:
    def test_whitespace(self):
        assert strip_leading_trivia("  SELECT 1") == "SELECT 1"

    def test_line_comment(self):
        assert strip_leading_trivia("-- c\nSELECT 1") == "SELECT 1"

    def test_block_comment(self):
        assert strip_leading_trivia("/* c */SELECT 1") == "SELECT 1"

    def test_no_trivia(self):
        assert strip_leading_trivia("SELECT 1") == "SELECT 1"


class TestSplitStatements:
    def test_single(self):
        assert split_statements("SELECT 1") == ["SELECT 1"]

    def test_two(self):
        assert split_statements("SELECT 1; SELECT 2") == \
            ["SELECT 1", "SELECT 2"]

    def test_trailing_semicolon_is_one(self):
        assert split_statements("SELECT 1;") == ["SELECT 1"]

    def test_quoted_semicolon_kept(self):
        assert split_statements("SELECT 'a;b' FROM t") == \
            ["SELECT 'a;b' FROM t"]

    def test_double_quoted_semicolon_kept(self):
        assert split_statements('SELECT "a;b" FROM t') == \
            ['SELECT "a;b" FROM t']

    def test_doubled_quote_escape(self):
        sql = "SELECT 'it''s;fine' FROM t"
        assert split_statements(sql) == [sql]

    def test_empty_fragments_dropped(self):
        assert split_statements(";;SELECT 1;;") == ["SELECT 1"]

    def test_empty_input(self):
        assert split_statements("") == []
        assert split_statements("  ;  ") == []


def _split_by_walking(text):
    """The character walk ``split_statements`` does on text with a
    semicolon, applied to every text."""
    statements, current, quote = [], [], ""
    index = 0
    while index < len(text):
        char = text[index]
        if quote:
            current.append(char)
            if char == quote:
                if index + 1 < len(text) and text[index + 1] == quote:
                    current.append(quote)
                    index += 1
                else:
                    quote = ""
        elif char in "'\"":
            quote = char
            current.append(char)
        elif char == ";":
            statements.append("".join(current))
            current = []
        else:
            current.append(char)
        index += 1
    statements.append("".join(current))
    return [s.strip() for s in statements if s.strip()]


class TestSplitFastPath:
    """Text without a semicolon skips the walk and splits exactly as the
    walk would."""

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=st.sampled_from(list("ab ;'\"\n\t")), max_size=30))
    def test_matches_the_walk(self, text):
        assert split_statements(text) == _split_by_walking(text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(
        ["SELECT 1", " ", ";", "'", '"', "''", '""', "'a;b'", "x", "\n"]
    ), max_size=12))
    def test_matches_the_walk_on_sql_pieces(self, pieces):
        text = "".join(pieces)
        assert split_statements(text) == _split_by_walking(text)

    def test_no_semicolon(self):
        assert split_statements("  SELECT 'a'  ") == ["SELECT 'a'"]
        assert split_statements(" \n ") == []
