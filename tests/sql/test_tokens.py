"""Tokenizer unit tests."""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.generator.corpus import build_corpus
from repro.errors import SQLSyntaxError
from repro.experiments.context import FULL_CONFIG
from repro.sql.tokens import KEYWORDS, Token, TokenType, tokenize


def types(sql):
    return [t.type for t in tokenize(sql)[:-1]]


def values(sql):
    return [t.value for t in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_uppercased(self):
        assert values("select from where")[:3] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_preserved(self):
        tokens = tokenize("SELECT Name FROM Singer")
        assert tokens[1].value == "Name"
        assert tokens[3].value == "Singer"

    def test_keyword_detection_case_insensitive(self):
        for text in ("select", "SELECT", "SeLeCt"):
            token = tokenize(text)[0]
            assert token.type is TokenType.KEYWORD
            assert token.value == "SELECT"

    def test_eof_appended(self):
        assert tokenize("SELECT 1")[-1].type is TokenType.EOF

    def test_empty_input(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF


class TestLiterals:
    def test_integer(self):
        token = tokenize("42")[0]
        assert token.type is TokenType.NUMBER
        assert token.value == "42"

    def test_float(self):
        assert tokenize("3.14")[0].value == "3.14"

    def test_leading_dot_float(self):
        assert tokenize(".5")[0].value == ".5"

    def test_single_quoted_string(self):
        token = tokenize("'hello'")[0]
        assert token.type is TokenType.STRING
        assert token.value == "hello"

    def test_double_quoted_string(self):
        assert tokenize('"hello"')[0].value == "hello"

    def test_escaped_quote(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_string_with_spaces(self):
        assert tokenize("'New York'")[0].value == "New York"


class TestOperators:
    def test_comparison_operators(self):
        assert values("a >= 1") == ["a", ">=", "1"]
        assert values("a <= 1")[1] == "<="

    def test_not_equal_canonicalised(self):
        assert tokenize("a <> b")[1].value == "!="
        assert tokenize("a != b")[1].value == "!="

    def test_star_is_punct(self):
        token = tokenize("*")[0]
        assert token.type is TokenType.PUNCT
        assert token.value == "*"

    def test_arithmetic(self):
        assert values("a + b - c / d") == ["a", "+", "b", "-", "c", "/", "d"]


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert values("SELECT 1 -- comment here") == ["SELECT", "1"]

    def test_whitespace_runs(self):
        assert values("SELECT\n\t 1") == ["SELECT", "1"]


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @foo")

    def test_error_carries_position(self):
        with pytest.raises(SQLSyntaxError) as excinfo:
            tokenize("SELECT ¤")
        assert excinfo.value.position == 7


class TestTokenHelpers:
    def test_is_keyword(self):
        token = Token(TokenType.KEYWORD, "SELECT")
        assert token.is_keyword("SELECT")
        assert token.is_keyword("SELECT", "FROM")
        assert not token.is_keyword("FROM")

    def test_ident_not_keyword(self):
        token = Token(TokenType.IDENT, "select_col")
        assert not token.is_keyword("SELECT")


class TestTokenType:
    def test_constructor_and_fields(self):
        token = Token(TokenType.IDENT, "name", 7)
        assert (token.type, token.value, token.position) == (
            TokenType.IDENT, "name", 7)
        assert Token(TokenType.EOF, "").position == 0
        assert Token(type=TokenType.OP, value="=", position=2) == Token(
            TokenType.OP, "=", 2)

    def test_immutable(self):
        token = Token(TokenType.IDENT, "name", 7)
        with pytest.raises(AttributeError):
            token.value = "other"

    def test_exported_from_the_package(self):
        import repro.sql

        assert repro.sql.Token is Token
        assert repro.sql.tokenize is tokenize


# -- the tokenizer as it was before tokens were built in one pass --------------

_REFERENCE_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<string>'(?:[^']|'')*'|"(?:[^"]|"")*")
  | (?P<number>\d+\.\d+|\.\d+|\d+)
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<quoted_ident>`[^`]+`|\[[^\]]+\])
  | (?P<op><>|!=|>=|<=|=|<|>|\|\||[+\-*/%])
  | (?P<punct>[(),.;])
    """,
    re.VERBOSE,
)


def reference_tokenize(sql):
    """A copy of the two-pass tokenizer, as (type, value, position)."""
    tokens = []
    pos = 0
    length = len(sql)
    while pos < length:
        match = _REFERENCE_RE.match(sql, pos)
        if match is None:
            raise SQLSyntaxError(
                f"unexpected character {sql[pos]!r} at offset {pos}",
                sql=sql, position=pos,
            )
        start = pos
        pos = match.end()
        kind = match.lastgroup
        text = match.group()
        if kind in ("ws", "comment"):
            continue
        if kind == "string":
            quote = text[0]
            tokens.append((TokenType.STRING,
                           text[1:-1].replace(quote * 2, quote), start))
        elif kind == "number":
            tokens.append((TokenType.NUMBER, text, start))
        elif kind == "word":
            upper = text.upper()
            if upper in KEYWORDS:
                tokens.append((TokenType.KEYWORD, upper, start))
            else:
                tokens.append((TokenType.IDENT, text, start))
        elif kind == "quoted_ident":
            tokens.append((TokenType.IDENT, text[1:-1], start))
        elif kind == "op":
            tokens.append((TokenType.OP, "!=" if text == "<>" else text, start))
        else:
            tokens.append((TokenType.PUNCT, text, start))
    tokens = [
        (TokenType.PUNCT, "*", p) if t is TokenType.OP and v == "*" else (t, v, p)
        for t, v, p in tokens
    ]
    tokens.append((TokenType.EOF, "", length))
    return tokens


def outcome(tokenizer, sql):
    """Tokens as plain triples, or the error's message, text and offset."""
    try:
        return [(t.type, t.value, t.position) if isinstance(t, Token) else t
                for t in tokenizer(sql)]
    except SQLSyntaxError as error:
        return ("error", str(error), error.sql, error.position)


class TestSameAsReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_corpus_sql(self, seed):
        corpus = build_corpus(dataclasses.replace(FULL_CONFIG, seed=seed))
        try:
            sqls = [example.query for split in (corpus.train, corpus.dev)
                    for example in split]
        finally:
            corpus.close()
        for sql in sqls:
            assert outcome(tokenize, sql) == outcome(reference_tokenize, sql)

    @pytest.mark.parametrize("sql", [
        "", "   ", "SELECT @foo", "SELECT ¤", "'unterminated", "a <> b",
        "SELECT * FROM t -- trailing", "`a b` [c d] \"x\"\"y\" 'it''s'",
        "SELECT .5, 1.25, 3 FROM t WHERE a || b % 2 != 1;",
    ])
    def test_edge_cases(self, sql):
        assert outcome(tokenize, sql) == outcome(reference_tokenize, sql)

    @given(st.text(alphabet=st.sampled_from(
        list("SELECTFROMWHEREselectfrom_az019 .,;()*+-/%<>=!|'\"`[]\n\t@#$")
    ), max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_generated_text(self, sql):
        assert outcome(tokenize, sql) == outcome(reference_tokenize, sql)

    @given(st.text(max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_any_text(self, sql):
        assert outcome(tokenize, sql) == outcome(reference_tokenize, sql)
