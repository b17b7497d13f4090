"""SQL tokenizer for the Spider SQL subset.

Produces a flat list of typed :class:`Token` objects.  The tokenizer is
shared by the parser, the skeleton extractor and the token-efficiency
accounting, so it is deliberately strict: any character it does not
understand raises :class:`~repro.errors.SQLSyntaxError` rather than being
silently skipped.
"""

from __future__ import annotations

import enum
import re
from typing import Iterator, List, NamedTuple

from ..errors import SQLSyntaxError

#: Keywords of the Spider SQL subset.  Matching is case-insensitive; the
#: canonical (upper-case) spelling is stored in :attr:`Token.value`.
KEYWORDS = frozenset(
    """SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT JOIN INNER LEFT RIGHT
    OUTER ON USING AS AND OR NOT IN LIKE BETWEEN EXISTS IS NULL DISTINCT UNION
    INTERSECT EXCEPT ASC DESC COUNT SUM AVG MIN MAX CAST ABS ROUND LENGTH
    CASE WHEN THEN ELSE END ALL""".split()
)

#: Aggregate function names (subset of KEYWORDS used as function heads).
AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

#: Scalar function names accepted in expressions.
SCALAR_FUNCTIONS = frozenset({"ABS", "ROUND", "LENGTH", "CAST"})


class TokenType(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OP = "op"          # comparison and arithmetic operators
    PUNCT = "punct"    # ( ) , . ; *
    EOF = "eof"


class Token(NamedTuple):
    """A single lexical token (immutable).

    Attributes:
        type: lexical category.
        value: canonical text — keywords upper-cased, identifiers as written
            (quotes stripped), strings without their surrounding quotes.
        position: character offset in the source text.
    """

    type: TokenType
    value: str
    position: int = 0

    def is_keyword(self, *names: str) -> bool:
        """True if this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in names

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.value}:{self.value}"


_TOKEN_RE = re.compile(
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

# Double-quoted text is an identifier in standard SQL but Spider corpora use
# it for string literals; we follow Spider and treat both quote styles as
# string literals.  Backticks/brackets are always identifiers.

# Token constructors and types, bound once for tokenize's loop.
_new = tuple.__new__
_KEYWORD = TokenType.KEYWORD
_IDENT = TokenType.IDENT
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING
_OP = TokenType.OP
_PUNCT = TokenType.PUNCT


def tokenize(sql: str) -> List[Token]:
    """Tokenize SQL text into a list ending with an EOF token.

    One pass over the regex matches.  Each token is made by
    ``tuple.__new__`` from its field tuple, skipping a Python-level
    constructor call per token.

    Raises:
        SQLSyntaxError: on any character sequence outside the grammar.
    """
    tokens: List[Token] = []
    append = tokens.append
    pos = 0
    for match in _TOKEN_RE.finditer(sql):
        start = match.start()
        if start != pos:
            break  # sql[pos] starts no token
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        text = match.group()
        if kind == "word":
            upper = text.upper()
            if upper in KEYWORDS:
                append(_new(Token, (_KEYWORD, upper, start)))
            else:
                append(_new(Token, (_IDENT, text, start)))
        elif kind == "punct":
            append(_new(Token, (_PUNCT, text, start)))
        elif kind == "op":
            # '*' is matched by the op group; tag it as punctuation so the
            # parser can treat SELECT * and COUNT(*) uniformly.
            if text == "*":
                append(_new(Token, (_PUNCT, text, start)))
            else:
                append(_new(Token, (_OP, "!=" if text == "<>" else text, start)))
        elif kind == "number":
            append(_new(Token, (_NUMBER, text, start)))
        elif kind == "string":
            quote = text[0]
            body = text[1:-1].replace(quote * 2, quote)
            append(_new(Token, (_STRING, body, start)))
        else:  # quoted_ident
            append(_new(Token, (_IDENT, text[1:-1], start)))
    length = len(sql)
    if pos != length:
        raise SQLSyntaxError(
            f"unexpected character {sql[pos]!r} at offset {pos}",
            sql=sql,
            position=pos,
        )
    append(_new(Token, (TokenType.EOF, "", length)))
    return tokens


def iter_significant(tokens: List[Token]) -> Iterator[Token]:
    """Yield all tokens except the trailing EOF."""
    for token in tokens:
        if token.type is TokenType.EOF:
            return
        yield token
