"""Execution safety gate: statement-kind classification.

The evaluation pipeline must only ever hand read-only SELECTs to SQLite.
This module classifies raw statement text *before* parsing (the parser
only understands the SELECT subset, so a rejected INSERT must be gated
here, not reported as a syntax error) and detects multi-statement input,
which ``sqlite3`` refuses outright ("You can only execute one statement
at a time").
"""

from __future__ import annotations

import re
from typing import List

#: Statement kinds the gate distinguishes.  Only ``"select"`` may reach
#: the execution backend.
STATEMENT_KINDS = ("select", "write", "ddl", "admin", "unknown", "empty")

_KIND_BY_KEYWORD = {
    "select": "select",
    "with": "select",      # CTEs are read-only wrappers around SELECT
    "values": "select",
    "insert": "write",
    "replace": "write",
    "update": "write",
    "delete": "write",
    "create": "ddl",
    "drop": "ddl",
    "alter": "ddl",
    "truncate": "ddl",
    "pragma": "admin",
    "attach": "admin",
    "detach": "admin",
    "vacuum": "admin",
    "analyze": "admin",
    "reindex": "admin",
    "begin": "admin",
    "commit": "admin",
    "rollback": "admin",
    "explain": "admin",
}

_LEADING_COMMENT_RE = re.compile(r"^(?:\s+|--[^\n]*\n?|/\*.*?\*/)+", re.DOTALL)
_FIRST_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def strip_leading_trivia(sql: str) -> str:
    """Drop leading whitespace and SQL comments."""
    match = _LEADING_COMMENT_RE.match(sql)
    return sql[match.end():] if match else sql


def classify_statement(sql: str) -> str:
    """Classify one statement's kind from its leading keyword.

    Returns one of :data:`STATEMENT_KINDS`; anything that does not start
    with a known keyword (prose, a truncated fragment) is ``"unknown"``
    — the gate treats unknown like non-SELECT and refuses to execute it,
    but the parser usually produces a sharper syntax diagnostic first.
    """
    body = strip_leading_trivia(sql)
    if not body.strip():
        return "empty"
    # A parenthesised query "(SELECT ...)" is still a select.
    while body.startswith("("):
        body = body[1:].lstrip()
    word = _FIRST_WORD_RE.match(body)
    if word is None:
        return "unknown"
    return _KIND_BY_KEYWORD.get(word.group().lower(), "unknown")


def split_statements(text: str) -> List[str]:
    """Split SQL text on top-level semicolons, respecting quotes.

    Semicolons inside ``'...'`` or ``"..."`` literals (with doubled-quote
    escapes) do not split.  Empty fragments are dropped; a lone trailing
    semicolon therefore yields one statement.

    Text without a semicolon is one statement (or none) and is not
    walked.
    """
    if ";" not in text:
        stripped = text.strip()
        return [stripped] if stripped else []
    statements: List[str] = []
    current: List[str] = []
    quote = ""
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if quote:
            current.append(char)
            if char == quote:
                if index + 1 < length and text[index + 1] == quote:
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
