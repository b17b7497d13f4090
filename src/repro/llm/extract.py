"""Extract SQL from raw model output.

Real LLM responses wrap SQL in code fences, prefix it with prose, or emit a
bare completion of the prompt's ``SELECT`` lead-in.  This module implements
the post-processing every LLM Text-to-SQL pipeline ships: find the query,
strip decoration, reattach the lead-in.
"""

from __future__ import annotations

import re

from ..analysis.safety import (
    classify_statement,
    split_statements,
    strip_leading_trivia,
)

_CODE_FENCE_RE = re.compile(r"```(?:sql)?\s*(.*?)```", re.DOTALL | re.IGNORECASE)
_SELECT_RE = re.compile(r"\bSELECT\b", re.IGNORECASE)
_CALL_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\s*\(")


def extract_sql(text: str, response_prefix: str = "SELECT") -> str:
    """Pull the SQL query out of a model response.

    Strategy, in order: fenced code block → first SELECT onwards → the
    whole text when it opens with a statement keyword (``DROP TABLE t``
    stays a DROP, for the safety gate to refuse) → treat the whole text
    as a completion of ``response_prefix``.

    Returns the best-effort SQL string (possibly invalid — evaluation
    scores that as a failure, it is not this function's job to repair it).
    """
    text = text.strip()
    if not text:
        return ""

    fence = _CODE_FENCE_RE.search(text)
    if fence:
        text = fence.group(1).strip()

    match = _SELECT_RE.search(text)
    if match:
        candidate = text[match.start():]
        return _truncate_at_boundary(candidate)

    if response_prefix and not _opens_statement(text):
        # The model completed the prompt's lead-in ("SELECT" was in the
        # prompt, the response starts mid-query).
        return _truncate_at_boundary(f"{response_prefix} {text}")
    return _truncate_at_boundary(text)


def _opens_statement(text: str) -> bool:
    """True when ``text`` opens with a statement keyword (``DROP``,
    ``DELETE``, ``INSERT``, ...): a whole statement, not a completion of
    the prompt's lead-in.  A keyword called as a function, as in
    ``replace(name, 'a', 'b') FROM t``, still opens a completion."""
    return (
        classify_statement(text) != "unknown"
        and _CALL_RE.match(strip_leading_trivia(text)) is None
    )


def _truncate_at_boundary(sql: str) -> str:
    """Cut the query at a statement boundary or an obvious prose line.

    The statement split is quote-aware (a semicolon inside a ``'...'``
    literal does not truncate).  When a fenced block carries several
    statements, only the first is returned — the static analyzer flags
    raw multi-statement output separately, but extraction must not hand
    ``sqlite3`` text it refuses outright.
    """
    statements = split_statements(sql)
    if statements:
        sql = statements[0]
    # Drop trailing prose that starts on a new line without SQL keywords.
    lines = sql.splitlines()
    kept = []
    for line in lines:
        stripped = line.strip()
        if kept and stripped and _looks_like_prose(stripped):
            break
        kept.append(line)
    return "\n".join(kept).strip()


_PROSE_STARTERS = (
    "this query", "the query", "explanation", "note:", "here", "it ",
    "i ", "above", "in this",
)


def _looks_like_prose(line: str) -> bool:
    lowered = line.lower()
    return any(lowered.startswith(p) for p in _PROSE_STARTERS)
