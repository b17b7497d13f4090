"""Small text utilities shared across the library."""

from __future__ import annotations

import re
import unicodedata
from typing import Iterable, List

_WORD_RE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")
_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")

# A compact English stopword list; enough for question masking / similarity.
STOPWORDS = frozenset(
    """a an the of for in on at to from by with and or is are was were be been
    do does did what which who whom whose when where how why show me give list
    find return all each every per than then that this those these there it
    its their his her as into onto not no""".split()
)


def normalize_whitespace(text: str) -> str:
    """Collapse runs of whitespace into single spaces and strip the ends.

    ``str.split`` and the regex ``\\s`` agree on what is whitespace, so
    this equals ``re.sub(r"\\s+", " ", text).strip()`` at a fifth of the
    cost (the gold oracle keys every lookup with it).
    """
    return " ".join(text.split())


def strip_accents(text: str) -> str:
    """Remove diacritics (``café`` → ``cafe``)."""
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def word_tokenize(text: str) -> List[str]:
    """Split text into lowercase word and punctuation tokens.

    ``"Show VIP users!"`` → ``["show", "vip", "users", "!"]``
    """
    return [t.lower() for t in _WORD_RE.findall(text)]


def content_words(text: str) -> List[str]:
    """Word tokens with stopwords and punctuation removed."""
    return [
        t for t in word_tokenize(text)
        if t not in STOPWORDS and any(c.isalnum() for c in t)
    ]


def snake_to_words(identifier: str) -> List[str]:
    """Split an identifier into its lowercase word parts.

    Handles both ``snake_case`` and ``camelCase``:
    ``"pet_age"`` → ``["pet", "age"]``; ``"petAge"`` → ``["pet", "age"]``.
    """
    spaced = _CAMEL_RE.sub(" ", identifier).replace("_", " ")
    return [w.lower() for w in spaced.split() if w]


def char_ngrams(text: str, n: int = 3) -> List[str]:
    """Character n-grams of a padded lowercase string."""
    if not text:
        return []
    padded = f"#{text.lower()}#"
    if len(padded) < n:
        return [padded]
    return [padded[i:i + n] for i in range(len(padded) - n + 1)]


def truncate_middle(text: str, max_len: int, marker: str = " ... ") -> str:
    """Shorten ``text`` to ``max_len`` characters by removing the middle."""
    if len(text) <= max_len:
        return text
    if max_len <= len(marker):
        return text[:max_len]
    keep = max_len - len(marker)
    head = keep - keep // 2
    tail = keep // 2
    return text[:head] + marker + (text[-tail:] if tail else "")


def indent_block(text: str, prefix: str = "    ") -> str:
    """Prefix every non-empty line of ``text`` with ``prefix``."""
    return "\n".join(prefix + line if line else line for line in text.splitlines())


def join_nonempty(parts: Iterable[str], sep: str = "\n") -> str:
    """Join the truthy elements of ``parts`` with ``sep``."""
    return sep.join(p for p in parts if p)
