"""GPT-style token counting (the cost axis of the benchmark).

The paper prices prompts in OpenAI-tokenizer tokens.  Offline we use a
deterministic approximation with the same qualitative behaviour: common
short words are one token, longer words split into ~4-character subword
chunks, punctuation and whitespace runs tokenize like tiktoken does (one
token per symbol, newlines separate).  Counts track tiktoken within a small
constant factor on English/SQL text, which is all the token-efficiency
comparison needs.
"""

from __future__ import annotations

import re
from typing import List

from ..cache.lru import LRUCache

_PIECE_RE = re.compile(r"[A-Za-z]+|\d+|\s+|[^\sA-Za-z\d]")

#: The pieces of :data:`_PIECE_RE` by class: word, digit run, symbol.  The
#: classes are disjoint, so each finds the same runs on its own.
_WORD_RE = re.compile(r"[A-Za-z]+")
_DIGITS_RE = re.compile(r"\d+")
_SYMBOL_RE = re.compile(r"[^\sA-Za-z\d]")

#: Words frequent enough to be single tokens in GPT vocabularies.
_COMMON = frozenset(
    """the of to and a in is it you that he was for on are with as i his they
    be at one have this from or had by word but what some we can out other
    were all there when up use your how said an each she which do their time
    if will way about many then them write would like so these her long make
    thing see him two has look more day could go come did number sound no
    most people my over know water than call first who may down side been now
    find select from where group order limit join table column value name
    database query sql text key foreign primary create not null and or
    count sum avg min max distinct between exists having union intersect
    except desc asc show list many much each every answer question""".split()
)

_SUBWORD_LEN = 4
_DIGITS_PER_TOKEN = 3


def tokenize_pieces(text: str) -> List[str]:
    """Split text into the pieces the counter prices individually."""
    return _PIECE_RE.findall(text)


def count_tokens(text: str) -> int:
    """Approximate GPT token count of ``text``.

    Deterministic, monotone in text length, and sensitive to the same
    things tiktoken is (long identifiers cost more than common words;
    punctuation costs one each).  Each :func:`tokenize_pieces` piece is
    priced by its class, one regex pass per class: a whitespace run
    costs its newlines (spaces mostly merge into the following token), a
    digit run one token per three digits, a symbol one, and a word one
    if it is common or at most four letters long, else one per four.
    """
    total = text.count("\n") + len(_SYMBOL_RE.findall(text))
    for run in _DIGITS_RE.findall(text):
        total += (len(run) + _DIGITS_PER_TOKEN - 1) // _DIGITS_PER_TOKEN
    for word in _WORD_RE.findall(text):
        if len(word) <= _SUBWORD_LEN or word.lower() in _COMMON:
            total += 1
        else:
            total += (len(word) + _SUBWORD_LEN - 1) // _SUBWORD_LEN
    return total


class TokenCounter:
    """Object form of :func:`count_tokens`, with a memo for repeated texts.

    Prompt construction re-counts the same schema/example blocks many times
    during budget fitting; the cache makes that cheap.  The memo is a
    bounded, thread-safe LRU (:mod:`repro.cache.lru`) — previously a dict
    that stopped accepting entries at capacity, it now keeps the *hot*
    texts live however long the sweep runs, and one counter can safely be
    shared by every builder across worker threads.
    """

    def __init__(self, max_cache: int = 50_000):
        self._cache = LRUCache(max_entries=max_cache)

    def count(self, text: str) -> int:
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        value = count_tokens(text)
        self._cache.put(text, value)
        return value
