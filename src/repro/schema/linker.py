"""Schema linking: find schema-element and value mentions in a question.

Used in two places:

* **Masked-question similarity** (MQS_S) and **DAIL selection** (DAIL_S)
  replace domain-specific words in the question with ``<mask>`` before
  computing similarity, so examples are matched on *intent* rather than on
  shared table names.
* The simulated LLM uses the linking coverage as one feature of how hard a
  question is for a model to ground.

The linker matches longest-first n-grams of the question against table and
column vocabulary (both original identifiers and natural-language names),
and flags numbers, quoted spans and capitalised non-initial words as value
mentions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..sql.parser import scope_memo
from ..utils.text import STOPWORDS, snake_to_words
from .model import DatabaseSchema

_TOKEN_RE = re.compile(r"[A-Za-z0-9_']+|[^\sA-Za-z0-9_']")
_QUOTED_RE = re.compile(r"\"[^\"]+\"|'[^']+'|“[^”]+”")
_NUMBER_RE = re.compile(r"\d+(\.\d+)?")

MASK_TOKEN = "<mask>"

#: Maximum n-gram length considered when matching schema phrases.
_MAX_NGRAM = 4


@dataclass(frozen=True)
class Mention:
    """One linked span of the question.

    Attributes:
        start: token index of the first word of the mention.
        end: token index one past the mention.
        kind: ``"table"`` / ``"column"`` / ``"value"``.
        target: the matched schema element (``table`` or ``table.column``),
            or the literal text for values.
    """

    start: int
    end: int
    kind: str
    target: str


@dataclass
class SchemaLinking:
    """Result of linking one question against one schema."""

    question: str
    tokens: List[str]
    mentions: List[Mention] = field(default_factory=list)
    #: :meth:`coverage`, once computed (a linking is complete when
    #: :meth:`SchemaLinker.link` returns it).
    _coverage: Optional[float] = field(
        default=None, init=False, repr=False, compare=False
    )

    def tables(self) -> Set[str]:
        """Distinct tables mentioned (directly or via a column)."""
        found = set()
        for mention in self.mentions:
            if mention.kind == "table":
                found.add(mention.target)
            elif mention.kind == "column":
                found.add(mention.target.split(".", 1)[0])
        return found

    def columns(self) -> Set[str]:
        return {m.target for m in self.mentions if m.kind == "column"}

    def values(self) -> List[str]:
        return [m.target for m in self.mentions if m.kind == "value"]

    def coverage(self) -> float:
        """Fraction of non-stopword tokens covered by schema mentions."""
        if self._coverage is None:
            content = [
                i for i, tok in enumerate(self.tokens)
                if tok.lower() not in STOPWORDS and any(c.isalnum() for c in tok)
            ]
            covered = set()
            for mention in self.mentions:
                if mention.kind in ("table", "column"):
                    covered.update(range(mention.start, mention.end))
            self._coverage = (
                len([i for i in content if i in covered]) / len(content)
                if content else 0.0
            )
        return self._coverage


class SchemaLinker:
    """Link questions against one database schema."""

    def __init__(self, schema: DatabaseSchema):
        self.schema = schema
        self._phrases = self._build_phrases(schema)
        #: First words of every phrase: an n-gram starting with any other
        #: word matches nothing, so :meth:`link` never looks it up.
        self._first_words = frozenset(key[0] for key in self._phrases)

    @staticmethod
    def _build_phrases(schema: DatabaseSchema) -> Dict[Tuple[str, ...], Tuple[str, str]]:
        """Map word tuples to (kind, target), longest phrases preferred.

        Both the identifier split (``pet_age`` → ``pet age``) and the natural
        name are indexed; singular/plural variants of the last word are added
        so "singers" matches table ``singer``.

        When several schema elements produce the same phrase, the winner
        is deterministic: tables beat columns, and within a kind the
        element that appears first in schema order wins — never
        last-writer-wins, so reordering additions (or iterating a schema
        built differently) cannot flip which target a question links to.
        """
        phrases: Dict[Tuple[str, ...], Tuple[str, str]] = {}

        def add(words: List[str], kind: str, target: str):
            words = [w.lower() for w in words if w]
            if not words:
                return
            for key in [tuple(words)] + _plural_variants(words):
                existing = phrases.get(key)
                if existing is None or (
                    kind == "table" and existing[0] == "column"
                ):
                    phrases[key] = (kind, target)

        for table in schema.tables:
            add(snake_to_words(table.name), "table", table.name)
            add(table.natural_name.split(), "table", table.name)
            for column in table.columns:
                target = f"{table.name}.{column.name}"
                add(snake_to_words(column.name), "column", target)
                add(column.natural_name.split(), "column", target)
        return phrases

    def link(self, question: str) -> SchemaLinking:
        """Link a question; returns all non-overlapping mentions.

        Inside a :func:`~repro.sql.parser.parse_scope` the linking is
        memoised per (question, schema) for the rest of the scope, so DAIL
        masking and the simulated model's two prompts share one; callers
        must not mutate it.  Outside any scope nothing is memoised.
        """
        memo = scope_memo()
        if memo is None:
            return self._link(question)
        # Keyed on the schema's identity; the entry holds the schema, so the
        # id cannot be reused by another object while the scope lives.
        key = (question, id(self.schema))
        entry = memo.linkings.get(key)
        if entry is None:
            entry = memo.linkings[key] = (self.schema, self._link(question))
        return entry[1]

    def _link(self, question: str) -> SchemaLinking:
        tokens = _TOKEN_RE.findall(question)
        linking = SchemaLinking(question=question, tokens=tokens)
        lowered = [t.lower() for t in tokens]
        taken = [False] * len(tokens)
        first_words = self._first_words
        starts = [i for i, word in enumerate(lowered) if word in first_words]

        # Longest-first schema phrase matching.
        for length in range(min(_MAX_NGRAM, len(tokens)), 0, -1):
            last = len(tokens) - length
            for start in starts:
                if start > last:
                    break
                if any(taken[start:start + length]):
                    continue
                key = tuple(lowered[start:start + length])
                hit = self._phrases.get(key)
                if hit is None:
                    continue
                if length == 1 and key[0] in STOPWORDS:
                    continue
                kind, target = hit
                linking.mentions.append(
                    Mention(start=start, end=start + length, kind=kind, target=target)
                )
                for i in range(start, start + length):
                    taken[i] = True

        # Value mentions: quoted spans, numbers, capitalised mid-sentence words.
        quoted_words = set()
        for match in _QUOTED_RE.finditer(question):
            for word in _TOKEN_RE.findall(match.group()[1:-1]):
                quoted_words.add(word.lower())
        for idx, token in enumerate(tokens):
            if taken[idx]:
                continue
            is_number = _NUMBER_RE.fullmatch(token) is not None
            is_quoted = token.lower() in quoted_words
            is_proper = (
                idx > 0
                and token[:1].isupper()
                and token.lower() not in STOPWORDS
                and any(c.isalpha() for c in token)
            )
            if is_number or is_quoted or is_proper:
                linking.mentions.append(
                    Mention(start=idx, end=idx + 1, kind="value", target=token)
                )
                taken[idx] = True

        linking.mentions.sort(key=lambda m: m.start)
        return linking

    def mask_question(self, question: str, mask: str = MASK_TOKEN) -> str:
        """Replace schema and value mentions with ``mask``.

        Consecutive masked tokens collapse into a single mask, following the
        paper's masked-question construction.
        """
        linking = self.link(question)
        masked_indices: Dict[int, bool] = {}
        for mention in linking.mentions:
            for i in range(mention.start, mention.end):
                masked_indices[i] = True
        out: List[str] = []
        for idx, token in enumerate(linking.tokens):
            if masked_indices.get(idx):
                if out and out[-1] == mask:
                    continue
                out.append(mask)
            else:
                out.append(token)
        return " ".join(out)


def _plural_variants(words: List[str]) -> List[Tuple[str, ...]]:
    """Singular/plural variants of the final word of a phrase."""
    last = words[-1]
    variants = []
    if last.endswith("ies"):
        variants.append(last[:-3] + "y")
    elif last.endswith("ses") or last.endswith("xes"):
        variants.append(last[:-2])
    elif last.endswith("s") and len(last) > 3:
        variants.append(last[:-1])
    elif last.endswith("y"):
        variants.append(last[:-1] + "ies")
    else:
        variants.append(last + "s")
    return [tuple(words[:-1] + [v]) for v in variants]
