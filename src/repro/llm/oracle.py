"""Gold-answer oracle for the simulated LLM.

The simulator is an *outcome model*: it decides whether a generation
succeeds from prompt features and, on success, must emit the gold SQL (on
failure, a realistic perturbation of it).  The oracle is the lookup from
(db_id, question) to that gold example.  It is strictly part of the
simulation substrate — no benchmark component other than
:class:`~repro.llm.simulated.SimulatedLLM` may consult it.

It also keeps the facts of its corpora the outcome model reads again
and again: a :class:`~repro.schema.linker.SchemaLinker` per schema and
the content words of each demonstration question.  A run builds its
model afresh, while the oracle lives as long as its runner, so these
are derived once per corpus, not once per run.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from ..cache.lru import LRUCache
from ..dataset.spider import Example, SpiderDataset
from ..schema.linker import SchemaLinker
from ..schema.model import DatabaseSchema
from ..sql.parser import seed_parse
from ..utils.text import content_words, normalize_whitespace

#: Demonstration questions whose content words an oracle keeps: more
#: than Spider's training pool of about 7,000 pairs.
_QUESTION_WORDS_MEMO = 8192


class GoldOracle:
    """Maps (db_id, question) to the gold example and its schema."""

    def __init__(self, *datasets: SpiderDataset):
        self._examples: Dict[Tuple[str, str], Example] = {}
        self._schemas: Dict[str, DatabaseSchema] = {}
        self._fingerprint: Optional[str] = None
        #: One linker per schema object, keyed by identity (hashing a
        #: frozen schema walks all of it): two schemas may share a
        #: ``db_id`` (a pruned or evolved copy) and link differently.
        #: Each entry holds its schema, so the id is not reused.
        self._linkers: Dict[int, Tuple[DatabaseSchema, SchemaLinker]] = {}
        self._question_words = LRUCache(_QUESTION_WORDS_MEMO)
        for dataset in datasets:
            self.add_dataset(dataset)

    def add_dataset(self, dataset: SpiderDataset) -> None:
        for example in dataset:
            key = self._key(example.db_id, example.question)
            self._examples[key] = example
        self._schemas.update(dataset.schemas)
        self._fingerprint = None

    @staticmethod
    def _key(db_id: str, question: str) -> Tuple[str, str]:
        return (db_id, normalize_whitespace(question).lower())

    def lookup(self, db_id: str, question: str) -> Optional[Example]:
        """The gold example for a question, or ``None`` if unknown.

        Inside a parse scope (a served request's, say) the example's
        gold AST is seeded into it, so the simulator's parses of the
        gold SQL never tokenize it.
        """
        example = self._examples.get(self._key(db_id, question))
        if example is not None:
            seed_parse(example.query, example.gold_ast)
        return example

    def fingerprint(self) -> str:
        """Stable content digest of the oracle's (question → gold) map.

        Part of the simulated LLM's fingerprint: two oracles built from
        different corpora may answer the same prompt differently, so
        cached generations must not be shared between them.  Computed
        once, and again after :meth:`add_dataset` extends the oracle.
        """
        if self._fingerprint is None:
            from ..cache.keys import digest_texts

            def parts():
                for (db_id, question) in sorted(self._examples):
                    yield db_id
                    yield question
                    yield self._examples[(db_id, question)].query

            self._fingerprint = digest_texts(parts())
        return self._fingerprint

    def linker(self, schema: DatabaseSchema) -> SchemaLinker:
        """The linker of ``schema`` (this object, not an equal one)."""
        entry = self._linkers.get(id(schema))
        if entry is None:
            entry = self._linkers[id(schema)] = (schema, SchemaLinker(schema))
        return entry[1]

    def question_words(self, question: str) -> FrozenSet[str]:
        """The content words of a demonstration question (memoised)."""
        return self._question_words.get_or_compute(
            question, lambda: frozenset(content_words(question))
        )

    def schema(self, db_id: str) -> Optional[DatabaseSchema]:
        return self._schemas.get(db_id)

    def __len__(self) -> int:
        return len(self._examples)
