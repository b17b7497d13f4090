"""Gold-answer oracle for the simulated LLM.

The simulator is an *outcome model*: it decides whether a generation
succeeds from prompt features and, on success, must emit the gold SQL (on
failure, a realistic perturbation of it).  The oracle is the lookup from
(db_id, question) to that gold example.  It is strictly part of the
simulation substrate — no benchmark component other than
:class:`~repro.llm.simulated.SimulatedLLM` may consult it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..dataset.spider import Example, SpiderDataset
from ..schema.model import DatabaseSchema
from ..sql.parser import seed_parse
from ..utils.text import normalize_whitespace


class GoldOracle:
    """Maps (db_id, question) to the gold example and its schema."""

    def __init__(self, *datasets: SpiderDataset):
        self._examples: Dict[Tuple[str, str], Example] = {}
        self._schemas: Dict[str, DatabaseSchema] = {}
        for dataset in datasets:
            self.add_dataset(dataset)

    def add_dataset(self, dataset: SpiderDataset) -> None:
        for example in dataset:
            key = self._key(example.db_id, example.question)
            self._examples[key] = example
        self._schemas.update(dataset.schemas)

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
        cached generations must not be shared between them.  Recomputed
        per call because :meth:`add_dataset` can extend the oracle; the
        map is small and the callers memoise.
        """
        from ..cache.keys import digest_texts

        def parts():
            for (db_id, question) in sorted(self._examples):
                yield db_id
                yield question
                yield self._examples[(db_id, question)].query

        return digest_texts(parts())

    def schema(self, db_id: str) -> Optional[DatabaseSchema]:
        return self._schemas.get(db_id)

    def __len__(self) -> int:
        return len(self._examples)
