"""DAIL-SQL: the paper's integrated Text-to-SQL solution.

The pipeline combines the winners of each benchmark axis:

1. **Code Representation (CR_P)** with foreign keys — structure encoded as
   ``CREATE TABLE`` statements;
2. **DAIL Selection (DAIL_S)** — candidates ranked by masked-question
   similarity and gated on skeleton similarity to a *preliminary* predicted
   SQL (obtained from a zero-shot pass);
3. **DAIL Organization (DAIL_O)** — question–SQL pairs without cross-domain
   schema, packing more examples per token;
4. optional **self-consistency** — sample several generations and take the
   execution-majority answer.

``DailSQL`` is model-agnostic: it drives any
:class:`~repro.llm.interface.LLMClient`, including the simulated models the
benchmark ships and any real API client a downstream user plugs in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..dataset.spider import SpiderDataset
from ..db.sqlite_backend import Database
from ..eval.candidates import majority_vote, sample_tag
from ..llm.extract import extract_sql
from ..llm.interface import LLMClient
from ..prompt.builder import Prompt, PromptBuilder
from ..prompt.organization import ExampleBlock, get_organization
from ..prompt.representation import RepresentationOptions, get_representation
from ..schema.model import DatabaseSchema
from ..selection.strategies import DailSelection


@dataclass
class DailSQLResult:
    """Output of one DAIL-SQL invocation."""

    sql: str
    raw_output: str
    prompt: Prompt
    preliminary_sql: str
    n_examples: int
    samples: List[str] = field(default_factory=list)

    @property
    def prompt_tokens(self) -> int:
        return self.prompt.token_count


class DailSQL:
    """The integrated DAIL-SQL pipeline.

    Args:
        llm: any LLM client.
        candidates: cross-domain pool of (question, SQL) examples for
            in-context learning (e.g. the Spider train split).
        k: number of in-context examples requested.
        max_tokens: prompt budget; examples are dropped to fit.
        n_samples: >1 enables self-consistency (requires ``database``
            or a pool at query time for execution voting).
    """

    def __init__(
        self,
        llm: LLMClient,
        candidates: SpiderDataset,
        k: int = 5,
        max_tokens: Optional[int] = None,
        n_samples: int = 1,
    ):
        self.llm = llm
        self.candidates = candidates
        self.k = k
        self.n_samples = n_samples
        options = RepresentationOptions(foreign_keys=True)
        self._representation = get_representation("CR_P", options)
        self._zero_shot_builder = PromptBuilder(
            self._representation, get_organization("FI_O")
        )
        self._builder = PromptBuilder(
            self._representation, get_organization("DAIL_O"), max_tokens=max_tokens
        )
        self._selection = DailSelection(candidates)

    # -- pipeline stages ------------------------------------------------------

    def preliminary_sql(self, schema: DatabaseSchema, question: str) -> str:
        """Zero-shot prediction whose skeleton guides example selection."""
        prompt = self._zero_shot_builder.build(schema, question)
        result = self.llm.generate(prompt, sample_tag="preliminary")
        return extract_sql(result.text, prompt.response_prefix)

    def select_examples(
        self, schema: DatabaseSchema, question: str, preliminary: str
    ) -> List[ExampleBlock]:
        """DAIL selection against the candidate pool (prompt order)."""
        return self._selection.select(
            question, schema.db_id, self.k, predicted_sql=preliminary
        )

    def build_prompt(
        self,
        schema: DatabaseSchema,
        question: str,
        examples: List[ExampleBlock],
    ) -> Prompt:
        return self._builder.build(schema, question, examples)

    # -- entry points -------------------------------------------------------------

    def generate_sql(
        self,
        schema: DatabaseSchema,
        question: str,
        database: Optional[Database] = None,
    ) -> DailSQLResult:
        """Translate one question to SQL.

        ``database`` is only needed when ``n_samples > 1`` (execution-
        majority self-consistency); without it, the first sample wins.
        """
        preliminary = self.preliminary_sql(schema, question)
        examples = self.select_examples(schema, question, preliminary)
        prompt = self.build_prompt(schema, question, examples)

        samples: List[str] = []
        if self.n_samples <= 1 or database is None:
            result = self.llm.generate(prompt)
            sql = extract_sql(result.text, prompt.response_prefix)
            raw = result.text
            samples.append(sql)
        else:
            raw, sql, samples = self._self_consistency(prompt, database)

        return DailSQLResult(
            sql=sql,
            raw_output=raw,
            prompt=prompt,
            preliminary_sql=preliminary,
            n_examples=prompt.n_examples,
            samples=samples,
        )

    def _self_consistency(self, prompt: Prompt, database: Database):
        raws = [
            self.llm.generate(prompt, sample_tag=sample_tag(index)).text
            for index in range(self.n_samples)
        ]
        samples = [extract_sql(raw, prompt.response_prefix) for raw in raws]
        winner = majority_vote([database.try_execute(sql) for sql in samples])
        return raws[0], samples[winner], samples
