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

``DailSQL`` is a facade over the question path batch sweeps and
``/v1/generate`` run — :meth:`EvalPipeline.prompt
<repro.eval.pipeline.EvalPipeline.prompt>` (the preliminary pass,
selection and the prompt build) → :func:`repro.eval.candidates.search` —
over the caller's schema and database, so it returns the SQL and the
prompt a sweep with the leaderboard DAIL config records.  It is
model-agnostic: it drives any :class:`~repro.llm.interface.LLMClient`,
including the simulated models the benchmark ships and any real API
client a downstream user plugs in.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..cache.store import ArtifactCache
from ..dataset.spider import SpiderDataset
from ..db.sqlite_backend import Database
from ..eval.candidates import search
from ..eval.harness import RunConfig, RunPlan
from ..eval.pipeline import EvalPipeline
from ..llm.interface import LLMClient
from ..prompt.builder import Prompt
from ..schema.model import DatabaseSchema
from ..selection.strategies import DailSelection
from ..sql.parser import parse_scope


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


class _BoundPool:
    """The caller's one database, in the shape the pipeline executes
    against (the artifact cache lives for one call, so a database's
    fingerprint only has to tell it apart from none)."""

    def __init__(self, database: Optional[Database]):
        self.database = database

    def get(self, db_id: str) -> Optional[Database]:
        return self.database

    def fingerprint(self, db_id: str) -> str:
        return db_id


class DailSQL:
    """The integrated DAIL-SQL pipeline.

    Args:
        llm: any LLM client.
        candidates: cross-domain pool of (question, SQL) examples for
            in-context learning (e.g. the Spider train split).
        k: number of in-context examples requested.
        max_tokens: prompt budget; examples are dropped to fit.
        n_samples: >1 enables self-consistency (requires ``database``
            at query time for execution voting).
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
        self.n_samples = n_samples
        self._selection = DailSelection(candidates)
        self.plan = RunPlan.of(
            RunConfig(
                model=llm.model_id, representation="CR_P",
                organization="DAIL_O", selection="DAIL_S", k=k,
                foreign_keys=True, max_tokens=max_tokens, label="DAIL-SQL",
            ),
            llm, self._selection, n_samples,
        )
        self._targets: Dict[DatabaseSchema, Tuple[SpiderDataset, RunPlan]] = {}

    def _target(
        self, schema: DatabaseSchema
    ) -> Tuple[SpiderDataset, RunPlan]:
        """``schema`` as a dataset, and the plan whose selection masks
        questions with that schema's linker — built once per schema, and
        never mutated, so concurrent calls cannot see each other's."""
        target = self._targets.get(schema)
        if target is None:
            dataset = SpiderDataset([], [schema])
            plan = replace(
                self.plan, strategy=self._selection.for_target(dataset)
            )
            target = self._targets.setdefault(schema, (dataset, plan))
        return target

    def _pipeline(
        self, dataset: SpiderDataset, database: Optional[Database]
    ) -> EvalPipeline:
        return EvalPipeline(
            dataset, self.candidates, _BoundPool(database), ArtifactCache()
        )

    def preliminary_sql(self, schema: DatabaseSchema, question: str) -> str:
        """Zero-shot prediction whose skeleton guides example selection."""
        dataset, plan = self._target(schema)
        return self._pipeline(dataset, None).preliminary_sql(
            plan, question, schema.db_id
        )

    def generate_sql(
        self,
        schema: DatabaseSchema,
        question: str,
        database: Optional[Database] = None,
    ) -> DailSQLResult:
        """Translate one question to SQL.

        ``database`` is only needed when ``n_samples > 1`` (execution-
        majority self-consistency, where a fatally-diagnosed sample
        votes as an error and never executes); without it, the first
        sample wins.
        """
        dataset, plan = self._target(schema)
        pipeline = self._pipeline(dataset, database)
        with parse_scope():
            _, prompt = pipeline.prompt(plan, question, schema.db_id)
            result = search(
                pipeline, plan.llm, prompt, schema.db_id,
                n_samples=self.n_samples if database is not None else 1,
                execute=False,
            )
            # A cache hit: selection computed it on the call's cache.
            preliminary = pipeline.preliminary_sql(plan, question, schema.db_id)
        return DailSQLResult(
            sql=result.winner.predicted_sql,
            raw_output=result.winner.raw_output,
            prompt=prompt,
            preliminary_sql=preliminary,
            n_examples=prompt.n_examples,
            samples=[c.predicted_sql for c in result.samples],
        )
