"""The evaluation pipeline: one question's path, written once::

    prompt (select → build) → search → analyze → execute → score

:meth:`EvalPipeline.prompt` is the only select → build.  Batch sweeps
(:meth:`EvalPipeline.run`), ``/v1/generate`` and ``/v1/explain``
(:class:`~repro.serve.service.SqlService`) and ``dail-sql ask``
(:class:`~repro.core.dail_sql.DailSQL`) build their prompt through it,
then run the candidate search (:mod:`repro.eval.candidates`): sample,
extract, analyze, execute behind the safety gate, vote over
``n_samples`` and repair a *dead* winner for ``feedback_rounds``.
:meth:`EvalPipeline.run` then scores the winner: ``analyze`` counts the
lint diagnostics of the analysis the search already holds, ``execute``
compares its rows with gold (a fatal winner never ran, so it needs no
gold), and ``score`` assembles the record.  Each step is timed under
its telemetry stage name.

Every expensive step reads and writes through the unified
:class:`~repro.cache.store.ArtifactCache`:

========== ============================ ==============================
step       artifact (cache stage name)  key content
========== ============================ ==============================
select     ``preliminary``              LLM fingerprint + preliminary
                                        prompt text
select     ``select``                   strategy fingerprint, target
                                        question/db, k, preliminary SQL
generate   ``generate``                 LLM fingerprint, prompt text,
                                        sample tag
analyze    ``analyze``                  analyzer version, database
                                        fingerprint, predicted SQL,
                                        repair flag, dialect name
execute    ``execute``                  database fingerprint,
                                        predicted SQL
execute    ``gold``                     database fingerprint, gold SQL
========== ============================ ==============================

The safety gate: a fatally-diagnosed candidate (statement would not
run, or is not a read-only SELECT) never touches the database — a
winning one scores ``exec_match=False`` and the record carries a
structured ``lint:<rule>`` ``error_class`` plus the full diagnostic
list.  With repair enabled, analysis also runs the deterministic repair
pass and re-analyzes, so the record shows the original and the repaired
SQL side by side.

Each key's leading fingerprints (client, strategy, analyzer version
and database) are hashed once per cache as a key prefix
(:meth:`~repro.cache.store.ArtifactCache.prefix`), and a search hashes
its prompt's text once for all of its samples (:meth:`prompt_key`);
digests equal those of the whole keys.

``build`` and ``score`` are cheap pure functions and are always
recomputed.  Because keys are pure content hashes, artifacts are
shared across grid configs within a sweep (the DAIL preliminary pass
and selection rankings are computed once, not once per config) and —
when a disk tier is attached — across processes: a warm re-run skips
generation and execution entirely while producing byte-identical
records.

Cache hits and misses are reported to the run's
:class:`~repro.eval.telemetry.TelemetryCollector` under the artifact
names above, so :class:`~repro.eval.telemetry.RunTelemetry` counters
cover every step uniformly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.analyzer import ANALYZER_VERSION, analyze
from ..analysis.repair import repair as repair_sql
from ..analysis.semantics import EQUAL, equivalent
from ..errors import ExecutionError, SQLSyntaxError
from ..cache.keys import DigestPrefix
from ..cache.store import ArtifactCache
from ..dataset.spider import Example, SpiderDataset
from ..db.execution import results_match
from ..db.sqlite_backend import DatabasePool
from ..llm.extract import extract_sql
from ..llm.interface import client_fingerprint
from ..prompt.builder import Prompt
from ..prompt.organization import ExampleBlock
from ..repair.feedback import MAX_FEEDBACK_ROUNDS
from ..repair.taxonomy import classify_execution_error
from ..selection.strategies import DailSelection
from ..sql.canonical import canonical_fingerprint
from ..sql.dialect import REFERENCE_DIALECT
from ..sql.parser import parse_scope, seed_parse
from ..sql.transpile import transpile
from .candidates import search
from .exact_match import exact_match
from .metrics import PredictionRecord
from .telemetry import NULL_COLLECTOR


class EvalPipeline:
    """Runs one benchmark's questions through select → build → search.

    Owned by a :class:`~repro.eval.harness.BenchmarkRunner`; shared by
    every worker thread of the evaluation engine (it holds no
    per-example state, the cache is thread-safe).

    Args:
        dataset: the evaluation split (schemas, gold queries).
        candidates: in-context example pool (``None`` for zero-shot).
        pool: databases for execution-accuracy scoring.
        cache: the unified artifact cache every step goes through.
        repair: run the deterministic repair pass on diagnosed
            predictions (the ``--repair`` flag); the repair outcome is
            part of the ``analyze`` artifact's cache key, so repaired
            and unrepaired runs never share analysis artifacts.
        feedback_rounds: maximum execution-feedback regeneration rounds
            per example (the ``--feedback-rounds`` flag; clamped to
            [0, :data:`~repro.repair.feedback.MAX_FEEDBACK_ROUNDS`]).
            Zero disables the loop entirely — the pipeline behaves and
            fingerprints exactly as before the loop existed.
        semantic_dedup: group candidate statements into semantic
            equivalence classes (canonical fingerprints) before the
            database round-trip in the candidate search's voting and
            feedback rounds — one representative per class executes, the
            rest reuse its outcome.  Sound because two statements with
            the same canonical form return the same rows on every
            database instance; reports are byte-identical with the
            flag off, only the execution count changes.  Only active
            against the reference dialect (the canonicalizer assumes
            the reference grammar).
    """

    def __init__(
        self,
        dataset: SpiderDataset,
        candidates: Optional[SpiderDataset],
        pool: DatabasePool,
        cache: ArtifactCache,
        repair: bool = False,
        feedback_rounds: int = 0,
        semantic_dedup: bool = True,
    ):
        self.dataset = dataset
        self.candidates = candidates
        self.pool = pool
        self.cache = cache
        self.repair = repair
        self.feedback_rounds = max(0, min(int(feedback_rounds),
                                          MAX_FEEDBACK_ROUNDS))
        self.semantic_dedup = semantic_dedup

    @property
    def dialect_name(self) -> str:
        """The pool backend's dialect name (reference when untracked)."""
        profile = getattr(self.pool, "profile", None)
        return profile.name if profile is not None else REFERENCE_DIALECT

    # -- semantic analysis -----------------------------------------------------

    @property
    def dedup_active(self) -> bool:
        """Whether equivalence-class dedup applies to this pipeline.

        The canonicalizer's soundness argument is stated against the
        reference grammar and SQLite semantics, so dedup switches off
        automatically on non-reference backends.
        """
        return self.semantic_dedup and self.dialect_name == REFERENCE_DIALECT

    def semantic_fingerprint(self, db_id: str, sql: str) -> str:
        """The statement's equivalence-class key.

        Canonical fingerprints collide exactly when two statements have
        the same canonical logical form; statements outside the parser's
        grammar fall back to their raw text (a singleton class — never
        wrongly merged, merely never deduplicated).
        """
        fingerprint = canonical_fingerprint(sql, self.dataset.schema(db_id))
        return fingerprint if fingerprint is not None else f"raw:{sql}"

    def semantic_match(self, db_id: str, gold_sql: str, pred_sql: str) -> bool:
        """Whether the prediction is *provably* equivalent to gold.

        ``True`` only on an :data:`~repro.analysis.semantics.EQUAL`
        verdict — a proof quantified over all database instances, so
        per-record ``semantic_match`` implies ``exec_match`` (the
        converse does not hold: execution accuracy can be a false
        positive on one particular database instance).  Any internal
        error counts as unproven, never as a crash.
        """
        try:
            schema = self.dataset.schema(db_id)
            return equivalent(gold_sql, pred_sql, schema) == EQUAL
        except Exception:
            return False

    # -- the question path -----------------------------------------------------

    def prompt(
        self, plan, question: str, db_id: str, collector=NULL_COLLECTOR,
        check: Callable[[str], object] = lambda step: None,
    ) -> Tuple[List[ExampleBlock], Prompt]:
        """Select → build: the in-context examples and the prompt every
        surface sends for ``question``.

        Args:
            plan: the run plan; its ``llm`` also serves the DAIL
                preliminary pass inside selection.
            check: called with ``"select"`` before selection; raising
                aborts (the serving layer's request deadline).

        Raises:
            DatasetError: unknown ``db_id``.
        """
        schema = self.dataset.schema(db_id)
        check("select")
        with collector.stage("select"):
            blocks = self.selection_blocks(plan, question, db_id, collector)
        with collector.stage("build"):
            prompt = plan.builder.build(schema, question, blocks)
        return blocks, prompt

    def run(self, example: Example, plan, collector=NULL_COLLECTOR) -> PredictionRecord:
        """Evaluate one example under one plan (thread-safe).

        The example runs in one :func:`~repro.sql.parser.parse_scope`, so
        each distinct SQL string is parsed once across its steps, and the
        gold SQL not at all when the example keeps its gold AST.

        Raises:
            Exception: whatever a step raises; the engine isolates it
                into an errored record.
        """
        with parse_scope():
            seed_parse(example.query, example.gold_ast)
            _, prompt = self.prompt(
                plan, example.question, example.db_id, collector
            )
            result = search(
                self, plan.llm, prompt, example.db_id,
                n_samples=plan.n_samples,
                feedback_rounds=self.feedback_rounds,
                collector=collector,
            )
            winner = result.winner
            analysis = winner.analysis
            with collector.stage("analyze"):
                for entry in analysis.get("diagnostics", []):
                    collector.record_lint(
                        str(entry.get("rule", "")),
                        str(entry.get("severity", "")),
                    )
            with collector.stage("execute"):
                # The search executed the winner behind the safety gate;
                # a fatal winner never ran, so it needs no gold rows.
                exec_match = False
                if not winner.fatal:
                    gold_rows = self.gold_rows(example, collector)
                    exec_match = winner.exec_ok and results_match(
                        gold_rows, winner.outcome["rows"], example.query
                    )
            with collector.stage("score"):
                final_sql = winner.final_sql
                em_ok = exact_match(example.query, final_sql)
                sem_ok = self.semantic_match(
                    example.db_id, example.query, final_sql
                )
                # Lint gates outrank execution failures (a fatally-
                # diagnosed statement never executed); the feedback
                # loop, when it ran, resolves the final class itself
                # (``repair:exhausted``, the preserved transient class,
                # or "" on recovery).
                error_class = (
                    winner.error_class
                    if result.repair_error_class is None
                    else result.repair_error_class
                )
                return PredictionRecord(
                    example_id=example.example_id,
                    db_id=example.db_id,
                    question=example.question,
                    gold_sql=example.query,
                    raw_output=winner.raw_output,
                    predicted_sql=winner.predicted_sql,
                    exec_match=exec_match,
                    exact_match=em_ok,
                    semantic_match=sem_ok,
                    hardness=example.hardness,
                    prompt_tokens=prompt.token_count,
                    completion_tokens=result.completion_tokens,
                    n_examples=prompt.n_examples,
                    error_class=error_class,
                    statement_kind=str(analysis.get("statement_kind", "")),
                    repaired_sql=str(analysis.get("repaired_sql", "")),
                    diagnostics=list(analysis.get("diagnostics", [])),
                    repair_rounds=result.repair_rounds,
                    repair_won_round=result.repair_won_round,
                    repair_round_classes=list(result.repair_round_classes),
                )

    # -- cached artifact accessors -------------------------------------------

    def prompt_key(self, llm, prompt) -> DigestPrefix:
        """The ``generate`` key prefix of one prompt: the client
        fingerprint (hashed once per client), then the prompt's text.
        A search hashes its prompt once for all of its samples."""
        return self.cache.prefix(
            "generate", client_fingerprint(llm)
        ).extend(prompt.text)

    def generation(self, llm, prompt, sample_tag: str, collector,
                   key: Optional[DigestPrefix] = None) -> Dict:
        """The ``generate`` artifact: raw text + completion tokens.

        Cache misses — the calls that actually hit the model — also feed
        the collector's cost meter, so token/cost counters reflect real
        spend and stay zero on warm replays.  ``key`` is
        :meth:`prompt_key` of ``llm`` and ``prompt``, when the caller
        holds it.
        """

        def compute() -> Dict:
            result = llm.generate(prompt, sample_tag=sample_tag)
            collector.record_tokens(
                llm.model_id, result.prompt_tokens, result.completion_tokens
            )
            return {
                "text": result.text,
                "completion_tokens": result.completion_tokens,
            }

        return self.cache.get_or_compute(
            "generate", (sample_tag,), compute, collector=collector,
            prefix=key or self.prompt_key(llm, prompt),
        )

    def selection_blocks(
        self, plan, question: str, db_id: str, collector=NULL_COLLECTOR
    ) -> List[ExampleBlock]:
        """The ``select`` artifact, hydrated into example blocks.

        Keyed on the plain question/``db_id`` pair (not an
        :class:`Example`), so the serving layer shares selection
        rankings — and the DAIL preliminary pass behind them — with
        batch sweeps over the same corpus.
        """
        strategy = plan.strategy
        if strategy is None:
            return []
        predicted: Optional[str] = None
        if isinstance(strategy, DailSelection):
            predicted = self.preliminary_sql(plan, question, db_id, collector)

        def compute() -> List[List[str]]:
            blocks = strategy.select(
                question, db_id, plan.config.k, predicted_sql=predicted,
            )
            return [[b.schema.db_id, b.question, b.sql] for b in blocks]

        refs = self.cache.get_or_compute(
            "select",
            (question, db_id, plan.config.k, predicted or ""),
            compute,
            collector=collector,
            prefix=self.cache.prefix("select", strategy.fingerprint()),
        )
        return [
            ExampleBlock(
                question=block_question,
                sql=sql,
                schema=strategy.candidates.schema(block_db_id),
            )
            for block_db_id, block_question, sql in refs
        ]

    def preliminary_sql(
        self, plan, question: str, db_id: str, collector=NULL_COLLECTOR
    ) -> str:
        """The ``preliminary`` artifact: DAIL_S's zero-shot predicted SQL.

        The preliminary prompt (``plan.preliminary``: target
        representation, ``FI_O`` organization, zero-shot) is always
        rebuilt — it is cheap and its *text* is the cache key, so two
        configs share the artifact exactly when their preliminary
        prompts and model agree.
        """
        prompt = plan.preliminary.build(self.dataset.schema(db_id), question)

        def compute() -> str:
            result = plan.llm.generate(prompt, sample_tag="preliminary")
            collector.record_tokens(
                plan.llm.model_id, result.prompt_tokens,
                result.completion_tokens,
            )
            return extract_sql(result.text, prompt.response_prefix)

        return self.cache.get_or_compute(
            "preliminary",
            (prompt.text,),
            compute,
            collector=collector,
            prefix=self.cache.prefix(
                "preliminary", client_fingerprint(plan.llm)
            ),
        )

    def analysis(
        self, db_id: str, sql: str, collector=NULL_COLLECTOR,
        *, repair: Optional[bool] = None, dialect: Optional[str] = None,
    ) -> Dict:
        """The ``analyze`` artifact: diagnostics + safety verdict.

        The payload is plain JSON: ``statement_kind``, ``diagnostics``
        (list of dicts), ``fatal``, ``error_class``, ``final_sql``
        (repaired text when repair applied, else the input), plus
        ``repaired_sql``/``repair_applied``/``original_diagnostics``
        when the repair pass changed the text.  Keyed purely on analyzer
        version, database fingerprint, SQL text, the repair flag and the
        dialect name, so results are byte-identical serial vs parallel
        and cache-hit on warm reruns.

        Args:
            repair: per-call override of the pipeline's repair flag
                (the serving layer honours a per-request setting);
                ``None`` uses the pipeline default.
            dialect: the dialect the SQL is written in; ``None`` uses
                the pool backend's dialect.  The deterministic repair
                pass only runs for reference-dialect SQL (its rewrite
                rules assume the reference grammar).
        """
        do_repair = self.repair if repair is None else repair
        dialect_name = dialect or self.dialect_name
        if dialect_name != REFERENCE_DIALECT:
            do_repair = False

        def compute() -> Dict:
            schema = self.dataset.schema(db_id)
            result = analyze(schema, sql, dialect=dialect_name)
            payload: Dict = {
                "statement_kind": result.statement_kind,
                "diagnostics": [d.to_dict() for d in result.diagnostics],
                "fatal": result.fatal,
                "error_class": result.error_class(),
                "final_sql": sql,
                "repaired_sql": "",
            }
            if do_repair and result.diagnostics:
                fixed = repair_sql(schema, sql)
                if fixed.changed:
                    rechecked = analyze(schema, fixed.sql)
                    payload.update({
                        "original_diagnostics": payload["diagnostics"],
                        "statement_kind": rechecked.statement_kind,
                        "diagnostics": [
                            d.to_dict() for d in rechecked.diagnostics
                        ],
                        "fatal": rechecked.fatal,
                        "error_class": rechecked.error_class(),
                        "final_sql": fixed.sql,
                        "repaired_sql": fixed.sql,
                        "repair_applied": list(fixed.applied),
                    })
            return payload

        return self.cache.get_or_compute(
            "analyze",
            (sql, "repair" if do_repair else "plain", dialect_name),
            compute,
            collector=collector,
            prefix=self.cache.prefix(
                "analyze", ANALYZER_VERSION, self.pool.fingerprint(db_id)
            ),
        )

    def gold_rows(self, example: Example, collector):
        """The ``gold`` artifact: executed gold-query result rows.

        Gold queries are written in the reference dialect; when the
        pool's backend speaks another flavor the query is transpiled to
        that flavor first (falling back to the original text if it sits
        outside the transpiler's grammar subset).  The cache key is the
        untranspiled gold text — backend isolation comes from the pool
        fingerprint's backend token.
        """

        def compute():
            query = example.query
            profile = getattr(self.pool, "profile", None)
            if profile is not None and not profile.is_reference:
                try:
                    query = transpile(example.query, REFERENCE_DIALECT, profile)
                except SQLSyntaxError:
                    query = example.query
            return self.pool.get(example.db_id).execute(query)

        return self.cache.get_or_compute(
            "gold",
            (example.query,),
            compute,
            collector=collector,
            prefix=self.cache.prefix(
                "gold", self.pool.fingerprint(example.db_id)
            ),
            encode=lambda rows: [list(row) for row in rows],
            decode=lambda rows: [tuple(row) for row in rows],
        )

    def execution_outcome(self, db_id: str, sql: str, collector) -> Dict:
        """The ``execute`` artifact: a structured execution outcome.

        The runtime value is a dict — ``ok``, ``rows`` (tuples, or
        ``None`` on failure), ``error_class`` (``exec:*`` taxonomy; ""
        on success) and ``transient`` — because failures are results
        too, and cacheable: the repair loop and error analysis need to
        know *how* an execution failed, not just that it did.  Disk
        entries written before the taxonomy landed (bare
        ``{"ok": false}``) decode with an empty class.
        """

        def compute() -> Dict:
            try:
                rows = self.pool.get(db_id).execute(sql)
            except ExecutionError as exc:
                return {
                    "ok": False,
                    "rows": None,
                    "error_class": classify_execution_error(
                        str(exc), exc.transient
                    ),
                    "transient": exc.transient,
                }
            return {"ok": True, "rows": rows, "error_class": "",
                    "transient": False}

        def encode(outcome):
            if not outcome["ok"]:
                return {
                    "ok": False,
                    "error_class": outcome["error_class"],
                    "transient": outcome["transient"],
                }
            return {
                "ok": True,
                "rows": [list(row) for row in outcome["rows"]],
            }

        def decode(payload):
            if not payload.get("ok"):
                return {
                    "ok": False,
                    "rows": None,
                    "error_class": str(payload.get("error_class", "")),
                    "transient": bool(payload.get("transient", False)),
                }
            return {
                "ok": True,
                "rows": [tuple(row) for row in payload.get("rows", [])],
                "error_class": "",
                "transient": False,
            }

        return self.cache.get_or_compute(
            "execute",
            (sql,),
            compute,
            collector=collector,
            prefix=self.cache.prefix("execute", self.pool.fingerprint(db_id)),
            encode=encode,
            decode=decode,
        )
