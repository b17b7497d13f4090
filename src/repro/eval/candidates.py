"""The candidate search shared by batch sweeps and the serving layer.

One question's SQL is chosen by one loop, whichever surface asks::

    generate n samples → extract → analyze → group by canonical
    fingerprint → execute one per class → vote → feedback rounds

:func:`search` runs it over the :class:`~repro.eval.pipeline.EvalPipeline`
artifact accessors (``generation``, ``analysis``, ``execution_outcome``,
``semantic_fingerprint``), so every expensive step is a content-addressed
cache artifact with the same key whether a sweep or ``/v1/generate``
computed it: a question answered during a sweep is a warm cache hit over
HTTP, and the two return the same SQL.

Self-consistency (``n_samples > 1``) samples under tags ``sc-<i>`` and
keeps the execution majority (:func:`majority_vote`).  Execution
feedback (``feedback_rounds > 0``) regenerates a *dead* winner — fatal
lint diagnostic or execution failure — under tags ``fb-<round>`` and
keeps the best candidate on the degradation ladder (:func:`rank`).
Neither step reads gold: scoring the winner is the caller's business.

Determinism rules:

* every expensive step goes through the artifact cache, keyed on
  content (the feedback prompt's text included), so warm reruns and
  journal resumes replay the whole search byte-identically, and serial
  == parallel;
* the per-example repair budget is token-based, never wall-clock;
* transient faults are infrastructure, not model errors: a transient
  execution class triggers one in-place re-execute, and a
  :class:`~repro.errors.ModelError` in a feedback round ends the loop
  with the best candidate so far — neither consumes a round.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ModelError
from ..llm.extract import extract_sql
from ..repair.feedback import FEEDBACK_EXAMPLE_TOKEN_BUDGET, feedback_prompt
from ..repair.taxonomy import REPAIR_EXHAUSTED, is_transient_class
from .telemetry import NULL_COLLECTOR

#: The vote key of a sample that produced no rows (fatal or failed).
ERROR_KEY = "<error>"


def sample_tag(index: int) -> str:
    """Generation tag of self-consistency sample ``index``."""
    return f"sc-{index}"


def feedback_tag(round_index: int) -> str:
    """Generation tag of feedback round ``round_index`` (1-based)."""
    return f"fb-{round_index}"


def majority_vote(results: Sequence[Optional[Sequence[tuple]]]) -> int:
    """Index of the execution-majority sample.

    ``results`` holds each sample's result rows (``None`` when it did
    not execute).  Samples vote for their result set; the largest
    non-error group wins, errors win only when unanimous, ties go to the
    group seen first, and the group's first sample is the winner.
    """
    votes: Dict[str, List[int]] = {}
    for index, rows in enumerate(results):
        key = ERROR_KEY if rows is None else repr(sorted(map(repr, rows)))
        votes.setdefault(key, []).append(index)

    def vote_rank(item):
        key, members = item
        return (key != ERROR_KEY, len(members))

    return max(votes.items(), key=vote_rank)[1][0]


@dataclass
class Candidate:
    """One generated statement and what is known about it."""

    raw_output: str
    #: The SQL extracted from ``raw_output``.
    predicted_sql: str
    #: The ``analyze`` artifact of ``predicted_sql``.
    analysis: Dict
    #: The ``execute`` artifact of :attr:`final_sql` (or of an
    #: equivalent statement); ``None`` when it never executed.
    outcome: Optional[Dict] = None

    @property
    def final_sql(self) -> str:
        return str(self.analysis.get("final_sql") or self.predicted_sql)

    @property
    def fatal(self) -> bool:
        return bool(self.analysis.get("fatal"))

    @property
    def exec_ok(self) -> bool:
        return self.outcome is not None and bool(self.outcome["ok"])

    @property
    def error_class(self) -> str:
        """``lint:<rule>`` when fatal, else the ``exec:*`` class of a
        failed execution, else ""."""
        if self.fatal or self.outcome is None or self.outcome["ok"]:
            return str(self.analysis.get("error_class", ""))
        return str(self.outcome["error_class"])


def rank(candidate: Candidate) -> int:
    """The degradation ladder: executes > non-fatal > fatal.

    Gold-free by construction: repair starts only from a candidate that
    failed and the first candidate that executes ends it, so at most
    one compared candidate ever executes, and whether it also matches
    gold could never decide between two of them.
    """
    if candidate.exec_ok:
        return 2
    return 0 if candidate.fatal else 1


@dataclass
class SearchResult:
    """The search's winner plus the provenance records carry."""

    winner: Candidate
    #: Completion tokens summed over every sample and feedback round.
    completion_tokens: int
    #: The round-0 candidates, in sample order.
    samples: List[Candidate] = field(default_factory=list)
    #: Feedback rounds that generated a candidate.
    repair_rounds: int = 0
    #: Round whose candidate won (0: the original candidate).
    repair_won_round: int = 0
    #: Each generating round's candidate error class.
    repair_round_classes: List[str] = field(default_factory=list)
    #: The error class the repair loop settled on ("" recovered,
    #: ``repair:exhausted``, or a preserved transient class); ``None``
    #: when the loop did not run.
    repair_error_class: Optional[str] = None


def search(
    pipeline,
    llm,
    prompt,
    db_id: str,
    *,
    n_samples: int = 1,
    feedback_rounds: int = 0,
    execute: bool = True,
    collector=NULL_COLLECTOR,
    check: Callable[[str], object] = lambda step: None,
) -> SearchResult:
    """Choose one question's SQL (thread-safe; see the module docstring).

    Args:
        pipeline: the :class:`~repro.eval.pipeline.EvalPipeline` whose
            cached accessors every step goes through.
        llm: the client to sample from.
        prompt: the built prompt.
        db_id: the database the SQL runs against.
        n_samples: >1 votes over that many samples.
        feedback_rounds: repair budget for a dead winner (0: none).
        execute: also execute a lone sample that neither voting nor
            repair needs executed (batch scoring does; serving does not).
        collector: telemetry sink; steps are timed under the
            ``generate``/``extract``/``analyze``/``execute``/``repair``
            stage names.
        check: called with a step name before every sample, feedback
            round and execution; raising aborts the search (the serving
            layer's request deadline).

    Raises:
        ModelError: a sample could not be generated (feedback rounds
            keep the best candidate instead).
    """
    run = _Search(pipeline, llm, prompt, db_id, collector, check)
    if n_samples > 1:
        samples = [run.sample(prompt, sample_tag(index))
                   for index in range(n_samples)]
        memo = run.memo()
        for candidate, _ in samples:
            run.execute(candidate, memo, "voting")
        winner = samples[majority_vote(
            [c.outcome["rows"] if c.exec_ok else None for c, _ in samples]
        )][0]
        winner = replace(winner, raw_output=samples[0][0].raw_output)
        tokens = sum(completion for _, completion in samples)
    else:
        samples = [run.sample(prompt, "")]
        winner, tokens = samples[0]
        if execute or feedback_rounds > 0:
            run.execute(winner, None, "")
    result = SearchResult(winner=winner, completion_tokens=tokens,
                          samples=[candidate for candidate, _ in samples])
    if feedback_rounds > 0 and not winner.exec_ok:
        run.repair(result, feedback_rounds)
    return result


class _Search:
    """One search's fixed collaborators and its steps."""

    def __init__(self, pipeline, llm, prompt, db_id, collector, check):
        self.pipeline = pipeline
        self.llm = llm
        self.prompt = prompt
        self.db_id = db_id
        self.collector = collector
        self.check = check
        # The samples of a vote share one prompt: hash its key once.
        self.prompt_key = pipeline.prompt_key(llm, prompt)

    def memo(self) -> Optional[Dict[str, Dict]]:
        """A fresh equivalence-class memo (``None``: dedup is off)."""
        return {} if self.pipeline.dedup_active else None

    def sample(self, prompt, tag: str) -> Tuple[Candidate, int]:
        """Generate, extract and analyze one candidate."""
        self.check("generate")
        collector = self.collector
        with collector.stage("generate"):
            generation = self.pipeline.generation(
                self.llm, prompt, tag, collector,
                key=self.prompt_key if prompt is self.prompt else None,
            )
        with collector.stage("extract"):
            sql = extract_sql(generation["text"], prompt.response_prefix)
        with collector.stage("analyze"):
            analysis = self.pipeline.analysis(self.db_id, sql, collector)
        candidate = Candidate(str(generation["text"]), sql, analysis)
        return candidate, int(generation["completion_tokens"])

    def execute(self, candidate: Candidate, memo, context: str) -> None:
        """Execute behind the analyzer gate, one statement per class.

        A fatally-diagnosed candidate never touches the database.  With
        a ``memo``, a candidate whose canonical fingerprint already
        executed reuses that outcome — sound because equal canonical
        forms return equal rows on every instance.  Transient outcomes
        are never reused (retrying them is the point).
        """
        if candidate.fatal:
            self.collector.record_short_circuit()
            return
        fingerprint = None
        if memo is not None:
            fingerprint = self.pipeline.semantic_fingerprint(
                self.db_id, candidate.final_sql
            )
            if fingerprint in memo:
                candidate.outcome = memo[fingerprint]
                self.collector.record_semantic_dedup(context)
                return
        candidate.outcome = self.run_sql(candidate.final_sql)
        if fingerprint is not None and not candidate.outcome["transient"]:
            memo[fingerprint] = candidate.outcome

    def run_sql(self, sql: str) -> Dict:
        self.check("execute")
        with self.collector.stage("execute"):
            return self.pipeline.execution_outcome(
                self.db_id, sql, self.collector
            )

    def repair(self, result: SearchResult, rounds: int) -> None:
        """Bounded regenerate-from-diagnostics rounds for a dead winner.

        Each round renders the current failure into a feedback turn,
        regenerates, and keeps the best candidate on :func:`rank`,
        earliest round first.  An exhausted budget keeps the best prior
        candidate and settles on ``repair:exhausted`` (transient aborts
        keep their transient class instead).
        """
        collector = self.collector
        best = current = result.winner
        trigger_class = current.error_class or "unknown"
        spent = 0
        recovered = aborted = False
        # The memo is seeded with the dead winner: the most common
        # repair failure is the model echoing a trivial rewrite of it.
        memo = self.memo()
        if memo is not None and not current.fatal and (
            not is_transient_class(current.error_class)
        ):
            memo[self.pipeline.semantic_fingerprint(
                self.db_id, current.final_sql
            )] = current.outcome
        for round_index in range(1, rounds + 1):
            self.check(f"feedback round {round_index}")
            with collector.stage("repair"):
                if is_transient_class(current.error_class):
                    # Infrastructure condition (locked DB, chaos fault):
                    # retry the same SQL in place; regenerating
                    # different SQL cannot help, so no round is charged.
                    outcome = self.run_sql(current.final_sql)
                    if outcome["ok"]:
                        current.outcome = outcome
                        recovered = True
                        if rank(current) > rank(best):
                            best = current
                            result.repair_won_round = result.repair_rounds
                    collector.record_repair_round("transient")
                    aborted = not recovered
                    break
                fb_prompt = feedback_prompt(
                    self.prompt,
                    current.final_sql,
                    current.error_class,
                    current.analysis.get("diagnostics", []),
                    round_index=round_index,
                )
                if spent + fb_prompt.token_count > FEEDBACK_EXAMPLE_TOKEN_BUDGET:
                    break  # token budget exhausted — deterministic cut
                try:
                    candidate, completion = self.sample(
                        fb_prompt, feedback_tag(round_index)
                    )
                except ModelError:
                    # An API fault that survived the client's own retry
                    # policy: infrastructure, not the model's SQL.
                    collector.record_repair_round("transient")
                    aborted = True
                    break
                spent += fb_prompt.token_count + completion
                result.completion_tokens += completion
                result.repair_rounds = round_index
                self.execute(candidate, memo, "repair")
                result.repair_round_classes.append(candidate.error_class)
                if rank(candidate) > rank(best):
                    best = candidate
                    result.repair_won_round = round_index
                if candidate.exec_ok:
                    recovered = True
                    collector.record_repair_round("recovered")
                    collector.record_repair_recovered(trigger_class)
                    break
                collector.record_repair_round("failed")
                current = candidate
        if not recovered:
            collector.record_repair_round("exhausted")
        result.winner = best
        if recovered:
            result.repair_error_class = ""
        elif aborted:
            result.repair_error_class = best.error_class
        else:
            result.repair_error_class = REPAIR_EXHAUSTED
