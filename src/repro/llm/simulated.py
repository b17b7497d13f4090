"""The simulated LLM: an outcome model over prompt features.

``SimulatedLLM.generate`` turns a :class:`~repro.prompt.builder.Prompt`
into a response in three steps:

1. **Feature extraction** — measured with the library's *real* machinery:
   query hardness (Spider rubric), schema-linking coverage (the linker),
   example relevance (masked-question token overlap + SQL-skeleton
   similarity), organization/representation ids, token counts, the FK and
   rule flags.
2. **Outcome** — a success probability combines the features with the
   model's capability profile; a deterministic draw (SHA-256 of model id,
   SFT tag, prompt text and sample tag) decides success.
3. **Response synthesis** — gold SQL (optionally wrapped in chat prose /
   code fences) on success; a realistic perturbation of it on failure.

Determinism: same model + same prompt text + same sample tag ⇒ same output,
across processes and platforms.  Changing *anything* in the prompt (one
pound sign included) changes the draw — mirroring real prompt sensitivity.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from ..dataset.spider import Example
from ..prompt.builder import Prompt
from ..prompt.organization import ExampleBlock
from ..repair.feedback import FEEDBACK_MARKER
from ..sql.parser import try_parse
from ..sql.skeleton import skeleton_similarity
from ..tokenizer.counter import count_tokens
from ..utils.rng import rng_from, stable_unit
from ..utils.text import content_words
from .interface import GenerationResult, sequential_batch
from .oracle import GoldOracle
from .perturb import equivalent_rewrite, perturb_sql
from .profiles import ModelProfile, get_profile

#: Per-hardness additive shift (harder queries are less likely correct).
_HARDNESS_SHIFT = {"easy": 0.14, "medium": 0.03, "hard": -0.13, "extra": -0.26}

#: Floor/ceiling on success probability.
_P_FLOOR = 0.02
_P_CEIL = 0.96

#: Relevance below which an example counts as a distraction.
_DISTRACTION_THRESHOLD = 0.12


class SimulatedLLM:
    """Deterministic LLM stand-in driven by a capability profile.

    ``latency_s`` injects a per-generation sleep emulating a remote API's
    round-trip — it never changes *what* is generated, only how long it
    takes, so the parallel engine's I/O-overlap behaviour can be
    exercised and benchmarked against the simulated backend.
    """

    def __init__(
        self,
        profile: ModelProfile,
        oracle: GoldOracle,
        sft_state: Optional["SFTState"] = None,
        latency_s: float = 0.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.profile = profile
        self.oracle = oracle
        self.sft_state = sft_state
        self.latency_s = latency_s
        #: Injectable like ApiLLMClient's: resilience drills run
        #: latency-bearing configs without paying wall-clock for them.
        self.sleep = sleep
        #: Optional MetricsRegistry; the engine attaches the run's registry
        #: so request latency and token histograms land in run metrics.
        self.metrics = None
        #: Request/token histograms bound on :attr:`metrics`, as
        #: ``(registry, series)`` — rebound when the engine attaches
        #: another run's registry.
        self._series: Optional[tuple] = None
        #: Per-thread one-entry memos: the last ``(prompt, probability)``
        #: this thread scored, and the facts of the last gold question
        #: (:meth:`_question_facts`).  An entry holds the objects its
        #: identity is keyed on, so no other object can take their ids.
        self._outcome = threading.local()
        self._question = threading.local()
        self._fingerprint: Optional[str] = None

    @property
    def model_id(self) -> str:
        if self.sft_state is not None:
            return f"{self.profile.model_id}+sft[{self.sft_state.representation_id}]"
        return self.profile.model_id

    def fingerprint(self) -> str:
        """Stable digest of everything that determines this model's output.

        Cached generations are keyed by (this fingerprint, prompt text,
        sample tag).  The oracle's content is included — two corpora can
        pose byte-identical prompts with different gold answers — while
        ``latency_s`` is deliberately excluded: it changes how long a
        generation takes, never what is generated, so warm caches work
        across latency settings.
        """
        if self._fingerprint is None:
            from ..cache.keys import stable_digest

            sft_parts = ()
            if self.sft_state is not None:
                sft_parts = (
                    self.sft_state.tag,
                    repr(self.sft_state.trained_competence),
                    repr(self.sft_state.icl_retention),
                )
            self._fingerprint = stable_digest(
                "simulated-llm",
                self.model_id,
                list(sft_parts),
                self.oracle.fingerprint(),
            )
        return self._fingerprint

    # -- outcome model ---------------------------------------------------------

    def success_probability(
        self, prompt: Prompt, gold: Optional[Example] = None
    ) -> float:
        """P(correct SQL | prompt, model) — the heart of the simulation.

        Exposed publicly so tests and ablation benches can assert the
        direction of each feature's effect.  A pure function of (model,
        prompt), so it is computed once per prompt object and thread:
        the samples of a vote and the retries of a call share one
        prompt and reuse the value.  A built prompt is treated as
        immutable.  ``gold`` is the prompt's gold example when the
        caller has already looked it up in the oracle (as
        :meth:`generate` has); otherwise it is looked up here.
        """
        memo = getattr(self._outcome, "entry", None)
        if memo is not None and memo[0] is prompt:
            return memo[1]
        if gold is None:
            gold = self.oracle.lookup(prompt.db_id, prompt.question)
        p = _P_FLOOR if gold is None else self._success_probability(prompt, gold)
        self._outcome.entry = (prompt, p)
        return p

    def _success_probability(self, prompt: Prompt, gold: Example) -> float:
        p = self._base_competence(prompt)
        p += self.profile.affinity(prompt.representation_id) * self._affinity_scale()
        p += _HARDNESS_SHIFT.get(gold.hardness, 0.0)
        p += self._foreign_key_term(prompt, gold)
        p += self._rule_term(prompt)
        p += self._linking_term(prompt)
        p += self._example_term(prompt, gold)
        p += self._context_term(prompt)
        p += self._feedback_term(prompt)
        return min(max(p, _P_FLOOR), _P_CEIL)

    def _base_competence(self, prompt: Prompt) -> float:
        if self.sft_state is not None:
            return self.sft_state.competence(prompt.representation_id)
        return self.profile.competence

    def _affinity_scale(self) -> float:
        # After task-specific SFT the model has learned the task format, so
        # prompt-style preferences matter less.
        return 0.4 if self.sft_state is not None else 1.0

    def _question_facts(self, db_id: str, gold: Example) -> Tuple[float, bool]:
        """The question's difficulty draw and whether its gold query
        joins tables: facts of the question alone, derived once per
        example, whose model calls all run on one thread."""
        memo = getattr(self._question, "entry", None)
        if (memo is not None and memo[0] is gold and memo[1] is gold.query
                and memo[2] == db_id):
            return memo[3]
        query = try_parse(gold.query)
        needs_join = query is not None and any(
            core.from_clause is not None and len(core.from_clause.sources()) > 1
            for _, core in query.flatten_set_ops()
        )
        facts = (stable_unit("difficulty", db_id, gold.query), needs_join)
        self._question.entry = (gold, gold.query, db_id, facts)
        return facts

    def _foreign_key_term(self, prompt: Prompt, gold: Example) -> float:
        _, needs_join = self._question_facts(prompt.db_id, gold)
        if prompt.includes_foreign_keys:
            return 0.055 if needs_join else -0.005
        return -0.035 if needs_join else 0.0

    def _rule_term(self, prompt: Prompt) -> float:
        # The "no explanation" rule stops chatty models from wrapping the
        # SQL in prose that post-processing sometimes mangles.  A fine-
        # tuned model emits bare SQL by construction, so the rule is moot.
        if self.sft_state is not None:
            return 0.0
        if prompt.includes_rule:
            return 0.012 + 0.05 * self.profile.chattiness
        return -0.02 * self.profile.chattiness

    def _linking_term(self, prompt: Prompt) -> float:
        coverage = self.oracle.linker(prompt.schema).link(prompt.question).coverage()
        # Centred at the typical Spider coverage; low-coverage questions
        # (Spider-Realistic) are harder for everyone, and hardest for
        # weakly aligned models.
        return (coverage - 0.55) * 0.28 * (1.30 - self.profile.alignment)

    def _example_term(self, prompt: Prompt, gold: Example) -> float:
        if not prompt.examples:
            return 0.0
        icl_gain = self.profile.icl_gain
        if self.sft_state is not None:
            # Fine-tuning collapses the model onto the zero-shot format:
            # in-context examples stop helping and mildly interfere.
            return self.sft_state.icl_retention * len(prompt.examples) / 4.0

        relevance_sum = 0.0
        distractions = 0
        question_words = frozenset(content_words(prompt.question))
        for block in prompt.examples:
            relevance = self._example_relevance(block, question_words, gold)
            relevance_sum += relevance
            if relevance < _DISTRACTION_THRESHOLD:
                distractions += 1

        organization_factor = self._organization_factor(prompt.organization_id)
        term = icl_gain * (1 - math.exp(-0.55 * relevance_sum)) * organization_factor
        term -= 0.022 * (1.0 - self.profile.alignment) * distractions
        return term

    def _example_relevance(
        self, block: ExampleBlock, question_words: FrozenSet[str], gold: Example
    ) -> float:
        question_overlap = _overlap(
            self.oracle.question_words(block.question), question_words
        )
        structure = skeleton_similarity(block.sql, gold.query)
        return 0.25 * question_overlap + 0.75 * structure

    def _organization_factor(self, organization_id: str) -> float:
        if organization_id == "FI_O":
            return 1.0
        if organization_id == "DAIL_O":
            # Strong models recover the question→SQL mapping without the
            # example schemas (factor ≈ 1); weak models lose some signal.
            return min(0.62 + 0.40 * self.profile.alignment, 0.99)
        if organization_id == "SQL_O":
            return 0.45
        return 0.8

    def _context_term(self, prompt: Prompt) -> float:
        tokens = prompt.token_count
        if tokens > self.profile.max_context:
            return -0.30  # truncated prompt: catastrophic
        return -self.profile.context_burden * tokens / 1000.0

    def _feedback_term(self, prompt: Prompt) -> float:
        """Uplift from an execution-feedback turn in the prompt.

        Diagnosed failures are strong hints (ExeSQL-style feedback
        works); more-aligned models exploit them better.  Keyed on the
        feedback sentinel line so ordinary prompts are unaffected.
        """
        if FEEDBACK_MARKER not in prompt.text:
            return 0.0
        return 0.10 + 0.10 * self.profile.alignment

    # -- generation ---------------------------------------------------------------

    def generate(self, prompt: Prompt, sample_tag: str = "") -> GenerationResult:
        """Produce a response; deterministic in (model, prompt, tag)."""
        metrics = self.metrics
        if metrics is None:
            return self._generate(prompt, sample_tag)
        start = time.perf_counter()
        result = self._generate(prompt, sample_tag)
        bound = self._series
        if bound is None or bound[0] is not metrics:
            bound = self._series = (metrics, self._bind_series(metrics))
        request, prompt_tokens, completion_tokens = bound[1]
        request.observe(time.perf_counter() - start)
        prompt_tokens.observe(result.prompt_tokens)
        completion_tokens.observe(result.completion_tokens)
        return result

    def _bind_series(self, metrics) -> tuple:
        from ..obs.metrics import (
            M_LLM_COMPLETION_TOKENS,
            M_LLM_PROMPT_TOKENS,
            M_LLM_REQUEST,
            TOKEN_BUCKETS,
        )

        labels = {"model": self.model_id}
        return (
            metrics.bind_histogram(M_LLM_REQUEST, labels),
            metrics.bind_histogram(M_LLM_PROMPT_TOKENS, labels,
                                   buckets=TOKEN_BUCKETS),
            metrics.bind_histogram(M_LLM_COMPLETION_TOKENS, labels,
                                   buckets=TOKEN_BUCKETS),
        )

    def _generate(self, prompt: Prompt, sample_tag: str = "") -> GenerationResult:
        if self.latency_s > 0:
            self.sleep(self.latency_s)
        gold = self.oracle.lookup(prompt.db_id, prompt.question)
        sft_tag = self.sft_state.tag if self.sft_state is not None else ""
        if gold is None:
            text = self._fallback_sql(prompt)
            return self._result(prompt, text)

        p = self.success_probability(prompt, gold)
        # Item-response design: every question has one latent difficulty
        # percentile (a deterministic draw keyed on the gold query alone),
        # and a generation succeeds when the model-and-prompt ability p
        # exceeds it.  Comparisons between models, prompt strategies and
        # question paraphrases (Spider-Realistic) are therefore paired per
        # item — hard questions are hard for every model, and a strategy
        # that raises p by 2 points wins ~2% of items, exactly the
        # common-random-numbers property the paper's dev-set grids have.
        base_draw, _ = self._question_facts(prompt.db_id, gold)
        if sample_tag:
            # Repeated samples of the same prompt are highly correlated
            # (temperature sampling wiggles the answer, it does not redraw
            # the model's understanding) — this keeps self-consistency
            # gains small and realistic.
            jitter = stable_unit(
                self.profile.model_id, sft_tag, "sample", prompt.text, sample_tag
            )
            draw = 0.92 * base_draw + 0.08 * jitter
        else:
            draw = base_draw
        # The failure-edit stream is also keyed per item (not per model),
        # so accidental execution matches among wrong answers pair across
        # models too; severity still differs per model, so weaker models
        # make more destructive edits.
        rng = rng_from("response", prompt.db_id, gold.query, sample_tag)

        if draw < p:
            sql = gold.query
            # Correct answers are routinely phrased differently from the
            # gold annotation (COUNT(pk) for COUNT(*), >= n+1 for > n, ...):
            # execution-equal, exact-match-different — the standard EM<EX gap.
            rewrite_rate = 0.45 + 0.25 * (1.0 - self.profile.alignment)
            if rng.random() < rewrite_rate:
                sql = equivalent_rewrite(sql, prompt.schema, rng)
        else:
            severity = min(1.0, max(0.3, (draw - p) * 1.8 + 0.3))
            sql = perturb_sql(gold.query, prompt.schema, rng, severity)

        text = self._decorate(sql, prompt, rng)
        return self._result(prompt, text)

    def _decorate(self, sql: str, prompt: Prompt, rng) -> str:
        """Wrap the SQL the way a real model response would look."""
        if prompt.includes_rule or self.sft_state is not None:
            return sql
        roll = rng.random()
        if roll < self.profile.chattiness * 0.5:
            return f"Here is the SQL query:\n```sql\n{sql}\n```"
        if roll < self.profile.chattiness * 0.7:
            return (
                f"{sql}\n"
                "This query answers the question using the tables above."
            )
        return sql

    def generate_batch(
        self, prompts: Sequence[Prompt], sample_tag: str = ""
    ) -> List[GenerationResult]:
        """Sequential reference implementation of the batch protocol."""
        return sequential_batch(self, prompts, sample_tag=sample_tag)

    def _fallback_sql(self, prompt: Prompt) -> str:
        """When the oracle has no entry, behave like a guessing model."""
        tables = prompt.schema.table_names()
        if not tables:
            return "SELECT 1"
        return f"SELECT * FROM {tables[0]}"

    def _result(self, prompt: Prompt, text: str) -> GenerationResult:
        return GenerationResult(
            text=text,
            prompt_tokens=prompt.token_count,
            completion_tokens=count_tokens(text),
            model_id=self.model_id,
        )


def _overlap(wa: FrozenSet[str], wb: FrozenSet[str]) -> float:
    """Jaccard overlap of two questions' content words — cheap question
    similarity."""
    if not wa or not wb:
        return 0.0
    return len(wa & wb) / len(wa | wb)


def make_llm(
    model_id: str,
    oracle: GoldOracle,
    sft_state: Optional["SFTState"] = None,
    latency_s: float = 0.0,
    sleep: Callable[[float], None] = time.sleep,
) -> SimulatedLLM:
    """Convenience constructor from a model id.

    Raises:
        ModelError: for unknown model ids.
    """
    return SimulatedLLM(
        get_profile(model_id), oracle, sft_state=sft_state,
        latency_s=latency_s, sleep=sleep,
    )


# Imported at the bottom to avoid a cycle (finetune builds SimulatedLLMs).
from .finetune import SFTState  # noqa: E402  (re-export for typing)
