"""The benchmark harness: run a (model × prompt-strategy) configuration
over an evaluation split and score it.

One :class:`BenchmarkRunner` owns an evaluation dataset, a cross-domain
candidate pool for in-context examples, the databases for execution-
accuracy scoring, and the unified artifact cache.  Example evaluation is
delegated to :meth:`EvalPipeline.run <repro.eval.pipeline.EvalPipeline.run>`::

    prompt (select → build) → search → analyze → execute → score

Every expensive step reads and writes content-addressed artifacts
through :class:`~repro.cache.store.ArtifactCache`, so parameter sweeps
(the experiment grids) share selection rankings, preliminary SQL, gold
rows and generations across grid cells — and, with a disk tier attached
(``REPRO_CACHE_DIR`` / ``--cache-dir``), across processes: a warm rerun
of an identical sweep skips generation and execution entirely while
producing byte-identical reports.  The runner is shared by every worker
thread of the :class:`~repro.eval.engine.EvalEngine`, which schedules
the actual work (``BenchmarkRunner.run`` delegates to a one-config
engine).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cache.store import ArtifactCache, build_cache
from ..dataset.spider import Example, SpiderDataset
from ..db.sqlite_backend import DatabasePool
from ..errors import EvaluationError
from ..llm.finetune import SFTState
from ..llm.oracle import GoldOracle
from ..llm.simulated import make_llm
from ..prompt.builder import PromptBuilder
from ..prompt.organization import get_organization
from ..prompt.representation import RepresentationOptions, get_representation
from ..selection.strategies import (
    MaskedQuestionSimilaritySelection,
    SelectionStrategy,
    get_selection,
)
from .metrics import EvalReport, PredictionRecord
from .pipeline import EvalPipeline
from .telemetry import NULL_COLLECTOR, TelemetryCollector


@dataclass(frozen=True)
class RunConfig:
    """One point of the benchmark grid.

    ``selection=None`` (or ``k=0``) is the zero-shot setting.
    ``max_tokens`` bounds the prompt; examples are dropped to fit.
    """

    model: str
    representation: str = "CR_P"
    organization: str = "FI_O"
    selection: Optional[str] = None
    k: int = 0
    foreign_keys: Optional[bool] = None
    rule_implication: bool = False
    max_tokens: Optional[int] = None
    sft_state: Optional[SFTState] = None
    label: str = ""

    def resolved_label(self) -> str:
        if self.label:
            return self.label
        parts = [self.model, self.representation]
        if self.selection and self.k > 0:
            parts.append(f"{self.selection}+{self.organization}@{self.k}")
        else:
            parts.append("0-shot")
        if self.sft_state is not None:
            parts.append("sft")
        return " ".join(parts)

    def fingerprint(self) -> str:
        """Stable content digest of the grid point.

        Two configs share it exactly when every field that can change a
        record agrees (``label`` is presentation-only and excluded).
        """
        from ..cache.keys import stable_digest

        sft = self.sft_state
        sft_parts = (
            [sft.tag, repr(sft.trained_competence), repr(sft.icl_retention)]
            if sft is not None
            else []
        )
        return stable_digest(
            "run-config",
            self.model,
            self.representation,
            self.organization,
            self.selection,
            self.k,
            self.foreign_keys,
            self.rule_implication,
            self.max_tokens,
            sft_parts,
        )


@dataclass
class RunPlan:
    """One config's resolved collaborators, built once per run.

    The engine prepares a plan up front so every worker evaluating that
    config shares the same builder, LLM and selection strategy.
    """

    config: RunConfig
    builder: PromptBuilder
    #: The configured LLM client — a :class:`SimulatedLLM` normally, or
    #: a chaos wrapper when the runner has a fault policy attached.
    llm: object
    strategy: Optional[SelectionStrategy]
    n_samples: int = 1
    #: Builds DAIL_S's preliminary prompt: the target representation,
    #: ``FI_O`` organization, zero-shot, no token budget.
    preliminary: PromptBuilder = field(init=False, repr=False)

    def __post_init__(self):
        self.preliminary = PromptBuilder(
            self.builder.representation, get_organization("FI_O")
        )

    @classmethod
    def of(
        cls,
        config: RunConfig,
        llm,
        strategy: Optional[SelectionStrategy],
        n_samples: int = 1,
    ) -> "RunPlan":
        """The plan of ``config`` over a given client and strategy.

        Raises:
            PromptError: unknown representation or organization ids.
        """
        representation = get_representation(
            config.representation,
            RepresentationOptions(
                foreign_keys=config.foreign_keys,
                rule_implication=config.rule_implication,
            ),
        )
        builder = PromptBuilder(
            representation,
            get_organization(config.organization),
            max_tokens=config.max_tokens,
        )
        return cls(config, builder, llm, strategy, n_samples)


class BenchmarkRunner:
    """Evaluates run configurations over one dataset.

    Args:
        eval_dataset: the evaluation split.
        candidates: cross-domain in-context example pool (``None`` for
            zero-shot-only runners).
        pool: databases for execution-accuracy scoring.
        seed: selection-strategy seed.
        llm_latency_s: optional per-generation latency injected into the
            simulated backend — emulates a remote API so the parallel
            engine's speedup can be exercised and benchmarked honestly.
        cache: the artifact cache stages go through.  Defaults to a
            fresh :func:`~repro.cache.store.build_cache`, which attaches
            a disk tier when ``REPRO_CACHE_DIR`` (or ``--cache-dir``)
            is configured; pass an explicit instance to share artifacts
            between runners or to isolate a benchmark's cold pass.
        chaos: optional :class:`~repro.resilience.chaos.ChaosPolicy`.
            When set, the database pool, every built LLM and the cache's
            disk tier (if any) are wrapped in deterministic fault
            injectors; artifacts and journal cells are keyed under the
            policy's fingerprint so chaos runs never contaminate clean
            ones.  The shared LLM circuit breaker is exposed as
            :attr:`breaker`.
        repair: enable the analyzer's deterministic repair pass —
            predictions with diagnostics are rewritten (case-folded
            identifiers, qualified columns, trailing junk dropped) and
            re-analyzed before execution.  Part of the ``analyze``
            artifact's cache key, so repaired and plain runs never share
            analysis artifacts.
        feedback_rounds: maximum execution-feedback regeneration rounds
            per example (the ``--feedback-rounds`` flag).  Zero — the
            default — disables the repair loop entirely; positive values
            are clamped to
            :data:`~repro.repair.feedback.MAX_FEEDBACK_ROUNDS`.
            Feedback runs journal under a distinct cell key, but share
            every round-0 artifact with plain runs.
        semantic_dedup: group candidate statements into semantic
            equivalence classes before execution in self-consistency
            voting and the feedback loop (on by default; reports stay
            byte-identical either way).  Forced off under chaos: fault
            injection makes two executions of equivalent SQL observably
            different, which is exactly what chaos runs must observe.
    """

    def __init__(
        self,
        eval_dataset: SpiderDataset,
        candidates: Optional[SpiderDataset],
        pool: DatabasePool,
        seed: int = 0,
        llm_latency_s: float = 0.0,
        cache: Optional[ArtifactCache] = None,
        chaos=None,
        repair: bool = False,
        feedback_rounds: int = 0,
        semantic_dedup: bool = True,
    ):
        self.eval_dataset = eval_dataset
        self.candidates = candidates
        self.seed = seed
        self.llm_latency_s = llm_latency_s
        self.repair = repair
        self.oracle = GoldOracle(eval_dataset)
        if candidates is not None:
            self.oracle.add_dataset(candidates)
        self.cache = cache if cache is not None else build_cache()
        self.chaos = chaos
        self.breaker = None
        self.pool = pool
        if chaos is not None:
            from ..resilience.breaker import CircuitBreaker
            from ..resilience.chaos import ChaoticDiskTier, ChaoticPool

            self.pool = ChaoticPool(pool, chaos)
            # One breaker shared by every LLM this runner builds, so
            # consecutive failures across grid cells accumulate the way
            # they would against one real backend.
            self.breaker = CircuitBreaker()
            if self.cache.disk is not None:
                self.cache.disk = ChaoticDiskTier(self.cache.disk.root, chaos)
        self.pipeline = EvalPipeline(
            eval_dataset, candidates, self.pool, self.cache, repair=repair,
            feedback_rounds=feedback_rounds,
            semantic_dedup=semantic_dedup and chaos is None,
        )
        self.feedback_rounds = self.pipeline.feedback_rounds
        self.semantic_dedup = self.pipeline.semantic_dedup
        annotate = getattr(self.cache, "annotate_backend", None)
        if annotate is not None:
            annotate(self.backend_name)
        self._selections: Dict[str, SelectionStrategy] = {}
        self._selection_lock = threading.Lock()

    @property
    def backend_name(self) -> str:
        """The pool's execution-backend name (``sqlite`` when untracked)."""
        return getattr(self.pool, "backend_name", "sqlite")

    # -- caches ------------------------------------------------------------

    def _selection(self, sel_id: str) -> SelectionStrategy:
        with self._selection_lock:
            strategy = self._selections.get(sel_id)
            if strategy is None:
                if self.candidates is None:
                    raise EvaluationError(
                        "few-shot run requested but the runner has no candidate pool"
                    )
                strategy = get_selection(sel_id, self.candidates, seed=self.seed)
                if isinstance(strategy, MaskedQuestionSimilaritySelection):
                    strategy.set_target_dataset(self.eval_dataset)
                self._selections[sel_id] = strategy
            return strategy

    # -- generation helpers ---------------------------------------------------

    def _build_llm(self, config: RunConfig):
        llm = make_llm(
            config.model,
            self.oracle,
            sft_state=config.sft_state,
            latency_s=self.llm_latency_s,
        )
        if self.chaos is not None:
            from ..resilience.chaos import ChaoticLLMClient

            llm = ChaoticLLMClient(llm, self.chaos, breaker=self.breaker)
        return llm

    # -- plan construction -------------------------------------------------------

    def prepare(self, config: RunConfig, n_samples: int = 1) -> RunPlan:
        """Resolve a config into its run plan (builder, LLM, strategy).

        Raises:
            EvaluationError: on misconfiguration (few-shot without a
                candidate pool, unknown representation/organization ids).
        """
        strategy = (
            self._selection(config.selection)
            if config.selection and config.k > 0
            else None
        )
        return RunPlan.of(config, self._build_llm(config), strategy, n_samples)

    def examples_for(self, limit: Optional[int] = None) -> List[Example]:
        """The evaluation examples of one run (``limit`` for smoke runs)."""
        if limit:
            return self.eval_dataset.examples[:limit]
        return list(self.eval_dataset.examples)

    # -- main entry -------------------------------------------------------------

    def run(
        self,
        config: RunConfig,
        limit: Optional[int] = None,
        n_samples: int = 1,
        workers: int = 1,
    ) -> EvalReport:
        """Evaluate one configuration.

        Args:
            config: the grid point.
            limit: evaluate only the first ``limit`` examples (smoke runs).
            n_samples: >1 enables execution-majority self-consistency.
            workers: worker threads (delegates to the parallel engine).

        Raises:
            EvaluationError: on misconfiguration (few-shot without a
                candidate pool).  Per-example failures no longer raise;
                they surface as errored records on the report.
        """
        from .engine import EvalEngine  # local import: engine builds on us

        return EvalEngine(self, workers=workers).run(
            config, limit=limit, n_samples=n_samples
        )

    def evaluate_example(
        self,
        example: Example,
        plan: RunPlan,
        collector: TelemetryCollector = NULL_COLLECTOR,
    ) -> PredictionRecord:
        """Evaluate one example under one plan (thread-safe).

        Raises:
            Exception: whatever the pipeline raises; the engine isolates
                it into an errored record.
        """
        return self.pipeline.run(example, plan, collector)
