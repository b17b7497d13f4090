"""The transport-agnostic serving core.

:class:`SqlService` owns one prepared run plan (builder, LLM behind the
breaker and deadline guard, selection strategy) over a
:class:`~repro.eval.harness.BenchmarkRunner` and answers the four
operations the HTTP layer exposes — generate, lint, execute, explain —
on the *same* question path batch sweeps run: generate and explain
build their prompt with :meth:`EvalPipeline.prompt
<repro.eval.pipeline.EvalPipeline.prompt>` (select → build), and
generate then runs the candidate search
(:func:`repro.eval.candidates.search`).  Each request builds one
deadline-bounded plan whose ``llm`` serves both the DAIL preliminary
pass and the search.  Because every expensive step goes through the
content-addressed :class:`~repro.cache.store.ArtifactCache` with
unchanged key shapes, a question evaluated during a sweep is a warm
cache hit over HTTP and vice versa; the service layer adds no second
caching scheme.

The service knows nothing about HTTP: it takes the typed request
dataclasses from :mod:`repro.api.wire`, returns typed responses, and
raises :class:`~repro.errors.ReproError` subclasses.  The HTTP handler
maps those onto status codes; tests drive the service directly.

Request processing enforces, in order:

1. per-tenant token-bucket rate limiting (:class:`.ratelimit.RateLimiter`),
2. a per-request deadline budget, checked between pipeline steps and
   before and after every model call,
3. the analyzer safety gate before any execution
   (:class:`~repro.errors.UnsafeSqlError` for fatal diagnostics on
   ``/v1/execute``; ``/v1/generate`` never executes a fatal candidate),
4. the shared :class:`~repro.resilience.breaker.CircuitBreaker` on the
   LLM path (:class:`.coalesce.GenerateCoalescer`, which calls the model
   on the request's own thread).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Dict, Iterator, List, Optional

from ..api.wire import (
    ExecuteRequest,
    ExecuteResponse,
    ExplainRequest,
    ExplainResponse,
    GenerateRequest,
    GenerateResponse,
    LintRequest,
    LintResponse,
)
from ..errors import DeadlineExceededError, UnsafeSqlError
from ..eval.candidates import search
from ..eval.harness import BenchmarkRunner, RunConfig, RunPlan
from ..eval.telemetry import TelemetryCollector
from ..obs import context as obs_context
from ..obs.metrics import MetricsRegistry
from ..obs.trace import build_tracer
from ..resilience.breaker import CircuitBreaker
from ..sql.parser import parse_scope
from ..sql.transpile import transpile
from .coalesce import GenerateCoalescer
from .ratelimit import RateLimiter


class _Deadline:
    """One request's time budget, checked between pipeline steps."""

    __slots__ = ("clock", "expires")

    def __init__(self, clock: Callable[[], float], budget_s: float):
        self.clock = clock
        self.expires = clock() + budget_s

    def remaining(self) -> float:
        return self.expires - self.clock()

    def check(self, step: str) -> float:
        remaining = self.remaining()
        if remaining <= 0:
            raise DeadlineExceededError(
                f"deadline exceeded before {step} "
                f"(over budget by {-remaining:.3f}s)"
            )
        return remaining


class _DeadlineClient:
    """Per-request LLM facade: same cache identity, guarded calls.

    Delegates ``model_id``/``fingerprint`` to the backing client (so
    ``generate`` artifact keys are those of a batch sweep) and sends
    every call through the breaker guard, bounded by the request's
    remaining budget.
    """

    def __init__(self, coalescer: GenerateCoalescer, deadline: _Deadline):
        self.coalescer = coalescer
        self.deadline = deadline

    @property
    def model_id(self) -> str:
        return self.coalescer.llm.model_id

    def fingerprint(self) -> str:
        from ..llm.interface import client_fingerprint

        return client_fingerprint(self.coalescer.llm)

    def generate(self, prompt, sample_tag: str = ""):
        return self.coalescer.generate(
            prompt, sample_tag=sample_tag,
            timeout_s=self.deadline.check("generate"),
        )


class _ServeCollector(TelemetryCollector):
    """Run collector plus a per-thread 'was the generate a cache hit'
    flag, so responses can report ``cached`` honestly."""

    def __init__(self, registry: MetricsRegistry, tracer=None):
        super().__init__(
            registry=registry, labels={"cell": "serve"},
            **({"tracer": tracer} if tracer is not None else {}),
        )
        self._flags = threading.local()

    def begin_request(self) -> None:
        self._flags.generate_hit = True  # stays True iff no miss happens

    def record_cache(self, name: str, hit: bool) -> None:
        super().record_cache(name, hit)
        if name == "generate" and not hit:
            self._flags.generate_hit = False

    def generate_was_cached(self) -> bool:
        return bool(getattr(self._flags, "generate_hit", False))


class SqlService:
    """Serves text-to-SQL operations over one prepared run plan.

    Args:
        runner: the benchmark runner whose pipeline/cache/pool to serve
            from (typically ``get_context(fast).runner``).
        config: the run configuration to serve (prompt representation,
            selection strategy, model).
        metrics: registry shared with the HTTP layer's ``/metrics``.
        limiter: per-tenant rate limiter (default: 50 req/s, burst 100).
        breaker: circuit breaker on the LLM call path.
        clock: injectable monotonic clock (tests drive deadlines).
        tracer: span sink shared by the request scope and the pipeline
            stages, so ``dail-sql trace correlate``
            can rebuild one request's tree.  ``None`` builds one from
            the configured trace directory (a no-op tracer when tracing
            is off); a tracer built here is owned and closed by
            :meth:`close`.
        feedback_rounds: server default for the execution-feedback
            repair loop on ``/v1/generate`` (requests may raise or
            lower it per call via the wire ``feedback_rounds`` field).
            ``None`` inherits the runner's configured rounds.  With
            rounds on, generate executes its winner behind the analyzer
            gate, so the loop repairs execution failures as well as
            fatal lint diagnostics — it is the batch candidate search,
            on the same artifacts.
    """

    def __init__(
        self,
        runner: BenchmarkRunner,
        config: Optional[RunConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        limiter: Optional[RateLimiter] = None,
        breaker: Optional[CircuitBreaker] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer=None,
        feedback_rounds: Optional[int] = None,
    ):
        self.runner = runner
        self.feedback_rounds = (
            getattr(runner, "feedback_rounds", 0)
            if feedback_rounds is None else max(0, int(feedback_rounds))
        )
        self.pipeline = runner.pipeline
        self.config = config if config is not None else RunConfig(
            model="gpt-4", representation="CR_P", organization="DAIL_O",
            selection="DAIL_S", k=4, foreign_keys=True,
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.limiter = limiter if limiter is not None else RateLimiter()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.clock = clock
        self._own_tracer = tracer is None
        self.tracer = build_tracer() if tracer is None else tracer
        self.collector = _ServeCollector(self.metrics, tracer=self.tracer)
        #: The served plan: a sweep's.  Each request swaps its ``llm``
        #: for a :class:`_DeadlineClient` over :attr:`coalescer`.
        self.plan = runner.prepare(self.config)
        self.coalescer = GenerateCoalescer(
            self.plan.llm, breaker=self.breaker, clock=clock
        )

    # -- request scope -------------------------------------------------------

    @contextmanager
    def _request_scope(
        self, op: str, request, request_id: str
    ) -> Iterator[None]:
        """Everything ambient about one request, in order: the tenant's
        rate-limit token, the context labels cost samples are stamped
        with (tenant + request id), the request's
        :func:`~repro.sql.parser.parse_scope`, and the root ``request``
        span the per-stage spans (model calls included) hang off — the
        tree ``dail-sql trace correlate`` reconstructs."""
        self.limiter.acquire(request.tenant, request_id=request_id)
        with obs_context.bind(tenant=request.tenant,
                              request_id=request_id), parse_scope():
            if not self.tracer.enabled:
                yield
                return
            attrs = {
                "op": op,
                "tenant": request.tenant,
                "db_id": getattr(request, "db_id", ""),
            }
            if request_id:
                attrs["request"] = request_id
            with self.tracer.span("request", request_id or op, **attrs):
                yield

    # -- operations ----------------------------------------------------------

    def generate(
        self, request: GenerateRequest, request_id: str = ""
    ) -> GenerateResponse:
        """Question → SQL through the prompt and candidate search batch
        sweeps run, so a request returns the SQL a sweep with the same
        config records.

        Raises:
            RateLimitedError: tenant over its budget.
            DeadlineExceededError: request budget expired.
            DatasetError: unknown ``db_id``.
            CircuitOpenError: LLM circuit open on the first round (a
                feedback round that fails keeps the best candidate).
        """
        with self._request_scope("generate", request, request_id):
            return self._generate(request, request_id)

    def _generate(
        self, request: GenerateRequest, request_id: str
    ) -> GenerateResponse:
        deadline = _Deadline(self.clock, request.deadline_s)
        collector = self.collector
        collector.begin_request()
        plan = self._plan(deadline)
        _, prompt = self.pipeline.prompt(
            plan, request.question, request.db_id, collector, deadline.check
        )
        result = search(
            self.pipeline, plan.llm, prompt, request.db_id,
            n_samples=request.n_samples,
            feedback_rounds=(
                request.feedback_rounds
                if request.feedback_rounds > 0 else self.feedback_rounds
            ),
            execute=False, collector=collector, check=deadline.check,
        )
        winner = result.winner
        return GenerateResponse(
            sql=winner.final_sql,
            db_id=request.db_id,
            statement_kind=str(winner.analysis.get("statement_kind", "")),
            error_class=str(winner.analysis.get("error_class", "")),
            fatal=winner.fatal,
            prompt_tokens=prompt.token_count,
            completion_tokens=result.completion_tokens,
            n_examples=prompt.n_examples,
            cached=collector.generate_was_cached(),
            request_id=request_id,
        )

    def lint(
        self, request: LintRequest, request_id: str = ""
    ) -> LintResponse:
        """Static analysis (and optional repair) without executing."""
        with self._request_scope("lint", request, request_id):
            deadline = _Deadline(self.clock, request.deadline_s)
            payload = self._analysis(request, deadline, repair=request.repair)
            return LintResponse(
                db_id=request.db_id,
                statement_kind=str(payload.get("statement_kind", "")),
                fatal=bool(payload.get("fatal")),
                error_class=str(payload.get("error_class", "")),
                final_sql=str(payload.get("final_sql") or request.sql),
                repaired_sql=str(payload.get("repaired_sql", "")),
                diagnostics=list(payload.get("diagnostics", [])),
                request_id=request_id,
            )

    def execute(
        self, request: ExecuteRequest, request_id: str = ""
    ) -> ExecuteResponse:
        """Run one statement behind the analyzer safety gate.

        Raises:
            UnsafeSqlError: fatal diagnostics — the statement is not a
                clean read-only SELECT, so it never touches the pool.
        """
        with self._request_scope("execute", request, request_id):
            return self._execute(request, request_id)

    def _execute(
        self, request: ExecuteRequest, request_id: str
    ) -> ExecuteResponse:
        deadline = _Deadline(self.clock, request.deadline_s)
        payload = self._analysis(request, deadline)
        if payload.get("fatal"):
            self.collector.record_short_circuit()
            raise UnsafeSqlError(
                "statement refused by the safety gate "
                f"({payload.get('error_class', 'lint')})",
                diagnostics=list(payload.get("diagnostics", [])),
            )
        final_sql = str(payload.get("final_sql") or request.sql)
        pool_dialect = self.pipeline.dialect_name
        if request.dialect != pool_dialect:
            # The client wrote the statement in its own dialect; the
            # pool executes in the backend's.  Transpile between them
            # (the analyze gate already proved the statement parses).
            final_sql = transpile(final_sql, request.dialect, pool_dialect)
        deadline.check("execute")
        with self.collector.stage("execute"):
            outcome = self.pipeline.execution_outcome(
                request.db_id, final_sql, self.collector
            )
        encoded: List[List[object]] = [
            list(row) for row in outcome["rows"] or []
        ]
        return ExecuteResponse(
            db_id=request.db_id,
            sql=final_sql,
            rows=encoded,
            row_count=len(encoded),
            request_id=request_id,
        )

    def explain(
        self, request: ExplainRequest, request_id: str = ""
    ) -> ExplainResponse:
        """The prompt a generate would send — selection + build only."""
        with self._request_scope("explain", request, request_id):
            deadline = _Deadline(self.clock, request.deadline_s)
            blocks, prompt = self.pipeline.prompt(
                self._plan(deadline), request.question, request.db_id,
                self.collector, deadline.check,
            )
            return ExplainResponse(
                db_id=request.db_id,
                question=request.question,
                prompt_text=prompt.text,
                prompt_tokens=prompt.token_count,
                n_examples=prompt.n_examples,
                example_blocks=[
                    {
                        "db_id": block.schema.db_id,
                        "question": block.question,
                        "sql": block.sql,
                    }
                    for block in blocks
                ],
                request_id=request_id,
            )

    # -- internals -----------------------------------------------------------

    def _plan(self, deadline: _Deadline) -> RunPlan:
        """The served plan with its model calls — the DAIL preliminary
        pass and the search alike — bounded by the request deadline."""
        return replace(
            self.plan, llm=_DeadlineClient(self.coalescer, deadline)
        )

    def _analysis(
        self, request, deadline: _Deadline, repair: Optional[bool] = None
    ) -> Dict:
        """The ``analyze`` artifact of ``request.sql``, in the request's
        dialect (404 on an unknown ``db_id``)."""
        self.pipeline.dataset.schema(request.db_id)
        deadline.check("analyze")
        with self.collector.stage("analyze"):
            return self.pipeline.analysis(
                request.db_id, request.sql, self.collector,
                repair=repair, dialect=request.dialect,
            )

    def close(self) -> None:
        """Close a tracer built here, flushing its spans."""
        if self._own_tracer:
            self.tracer.close()

    def __enter__(self) -> "SqlService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
