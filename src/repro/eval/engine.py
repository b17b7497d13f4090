"""The parallel evaluation engine and the grid-sweep API.

:class:`EvalEngine` fans (config × example) work units across a
``ThreadPoolExecutor`` while keeping three guarantees the serial harness
gave for free:

* **Determinism** — results land in input order regardless of completion
  order, and every pipeline stage is a pure function of stable hashes, so
  a ``workers=4`` run produces records identical to ``workers=1``.
* **Fault isolation** — an example whose pipeline raises (selection,
  prompt building, generation, execution — anything) becomes a
  :class:`~repro.eval.metrics.PredictionRecord` with its ``error`` field
  set, scored as wrong; the sweep never aborts mid-grid.
* **Telemetry** — each report carries a
  :class:`~repro.eval.telemetry.RunTelemetry` with per-stage wall-clock,
  worker utilization and cache hit rates, and a progress callback fires
  after every example.  With a trace directory configured the engine
  also streams a span tree (run → cell → example → stage) to a JSONL
  trace file and labels every metric sample by config cell in a shared
  :class:`~repro.obs.metrics.MetricsRegistry`.

:class:`GridRunner` is the sweep-level API (the redesign of the old
``run_grid`` function, since removed): ``sweep(configs)`` schedules *every* example of
*every* config onto one worker pool — short configs never leave workers
idle while a long config finishes — and returns a :class:`GridResult`
with named per-config access and tabulation helpers.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from ..dataset.spider import Example
from ..errors import EvaluationError
from ..obs import context as obs_context
from ..obs.build import record_build_info
from ..obs.metrics import (
    M_DEADLINE_EXCEEDED,
    M_INFLIGHT,
    M_INTERRUPTIONS,
    M_JOURNAL_SKIPPED,
    MetricsRegistry,
)
from ..obs.trace import build_tracer
from ..resilience.interrupt import InterruptController
from ..resilience.journal import RunJournal, journal_cell_key
from .harness import BenchmarkRunner, RunConfig, RunPlan
from .metrics import EvalReport, PredictionRecord
from .telemetry import ProgressEvent, TelemetryCollector

#: Progress hook signature: called (under a lock) after every example.
ProgressCallback = Callable[[ProgressEvent], None]


def _error_record(example: Example, exc: BaseException) -> PredictionRecord:
    """The record written for an example whose pipeline raised."""
    try:
        hardness = example.hardness
    except Exception:  # pragma: no cover - hardness itself failing
        hardness = "unknown"
    return PredictionRecord(
        example_id=example.example_id,
        db_id=example.db_id,
        question=example.question,
        gold_sql=example.query,
        raw_output="",
        predicted_sql="",
        exec_match=False,
        exact_match=False,
        hardness=hardness,
        prompt_tokens=0,
        completion_tokens=0,
        n_examples=0,
        error=f"{type(exc).__name__}: {exc}",
        error_class=type(exc).__name__,
    )


def _record_from_journal(stored: dict) -> Optional[PredictionRecord]:
    """A journaled record dict as a ``PredictionRecord``, or ``None``
    when the dict doesn't fit the current schema (a journal written by a
    different library version) — the example is then just recomputed."""
    try:
        return PredictionRecord(**stored)
    except TypeError:
        return None


class EvalEngine:
    """Parallel scheduler for benchmark runs over one shared runner.

    Args:
        runner: the harness holding dataset, caches and databases; its
            caches are lock-protected and shared across workers.
        workers: worker threads; ``1`` evaluates inline (no pool).
        progress: optional per-example progress callback.
        tracer: span sink for this engine's runs.  ``None`` (the
            default) builds one per run from the configured trace
            directory (``--trace-dir`` / ``REPRO_TRACE_DIR``) — the
            zero-overhead :data:`~repro.obs.trace.NULL_TRACER` when no
            directory is configured.
        registry: run-level metrics registry shared by every config
            cell (private per run when omitted).  Pass the same
            instance to a :class:`~repro.obs.progress.ProgressReporter`
            for live stage quantiles, or export it after the run.
        journal: run journal completed records stream to; journaled
            examples are skipped (``--resume``) instead of recomputed.
        interrupt: stop controller for graceful draining — when its
            flag is set, in-flight examples finish, queued ones are
            skipped and the reports come back ``partial=True``.
        example_deadline_s: per-example wall-clock budget.  Overruns
            are *observed* (counter + span attribute), not preempted —
            a Python worker thread cannot be safely killed mid-stage.
        run_deadline_s: whole-run wall-clock budget; once exceeded the
            remaining units are skipped and the reports are partial.
    """

    def __init__(
        self,
        runner: BenchmarkRunner,
        workers: int = 1,
        progress: Optional[ProgressCallback] = None,
        tracer=None,
        registry: Optional[MetricsRegistry] = None,
        journal: Optional[RunJournal] = None,
        interrupt: Optional[InterruptController] = None,
        example_deadline_s: Optional[float] = None,
        run_deadline_s: Optional[float] = None,
    ):
        if workers < 1:
            raise EvaluationError(f"workers must be >= 1, got {workers}")
        self.runner = runner
        self.workers = workers
        self.progress = progress
        self.tracer = tracer
        self.registry = registry
        self.journal = journal
        self.interrupt = interrupt
        self.example_deadline_s = example_deadline_s
        self.run_deadline_s = run_deadline_s

    # -- public API --------------------------------------------------------

    def run(
        self,
        config: RunConfig,
        limit: Optional[int] = None,
        n_samples: int = 1,
    ) -> EvalReport:
        """Evaluate one configuration; see :meth:`run_many`."""
        return self.run_many([config], limit=limit, n_samples=n_samples)[0]

    def run_many(
        self,
        configs: Sequence[RunConfig],
        limit: Optional[int] = None,
        n_samples: Union[int, Sequence[int]] = 1,
        journal: Optional[RunJournal] = None,
    ) -> List[EvalReport]:
        """Evaluate several configurations over one worker pool.

        Args:
            configs: the grid points, evaluated over the runner's dataset.
            limit: evaluate only the first ``limit`` examples of each.
            n_samples: self-consistency sample count — one int for all
                configs, or a per-config sequence.
            journal: per-call journal override (defaults to the
                engine's own — see :class:`EvalEngine`).

        Returns:
            One report per config, in input order; record order within
            each report matches dataset order exactly (parallel runs are
            byte-identical to serial ones).  A report is flagged
            ``partial=True`` when a stop request or the run deadline
            skipped some of its scheduled examples.

        Raises:
            EvaluationError: on misconfiguration of a whole config
                (unknown ids, few-shot without a candidate pool, length
                mismatch of a per-config ``n_samples``).  Per-example
                failures do not raise — they become errored records.
        """
        configs = list(configs)
        samples = self._per_config_samples(configs, n_samples)
        # Plans are built eagerly, in order: config-level misconfiguration
        # fails fast, before any example is evaluated.
        plans = [
            self.runner.prepare(config, n_samples=count)
            for config, count in zip(configs, samples)
        ]
        examples = self.runner.examples_for(limit)

        registry = (
            self.registry if self.registry is not None else MetricsRegistry()
        )
        tracer = self.tracer if self.tracer is not None else build_tracer()
        own_tracer = self.tracer is None and tracer.enabled
        trace_file = str(tracer.path) if tracer.enabled else ""
        self._attach_metrics(plans, registry)
        inflight = registry.bind_gauge(M_INFLIGHT)
        backend_name = getattr(self.runner, "backend_name", "")
        record_build_info(registry, backend=backend_name)

        collectors = [
            TelemetryCollector(
                registry=registry,
                labels={"cell": plan.config.resolved_label()},
                tracer=tracer,
            )
            for plan in plans
        ]
        slots: List[List[Optional[PredictionRecord]]] = [
            [None] * len(examples) for _ in plans
        ]
        units = [
            (ci, ei)
            for ci in range(len(plans))
            for ei in range(len(examples))
        ]
        total = len(units)
        done_box = {"n": 0}
        progress_lock = threading.Lock()
        cell_span_ids = [""] * len(plans)

        journal = journal if journal is not None else self.journal
        cell_keys = (
            [journal_cell_key(plan, self.runner) for plan in plans]
            if journal is not None
            else None
        )
        run_start = time.perf_counter()
        run_deadline = (
            run_start + self.run_deadline_s
            if self.run_deadline_s is not None
            else None
        )
        halted = {"interrupted": False, "deadline": False}

        def tick(plan: RunPlan, example: Example, record: PredictionRecord):
            if self.progress is None:
                return
            with progress_lock:
                done_box["n"] += 1
                event = ProgressEvent(
                    done=done_box["n"],
                    total=total,
                    label=plan.config.resolved_label(),
                    example_id=example.example_id,
                    error=record.error,
                )
            self.progress(event)

        def evaluate(unit) -> None:
            ci, ei = unit
            plan, example = plans[ci], examples[ei]
            collector = collectors[ci]
            if self.interrupt is not None and self.interrupt.stop_requested():
                # Graceful drain: leave the slot empty; the report for
                # this cell comes back partial.
                halted["interrupted"] = True
                return
            if run_deadline is not None and time.perf_counter() > run_deadline:
                halted["deadline"] = True
                registry.counter_add(
                    M_DEADLINE_EXCEEDED, 1,
                    {**collector.labels, "scope": "run"},
                )
                return
            if journal is not None:
                stored = journal.lookup(cell_keys[ci], example.example_id)
                if stored is not None:
                    record = _record_from_journal(stored)
                    if record is not None:
                        registry.counter_add(
                            M_JOURNAL_SKIPPED, 1, collector.labels
                        )
                        collector.example_done(0.0, error=bool(record.error))
                        slots[ci][ei] = record
                        tick(plan, example, record)
                        return
            inflight.add(1)
            start = time.perf_counter()
            try:
                with collector.example(
                    example.example_id,
                    parent_id=cell_span_ids[ci],
                    db_id=example.db_id,
                ) as span:
                    try:
                        # Backend attribution for token/cost samples
                        # recorded while this example evaluates.
                        with obs_context.bind(backend=backend_name):
                            record = self.runner.evaluate_example(
                                example, plan, collector
                            )
                    except Exception as exc:
                        record = _error_record(example, exc)
                    span.set("hardness", record.hardness)
                    span.set("prompt_tokens", record.prompt_tokens)
                    if record.error:
                        span.set(
                            "error_class",
                            record.error_class
                            or record.error.split(":", 1)[0],
                        )
                        span.set("error", record.error)
                    if (
                        self.example_deadline_s is not None
                        and time.perf_counter() - start
                        > self.example_deadline_s
                    ):
                        span.set("deadline_exceeded", True)
                        registry.counter_add(
                            M_DEADLINE_EXCEEDED, 1,
                            {**collector.labels, "scope": "example"},
                        )
            finally:
                inflight.add(-1)
            collector.example_done(
                time.perf_counter() - start, error=bool(record.error)
            )
            slots[ci][ei] = record
            if journal is not None:
                journal.append(
                    cell_keys[ci], example.example_id, asdict(record),
                    request_id=obs_context.current_request_id(),
                )
            tick(plan, example, record)

        start = run_start
        run_span = None
        with ExitStack() as scope:
            if tracer.enabled:
                if own_tracer:
                    # Engine-built tracers are closed when the run ends;
                    # caller-supplied ones outlive it (the caller decides).
                    scope.enter_context(tracer)
                run_span = scope.enter_context(
                    tracer.span(
                        "run", "eval",
                        configs=len(plans),
                        examples=len(examples),
                        workers=self.workers,
                        backend=getattr(self.runner, "backend_name", ""),
                    )
                )
                for ci, plan in enumerate(plans):
                    config = plan.config
                    cell_span = scope.enter_context(
                        tracer.span(
                            "cell", config.resolved_label(),
                            parent_id=run_span.span_id,
                            model=config.model,
                            representation=config.representation,
                            selection=config.selection or "",
                            k=config.k,
                            n_samples=plan.n_samples,
                        )
                    )
                    cell_span_ids[ci] = cell_span.span_id
            if self.workers == 1 or total <= 1:
                for unit in units:
                    evaluate(unit)
            else:
                with ThreadPoolExecutor(max_workers=self.workers) as pool:
                    # list() drains the iterator so worker exceptions (none are
                    # expected — evaluate() isolates them) propagate here.
                    list(pool.map(evaluate, units))
            if halted["interrupted"]:
                registry.counter_add(M_INTERRUPTIONS, 1)
                if run_span is not None:
                    run_span.set("interrupted", True)
            if halted["deadline"] and run_span is not None:
                run_span.set("deadline_exceeded", True)
        wall_clock = time.perf_counter() - start

        reports = []
        for ci, plan in enumerate(plans):
            report = EvalReport(label=plan.config.resolved_label())
            for record in slots[ci]:
                if record is not None:
                    report.add(record)
            # Empty slots are the footprint of a drain/deadline skip.
            report.partial = any(record is None for record in slots[ci])
            report.telemetry = collectors[ci].freeze(
                self.workers, wall_clock, trace_file=trace_file
            )
            reports.append(report)
        # Persist cumulative hit/miss counters alongside the disk tier (if
        # any) so `repro cache stats` can report rates across processes.
        self.runner.cache.flush()
        return reports

    # -- helpers -----------------------------------------------------------

    def _attach_metrics(self, plans: Sequence[RunPlan],
                        registry: MetricsRegistry) -> None:
        """Point each plan's LLM, the shared database pool and the
        artifact cache at the run registry.  Duck-typed so custom
        collaborators without the hooks keep working uninstrumented."""
        for plan in plans:
            if hasattr(plan.llm, "metrics"):
                plan.llm.metrics = registry
        for attr in ("pool", "cache"):
            collaborator = getattr(self.runner, attr, None)
            if collaborator is not None and hasattr(collaborator, "set_metrics"):
                collaborator.set_metrics(registry)

    @staticmethod
    def _per_config_samples(
        configs: Sequence[RunConfig], n_samples: Union[int, Sequence[int]]
    ) -> List[int]:
        if isinstance(n_samples, int):
            return [n_samples] * len(configs)
        counts = list(n_samples)
        if len(counts) != len(configs):
            raise EvaluationError(
                f"n_samples sequence has {len(counts)} entries "
                f"for {len(configs)} configs"
            )
        return counts


class GridResult:
    """Reports of one grid sweep, addressable by position or label.

    Iterating yields the reports in config order.  ``result["label"]``
    (or ``result.get(label)``) fetches one config's report by its
    resolved label; :meth:`to_rows` flattens every report's summary into
    table rows for the experiment drivers.
    """

    def __init__(self, configs: Sequence[RunConfig], reports: Sequence[EvalReport]):
        if len(configs) != len(reports):
            raise EvaluationError(
                f"{len(configs)} configs but {len(reports)} reports"
            )
        self.configs = list(configs)
        self.reports = list(reports)
        self._by_label: Dict[str, EvalReport] = {}
        for config, report in zip(self.configs, self.reports):
            # First config wins on duplicate labels (mirrors dict.setdefault,
            # and sweeps with distinct grid points always have distinct labels).
            self._by_label.setdefault(config.resolved_label(), report)

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self) -> Iterator[EvalReport]:
        return iter(self.reports)

    def __getitem__(self, key: Union[int, str]) -> EvalReport:
        if isinstance(key, int):
            return self.reports[key]
        try:
            return self._by_label[key]
        except KeyError:
            raise KeyError(
                f"no config labelled {key!r}; have {sorted(self._by_label)}"
            ) from None

    def get(self, label: str, default: Optional[EvalReport] = None):
        """Report by label, or ``default`` when the label is unknown."""
        return self._by_label.get(label, default)

    def labels(self) -> List[str]:
        return [config.resolved_label() for config in self.configs]

    def to_rows(self) -> List[Dict[str, object]]:
        """One summary row per config — the experiment-table shape."""
        return [report.summary() for report in self.reports]

    def total_wall_clock_s(self) -> float:
        """Wall-clock of the sweep (configs share one pool, so this is
        the max over per-report telemetry, not the sum)."""
        return max(
            (r.telemetry.wall_clock_s for r in self.reports if r.telemetry),
            default=0.0,
        )


class GridRunner:
    """Sweep-level evaluation API.

    One ``GridRunner`` wraps a shared :class:`BenchmarkRunner` and a
    worker count; :meth:`sweep` evaluates a whole grid on one pool::

        grid = GridRunner(runner, workers=8).sweep(configs, limit=50)
        grid["gpt-4 CR_P 0-shot"].execution_accuracy
        rows = grid.to_rows()
    """

    def __init__(
        self,
        runner: BenchmarkRunner,
        workers: int = 1,
        progress: Optional[ProgressCallback] = None,
        tracer=None,
        registry: Optional[MetricsRegistry] = None,
        journal: Optional[RunJournal] = None,
        interrupt: Optional[InterruptController] = None,
        example_deadline_s: Optional[float] = None,
        run_deadline_s: Optional[float] = None,
    ):
        self.engine = EvalEngine(
            runner, workers=workers, progress=progress,
            tracer=tracer, registry=registry, journal=journal,
            interrupt=interrupt, example_deadline_s=example_deadline_s,
            run_deadline_s=run_deadline_s,
        )

    @property
    def workers(self) -> int:
        return self.engine.workers

    def sweep(
        self,
        configs: Sequence[RunConfig],
        limit: Optional[int] = None,
        n_samples: Union[int, Sequence[int]] = 1,
        journal_path=None,
        resume_from=None,
    ) -> GridResult:
        """Evaluate every config over the shared worker pool.

        Args:
            configs / limit / n_samples: see :meth:`EvalEngine.run_many`.
            journal_path: checkpoint completed records to this JSONL
                file (truncating any previous journal there).
            resume_from: path of an existing journal — its records are
                replayed (examples skipped) and new ones appended.
                Implies journaling to the same file.

        Raises:
            EvaluationError: on config-level misconfiguration (see
                :meth:`EvalEngine.run_many`).
        """
        configs = list(configs)
        journal = self.engine.journal
        owns_journal = False
        if resume_from is not None:
            journal = RunJournal(resume_from, resume=True)
            owns_journal = True
        elif journal_path is not None:
            journal = RunJournal(journal_path, resume=False)
            owns_journal = True
        try:
            reports = self.engine.run_many(
                configs, limit=limit, n_samples=n_samples, journal=journal
            )
        finally:
            if owns_journal:
                journal.close()
        return GridResult(configs, reports)
