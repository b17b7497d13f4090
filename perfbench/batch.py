"""Batch workloads: ``batch-dail`` and ``batch-vote``.

Both evaluate the full dev split of the seeded corpus through
:class:`repro.api.EvalEngine` over one :class:`repro.api.BenchmarkRunner`.
A run warms up untimed until the process-level memos (SQL skeletons,
token counts) have settled, then repeats timed passes until
``--seconds`` have gone by, with spare set-ups spread between them
(``setup_s`` is the median set-up).  Every pass starts from an empty
artifact cache, so every pass does the same work.  Timed passes sample
the host's speed after every example (:class:`common.HostSpeed`) and
their timings are scaled to the reference speed; the timing metrics
are medians over passes.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.api import ArtifactCache, BenchmarkRunner, EvalEngine, MetricsRegistry, RunConfig
from repro.dataset.generator.corpus import CorpusConfig, Corpus, build_corpus
from repro.eval.metrics import EvalReport
from repro.obs.trace import NULL_TRACER

from . import layers
from .common import (
    SETUP_REPEATS,
    CheckFailures,
    HostSpeed,
    SetupClock,
    corpus_config,
    dail_entry,
    median,
    peak_rss_mb,
    quantile,
)
from .tracing import Recorder, TraceData, self_time_table

#: Untimed passes before timing.  A probe saw per-pass time settle after
#: the first pass and stay within host noise from the third on.
WARMUP_PASSES = 3

#: Fewest timed passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    config: RunConfig
    n_samples: int
    feedback_rounds: int
    workers: int


def workloads() -> Dict[str, BatchWorkload]:
    dail = dail_entry()
    return {
        # select (the DAIL candidate loop) is ~75% of stage time here.
        "batch-dail": BatchWorkload(
            "batch-dail", dail.config, dail.n_samples,
            feedback_rounds=0, workers=1,
        ),
        # select is empty; the generate→analyze→dedup→execute→vote→repair
        # loop does the work, on two threads.
        "batch-vote": BatchWorkload(
            "batch-vote", RunConfig(model="gpt-3.5-turbo", representation="CR_P"),
            n_samples=5, feedback_rounds=3, workers=2,
        ),
    }


@dataclass
class Pass:
    """One evaluation of the whole dev split."""

    report: EvalReport
    #: Wall and process CPU seconds of the pass, less host-speed sampling.
    wall_s: float
    cpu_s: float
    #: Seconds from pass start until each example completed, in order,
    #: less host-speed sampling.
    completions: List[float]
    registry: MetricsRegistry
    cache_stats: Dict[str, Dict[str, int]]
    cache_entries: int
    #: Factor to the reference host speed (1.0 for an uncalibrated pass).
    scale: float

    @property
    def examples(self) -> int:
        return len(self.report.records)

    def scaled_completions(self) -> List[float]:
        return [at * self.scale for at in self.completions]

    def unattributed_s(self) -> float:
        """Worker capacity (workers × wall) no pipeline stage accounts for."""
        telemetry = self.report.telemetry
        return (telemetry.workers * telemetry.wall_clock_s
                - sum(telemetry.stage_s.values()))


class BatchBench:
    """One batch workload over one seeded corpus."""

    def __init__(self, workload: BatchWorkload, seed: int,
                 config: Optional[CorpusConfig] = None):
        self.workload = workload
        self.seed = seed
        self.corpus_config = config or corpus_config(seed)
        self.corpus: Optional[Corpus] = None
        self.runner: Optional[BenchmarkRunner] = None
        self._serial_passes = 0

    # -- set-up ------------------------------------------------------------------

    def build(self) -> Tuple[Corpus, BenchmarkRunner]:
        """Corpus, database pool, runner and run plan (with its selection
        strategy), all passed explicitly so no environment setting
        (``REPRO_CACHE_DIR``, ``REPRO_WORKERS``, ...) reaches them."""
        corpus = build_corpus(self.corpus_config)
        runner = BenchmarkRunner(
            corpus.dev, corpus.train, corpus.pool(), seed=self.seed,
            cache=ArtifactCache(), repair=False,
            feedback_rounds=self.workload.feedback_rounds,
        )
        runner.prepare(self.workload.config, n_samples=self.workload.n_samples)
        return corpus, runner

    def setup(self, clock: SetupClock) -> None:
        self.corpus, self.runner = clock.build(self.build)

    def spare_setup(self, clock: SetupClock) -> None:
        clock.spare(self.build, lambda built: built[0].close())

    def close(self) -> None:
        if self.corpus is not None:
            self.corpus.close()

    # -- passes --------------------------------------------------------------------

    @contextmanager
    def _next_cpu(self, workers: int) -> Iterator[None]:
        """Run a serial pass on one CPU, taking the CPUs in turn.

        The host's cores slow down independently of each other, so a
        serial pass stays on one core, where its host-speed samples are
        taken too.  Passes with several workers run unpinned, since
        pinning would change how their threads share the cores.
        """
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else []
        if workers > 1 or len(cpus) < 2:
            yield
            return
        os.sched_setaffinity(0, {cpus[self._serial_passes % len(cpus)]})
        self._serial_passes += 1
        try:
            yield
        finally:
            os.sched_setaffinity(0, cpus)

    def run_pass(self, workers: Optional[int] = None,
                 calibrate: bool = False) -> Pass:
        """One pass; with ``calibrate``, the thread that finished each
        example then samples the host's speed."""
        runner = self.runner
        runner.cache.clear(disk=False)
        completions: List[float] = []
        speed = HostSpeed()

        def progress(event) -> None:
            completions.append(time.perf_counter() - speed.wall_s)
            if calibrate:
                speed.sample()

        registry = MetricsRegistry()
        engine = EvalEngine(
            runner, workers=workers or self.workload.workers,
            tracer=NULL_TRACER, registry=registry, progress=progress,
        )
        with self._next_cpu(engine.workers):
            gc.collect()
            cpu_start = time.process_time()
            start = time.perf_counter()
            report = engine.run(self.workload.config,
                                n_samples=self.workload.n_samples)
            wall = time.perf_counter() - start - speed.wall_s
            cpu = time.process_time() - cpu_start - speed.cpu_s
        stats = runner.cache.stats()
        return Pass(
            report=report, wall_s=wall, cpu_s=cpu,
            completions=sorted(at - start for at in completions),
            registry=registry, cache_stats=stats,
            cache_entries=sum(
                len(runner.cache.stage_entries(stage)) for stage in stats
            ),
            scale=speed.scale if calibrate else 1.0,
        )

    def passes_for(self, seconds: float, clock: Optional[SetupClock] = None,
                   calibrate: bool = False) -> List[Pass]:
        """Timed passes until ``seconds`` have gone by (at least
        :data:`MIN_PASSES`), with the clock's spare set-ups in between."""
        passes: List[Pass] = []
        started = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() < started + seconds:
            passes.append(self.run_pass(calibrate=calibrate))
            if clock is not None and clock.spare_due(started, seconds):
                self.spare_setup(clock)
        while clock is not None and len(clock.times) < SETUP_REPEATS:
            self.spare_setup(clock)
        return passes

    def warm_up(self, checks: CheckFailures) -> Pass:
        """Untimed passes; returns the first, whose records every later
        pass must reproduce.  batch-vote also runs one serial pass, whose
        records must equal the two-worker ones."""
        first = self.run_pass()
        for _ in range(WARMUP_PASSES - 1):
            check_same(checks, first, self.run_pass(), "warm-up pass")
        if self.workload.workers > 1:
            check_same(checks, first, self.run_pass(workers=1),
                       "serial pass (1 worker)")
        check_records(checks, first)
        return first


def check_same(checks: CheckFailures, first: Pass, other: Pass,
               what: str) -> None:
    checks.require(
        other.report.records == first.report.records,
        f"{what}: records differ from the first pass",
    )


def check_records(checks: CheckFailures, first: Pass) -> None:
    records = first.report.records
    sem_not_ex = sum(r.semantic_match and not r.exec_match for r in records)
    checks.require(sem_not_ex == 0,
                   f"sem_not_ex = {sem_not_ex}: a proved-equal SQL failed EX")
    checks.require(not first.report.partial, "report is partial")


def check_accounting(checks: CheckFailures, passes: List[Pass]) -> None:
    """Stage times may not exceed worker capacity: unattributed time is
    what remains, and it must not be negative."""
    for index, item in enumerate(passes):
        checks.require(
            item.unattributed_s() >= -1e-6,
            f"pass {index}: stage times exceed workers x wall "
            f"by {-item.unattributed_s():.6f}s",
        )


def _failed(passes: List[Pass]) -> int:
    return sum(1 for item in passes for r in item.report.records if r.error)


# -- timed run -------------------------------------------------------------------


def _doubled(completions: List[float]) -> List[float]:
    """Completion times of two sweeps queued back to back."""
    return completions + [completions[-1] + at for at in completions]


def timed_run(bench: BatchBench, seconds: float
              ) -> Tuple[Dict[str, float], CheckFailures, int, int]:
    """Timing metrics are medians over the run's passes of each pass's
    times at the reference host speed."""
    checks = CheckFailures()
    clock = SetupClock()
    bench.setup(clock)
    first = bench.warm_up(checks)
    passes = bench.passes_for(seconds, clock, calibrate=True)
    for item in passes:
        check_same(checks, first, item, "timed pass")
    check_accounting(checks, passes)
    print("pass wall ms: " + " ".join(
        f"{item.wall_s * 1e3:.0f}" for item in passes), file=sys.stderr)
    print("at reference speed: " + " ".join(
        f"{item.wall_s * item.scale * 1e3:.0f}" for item in passes),
        file=sys.stderr)
    report = first.report
    attempted = sum(item.examples for item in passes)
    failed = _failed(passes)
    count = first.examples
    sweeps = [item.scaled_completions() for item in passes]

    def over_passes(metric) -> float:
        return median([metric(sweep) for sweep in sweeps])

    metrics = {
        "setup_s": clock.median_s,
        "throughput_per_s": over_passes(lambda sweep: count / sweep[-1]),
        "cpu_ms_per_op": median(
            [item.cpu_s * item.scale * 1e3 / count for item in passes]),
        # A batch user waits for the sweep: completion-time percentiles of
        # a pass (time until half / 99% of the dev split is done).  "High"
        # doubles the offered load: two sweeps queued back to back.
        "latency_p50_ms": over_passes(
            lambda sweep: quantile(sweep, 0.5) * 1e3),
        "latency_p99_ms": over_passes(
            lambda sweep: quantile(sweep, 0.99) * 1e3),
        "latency_p99_high_ms": over_passes(
            lambda sweep: quantile(_doubled(sweep), 0.99) * 1e3),
        # A batch has no latency limit: its highest rate is the rate it
        # delivers up to the p99 point at doubled load.
        "max_rate_per_s": over_passes(
            lambda sweep: 0.99 * 2 * count / quantile(_doubled(sweep), 0.99)),
        "ok_share": (attempted - failed) / attempted,
        "ex_accuracy": report.execution_accuracy,
        "em_accuracy": report.exact_match_accuracy,
        "sem_accuracy": report.semantic_accuracy,
        "prompt_tokens_per_example": report.avg_prompt_tokens,
        "peak_rss_mb": peak_rss_mb(),
    }
    bench.close()
    return metrics, checks, attempted, failed


# -- traced run ------------------------------------------------------------------


def _merged(traces: List[TraceData]) -> TraceData:
    return TraceData(
        threads=[thread for trace in traces for thread in trace.threads],
        counts=sum((trace.counts for trace in traces), Counter()),
        origin=traces[0].origin,
    )


def _summed_counts(passes: List[Pass]) -> Dict[str, float]:
    counts: Dict[str, float] = {}
    for item in passes:
        for key, value in layers.registry_counts(item.registry).items():
            counts[key] = counts.get(key, 0.0) + value
    return counts


def _layer_metrics(traced: List[Tuple[Pass, TraceData]],
                   extra: Dict[str, float]) -> Dict[str, float]:
    passes = [item for item, _ in traced]
    return layers.layer_metrics(
        _merged([trace for _, trace in traced]),
        sum(item.examples for item in passes), _summed_counts(passes), extra,
    )


def traced_run(bench: BatchBench, seconds: float, trace_path
               ) -> Tuple[Dict[str, float], CheckFailures, int, int]:
    """Untraced passes for half the time, then traced passes for the other
    half.  Times come from traced passes at the workload's worker count;
    counts from two serial traced passes, which must agree exactly (with
    two workers, two examples can race for one cache entry and both
    compute it, so parallel counts may differ by a few).  Engine
    accounting, cache statistics and the tracing baseline come from the
    untraced passes."""
    from .tracing import write_trace

    checks = CheckFailures()
    bench.setup(SetupClock())
    first = bench.warm_up(checks)
    plain = bench.passes_for(seconds / 2)
    recorder = Recorder()
    bindings = recorder.install(type(bench.runner.prepare(
        bench.workload.config).llm), serve=False)
    deadline = time.perf_counter() + seconds / 2

    def traced_pass(workers: Optional[int] = None) -> Tuple[Pass, TraceData]:
        recorder.reset()
        item = bench.run_pass(workers)
        return item, recorder.take()

    try:
        serial = [traced_pass(workers=1) for _ in range(2)]
        timed = list(serial) if bench.workload.workers == 1 else []
        while len(timed) < 2 or time.perf_counter() < deadline:
            timed.append(traced_pass())
    finally:
        recorder.uninstall()
    traced = timed if bench.workload.workers == 1 else serial + timed
    for item in plain + [item for item, _ in traced]:
        check_same(checks, first, item, "pass")
    check_accounting(checks, plain)
    for name, count in bindings.items():
        checks.require(count > 0, f"traced run: no binding of {name} wrapped")
    exact = [
        layers.exact_counts(trace, layers.registry_counts(item.registry),
                            item.examples)
        for item, trace in serial
    ]
    checks.require(exact[0] == exact[1],
                   f"exact counts differ between serial traced passes: {exact}")

    plain_wall = median([item.wall_s / item.examples for item in plain])
    traced_wall = median([item.wall_s / item.examples for item, _ in timed])
    extra = {
        "engine.unattributed_ms_per_example": median(
            [item.unattributed_s() * 1e3 / item.examples for item in plain]),
        "engine.utilization": median(
            [item.report.telemetry.utilization for item in plain]),
        **{
            name: median([rates[name] for rates in (
                layers.cache_hit_rates(item.cache_stats) for item in plain)])
            for name in layers.cache_hit_rates({})
        },
        "cache.entries": median([item.cache_entries for item in plain]),
        "trace.overhead_share": traced_wall / plain_wall - 1.0,
    }
    metrics = _layer_metrics(timed, extra)
    counted = _layer_metrics(serial, {})
    metrics.update({name: counted[name] for name in layers.COUNT_METRICS})

    totals = _merged([trace for _, trace in timed]).totals()
    required = ["pipeline.run", "build", "generate", "extract", "analyze",
                "parse", "execute", "score.exact_match",
                "score.semantic_match", "score.results_match"]
    if bench.workload.config.selection:
        required.append("select")
    for name in required:
        checks.require(name in totals and totals[name].calls > 0,
                       f"traced run: layer {name} recorded no calls")
    if bench.workload.config.selection:
        checks.require(metrics["select.similarity_calls_per_example"] > 0,
                       "traced run: selection made no similarity calls")
    if bench.workload.n_samples > 1:
        checks.require(metrics["dedup.saved_share"] > 0,
                       "traced run: semantic dedup saved nothing")
        checks.require(metrics["sql.canonical_per_example"] > 0,
                       "traced run: no canonical fingerprints")
    table = self_time_table(totals, sum(item.examples for item, _ in timed))
    print(table, file=sys.stderr)
    write_trace(trace_path, [trace for _, trace in traced], table)
    passes = plain + [item for item, _ in traced]
    bench.close()
    return metrics, checks, sum(item.examples for item in passes), _failed(passes)
